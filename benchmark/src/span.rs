//! The traced run's spans, recorded from outside the program: a root span
//! per `put`/`get` and a child span per `KvTransport::exchange`, appended
//! to a preallocated buffer and written out when the pass is over.

use std::io::Write;
use std::time::Instant;

use safereg_common::epoch::EpochConfig;
use safereg_common::ids::{ClientId, ServerId};
use safereg_common::msg::{ClientToServer, Payload, ServerToClient};
use safereg_common::shard::ShardId;
use safereg_common::trace::TraceCtx;
use safereg_kv::{KvTransport, Unreachable};

use crate::load::OpTransport;

/// Spans one worker can hold. Recording stops — and the pass fails its
/// root-count check — when the buffer is full; it never reallocates.
const CAPACITY: usize = 1 << 19;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Name {
    Get,
    Put,
    Exchange,
}

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u32,
    /// 0 for a root span.
    pub parent: u32,
    pub name: Name,
    /// Message kind of an exchange (`QueryTag`, `PutData`, …).
    pub msg: &'static str,
    pub server: u16,
    pub payload_len: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_us(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

fn msg_name(msg: &ClientToServer) -> &'static str {
    match msg {
        ClientToServer::QueryTag { .. } => "QueryTag",
        ClientToServer::PutData { .. } => "PutData",
        ClientToServer::QueryData { .. } => "QueryData",
        ClientToServer::QueryHistory { .. } => "QueryHistory",
        ClientToServer::QueryTagList { .. } => "QueryTagList",
        ClientToServer::QueryValueAt { .. } => "QueryValueAt",
        ClientToServer::QueryDataSub { .. } => "QueryDataSub",
        ClientToServer::ReadComplete { .. } => "ReadComplete",
    }
}

fn payload_len(msg: &ClientToServer, replies: &[ServerToClient]) -> usize {
    let sent = match msg {
        ClientToServer::PutData { payload, .. } => payload.payload_bytes(),
        _ => 0,
    };
    let received: usize = replies
        .iter()
        .map(|r| match r {
            ServerToClient::DataResp { payload, .. } => payload.payload_bytes(),
            ServerToClient::ValueAtResp {
                payload: Some(p), ..
            } => Payload::payload_bytes(p),
            _ => 0,
        })
        .sum();
    sent + received
}

/// Wraps any [`KvTransport`] and records spans while `recording` is set.
pub struct SpanTransport<T> {
    inner: T,
    pub recording: bool,
    epoch: Instant,
    /// Span ids are `worker + stride * sequence`, unique across workers.
    next_id: u32,
    stride: u32,
    root: Option<Span>,
    pub spans: Vec<Span>,
    pub dropped: u64,
}

impl<T> SpanTransport<T> {
    pub fn new(inner: T, worker: usize, workers: usize, epoch: Instant) -> Self {
        SpanTransport {
            inner,
            recording: false,
            epoch,
            next_id: worker as u32 + workers as u32,
            stride: workers as u32,
            root: None,
            spans: Vec::with_capacity(CAPACITY),
            dropped: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn fresh_id(&mut self) -> u32 {
        let id = self.next_id;
        self.next_id += self.stride;
        id
    }

    fn push(&mut self, span: Span) {
        if self.spans.len() < CAPACITY {
            self.spans.push(span);
        } else {
            self.dropped += 1;
        }
    }
}

impl<T: KvTransport> KvTransport for SpanTransport<T> {
    fn exchange(
        &mut self,
        from: ClientId,
        to: ServerId,
        shard: ShardId,
        key: &[u8],
        msg: &ClientToServer,
        trace: TraceCtx,
    ) -> Result<Vec<ServerToClient>, Unreachable> {
        if !self.recording {
            return self.inner.exchange(from, to, shard, key, msg, trace);
        }
        let start_ns = self.now_ns();
        let result = self.inner.exchange(from, to, shard, key, msg, trace);
        let end_ns = self.now_ns();
        let replies = result.as_deref().unwrap_or(&[]);
        let span = Span {
            id: self.fresh_id(),
            parent: self.root.map_or(0, |r| r.id),
            name: Name::Exchange,
            msg: msg_name(msg),
            server: to.0,
            payload_len: payload_len(msg, replies) as u32,
            start_ns,
            end_ns,
        };
        self.push(span);
        result
    }

    fn reconfigure(&mut self, config: &EpochConfig) {
        self.inner.reconfigure(config);
    }

    fn suspect(&mut self, server: ServerId) {
        self.inner.suspect(server);
    }
}

impl<T: KvTransport + Send> OpTransport for SpanTransport<T> {
    fn begin_op(&mut self, put: bool, payload_len: usize) {
        if !self.recording {
            return;
        }
        let id = self.fresh_id();
        self.root = Some(Span {
            id,
            parent: 0,
            name: if put { Name::Put } else { Name::Get },
            msg: "",
            server: 0,
            payload_len: payload_len as u32,
            start_ns: self.now_ns(),
            end_ns: 0,
        });
    }

    fn end_op(&mut self) {
        if let Some(mut root) = self.root.take() {
            root.end_ns = self.now_ns();
            self.push(root);
        }
    }
}

/// A span's duration minus the part of it its children cover. Children may
/// overlap one another (a scatter/gather round) or stick out of the parent;
/// only the union inside the parent is subtracted.
pub fn self_time_ns(parent: &Span, children: &[Span]) -> u64 {
    (parent.end_ns - parent.start_ns) - union_ns(children, parent.start_ns, parent.end_ns)
}

/// Length of the union of `spans`' intervals clipped to `[lo, hi]`.
pub fn union_ns(spans: &[Span], lo: u64, hi: u64) -> u64 {
    let mut ivals: Vec<(u64, u64)> = spans
        .iter()
        .map(|s| (s.start_ns.clamp(lo, hi), s.end_ns.clamp(lo, hi)))
        .collect();
    ivals.sort_unstable();
    let (mut covered, mut reach) = (0, lo);
    for (start, end) in ivals {
        let start = start.max(reach);
        if end > start {
            covered += end - start;
            reach = end;
        }
    }
    covered
}

/// What the traced pass says about one workload.
#[derive(Debug, Default)]
pub struct TraceSummary {
    pub roots: usize,
    pub exchanges_per_get: f64,
    pub exchanges_per_put: f64,
    /// All exchange durations, µs, unsorted.
    pub exchange_us: Vec<f64>,
    /// Mean over phases (the exchanges of one op that carry the same message
    /// kind) of: time the phase's exchanges cover ÷ its slowest exchange.
    /// Sequential rounds read ≈ exchanges per phase; a round that runs at
    /// max-RTT reads ≈ 1.
    pub rpc_sum_over_max: f64,
    /// Mean root self time, µs.
    pub client_self_us: f64,
}

/// Summarises one worker-ordered span list. Every worker appends an op's
/// exchanges before its root, so a root's children are the run of exchange
/// spans right before it.
pub fn summarize(per_worker: &[Vec<Span>]) -> TraceSummary {
    let mut sum = TraceSummary::default();
    let (mut gets, mut puts, mut get_x, mut put_x) = (0usize, 0usize, 0usize, 0usize);
    let (mut ratio_sum, mut phases, mut self_ns) = (0.0f64, 0usize, 0u64);
    for spans in per_worker {
        let mut first_child = 0;
        for (i, span) in spans.iter().enumerate() {
            if span.name == Name::Exchange {
                sum.exchange_us.push(span.duration_us());
                continue;
            }
            let children = &spans[first_child..i];
            first_child = i + 1;
            debug_assert!(children.iter().all(|c| c.parent == span.id));
            match span.name {
                Name::Get => (gets, get_x) = (gets + 1, get_x + children.len()),
                _ => (puts, put_x) = (puts + 1, put_x + children.len()),
            }
            self_ns += self_time_ns(span, children);
            // Phases are contiguous: the client finishes one message kind
            // before it sends the next.
            for phase in children.chunk_by(|a, b| a.msg == b.msg) {
                let slowest = phase.iter().map(|c| c.end_ns - c.start_ns).max();
                if let Some(slowest) = slowest.filter(|s| *s > 0) {
                    ratio_sum += union_ns(phase, 0, u64::MAX) as f64 / slowest as f64;
                    phases += 1;
                }
            }
        }
    }
    sum.roots = gets + puts;
    sum.exchanges_per_get = get_x as f64 / gets.max(1) as f64;
    sum.exchanges_per_put = put_x as f64 / puts.max(1) as f64;
    sum.rpc_sum_over_max = ratio_sum / phases.max(1) as f64;
    sum.client_self_us = self_ns as f64 / 1e3 / sum.roots.max(1) as f64;
    sum
}

/// Writes one JSON object per span.
pub fn write_jsonl(path: &std::path::Path, per_worker: &[Vec<Span>]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (worker, spans) in per_worker.iter().enumerate() {
        for s in spans {
            let name = match s.name {
                Name::Get => "get",
                Name::Put => "put",
                Name::Exchange => "exchange",
            };
            writeln!(
                out,
                r#"{{"id":{},"parent":{},"name":"{name}","msg":"{}","server":{},"payload_len":{},"start_us":{:.3},"end_us":{:.3},"worker":{worker}}}"#,
                s.id,
                s.parent,
                s.msg,
                s.server,
                s.payload_len,
                s.start_ns as f64 / 1e3,
                s.end_ns as f64 / 1e3,
            )?;
        }
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, name: Name, msg: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            name,
            msg,
            server: 0,
            payload_len: 0,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        let root = span(1, 0, Name::Get, "", 100, 200);
        let x = |s, e| span(2, 1, Name::Exchange, "QueryData", s, e);
        assert_eq!(self_time_ns(&root, &[]), 100);
        // Back to back: 30 + 30 covered.
        assert_eq!(self_time_ns(&root, &[x(110, 140), x(140, 170)]), 40);
        // Overlapping: [110,150] ∪ [130,170] covers 60, not 80.
        assert_eq!(self_time_ns(&root, &[x(110, 150), x(130, 170)]), 40);
        // Nested and out of order.
        assert_eq!(self_time_ns(&root, &[x(120, 130), x(110, 180)]), 30);
        // A child sticking out of the parent only counts inside it.
        assert_eq!(self_time_ns(&root, &[x(90, 120), x(190, 250)]), 70);
        // Fully covered.
        assert_eq!(self_time_ns(&root, &[x(100, 200), x(100, 200)]), 0);
    }

    #[test]
    fn summary_counts_rounds_and_reads_sequential_rounds_as_n() {
        // A put: two phases of three sequential 10 ns exchanges each; a get:
        // one phase whose three exchanges fully overlap.
        let mut spans = Vec::new();
        for (k, msg) in ["QueryTag", "PutData"].into_iter().enumerate() {
            for j in 0..3u64 {
                let at = 1000 + (k as u64 * 3 + j) * 10;
                spans.push(span(0, 7, Name::Exchange, msg, at, at + 10));
            }
        }
        spans.push(span(7, 0, Name::Put, "", 990, 1070));
        for _ in 0..3 {
            spans.push(span(0, 9, Name::Exchange, "QueryData", 2000, 2010));
        }
        spans.push(span(9, 0, Name::Get, "", 2000, 2015));
        let sum = summarize(&[spans]);
        assert_eq!(sum.roots, 2);
        assert_eq!(sum.exchanges_per_put, 6.0);
        assert_eq!(sum.exchanges_per_get, 3.0);
        assert_eq!(sum.exchange_us.len(), 9);
        // Phases read 3, 3 and 1.
        assert!((sum.rpc_sum_over_max - 7.0 / 3.0).abs() < 1e-9);
        // Self: put 80 − 60, get 15 − 10 → mean 12.5 ns.
        assert!((sum.client_self_us - 0.0125).abs() < 1e-9);
    }
}
