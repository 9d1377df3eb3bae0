//! Span records, the lock-free flight recorder, and the slow-read
//! attributor — the process side of the causal tracing layer whose wire
//! side is [`safereg_common::trace::TraceCtx`].
//!
//! # Caller-stamped clock rule
//!
//! A [`SpanRecord`]'s `at`/`dur` fields are **always stamped by the
//! caller**: the deterministic simulator stamps virtual ticks, the TCP
//! stack stamps wall-clock microseconds. Nothing in this module reads a
//! clock, which is why identically-seeded simulator runs render
//! byte-identical span streams through the very same code path the real
//! network uses.
//!
//! # Flight recorder
//!
//! [`FlightRecorder`] is a fixed-size seqlock ring: `emit` is wait-free
//! (one `fetch_add` for a ticket plus six relaxed stores and one release
//! store), readers detect and discard slots that were mid-overwrite. The
//! process-wide ring ([`flight`]) holds the last few thousand spans and is
//! dumped as JSONL to stderr by [`dump_flight`] when something goes wrong:
//! a checker violation, a connection eviction, or a soak-watchdog trip.
//!
//! # Attribution
//!
//! [`attribute_slow_read`] maps the evidence a client gathered while
//! driving a non-fast read ([`SlowEvidence`]) onto one concrete
//! [`SlowCause`]. Causes are ordered by specificity — a retry forced by a
//! network fault outranks generic straggling — so every slow read gets
//! exactly one label and the per-cause counters partition the slow count.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use safereg_common::trace::{Phase, TraceCtx};

use crate::names;

/// What a [`SpanRecord`] marks within its trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum SpanKind {
    /// Root: a client operation was invoked.
    Start = 0,
    /// Root: the operation completed (duration = whole op).
    End = 1,
    /// A timed phase segment ([`Phase`] names which one).
    Segment = 2,
    /// A retry pass began (`detail` = pass number).
    Retry = 3,
    /// Point annotation (breaker transition, eviction…).
    Note = 4,
}

impl SpanKind {
    /// All kinds, discriminant order.
    pub const ALL: [SpanKind; 5] = [
        SpanKind::Start,
        SpanKind::End,
        SpanKind::Segment,
        SpanKind::Retry,
        SpanKind::Note,
    ];

    /// Stable name used in JSONL dumps.
    pub fn as_str(self) -> &'static str {
        match self {
            SpanKind::Start => "start",
            SpanKind::End => "end",
            SpanKind::Segment => "segment",
            SpanKind::Retry => "retry",
            SpanKind::Note => "note",
        }
    }

    /// Decodes a packed discriminant.
    pub fn from_u8(v: u8) -> Option<SpanKind> {
        SpanKind::ALL.into_iter().find(|k| *k as u8 == v)
    }
}

/// The concrete reason a read left the paper's fast path.
///
/// Ordered by attribution priority: when several kinds of evidence are
/// present the most specific (lowest discriminant) wins, so the per-cause
/// counters always partition the slow-read count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum SlowCause {
    /// The operation straddled an epoch change: the client was redirected
    /// with `WrongEpoch`, adopted the new configuration, and re-issued.
    /// Highest priority — retries and unreachable old members during a
    /// reconfiguration are symptoms of the epoch change, not root causes.
    ReconfigTransfer = 0,
    /// The client re-drove the quorum after a network-level fault
    /// (unreachable server, chaos drop/sever, timeout).
    RetryAfterFault = 1,
    /// A reachable replica answered with a stale or invalid value
    /// (validation failures at the protocol layer).
    ByzStaleAck = 2,
    /// A reachable replica returned no reply at all — Byzantine silence.
    ByzSilence = 3,
    /// One replica answered far slower than its peers.
    StragglerReplica = 4,
    /// The protocol simply required its second phase (insufficient
    /// witnesses on the fast round) with no fault evidence.
    SecondPhase = 5,
}

impl SlowCause {
    /// All causes, priority order (stable for schema dumps).
    pub const ALL: [SlowCause; 6] = [
        SlowCause::ReconfigTransfer,
        SlowCause::RetryAfterFault,
        SlowCause::ByzStaleAck,
        SlowCause::ByzSilence,
        SlowCause::StragglerReplica,
        SlowCause::SecondPhase,
    ];

    /// Stable snake_case name used in metric names and JSONL dumps.
    pub fn as_str(self) -> &'static str {
        match self {
            SlowCause::ReconfigTransfer => "reconfig_transfer",
            SlowCause::RetryAfterFault => "retry_after_fault",
            SlowCause::ByzStaleAck => "byz_stale_ack",
            SlowCause::ByzSilence => "byz_silence",
            SlowCause::StragglerReplica => "straggler_replica",
            SlowCause::SecondPhase => "second_phase",
        }
    }

    /// Decodes the packed discriminant (`0` in a record means "no cause").
    pub fn from_u8(v: u8) -> Option<SlowCause> {
        SlowCause::ALL.into_iter().find(|c| *c as u8 == v)
    }
}

/// Straggler heuristic: the slowest replica answered at least this many
/// times slower than the fastest, and at least this much absolute spread.
const STRAGGLER_RATIO: u64 = 4;
const STRAGGLER_FLOOR_US: u64 = 500;

/// Evidence a client gathers while driving one read, fed to
/// [`attribute_slow_read`] when the read completes on the slow path.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SlowEvidence {
    /// Retry passes beyond the first quorum attempt.
    pub retry_passes: u32,
    /// Exchanges that failed at the network layer (unreachable/timeout).
    pub unreachable: u32,
    /// Reachable servers that returned zero replies (Byzantine silence).
    pub silent: u32,
    /// Stale/invalid replies the protocol layer rejected.
    pub validation_failures: u64,
    /// Epoch configurations adopted mid-operation after a `WrongEpoch`
    /// redirect (each adoption forced a re-issue against new membership).
    pub reconfig: u32,
    /// Slowest single-server exchange, µs (0 = untimed).
    pub rpc_max_us: u64,
    /// Fastest single-server exchange, µs (0 = untimed).
    pub rpc_min_us: u64,
}

/// Classifies a slow read's evidence into one concrete [`SlowCause`].
///
/// Total: every evidence combination maps to exactly one cause, with
/// [`SlowCause::SecondPhase`] as the no-fault floor — the paper's honest
/// "not enough witnesses on the fast round" outcome.
pub fn attribute_slow_read(ev: &SlowEvidence) -> SlowCause {
    if ev.reconfig > 0 {
        SlowCause::ReconfigTransfer
    } else if ev.unreachable > 0 && ev.retry_passes > 0 {
        SlowCause::RetryAfterFault
    } else if ev.validation_failures > 0 {
        SlowCause::ByzStaleAck
    } else if ev.silent > 0 {
        SlowCause::ByzSilence
    } else if ev.rpc_min_us > 0
        && ev.rpc_max_us >= ev.rpc_min_us.saturating_mul(STRAGGLER_RATIO)
        && ev.rpc_max_us - ev.rpc_min_us >= STRAGGLER_FLOOR_US
    {
        SlowCause::StragglerReplica
    } else {
        SlowCause::SecondPhase
    }
}

/// Counts the slow read under its cause and parks its trace id in the
/// cause's exemplar gauge (joinable against a flight-recorder dump).
pub fn count_slow_cause(cause: SlowCause, trace_id: u64) {
    let reg = crate::global();
    reg.counter(&names::slow_cause_counter(cause.as_str()))
        .inc();
    if trace_id != 0 {
        reg.gauge(&names::slow_cause_exemplar(cause.as_str()))
            .set(trace_id);
    }
}

/// Identity of the process that emitted a record, packed into 32 bits.
/// `0` = unknown; otherwise a 16-bit kind tag over the 16-bit id.
pub mod node {
    use safereg_common::ids::ClientId;

    /// A server process.
    pub fn server(id: u16) -> u32 {
        0x0001_0000 | u32::from(id)
    }

    /// A client process (reader or writer).
    pub fn client(id: ClientId) -> u32 {
        match id {
            ClientId::Reader(r) => 0x0002_0000 | u32::from(r.0),
            ClientId::Writer(w) => 0x0003_0000 | u32::from(w.0),
        }
    }

    /// Renders the packed word the way `ids` Display does (`s3`/`r1`/`w2`),
    /// with `-` for unknown.
    pub fn render(word: u32) -> String {
        let id = word & 0xFFFF;
        match word >> 16 {
            0x0001 => format!("s{id}"),
            0x0002 => format!("r{id}"),
            0x0003 => format!("w{id}"),
            _ => "-".to_string(),
        }
    }
}

/// One span event: the wire context it belongs to plus what/when/where.
///
/// Packs into exactly five `u64` words ([`SpanRecord::pack`]) so the
/// flight-recorder ring can store it in atomic slots without allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRecord {
    /// Trace id (nonzero; unsampled contexts never reach a sink).
    pub trace_id: u64,
    /// Low bits of the client's op counter (from the wire context).
    pub op_seq: u32,
    /// [`Phase`] discriminant this record describes.
    pub phase: u8,
    /// Process-boundary distance from the invoking client.
    pub hop: u8,
    /// [`SpanKind`] discriminant.
    pub kind: u8,
    /// `SlowCause as u8 + 1`, or `0` for none.
    pub cause: u8,
    /// Caller-stamped start time (virtual ticks or wall µs — see module docs).
    pub at: u64,
    /// Caller-stamped duration in the same unit (0 = point event).
    pub dur: u64,
    /// Emitting process, packed by [`node`].
    pub node: u32,
    /// Kind-specific payload (retry pass, destination server, bytes…).
    pub detail: u32,
}

impl SpanRecord {
    /// Builds a record from a sampled wire context.
    pub fn new(ctx: TraceCtx, kind: SpanKind, at: u64, dur: u64, node: u32, detail: u32) -> Self {
        SpanRecord {
            trace_id: ctx.id,
            op_seq: ctx.op_seq,
            phase: ctx.phase,
            hop: ctx.hop,
            kind: kind as u8,
            cause: 0,
            at,
            dur,
            node,
            detail,
        }
    }

    /// Attaches a slow cause (used on [`SpanKind::End`] records of slow reads).
    pub fn with_cause(mut self, cause: SlowCause) -> Self {
        self.cause = cause as u8 + 1;
        self
    }

    /// Packs into five words for an atomic ring slot.
    pub fn pack(&self) -> [u64; 5] {
        [
            self.trace_id,
            u64::from(self.op_seq)
                | u64::from(self.phase) << 32
                | u64::from(self.hop) << 40
                | u64::from(self.kind) << 48
                | u64::from(self.cause) << 56,
            self.at,
            self.dur,
            u64::from(self.node) << 32 | u64::from(self.detail),
        ]
    }

    /// Inverse of [`SpanRecord::pack`].
    pub fn unpack(w: [u64; 5]) -> Self {
        SpanRecord {
            trace_id: w[0],
            op_seq: w[1] as u32,
            phase: (w[1] >> 32) as u8,
            hop: (w[1] >> 40) as u8,
            kind: (w[1] >> 48) as u8,
            cause: (w[1] >> 56) as u8,
            at: w[2],
            dur: w[3],
            node: (w[4] >> 32) as u32,
            detail: w[4] as u32,
        }
    }

    /// Renders one stable JSONL line. Pure function of the record — the
    /// schema the CI smoke and the bench dumps grep is fixed here.
    pub fn render(&self) -> String {
        let phase = Phase::from_u8(self.phase).map_or("?", Phase::as_str);
        let kind = SpanKind::from_u8(self.kind).map_or("?", SpanKind::as_str);
        let cause = self
            .cause
            .checked_sub(1)
            .and_then(SlowCause::from_u8)
            .map_or_else(|| "null".to_string(), |c| format!("\"{}\"", c.as_str()));
        format!(
            "{{\"trace\":\"{:016x}\",\"seq\":{},\"hop\":{},\"phase\":\"{}\",\"kind\":\"{}\",\"at\":{},\"dur\":{},\"node\":\"{}\",\"cause\":{},\"detail\":{}}}",
            self.trace_id,
            self.op_seq,
            self.hop,
            phase,
            kind,
            self.at,
            self.dur,
            node::render(self.node),
            cause,
            self.detail,
        )
    }
}

/// Where span records go. Implemented by the process-wide
/// [`FlightRecorder`] and by the per-run [`SpanLog`] the simulator and
/// tests use; instrument sites only ever see the trait.
pub trait SpanSink: Send + Sync {
    /// Accepts one record. Must not block the caller meaningfully.
    fn emit(&self, rec: SpanRecord);
}

/// A growable, mutex-guarded sink: the deterministic choice for simulator
/// runs and tests, where every record must survive for later rendering.
#[derive(Default)]
pub struct SpanLog {
    records: safereg_common::sync::Mutex<Vec<SpanRecord>>,
}

impl SpanLog {
    /// An empty log.
    pub fn new() -> Self {
        SpanLog::default()
    }

    /// All records in emit order.
    pub fn records(&self) -> Vec<SpanRecord> {
        self.records.lock().clone()
    }

    /// Renders every record as one JSONL line each, emit order — the
    /// byte stream compared across identically-seeded simulator runs.
    pub fn render_jsonl(&self) -> String {
        let mut out = String::new();
        for r in self.records.lock().iter() {
            out.push_str(&r.render());
            out.push('\n');
        }
        out
    }
}

impl SpanSink for SpanLog {
    fn emit(&self, rec: SpanRecord) {
        self.records.lock().push(rec);
    }
}

/// One seqlock slot: a version word plus the five packed record words.
/// Odd version = a writer is mid-store; readers retry-or-skip.
struct Slot {
    seq: AtomicU64,
    words: [AtomicU64; 5],
}

/// A fixed-capacity, wait-free ring of the most recent spans.
///
/// Writers never block and never allocate: `emit` takes a global ticket
/// with one `fetch_add`, claims slot `ticket % capacity`, marks it odd,
/// stores the five words relaxed and publishes with a release store of
/// `2·ticket + 2`. A reader ([`FlightRecorder::snapshot`]) accepts a slot
/// only if the version it saw before and after reading the words is the
/// same even value, so torn writes are discarded, not misread. Two writers
/// lapping each other on the same slot is resolved by last-writer-wins —
/// acceptable for a diagnostics ring where dropping a lapped span is
/// exactly the intended behaviour (counted under
/// [`names::TRACE_RING_LAPPED`] at dump time).
pub struct FlightRecorder {
    cursor: AtomicU64,
    slots: Box<[Slot]>,
    mask: u64,
}

impl FlightRecorder {
    /// A ring holding the last `capacity` spans (rounded up to a power of
    /// two so slot indexing is a mask, not a division).
    pub fn new(capacity: usize) -> Self {
        let cap = capacity.max(2).next_power_of_two();
        let slots = (0..cap)
            .map(|_| Slot {
                seq: AtomicU64::new(0),
                words: [
                    AtomicU64::new(0),
                    AtomicU64::new(0),
                    AtomicU64::new(0),
                    AtomicU64::new(0),
                    AtomicU64::new(0),
                ],
            })
            .collect::<Vec<_>>()
            .into_boxed_slice();
        FlightRecorder {
            cursor: AtomicU64::new(0),
            slots,
            mask: cap as u64 - 1,
        }
    }

    /// Ring capacity in records.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Total records ever emitted.
    pub fn emitted(&self) -> u64 {
        self.cursor.load(Ordering::Relaxed)
    }

    /// Records overwritten before any dump could read them.
    pub fn lapped(&self) -> u64 {
        self.emitted().saturating_sub(self.slots.len() as u64)
    }

    /// Consistent view of the surviving records, oldest first. Slots a
    /// writer was overwriting during the scan are skipped.
    pub fn snapshot(&self) -> Vec<SpanRecord> {
        let mut out: Vec<(u64, SpanRecord)> = Vec::with_capacity(self.slots.len());
        for slot in self.slots.iter() {
            let before = slot.seq.load(Ordering::Acquire);
            if before == 0 || before % 2 == 1 {
                continue; // empty or mid-write
            }
            let words = [
                slot.words[0].load(Ordering::Relaxed),
                slot.words[1].load(Ordering::Relaxed),
                slot.words[2].load(Ordering::Relaxed),
                slot.words[3].load(Ordering::Relaxed),
                slot.words[4].load(Ordering::Relaxed),
            ];
            if slot.seq.load(Ordering::Acquire) != before {
                continue; // torn: overwritten while reading
            }
            out.push((before / 2 - 1, SpanRecord::unpack(words)));
        }
        out.sort_by_key(|(ticket, _)| *ticket);
        out.into_iter().map(|(_, r)| r).collect()
    }
}

impl SpanSink for FlightRecorder {
    fn emit(&self, rec: SpanRecord) {
        let ticket = self.cursor.fetch_add(1, Ordering::Relaxed);
        let slot = &self.slots[(ticket & self.mask) as usize];
        slot.seq.store(2 * ticket + 1, Ordering::Release);
        let words = rec.pack();
        for (w, v) in slot.words.iter().zip(words) {
            w.store(v, Ordering::Relaxed);
        }
        slot.seq.store(2 * ticket + 2, Ordering::Release);
    }
}

/// The process-wide flight recorder the TCP stack and clients feed.
/// Sized to hold the last few thousand spans — enough for the full span
/// trees of every in-flight op at the moment something trips.
pub fn flight() -> &'static FlightRecorder {
    static RING: OnceLock<FlightRecorder> = OnceLock::new();
    RING.get_or_init(|| FlightRecorder::new(8192))
}

/// Emits into the process-wide ring iff the context is sampled, and feeds
/// the per-phase latency histogram for [`SpanKind::Segment`] records.
/// The unsampled cost is the one `is_sampled` branch.
pub fn record_global(ctx: TraceCtx, kind: SpanKind, at: u64, dur: u64, node: u32, detail: u32) {
    if !ctx.is_sampled() {
        return;
    }
    if kind == SpanKind::Segment {
        if let Some(phase) = Phase::from_u8(ctx.phase) {
            phase_hist(phase).record(dur);
        }
    }
    flight().emit(SpanRecord::new(ctx, kind, at, dur, node, detail));
}

/// As [`record_global`] but stamps a [`SlowCause`] on the record.
pub fn record_global_end(ctx: TraceCtx, at: u64, dur: u64, node: u32, cause: Option<SlowCause>) {
    if !ctx.is_sampled() {
        return;
    }
    let mut rec = SpanRecord::new(ctx, SpanKind::End, at, dur, node, 0);
    if let Some(c) = cause {
        rec = rec.with_cause(c);
    }
    flight().emit(rec);
}

/// Cached handles to the eight per-phase histograms so sampled hot paths
/// skip the registry's name lookup.
fn phase_hist(phase: Phase) -> &'static Arc<crate::metrics::Histogram> {
    static HISTS: OnceLock<Vec<Arc<crate::metrics::Histogram>>> = OnceLock::new();
    let all = HISTS.get_or_init(|| {
        Phase::ALL
            .iter()
            .map(|p| crate::global().histogram(&names::trace_phase_hist(p.as_str())))
            .collect()
    });
    &all[phase as usize]
}

/// Upper bound on flight dumps per process — a crash loop must not drown
/// stderr in ring dumps.
const MAX_DUMPS: u64 = 16;

/// Dumps the ring to stderr as JSONL, newest state of the ring, oldest
/// record first, book-ended by `FLIGHT begin/end` marker lines that carry
/// the `reason`. Returns how many records were written; after
/// [`MAX_DUMPS`] dumps the call only counts the trigger.
///
/// Goes to **stderr** on purpose: the bench harness and CI capture stdout
/// for verdict lines and JSON artifacts, so dumps never corrupt those.
pub fn dump_flight(reason: &str) -> usize {
    let reg = crate::global();
    reg.counter(names::TRACE_DUMPS).inc();
    reg.counter(&names::trace_dump_counter(reason)).inc();
    static DUMPS: AtomicU64 = AtomicU64::new(0);
    if DUMPS.fetch_add(1, Ordering::Relaxed) >= MAX_DUMPS {
        return 0;
    }
    let ring = flight();
    reg.gauge(names::TRACE_RING_LAPPED).set(ring.lapped());
    let records = ring.snapshot();
    let mut out = String::with_capacity(records.len() * 96 + 128);
    out.push_str(&format!(
        "FLIGHT begin reason={} records={} lapped={}\n",
        reason,
        records.len(),
        ring.lapped()
    ));
    for r in &records {
        out.push_str(&r.render());
        out.push('\n');
    }
    out.push_str(&format!("FLIGHT end reason={reason}\n"));
    eprint!("{out}");
    records.len()
}

/// All records of one trace, causal order: by hop first (client before
/// server), then caller-stamped time, then emit order as tiebreak.
pub fn span_tree(records: &[SpanRecord], trace_id: u64) -> Vec<SpanRecord> {
    let mut tree: Vec<(usize, SpanRecord)> = records
        .iter()
        .enumerate()
        .filter(|(_, r)| r.trace_id == trace_id)
        .map(|(i, r)| (i, *r))
        .collect();
    tree.sort_by_key(|(i, r)| (r.hop, r.at, *i));
    tree.into_iter().map(|(_, r)| r).collect()
}

/// Renders a span tree with two-space indentation per hop — the
/// human-facing form of a violation dump.
pub fn render_tree(records: &[SpanRecord]) -> String {
    let mut out = String::new();
    for r in records {
        for _ in 0..r.hop {
            out.push_str("  ");
        }
        out.push_str(&r.render());
        out.push('\n');
    }
    out
}

/// Renders the full span tree of every violating operation: for each
/// violation the trace id is recomputed from the op id (possible because
/// [`TraceCtx::derive_id`] is a pure function of the
/// [`OpId`](safereg_common::msg::OpId)), so the
/// correlation needs no lookup table kept during the run. Operations whose
/// spans were never sampled (or already lapped out of the source) render an
/// explicit `(no sampled spans)` line rather than silently vanishing.
pub fn violation_trees(
    records: &[SpanRecord],
    violations: &[safereg_checker::Violation],
) -> String {
    let mut out = String::new();
    for v in violations {
        let id = TraceCtx::derive_id(&v.op);
        out.push_str(&format!(
            "VIOLATION {:?} op={} trace={:016x}: {}\n",
            v.kind, v.op, id, v.detail
        ));
        let tree = span_tree(records, id);
        if tree.is_empty() {
            out.push_str("  (no sampled spans)\n");
        } else {
            out.push_str(&render_tree(&tree));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use safereg_common::ids::{ClientId, ReaderId};
    use safereg_common::msg::OpId;
    use safereg_common::rng::DetRng;

    fn ctx(id: u64, seq: u32, phase: Phase, hop: u8) -> TraceCtx {
        TraceCtx {
            id,
            op_seq: seq,
            phase: phase as u8,
            hop,
        }
    }

    #[test]
    fn records_pack_and_unpack_losslessly() {
        let mut rng = DetRng::seed_from(0xC0FFEE);
        for _ in 0..2000 {
            let rec = SpanRecord {
                trace_id: rng.next_u64(),
                op_seq: rng.next_u64() as u32,
                phase: (rng.next_u64() % 8) as u8,
                hop: (rng.next_u64() % 4) as u8,
                kind: (rng.next_u64() % 5) as u8,
                cause: (rng.next_u64() % 6) as u8,
                at: rng.next_u64(),
                dur: rng.next_u64(),
                node: rng.next_u64() as u32,
                detail: rng.next_u64() as u32,
            };
            assert_eq!(SpanRecord::unpack(rec.pack()), rec);
        }
    }

    #[test]
    fn attribution_priority_partitions_evidence() {
        let base = SlowEvidence::default();
        assert_eq!(attribute_slow_read(&base), SlowCause::SecondPhase);
        assert_eq!(
            attribute_slow_read(&SlowEvidence {
                reconfig: 1,
                unreachable: 1,
                retry_passes: 1,
                silent: 2,
                validation_failures: 3,
                ..base
            }),
            SlowCause::ReconfigTransfer,
            "an in-flight epoch change outranks everything: the retries and \
             unreachable old members it causes are symptoms"
        );
        assert_eq!(
            attribute_slow_read(&SlowEvidence {
                unreachable: 1,
                retry_passes: 1,
                silent: 2,
                validation_failures: 3,
                ..base
            }),
            SlowCause::RetryAfterFault,
            "network-fault retry outranks the rest"
        );
        assert_eq!(
            attribute_slow_read(&SlowEvidence {
                reconfig: 1,
                rpc_min_us: 100,
                rpc_max_us: 5000,
                ..base
            }),
            SlowCause::ReconfigTransfer,
            "a redirected read never falls through to straggler_replica"
        );
        assert_eq!(
            attribute_slow_read(&SlowEvidence {
                validation_failures: 1,
                silent: 1,
                ..base
            }),
            SlowCause::ByzStaleAck
        );
        assert_eq!(
            attribute_slow_read(&SlowEvidence { silent: 1, ..base }),
            SlowCause::ByzSilence
        );
        assert_eq!(
            attribute_slow_read(&SlowEvidence {
                rpc_min_us: 100,
                rpc_max_us: 5000,
                ..base
            }),
            SlowCause::StragglerReplica
        );
        assert_eq!(
            attribute_slow_read(&SlowEvidence {
                rpc_min_us: 100,
                rpc_max_us: 300,
                ..base
            }),
            SlowCause::SecondPhase,
            "mild spread is not a straggler"
        );
        // Unreachable without a successful retry pass is still a fault.
        assert_eq!(
            attribute_slow_read(&SlowEvidence {
                unreachable: 2,
                ..base
            }),
            SlowCause::SecondPhase,
            "unreachable with no retry pass means the quorum never needed it"
        );
    }

    #[test]
    fn ring_keeps_exactly_the_most_recent_records() {
        let ring = FlightRecorder::new(64);
        assert_eq!(ring.capacity(), 64);
        for i in 0..200u64 {
            ring.emit(SpanRecord::new(
                ctx(1, i as u32, Phase::ClientOp, 0),
                SpanKind::Note,
                i,
                0,
                0,
                0,
            ));
        }
        let snap = ring.snapshot();
        assert_eq!(snap.len(), 64);
        assert_eq!(ring.lapped(), 200 - 64);
        // Oldest-first and exactly the last 64 emits survive.
        let seqs: Vec<u32> = snap.iter().map(|r| r.op_seq).collect();
        let expect: Vec<u32> = (136..200).collect();
        assert_eq!(seqs, expect);
    }

    #[test]
    fn ring_wraparound_property_under_random_batch_sizes() {
        let mut rng = DetRng::seed_from(0x5EED_0001);
        for round in 0..40 {
            let cap = 1usize << (1 + (rng.next_u64() % 6)); // 2..=64
            let ring = FlightRecorder::new(cap);
            let total = rng.next_u64() % 300;
            for i in 0..total {
                ring.emit(SpanRecord::new(
                    ctx(round + 1, i as u32, Phase::Rpc, 1),
                    SpanKind::Segment,
                    i,
                    i * 2,
                    node::server(3),
                    0,
                ));
            }
            let snap = ring.snapshot();
            let expect_len = total.min(cap as u64) as usize;
            assert_eq!(snap.len(), expect_len, "cap={cap} total={total}");
            let first = total - expect_len as u64;
            for (k, r) in snap.iter().enumerate() {
                assert_eq!(u64::from(r.op_seq), first + k as u64);
                assert_eq!(r.dur, r.at * 2, "payload survived the wrap");
            }
        }
    }

    #[test]
    fn concurrent_emit_never_yields_torn_records() {
        // Writers stamp word-consistent records (dur = at * 2, detail =
        // node). A torn slot that escaped the seqlock check would break
        // one of those invariants.
        let ring = Arc::new(FlightRecorder::new(128));
        let threads: Vec<_> = (0..8u32)
            .map(|t| {
                let ring = Arc::clone(&ring);
                std::thread::spawn(move || {
                    for i in 0..5000u64 {
                        let at = u64::from(t) << 32 | i;
                        ring.emit(SpanRecord::new(
                            ctx(u64::from(t) + 1, i as u32, Phase::Dispatch, 2),
                            SpanKind::Segment,
                            at,
                            at * 2,
                            t + 1,
                            t + 1,
                        ));
                    }
                })
            })
            .collect();
        for _ in 0..50 {
            for r in ring.snapshot() {
                assert_eq!(r.dur, r.at * 2, "torn record escaped the seqlock");
                assert_eq!(r.detail, r.node, "torn record escaped the seqlock");
            }
        }
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(ring.emitted(), 8 * 5000);
        assert_eq!(ring.snapshot().len(), 128);
    }

    #[test]
    fn render_is_stable_and_tree_orders_by_hop_then_time() {
        let id = TraceCtx::derive_id(&OpId::new(ReaderId(1), 7));
        let client = node::client(ClientId::Reader(ReaderId(1)));
        let records = vec![
            SpanRecord::new(
                ctx(id, 7, Phase::Dispatch, 1),
                SpanKind::Segment,
                20,
                5,
                node::server(0),
                0,
            ),
            SpanRecord::new(
                ctx(id, 7, Phase::ClientOp, 0),
                SpanKind::Start,
                10,
                0,
                client,
                0,
            ),
            SpanRecord::new(ctx(99, 0, Phase::ClientOp, 0), SpanKind::Start, 0, 0, 0, 0),
            SpanRecord::new(
                ctx(id, 7, Phase::ClientOp, 0),
                SpanKind::End,
                40,
                30,
                client,
                0,
            )
            .with_cause(SlowCause::ByzSilence),
        ];
        let tree = span_tree(&records, id);
        assert_eq!(tree.len(), 3, "foreign traces are filtered out");
        assert_eq!(tree[0].kind, SpanKind::Start as u8);
        assert_eq!(tree[1].kind, SpanKind::End as u8);
        assert_eq!(tree[2].hop, 1);
        let line = tree[1].render();
        assert!(line.contains("\"phase\":\"client_op\""), "{line}");
        assert!(line.contains("\"cause\":\"byz_silence\""), "{line}");
        assert!(line.contains(&format!("{:016x}", id)), "{line}");
        let rendered = render_tree(&tree);
        assert_eq!(rendered.lines().count(), 3);
        assert!(rendered.lines().nth(2).unwrap().starts_with("  "));
        // Rendering is a pure function: same records, same bytes.
        assert_eq!(rendered, render_tree(&span_tree(&records, id)));
    }

    #[test]
    fn violation_trees_correlate_ops_without_a_lookup_table() {
        use safereg_checker::{Violation, ViolationKind};
        let bad_op = OpId::new(ReaderId(3), 11);
        let id = TraceCtx::derive_id(&bad_op);
        let client = node::client(ClientId::Reader(ReaderId(3)));
        let records = vec![
            SpanRecord::new(
                ctx(id, 11, Phase::ClientOp, 0),
                SpanKind::Start,
                5,
                0,
                client,
                0,
            ),
            SpanRecord::new(
                ctx(id, 11, Phase::Rpc, 0),
                SpanKind::Segment,
                6,
                2,
                client,
                1,
            ),
            SpanRecord::new(ctx(777, 0, Phase::ClientOp, 0), SpanKind::Start, 0, 0, 0, 0),
        ];
        let violations = vec![
            Violation {
                op: bad_op,
                kind: ViolationKind::StaleRead,
                detail: "returned superseded value".into(),
            },
            Violation {
                op: OpId::new(ReaderId(9), 1), // never sampled
                kind: ViolationKind::StaleTag,
                detail: "old tag".into(),
            },
        ];
        let out = violation_trees(&records, &violations);
        assert!(out.contains("VIOLATION StaleRead"), "{out}");
        assert!(out.contains(&format!("{id:016x}")), "{out}");
        assert!(out.contains("\"phase\":\"rpc\""), "{out}");
        assert!(out.contains("(no sampled spans)"), "{out}");
        // Pure function of its inputs: stable across calls.
        assert_eq!(out, violation_trees(&records, &violations));
    }

    #[test]
    fn span_log_renders_in_emit_order() {
        let log = SpanLog::new();
        for i in 0..5u64 {
            log.emit(SpanRecord::new(
                ctx(1, i as u32, Phase::Rpc, 0),
                SpanKind::Note,
                i,
                0,
                0,
                0,
            ));
        }
        let jsonl = log.render_jsonl();
        assert_eq!(jsonl.lines().count(), 5);
        assert!(jsonl.lines().next().unwrap().contains("\"seq\":0"));
        assert_eq!(log.records().len(), 5);
    }

    #[test]
    fn global_helpers_respect_sampling_and_dump_renders() {
        let before = flight().emitted();
        record_global(TraceCtx::NONE, SpanKind::Note, 1, 0, 0, 0);
        record_global_end(TraceCtx::NONE, 1, 0, 0, None);
        assert_eq!(flight().emitted(), before, "unsampled must not emit");
        let c = ctx(42, 1, Phase::ClientOp, 0);
        record_global(c, SpanKind::Start, 1, 0, 0, 0);
        record_global_end(c, 5, 4, 0, Some(SlowCause::SecondPhase));
        assert!(flight().emitted() >= before + 2);
        assert!(dump_flight("test") >= 2);
        let snap = crate::global().snapshot();
        assert!(snap.counter(names::TRACE_DUMPS).unwrap_or(0) >= 1);
        assert!(
            snap.counter(&names::trace_dump_counter("test"))
                .unwrap_or(0)
                >= 1
        );
    }
}
