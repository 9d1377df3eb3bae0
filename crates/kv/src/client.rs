//! KV client: `put`/`get` over per-key BSR operations, routed through a
//! [`ShardMap`].
//!
//! Every key hashes to one register-group shard; the client runs the
//! BSR/BCSR exchange against only that shard's replica subset, addressing
//! the protocol's **logical** replica indices and translating them to
//! physical fleet ids at the transport boundary. One transport serves all
//! shards — the per-server connections are keyed by physical id, so `s`
//! shards over `n` servers reuse `n` sockets instead of opening `s × n`.
//!
//! Each `put`/`get` is a [`KvOp`], a state machine with no I/O of its own:
//! the client drives it one pass at a time through [`KvTransport::round`],
//! sleeps the backoff it asks for, and applies the epochs it adopts.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::time::Duration;

use safereg_common::buf::Bytes;
use safereg_common::config::{QuorumConfig, TransportConfig};
use safereg_common::epoch::EpochConfig;
use safereg_common::ids::{ClientId, ReaderId, ServerId, WriterId};
use safereg_common::msg::{ClientToServer, Envelope, Message, Payload, ServerToClient};
use safereg_common::shard::{ShardId, ShardMap};
use safereg_common::tag::Tag;
use safereg_common::trace::{Phase, TraceCtx};
use safereg_common::value::Value;
use safereg_core::bcsr::BcsrReadOp;
use safereg_core::op::{ClientOp, OpOutput, ReadPath};
use safereg_core::read::BsrReadOp;
use safereg_core::write::WriteOp;
use safereg_mds::rs::ReedSolomon;
use safereg_obs::metrics::{Counter, Gauge};
use safereg_obs::span::{self, SlowEvidence, SpanKind};
use safereg_obs::trace::wall_micros;

use crate::server::KvMode;

/// The server could not be reached at the network layer — a refused or
/// dead connection, *not* a reachable server that chose to answer nothing.
///
/// The distinction matters for retries: an unreachable server is a
/// transient network fault worth retrying with backoff, while a silent
/// Byzantine server answering `Ok(vec![])` will stay silent no matter how
/// often it is asked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Unreachable {
    /// The (physical) server that could not be reached.
    pub server: ServerId,
}

impl std::fmt::Display for Unreachable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "server {} unreachable", self.server)
    }
}

impl std::error::Error for Unreachable {}

/// One request of a [`KvTransport::round`]: a register message for the
/// op's key (sent by the client its op id names), addressed to one
/// **physical** server of the key's shard.
#[derive(Debug, Clone)]
pub struct KvSend {
    /// The physical server the message goes to.
    pub to: ServerId,
    /// The shard of the op's key.
    pub shard: ShardId,
    /// The register message.
    pub msg: ClientToServer,
    /// The causal trace context the exchange carries.
    pub trace: TraceCtx,
}

/// What one exchange gave: the server's replies, or [`Unreachable`].
pub type Reply = Result<Vec<ServerToClient>, Unreachable>;

/// What a [`KvTransport::round`] does after its callback takes a reply.
#[derive(Debug)]
pub enum Flow {
    /// Send these follow-up requests (possibly none) and go on.
    Send(Vec<KvSend>),
    /// The request got no usable answer: hand it back in the retry set.
    Retry,
    /// The op needs nothing more from this round.
    Stop,
}

/// Transport used by the KV client: delivers one register message for one
/// key of one shard to one **physical** server and returns that server's
/// responses.
///
/// `Err(Unreachable)` means the network failed; `Ok(vec![])` means the
/// server was reached but did not answer (Byzantine silence, a rejected
/// MAC, a shard the server does not host, or a message the server has no
/// reply for). The client's retry logic only retries the former.
pub trait KvTransport {
    /// Exchanges one message with one server, propagating the caller's
    /// causal trace context (MAC-covered on authenticated transports;
    /// [`TraceCtx::NONE`] when the operation is unsampled, so tracing
    /// costs one branch on the frame path).
    ///
    /// # Errors
    ///
    /// [`Unreachable`] when the server could not be reached at all.
    fn exchange(
        &mut self,
        from: ClientId,
        to: ServerId,
        shard: ShardId,
        key: &[u8],
        msg: &ClientToServer,
        trace: TraceCtx,
    ) -> Result<Vec<ServerToClient>, Unreachable>;

    /// Runs one pass of an op on `key`: sends `sends`, hands each outcome
    /// to `on_reply` and does what its [`Flow`] says, and returns the
    /// requests it answered [`Flow::Retry`] — the pass's retry set. The
    /// default is one [`exchange`](KvTransport::exchange) at a time from a
    /// LIFO stack, follow-ups on top, stopping at [`Flow::Stop`]. A
    /// callback rather than the op, so that a wrapping transport can see
    /// every reply and still delegate to its inner transport's `round`.
    fn round(
        &mut self,
        key: &[u8],
        sends: Vec<KvSend>,
        on_reply: &mut dyn FnMut(&KvSend, Reply) -> Flow,
    ) -> Vec<KvSend> {
        let (mut stack, mut retry) = (sends, Vec::new());
        while let Some(send) = stack.pop() {
            let from = send.msg.op().client;
            let outcome = self.exchange(from, send.to, send.shard, key, &send.msg, send.trace);
            match on_reply(&send, outcome) {
                Flow::Send(more) => stack.extend(more),
                Flow::Retry => retry.push(send),
                Flow::Stop => break,
            }
        }
        retry
    }

    /// Switches the transport to a newly adopted membership: re-stamp
    /// outgoing frames, connect joiners, drop leavers. The default is a
    /// no-op — in-process transports have no links or stamps to move, and
    /// epoch admission is a wire-path concern.
    fn reconfigure(&mut self, _config: &EpochConfig) {}

    /// Notes a circumstantial accountability signal against `server` —
    /// the client saw it vouch for a value that contradicts another
    /// replica's answer within one quorum. Default no-op; authenticated
    /// transports forward it to the deployment's audit log as suspicion
    /// (never conviction: the client alone cannot tell which of two
    /// contradicting replicas lied).
    fn suspect(&mut self, _server: ServerId) {}
}

/// Errors from KV operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KvError {
    /// The operation could not reach a quorum of `m − f` servers within
    /// its key's shard.
    QuorumUnavailable {
        /// Servers that answered the phase the operation failed in.
        responded: usize,
        /// Responses needed.
        needed: usize,
        /// Servers that were unreachable at the network layer in the last
        /// retry pass (the rest were reachable but silent).
        unreachable: usize,
    },
}

impl std::fmt::Display for KvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KvError::QuorumUnavailable {
                responded,
                needed,
                unreachable,
            } => {
                write!(
                    f,
                    "only {responded} of the required {needed} servers responded \
                     ({unreachable} unreachable)"
                )
            }
        }
    }
}

impl std::error::Error for KvError {}

/// How many epoch adoptions a single `put`/`get` rides out before giving
/// up: reconfiguration is one replica per step, so a client more than a
/// few epochs behind re-issues a few times, and a Byzantine server cannot
/// force hops at all (adoption needs `f + 1` distinct voters).
const MAX_EPOCH_HOPS: u32 = 3;

/// Cached per-shard metric handles: formatted names and registry lookups
/// happen once at construction, never on the op hot path.
struct ShardStats {
    ops: Arc<Counter>,
    fast: Arc<Counter>,
    slow: Arc<Counter>,
    ratio: Arc<Gauge>,
}

/// A key-value client: one writer identity, one reader identity, the
/// shard routing table, and the per-key reader-local pairs.
pub struct KvClient {
    map: Arc<ShardMap>,
    /// The per-shard quorum configuration (`m`, `f`).
    cfg: QuorumConfig,
    writer: WriterId,
    reader: ReaderId,
    seq: u64,
    /// The membership epoch this client believes is current. Bumped by the
    /// `f + 1`-vote adoption rule when `WrongEpoch` redirects converge on a
    /// newer configuration.
    epoch: u32,
    mode: KvMode,
    code: Option<Arc<ReedSolomon>>,
    /// Per-key `(t_local, v_local)` (Fig. 2 line 1), replicated mode only.
    local: BTreeMap<Bytes, (Tag, Value)>,
    /// Retry/backoff policy for unreachable servers.
    policy: TransportConfig,
    /// Per-shard op/read-path counters, indexed by `ShardId`.
    stats: Vec<ShardStats>,
    /// Hot-shard tracking: the id and op count of the busiest shard.
    hot: Arc<Gauge>,
    hot_ops: Arc<Gauge>,
}

impl std::fmt::Debug for KvClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KvClient")
            .field("map", &self.map)
            .field("writer", &self.writer)
            .field("reader", &self.reader)
            .field("mode", &self.mode)
            .finish()
    }
}

impl KvClient {
    /// Creates a single-shard client with distinct writer and reader
    /// identities (replicated mode) — the pre-sharding deployment shape.
    pub fn new(cfg: QuorumConfig, writer: WriterId, reader: ReaderId) -> Self {
        Self::sharded(ShardMap::single(cfg), writer, reader)
    }

    /// Creates a single-shard coded-mode client for a
    /// [`KvMode::Coded`](crate::server::KvMode::Coded) deployment.
    ///
    /// # Panics
    ///
    /// Panics when the configuration admits no `[n, n − 5f]` code.
    pub fn new_coded(cfg: QuorumConfig, writer: WriterId, reader: ReaderId) -> Self {
        Self::sharded_coded(ShardMap::single(cfg), writer, reader)
    }

    /// Creates a client routing keys through `map` (replicated mode).
    pub fn sharded(map: ShardMap, writer: WriterId, reader: ReaderId) -> Self {
        Self::build(map, writer, reader, KvMode::Replicated)
    }

    /// Creates a coded-mode client routing keys through `map`.
    ///
    /// # Panics
    ///
    /// Panics when the per-shard configuration admits no `[m, m − 5f]`
    /// code.
    pub fn sharded_coded(map: ShardMap, writer: WriterId, reader: ReaderId) -> Self {
        Self::build(map, writer, reader, KvMode::Coded)
    }

    fn build(map: ShardMap, writer: WriterId, reader: ReaderId, mode: KvMode) -> Self {
        let cfg = map.shard_config();
        let code = match mode {
            KvMode::Replicated => None,
            KvMode::Coded => {
                let k = cfg.mds_k().expect("coded KV needs per-shard m > 5f");
                Some(Arc::new(ReedSolomon::new(cfg.n(), k).expect("valid code")))
            }
        };
        // Eager registration: every per-shard series exists (at zero) from
        // the first metrics dump, traffic or not, so JSONL schemas are
        // stable across runs.
        let reg = safereg_obs::global();
        let stats = map
            .shards()
            .map(|g| ShardStats {
                ops: reg.counter(&safereg_obs::names::shard_ops_counter(g.0)),
                fast: reg.counter(&safereg_obs::names::shard_reads_counter(g.0, "fast")),
                slow: reg.counter(&safereg_obs::names::shard_reads_counter(g.0, "slow")),
                ratio: reg.gauge(&safereg_obs::names::shard_fast_ratio_gauge(g.0)),
            })
            .collect();
        KvClient {
            map: Arc::new(map),
            cfg,
            writer,
            reader,
            seq: 0,
            epoch: 0,
            mode,
            code,
            local: BTreeMap::new(),
            policy: TransportConfig::default(),
            stats,
            hot: reg.gauge(safereg_obs::names::KV_SHARD_HOT),
            hot_ops: reg.gauge(safereg_obs::names::KV_SHARD_HOT_OPS),
        }
    }

    /// The shard placement this client routes through.
    pub fn map(&self) -> &ShardMap {
        &self.map
    }

    /// The membership epoch this client believes is current.
    pub fn epoch(&self) -> u32 {
        self.epoch
    }

    /// Aligns the client's epoch counter with a configuration adopted out
    /// of band (cluster-internal transfer clients are born mid-epoch, with
    /// their placement already resolved; only the adoption threshold needs
    /// to know the number).
    pub fn align_epoch(&mut self, epoch: u32) {
        self.epoch = epoch;
    }

    /// The shard that serves `key`.
    pub fn shard_of(&self, key: &[u8]) -> ShardId {
        self.map.shard_of(key)
    }

    /// The hottest shard this process has observed and its op count —
    /// the [`KV_SHARD_HOT`](safereg_obs::names::KV_SHARD_HOT) /
    /// [`KV_SHARD_HOT_OPS`](safereg_obs::names::KV_SHARD_HOT_OPS) gauge
    /// pair read back as values. Gauges are global, so under several
    /// clients this reports the fleet-wide maximum, not a per-client one.
    pub fn hot_shard(&self) -> (u16, u64) {
        (self.hot.get() as u16, self.hot_ops.get())
    }

    /// Overrides the retry/backoff policy applied when servers are
    /// unreachable (`retry_budget` extra passes, waits drawn from the
    /// policy's [`safereg_common::config::BackoffPolicy`]).
    pub fn set_policy(&mut self, policy: TransportConfig) {
        self.policy = policy;
    }

    /// Counts one completed operation against its shard, maintaining the
    /// fast-ratio gauge and the hot-shard pair.
    fn note_op(&self, shard: ShardId, path: Option<ReadPath>) {
        let Some(stats) = self.stats.get(shard.0 as usize) else {
            return;
        };
        stats.ops.inc();
        match path {
            Some(ReadPath::Fast) => stats.fast.inc(),
            Some(ReadPath::Slow) => stats.slow.inc(),
            None => {}
        }
        if path.is_some() {
            let (fast, slow) = (stats.fast.get(), stats.slow.get());
            if let Some(ratio) = (fast * 1000).checked_div(fast + slow) {
                stats.ratio.set(ratio);
            }
        }
        let ops = stats.ops.get();
        if ops > self.hot_ops.get() {
            self.hot_ops.set(ops);
            self.hot.set(u64::from(shard.0));
        }
    }

    /// Writes `value` under `key`.
    ///
    /// # Errors
    ///
    /// [`KvError::QuorumUnavailable`] when fewer than `m − f` of the
    /// key's shard replicas respond in either phase.
    pub fn put(
        &mut self,
        transport: &mut impl KvTransport,
        key: &[u8],
        value: impl Into<Value>,
    ) -> Result<Tag, KvError> {
        self.seq += 1;
        let (w, seq, cfg) = (self.writer, self.seq, self.cfg);
        let (value, code) = (value.into(), self.code.clone());
        let out = self.run(transport, key, || match &code {
            None => WriteOp::replicated(w, seq, cfg, value.clone()),
            Some(code) => WriteOp::coded(w, seq, cfg, code, &value),
        })?;
        Ok(out.tag())
    }

    /// Reads the value under `key` (`v_0`, the empty value, when the key
    /// was never written).
    ///
    /// # Errors
    ///
    /// [`KvError::QuorumUnavailable`] when fewer than `m − f` of the
    /// key's shard replicas respond.
    pub fn get(&mut self, transport: &mut impl KvTransport, key: &[u8]) -> Result<Value, KvError> {
        self.get_with_tag(transport, key).map(|(value, _)| value)
    }

    /// Reads the value under `key` together with its tag — the handle a
    /// checker needs to match a read against the write it observed.
    ///
    /// # Errors
    ///
    /// [`KvError::QuorumUnavailable`] when fewer than `m − f` of the
    /// key's shard replicas respond.
    pub fn get_with_tag(
        &mut self,
        transport: &mut impl KvTransport,
        key: &[u8],
    ) -> Result<(Value, Tag), KvError> {
        self.seq += 1;
        let (r, s, cfg) = (self.reader, self.seq, self.cfg);
        let initial = || (Tag::ZERO, Value::initial());
        let local = self.local.get(key).cloned().unwrap_or_else(initial);
        let out = match self.code.clone() {
            Some(rs) => self.run(transport, key, || BcsrReadOp::new(r, s, cfg, (*rs).clone())),
            None => self.run(transport, key, || BsrReadOp::new(r, s, cfg, local.clone())),
        };
        let OpOutput::Read { value, tag } = out? else {
            unreachable!("read op yields a read outcome")
        };
        // Only a replicated read (Fig. 2) keeps the reader-local pair; a
        // coded read (Fig. 5) has none.
        if self.code.is_none() {
            let entry = self.local.entry(Bytes::copy_from_slice(key));
            let entry = entry.or_insert_with(initial);
            if (tag, &value) > (entry.0, &entry.1) {
                *entry = (tag, value.clone());
            }
        }
        Ok((value, tag))
    }

    /// Runs one op: a [`KvTransport::round`] per pass with backoff between
    /// them, and each epoch the op adopts applied to the client and the
    /// transport, at most [`MAX_EPOCH_HOPS`] times past the first.
    fn run<O: ClientOp>(
        &mut self,
        transport: &mut impl KvTransport,
        key: &[u8],
        mint: impl Fn() -> O,
    ) -> Result<OpOutput, KvError> {
        let mut op = KvOp::new(self, key, mint);
        let me = span::node::client(op.op.op_id().client);
        let started = op.trace.is_sampled().then(wall_micros).unwrap_or(0);
        if op.trace.is_sampled() {
            let reg = safereg_obs::global();
            reg.counter(safereg_obs::names::TRACE_SAMPLED_OPS).inc();
            let root = op.trace.with_phase(Phase::ClientOp);
            span::record_global(root, SpanKind::Start, started, 0, me, 0);
        }
        let out = loop {
            let sends = op.start();
            let retry = transport.round(key, sends, &mut |send, reply| op.on_reply(send, reply));
            // `round` held the transport: report the pass's suspects now.
            for server in op.suspects.drain(..) {
                transport.suspect(server);
            }
            if let Some(out) = op.op.output() {
                break out;
            }
            let Some(config) = op.adopted.take() else {
                std::thread::sleep(op.end_pass(retry)?);
                continue;
            };
            self.map = Arc::clone(&op.map);
            self.epoch = config.epoch;
            transport.reconfigure(&config);
            if op.hops > MAX_EPOCH_HOPS {
                return Err(KvError::QuorumUnavailable {
                    responded: 0,
                    needed: self.cfg.response_quorum(),
                    unreachable: 0,
                });
            }
        };
        let path = op.op.read_path();
        self.note_op(op.shard, path);
        // Every non-fast read gets a concrete cause, sampled or not — the
        // per-cause counters are the histogram the trace bench reports;
        // the exemplar trace id only exists when the op was sampled.
        let cause = (path == Some(ReadPath::Slow)).then(|| {
            let cause = span::attribute_slow_read(&op.evidence);
            span::count_slow_cause(cause, op.trace.id);
            cause
        });
        if op.trace.is_sampled() {
            let (now, root) = (wall_micros(), op.trace.with_phase(Phase::ClientOp));
            span::record_global_end(root, now, now.saturating_sub(started), me, cause);
        }
        Ok(out)
    }
}

/// One `put`/`get` as a resumable, sans-io state machine: the protocol op
/// plus the key's shard and its logical→physical translation, retry
/// passes, epoch votes, the `vouched` cross-check and slow-read evidence.
/// [`on_reply`](KvOp::on_reply) stops a round once the op has its output
/// or has moved to an epoch it `adopted`.
pub(crate) struct KvOp<O, M> {
    op: O,
    /// Mints `op` afresh (same seq, same trace root) after an epoch hop.
    mint: M,
    cfg: QuorumConfig,
    policy: TransportConfig,
    /// Replicated mode only: coded replicas hold different fragments.
    vouch: bool,
    map: Arc<ShardMap>,
    epoch: u32,
    shard: ShardId,
    trace: TraceCtx,
    attempt: Attempt,
    suspects: Vec<ServerId>,
    /// Accumulates across epoch hops; exchanges are timed if sampled.
    evidence: SlowEvidence,
    adopted: Option<EpochConfig>,
    hops: u32,
    /// When the current exchange began (sampled ops only).
    rpc_start: u64,
}

/// What an op starts afresh on each attempt (one more per epoch hop).
#[derive(Default)]
struct Attempt {
    retry: Option<Vec<KvSend>>,
    pass: u32,
    /// The message kind of the phase the op is in.
    phase: Option<std::mem::Discriminant<ClientToServer>>,
    /// Servers that answered the current phase.
    responded: usize,
    unreachable: BTreeSet<ServerId>,
    /// `(epoch, digest)` → the distinct servers redirecting there.
    votes: BTreeMap<(u32, u64), (BTreeSet<ServerId>, EpochConfig)>,
    vouched: BTreeMap<Tag, (Payload, ServerId)>,
}

impl<O: ClientOp, M: Fn() -> O> KvOp<O, M> {
    fn new(c: &KvClient, key: &[u8], mint: M) -> Self {
        let op = mint();
        KvOp {
            trace: TraceCtx::for_op(&op.op_id(), c.policy.trace_sample),
            op,
            mint,
            cfg: c.cfg,
            policy: c.policy,
            vouch: c.mode == KvMode::Replicated,
            map: Arc::clone(&c.map),
            epoch: c.epoch,
            shard: c.map.shard_of(key),
            attempt: Attempt::default(),
            suspects: Vec::new(),
            evidence: SlowEvidence::default(),
            adopted: None,
            hops: 0,
            rpc_start: 0,
        }
    }

    /// The sends that open a pass: an attempt's first requests, or the retry
    /// set after a backoff.
    fn start(&mut self) -> Vec<KvSend> {
        self.rpc_start = self.trace.is_sampled().then(wall_micros).unwrap_or(0);
        if let Some(retry) = self.attempt.retry.take() {
            return retry;
        }
        let envs = self.op.start();
        let sends = self.sends(envs);
        self.enter_phase(&sends);
        sends
    }

    /// Starts counting answers afresh when `sends` open a new phase.
    fn enter_phase(&mut self, sends: &[KvSend]) {
        let Some(first) = sends.first() else {
            return;
        };
        let phase = Some(std::mem::discriminant(&first.msg));
        if self.attempt.phase != phase {
            self.attempt.phase = phase;
            self.attempt.responded = 0;
        }
    }

    /// Takes one exchange's outcome; the next exchange starts when it returns.
    fn on_reply(&mut self, send: &KvSend, reply: Reply) -> Flow {
        if self.trace.is_sampled() {
            let (start, dur) = (self.rpc_start, wall_micros().saturating_sub(self.rpc_start));
            let ev = &mut self.evidence;
            ev.rpc_max_us = ev.rpc_max_us.max(dur);
            if ev.rpc_min_us == 0 || dur < ev.rpc_min_us {
                ev.rpc_min_us = dur;
            }
            let node = span::node::client(send.msg.op().client);
            let to = u32::from(send.to.0);
            span::record_global(send.trace, SpanKind::Segment, start, dur, node, to);
        }
        let flow = self.take(send, reply);
        self.rpc_start = self.trace.is_sampled().then(wall_micros).unwrap_or(0);
        flow
    }

    fn take(&mut self, send: &KvSend, reply: Reply) -> Flow {
        let attempt = &mut self.attempt;
        let replies = match reply {
            Ok(replies) => replies,
            Err(err) => {
                let unreachable = safereg_obs::names::KV_EXCHANGE_UNREACHABLE;
                safereg_obs::global().counter(unreachable).inc();
                attempt.unreachable.insert(err.server);
                return Flow::Retry;
            }
        };
        attempt.unreachable.remove(&send.to);
        let (mut redirected, mut proto) = (false, Vec::with_capacity(replies.len()));
        for reply in replies {
            let ServerToClient::WrongEpoch { config, .. } = reply else {
                proto.push(reply);
                continue;
            };
            redirected = true;
            // Only *newer* views gather votes: a leaver redirecting with its
            // stale config must never win back a client.
            if config.epoch > self.epoch {
                let slot = attempt.votes.entry((config.epoch, config.digest()));
                slot.or_insert((BTreeSet::new(), config)).0.insert(send.to);
            }
        }
        if self.adopt() {
            return Flow::Stop;
        }
        if proto.is_empty() {
            // Silence is retried: re-asking is idempotent for a correct
            // server. A redirect is not silence, just epoch skew.
            self.evidence.silent += u32::from(!redirected);
            return Flow::Retry;
        }
        // A late answer to an earlier phase does not count toward this one.
        let current = self.attempt.phase == Some(std::mem::discriminant(&send.msg));
        self.attempt.responded += usize::from(current);
        let from = self.map.logical_of(self.shard, send.to);
        let from = from.expect("a shard replica");
        let mut sends = Vec::new();
        for reply in proto {
            if let (true, ServerToClient::DataResp { tag, payload, .. }) = (self.vouch, &reply) {
                let first = self.attempt.vouched.entry(*tag);
                let first = first.or_insert_with(|| (payload.clone(), send.to));
                // Same tag, different value: one of the two vouchers lies,
                // and the client cannot tell which.
                if first.0 != *payload {
                    self.suspects.extend([first.1, send.to]);
                }
            }
            let envs = self.op.on_message(from, &reply);
            sends.extend(self.sends(envs));
            if self.op.output().is_some() {
                let ev = &mut self.evidence;
                ev.retry_passes = self.attempt.pass;
                ev.unreachable = self.attempt.unreachable.len() as u32;
                ev.validation_failures = u64::from(self.op.validation_failures());
                return Flow::Stop;
            }
        }
        self.enter_phase(&sends);
        Flow::Send(sends)
    }

    /// Moves to the first configuration `f + 1` servers vouch for (so no
    /// `f` Byzantine ones can force it), re-minting the protocol op. A fleet
    /// the ring cannot place is unusable: its votes are dropped.
    fn adopt(&mut self) -> bool {
        let (threshold, votes) = (self.cfg.witness_threshold(), &mut self.attempt.votes);
        let found = votes.iter().find(|(_, (v, _))| v.len() >= threshold);
        let Some((&slot, config)) = found.map(|(s, (_, c))| (s, c.clone())) else {
            return false;
        };
        let Ok(map) = self.map.for_fleet(config.ids()) else {
            votes.remove(&slot);
            return false;
        };
        // The shard ring depends only on seed and count, so the key's shard
        // is the same in every epoch.
        self.map = Arc::new(map);
        self.epoch = config.epoch;
        self.evidence.reconfig += 1;
        self.hops += 1;
        let reg = safereg_obs::global();
        reg.counter(safereg_obs::names::KV_EPOCH_ADOPTIONS).inc();
        self.op = (self.mint)();
        self.attempt = Attempt::default();
        self.adopted = Some(config);
        true
    }

    /// Ends a pass that neither completed nor adopted: the backoff to sleep
    /// before resending `retry`, or the op's error once nothing is left to
    /// retry or the retry budget is spent.
    fn end_pass(&mut self, retry: Vec<KvSend>) -> Result<Duration, KvError> {
        let attempt = &mut self.attempt;
        if retry.is_empty() || attempt.pass >= self.policy.retry_budget {
            return Err(KvError::QuorumUnavailable {
                responded: attempt.responded,
                needed: self.cfg.response_quorum(),
                unreachable: attempt.unreachable.len(),
            });
        }
        // Deterministic jitter roll: the KV client is synchronous, so the
        // roll only needs to vary across passes and operations.
        let roll = self.op.op_id().seq.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let roll = roll.wrapping_add(u64::from(attempt.pass));
        let wait = self.policy.backoff.delay(attempt.pass, roll);
        let waits = safereg_obs::global().histogram(safereg_obs::names::KV_BACKOFF_WAIT_MS);
        waits.record(wait.as_millis() as u64);
        attempt.pass += 1;
        if self.trace.is_sampled() {
            let root = self.trace.with_phase(Phase::Backoff);
            let us = wait.as_micros() as u64;
            let node = span::node::client(self.op.op_id().client);
            span::record_global(root, SpanKind::Retry, wall_micros(), us, node, attempt.pass);
        }
        attempt.retry = Some(retry);
        Ok(wait)
    }

    /// Translates protocol envelopes, addressed to logical replica indices
    /// `0 .. m−1`, into sends to the shard's physical replicas.
    fn sends(&self, envs: Vec<Envelope>) -> Vec<KvSend> {
        let (shard, trace) = (self.shard, self.trace.with_phase(Phase::Rpc));
        let send = |env: Envelope| {
            let (Some(to), Message::ToServer(msg)) = (env.dst.as_server(), env.msg) else {
                return None;
            };
            let to = self.map.physical(shard, to).expect("a shard replica");
            Some(KvSend {
                to,
                shard,
                msg,
                trace,
            })
        };
        envs.into_iter().filter_map(send).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::InMemKvCluster;

    fn setup() -> (InMemKvCluster, KvClient) {
        let cfg = QuorumConfig::minimal_bsr(1).unwrap();
        let cluster = InMemKvCluster::new(cfg);
        let client = KvClient::new(cfg, WriterId(0), ReaderId(0));
        (cluster, client)
    }

    #[test]
    fn put_get_roundtrip() {
        let (mut cluster, mut client) = setup();
        client.put(&mut cluster, b"user:1", "alice").unwrap();
        assert_eq!(
            client.get(&mut cluster, b"user:1").unwrap().as_bytes(),
            b"alice"
        );
        assert!(client.get(&mut cluster, b"user:2").unwrap().is_initial());
    }

    #[test]
    fn keys_are_independent() {
        let (mut cluster, mut client) = setup();
        client.put(&mut cluster, b"a", "1").unwrap();
        client.put(&mut cluster, b"b", "2").unwrap();
        client.put(&mut cluster, b"a", "3").unwrap();
        assert_eq!(client.get(&mut cluster, b"a").unwrap().as_bytes(), b"3");
        assert_eq!(client.get(&mut cluster, b"b").unwrap().as_bytes(), b"2");
    }

    #[test]
    fn tags_grow_per_key() {
        let (mut cluster, mut client) = setup();
        let t1 = client.put(&mut cluster, b"k", "x").unwrap();
        let t2 = client.put(&mut cluster, b"k", "y").unwrap();
        assert!(t2 > t1);
        let fresh = client.put(&mut cluster, b"other", "z").unwrap();
        assert_eq!(fresh.num, 1, "new key starts a fresh tag space");
    }

    #[test]
    fn survives_f_crashes_but_not_more() {
        let (mut cluster, mut client) = setup();
        client.put(&mut cluster, b"k", "v").unwrap();
        cluster.crash(ServerId(0));
        assert_eq!(client.get(&mut cluster, b"k").unwrap().as_bytes(), b"v");
        client.put(&mut cluster, b"k", "v2").unwrap();
        cluster.crash(ServerId(1));
        let err = client.put(&mut cluster, b"k", "v3").unwrap_err();
        assert!(matches!(err, KvError::QuorumUnavailable { .. }));
    }

    #[test]
    fn two_clients_see_each_others_writes() {
        let (mut cluster, mut alice) = setup();
        let cfg = QuorumConfig::minimal_bsr(1).unwrap();
        let mut bob = KvClient::new(cfg, WriterId(1), ReaderId(1));
        alice.put(&mut cluster, b"shared", "from-alice").unwrap();
        assert_eq!(
            bob.get(&mut cluster, b"shared").unwrap().as_bytes(),
            b"from-alice"
        );
        bob.put(&mut cluster, b"shared", "from-bob").unwrap();
        assert_eq!(
            alice.get(&mut cluster, b"shared").unwrap().as_bytes(),
            b"from-bob"
        );
    }

    #[test]
    fn sharded_roundtrip_spreads_keys() {
        let cfg = QuorumConfig::minimal_bsr(1).unwrap();
        let fleet: Vec<ServerId> = (0..8).map(ServerId).collect();
        let map = ShardMap::new(42, 4, fleet, cfg).unwrap();
        let mut cluster = InMemKvCluster::new_sharded(map.clone(), KvMode::Replicated);
        let mut client = KvClient::sharded(map.clone(), WriterId(0), ReaderId(0));
        let mut shards_seen = BTreeSet::new();
        for i in 0..32 {
            let key = format!("key-{i}");
            shards_seen.insert(client.shard_of(key.as_bytes()));
            let val = format!("val-{i}");
            client
                .put(&mut cluster, key.as_bytes(), val.clone().into_bytes())
                .unwrap();
            assert_eq!(
                client.get(&mut cluster, key.as_bytes()).unwrap().as_bytes(),
                val.as_bytes()
            );
        }
        assert!(
            shards_seen.len() > 1,
            "32 keys over 4 shards must touch several: {shards_seen:?}"
        );
    }

    #[test]
    fn sharded_ops_count_per_shard() {
        // The `kv.shard.g{i}.ops` series are process-global, and other
        // tests in this binary run ops concurrently on maps of at most 4
        // shards. So this test spreads keys over 16 shards and counts only
        // ops on shards 8 and up, which no other test here touches.
        const OWN: std::ops::Range<u16> = 8..16;
        let cfg = QuorumConfig::minimal_bsr(1).unwrap();
        let fleet: Vec<ServerId> = (0..5).map(ServerId).collect();
        let map = ShardMap::new(9, OWN.end, fleet, cfg).unwrap();
        let keys: Vec<String> = (0..)
            .map(|i| format!("count-{i}"))
            .filter(|key| OWN.contains(&map.shard_of(key.as_bytes()).0))
            .take(10)
            .collect();
        let mut cluster = InMemKvCluster::new_sharded(map.clone(), KvMode::Replicated);
        let mut client = KvClient::sharded(map, WriterId(7), ReaderId(7));
        let reg = safereg_obs::global();
        let count = || -> u64 {
            OWN.map(|g| reg.counter(&safereg_obs::names::shard_ops_counter(g)).get())
                .sum()
        };
        let before = count();
        for key in &keys {
            client.put(&mut cluster, key.as_bytes(), "v").unwrap();
            client.get(&mut cluster, key.as_bytes()).unwrap();
        }
        assert_eq!(count() - before, 20, "every op lands in some shard counter");
    }

    #[test]
    fn only_replicated_reads_keep_a_reader_local_pair() {
        let cfg = QuorumConfig::new(8, 1).unwrap();
        for (mut cluster, mut client, kept) in [
            (
                InMemKvCluster::new_coded(cfg),
                KvClient::new_coded(cfg, WriterId(0), ReaderId(0)),
                0,
            ),
            (
                InMemKvCluster::new(cfg),
                KvClient::new(cfg, WriterId(0), ReaderId(0)),
                4,
            ),
        ] {
            for key in [&b"a"[..], b"b", b"c"] {
                client.put(&mut cluster, key, vec![7u8; 600]).unwrap();
                assert_eq!(
                    client.get(&mut cluster, key).unwrap().as_bytes(),
                    &[7u8; 600][..]
                );
            }
            assert!(client.get(&mut cluster, b"unwritten").unwrap().is_initial());
            assert_eq!(client.local.len(), kept);
        }
    }

    /// An in-memory cluster behind a transport that can make one replica
    /// answer `DataResp` with a forged value at the genuine tag, and that
    /// records every server the client suspects.
    struct Recording {
        inner: InMemKvCluster,
        liar: Option<ServerId>,
        suspects: BTreeSet<ServerId>,
    }

    impl KvTransport for Recording {
        fn exchange(
            &mut self,
            from: ClientId,
            to: ServerId,
            shard: ShardId,
            key: &[u8],
            msg: &ClientToServer,
            trace: TraceCtx,
        ) -> Result<Vec<ServerToClient>, Unreachable> {
            let mut replies = self.inner.exchange(from, to, shard, key, msg, trace)?;
            if self.liar == Some(to) {
                for reply in &mut replies {
                    if let ServerToClient::DataResp { payload, .. } = reply {
                        *payload = Payload::Full(Value::from("forged"));
                    }
                }
            }
            Ok(replies)
        }

        fn suspect(&mut self, server: ServerId) {
            self.suspects.insert(server);
        }
    }

    #[test]
    fn contradicting_values_at_one_tag_suspect_both_vouchers() {
        let cfg = QuorumConfig::minimal_bsr(1).unwrap();
        let mut transport = Recording {
            inner: InMemKvCluster::new(cfg),
            liar: None,
            suspects: BTreeSet::new(),
        };
        let mut client = KvClient::new(cfg, WriterId(0), ReaderId(0));
        client.put(&mut transport, b"k", "truth").unwrap();
        assert_eq!(
            client.get(&mut transport, b"k").unwrap().as_bytes(),
            b"truth"
        );
        assert!(
            transport.suspects.is_empty(),
            "replicas agreeing on (tag, value) were suspected: {:?}",
            transport.suspects
        );

        transport.liar = Some(ServerId(2));
        assert_eq!(
            client.get(&mut transport, b"k").unwrap().as_bytes(),
            b"truth"
        );
        assert!(
            transport.suspects.contains(&ServerId(2)) && transport.suspects.len() >= 2,
            "the liar and the replica it contradicts must both be suspected: {:?}",
            transport.suspects
        );
    }
}
