//! KV client: `put`/`get` over per-key BSR operations, routed through a
//! [`ShardMap`].
//!
//! Every key hashes to one register-group shard; the client runs the
//! BSR/BCSR exchange against only that shard's replica subset, addressing
//! the protocol's **logical** replica indices and translating them to
//! physical fleet ids at the transport boundary. One transport serves all
//! shards — the per-server connections are keyed by physical id, so `s`
//! shards over `n` servers reuse `n` sockets instead of opening `s × n`.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use safereg_common::buf::Bytes;
use safereg_common::config::{QuorumConfig, TransportConfig};
use safereg_common::epoch::EpochConfig;
use safereg_common::ids::{ClientId, ReaderId, ServerId, WriterId};
use safereg_common::msg::{ClientToServer, Envelope, Message, OpId, Payload, ServerToClient};
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
        /// Servers that responded.
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
    map: ShardMap,
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
    code: Option<ReedSolomon>,
    /// Per-key `(t_local, v_local)` (Fig. 2 line 1, one per register).
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
                Some(ReedSolomon::new(cfg.n(), k).expect("valid code"))
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
            map,
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
        let value: Value = value.into();
        let shard = self.map.shard_of(key);
        let root = TraceCtx::for_op(&OpId::new(self.writer, self.seq), self.policy.trace_sample);
        let me = span::node::client(ClientId::Writer(self.writer));
        let started = self.note_start(root, me);
        let mut evidence = SlowEvidence::default();
        let mut hops = 0u32;
        // Each epoch adoption re-issues the protocol op (same sequence
        // number, same trace root) against the new membership — the shard
        // ring depends only on seed and count, so the key's shard is
        // stable across epochs.
        let out = loop {
            let mut op = match self.mode {
                KvMode::Replicated => {
                    WriteOp::replicated(self.writer, self.seq, self.cfg, value.clone())
                }
                KvMode::Coded => WriteOp::coded(
                    self.writer,
                    self.seq,
                    self.cfg,
                    self.code.as_ref().expect("coded client holds a code"),
                    &value,
                ),
            };
            match self.drive_dyn(transport, shard, key, &mut op, root, &mut evidence)? {
                Some(out) => break out,
                None if hops < MAX_EPOCH_HOPS => hops += 1,
                None => {
                    return Err(KvError::QuorumUnavailable {
                        responded: 0,
                        needed: self.cfg.response_quorum(),
                        unreachable: 0,
                    })
                }
            }
        };
        self.note_op(shard, None);
        if root.is_sampled() {
            let now = wall_micros();
            span::record_global_end(
                root.with_phase(Phase::ClientOp),
                now,
                now.saturating_sub(started),
                me,
                None,
            );
        }
        match out {
            OpOutput::Written { tag } => Ok(tag),
            OpOutput::Read { .. } => unreachable!("write op yields a write outcome"),
        }
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
        let shard = self.map.shard_of(key);
        let local = self
            .local
            .get(key)
            .cloned()
            .unwrap_or_else(|| (Tag::ZERO, Value::initial()));
        let root = TraceCtx::for_op(&OpId::new(self.reader, self.seq), self.policy.trace_sample);
        let me = span::node::client(ClientId::Reader(self.reader));
        let started = self.note_start(root, me);
        let mut evidence = SlowEvidence::default();
        let mut hops = 0u32;
        let (out, path) = loop {
            let mut replicated;
            let mut coded;
            let op: &mut dyn ClientOp = match self.mode {
                KvMode::Replicated => {
                    replicated = BsrReadOp::new(self.reader, self.seq, self.cfg, local.clone());
                    &mut replicated
                }
                KvMode::Coded => {
                    coded = BcsrReadOp::new(
                        self.reader,
                        self.seq,
                        self.cfg,
                        self.code.clone().expect("coded client holds a code"),
                    );
                    &mut coded
                }
            };
            match self.drive_dyn(transport, shard, key, &mut *op, root, &mut evidence)? {
                Some(out) => break (out, op.read_path()),
                None if hops < MAX_EPOCH_HOPS => hops += 1,
                None => {
                    return Err(KvError::QuorumUnavailable {
                        responded: 0,
                        needed: self.cfg.response_quorum(),
                        unreachable: 0,
                    })
                }
            }
        };
        self.note_op(shard, path);
        // Every non-fast read gets a concrete cause, sampled or not — the
        // per-cause counters are the histogram the trace bench reports;
        // the exemplar trace id only exists when the op was sampled.
        let cause = match path {
            Some(ReadPath::Slow) => {
                let cause = span::attribute_slow_read(&evidence);
                span::count_slow_cause(cause, root.id);
                Some(cause)
            }
            _ => None,
        };
        if root.is_sampled() {
            let now = wall_micros();
            span::record_global_end(
                root.with_phase(Phase::ClientOp),
                now,
                now.saturating_sub(started),
                me,
                cause,
            );
        }
        match out {
            OpOutput::Read { value, tag } => {
                let entry = self
                    .local
                    .entry(Bytes::copy_from_slice(key))
                    .or_insert_with(|| (Tag::ZERO, Value::initial()));
                if (tag, &value) > (entry.0, &entry.1) {
                    *entry = (tag, value.clone());
                }
                Ok((value, tag))
            }
            OpOutput::Written { .. } => unreachable!("read op yields a read outcome"),
        }
    }

    /// Opens the client-side root span for a sampled op; returns the
    /// wall-clock start stamp (0 when unsampled, never read back).
    fn note_start(&self, root: TraceCtx, me: u32) -> u64 {
        if !root.is_sampled() {
            return 0;
        }
        safereg_obs::global()
            .counter(safereg_obs::names::TRACE_SAMPLED_OPS)
            .inc();
        let now = wall_micros();
        span::record_global(
            root.with_phase(Phase::ClientOp),
            SpanKind::Start,
            now,
            0,
            me,
            0,
        );
        now
    }

    /// Drives one sans-io operation over the transport until it completes
    /// or a newer membership is adopted. The op addresses logical replica
    /// indices `0 .. m−1`; this loop translates them to the shard's
    /// physical replicas on send and back on receive, so the protocol
    /// crates stay shard-oblivious.
    ///
    /// Returns `Ok(None)` when `WrongEpoch` redirects from at least
    /// `f + 1` distinct servers converged on the same newer configuration:
    /// the client has already switched its map, epoch, and transport, and
    /// the caller must re-issue the op against the new membership. A
    /// single Byzantine replica cannot trigger this — nor can it forge a
    /// digest `f` honest servers also vouch for.
    ///
    /// `evidence` accumulates across re-issues — retry passes, unreachable
    /// servers, reachable silence, validation failures, adoptions, and
    /// (only when `trace` is sampled, so the untraced path never reads a
    /// clock per RPC) the spread between fastest and slowest exchange.
    fn drive_dyn(
        &mut self,
        transport: &mut impl KvTransport,
        shard: ShardId,
        key: &[u8],
        op: &mut dyn ClientOp,
        trace: TraceCtx,
        evidence: &mut SlowEvidence,
    ) -> Result<Option<OpOutput>, KvError> {
        let reg = safereg_obs::global();
        let rpc_trace = trace.with_phase(Phase::Rpc);
        let me_node = span::node::client(op.op_id().client);
        let mut queue: Vec<Envelope> = op.start();
        let mut responded = 0usize;
        // The retry set: envelopes whose server was unreachable this
        // pass, plus reachable servers that returned *nothing*. An empty
        // reply set means the response was lost or failed to
        // authenticate in flight — indistinguishable from a Byzantine
        // server, but re-asking is idempotent for a correct one and
        // merely wastes a bounded pass on a faulty one, so we re-ask.
        let mut failed: Vec<Envelope> = Vec::new();
        let mut unreachable: BTreeSet<ServerId> = BTreeSet::new();
        // Membership votes: `(epoch, digest)` → the distinct physical
        // servers vouching for that configuration via `WrongEpoch`.
        let mut votes: BTreeMap<(u32, u64), (BTreeSet<ServerId>, EpochConfig)> = BTreeMap::new();
        // Quorum cross-check (replicated mode only — coded replicas hold
        // *different* fragments at one tag by design): the first full
        // value vouched per tag within this operation (an O(1) `Bytes`
        // clone); a contradicting second voucher makes both parties
        // suspects.
        let mut vouched: BTreeMap<Tag, (Payload, ServerId)> = BTreeMap::new();
        let mut pass: u32 = 0;
        let done = |op: &mut dyn ClientOp, evidence: &mut SlowEvidence, pass, unr: usize| {
            evidence.retry_passes = pass;
            evidence.unreachable = unr as u32;
            evidence.validation_failures = u64::from(op.validation_failures());
        };
        loop {
            while let Some(env) = queue.pop() {
                if let Some(out) = op.output() {
                    done(op, evidence, pass, unreachable.len());
                    return Ok(Some(out));
                }
                let (to, msg) = match (&env.dst, &env.msg) {
                    (dst, Message::ToServer(m)) => match dst.as_server() {
                        Some(s) => (s, m),
                        None => continue,
                    },
                    _ => continue,
                };
                let from = env
                    .src
                    .as_client()
                    .expect("client ops originate at clients");
                let phys = self
                    .map
                    .physical(shard, to)
                    .expect("ops address the shard's m replicas");
                let rpc_start = if rpc_trace.is_sampled() {
                    wall_micros()
                } else {
                    0
                };
                let outcome = transport.exchange(from, phys, shard, key, msg, rpc_trace);
                if rpc_trace.is_sampled() {
                    let now = wall_micros();
                    let dur = now.saturating_sub(rpc_start);
                    evidence.rpc_max_us = evidence.rpc_max_us.max(dur);
                    evidence.rpc_min_us = if evidence.rpc_min_us == 0 {
                        dur
                    } else {
                        evidence.rpc_min_us.min(dur)
                    };
                    span::record_global(
                        rpc_trace,
                        SpanKind::Segment,
                        rpc_start,
                        dur,
                        span::node::client(from),
                        u32::from(phys.0),
                    );
                }
                match outcome {
                    Ok(replies) => {
                        unreachable.remove(&phys);
                        let mut redirected = false;
                        let mut proto = Vec::with_capacity(replies.len());
                        for reply in replies {
                            match reply {
                                ServerToClient::WrongEpoch { config, .. } => {
                                    redirected = true;
                                    // Only *newer* views gather votes: a
                                    // leaver redirecting with its stale
                                    // config must never win back a client.
                                    if config.epoch > self.epoch {
                                        let slot = (config.epoch, config.digest());
                                        votes
                                            .entry(slot)
                                            .or_insert_with(|| (BTreeSet::new(), config))
                                            .0
                                            .insert(phys);
                                    }
                                }
                                other => proto.push(other),
                            }
                        }
                        let threshold = self.cfg.witness_threshold();
                        let adopt = votes
                            .iter()
                            .find(|(_, (voters, _))| voters.len() >= threshold)
                            .map(|(slot, (_, config))| (*slot, config.clone()));
                        if let Some((slot, config)) = adopt {
                            match self.map.for_fleet(config.ids()) {
                                Ok(map) => {
                                    self.map = map;
                                    self.epoch = config.epoch;
                                    transport.reconfigure(&config);
                                    evidence.reconfig += 1;
                                    reg.counter(safereg_obs::names::KV_EPOCH_ADOPTIONS).inc();
                                    done(op, evidence, pass, unreachable.len());
                                    return Ok(None);
                                }
                                // A vouched-for fleet the ring cannot place
                                // (fewer members than a shard needs) is
                                // unusable; drop its votes and carry on.
                                Err(_) => {
                                    votes.remove(&slot);
                                }
                            }
                        }
                        if proto.is_empty() {
                            if !redirected {
                                // Reachable silence: a dropped or corrupted
                                // response. Epoch skew (`redirected`) is
                                // *not* silence — the server answered; it
                                // just cannot serve this stamp.
                                evidence.silent += 1;
                            }
                            failed.push(env);
                            continue;
                        }
                        responded += 1;
                        for reply in proto {
                            if self.mode == KvMode::Replicated {
                                if let ServerToClient::DataResp { tag, payload, .. } = &reply {
                                    match vouched.get(tag) {
                                        Some((first_payload, first))
                                            if first_payload != payload =>
                                        {
                                            // Same tag, different value: one
                                            // of the two vouchers is lying,
                                            // and the client cannot tell
                                            // which — suspicion for both.
                                            transport.suspect(*first);
                                            transport.suspect(phys);
                                        }
                                        Some(_) => {}
                                        None => {
                                            vouched.insert(*tag, (payload.clone(), phys));
                                        }
                                    }
                                }
                            }
                            queue.extend(op.on_message(to, &reply));
                            if let Some(out) = op.output() {
                                done(op, evidence, pass, unreachable.len());
                                return Ok(Some(out));
                            }
                        }
                    }
                    Err(err) => {
                        reg.counter(safereg_obs::names::KV_EXCHANGE_UNREACHABLE)
                            .inc();
                        unreachable.insert(err.server);
                        failed.push(env);
                    }
                }
            }
            if let Some(out) = op.output() {
                done(op, evidence, pass, unreachable.len());
                return Ok(Some(out));
            }
            if failed.is_empty() || pass >= self.policy.retry_budget {
                break;
            }
            // Deterministic jitter roll: the KV client is synchronous, so
            // the roll only needs to vary across passes and operations.
            let roll = self
                .seq
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(u64::from(pass));
            let wait = self.policy.backoff.delay(pass, roll);
            reg.histogram(safereg_obs::names::KV_BACKOFF_WAIT_MS)
                .record(wait.as_millis() as u64);
            if trace.is_sampled() {
                span::record_global(
                    trace.with_phase(Phase::Backoff),
                    SpanKind::Retry,
                    wall_micros(),
                    wait.as_micros() as u64,
                    me_node,
                    pass + 1,
                );
            }
            std::thread::sleep(wait);
            queue = std::mem::take(&mut failed);
            pass += 1;
        }
        Err(KvError::QuorumUnavailable {
            responded,
            needed: self.cfg.response_quorum(),
            unreachable: unreachable.len(),
        })
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
