//! KV replica: register groups (one per shard) of per-key server states.
//!
//! A replica process hosts one [`ShardGroup`] per shard the
//! [`ShardMap`] places on it; each group is an independent table of
//! per-key register states guarded by its **own** lock, so reactors
//! serving different shards never contend — this
//! per-shard locking is what lets throughput scale with the shard count
//! on one fleet.
//!
//! A group normally runs the honest protocol, but it can be put into a
//! Byzantine [`ByzRole`] from the shared bestiary — then every key gets
//! its own behavior instance (silent, stale-ack, fabricating,
//! equivocating) driven by a seeded [`DetRng`], so a live KV replica can
//! misbehave exactly like a simulated one, reproducibly, and a server can
//! be Byzantine in one shard while serving another honestly.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use safereg_common::buf::Bytes;
use safereg_common::codec::Wire;
use safereg_common::config::QuorumConfig;
use safereg_common::epoch::{ConfigStamp, EpochConfig};
use safereg_common::ids::{ClientId, NodeId, ServerId, WriterId};
use safereg_common::msg::{ClientToServer, Envelope, Message, OpId, Payload, ServerToClient};
use safereg_common::rng::DetRng;
use safereg_common::shard::{ShardId, ShardMap};
use safereg_common::sync::{Mutex, RwLock};
use safereg_common::tag::Tag;
use safereg_common::trace::{Phase, TraceCtx};
use safereg_common::value::Value;
use safereg_core::behavior::{ByzRole, ServerBehavior};
use safereg_core::server::{HistoryRetention, ServerNode};
use safereg_crypto::chain::{ChainLink, LinkKind, ResponseChain};
use safereg_crypto::keychain::KeyChain;
use safereg_crypto::sha256::Sha256;
use safereg_mds::rs::ReedSolomon;
use safereg_mds::stripe::encode_value;
use safereg_obs::span::{self, SpanKind};
use safereg_obs::trace::wall_micros;
use safereg_transport::frame::TailDigest;

/// How a KV replica stores values: full copies (BSR registers) or coded
/// elements (BCSR registers, `n ≥ 5f + 1`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum KvMode {
    /// One full replica of each value per server (default).
    #[default]
    Replicated,
    /// One `[n, n − 5f]` coded element of each value per server.
    Coded,
}

/// One register group: the per-key server states of one shard on one
/// replica. Protocol state is keyed by the replica's **logical** index
/// within the shard (`0 .. m−1`), not its physical fleet id — the
/// protocol crates never learn about sharding.
struct ShardGroup {
    /// This replica's logical index within the shard's replica subset.
    logical: ServerId,
    cfg: QuorumConfig,
    mode: KvMode,
    role: ByzRole,
    byz_seed: u64,
    objects: BTreeMap<Bytes, Register>,
    byz: BTreeMap<Bytes, Box<dyn ServerBehavior>>,
    rng: DetRng,
}

/// One key's register, and the digest of its stored entry's body when
/// that entry arrived in a frame.
struct Register {
    node: ServerNode,
    body: Option<TailDigest>,
}

impl Register {
    /// Keeps whichever of `tail` and the digest held so far covers the
    /// stored entry's body.
    fn keep(&mut self, tail: Option<TailDigest>) {
        let top = self.node.stored(&self.node.max_tag()).map(Payload::body);
        let mut kept = [tail, self.body.take()].into_iter().flatten();
        self.body = kept.find(|d| top.is_some_and(|b| d.covers(b)));
    }
}

/// Mixes a key into the replica seed so each key's behavior gets its own
/// deterministic fault stream (SplitMix-style avalanche over FNV bytes).
fn key_seed(seed: u64, key: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64 ^ seed;
    for &b in key {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h ^= h >> 33;
    h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    h ^ (h >> 33)
}

impl ShardGroup {
    fn new(
        logical: ServerId,
        cfg: QuorumConfig,
        mode: KvMode,
        role: ByzRole,
        byz_seed: u64,
    ) -> Self {
        ShardGroup {
            logical,
            cfg,
            mode,
            role,
            byz_seed,
            objects: BTreeMap::new(),
            byz: BTreeMap::new(),
            rng: DetRng::seed_from(byz_seed ^ 0x5AFE_B12E),
        }
    }

    fn key_count(&self) -> usize {
        self.objects.len() + self.byz.len()
    }

    fn storage_bytes(&self) -> usize {
        let honest: usize = self.objects.values().map(|r| r.node.storage_bytes()).sum();
        let byz: usize = self.byz.values().map(|b| b.storage_bytes()).sum();
        honest + byz
    }

    /// Changes the role the group plays from now on. Byzantine state is
    /// discarded either way: old per-key behaviors belong to the old
    /// role's fault stream, and the honest register state a recovering
    /// group kept is exactly the crash-recover state the protocol absorbs
    /// for `≤ f` replicas.
    fn set_role(&mut self, role: ByzRole, byz_seed: u64) {
        self.role = role;
        self.byz_seed = byz_seed;
        self.byz.clear();
        self.rng = DetRng::seed_from(byz_seed ^ 0x5AFE_B12E);
    }

    fn handle(
        &mut self,
        from: ClientId,
        key: &[u8],
        msg: &ClientToServer,
        tail: Option<TailDigest>,
    ) -> Vec<(ServerToClient, Option<TailDigest>)> {
        let id = self.logical;
        let cfg = self.cfg;
        if self.role != ByzRole::Correct {
            let role = self.role;
            let seed = key_seed(self.byz_seed, key);
            let behavior = self
                .byz
                .entry(Bytes::copy_from_slice(key))
                .or_insert_with(|| role.build(id, cfg, seed));
            let env = Envelope::to_server(from, id, msg.clone());
            return behavior
                .on_envelope(wall_micros(), &env, &mut self.rng)
                .into_iter()
                .filter_map(|out| match (out.dst, out.msg) {
                    (NodeId::Client(c), Message::ToClient(m)) if c == from => Some((m, None)),
                    _ => None,
                })
                .collect();
        }
        let reg = self.register(key);
        let responses = reg.node.handle(from, msg);
        if matches!(msg, ClientToServer::PutData { .. }) {
            reg.keep(tail);
        }
        let kept = |r: &ServerToClient| match r {
            ServerToClient::DataResp { payload, .. } => {
                reg.body.clone().filter(|d| d.covers(payload.body()))
            }
            _ => None,
        };
        responses
            .into_iter()
            .map(|r| {
                let d = kept(&r);
                (r, d)
            })
            .collect()
    }

    /// The honest register for `key`, created fresh on first access.
    fn register(&mut self, key: &[u8]) -> &mut Register {
        let (id, cfg, mode) = (self.logical, self.cfg, self.mode);
        self.objects
            .entry(Bytes::copy_from_slice(key))
            .or_insert_with(|| Register {
                node: fresh_node(id, cfg, mode),
                body: None,
            })
    }

    /// Installs a transferred `(tag, payload)` pair into this group's
    /// honest register state for `key`, bypassing any Byzantine behavior
    /// (transfer writes are cluster-internal, not client traffic). The
    /// install is a synthesized `PUT-DATA` through the ordinary
    /// [`ServerNode::handle`] path, so the protocol's own tag-monotonicity
    /// rule applies — a concurrent genuinely-newer write is never clobbered.
    fn install(&mut self, key: &[u8], tag: Tag, payload: Payload) {
        let reg = self.register(key);
        let _ = reg.node.handle(
            ClientId::Writer(TRANSFER_WRITER),
            &ClientToServer::PutData {
                op: OpId::new(TRANSFER_WRITER, tag.num),
                tag,
                payload,
            },
        );
        reg.keep(None);
    }

    /// The keys with honest register state (Byzantine per-key behaviors
    /// hold no transferable state).
    fn keys(&self) -> Vec<Bytes> {
        self.objects.keys().cloned().collect()
    }

    /// The highest-tag entry stored for `key`, if any.
    fn top_entry(&self, key: &[u8]) -> Option<(Tag, Payload)> {
        let node = &self.objects.get(key)?.node;
        let tag = node.max_tag();
        let payload = node.stored(&tag)?.clone();
        Some((tag, payload))
    }
}

/// Writer id used for cluster-internal state-transfer installs; far above
/// any id the harnesses allocate, so transfer tags never collide with a
/// real writer's tag space (the tag itself is the *original* writer's).
pub(crate) const TRANSFER_WRITER: WriterId = WriterId(0xFFFE);

/// The first 8 bytes (big-endian) of `SHA-256(tag ‖ payload head ‖
/// SHA-256(body))` for a `(tag, payload)` register entry, where the head
/// is the payload's wire encoding before its body — the value digest audit
/// [`ChainLink`]s carry, so two values with one digest cannot be found. A
/// replica derives it from the body digest it kept. Pinned here (next to
/// [`KvServer::payload_digest`], which uses it) so harnesses can compute
/// the *expected* digest of a rebuilt coded fragment independently and
/// compare it against what a joiner stores.
pub fn entry_digest(tag: &Tag, payload: &Payload) -> u64 {
    entry_digest_of(tag, payload, &Sha256::digest(payload.body()))
}

/// [`entry_digest`] given `body_digest`, the SHA-256 of the payload's body.
fn entry_digest_of(tag: &Tag, payload: &Payload, body_digest: &[u8; 32]) -> u64 {
    let mut head = Vec::with_capacity(32);
    tag.encode_to(&mut head);
    match payload {
        Payload::Full(_) => head.push(0),
        Payload::Coded(c) => {
            head.push(1);
            c.index.encode_to(&mut head);
            c.value_len.encode_to(&mut head);
        }
    }
    (payload.body().len() as u32).encode_to(&mut head);
    let mut h = Sha256::new();
    h.update(&head);
    h.update(body_digest);
    let digest = h.finalize();
    u64::from_be_bytes(digest[..8].try_into().expect("a digest has 8 bytes"))
}

/// FNV-1a digest of a register key, the form a key takes inside audit
/// [`ChainLink`]s — evidence pins the key without shipping it.
pub fn key_digest(key: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in key {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Process-wide boot counter feeding [`ChainLink::incarnation`]: every
/// replica (re)start gets a fresh incarnation, so a legitimately restarted
/// chain restarting `seq` at 0 is distinguishable from a forked one.
static INCARNATIONS: AtomicU64 = AtomicU64::new(0);

/// A fresh per-key register in the representation `mode` dictates. It
/// keeps only its top `(tag, payload)` pair: the KV client sends only
/// `QueryTag`, `PutData` and `QueryData`, all answered from `max L`, so any
/// longer history would be memory no reply reads.
fn fresh_node(id: ServerId, cfg: QuorumConfig, mode: KvMode) -> ServerNode {
    let node = match mode {
        KvMode::Replicated => ServerNode::new_replicated(id, cfg),
        KvMode::Coded => {
            let k = cfg.mds_k().expect("checked at construction");
            let code = ReedSolomon::new(cfg.n(), k).expect("valid code");
            let initial = encode_value(&code, &Value::initial())
                .into_iter()
                .nth(id.0 as usize)
                .expect("element per server");
            ServerNode::with_initial(id, cfg, Payload::Coded(initial))
        }
    };
    node.with_retention(HistoryRetention::Window(1))
}

/// One replica of the key-value store: a register group per shard the
/// [`ShardMap`] places on this server.
///
/// Within a group, each key gets an independent [`ServerNode`] (its own
/// list `L` and tag space), created lazily on first access — reading a
/// never-written key behaves like a fresh register and returns `v_0`.
///
/// All methods take `&self`: every group sits behind its own
/// [`Mutex`], so shared hosts (`Arc<KvServer>`) serve concurrent
/// connections with per-shard locking instead of one process-wide lock,
/// and roles can be rotated per shard while connections are live.
///
/// Membership is epoch-aware: the replica holds its current
/// [`EpochConfig`] plus the [`ShardMap`] resolved over that epoch's fleet
/// behind one [`RwLock`] (reads are the per-message dispatch path; writes
/// happen only on reconfiguration). [`KvServer::check_stamp`] is the
/// admission rule the TCP host applies to every authenticated frame, and
/// [`KvServer::apply_config`] is the epoch-change entry point — it keeps
/// the groups whose logical slot is unchanged and restarts (for state
/// transfer) the ones that are new or re-placed, since a coded group's
/// fragments are bound to its logical index.
pub struct KvServer {
    id: ServerId,
    mode: KvMode,
    state: RwLock<ServerState>,
    /// Response-attestation chain, armed by the TCP host (in-memory
    /// deployments exchange no frames and never arm it). One rolling chain
    /// per replica process; the mutex totally orders attested responses.
    audit: Mutex<Option<ResponseChain>>,
    /// Quarantine latch: a convicted replica is demoted to read-only —
    /// writes are dropped unacknowledged so it can no longer contribute to
    /// write quorums, while reads keep being served during eviction.
    quarantined: AtomicBool,
}

/// Epoch-scoped state: everything a reconfiguration swaps atomically.
struct ServerState {
    config: EpochConfig,
    map: ShardMap,
    shards: BTreeMap<ShardId, Mutex<ShardGroup>>,
}

impl std::fmt::Debug for KvServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let st = self.state.read();
        f.debug_struct("KvServer")
            .field("id", &self.id)
            .field("mode", &self.mode)
            .field("epoch", &st.config.epoch)
            .field("shards", &st.shards.len())
            .finish()
    }
}

impl KvServer {
    /// Creates a single-shard replicated-mode replica (the pre-sharding
    /// deployment shape: one register group over the whole fleet).
    pub fn new(id: ServerId, cfg: QuorumConfig) -> Self {
        Self::sharded(id, ShardMap::single(cfg), KvMode::Replicated)
    }

    /// Creates a replica hosting one register group per shard the map
    /// places on `id` (all groups honest).
    ///
    /// # Panics
    ///
    /// Panics in coded mode when the per-shard configuration admits no
    /// `[m, m − 5f]` code.
    pub fn sharded(id: ServerId, map: ShardMap, mode: KvMode) -> Self {
        Self::sharded_with_role(id, map, mode, ByzRole::Correct, 0)
    }

    /// Creates a sharded replica with every hosted group playing `role`
    /// (per-shard roles can then be changed live via
    /// [`KvServer::set_shard_role`]). Faulty roles build replicated-mode
    /// behaviors regardless of `mode` — a Byzantine replica's answers are
    /// untrusted either way, so the storage representation is moot.
    pub fn sharded_with_role(
        id: ServerId,
        map: ShardMap,
        mode: KvMode,
        role: ByzRole,
        byz_seed: u64,
    ) -> Self {
        let cfg = map.shard_config();
        if mode == KvMode::Coded {
            assert!(cfg.mds_k().is_some(), "coded KV needs per-shard m > 5f");
        }
        let shards = map
            .shards_of_server(id)
            .into_iter()
            .map(|g| {
                let logical = map
                    .logical_of(g, id)
                    .expect("shards_of_server returns hosted shards");
                (
                    g,
                    Mutex::new(ShardGroup::new(logical, cfg, mode, role, byz_seed)),
                )
            })
            .collect();
        let config = EpochConfig::genesis(map.fleet().iter().copied());
        KvServer {
            id,
            mode,
            state: RwLock::new(ServerState {
                config,
                map,
                shards,
            }),
            audit: Mutex::new(None),
            quarantined: AtomicBool::new(false),
        }
    }

    /// Arms response attestation: from now on [`KvServer::attest`] mints a
    /// MAC-chained [`ChainLink`] for every attestable response. Called by
    /// the TCP host at spawn; each call starts a fresh incarnation, so a
    /// restarted replica's chain never forks its predecessor's.
    pub fn enable_audit(&self, chain: &KeyChain) {
        let incarnation = INCARNATIONS.fetch_add(1, Ordering::Relaxed);
        *self.audit.lock() = Some(ResponseChain::new(chain, self.id, incarnation));
    }

    /// Mints the chain link vouching for one response, or `None` when the
    /// response kind is not attestable (`WrongEpoch`, admin replies) or
    /// audit is not armed.
    ///
    /// This runs *after* the (possibly Byzantine) register dispatch, so a
    /// faulty role's fabricated or equivocating answers are signed like any
    /// other — which is exactly what makes them convictable later.
    pub fn attest(&self, key: &[u8], resp: &ServerToClient) -> Option<ChainLink> {
        self.attest_tail(key, resp, None)
    }

    /// [`KvServer::attest`] over `tail`, the digest the reply is sealed
    /// over, when it covers a `DataResp`'s body.
    pub(crate) fn attest_tail(
        &self,
        key: &[u8],
        resp: &ServerToClient,
        tail: Option<&TailDigest>,
    ) -> Option<ChainLink> {
        let (op, kind, tag, value_digest) = match resp {
            ServerToClient::TagResp { op, tag } => (*op, LinkKind::TagResp, *tag, 0),
            ServerToClient::PutAck { op, tag } => (*op, LinkKind::PutAck, *tag, 0),
            ServerToClient::DataResp { op, tag, payload } => {
                let digest = match tail {
                    Some(t) if t.covers(payload.body()) => {
                        entry_digest_of(tag, payload, t.digest())
                    }
                    _ => entry_digest(tag, payload),
                };
                (*op, LinkKind::DataResp, *tag, digest)
            }
            _ => return None,
        };
        let mut guard = self.audit.lock();
        let chain = guard.as_mut()?;
        Some(chain.append(op, kind, key_digest(key), tag, value_digest))
    }

    /// Latches the quarantine: subsequent writes are dropped without an
    /// ack. Idempotent; there is deliberately no un-quarantine — the only
    /// way back in is eviction plus a fresh join.
    pub fn quarantine(&self) {
        self.quarantined.store(true, Ordering::Relaxed);
    }

    /// Whether this replica has been quarantined.
    pub fn is_quarantined(&self) -> bool {
        self.quarantined.load(Ordering::Relaxed)
    }

    /// This replica's (physical) identifier.
    pub fn id(&self) -> ServerId {
        self.id
    }

    /// The shard placement this replica currently serves (a snapshot —
    /// reconfiguration replaces it).
    pub fn map(&self) -> ShardMap {
        self.state.read().map.clone()
    }

    /// The membership configuration this replica currently serves (a
    /// snapshot).
    pub fn config(&self) -> EpochConfig {
        self.state.read().config.clone()
    }

    /// The current epoch number.
    pub fn epoch(&self) -> u32 {
        self.state.read().config.epoch
    }

    /// Admission rule for authenticated frames: accepts a stamp iff it
    /// fingerprints this replica's current configuration. On mismatch the
    /// caller must answer `WrongEpoch` with the returned config — both a
    /// *stale* client (lower epoch) and a *newer* one (this replica has
    /// not switched yet) get redirected; the client's `f + 1`-vote rule
    /// sorts out which side is behind.
    ///
    /// # Errors
    ///
    /// The replica's current configuration, to be carried in the redirect.
    pub fn check_stamp(&self, stamp: ConfigStamp) -> Result<(), EpochConfig> {
        let st = self.state.read();
        if stamp.matches(&st.config) {
            Ok(())
        } else {
            Err(st.config.clone())
        }
    }

    /// Switches this replica to `config`, re-resolving its groups under
    /// `map` (which must be the placement over `config`'s fleet). Returns
    /// the shards whose group restarted **empty** and needs state
    /// transfer before this replica can usefully answer for them: for
    /// coded groups that is brand-new placements *and* re-placed ones (a
    /// fragment is bound to its logical index, so relabeled state is
    /// unusable); replicated groups hold the full value, so a relabel
    /// just renames the slot in place and the state — registers, role,
    /// fault streams — carries across the epoch. Configs older than the
    /// current epoch are ignored.
    pub fn apply_config(&self, config: EpochConfig, map: ShardMap) -> Vec<ShardId> {
        let mut st = self.state.write();
        if config.epoch < st.config.epoch {
            return Vec::new();
        }
        let cfg = map.shard_config();
        let mut needs = Vec::new();
        let mut shards = BTreeMap::new();
        let mut prev = std::mem::take(&mut st.shards);
        for g in map.shards_of_server(self.id) {
            let logical = map
                .logical_of(g, self.id)
                .expect("shards_of_server returns hosted shards");
            match prev.remove(&g) {
                Some(group)
                    if self.mode == KvMode::Replicated || group.lock().logical == logical =>
                {
                    group.lock().logical = logical;
                    shards.insert(g, group);
                }
                old => {
                    let (role, byz_seed) = old
                        .map(Mutex::into_inner)
                        .map_or((ByzRole::Correct, 0), |o| (o.role, o.byz_seed));
                    shards.insert(
                        g,
                        Mutex::new(ShardGroup::new(logical, cfg, self.mode, role, byz_seed)),
                    );
                    needs.push(g);
                }
            }
        }
        // Shards left in `prev` are no longer placed here; their state drops.
        st.shards = shards;
        st.map = map;
        st.config = config;
        needs
    }

    /// Installs one transferred `(tag, payload)` pair for `key` into the
    /// group serving `shard`. Returns `false` when this replica does not
    /// serve the shard.
    pub fn install_state(&self, shard: ShardId, key: &[u8], tag: Tag, payload: Payload) -> bool {
        let st = self.state.read();
        match st.shards.get(&shard) {
            Some(group) => {
                group.lock().install(key, tag, payload);
                true
            }
            None => false,
        }
    }

    /// The keys with honest register state in the group serving `shard`
    /// (empty when this replica does not serve the shard). Donor-side
    /// enumeration for state transfer.
    pub fn keys_of_shard(&self, shard: ShardId) -> Vec<Bytes> {
        let st = self.state.read();
        st.shards
            .get(&shard)
            .map(|g| g.lock().keys())
            .unwrap_or_default()
    }

    /// [`entry_digest`] of the highest-tag `(tag, payload)` entry stored for
    /// `key` in `shard` — `None` when the shard is unserved or the key has
    /// no state. The churn harness compares a rebuilt coded fragment
    /// against an independently computed expectation through this.
    pub fn payload_digest(&self, shard: ShardId, key: &[u8]) -> Option<u64> {
        let st = self.state.read();
        let group = st.shards.get(&shard)?;
        let (tag, payload) = group.lock().top_entry(key)?;
        Some(entry_digest(&tag, &payload))
    }

    /// The shards this replica hosts a register group for.
    pub fn shards(&self) -> Vec<ShardId> {
        self.state.read().shards.keys().copied().collect()
    }

    /// The role the group for `shard` plays, or `None` when this replica
    /// does not serve the shard.
    pub fn shard_role(&self, shard: ShardId) -> Option<ByzRole> {
        self.state.read().shards.get(&shard).map(|g| g.lock().role)
    }

    /// The role this replica plays as a whole: that of its first Byzantine
    /// group, or [`ByzRole::Correct`] when every group it hosts is honest.
    pub fn role(&self) -> ByzRole {
        self.state
            .read()
            .shards
            .values()
            .map(|g| g.lock().role)
            .find(|r| *r != ByzRole::Correct)
            .unwrap_or(ByzRole::Correct)
    }

    /// Changes the role one shard's group plays, live (connections keep
    /// flowing; only that shard's lock is taken). Returns `false` when
    /// this replica does not serve the shard.
    pub fn set_shard_role(&self, shard: ShardId, role: ByzRole, byz_seed: u64) -> bool {
        match self.state.read().shards.get(&shard) {
            Some(group) => {
                group.lock().set_role(role, byz_seed);
                true
            }
            None => false,
        }
    }

    /// Number of keys this replica has register state for, over all
    /// groups.
    pub fn key_count(&self) -> usize {
        self.state
            .read()
            .shards
            .values()
            .map(|g| g.lock().key_count())
            .sum()
    }

    /// Total payload bytes stored across all groups.
    pub fn storage_bytes(&self) -> usize {
        self.state
            .read()
            .shards
            .values()
            .map(|g| g.lock().storage_bytes())
            .sum()
    }

    /// Handles one register message addressed to `key` within `shard`.
    /// A message for a shard this replica does not serve is dropped (the
    /// empty reply — indistinguishable from Byzantine silence, which is
    /// exactly how a misrouting client must treat it).
    pub fn handle(
        &self,
        from: ClientId,
        shard: ShardId,
        key: &[u8],
        msg: &ClientToServer,
    ) -> Vec<ServerToClient> {
        let responses = self.handle_traced(from, shard, key, msg, TraceCtx::NONE, None);
        responses.into_iter().map(|(resp, _)| resp).collect()
    }

    /// [`KvServer::handle`] with causal attribution: when `trace` is
    /// sampled, the time spent *waiting for the group lock* is recorded as
    /// a `mutex_wait` segment and the time spent *inside the register
    /// dispatch* as a `dispatch` segment (detail = number of responses),
    /// both stamped with wall-clock microseconds — the TCP side of the
    /// caller-stamped clock rule. A `PutData`'s `tail` (the digest its
    /// frame was opened with) is kept with the entry it stores, and each
    /// response comes paired with the kept digest of the body it returns.
    pub fn handle_traced(
        &self,
        from: ClientId,
        shard: ShardId,
        key: &[u8],
        msg: &ClientToServer,
        trace: TraceCtx,
        tail: Option<TailDigest>,
    ) -> Vec<(ServerToClient, Option<TailDigest>)> {
        // Read-only demotion: a quarantined replica drops writes silently
        // (no ack, so it counts toward no write quorum) but keeps serving
        // reads until the eviction reconfiguration retires it.
        if matches!(msg, ClientToServer::PutData { .. }) && self.is_quarantined() {
            return Vec::new();
        }
        let st = self.state.read();
        let Some(group) = st.shards.get(&shard) else {
            return Vec::new();
        };
        if !trace.is_sampled() {
            return group.lock().handle(from, key, msg, tail);
        }
        let me = span::node::server(self.id.0);
        let queued = wall_micros();
        let mut guard = group.lock();
        let acquired = wall_micros();
        span::record_global(
            trace.with_phase(Phase::MutexWait),
            SpanKind::Segment,
            queued,
            acquired.saturating_sub(queued),
            me,
            0,
        );
        let responses = guard.handle(from, key, msg, tail);
        let done = wall_micros();
        span::record_global(
            trace.with_phase(Phase::Dispatch),
            SpanKind::Segment,
            acquired,
            done.saturating_sub(acquired),
            me,
            responses.len() as u32,
        );
        responses
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use safereg_common::ids::{ReaderId, WriterId};
    use safereg_common::msg::{OpId, Payload};
    use safereg_common::tag::Tag;
    use safereg_common::value::Value;

    const G0: ShardId = ShardId(0);

    fn put(s: &KvServer, key: &[u8], num: u64, val: &str) {
        s.handle(
            ClientId::Writer(WriterId(0)),
            G0,
            key,
            &ClientToServer::PutData {
                op: OpId::new(WriterId(0), num),
                tag: Tag::new(num, WriterId(0)),
                payload: Payload::Full(Value::from(val)),
            },
        );
    }

    /// The spec, from the wire encoding: the payload head is the encoding
    /// of `(tag, payload)` minus its trailing body.
    #[test]
    fn entry_digest_is_a_sha256_prefix_over_head_and_body_digest() {
        let tag = Tag::new(3, WriterId(1));
        let payloads = [
            Payload::Full(Value::from("")),
            Payload::Full(Value::from(vec![7u8; 65_537])),
            Payload::Coded(safereg_common::msg::CodedElement {
                index: 4,
                value_len: 1000,
                data: Bytes::from(vec![9u8; 167]),
            }),
        ];
        for payload in &payloads {
            let mut wire = Vec::new();
            tag.encode_to(&mut wire);
            payload.encode_to(&mut wire);
            let (head, body) = wire.split_at(wire.len() - payload.body().len());
            let sha = Sha256::digest(&[head, &Sha256::digest(body)[..]].concat());
            assert_eq!(
                entry_digest(&tag, payload).to_be_bytes(),
                sha[..8],
                "{payload:?}"
            );
            // Every bit of the tag counts…
            assert_ne!(
                entry_digest(&tag, payload),
                entry_digest(&Tag::new(4, WriterId(1)), payload)
            );
            assert_ne!(
                entry_digest(&tag, payload),
                entry_digest(&Tag::new(3, WriterId(2)), payload)
            );
        }
        // …and every byte of the body, the first and the last.
        for at in [0, 65_536] {
            let mut flipped = vec![7u8; 65_537];
            flipped[at] ^= 1;
            assert_ne!(
                entry_digest(&tag, &payloads[1]),
                entry_digest(&tag, &Payload::Full(Value::from(flipped)))
            );
        }
    }

    fn get_tag(s: &KvServer, key: &[u8]) -> Tag {
        let resp = s.handle(
            ClientId::Reader(ReaderId(0)),
            G0,
            key,
            &ClientToServer::QueryTag {
                op: OpId::new(ReaderId(0), 1),
            },
        );
        match &resp[0] {
            ServerToClient::TagResp { tag, .. } => *tag,
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn keys_have_independent_registers() {
        let cfg = QuorumConfig::minimal_bsr(1).unwrap();
        let s = KvServer::new(ServerId(0), cfg);
        put(&s, b"alpha", 5, "a");
        put(&s, b"beta", 2, "b");
        assert_eq!(get_tag(&s, b"alpha"), Tag::new(5, WriterId(0)));
        assert_eq!(get_tag(&s, b"beta"), Tag::new(2, WriterId(0)));
        assert_eq!(get_tag(&s, b"never-written"), Tag::ZERO);
        assert_eq!(s.key_count(), 3, "reading creates the fresh register");
    }

    #[test]
    fn storage_accounts_all_keys() {
        let cfg = QuorumConfig::minimal_bsr(1).unwrap();
        let s = KvServer::new(ServerId(0), cfg);
        put(&s, b"k1", 1, "12345");
        put(&s, b"k2", 1, "123");
        assert_eq!(s.storage_bytes(), 8);
    }

    #[test]
    fn silent_role_answers_nothing_on_any_key() {
        let cfg = QuorumConfig::minimal_bsr(1).unwrap();
        let s = KvServer::sharded_with_role(
            ServerId(1),
            ShardMap::single(cfg),
            KvMode::Replicated,
            ByzRole::Silent,
            7,
        );
        put(&s, b"k", 1, "v");
        let resp = s.handle(
            ClientId::Reader(ReaderId(0)),
            G0,
            b"k",
            &ClientToServer::QueryTag {
                op: OpId::new(ReaderId(0), 1),
            },
        );
        assert!(resp.is_empty());
    }

    #[test]
    fn fabricator_role_forges_per_key_deterministically() {
        let cfg = QuorumConfig::minimal_bsr(1).unwrap();
        let fabricator = || {
            KvServer::sharded_with_role(
                ServerId(2),
                ShardMap::single(cfg),
                KvMode::Replicated,
                ByzRole::Fabricator,
                42,
            )
        };
        let (a, b) = (fabricator(), fabricator());
        let ta = get_tag(&a, b"key-x");
        let tb = get_tag(&b, b"key-x");
        assert_eq!(ta, tb, "same seed, same forgery");
        assert!(ta.num >= 1_000_000, "forged tag");
        assert_ne!(
            get_tag(&a, b"key-y"),
            ta,
            "each key draws its own fault stream"
        );
    }

    #[test]
    fn stale_ack_role_acks_writes_but_serves_old_reads() {
        let cfg = QuorumConfig::minimal_bsr(1).unwrap();
        let s = KvServer::sharded_with_role(
            ServerId(3),
            ShardMap::single(cfg),
            KvMode::Replicated,
            ByzRole::StaleAck,
            1,
        );
        put(&s, b"k", 1, "v1");
        put(&s, b"k", 2, "v2");
        let resp = s.handle(
            ClientId::Reader(ReaderId(0)),
            G0,
            b"k",
            &ClientToServer::QueryData {
                op: OpId::new(ReaderId(0), 1),
            },
        );
        match &resp[0] {
            ServerToClient::DataResp { tag, .. } => {
                assert_eq!(*tag, Tag::new(1, WriterId(0)), "one entry stale")
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn unserved_shard_is_silence() {
        let cfg = QuorumConfig::minimal_bsr(1).unwrap();
        let s = KvServer::new(ServerId(0), cfg);
        let resp = s.handle(
            ClientId::Reader(ReaderId(0)),
            ShardId(7),
            b"k",
            &ClientToServer::QueryTag {
                op: OpId::new(ReaderId(0), 1),
            },
        );
        assert!(resp.is_empty(), "a shard this replica lacks gets nothing");
    }

    #[test]
    fn per_shard_roles_rotate_independently() {
        let cfg = QuorumConfig::minimal_bsr(1).unwrap();
        let fleet: Vec<ServerId> = (0..5).map(ServerId).collect();
        let map = ShardMap::new(3, 4, fleet, cfg).unwrap();
        // Every shard uses all 5 servers (m = n = 5), so server 0 hosts
        // all four groups.
        let s = KvServer::sharded(ServerId(0), map, KvMode::Replicated);
        assert_eq!(s.shards().len(), 4);
        assert!(s.set_shard_role(ShardId(1), ByzRole::Silent, 9));
        assert_eq!(s.shard_role(ShardId(1)), Some(ByzRole::Silent));
        assert_eq!(s.shard_role(ShardId(0)), Some(ByzRole::Correct));
        // The silent group answers nothing; the honest ones still serve.
        let q = ClientToServer::QueryTag {
            op: OpId::new(ReaderId(0), 1),
        };
        assert!(s
            .handle(ClientId::Reader(ReaderId(0)), ShardId(1), b"k", &q)
            .is_empty());
        assert!(!s
            .handle(ClientId::Reader(ReaderId(0)), ShardId(0), b"k", &q)
            .is_empty());
        // Rotating back to honest drops the Byzantine state.
        assert!(s.set_shard_role(ShardId(1), ByzRole::Correct, 0));
        assert!(!s
            .handle(ClientId::Reader(ReaderId(0)), ShardId(1), b"k", &q)
            .is_empty());
        assert!(!s.set_shard_role(ShardId(99), ByzRole::Silent, 0));
    }

    #[test]
    fn stamp_admission_follows_the_current_config() {
        let cfg = QuorumConfig::minimal_bsr(1).unwrap();
        let s = KvServer::new(ServerId(0), cfg);
        let genesis = s.config();
        assert_eq!(genesis.epoch, 0);
        assert!(s.check_stamp(genesis.stamp()).is_ok());

        let next = genesis.with_added(safereg_common::epoch::Member::unaddressed(ServerId(9)));
        let current = s.check_stamp(next.stamp()).unwrap_err();
        assert_eq!(current, genesis, "redirect carries the server's view");
    }

    #[test]
    fn apply_config_keeps_unmoved_groups_and_restarts_replaced_ones() {
        let cfg = QuorumConfig::minimal_bsr(1).unwrap(); // m = 5
        let fleet: Vec<ServerId> = (0..6).map(ServerId).collect();
        let map = ShardMap::new(11, 2, fleet, cfg).unwrap();
        let sid = map.replicas(G0).unwrap()[0];
        let s = KvServer::sharded(sid, map.clone(), KvMode::Replicated);
        s.handle(
            ClientId::Writer(WriterId(0)),
            G0,
            b"k",
            &ClientToServer::PutData {
                op: OpId::new(WriterId(0), 3),
                tag: Tag::new(3, WriterId(0)),
                payload: Payload::Full(Value::from("kept")),
            },
        );

        // Same placement at a bumped epoch: every logical slot unchanged,
        // state carries over, nothing needs transfer.
        let same = map.for_fleet(map.fleet().to_vec()).unwrap();
        let cfg1 = s
            .config()
            .with_added(safereg_common::epoch::Member::unaddressed(ServerId(99)));
        // (membership digest differs from the map's fleet here, which is
        // fine — apply_config trusts its caller, the cluster orchestrator)
        let needs = s.apply_config(cfg1.clone(), same);
        assert!(needs.is_empty(), "unmoved groups carry state: {needs:?}");
        assert_eq!(s.epoch(), 1);
        assert!(s.payload_digest(G0, b"k").is_some(), "state survived");

        // Stale configs are ignored.
        let stale = EpochConfig::genesis(map.fleet().iter().copied());
        assert!(s.apply_config(stale, map.clone()).is_empty());
        assert_eq!(s.epoch(), 1, "epoch never goes backwards");
    }

    /// A KV register keeps one pair (`HistoryRetention::Window(1)`), and on
    /// every message the KV path sends — lower-tag, duplicate and
    /// transfer-installed puts included — it answers exactly like a
    /// register that keeps every pair.
    #[test]
    fn a_one_pair_register_answers_like_a_full_history() {
        let cfg = QuorumConfig::minimal_bcsr(1).unwrap();
        for mode in [KvMode::Replicated, KvMode::Coded] {
            let mut top = fresh_node(ServerId(2), cfg, mode);
            let mut all = top.clone().with_retention(HistoryRetention::All);
            let mut rng = DetRng::seed_from(40);
            for seq in 0..2_000u64 {
                let writer = WriterId(rng.index(3) as u16);
                let tag = Tag::new(rng.range_u64(0..40), writer);
                let payload = Payload::Full(Value::from(vec![rng.index(4) as u8; 8]));
                let (from, op) = match rng.index(6) {
                    0 => (
                        ClientId::Writer(TRANSFER_WRITER),
                        OpId::new(TRANSFER_WRITER, tag.num),
                    ),
                    1 | 2 => (ClientId::Reader(ReaderId(1)), OpId::new(ReaderId(1), seq)),
                    _ => (ClientId::Writer(writer), OpId::new(writer, seq)),
                };
                let msg = match (from, rng.index(2)) {
                    (ClientId::Reader(_), 0) => ClientToServer::QueryTag { op },
                    (ClientId::Reader(_), _) => ClientToServer::QueryData { op },
                    _ => ClientToServer::PutData { op, tag, payload },
                };
                assert_eq!(
                    top.handle(from, &msg),
                    all.handle(from, &msg),
                    "{mode:?} #{seq}: {msg:?}"
                );
                assert_eq!(top.log_len(), 1, "{mode:?} #{seq}");
            }
            assert!(all.log_len() > 30, "the reference kept its history");
        }
    }

    #[test]
    fn a_key_stores_one_value_however_often_it_is_written() {
        let cfg = QuorumConfig::minimal_bsr(1).unwrap();
        let s = KvServer::new(ServerId(0), cfg);
        let value = "v".repeat(1_000);
        for num in 1..=100 {
            put(&s, b"k", num, &value);
        }
        assert_eq!(s.storage_bytes(), 1_000);
    }

    #[test]
    fn install_state_feeds_tag_monotonic_registers() {
        let cfg = QuorumConfig::minimal_bsr(1).unwrap();
        let s = KvServer::new(ServerId(0), cfg);
        assert!(s.install_state(
            G0,
            b"k",
            Tag::new(7, WriterId(2)),
            Payload::Full(Value::from("transferred")),
        ));
        assert_eq!(get_tag(&s, b"k"), Tag::new(7, WriterId(2)));
        // An older transfer never clobbers newer state.
        assert!(s.install_state(
            G0,
            b"k",
            Tag::new(3, WriterId(2)),
            Payload::Full(Value::from("stale")),
        ));
        assert_eq!(get_tag(&s, b"k"), Tag::new(7, WriterId(2)));
        assert!(!s.install_state(ShardId(9), b"k", Tag::ZERO, Payload::Full(Value::initial())));
        assert_eq!(s.keys_of_shard(G0), vec![Bytes::copy_from_slice(b"k")]);
    }
}
