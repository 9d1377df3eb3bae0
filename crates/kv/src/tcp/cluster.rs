//! [`TcpKvCluster`]: a whole KV deployment on loopback TCP, and the
//! orchestration around it — restarts with state pull, live and respawned
//! role changes, rolling reconfiguration with cross-epoch state transfer,
//! and audit-verdict enforcement.

use std::collections::BTreeMap;
use std::io::ErrorKind;
use std::net::{IpAddr, Ipv4Addr, SocketAddr};
use std::sync::Arc;
use std::time::Duration;

use safereg_common::buf::Bytes;
use safereg_common::config::{QuorumConfig, TransportConfig};
use safereg_common::epoch::{EpochConfig, Member};
use safereg_common::ids::{ReaderId, ServerId, WriterId};
use safereg_common::msg::Payload;
use safereg_common::shard::{ShardId, ShardMap};
use safereg_common::tag::Tag;
use safereg_core::behavior::ByzRole;
use safereg_crypto::keychain::KeyChain;
use safereg_mds::rs::ReedSolomon;
use safereg_mds::stripe::encode_value;
use safereg_obs::names;
use safereg_transport::chaos::FaultPlan;

use super::{KvServerHost, TcpKvTransport};
use crate::audit::AuditLog;
use crate::client::{KvClient, KvTransport};
use crate::server::KvMode;

/// Writer/reader identity used by cluster-internal state-transfer reads;
/// far above any id the harnesses allocate.
const TRANSFER_CLIENT: u16 = 0xFFFD;

/// Where joiners and freshly started replicas bind: an ephemeral loopback
/// port.
const EPHEMERAL: SocketAddr = SocketAddr::new(IpAddr::V4(Ipv4Addr::LOCALHOST), 0);

/// One staged state-transfer install: `(target, shard, key, tag, payload)`.
type TransferEntry = (ServerId, ShardId, Bytes, Tag, Payload);

/// A whole KV deployment on loopback TCP: one host per fleet server,
/// each serving a register group per shard placed on it.
///
/// The cluster is the reconfiguration orchestrator: [`add_replica`],
/// [`remove_replica`] and [`replace_replica`] perform rolling membership
/// changes (one replica per step, epoch bumped per step) with cross-epoch
/// state transfer while reads and writes keep running. Coded groups are
/// rebuilt from a quorum of the *old* epoch before the fleet flips;
/// replicated groups pull *after* the flip, from a quorum of the new
/// epoch in which the empty joiner already votes. That leaves a
/// one-replica swap with only `f` honest witnesses of an old write when
/// one replica is Byzantine (ROADMAP item 1).
///
/// [`add_replica`]: TcpKvCluster::add_replica
/// [`remove_replica`]: TcpKvCluster::remove_replica
/// [`replace_replica`]: TcpKvCluster::replace_replica
#[derive(Debug)]
pub struct TcpKvCluster {
    map: ShardMap,
    chain: KeyChain,
    tconfig: TransportConfig,
    mode: KvMode,
    /// The current membership view, addresses included — the config new
    /// servers are flipped to and `WrongEpoch` redirects advertise.
    config: EpochConfig,
    /// The server-side fault plan every replica is fronted with, if any;
    /// restarts respawn the proxy with the same plan on the old address.
    plan: Option<FaultPlan>,
    /// Reactor pool size every host (including respawns and joiners)
    /// runs with.
    reactors: usize,
    hosts: BTreeMap<ServerId, KvServerHost>,
}

/// Builder for a [`TcpKvCluster`] — the one start path.
///
/// Exactly one of [`quorum`](Self::quorum) (single pre-sharding group) or
/// [`shards`](Self::shards) (explicit placement, including `m < n`
/// subsets via [`ShardMap::with_replicas`]) must be set.
///
/// ```no_run
/// # use safereg_common::config::QuorumConfig;
/// # use safereg_kv::server::KvMode;
/// # use safereg_kv::tcp::TcpKvCluster;
/// let cfg = QuorumConfig::minimal_bsr(1)?;
/// let cluster = TcpKvCluster::builder(KvMode::Replicated, b"demo")
///     .quorum(cfg)
///     .start()?;
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct ClusterBuilder {
    mode: KvMode,
    master_seed: Vec<u8>,
    map: Option<ShardMap>,
    quorum: Option<QuorumConfig>,
    tconfig: TransportConfig,
    plan: Option<FaultPlan>,
    roles: BTreeMap<ServerId, (ByzRole, u64)>,
    reactors: usize,
}

impl ClusterBuilder {
    /// Deploys the single pre-sharding register group over `cfg.n()`
    /// replicas. Mutually exclusive with [`shards`](Self::shards).
    pub fn quorum(mut self, cfg: QuorumConfig) -> Self {
        self.quorum = Some(cfg);
        self
    }

    /// Deploys one register group per shard of `map`, placed on `map`'s
    /// fleet. Overrides [`quorum`](Self::quorum).
    pub fn shards(mut self, map: ShardMap) -> Self {
        self.map = Some(map);
        self
    }

    /// Transport policy applied to every host and to cluster-internal
    /// state-transfer transports.
    pub fn config(mut self, tconfig: TransportConfig) -> Self {
        self.tconfig = tconfig;
        self
    }

    /// Fronts every replica's listener with a seeded
    /// [`ChaosProxy`](safereg_transport::chaos::ChaosProxy)
    /// injecting `plan` on accepted connections.
    pub fn chaos(mut self, plan: FaultPlan) -> Self {
        self.plan = Some(plan);
        self
    }

    /// Spawns `sid` playing `role` (seeded) from the start, instead of
    /// rotating it after [`start`](Self::start). May be called repeatedly
    /// for different replicas.
    pub fn role(mut self, sid: ServerId, role: ByzRole, byz_seed: u64) -> Self {
        self.roles.insert(sid, (role, byz_seed));
        self
    }

    /// Reactor pool size per host (`0` = one reactor per hosted shard, at
    /// most one per core).
    pub fn reactors(mut self, reactors: usize) -> Self {
        self.reactors = reactors;
        self
    }

    /// Starts the cluster.
    ///
    /// # Errors
    ///
    /// Bind errors, poller creation errors, or a builder with neither
    /// [`quorum`](Self::quorum) nor [`shards`](Self::shards) set.
    pub fn start(self) -> std::io::Result<TcpKvCluster> {
        let map = match (self.map, self.quorum) {
            (Some(map), _) => map,
            (None, Some(cfg)) => ShardMap::single(cfg),
            (None, None) => {
                return Err(std::io::Error::new(
                    ErrorKind::InvalidInput,
                    "ClusterBuilder needs .quorum(cfg) or .shards(map)",
                ))
            }
        };
        let mut cluster = TcpKvCluster {
            map,
            chain: KeyChain::from_master_seed(&self.master_seed),
            tconfig: self.tconfig,
            mode: self.mode,
            // Filled in below, once every host has its address.
            config: EpochConfig::at_epoch(0, Vec::new()),
            plan: self.plan,
            reactors: self.reactors,
            hosts: BTreeMap::new(),
        };
        for sid in cluster.map.fleet().to_vec() {
            let (role, seed) = self.roles.get(&sid).copied().unwrap_or_default();
            let host = cluster.spawn_host(sid, &cluster.map, EPHEMERAL, role, seed)?;
            cluster.hosts.insert(sid, host);
        }
        cluster.config = EpochConfig::at_epoch(
            0,
            cluster
                .hosts
                .iter()
                .map(|(s, h)| Member::at(*s, h.addr()))
                .collect(),
        );
        Ok(cluster)
    }
}

impl TcpKvCluster {
    /// Starts building a cluster; see [`ClusterBuilder`].
    pub fn builder(mode: KvMode, master_seed: &[u8]) -> ClusterBuilder {
        ClusterBuilder {
            mode,
            master_seed: master_seed.to_vec(),
            map: None,
            quorum: None,
            tconfig: TransportConfig::default(),
            plan: None,
            roles: BTreeMap::new(),
            reactors: 0,
        }
    }

    /// The per-shard deployment configuration.
    pub fn config(&self) -> QuorumConfig {
        self.map.shard_config()
    }

    /// The shard placement the cluster serves.
    pub fn map(&self) -> &ShardMap {
        &self.map
    }

    /// Replica addresses, for external transports (e.g. one built against
    /// chaos-proxied addresses).
    pub fn addrs(&self) -> BTreeMap<ServerId, SocketAddr> {
        self.hosts.iter().map(|(s, h)| (*s, h.addr())).collect()
    }

    /// The deployment's key chain, for building transports against
    /// substituted (proxied) addresses.
    pub fn chain(&self) -> &KeyChain {
        &self.chain
    }

    /// A transport connected to every live replica, stamped with the
    /// cluster's current epoch.
    pub fn transport(&self) -> TcpKvTransport {
        self.transport_with(TransportConfig::default())
    }

    /// A transport with an explicit policy (e.g.
    /// [`TransportConfig::aggressive`](safereg_common::config::TransportConfig::aggressive)
    /// for fault-injection tests).
    pub fn transport_with(&self, config: TransportConfig) -> TcpKvTransport {
        let mut t = TcpKvTransport::connect_with(&self.addrs(), self.chain.clone(), config);
        t.reconfigure(&self.config);
        t
    }

    /// An empty audit log keyed for this deployment — links mint under the
    /// same master chain the hosts attest with, so it verifies them.
    /// Callers must still [register](AuditLog::register_writers) the
    /// legitimate writers, and every client transport of the deployment
    /// should [attach](TcpKvTransport::set_audit) the *same* log.
    pub fn audit_log(&self) -> Arc<AuditLog> {
        Arc::new(AuditLog::new(self.chain.clone()))
    }

    /// The current membership epoch.
    pub fn epoch(&self) -> u32 {
        self.config.epoch
    }

    /// The current membership configuration (addresses included).
    pub fn epoch_config(&self) -> &EpochConfig {
        &self.config
    }

    /// Digest of the highest-tag entry replica `sid` stores for `key` in
    /// `shard` — the churn harness's fragment-rebuild assertion reads
    /// this. `None` when the replica is unknown, unplaced, or empty.
    pub fn payload_digest(&self, sid: ServerId, shard: ShardId, key: &[u8]) -> Option<u64> {
        self.hosts.get(&sid)?.server().payload_digest(shard, key)
    }

    /// Crashes a replica.
    pub fn crash(&mut self, sid: ServerId) {
        if let Some(host) = self.hosts.get_mut(&sid) {
            host.stop();
        }
    }

    /// Restarts a crashed replica on its **old advertised address**, then
    /// pulls its register state back from a quorum and installs it. The
    /// respawned host serves from the moment it binds, so until the
    /// install it answers `ZERO` tags, and it votes in its own
    /// re-hydration read; with `f` Byzantine replicas that can lose a
    /// completed write (ROADMAP item 1). A chaos-fronted replica gets a
    /// fresh proxy with the same plan on the same address. Restarting
    /// always restores the replica to [`ByzRole::Correct`].
    ///
    /// # Errors
    ///
    /// Propagates bind errors (e.g. the old port was reclaimed) and
    /// quorum failures during the state pull.
    pub fn restart(&mut self, sid: ServerId) -> std::io::Result<()> {
        self.set_role(sid, ByzRole::Correct, 0)?;
        let needs = BTreeMap::from([(sid, self.map.shards_of_server(sid))]);
        // Same-epoch pull: donors and receiver share the current config,
        // so the transferred entries are installed directly (no flip).
        let staged = self.pull_entries(&needs, &self.map, &self.config, &self.map)?;
        self.install(staged);
        Ok(())
    }

    /// Converts a replica to `role` by restarting it in place (old
    /// advertised address, fresh state, the cluster's current epoch).
    /// State loss is acceptable both ways: a Byzantine replica's state is
    /// untrusted, and restoring to `Correct` is the crash-recovery case the
    /// protocol already absorbs for `≤ f` replicas — `set_role(sid,
    /// ByzRole::Correct, 0)` is the amnesiac restart
    /// [`restart`](Self::restart) exists to avoid, which fault-injection
    /// harnesses use to force slow reads. A chaos-fronted replica gets a
    /// fresh proxy with the current plan on the same address. Counts under
    /// `server.restarts` and updates the `server.byz.active` gauge.
    ///
    /// # Errors
    ///
    /// Propagates bind errors.
    pub fn set_role(&mut self, sid: ServerId, role: ByzRole, seed: u64) -> std::io::Result<()> {
        let Some(old) = self.hosts.remove(&sid) else {
            return Ok(());
        };
        let addr = old.addr();
        drop(old); // stops the old host, freeing its address
        let host = self.spawn_host(sid, &self.map, addr, role, seed)?;
        // A fresh host boots at the genesis epoch; mid-epoch respawns must
        // serve the cluster's current config or every frame bounces.
        host.server()
            .apply_config(self.config.clone(), self.map.clone());
        self.hosts.insert(sid, host);
        let reg = safereg_obs::global();
        reg.counter(names::SERVER_RESTARTS).inc();
        reg.gauge(names::KV_EPOCH_CURRENT)
            .set(u64::from(self.config.epoch));
        reg.gauge(names::SERVER_BYZ_ACTIVE)
            .set(self.byz_active() as u64);
        Ok(())
    }

    /// The role each replica currently plays, read live from its register
    /// groups (see [`KvServer::role`](crate::server::KvServer::role)): a replica rotated by
    /// [`set_shard_role`](Self::set_shard_role) reports its Byzantine role.
    pub fn roles(&self) -> BTreeMap<ServerId, ByzRole> {
        self.hosts
            .iter()
            .map(|(s, h)| (*s, h.server().role()))
            .collect()
    }

    /// Replicas hosting at least one Byzantine register group — the value
    /// of the `server.byz.active` gauge.
    fn byz_active(&self) -> usize {
        self.hosts
            .values()
            .filter(|h| h.server().role() != ByzRole::Correct)
            .count()
    }

    /// Rotates the role of one `(shard, replica)` register group **live**
    /// — no respawn, no state loss in other shards, connections keep
    /// flowing. Returns `false` when the replica is unknown or does not
    /// serve the shard. Updates the `server.byz.active` gauge.
    pub fn set_shard_role(&self, sid: ServerId, shard: ShardId, role: ByzRole, seed: u64) -> bool {
        let changed = self
            .hosts
            .get(&sid)
            .is_some_and(|h| h.server().set_shard_role(shard, role, seed));
        if changed {
            safereg_obs::global()
                .gauge(names::SERVER_BYZ_ACTIVE)
                .set(self.byz_active() as u64);
        }
        changed
    }

    /// Swaps the fault plan used by *future* respawns: a soak harness
    /// rotates chaos seeds per epoch, and every replica restarted from then
    /// on comes back behind a proxy driven by the new plan. Running proxies
    /// keep their old plan until their host is restarted.
    pub fn set_plan(&mut self, plan: Option<FaultPlan>) {
        self.plan = plan;
    }

    /// Spawns replica `sid` of this deployment, serving its groups of
    /// `map` on `bind` as `role`, under the deployment's keys, transport
    /// policy, chaos plan and reactor count — the one place the cluster
    /// builds a host, for first start, respawn and join alike.
    fn spawn_host(
        &self,
        sid: ServerId,
        map: &ShardMap,
        bind: SocketAddr,
        role: ByzRole,
        seed: u64,
    ) -> std::io::Result<KvServerHost> {
        let builder = KvServerHost::builder(sid, map.shard_config(), self.mode, self.chain.clone())
            .bind(bind)
            .config(self.tconfig)
            .role(role, seed)
            .shards(map.clone())
            .reactors(self.reactors);
        match &self.plan {
            Some(plan) => builder.chaos(plan.clone()).spawn(),
            None => builder.spawn(),
        }
    }

    /// Installs staged state-transfer entries into their target replicas,
    /// counted under `kv.reconfig.transfer.keys`.
    fn install(&self, staged: Vec<TransferEntry>) {
        safereg_obs::global()
            .counter(names::KV_TRANSFER_KEYS)
            .add(staged.len() as u64);
        for (target, shard, key, tag, payload) in staged {
            if let Some(host) = self.hosts.get(&target) {
                host.server().install_state(shard, &key, tag, payload);
            }
        }
    }

    /// Grows the fleet by one replica (epoch + 1). The joiner spawns on an
    /// ephemeral address, rebuilds every register group placed on it from
    /// a quorum of the old epoch *before* the fleet flips — the coded-mode
    /// joiner rebuilds its **own** fragment by decoding full values from
    /// `m − f` donors' slices and re-encoding its logical slot — and only
    /// then starts serving.
    ///
    /// # Errors
    ///
    /// Bind errors, an already-present joiner id, or a failed transfer
    /// quorum.
    pub fn add_replica(&mut self, joiner: ServerId) -> std::io::Result<()> {
        self.reconfigure_to(&[joiner], &[])
    }

    /// Shrinks the fleet by one replica (epoch + 1). The leaver keeps
    /// serving the old epoch through the transfer, then drains its
    /// outboxes and stops — its `WrongEpoch` answers carry a *lower*
    /// epoch, which no client adopts.
    ///
    /// # Errors
    ///
    /// A fleet that would drop below the per-shard replica count, or a
    /// failed transfer quorum.
    pub fn remove_replica(&mut self, leaver: ServerId) -> std::io::Result<()> {
        self.reconfigure_to(&[], &[leaver])
    }

    /// Swaps one replica for another in a single epoch bump — the rolling
    /// upgrade step. State flows donors → joiner around the flip (coded
    /// snapshots pre-flip, replicated pulls post-flip); the leaver then
    /// retires as in [`remove_replica`].
    ///
    /// # Errors
    ///
    /// As [`add_replica`] and [`remove_replica`].
    ///
    /// [`remove_replica`]: TcpKvCluster::remove_replica
    /// [`add_replica`]: TcpKvCluster::add_replica
    pub fn replace_replica(&mut self, out: ServerId, joiner: ServerId) -> std::io::Result<()> {
        self.reconfigure_to(&[joiner], &[out])
    }

    /// Quarantines one replica in place (read-only demotion, counted under
    /// `kv.audit.quarantines`). Returns `false` for an unknown replica.
    pub fn quarantine(&self, sid: ServerId) -> bool {
        let Some(host) = self.hosts.get(&sid) else {
            return false;
        };
        if !host.server().is_quarantined() {
            safereg_obs::global()
                .counter(names::KV_AUDIT_QUARANTINES)
                .inc();
        }
        host.server().quarantine();
        true
    }

    /// Whether a replica is currently quarantined.
    pub fn is_quarantined(&self, sid: ServerId) -> bool {
        self.hosts
            .get(&sid)
            .is_some_and(|h| h.server().is_quarantined())
    }

    /// Applies an audit log's verdicts: every convicted replica still in
    /// the fleet is quarantined (immediately read-only, so it stops
    /// counting toward write quorums) and then evicted through the
    /// reconfiguration path — replaced by a fresh replica on the next free
    /// id, because plain removal could drop the fleet below the per-shard
    /// replica count. Returns `(evicted, replacement)` pairs.
    ///
    /// # Errors
    ///
    /// The reconfiguration errors of
    /// [`replace_replica`](Self::replace_replica).
    pub fn enforce_verdicts(
        &mut self,
        audit: &AuditLog,
    ) -> std::io::Result<Vec<(ServerId, ServerId)>> {
        let mut evicted = Vec::new();
        for (sid, _charge) in audit.convictions() {
            if !self.hosts.contains_key(&sid) {
                continue; // already gone (earlier enforcement or removal)
            }
            self.quarantine(sid);
            let replacement = ServerId(self.hosts.keys().map(|s| s.0).max().map_or(0, |m| m + 1));
            self.replace_replica(sid, replacement)?;
            evicted.push((sid, replacement));
        }
        Ok(evicted)
    }

    /// One rolling reconfiguration step: pull the state the new placement
    /// is missing, flip every surviving member to the new config, install
    /// the staged entries, then retire the leavers — with the pull placed
    /// on the side of the flip that is sound for the mode (see the
    /// ordering comment in the body): coded groups snapshot at the old
    /// epoch *before* the flip (fragments only decode against the old
    /// logical slots — placements sort replicas by physical id, so a
    /// small-id joiner relabels every higher member, and flipping first
    /// would destroy the donor state the transfer still needs), while
    /// replicated groups pull at the new epoch *after* the flip (a
    /// pre-flip snapshot races concurrent writes and lets a joiner vouch
    /// for a superseded tag).
    fn reconfigure_to(
        &mut self,
        joiners: &[ServerId],
        leavers: &[ServerId],
    ) -> std::io::Result<()> {
        let old_map = self.map.clone();
        let old_config = self.config.clone();
        let fleet: Vec<ServerId> = old_config
            .ids()
            .into_iter()
            .filter(|s| !leavers.contains(s))
            .chain(joiners.iter().copied())
            .collect();
        let new_map = old_map.for_fleet(fleet).map_err(|e| {
            std::io::Error::new(
                ErrorKind::InvalidInput,
                format!("no placement over the new fleet: {e:?}"),
            )
        })?;
        // Joiners spawn with the *new* placement (right logical slots from
        // the start) but stay out of the serving epoch until the flip.
        let mut joined: BTreeMap<ServerId, KvServerHost> = BTreeMap::new();
        for sid in joiners {
            if self.hosts.contains_key(sid) {
                return Err(std::io::Error::new(
                    ErrorKind::InvalidInput,
                    format!("joiner {sid:?} is already a fleet member"),
                ));
            }
            let host = self.spawn_host(*sid, &new_map, EPHEMERAL, ByzRole::Correct, 0)?;
            joined.insert(*sid, host);
        }
        // The successor config advertises every member's address — the
        // `WrongEpoch` redirect is how clients learn where a joiner lives.
        let members: Vec<Member> = self
            .hosts
            .iter()
            .filter(|(s, _)| !leavers.contains(s))
            .chain(joined.iter())
            .map(|(s, h)| Member::at(*s, h.addr()))
            .collect();
        let new_config = EpochConfig::at_epoch(old_config.epoch + 1, members);
        // Dry-run placement diff, mirroring `apply_config`'s restart rule:
        // a coded (host, shard) pair needs transfer iff it is newly placed
        // or lands on a different logical slot (fragments are bound to
        // their index); a replicated one only iff newly placed — a relabel
        // renames the slot in place and the full value carries across.
        let mut needs: BTreeMap<ServerId, Vec<ShardId>> = BTreeMap::new();
        for sid in new_map.fleet().iter().copied() {
            for g in new_map.shards_of_server(sid) {
                let moved = match self.mode {
                    KvMode::Coded => old_map.logical_of(g, sid) != new_map.logical_of(g, sid),
                    KvMode::Replicated => old_map.logical_of(g, sid).is_none(),
                };
                if moved {
                    needs.entry(sid).or_default().push(g);
                }
            }
        }
        // PULL ordering differs by mode.
        //
        // Coded groups pull at the OLD epoch, against the old placement,
        // *before* the flip: donors' fragments only decode against the old
        // logical slots, so the snapshot must be taken while they still
        // serve them (the relabeled survivors' installs then restore slot
        // consistency under the new placement).
        //
        // Replicated groups instead pull at the NEW epoch *after* the
        // flip. The flip freezes the set of old-epoch-completed writes —
        // stale-stamped frames are rejected, so no further old-epoch write
        // can reach its quorum — and a new-epoch quorum read then observes
        // every one of them. Installing a pre-flip snapshot would let a
        // joiner vouch for a tag that a racing write superseded between
        // snapshot and flip; with `f` faulty replicas plus the one honest
        // member that legitimately missed the write, that stale vouch
        // reaches `f + 1` witnesses and a later read returns it (a
        // regularity violation). An empty joiner answering `Tag::ZERO`
        // corroborates nothing, so the post-flip window is safe: reads in
        // it either find `f + 1` fresh witnesses or go slow and retry.
        let staged = if self.mode == KvMode::Coded {
            self.pull_entries(&needs, &old_map, &old_config, &new_map)?
        } else {
            Vec::new()
        };
        // FLIP: joiners enter the host table, then every member of the new
        // epoch switches config; leavers keep serving the old epoch until
        // retired below. Install staged state immediately after each flip
        // — the per-key registers are tag-monotonic, so a concurrent write
        // that already landed in the new epoch is never clobbered.
        self.hosts.append(&mut joined);
        for sid in new_map.fleet() {
            if let Some(host) = self.hosts.get(sid) {
                host.server()
                    .apply_config(new_config.clone(), new_map.clone());
            }
        }
        let staged = if self.mode == KvMode::Replicated {
            self.pull_entries(&needs, &new_map, &new_config, &new_map)?
        } else {
            staged
        };
        self.install(staged);
        self.map = new_map;
        self.config = new_config;
        let reg = safereg_obs::global();
        reg.counter(names::KV_EPOCH_RECONFIGS).inc();
        reg.gauge(names::KV_EPOCH_CURRENT)
            .set(u64::from(self.config.epoch));
        // Leavers wait out a grace so in-flight replies drain through their
        // bounded outboxes (clients stamped with the new epoch have already
        // stopped counting them), then stop.
        for sid in leavers {
            if let Some(mut host) = self.hosts.remove(sid) {
                std::thread::sleep(Duration::from_millis(100));
                host.stop();
            }
        }
        Ok(())
    }

    /// Quorum-reads every key of every shard in `needs` at `donor_config`'s
    /// epoch over `donor_map`'s placement, and returns the entries to
    /// install — `(target, shard, key, tag, payload)` — where the payload
    /// is the full value (replicated) or the fragment for the target's
    /// logical slot in `target_map` (coded), re-encoded from the value the
    /// quorum decoded out of `m − f` donors' slices.
    fn pull_entries(
        &self,
        needs: &BTreeMap<ServerId, Vec<ShardId>>,
        donor_map: &ShardMap,
        donor_config: &EpochConfig,
        target_map: &ShardMap,
    ) -> std::io::Result<Vec<TransferEntry>> {
        if needs.values().all(Vec::is_empty) {
            return Ok(Vec::new());
        }
        let cfg = donor_map.shard_config();
        // Transport over the donor epoch's members only: joiners (not yet
        // serving that epoch) must not be asked and cannot answer.
        let addrs: BTreeMap<ServerId, SocketAddr> = donor_config
            .ids()
            .into_iter()
            .filter_map(|s| self.hosts.get(&s).map(|h| (s, h.addr())))
            .collect();
        let mut transport = TcpKvTransport::connect_with(&addrs, self.chain.clone(), self.tconfig);
        transport.reconfigure(donor_config);
        let (mut client, code) = match self.mode {
            KvMode::Replicated => (
                KvClient::sharded(
                    donor_map.clone(),
                    WriterId(TRANSFER_CLIENT),
                    ReaderId(TRANSFER_CLIENT),
                ),
                None,
            ),
            KvMode::Coded => {
                let k = cfg.mds_k().expect("coded cluster checked at start");
                (
                    KvClient::sharded_coded(
                        donor_map.clone(),
                        WriterId(TRANSFER_CLIENT),
                        ReaderId(TRANSFER_CLIENT),
                    ),
                    Some(ReedSolomon::new(cfg.n(), k).expect("valid code")),
                )
            }
        };
        client.align_epoch(donor_config.epoch);
        let mut by_shard: BTreeMap<ShardId, Vec<ServerId>> = BTreeMap::new();
        for (sid, shards) in needs {
            for g in shards {
                by_shard.entry(*g).or_default().push(*sid);
            }
        }
        let mut staged = Vec::new();
        for (g, targets) in by_shard {
            // Key discovery is the union over all old donors: up to `f` of
            // them are Byzantine and enumerate nothing, but every key with
            // completed writes lives on at least one honest donor.
            let mut keys: std::collections::BTreeSet<Bytes> = std::collections::BTreeSet::new();
            for donor in donor_map.replicas(g).unwrap_or(&[]) {
                if let Some(host) = self.hosts.get(donor) {
                    keys.extend(host.server().keys_of_shard(g));
                }
            }
            for key in keys {
                // The pull shares the wire with live (possibly Byzantine)
                // traffic; a bounded retry rides out transient quorum
                // misses without letting a dead fleet wedge the step.
                let mut attempt: u64 = 0;
                let (value, tag) = loop {
                    match client.get_with_tag(&mut transport, &key) {
                        Ok(read) => break read,
                        Err(_) if attempt < 5 => {
                            attempt += 1;
                            std::thread::sleep(Duration::from_millis(20 * attempt));
                        }
                        Err(e) => {
                            return Err(std::io::Error::other(format!(
                                "state transfer read failed: {e}"
                            )));
                        }
                    }
                };
                if tag == Tag::ZERO {
                    continue; // never written: a fresh register transfers nothing
                }
                let elements = code.as_ref().map(|code| encode_value(code, &value));
                for &target in &targets {
                    let payload = match &elements {
                        None => Payload::Full(value.clone()),
                        Some(elements) => {
                            let logical = target_map
                                .logical_of(g, target)
                                .expect("needs lists only placed shards");
                            Payload::Coded(
                                elements
                                    .get(logical.0 as usize)
                                    .expect("one element per logical slot")
                                    .clone(),
                            )
                        }
                    };
                    staged.push((target, g, key.clone(), tag, payload));
                }
            }
        }
        Ok(staged)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn live_roles_survive_a_peer_restart() {
        let cfg = QuorumConfig::minimal_bsr(1).unwrap();
        let mut cluster = TcpKvCluster::builder(KvMode::Replicated, b"kv-live-roles")
            .quorum(cfg)
            .start()
            .unwrap();
        let (liar, restarted) = (ServerId(1), ServerId(2));
        assert!(cluster.set_shard_role(liar, ShardId(0), ByzRole::Fabricator, 5));
        cluster.crash(restarted);
        cluster.restart(restarted).unwrap();
        // The liar was rotated live, not respawned: both the role report
        // and the `server.byz.active` count must still see it.
        assert_eq!(cluster.roles()[&liar], ByzRole::Fabricator);
        assert_eq!(cluster.roles()[&restarted], ByzRole::Correct);
        assert_eq!(cluster.byz_active(), 1);
    }

    #[test]
    fn respawns_and_joiners_keep_the_spawn_policy() {
        use safereg_transport::chaos::FaultSpec;
        let cfg = QuorumConfig::minimal_bsr(1).unwrap();
        let mut cluster = TcpKvCluster::builder(KvMode::Replicated, b"kv-spawn-policy")
            .quorum(cfg)
            .chaos(FaultPlan::new(3, FaultSpec::calm()))
            .reactors(2)
            .start()
            .unwrap();
        cluster.set_role(ServerId(1), ByzRole::Silent, 4).unwrap();
        cluster.add_replica(ServerId(5)).unwrap();
        // First start, respawn and join all run behind a proxy on two
        // reactors, as the builder asked.
        assert_eq!(cluster.hosts.len(), 6);
        for (sid, host) in &cluster.hosts {
            assert_eq!(host.policy(), (2, true), "{sid:?}");
        }
    }
}
