//! TCP deployment of the key-value store.
//!
//! Every message travels as a [`KvFrame`] — `(shard, key, envelope)` plus
//! trace context, epoch stamp and attestation link, MAC-authenticated
//! under the pairwise link keys; [`safereg_transport::frame`] owns the
//! byte layout. Each request yields at most one response frame on the same
//! connection (the per-key register protocol is strict request/response at
//! the server), so the client transport is a simple synchronous exchange —
//! the quorum logic above it supplies the fault tolerance.
//!
//! Hosts serve every accepted connection from a small pool of
//! readiness-driven reactors ([`crate::reactor`]). Replies leave each
//! connection through a *bounded* outbox sized by
//! [`TransportConfig::chan_capacity`](safereg_common::config::TransportConfig);
//! when a slow client lets it fill, the reactor parks the connection's
//! read side until the client drains it, so no reply is ever dropped. A
//! client that never drains is evicted under the stall budget and counted
//! in `server.evictions.stall`.

use std::collections::BTreeMap;
use std::io::ErrorKind;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use safereg_common::buf::Bytes;
use safereg_common::config::{QuorumConfig, TransportConfig};
use safereg_common::epoch::{ConfigStamp, EpochConfig, Member};
use safereg_common::ids::{ClientId, NodeId, ReaderId, ServerId, WriterId};
use safereg_common::msg::{ClientToServer, Envelope, Message, ServerToClient};
use safereg_common::shard::{ShardId, ShardMap};
use safereg_crypto::keychain::KeyChain;

use safereg_common::msg::{OpId, Payload};
use safereg_common::tag::Tag;
use safereg_common::trace::{Phase, TraceCtx};
use safereg_common::value::Value;
use safereg_core::behavior::ByzRole;
use safereg_obs::names;
use safereg_obs::span::{self, SpanKind};
use safereg_obs::trace::{wall_micros, MsgClass};
use safereg_transport::chaos::{ChaosProxy, FaultPlan};
use safereg_transport::frame::{read_frame, KvFrame, SealedKv};

use safereg_mds::rs::ReedSolomon;
use safereg_mds::stripe::encode_value;

use crate::audit::AuditLog;
use crate::client::{KvClient, KvTransport, Unreachable};
use crate::reactor::ReactorPool;
use crate::server::{KvMode, KvServer};

/// Reserved key addressing the replica's observability dump rather than a
/// register: a `QUERY-DATA` on this key is answered with the server
/// process's metrics snapshot rendered as line-oriented JSON. The prefix
/// `__safereg/` cannot collide with register state because the admin path
/// intercepts it before the KV table is consulted.
pub const METRICS_KEY: &[u8] = b"__safereg/metrics";

/// Seals one client→server request exactly as [`TcpKvTransport::exchange`]
/// would and returns the complete length-prefixed wire bytes, ready to be
/// written to a replica's socket verbatim. Load generators use this to
/// pre-encode a request once and replay it from many connections without
/// paying the seal on the hot path.
pub fn encode_request(
    chain: &KeyChain,
    stamp: ConfigStamp,
    from: ClientId,
    to: ServerId,
    shard: ShardId,
    key: &[u8],
    msg: &ClientToServer,
) -> Vec<u8> {
    let frame = KvFrame {
        shard,
        trace: TraceCtx::NONE,
        stamp,
        link: None,
        key: Bytes::copy_from_slice(key),
        env: Envelope::to_server(from, to, msg.clone()),
    };
    SealedKv::seal(chain, &frame).to_wire_bytes()
}

/// Counts one slow-client eviction: the aggregate `server.evictions` plus
/// the per-reason counter (`server.evictions.idle` / `server.evictions.stall`).
/// Every eviction also dumps the flight recorder — the evicted connection's
/// recent spans are exactly the forensics a stall post-mortem needs.
pub(crate) fn count_eviction(reason: &str) {
    let reg = safereg_obs::global();
    reg.counter(names::SERVER_EVICTIONS).inc();
    reg.counter(&names::eviction_counter(reason)).inc();
    span::dump_flight("eviction");
}

/// The per-frame serving path: authenticate, admin-intercept, epoch-admit,
/// dispatch, and hand each sealed reply to `queue_reply` (the reactor's
/// outbox push).
///
/// Malformed, forged, misaddressed or short frames are dropped without
/// closing the connection — Byzantine input is reachable silence, not a
/// transport fault.
pub(crate) fn process_sealed_frame(
    server: &KvServer,
    chain: &KeyChain,
    me: ServerId,
    sealed: &Bytes,
    queue_reply: &mut dyn FnMut(SealedKv),
) {
    // Borrowing decode: the frame's key and value fields are O(1)
    // slices of `sealed`, so no payload byte is copied here.
    let Ok(frame) = KvFrame::parse(sealed) else {
        return;
    };
    // Tracing is one branch when the frame is unsampled; when it is,
    // time the MAC verification as the server's `server_decode` phase.
    let auth_start = if frame.trace.is_sampled() {
        wall_micros()
    } else {
        0
    };
    if frame.verify(chain, sealed).is_err() {
        return; // forged or corrupted: drop, not fatal
    }
    // The MAC covered the trace bytes, so the context is authentic
    // from here on. The server's spans run one hop below the client's.
    let strace = frame.trace.hopped(Phase::ServerDecode);
    let me_node = span::node::server(me.0);
    if strace.is_sampled() {
        let now = wall_micros();
        span::record_global(
            strace,
            SpanKind::Segment,
            auth_start,
            now.saturating_sub(auth_start),
            me_node,
            sealed.len() as u32,
        );
    }
    let (from, msg) = match (&frame.env.src, &frame.env.msg) {
        (NodeId::Client(c), Message::ToServer(m)) => (*c, m),
        _ => return,
    };
    if frame.env.dst != NodeId::Server(me) {
        return; // misaddressed
    }
    safereg_obs::global()
        .counter(&names::kv_recv_counter(
            MsgClass::of(&frame.env.msg).as_str(),
        ))
        .inc();
    let seal_reply = |link, resp| {
        let reply = KvFrame {
            shard: frame.shard,
            trace: frame.trace.hopped(Phase::Reply),
            stamp: frame.stamp,
            link,
            key: frame.key.clone(),
            env: Envelope::to_client(me, from, resp),
        };
        SealedKv::seal(chain, &reply)
    };
    // Admin path: the metrics key is served from the observability
    // registry, never from register state.
    if frame.key.as_slice() == METRICS_KEY {
        if let ClientToServer::QueryData { op } = msg {
            let mut dump = safereg_obs::render_jsonl(&safereg_obs::global().snapshot());
            dump.push_str(&placement_summary(&server.map()));
            let resp = ServerToClient::DataResp {
                op: *op,
                tag: Tag::ZERO,
                payload: Payload::Full(Value::from(dump.into_bytes())),
            };
            queue_reply(seal_reply(None, resp));
        }
        return;
    }
    // Epoch admission (the admin path above deliberately bypasses it:
    // operators must be able to read metrics from a replica whatever
    // epoch it serves). A mismatched stamp is answered with this
    // replica's full configuration; the client's `f + 1`-vote rule
    // decides whether to adopt it.
    if let Err(current) = server.check_stamp(frame.stamp) {
        safereg_obs::global()
            .counter(names::KV_EPOCH_STALE_FRAMES)
            .inc();
        let resp = ServerToClient::WrongEpoch {
            op: msg.op(),
            config: current,
        };
        queue_reply(seal_reply(None, resp));
        return;
    }
    // Per-shard dispatch: only the addressed register group's lock is
    // taken, so connections serving different shards run in parallel.
    let responses = server.handle_traced(from, frame.shard, &frame.key, msg, strace);
    safereg_obs::global()
        .counter(&names::shard_served_counter(frame.shard.0))
        .inc();
    for resp in responses {
        // Attest after dispatch: Byzantine roles' answers flow through the
        // same reply path, so their lies are chain-signed too — the
        // attestation is what later convicts them.
        let link = server.attest(&frame.key, &resp);
        let sealed_reply = seal_reply(link, resp);
        let outbox_start = if strace.is_sampled() {
            wall_micros()
        } else {
            0
        };
        let reply_len = sealed_reply.wire_len() as u32;
        queue_reply(sealed_reply);
        if strace.is_sampled() {
            let now = wall_micros();
            span::record_global(
                strace.with_phase(Phase::Outbox),
                SpanKind::Segment,
                outbox_start,
                now.saturating_sub(outbox_start),
                me_node,
                reply_len,
            );
        }
    }
}

/// Everything optional about how a KV replica is hosted: the transport
/// policy, the (possibly Byzantine) role it plays, and an optional
/// server-side chaos plan that fronts the listener with a fault-injecting
/// proxy so *accepted* connections drop, delay, corrupt and die on the
/// server's side of the wire.
#[derive(Debug, Clone, Default)]
struct KvHostOptions {
    /// Transport policy: outbox capacity, idle/stall budgets.
    tconfig: TransportConfig,
    /// The role this replica plays ([`ByzRole::Correct`] by default) —
    /// applied to every hosted register group; rotate individual shards
    /// afterwards with [`KvServerHost::set_shard_role`].
    role: ByzRole,
    /// Seed for the role's fault stream (fabricated tags, forged values).
    byz_seed: u64,
    /// When set, the advertised address is a seeded [`ChaosProxy`] in front
    /// of the real listener, injecting this plan on the accept side.
    chaos: Option<FaultPlan>,
    /// Shard placement: the replica hosts one register group per shard
    /// placed on it. `None` hosts the single pre-sharding group over the
    /// whole fleet.
    shards: Option<ShardMap>,
    /// Reactor pool size; `0` (the default) sizes the pool to the number
    /// of shards this replica hosts.
    reactors: usize,
}

/// A KV replica served over TCP.
pub struct KvServerHost {
    /// Advertised address: the chaos proxy when one fronts the listener,
    /// the listener itself otherwise.
    addr: SocketAddr,
    /// The real listener address (used to unblock the accept loop on stop).
    listen_addr: SocketAddr,
    role: ByzRole,
    /// The hosted replica, shared with every reactor; kept here so
    /// per-shard roles can be rotated live.
    server: Arc<KvServer>,
    stop: Arc<AtomicBool>,
    accept_thread: Option<std::thread::JoinHandle<()>>,
    /// The reactor pool draining accepted connections.
    pool: ReactorPool,
    chaos: Option<ChaosProxy>,
}

/// Builder for a [`KvServerHost`] — the one spawn path.
///
/// ```no_run
/// # use safereg_common::config::QuorumConfig;
/// # use safereg_common::ids::ServerId;
/// # use safereg_crypto::keychain::KeyChain;
/// # use safereg_kv::server::KvMode;
/// # use safereg_kv::tcp::KvServerHost;
/// let cfg = QuorumConfig::minimal_bsr(1)?;
/// let chain = KeyChain::from_master_seed(b"demo");
/// let host = KvServerHost::builder(ServerId(0), cfg, KvMode::Replicated, chain)
///     .bind("127.0.0.1:7100")
///     .spawn()?;
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct KvHostBuilder {
    id: ServerId,
    cfg: QuorumConfig,
    mode: KvMode,
    chain: KeyChain,
    bind: std::io::Result<SocketAddr>,
    opts: KvHostOptions,
}

impl KvHostBuilder {
    /// Binds the listener (or the fronting chaos proxy) to `bind` instead
    /// of an ephemeral loopback port. A resolution failure is deferred to
    /// [`spawn`](Self::spawn).
    pub fn bind(mut self, bind: impl std::net::ToSocketAddrs) -> Self {
        self.bind = bind_first(&bind);
        self
    }

    /// Transport policy: outbox capacity and idle/stall budgets.
    pub fn config(mut self, tconfig: TransportConfig) -> Self {
        self.opts.tconfig = tconfig;
        self
    }

    /// The (possibly Byzantine) role every hosted register group plays,
    /// with the seed for its fault stream.
    pub fn role(mut self, role: ByzRole, byz_seed: u64) -> Self {
        self.opts.role = role;
        self.opts.byz_seed = byz_seed;
        self
    }

    /// Fronts the listener with a seeded [`ChaosProxy`] injecting `plan`
    /// on every accepted connection.
    pub fn chaos(mut self, plan: FaultPlan) -> Self {
        self.opts.chaos = Some(plan);
        self
    }

    /// Shard placement: the replica hosts one register group per shard of
    /// `map` placed on it.
    pub fn shards(mut self, map: ShardMap) -> Self {
        self.opts.shards = Some(map);
        self
    }

    /// Reactor pool size (`0` = one reactor per hosted shard).
    pub fn reactors(mut self, reactors: usize) -> Self {
        self.opts.reactors = reactors;
        self
    }

    /// Spawns the host.
    ///
    /// # Errors
    ///
    /// Propagates bind errors from the listener or the proxy, and poller
    /// creation errors from the reactor pool — on targets without unix
    /// readiness APIs that is always [`ErrorKind::Unsupported`].
    pub fn spawn(self) -> std::io::Result<KvServerHost> {
        KvServerHost::spawn_inner(
            self.id, self.cfg, self.mode, self.chain, self.bind?, self.opts,
        )
    }
}

impl std::fmt::Debug for KvServerHost {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KvServerHost")
            .field("addr", &self.addr)
            .field("role", &self.role)
            .field("chaos", &self.chaos.is_some())
            .finish()
    }
}

impl KvServerHost {
    /// Starts building a host; see [`KvHostBuilder`].
    pub fn builder(
        id: ServerId,
        cfg: QuorumConfig,
        mode: KvMode,
        chain: KeyChain,
    ) -> KvHostBuilder {
        KvHostBuilder {
            id,
            cfg,
            mode,
            chain,
            bind: bind_first(&("127.0.0.1", 0)),
            opts: KvHostOptions::default(),
        }
    }

    /// The one real spawn path. With chaos, the real listener binds
    /// ephemerally and a seeded [`ChaosProxy`] binds `bind` in front of it
    /// — the advertised [`addr`](Self::addr) is the proxy, so every
    /// accepted connection runs through the fault plan. The accept loop
    /// hands connections off to a readiness-driven reactor pool.
    fn spawn_inner(
        id: ServerId,
        cfg: QuorumConfig,
        mode: KvMode,
        chain: KeyChain,
        bind: SocketAddr,
        opts: KvHostOptions,
    ) -> std::io::Result<Self> {
        let tconfig = opts.tconfig;
        let listener = match opts.chaos {
            // The proxy owns the requested address; the listener hides on
            // an ephemeral port behind it.
            Some(_) => TcpListener::bind(("127.0.0.1", 0))?,
            None => TcpListener::bind(bind)?,
        };
        let listen_addr = listener.local_addr()?;
        let chaos = match opts.chaos {
            Some(plan) => Some(ChaosProxy::spawn_on(id, listen_addr, plan, bind)?),
            None => None,
        };
        let addr = chaos.as_ref().map_or(listen_addr, ChaosProxy::addr);
        let stop = Arc::new(AtomicBool::new(false));
        let map = opts.shards.unwrap_or_else(|| ShardMap::single(cfg));
        let server = Arc::new(KvServer::sharded_with_role(
            id,
            map.clone(),
            mode,
            opts.role,
            opts.byz_seed,
        ));
        // Arm response attestation: every spawn is a fresh incarnation, so
        // restarted replicas never look chain-forked to the auditor.
        server.enable_audit(&chain);

        // Register the degradation metrics up front so a dump shows them
        // (at zero) even before any backpressure, eviction or restart.
        let reg = safereg_obs::global();
        reg.counter(names::SERVER_EVICTIONS);
        reg.counter(&names::eviction_counter("idle"));
        reg.counter(&names::eviction_counter("stall"));
        reg.counter(names::SERVER_RESTARTS);
        reg.gauge(names::SERVER_BYZ_ACTIVE);
        reg.histogram(names::TRANSPORT_BATCH_FRAMES);
        // Likewise every per-shard series, so JSONL dumps are
        // schema-stable regardless of which shards saw traffic.
        for g in map.shards() {
            reg.counter(&names::shard_ops_counter(g.0));
            reg.counter(&names::shard_reads_counter(g.0, "fast"));
            reg.counter(&names::shard_reads_counter(g.0, "slow"));
            reg.gauge(&names::shard_fast_ratio_gauge(g.0));
        }
        // Server-side serving counters for the shards *this* replica hosts,
        // plus one receive counter per message class — the admin dump shows
        // the whole schema at zero before any traffic.
        for g in server.shards() {
            reg.counter(&names::shard_served_counter(g.0));
        }
        for class in MsgClass::ALL {
            reg.counter(&names::kv_recv_counter(class.as_str()));
        }
        reg.gauge(names::KV_SHARD_HOT);
        reg.gauge(names::KV_SHARD_HOT_OPS);
        // Epoch/reconfiguration series, likewise schema-stable from spawn.
        reg.gauge(names::KV_EPOCH_CURRENT).set(0);
        reg.counter(names::KV_EPOCH_STALE_FRAMES);
        reg.counter(names::KV_EPOCH_ADOPTIONS);
        reg.counter(names::KV_EPOCH_RECONFIGS);
        reg.counter(names::KV_TRANSFER_KEYS);
        // Accountability series: evidence/verdict counters plus one
        // suspicion gauge per fleet member, schema-stable from spawn.
        reg.counter(names::KV_AUDIT_EVIDENCE);
        reg.counter(names::KV_AUDIT_CONVICTIONS);
        reg.counter(names::KV_AUDIT_FALSE_ACCUSATIONS);
        reg.counter(names::KV_AUDIT_QUARANTINES);
        for s in map.fleet() {
            reg.gauge(&names::audit_suspicion_gauge(s.0));
        }
        reg.gauge(names::REACTOR_THREADS);
        reg.gauge(names::REACTOR_CONNS);
        reg.counter(names::REACTOR_EVENTS);
        reg.counter(names::REACTOR_WAKEUPS);
        reg.counter(names::REACTOR_HANDOFFS);

        let reactors = if opts.reactors > 0 {
            opts.reactors
        } else {
            server.shards().len().max(1)
        };
        let pool = ReactorPool::spawn(
            reactors,
            Arc::clone(&server),
            chain,
            id,
            tconfig,
            Arc::clone(&stop),
        )?;

        let accept_stop = Arc::clone(&stop);
        let accept_pool = pool.handle();
        let accept_thread = std::thread::Builder::new()
            .name(format!("safereg-kv-{addr}"))
            .spawn(move || {
                for conn in listener.incoming() {
                    if accept_stop.load(Ordering::SeqCst) {
                        break;
                    }
                    let stream = match conn {
                        Ok(s) => s,
                        Err(_) => continue,
                    };
                    // Replies are small frames on a request/response path:
                    // Nagle against the client's delayed ACK turns every
                    // exchange into a ~40 ms stall, so send eagerly.
                    let _ = stream.set_nodelay(true);
                    // Accept-and-hand-off: the listener stays a plain
                    // blocking accept loop (so the chaos proxy and the
                    // stop dance keep working) and each connection is
                    // round-robined onto a reactor's inbox.
                    accept_pool.dispatch(stream);
                }
            })
            .expect("spawn kv accept thread");
        Ok(KvServerHost {
            addr,
            listen_addr,
            role: opts.role,
            server,
            stop,
            accept_thread: Some(accept_thread),
            pool,
            chaos,
        })
    }

    /// The advertised address (the chaos proxy's, when one is configured).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The role this replica was spawned with.
    pub fn role(&self) -> ByzRole {
        self.role
    }

    /// The role one shard's register group currently plays, or `None`
    /// when this replica does not serve the shard.
    pub fn shard_role(&self, shard: ShardId) -> Option<ByzRole> {
        self.server.shard_role(shard)
    }

    /// Rotates one shard's role **live** — connections keep flowing and
    /// the other shards' groups are untouched. Returns `false` when this
    /// replica does not serve the shard.
    pub fn set_shard_role(&self, shard: ShardId, role: ByzRole, byz_seed: u64) -> bool {
        self.server.set_shard_role(shard, role, byz_seed)
    }

    /// The membership epoch this replica currently serves.
    pub fn epoch(&self) -> u32 {
        self.server.epoch()
    }

    /// The membership configuration this replica currently serves.
    pub fn epoch_config(&self) -> EpochConfig {
        self.server.config()
    }

    /// Switches this replica to `config` with placement `map`, returning
    /// the shards whose register group restarted empty and needs state
    /// transfer (see [`KvServer::apply_config`]). Live — connections keep
    /// flowing; frames stamped with the old epoch get `WrongEpoch` from
    /// the next dispatch on.
    pub fn apply_config(&self, config: EpochConfig, map: ShardMap) -> Vec<ShardId> {
        let needs = self.server.apply_config(config, map);
        safereg_obs::global()
            .gauge(names::KV_EPOCH_CURRENT)
            .set(u64::from(self.server.epoch()));
        needs
    }

    /// Installs one transferred `(tag, payload)` pair (see
    /// [`KvServer::install_state`]).
    pub fn install_state(&self, shard: ShardId, key: &[u8], tag: Tag, payload: Payload) -> bool {
        self.server.install_state(shard, key, tag, payload)
    }

    /// Donor-side key enumeration for state transfer.
    pub fn keys_of_shard(&self, shard: ShardId) -> Vec<Bytes> {
        self.server.keys_of_shard(shard)
    }

    /// Digest of the highest-tag entry stored for `key` in `shard` (see
    /// [`KvServer::payload_digest`]).
    pub fn payload_digest(&self, shard: ShardId, key: &[u8]) -> Option<u64> {
        self.server.payload_digest(shard, key)
    }

    /// Quarantines the hosted replica: writes are dropped unacknowledged
    /// from now on (see [`KvServer::quarantine`]); reads keep flowing
    /// until eviction.
    pub fn quarantine(&self) {
        self.server.quarantine();
    }

    /// Whether the hosted replica is quarantined.
    pub fn is_quarantined(&self) -> bool {
        self.server.is_quarantined()
    }

    /// Retires a leaving replica: waits out `grace` so in-flight replies
    /// drain through the bounded per-connection outboxes (the hand-off —
    /// clients stamped with the new epoch have already stopped counting
    /// this replica), then stops the host.
    pub fn retire(&mut self, grace: Duration) {
        std::thread::sleep(grace);
        self.stop();
    }

    /// Stops the host (proxy first, then the listener, then the reactors).
    pub fn stop(&mut self) {
        if let Some(mut proxy) = self.chaos.take() {
            proxy.stop();
        }
        self.stop.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(self.listen_addr);
        if let Some(h) = self.accept_thread.take() {
            let _ = h.join();
        }
        self.pool.shutdown();
    }
}

/// Resolves `bind` to its first address (both the listener and the proxy
/// need a concrete `SocketAddr`, and `ToSocketAddrs` is consumed on use).
fn bind_first(bind: &impl std::net::ToSocketAddrs) -> std::io::Result<SocketAddr> {
    bind.to_socket_addrs()?.next().ok_or_else(|| {
        std::io::Error::new(ErrorKind::InvalidInput, "bind address resolves to nothing")
    })
}

impl Drop for KvServerHost {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Renders the replica's shard placement as JSONL lines appended to the
/// `__safereg/metrics` admin dump: one `shard_map` header with the
/// placement parameters, then one `placement` line per shard listing its
/// replica subset — so an operator reading a single replica's dump can see
/// *which* physical servers each `kv.shard.g{i}.*` series routes to.
fn placement_summary(map: &ShardMap) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let _ = writeln!(
        out,
        r#"{{"shard_map":{{"seed":{},"num_shards":{},"fleet":{},"shard_size":{}}}}}"#,
        map.seed(),
        map.num_shards(),
        map.fleet().len(),
        map.shard_config().n(),
    );
    for g in map.shards() {
        let replicas = map
            .replicas(g)
            .unwrap_or(&[])
            .iter()
            .map(|s| s.0.to_string())
            .collect::<Vec<_>>()
            .join(",");
        let _ = writeln!(
            out,
            r#"{{"placement":{{"shard":{},"replicas":[{replicas}]}}}}"#,
            g.0,
        );
    }
    out
}

/// Circuit-breaker states for one KV link.
const STATE_CLOSED: u8 = 0;
const STATE_HALF_OPEN: u8 = 1;
const STATE_OPEN: u8 = 2;

/// One replica's connection state inside [`TcpKvTransport`]: the live
/// stream (if any), the breaker, and the earliest instant a reconnect may
/// be attempted.
struct KvLink {
    addr: SocketAddr,
    stream: Option<TcpStream>,
    /// Consecutive failed exchanges/connects since the last success.
    failures: u32,
    state: u8,
    /// While set and in the future, the link fails fast without touching
    /// the network (breaker cooldown via backoff).
    next_retry_at: Option<std::time::Instant>,
}

impl KvLink {
    fn set_state(&mut self, server: ServerId, new: u8) {
        if self.state != new {
            self.state = new;
            let reg = safereg_obs::global();
            reg.counter(safereg_obs::names::KV_BREAKER_TRANSITIONS)
                .inc();
            reg.gauge(&safereg_obs::names::link_state_gauge(server.0))
                .set(u64::from(new));
        }
    }
}

/// [`KvTransport`] over TCP connections to every replica.
///
/// The transport is synchronous (one request, at most one response per
/// exchange) but *self-healing*: a dead connection is torn down, backed
/// off, and lazily re-established on a later exchange, so a replica that
/// restarts rejoins the quorum instead of being silently dropped forever.
/// Each failed connect or exchange makes the link fail fast (no blocking
/// connect on the hot path) until its backoff cooldown elapses, and its
/// circuit breaker reads Open from that first failure.
pub struct TcpKvTransport {
    chain: KeyChain,
    links: BTreeMap<ServerId, KvLink>,
    config: TransportConfig,
    /// Accountability sink: when set, every attested reply's chain link is
    /// cross-checked (and bad frames noted as suspicion) in the shared
    /// [`AuditLog`].
    audit: Option<Arc<AuditLog>>,
    /// The epoch fingerprint stamped into every outgoing frame. Starts as
    /// the genesis stamp over the connected fleet; updated by
    /// [`reconfigure`](KvTransport::reconfigure) when the client adopts a
    /// newer membership.
    stamp: ConfigStamp,
    /// Jitter rolls for backoff waits.
    rng: safereg_common::rng::DetRng,
}

impl std::fmt::Debug for TcpKvTransport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpKvTransport")
            .field("servers", &self.links.len())
            .finish()
    }
}

impl TcpKvTransport {
    /// Connects to the given replicas with the default
    /// [`TransportConfig`](safereg_common::config::TransportConfig).
    /// Unreachable replicas are not abandoned — they are retried lazily on
    /// later exchanges.
    pub fn connect(servers: &BTreeMap<ServerId, SocketAddr>, chain: KeyChain) -> Self {
        Self::connect_with(servers, chain, TransportConfig::default())
    }

    /// Connects with an explicit transport policy.
    pub fn connect_with(
        servers: &BTreeMap<ServerId, SocketAddr>,
        chain: KeyChain,
        config: TransportConfig,
    ) -> Self {
        let mut links = BTreeMap::new();
        for (sid, addr) in servers {
            let stream = TcpStream::connect_timeout(addr, config.connect_timeout).ok();
            if let Some(s) = &stream {
                let _ = s.set_read_timeout(Some(config.io_timeout));
                let _ = s.set_nodelay(true);
            }
            safereg_obs::global()
                .gauge(&safereg_obs::names::link_state_gauge(sid.0))
                .set(u64::from(STATE_CLOSED));
            links.insert(
                *sid,
                KvLink {
                    addr: *addr,
                    stream,
                    failures: 0,
                    state: STATE_CLOSED,
                    next_retry_at: None,
                },
            );
        }
        TcpKvTransport {
            chain,
            links,
            config,
            audit: None,
            stamp: EpochConfig::genesis(servers.keys().copied()).stamp(),
            rng: safereg_common::rng::DetRng::seed_from(0x5AFE_4B56),
        }
    }

    /// Attaches a shared audit log: every subsequent exchange feeds
    /// received chain links (and suspicion signals) into it. All
    /// transports of one deployment should share one log — cross-client
    /// pooling is what catches per-reader-consistent equivocation.
    pub fn set_audit(&mut self, audit: Arc<AuditLog>) {
        self.audit = Some(audit);
    }

    /// Notes a circumstantial signal against `to` in the attached audit
    /// log, if any.
    fn note_suspect(&self, to: ServerId) {
        if let Some(audit) = &self.audit {
            audit.suspect(to);
        }
    }

    /// The epoch fingerprint currently stamped into outgoing frames.
    pub fn stamp(&self) -> ConfigStamp {
        self.stamp
    }

    /// Overrides the per-exchange response timeout.
    pub fn set_timeout(&mut self, timeout: Duration) {
        self.config.io_timeout = timeout;
        for link in self.links.values() {
            if let Some(stream) = &link.stream {
                let _ = stream.set_read_timeout(Some(timeout));
            }
        }
    }

    /// Overrides the whole transport policy (applies to future connects
    /// and backoff decisions; live streams keep their read timeout until
    /// [`set_timeout`](Self::set_timeout) or a reconnect).
    pub fn set_config(&mut self, config: TransportConfig) {
        self.config = config;
    }

    /// The breaker state of one replica link (0 Closed, 1 HalfOpen,
    /// 2 Open), or `None` for an unknown server.
    pub fn link_state(&self, server: ServerId) -> Option<u8> {
        self.links.get(&server).map(|l| l.state)
    }

    /// Number of currently open sockets. The transport keys connections
    /// by **physical** server, so this is bounded by the fleet size `n`
    /// no matter how many shards route through it — the socket-sharing
    /// invariant the sharding bench asserts (`n` sockets, not `s × n`).
    pub fn live_sockets(&self) -> usize {
        self.links.values().filter(|l| l.stream.is_some()).count()
    }

    /// Marks a link failed: drops the stream, opens the breaker, and
    /// schedules the earliest reconnect.
    fn fail_link(&mut self, to: ServerId) -> Unreachable {
        let roll = self.rng.next_u64();
        let backoff = self.config.backoff;
        if let Some(link) = self.links.get_mut(&to) {
            link.stream = None;
            link.failures = link.failures.saturating_add(1);
            link.set_state(to, STATE_OPEN);
            let wait = backoff.delay(link.failures.saturating_sub(1), roll);
            safereg_obs::global()
                .histogram(safereg_obs::names::KV_BACKOFF_WAIT_MS)
                .record(wait.as_millis() as u64);
            link.next_retry_at = Some(std::time::Instant::now() + wait);
        }
        Unreachable { server: to }
    }

    /// Ensures `to` has a live stream, honouring the breaker cooldown.
    fn ensure_connected(&mut self, to: ServerId) -> Result<(), Unreachable> {
        let (connect_timeout, io_timeout) = (self.config.connect_timeout, self.config.io_timeout);
        let Some(link) = self.links.get_mut(&to) else {
            return Err(Unreachable { server: to });
        };
        if link.stream.is_some() {
            return Ok(());
        }
        if let Some(at) = link.next_retry_at {
            if std::time::Instant::now() < at {
                // Cooling down: fail fast instead of blocking the caller
                // on a connect that just failed.
                return Err(Unreachable { server: to });
            }
        }
        match TcpStream::connect_timeout(&link.addr, connect_timeout) {
            Ok(stream) => {
                let _ = stream.set_read_timeout(Some(io_timeout));
                let _ = stream.set_nodelay(true);
                link.stream = Some(stream);
                link.next_retry_at = None;
                // A handshake is weak evidence (listener backlogs accept
                // for dead servers): half-open until a reply arrives.
                if link.state == STATE_OPEN {
                    link.set_state(to, STATE_HALF_OPEN);
                }
                safereg_obs::global()
                    .counter(safereg_obs::names::KV_RECONNECTS)
                    .inc();
                Ok(())
            }
            Err(_) => Err(self.fail_link(to)),
        }
    }
}

impl KvTransport for TcpKvTransport {
    fn exchange(
        &mut self,
        from: ClientId,
        to: ServerId,
        shard: ShardId,
        key: &[u8],
        msg: &ClientToServer,
        trace: TraceCtx,
    ) -> Result<Vec<ServerToClient>, Unreachable> {
        self.ensure_connected(to)?;
        let frame = KvFrame {
            shard,
            trace,
            stamp: self.stamp,
            link: None,
            key: Bytes::copy_from_slice(key),
            env: Envelope::to_server(from, to, msg.clone()),
        };
        // Encode once into (head, tail) parts — the tail is a slice of the
        // value being put, never a re-buffered copy — and MAC them in
        // streaming fashion.
        let sealed = SealedKv::seal(&self.chain, &frame);
        let stream = self
            .links
            .get_mut(&to)
            .and_then(|l| l.stream.as_mut())
            .expect("ensure_connected left a live stream");
        if sealed.write_to(stream).is_err() {
            return Err(self.fail_link(to));
        }
        // One response per request in the KV protocol.
        let sealed = match read_frame(stream) {
            Ok(f) => f,
            Err(_) => return Err(self.fail_link(to)),
        };
        // A frame arrived: the server is alive. Everything below that
        // fails is Byzantine (forged MAC, wrong key, junk) — reachable
        // silence, not a network fault.
        if let Some(link) = self.links.get_mut(&to) {
            link.failures = 0;
            link.set_state(to, STATE_CLOSED);
        }
        // Borrowing open: the returned value aliases the frame buffer.
        let Ok(reply) = KvFrame::open(&self.chain, &sealed) else {
            // Malformed, forged or wire-corrupted: deliberately *not*
            // evidence — the network can do this to a correct replica's
            // frames.
            self.note_suspect(to);
            return Ok(Vec::new());
        };
        if reply.shard != shard || reply.key.as_ref() != key || reply.env.src != NodeId::Server(to)
        {
            self.note_suspect(to);
            return Ok(Vec::new());
        }
        // Authentic reply: cross-check its attestation against everything
        // the deployment has seen. A convicting contradiction files
        // offline-verifiable evidence; the reply is still delivered (the
        // quorum layer above tolerates the lie, the audit layer blames it).
        if let (Some(audit), Some(link)) = (&self.audit, &reply.link) {
            audit.observe(link, &sealed);
        }
        match reply.env.msg {
            Message::ToClient(m) => Ok(vec![m]),
            _ => Ok(Vec::new()),
        }
    }

    fn suspect(&mut self, server: ServerId) {
        self.note_suspect(server);
    }

    /// Switches the transport to a newly adopted membership: stamps future
    /// frames with the new epoch's fingerprint, drops links to ex-members,
    /// opens (lazy) links to joiners whose address the config carries, and
    /// re-addresses members whose address changed. Members the config has
    /// no address for keep their existing link — the digest never covered
    /// addresses, so an id-only view is still a full adoption.
    fn reconfigure(&mut self, config: &EpochConfig) {
        self.stamp = config.stamp();
        self.links.retain(|sid, _| config.contains(*sid));
        for m in &config.members {
            let Some(addr) = m.addr() else { continue };
            match self.links.get_mut(&m.id) {
                Some(link) if link.addr == addr => {}
                Some(link) => {
                    link.addr = addr;
                    link.stream = None;
                    link.failures = 0;
                    link.next_retry_at = None;
                }
                None => {
                    safereg_obs::global()
                        .gauge(&safereg_obs::names::link_state_gauge(m.id.0))
                        .set(u64::from(STATE_CLOSED));
                    self.links.insert(
                        m.id,
                        KvLink {
                            addr,
                            stream: None, // connected lazily on first exchange
                            failures: 0,
                            state: STATE_CLOSED,
                            next_retry_at: None,
                        },
                    );
                }
            }
        }
    }
}

/// Fetches one replica's metrics dump (line-oriented JSON) over any
/// [`KvTransport`] by querying the reserved [`METRICS_KEY`].
///
/// Returns `None` when the replica is unreachable, does not answer,
/// answers with the wrong operation id, or the payload is not UTF-8.
pub fn fetch_metrics(
    transport: &mut impl KvTransport,
    from: ClientId,
    to: ServerId,
    seq: u64,
) -> Option<String> {
    let op = OpId::new(from, seq);
    // The admin path is intercepted before shard dispatch, so any shard id
    // works; 0 by convention.
    let responses = transport
        .exchange(
            from,
            to,
            ShardId(0),
            METRICS_KEY,
            &ClientToServer::QueryData { op },
            TraceCtx::NONE,
        )
        .ok()?;
    responses.into_iter().find_map(|resp| match resp {
        ServerToClient::DataResp {
            op: rop,
            payload: Payload::Full(v),
            ..
        } if rop == op => String::from_utf8(v.as_bytes().to_vec()).ok(),
        _ => None,
    })
}

/// Writer/reader identity used by cluster-internal state-transfer reads;
/// far above any id the harnesses allocate.
const TRANSFER_CLIENT: u16 = 0xFFFD;

/// One staged state-transfer install: `(target, shard, key, tag, payload)`.
type TransferEntry = (ServerId, ShardId, Bytes, Tag, Payload);

/// A whole KV deployment on loopback TCP: one host per fleet server,
/// each serving a register group per shard placed on it.
///
/// The cluster is the reconfiguration orchestrator: [`add_replica`],
/// [`remove_replica`] and [`replace_replica`] perform rolling membership
/// changes (one replica per step, epoch bumped per step) with cross-epoch
/// state transfer — every re-placed or joining register group is rebuilt
/// from a quorum of the *old* epoch before the fleet flips, so quorum
/// intersection holds across the boundary while reads and writes keep
/// running.
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

    /// Fronts every replica's listener with a seeded [`ChaosProxy`]
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

    /// Reactor pool size per host (`0` = one reactor per hosted shard).
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
        let chain = KeyChain::from_master_seed(&self.master_seed);
        let mut hosts = BTreeMap::new();
        for sid in map.fleet().iter().copied() {
            let (role, byz_seed) = self
                .roles
                .get(&sid)
                .copied()
                .unwrap_or((ByzRole::Correct, 0));
            hosts.insert(
                sid,
                KvServerHost::spawn_inner(
                    sid,
                    map.shard_config(),
                    self.mode,
                    chain.clone(),
                    bind_first(&("127.0.0.1", 0))?,
                    KvHostOptions {
                        tconfig: self.tconfig,
                        role,
                        byz_seed,
                        chaos: self.plan.clone(),
                        shards: Some(map.clone()),
                        reactors: self.reactors,
                    },
                )?,
            );
        }
        let config = EpochConfig::at_epoch(
            0,
            hosts
                .iter()
                .map(|(s, h)| Member::at(*s, h.addr()))
                .collect(),
        );
        Ok(TcpKvCluster {
            map,
            chain,
            tconfig: self.tconfig,
            mode: self.mode,
            config,
            plan: self.plan,
            reactors: self.reactors,
            hosts,
        })
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
        self.hosts.get(&sid)?.payload_digest(shard, key)
    }

    /// Crashes a replica.
    pub fn crash(&mut self, sid: ServerId) {
        if let Some(host) = self.hosts.get_mut(&sid) {
            host.stop();
        }
    }

    /// Restarts a crashed replica on its **old advertised address**,
    /// pulling its register state back from a quorum of its peers before
    /// returning — a crash-recover server is *not* allowed to rejoin
    /// amnesiac. Without the pull, a restarted replica mid-epoch answers
    /// `ZERO` tags; paired with `f` Byzantine replicas that is enough to
    /// starve a later read of its `f + 1` witnesses or (worse) vouch for a
    /// stale tag. A chaos-fronted replica gets a fresh proxy with the same
    /// plan on the same address. Restarting always restores the replica to
    /// [`ByzRole::Correct`].
    ///
    /// # Errors
    ///
    /// Propagates bind errors (e.g. the old port was reclaimed) and
    /// quorum failures during the state pull.
    pub fn restart(&mut self, sid: ServerId) -> std::io::Result<()> {
        self.respawn(sid, ByzRole::Correct, 0)?;
        let needs = BTreeMap::from([(sid, self.map.shards_of_server(sid))]);
        // Same-epoch pull: donors and receiver share the current config,
        // so the transferred entries are installed directly (no flip).
        let staged = self.pull_entries(&needs, &self.map, &self.config, &self.map)?;
        safereg_obs::global()
            .counter(names::KV_TRANSFER_KEYS)
            .add(staged.len() as u64);
        for (target, shard, key, tag, payload) in staged {
            if let Some(host) = self.hosts.get(&target) {
                host.install_state(shard, &key, tag, payload);
            }
        }
        Ok(())
    }

    /// Converts a replica to `role` by restarting it in place (old
    /// advertised address, fresh state). State loss is acceptable both
    /// ways: a Byzantine replica's state is untrusted, and restoring to
    /// `Correct` is the crash-recovery case the protocol already absorbs
    /// for `≤ f` replicas — `set_role(sid, ByzRole::Correct, 0)` is the
    /// amnesiac restart [`restart`](Self::restart) exists to avoid, which
    /// fault-injection harnesses use to force slow reads. Updates the
    /// `server.byz.active` gauge.
    ///
    /// # Errors
    ///
    /// Propagates bind errors.
    pub fn set_role(&mut self, sid: ServerId, role: ByzRole, seed: u64) -> std::io::Result<()> {
        self.respawn(sid, role, seed)
    }

    /// The role each replica currently plays.
    pub fn roles(&self) -> BTreeMap<ServerId, ByzRole> {
        self.hosts.iter().map(|(s, h)| (*s, h.role())).collect()
    }

    /// Rotates the role of one `(shard, replica)` register group **live**
    /// — no respawn, no state loss in other shards, connections keep
    /// flowing. Returns `false` when the replica is unknown or does not
    /// serve the shard. Updates the `server.byz.active` gauge with the
    /// count of replicas hosting at least one Byzantine group.
    pub fn set_shard_role(&self, sid: ServerId, shard: ShardId, role: ByzRole, seed: u64) -> bool {
        let Some(host) = self.hosts.get(&sid) else {
            return false;
        };
        let changed = host.set_shard_role(shard, role, seed);
        if changed {
            let byz = self
                .hosts
                .values()
                .filter(|h| {
                    self.map
                        .shards()
                        .any(|g| h.shard_role(g).is_some_and(|r| r != ByzRole::Correct))
                })
                .count();
            safereg_obs::global()
                .gauge(names::SERVER_BYZ_ACTIVE)
                .set(byz as u64);
        }
        changed
    }

    /// The per-shard roles one replica's register groups currently play.
    pub fn shard_roles(&self, sid: ServerId) -> BTreeMap<ShardId, ByzRole> {
        let Some(host) = self.hosts.get(&sid) else {
            return BTreeMap::new();
        };
        self.map
            .shards()
            .filter_map(|g| host.shard_role(g).map(|r| (g, r)))
            .collect()
    }

    /// Swaps the fault plan used by *future* respawns: a soak harness
    /// rotates chaos seeds per epoch, and every replica restarted from then
    /// on comes back behind a proxy driven by the new plan. Running proxies
    /// keep their old plan until their host is restarted.
    pub fn set_plan(&mut self, plan: Option<FaultPlan>) {
        self.plan = plan;
    }

    fn respawn(&mut self, sid: ServerId, role: ByzRole, seed: u64) -> std::io::Result<()> {
        let Some(old) = self.hosts.get(&sid) else {
            return Ok(());
        };
        let addr = old.addr();
        self.hosts.remove(&sid); // drop stops the old host first
        let host = KvServerHost::spawn_inner(
            sid,
            self.map.shard_config(),
            self.mode,
            self.chain.clone(),
            addr,
            KvHostOptions {
                tconfig: self.tconfig,
                role,
                byz_seed: seed,
                chaos: self.plan.clone(),
                shards: Some(self.map.clone()),
                reactors: self.reactors,
            },
        )?;
        // A fresh host boots at the genesis epoch; mid-epoch respawns must
        // serve the cluster's current config or every frame bounces.
        host.apply_config(self.config.clone(), self.map.clone());
        self.hosts.insert(sid, host);
        let reg = safereg_obs::global();
        reg.counter(names::SERVER_RESTARTS).inc();
        let byz = self
            .hosts
            .values()
            .filter(|h| h.role() != ByzRole::Correct)
            .count();
        reg.gauge(names::SERVER_BYZ_ACTIVE).set(byz as u64);
        Ok(())
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
        if !host.is_quarantined() {
            safereg_obs::global()
                .counter(names::KV_AUDIT_QUARANTINES)
                .inc();
        }
        host.quarantine();
        true
    }

    /// Whether a replica is currently quarantined.
    pub fn is_quarantined(&self, sid: ServerId) -> bool {
        self.hosts
            .get(&sid)
            .is_some_and(KvServerHost::is_quarantined)
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
            joined.insert(
                *sid,
                KvServerHost::spawn_inner(
                    *sid,
                    new_map.shard_config(),
                    self.mode,
                    self.chain.clone(),
                    bind_first(&("127.0.0.1", 0))?,
                    KvHostOptions {
                        tconfig: self.tconfig,
                        chaos: self.plan.clone(),
                        shards: Some(new_map.clone()),
                        reactors: self.reactors,
                        ..KvHostOptions::default()
                    },
                )?,
            );
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
                host.apply_config(new_config.clone(), new_map.clone());
            }
        }
        let staged = if self.mode == KvMode::Replicated {
            self.pull_entries(&needs, &new_map, &new_config, &new_map)?
        } else {
            staged
        };
        safereg_obs::global()
            .counter(names::KV_TRANSFER_KEYS)
            .add(staged.len() as u64);
        for (target, shard, key, tag, payload) in staged {
            if let Some(host) = self.hosts.get(&target) {
                host.install_state(shard, &key, tag, payload);
            }
        }
        self.map = new_map;
        self.config = new_config;
        let reg = safereg_obs::global();
        reg.counter(names::KV_EPOCH_RECONFIGS).inc();
        reg.gauge(names::KV_EPOCH_CURRENT)
            .set(u64::from(self.config.epoch));
        for sid in leavers {
            if let Some(mut host) = self.hosts.remove(sid) {
                host.retire(Duration::from_millis(100));
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
                    keys.extend(host.keys_of_shard(g));
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
    use crate::client::KvClient;
    use safereg_common::ids::{ReaderId, WriterId};

    #[test]
    fn kv_over_tcp_roundtrip() {
        let cfg = QuorumConfig::minimal_bsr(1).unwrap();
        let cluster = TcpKvCluster::builder(KvMode::Replicated, b"kv-tcp")
            .quorum(cfg)
            .start()
            .unwrap();
        let mut transport = cluster.transport();
        let mut client = KvClient::new(cfg, WriterId(0), ReaderId(0));
        client
            .put(&mut transport, b"greeting", "hello tcp")
            .unwrap();
        assert_eq!(
            client.get(&mut transport, b"greeting").unwrap().as_bytes(),
            b"hello tcp"
        );
        assert!(client.get(&mut transport, b"missing").unwrap().is_initial());
    }

    #[test]
    fn kv_over_tcp_tolerates_f_crashes() {
        let cfg = QuorumConfig::minimal_bsr(1).unwrap();
        let mut cluster = TcpKvCluster::builder(KvMode::Replicated, b"kv-tcp2")
            .quorum(cfg)
            .start()
            .unwrap();
        let mut transport = cluster.transport();
        let mut client = KvClient::new(cfg, WriterId(0), ReaderId(0));
        client.put(&mut transport, b"k", "v1").unwrap();
        cluster.crash(ServerId(3));
        // New transport reflects the crash (the old connection would time
        // out instead; both work, the reconnect is faster in tests).
        transport.set_timeout(Duration::from_millis(500));
        client.put(&mut transport, b"k", "v2").unwrap();
        assert_eq!(client.get(&mut transport, b"k").unwrap().as_bytes(), b"v2");
    }

    #[test]
    fn metrics_key_serves_the_observability_dump() {
        let cfg = QuorumConfig::minimal_bsr(1).unwrap();
        let cluster = TcpKvCluster::builder(KvMode::Replicated, b"kv-metrics")
            .quorum(cfg)
            .start()
            .unwrap();
        let mut transport = cluster.transport();
        let mut client = KvClient::new(cfg, WriterId(3), ReaderId(3));
        client.put(&mut transport, b"watched", "payload").unwrap();
        assert_eq!(
            client.get(&mut transport, b"watched").unwrap().as_bytes(),
            b"payload"
        );

        let dump = fetch_metrics(
            &mut transport,
            ClientId::Reader(ReaderId(3)),
            ServerId(0),
            99,
        )
        .unwrap();
        // The replica counted the traffic the put/get just generated.
        assert!(dump.contains("\"metric\":\"kv.recv.query_tag\""));
        assert!(dump.contains("\"metric\":\"kv.recv.query_data\""));
        // Degradation counters are registered eagerly at host spawn, so
        // the dump exposes them even before any connection is evicted.
        assert!(dump.contains("\"metric\":\"server.evictions\""));
        // The admin read itself never touches register state.
        assert!(client
            .get(&mut transport, METRICS_KEY)
            .unwrap()
            .is_initial());
    }

    #[test]
    fn coded_kv_over_tcp() {
        let cfg = QuorumConfig::new(8, 1).unwrap(); // k = 3
        let cluster = TcpKvCluster::builder(KvMode::Coded, b"kv-tcp3")
            .quorum(cfg)
            .start()
            .unwrap();
        let mut transport = cluster.transport();
        let mut client = KvClient::new_coded(cfg, WriterId(0), ReaderId(0));
        let blob = vec![0xA1u8; 4096];
        client.put(&mut transport, b"blob", blob.clone()).unwrap();
        assert_eq!(
            client.get(&mut transport, b"blob").unwrap().as_bytes(),
            &blob[..]
        );
    }

    #[test]
    fn byzantine_replica_cannot_corrupt_the_register() {
        let cfg = QuorumConfig::minimal_bsr(1).unwrap();
        let mut cluster = TcpKvCluster::builder(KvMode::Replicated, b"kv-byz")
            .quorum(cfg)
            .start()
            .unwrap();
        let mut client = KvClient::new(cfg, WriterId(0), ReaderId(0));
        {
            let mut transport = cluster.transport();
            client.put(&mut transport, b"k", "truth").unwrap();
        }
        cluster
            .set_role(ServerId(3), ByzRole::Fabricator, 99)
            .unwrap();
        assert_eq!(cluster.roles()[&ServerId(3)], ByzRole::Fabricator);
        // With one live fabricating replica (f = 1), writes still reach a
        // quorum and reads still return a genuinely-written value: the
        // forged high tag lacks the f + 1 witnesses validation demands.
        let mut transport = cluster.transport();
        client.put(&mut transport, b"k", "still truth").unwrap();
        let (value, tag) = client.get_with_tag(&mut transport, b"k").unwrap();
        assert_eq!(value.as_bytes(), b"still truth");
        assert!(tag.num < 1_000_000, "forged tag did not win");
        // Rotation back to honest service is a restart-in-place.
        cluster.set_role(ServerId(3), ByzRole::Correct, 0).unwrap();
        assert_eq!(cluster.roles()[&ServerId(3)], ByzRole::Correct);
    }

    #[test]
    fn chaos_fronted_cluster_still_serves() {
        use safereg_transport::chaos::FaultSpec;
        let cfg = QuorumConfig::minimal_bsr(1).unwrap();
        let plan = FaultPlan::new(7, FaultSpec::calm());
        let cluster = TcpKvCluster::builder(KvMode::Replicated, b"kv-server-chaos")
            .quorum(cfg)
            .chaos(plan)
            .start()
            .unwrap();
        let mut transport = cluster.transport();
        let mut client = KvClient::new(cfg, WriterId(1), ReaderId(1));
        client
            .put(&mut transport, b"k", "through the proxy")
            .unwrap();
        assert_eq!(
            client.get(&mut transport, b"k").unwrap().as_bytes(),
            b"through the proxy"
        );
    }

    #[test]
    fn restart_respawns_on_the_old_address_and_counts() {
        let cfg = QuorumConfig::minimal_bsr(1).unwrap();
        let mut cluster = TcpKvCluster::builder(KvMode::Replicated, b"kv-restart")
            .quorum(cfg)
            .start()
            .unwrap();
        let addrs = cluster.addrs();
        let before = safereg_obs::global().counter(names::SERVER_RESTARTS).get();
        cluster.crash(ServerId(2));
        cluster.restart(ServerId(2)).unwrap();
        assert_eq!(cluster.addrs(), addrs, "restart keeps the old address");
        assert!(safereg_obs::global().counter(names::SERVER_RESTARTS).get() > before);
        let mut transport = cluster.transport();
        let mut client = KvClient::new(cfg, WriterId(2), ReaderId(2));
        client.put(&mut transport, b"k", "after restart").unwrap();
        assert_eq!(
            client.get(&mut transport, b"k").unwrap().as_bytes(),
            b"after restart"
        );
    }

    #[test]
    fn idle_kv_connections_are_evicted() {
        use std::io::Read;
        let tconfig = TransportConfig {
            idle_timeout: Duration::from_millis(250),
            ..TransportConfig::default()
        };
        let cfg = QuorumConfig::minimal_bsr(1).unwrap();
        let chain = KeyChain::from_master_seed(b"kv-idle");
        let host = KvServerHost::builder(ServerId(0), cfg, KvMode::Replicated, chain)
            .config(tconfig)
            .spawn()
            .unwrap();
        let before = safereg_obs::global()
            .counter(&names::eviction_counter("idle"))
            .get();
        let mut conn = TcpStream::connect(host.addr()).unwrap();
        conn.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        // Send nothing: the host must close the connection once the idle
        // budget elapses, observable here as EOF.
        let mut buf = [0u8; 1];
        assert_eq!(conn.read(&mut buf).unwrap(), 0, "server closed the link");
        let reg = safereg_obs::global();
        assert!(reg.counter(&names::eviction_counter("idle")).get() > before);
        assert!(reg.counter(names::SERVER_EVICTIONS).get() > 0);
    }

    #[test]
    fn tiny_outbox_serves_a_roundtrip() {
        // The bounded reply outbox must be transparent when it never
        // fills, however small it is.
        let tconfig = TransportConfig {
            chan_capacity: 2,
            ..TransportConfig::default()
        };
        let cfg = QuorumConfig::minimal_bsr(1).unwrap();
        let cluster = TcpKvCluster::builder(KvMode::Replicated, b"kv-outbox")
            .quorum(cfg)
            .config(tconfig)
            .start()
            .unwrap();
        let mut transport = cluster.transport();
        let mut client = KvClient::new(cfg, WriterId(0), ReaderId(0));
        client.put(&mut transport, b"key", "value").unwrap();
        assert_eq!(
            client.get(&mut transport, b"key").unwrap().as_bytes(),
            b"value"
        );
    }

    #[test]
    fn rolling_reconfiguration_redirects_live_clients() {
        let cfg = QuorumConfig::minimal_bsr(1).unwrap();
        let mut cluster = TcpKvCluster::builder(KvMode::Replicated, b"kv-churn")
            .quorum(cfg)
            .start()
            .unwrap();
        let mut transport = cluster.transport();
        let mut client = KvClient::new(cfg, WriterId(0), ReaderId(0));
        client.put(&mut transport, b"k", "epoch0").unwrap();
        assert_eq!(cluster.epoch(), 0);

        // Add: the stale client learns the successor config from f + 1
        // matching `WrongEpoch` votes and finishes the op against it.
        cluster.add_replica(ServerId(5)).unwrap();
        assert_eq!(cluster.epoch(), 1);
        assert_eq!(
            client.get(&mut transport, b"k").unwrap().as_bytes(),
            b"epoch0"
        );
        assert_eq!(client.epoch(), 1, "client adopted the redirect");

        // Remove: the leaver retires after a drain grace; writes keep
        // completing against the shrunk fleet.
        cluster.remove_replica(ServerId(1)).unwrap();
        assert_eq!(cluster.epoch(), 2);
        client.put(&mut transport, b"k", "epoch2").unwrap();
        assert_eq!(client.epoch(), 2);

        // Replace: one epoch bump swaps a member for a joiner.
        cluster.replace_replica(ServerId(2), ServerId(9)).unwrap();
        assert_eq!(cluster.epoch(), 3);
        assert_eq!(
            client.get(&mut transport, b"k").unwrap().as_bytes(),
            b"epoch2"
        );
        assert_eq!(client.epoch(), 3);
        let fleet = cluster.epoch_config().ids();
        assert!(fleet.contains(&ServerId(9)) && !fleet.contains(&ServerId(2)));

        // The joiner replaced a fully-placed member (m = n), so it pulled
        // the register's state before serving; every replica of a BSR
        // group stores the identical `(tag, value)` entry.
        let g = cluster.map().shard_of(b"k");
        let survivor = cluster.payload_digest(ServerId(3), g, b"k");
        assert!(survivor.is_some(), "survivor holds the register");
        assert_eq!(cluster.payload_digest(ServerId(9), g, b"k"), survivor);
    }

    #[test]
    fn coded_joiner_rebuilds_its_own_fragment() {
        let cfg = QuorumConfig::new(8, 1).unwrap(); // k = 3
        let mut cluster = TcpKvCluster::builder(KvMode::Coded, b"kv-churn-coded")
            .quorum(cfg)
            .start()
            .unwrap();
        let mut transport = cluster.transport();
        let mut client = KvClient::new_coded(cfg, WriterId(0), ReaderId(0));
        let blob = vec![0x5Au8; 3 * 1024];
        client.put(&mut transport, b"blob", blob.clone()).unwrap();
        let (value, tag) = client.get_with_tag(&mut transport, b"blob").unwrap();

        // Replacing the smallest id relabels *every* survivor's logical
        // slot (ascending-id order), so each re-derives its fragment and
        // the joiner decodes the value out of m − f old slices before
        // re-encoding its own — the PULL-before-FLIP ordering under test.
        cluster.replace_replica(ServerId(0), ServerId(9)).unwrap();
        let g = cluster.map().shard_of(b"blob");
        let code = ReedSolomon::new(cfg.n(), cfg.mds_k().unwrap()).unwrap();
        let elems = encode_value(&code, &value);
        for sid in [ServerId(9), ServerId(1)] {
            let logical = cluster.map().logical_of(g, sid).unwrap().0 as usize;
            assert_eq!(
                cluster.payload_digest(sid, g, b"blob").unwrap(),
                crate::server::entry_digest(&tag, &Payload::Coded(elems[logical].clone())),
                "{sid:?} stores exactly the fragment its new slot demands"
            );
        }
        // And the register still reads back through the new epoch.
        assert_eq!(
            client.get(&mut transport, b"blob").unwrap().as_bytes(),
            &blob[..]
        );
        assert_eq!(client.epoch(), 1);
    }

    #[test]
    fn restarted_replica_is_rehydrated_not_amnesiac() {
        for (mode, cfg) in [
            (KvMode::Replicated, QuorumConfig::minimal_bsr(1).unwrap()),
            (KvMode::Coded, QuorumConfig::new(8, 1).unwrap()), // k = 3
        ] {
            let mut cluster = TcpKvCluster::builder(mode, b"kv-amnesia")
                .quorum(cfg)
                .start()
                .unwrap();
            let mut transport = cluster.transport();
            let mut client = match mode {
                KvMode::Replicated => KvClient::new(cfg, WriterId(0), ReaderId(0)),
                KvMode::Coded => KvClient::new_coded(cfg, WriterId(0), ReaderId(0)),
            };
            client.put(&mut transport, b"k", "v1").unwrap();
            client.put(&mut transport, b"k", "v2").unwrap();
            let (value, tag) = client.get_with_tag(&mut transport, b"k").unwrap();
            let g = cluster.map().shard_of(b"k");
            // A coded replica stores only the fragment of its own slot.
            let payload = match mode {
                KvMode::Replicated => Payload::Full(value),
                KvMode::Coded => {
                    let code = ReedSolomon::new(cfg.n(), cfg.mds_k().unwrap()).unwrap();
                    let logical = cluster.map().logical_of(g, ServerId(2)).unwrap().0 as usize;
                    Payload::Coded(encode_value(&code, &value)[logical].clone())
                }
            };
            let expected = crate::server::entry_digest(&tag, &payload);

            cluster.crash(ServerId(2));
            cluster.restart(ServerId(2)).unwrap();
            // The restart pulled `(tag, payload)` back from a quorum before
            // the replica serves again: it can never vouch for the
            // pre-crash tag (or an empty register) in a read quorum — the
            // StaleRead hazard an amnesiac restart would reintroduce.
            assert_eq!(
                cluster.payload_digest(ServerId(2), g, b"k"),
                Some(expected),
                "{mode:?}"
            );
            transport.set_timeout(Duration::from_millis(500));
            assert_eq!(client.get(&mut transport, b"k").unwrap().as_bytes(), b"v2");
        }
    }
}
