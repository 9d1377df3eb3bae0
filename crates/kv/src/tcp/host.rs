//! Replica hosting: [`KvServerHost`] and the serving path its reactors
//! run.
//!
//! Hosts serve every accepted connection from a small pool of
//! readiness-driven reactors ([`crate::reactor`]). Replies leave each
//! connection through a *bounded* outbox sized by
//! [`TransportConfig::chan_capacity`](safereg_common::config::TransportConfig);
//! when a slow client lets it fill, the reactor parks the connection's
//! read side until the client drains it, so no reply is ever dropped. A
//! client that never drains is evicted under the stall budget and counted
//! in `server.evictions.stall`.
//!
//! A host owns its transport-side resources only; the register state lives
//! in the hosted [`KvServer`], which the cluster reaches through
//! [`KvServerHost::server`] to rotate roles, flip epochs, install
//! transferred state and quarantine — all live.

use std::io::ErrorKind;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use safereg_common::buf::Bytes;
use safereg_common::config::{QuorumConfig, TransportConfig};
use safereg_common::ids::{NodeId, ServerId};
use safereg_common::msg::{ClientToServer, Envelope, Message, Payload, ServerToClient};
use safereg_common::shard::ShardMap;
use safereg_common::tag::Tag;
use safereg_common::trace::Phase;
use safereg_common::value::Value;
use safereg_core::behavior::ByzRole;
use safereg_crypto::keychain::{KeyChain, KeyRing};
use safereg_obs::names;
use safereg_obs::span::{self, SpanKind};
use safereg_obs::trace::{wall_micros, MsgClass};
use safereg_transport::chaos::{ChaosProxy, FaultPlan};
use safereg_transport::frame::{KvFrame, SealedKv, TailDigest};

use super::METRICS_KEY;
use crate::reactor::ReactorPool;
use crate::server::{KvMode, KvServer};

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
/// outbox push), under the calling reactor's `ring`. A reply with no kept
/// tail digest (a Byzantine fabrication, a transferred entry, the metrics
/// dump) hashes its tail once, for its attestation and its seal alike.
///
/// Malformed, forged, misaddressed or short frames are dropped without
/// closing the connection — Byzantine input is reachable silence, not a
/// transport fault.
pub(crate) fn process_sealed_frame(
    server: &KvServer,
    ring: &mut KeyRing,
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
    let Ok(tail) = frame.verify(ring.link(frame.env.src, frame.env.dst), sealed) else {
        return; // forged or corrupted: drop, not fatal
    };
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
    let mut seal_reply = |link, resp, mut tail| {
        let reply = KvFrame {
            shard: frame.shard,
            trace: frame.trace.hopped(Phase::Reply),
            stamp: frame.stamp,
            link,
            key: frame.key.clone(),
            env: Envelope::to_client(me, from, resp),
        };
        SealedKv::seal_with(ring.link(reply.env.src, reply.env.dst), &reply, &mut tail)
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
            queue_reply(seal_reply(None, resp, None));
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
        queue_reply(seal_reply(None, resp, None));
        return;
    }
    // Per-shard dispatch: only the addressed register group's lock is
    // taken, so connections serving different shards run in parallel.
    let responses = server.handle_traced(from, frame.shard, &frame.key, msg, strace, Some(tail));
    safereg_obs::global()
        .counter(&names::shard_served_counter(frame.shard.0))
        .inc();
    for (resp, kept) in responses {
        let tail = kept.or_else(|| match &resp {
            ServerToClient::DataResp { payload, .. } => {
                Some(TailDigest::of(payload.body().clone()))
            }
            _ => None,
        });
        // Attest after dispatch: Byzantine roles' answers flow through the
        // same reply path, so their lies are chain-signed too — the
        // attestation is what later convicts them.
        let link = server.attest_tail(&frame.key, &resp, tail.as_ref());
        let sealed_reply = seal_reply(link, resp, tail);
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

/// A KV replica served over TCP.
pub struct KvServerHost {
    /// Advertised address: the chaos proxy when one fronts the listener,
    /// the listener itself otherwise.
    addr: SocketAddr,
    /// The real listener address (used to unblock the accept loop on stop).
    listen_addr: SocketAddr,
    /// The hosted replica, shared with every reactor; kept here so the
    /// cluster can rotate roles, flip epochs and install state live.
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
    /// Transport policy: outbox capacity, idle/stall budgets.
    tconfig: TransportConfig,
    /// The role every hosted register group plays ([`ByzRole::Correct`]
    /// by default), and the seed for its fault stream.
    role: ByzRole,
    byz_seed: u64,
    /// When set, the advertised address is a seeded [`ChaosProxy`] in front
    /// of the real listener, injecting this plan on the accept side.
    chaos: Option<FaultPlan>,
    /// Shard placement; `None` hosts the single pre-sharding group over
    /// the whole fleet.
    shards: Option<ShardMap>,
    /// Reactor pool size; `0` sizes the pool to the number of shards this
    /// replica hosts, at most one reactor per core.
    reactors: usize,
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
        self.tconfig = tconfig;
        self
    }

    /// The (possibly Byzantine) role every hosted register group plays,
    /// with the seed for its fault stream.
    pub fn role(mut self, role: ByzRole, byz_seed: u64) -> Self {
        self.role = role;
        self.byz_seed = byz_seed;
        self
    }

    /// Fronts the listener with a seeded [`ChaosProxy`] injecting `plan`
    /// on every accepted connection.
    pub fn chaos(mut self, plan: FaultPlan) -> Self {
        self.chaos = Some(plan);
        self
    }

    /// Shard placement: the replica hosts one register group per shard of
    /// `map` placed on it.
    pub fn shards(mut self, map: ShardMap) -> Self {
        self.shards = Some(map);
        self
    }

    /// Reactor pool size (`0` = one reactor per hosted shard, at most one
    /// per core).
    pub fn reactors(mut self, reactors: usize) -> Self {
        self.reactors = reactors;
        self
    }

    /// Spawns the host. With chaos, the real listener binds ephemerally
    /// and a seeded [`ChaosProxy`] binds the requested address in front of
    /// it — the advertised [`addr`](KvServerHost::addr) is the proxy, so
    /// every accepted connection runs through the fault plan. The accept
    /// loop hands connections off to a readiness-driven reactor pool.
    ///
    /// # Errors
    ///
    /// Propagates bind errors from the listener or the proxy, and poller
    /// creation errors from the reactor pool — on targets without unix
    /// readiness APIs that is always [`ErrorKind::Unsupported`].
    pub fn spawn(self) -> std::io::Result<KvServerHost> {
        let (id, chain, tconfig, bind) = (self.id, self.chain, self.tconfig, self.bind?);
        let listener = match self.chaos {
            // The proxy owns the requested address; the listener hides on
            // an ephemeral port behind it.
            Some(_) => TcpListener::bind(("127.0.0.1", 0))?,
            None => TcpListener::bind(bind)?,
        };
        let listen_addr = listener.local_addr()?;
        let chaos = match self.chaos {
            Some(plan) => Some(ChaosProxy::spawn_on(id, listen_addr, plan, bind)?),
            None => None,
        };
        let addr = chaos.as_ref().map_or(listen_addr, ChaosProxy::addr);
        let stop = Arc::new(AtomicBool::new(false));
        let map = self.shards.unwrap_or_else(|| ShardMap::single(self.cfg));
        let server = Arc::new(KvServer::sharded_with_role(
            id,
            map.clone(),
            self.mode,
            self.role,
            self.byz_seed,
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

        let reactors = if self.reactors > 0 {
            self.reactors
        } else {
            let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
            server.shards().len().clamp(1, cores)
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
            server,
            stop,
            accept_thread: Some(accept_thread),
            pool,
            chaos,
        })
    }
}

impl std::fmt::Debug for KvServerHost {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KvServerHost")
            .field("addr", &self.addr)
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
            tconfig: TransportConfig::default(),
            role: ByzRole::Correct,
            byz_seed: 0,
            chaos: None,
            shards: None,
            reactors: 0,
        }
    }

    /// The advertised address (the chaos proxy's, when one is configured).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The hosted replica. Role rotation, epoch flips, state transfer and
    /// quarantine act on it directly, live: connections keep flowing.
    pub(crate) fn server(&self) -> &KvServer {
        &self.server
    }

    /// Reactor pool size and whether a chaos proxy fronts the listener:
    /// the spawn policy a cluster must carry across respawns and joins.
    #[cfg(test)]
    pub(crate) fn policy(&self) -> (usize, bool) {
        (self.pool.len(), self.chaos.is_some())
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

#[cfg(test)]
mod tests {
    use safereg_common::config::QuorumConfig;
    use safereg_common::ids::{ClientId, ReaderId, WriterId};
    use safereg_common::msg::{CodedElement, OpId};
    use safereg_common::shard::ShardId;
    use safereg_common::trace::TraceCtx;
    use safereg_mds::rs::ReedSolomon;
    use safereg_mds::stripe::encode_value;

    use super::*;
    use crate::server::entry_digest;
    use crate::tcp::encode_request;

    /// Serves one client request through the frame path and returns the
    /// single reply, opened.
    fn exchange(
        server: &KvServer,
        ring: &mut KeyRing,
        chain: &KeyChain,
        from: ClientId,
        msg: &ClientToServer,
    ) -> KvFrame {
        let wire = encode_request(
            chain,
            server.config().stamp(),
            from,
            server.id(),
            ShardId(0),
            b"k",
            msg,
        );
        let mut replies = Vec::new();
        let sealed = Bytes::from(wire).slice(4..);
        process_sealed_frame(server, ring, server.id(), &sealed, &mut |r| {
            replies.push(r);
        });
        assert_eq!(replies.len(), 1, "{msg:?}");
        let reply = Bytes::from(replies[0].to_wire_bytes()).slice(4..);
        KvFrame::open(chain, &reply).expect("an authentic reply")
    }

    /// A `DataResp` sealed and attested over the digest the replica kept
    /// when it opened the `PutData` opens to the same value and carries
    /// the same value digest as one whose tail is hashed afresh, for full
    /// and coded entries; an entry installed by state transfer has no
    /// kept digest and is hashed at seal.
    #[test]
    fn a_reply_from_a_kept_digest_matches_one_from_hashing() {
        let chain = KeyChain::from_master_seed(b"kept-digest");
        let cfg = QuorumConfig::new(8, 1).unwrap(); // k = 3
        let code = ReedSolomon::new(8, 3).unwrap();
        let value = Value::from(vec![0x3Cu8; 9_000]);
        let element: CodedElement = encode_value(&code, &value).swap_remove(0);
        let (writer, reader) = (WriterId(0), ClientId::Reader(ReaderId(0)));
        for (mode, payload) in [
            (KvMode::Replicated, Payload::Full(value.clone())),
            (KvMode::Coded, Payload::Coded(element)),
        ] {
            let server = KvServer::sharded(ServerId(0), ShardMap::single(cfg), mode);
            server.enable_audit(&chain);
            let mut ring = KeyRing::new(&chain);
            let query = ClientToServer::QueryData {
                op: OpId::new(ReaderId(0), 1),
            };
            for installed in [false, true] {
                let tag = Tag::new(1 + u64::from(installed), writer);
                if installed {
                    server.install_state(ShardId(0), b"k", tag, payload.clone());
                } else {
                    let put = ClientToServer::PutData {
                        op: OpId::new(writer, 1),
                        tag,
                        payload: payload.clone(),
                    };
                    exchange(&server, &mut ring, &chain, ClientId::Writer(writer), &put);
                }
                // Only a put that arrived in a frame left a digest behind.
                let served =
                    server.handle_traced(reader, ShardId(0), b"k", &query, TraceCtx::NONE, None);
                assert_eq!(served[0].1.is_some(), !installed, "{mode:?}");

                let reply = exchange(&server, &mut ring, &chain, reader, &query);
                let Message::ToClient(ServerToClient::DataResp { payload: got, .. }) =
                    &reply.env.msg
                else {
                    panic!("{mode:?}: {reply:?}");
                };
                assert_eq!(got, &payload, "{mode:?} installed={installed}");
                let hashed = server.attest(b"k", &served[0].0).unwrap();
                let link = reply.link.expect("a DataResp is attested");
                assert_eq!(link.value_digest, hashed.value_digest);
                assert_eq!(link.value_digest, entry_digest(&tag, &payload));
            }
        }
    }
}
