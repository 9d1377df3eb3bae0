//! Chaos torture: the KV store over real TCP behind seeded fault-injection
//! proxies — mild and severe frame loss, replicas severed, blackholed,
//! killed and restarted (`≤ f` at a time), faults aimed at one message
//! class. Every completed operation must still satisfy the checker's
//! per-key safety predicates, and the metrics must show the transport
//! actually healed (reconnects, breaker flips, backoff waits) rather than
//! the run getting lucky.

use std::time::{Duration, Instant};

use safereg::checker::CheckSummary;
use safereg::common::config::{QuorumConfig, TransportConfig};
use safereg::common::history::History;
use safereg::common::ids::{ClientId, ReaderId, ServerId, WriterId};
use safereg::common::msg::OpId;
use safereg::common::value::Value;
use safereg::kv::{KvClient, KvMode, TcpKvCluster, TcpKvTransport};
use safereg::obs::names;
use safereg::obs::trace::{wall_micros, MsgClass};
use safereg::transport::chaos::{ChaosNet, FaultPlan, FaultSpec};

/// An aggressive-but-sane policy for the torture run: fast reconnects and
/// several retry passes, so a killed replica costs milliseconds.
fn torture_policy() -> TransportConfig {
    let mut config = TransportConfig::aggressive();
    config.io_timeout = Duration::from_millis(800);
    config.retry_budget = 6;
    config
}

/// One torture input: who runs it, against what adversary, for how long.
struct Torture<'a> {
    /// Master seed of the deployment; also labels panics.
    name: &'a str,
    /// Writer/reader id of the single sequential client.
    who: u16,
    plan: FaultPlan,
    /// Host-side transport policy (outbox capacity, eviction budgets).
    host: TransportConfig,
    /// Client-side transport and retry policy.
    client: TransportConfig,
    rounds: usize,
    keys: &'a [&'a [u8]],
    /// Whole-operation attempts before the run gives up on an op.
    attempts: usize,
}

/// Runs `t`: every round puts then gets every key through chaos proxies,
/// after `inject(round, ..)` has applied that round's targeted faults, and
/// checks each key's history (each key is its own register). Returns the
/// still-live deployment for follow-up assertions.
fn torture(
    t: &Torture<'_>,
    mut inject: impl FnMut(usize, &mut TcpKvCluster, &ChaosNet),
) -> (TcpKvCluster, ChaosNet, TcpKvTransport) {
    let cfg = QuorumConfig::minimal_bsr(1).unwrap();
    let mut cluster = TcpKvCluster::builder(KvMode::Replicated, t.name.as_bytes())
        .quorum(cfg)
        .config(t.host)
        .start()
        .unwrap();
    let net = ChaosNet::wrap(&cluster.addrs(), &t.plan).unwrap();
    let mut transport =
        TcpKvTransport::connect_with(&net.addrs(), cluster.chain().clone(), t.client);
    let mut client = KvClient::new(cfg, WriterId(t.who), ReaderId(t.who));
    client.set_policy(t.client);

    let mut histories: Vec<History> = t.keys.iter().map(|_| History::new()).collect();
    for i in 0..t.rounds {
        inject(i, &mut cluster, &net);
        for (k, key) in t.keys.iter().enumerate() {
            let seq = (i * t.keys.len() + k) as u64 + 1;
            let value = Value::from(
                format!("{}-{}-gen{i}", t.name, String::from_utf8_lossy(key)).into_bytes(),
            );
            let op = OpId::new(ClientId::Writer(WriterId(t.who)), seq);
            let h = histories[k].begin_write(op, value.clone(), wall_micros());
            let tag = (0..t.attempts)
                .find_map(|_| client.put(&mut transport, key, value.clone()).ok())
                .unwrap_or_else(|| panic!("[{}] put {key:?} round {i} never completed", t.name));
            histories[k].complete_write(h, tag, wall_micros());

            let op = OpId::new(ClientId::Reader(ReaderId(t.who)), seq);
            let h = histories[k].begin_read(op, wall_micros());
            let (got, tag) = (0..t.attempts)
                .find_map(|_| client.get_with_tag(&mut transport, key).ok())
                .unwrap_or_else(|| panic!("[{}] get {key:?} round {i} never completed", t.name));
            histories[k].complete_read(h, got, tag, wall_micros());
        }
    }

    for (k, history) in histories.iter().enumerate() {
        let summary = CheckSummary::check_all(history);
        assert!(
            summary.is_safe(),
            "[{}] key {k}: chaos run violated register safety: {:?}",
            t.name,
            summary.safety
        );
        assert!(
            summary.order.is_empty(),
            "[{}] key {k}: write order violated: {:?}",
            t.name,
            summary.order
        );
    }
    (cluster, net, transport)
}

/// Severs s4's connections in `sever_round`, then kills and restarts the
/// replica process itself in `restart_round` (state lost and pulled back —
/// the crash-recover server the register model tolerates for `≤ f`
/// replicas); its proxy reconnects to the new listener on the same
/// address.
fn sever_then_restart(
    sever_round: usize,
    restart_round: usize,
) -> impl FnMut(usize, &mut TcpKvCluster, &ChaosNet) {
    move |round, cluster, net| {
        if round == sever_round {
            net.sever(ServerId(4));
        } else if round == restart_round {
            cluster.crash(ServerId(4));
            cluster.restart(ServerId(4)).unwrap();
        }
    }
}

#[test]
fn kv_ops_survive_chaos_with_server_kill_and_restart() {
    let reg = safereg::obs::global();
    let reconnects_before = reg.counter(names::KV_RECONNECTS).get();
    torture(
        &Torture {
            name: "kv-chaos",
            who: 0,
            plan: FaultPlan::new(0x7041_7041, FaultSpec::mild()),
            host: TransportConfig::default(),
            client: torture_policy(),
            rounds: 8,
            keys: &[b"alpha", b"beta", b"gamma"],
            attempts: 1,
        },
        sever_then_restart(2, 4),
    );
    assert!(
        reg.counter(names::KV_RECONNECTS).get() > reconnects_before,
        "the kill/restart must have forced kv reconnects"
    );
}

/// The retry path under an actively hostile link: with the severe fault
/// spec (heavy loss, frequent kills) first-pass exchanges fail constantly;
/// only backed-off retry passes over the failed servers let operations
/// complete. Every op must still finish safely and the backoff histogram
/// must move.
#[test]
fn retry_passes_mask_heavy_frame_loss() {
    let reg = safereg::obs::global();
    let waits_before = reg.histogram(names::KV_BACKOFF_WAIT_MS).count();
    let unreachable_before = reg.counter(names::KV_EXCHANGE_UNREACHABLE).get();
    let mut client = TransportConfig::aggressive();
    client.retry_budget = 8;
    torture(
        &Torture {
            name: "kv-lossy",
            who: 3,
            plan: FaultPlan::new(11, FaultSpec::severe()),
            host: TransportConfig::default(),
            client,
            rounds: 4,
            keys: &[b"lossy"],
            attempts: 5,
        },
        |_, _, _| {},
    );
    assert!(
        reg.counter(names::KV_EXCHANGE_UNREACHABLE).get() > unreachable_before,
        "severe loss must have failed at least one exchange"
    );
    assert!(
        reg.histogram(names::KV_BACKOFF_WAIT_MS).count() > waits_before,
        "failed exchanges must have been backed off and retried"
    );
}

/// A deliberately tiny bounded outbox must preserve per-key register
/// safety under chaos torture: replies leave each replica through a
/// 4-deep outbox whose backpressure gates the read side, the adversary
/// severs and kill/restarts one replica (`<= f`), and the checker's
/// predicates must still hold for every key. The metrics dump fetched from
/// a live replica must expose the `server.evictions` counter (registered
/// eagerly, so visible even at zero).
#[test]
fn small_outbox_survives_chaos_torture() {
    use safereg::kv::fetch_metrics;

    let (_cluster, _net, mut transport) = torture(
        &Torture {
            name: "kv-outbox",
            who: 0,
            plan: FaultPlan::new(0x5EED_0000, FaultSpec::mild()),
            host: TransportConfig {
                // Small enough that the gate engages under chaos, large
                // enough that the strict request/response exchange never
                // deadlocks.
                chan_capacity: 4,
                ..torture_policy()
            },
            client: torture_policy(),
            rounds: 4,
            keys: &[b"alpha", b"beta"],
            attempts: 1,
        },
        sever_then_restart(1, 2),
    );

    // The dump from an untouched replica must carry the eagerly
    // registered degradation counters. The fetch is a single unretried
    // exchange and this link still runs mild chaos, so re-ask with fresh
    // sequence numbers until a reply survives; the sleep lets an open
    // circuit breaker finish its cooldown.
    let dump = (0..8)
        .find_map(|attempt| {
            if attempt > 0 {
                std::thread::sleep(Duration::from_millis(300));
            }
            fetch_metrics(
                &mut transport,
                ClientId::Reader(ReaderId(0)),
                ServerId(0),
                9_000 + attempt,
            )
        })
        .expect("metrics dump unavailable");
    assert!(
        dump.contains("\"metric\":\"server.evictions\""),
        "dump is missing server.evictions"
    );
}

/// Drives one `put` + `get` per call until `done(transport)` holds; every
/// operation must succeed (at most `f` replicas are ever down).
fn drive_until(
    what: &str,
    client: &mut KvClient,
    transport: &mut TcpKvTransport,
    done: impl Fn(&TcpKvTransport) -> bool,
) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !done(transport) {
        assert!(Instant::now() < deadline, "{what}");
        client.put(transport, b"k", what).unwrap();
        assert_eq!(
            client.get(transport, b"k").unwrap().as_bytes(),
            what.as_bytes()
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Calm proxies, targeted faults: a replica's sessions are severed, then
/// the replica is blackholed and restored. The transport must reconnect,
/// its breaker must trip Open and close again, and no operation may be
/// lost — on the reactor-served hosts every deployment runs.
#[test]
fn kv_ops_survive_sever_and_blackhole() {
    let reg = safereg::obs::global();
    let cfg = QuorumConfig::minimal_bsr(1).unwrap();
    let cluster = TcpKvCluster::builder(KvMode::Replicated, b"kv-blackhole")
        .quorum(cfg)
        .start()
        .unwrap();
    // Calm spec: the only faults are the targeted sever/blackhole below,
    // so every op outcome is fully predictable.
    let net = ChaosNet::wrap(&cluster.addrs(), &FaultPlan::new(7, FaultSpec::calm())).unwrap();
    let config = TransportConfig::aggressive();
    let mut transport = TcpKvTransport::connect_with(&net.addrs(), cluster.chain().clone(), config);
    let mut client = KvClient::new(cfg, WriterId(3), ReaderId(3));
    client.set_policy(config);
    client.put(&mut transport, b"k", "before faults").unwrap();

    // s4 is the first replica every phase asks. Kill its live sessions:
    // the quorum carries on without it and a later exchange reconnects.
    let victim = ServerId(4);
    let reconnects_before = reg.counter(names::KV_RECONNECTS).get();
    net.sever(victim);
    drive_until(
        "severed link was never re-established",
        &mut client,
        &mut transport,
        |_| reg.counter(names::KV_RECONNECTS).get() > reconnects_before,
    );

    // Blackhole it (<= f): sessions die before delivering a frame, so its
    // breaker must trip Open while ops keep completing on the other four.
    let transitions_before = reg.counter(names::KV_BREAKER_TRANSITIONS).get();
    net.set_blackhole(victim, true);
    drive_until(
        "breaker never opened for the blackholed server",
        &mut client,
        &mut transport,
        |t| t.link_state(victim) == Some(2),
    );
    assert!(reg.counter(names::KV_BREAKER_TRANSITIONS).get() > transitions_before);

    // Restore it: the breaker may only close once a real frame is
    // delivered, which needs traffic — keep operating until it heals.
    net.set_blackhole(victim, false);
    drive_until(
        "breaker never closed after the blackhole lifted",
        &mut client,
        &mut transport,
        |t| t.link_state(victim) == Some(0),
    );

    assert!(
        reg.gauge(names::REACTOR_THREADS).get() > 0,
        "reactor threads must be live while the cluster serves"
    );
    assert!(
        reg.counter(names::REACTOR_HANDOFFS).get() > 0,
        "accepted connections must have been handed to reactors"
    );
}

/// `FaultSpec::classes` must bite on the deployed frame: a plan that drops
/// every `PutData` in front of each replica starves puts of their second
/// phase while gets — and the put's own tag query — pass untouched.
#[test]
fn class_targeted_plan_faults_puts_and_spares_gets() {
    let reg = safereg::obs::global();
    let cfg = QuorumConfig::minimal_bsr(1).unwrap();
    let spec = FaultSpec {
        drop_permille: 1000,
        classes: Some(vec![MsgClass::PutData]),
        ..FaultSpec::calm()
    };
    let cluster = TcpKvCluster::builder(KvMode::Replicated, b"kv-class-chaos")
        .quorum(cfg)
        .chaos(FaultPlan::new(5, spec))
        .start()
        .unwrap();
    let policy = TransportConfig {
        io_timeout: Duration::from_millis(150),
        retry_budget: 0,
        ..TransportConfig::aggressive()
    };
    let mut client = KvClient::new(cfg, WriterId(0), ReaderId(0));
    client.set_policy(policy);

    let dropped = || {
        reg.counter(&format!("{}.dropped", names::CHAOS_FAULT_PREFIX))
            .get()
    };
    let dropped_before = dropped();
    let mut writes = cluster.transport_with(policy);
    let err = client.put(&mut writes, b"k", "never lands").unwrap_err();
    // The tag query got its quorum; the write phase reached nobody.
    let safereg::kv::KvError::QuorumUnavailable { unreachable, .. } = err;
    assert_eq!(unreachable, cfg.n(), "every PutData must have been dropped");
    assert!(dropped() - dropped_before >= cfg.response_quorum() as u64);

    // Gets cross the same proxies on a transport of their own: not one
    // frame may be lost, so no link ever fails and nothing was written.
    let mut reads = cluster.transport_with(policy);
    for _ in 0..10 {
        assert!(client.get(&mut reads, b"k").unwrap().is_initial());
    }
    assert_eq!(reads.live_sockets(), cfg.n());
    assert!(cfg.servers().all(|s| reads.link_state(s) == Some(0)));
}

/// Unreachable vs. silent: a crashed replica reports `Unreachable` (and is
/// retried), while the quorum error distinguishes network faults from
/// Byzantine silence.
#[test]
fn quorum_error_reports_unreachable_servers() {
    let cfg = QuorumConfig::minimal_bsr(1).unwrap();
    let mut cluster = TcpKvCluster::builder(KvMode::Replicated, b"kv-unreach")
        .quorum(cfg)
        .start()
        .unwrap();
    let mut transport = cluster.transport_with(torture_policy());
    let mut client = KvClient::new(cfg, WriterId(1), ReaderId(1));
    // Keep the test fast: one extra pass is enough to prove retry wiring.
    let mut policy = torture_policy();
    policy.retry_budget = 1;
    client.set_policy(policy);

    client.put(&mut transport, b"k", "v1").unwrap();

    // 2 > f crashes: the op must fail, and the error must say how many
    // servers were network-unreachable (not silently count them as
    // Byzantine).
    cluster.crash(ServerId(0));
    cluster.crash(ServerId(1));
    let err = client.put(&mut transport, b"k", "v2").unwrap_err();
    match err {
        safereg::kv::KvError::QuorumUnavailable {
            responded,
            needed,
            unreachable,
        } => {
            assert_eq!(needed, 4);
            assert!(responded < needed);
            assert!(
                unreachable >= 2,
                "both crashed replicas must be classified unreachable, got {unreachable}"
            );
        }
    }
}
