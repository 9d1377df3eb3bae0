//! Cross-crate integration tests: each protocol end-to-end on the
//! simulator, over TCP, and through the KV layer, with the checkers as
//! the oracle.

use safereg::checker::rounds::read_round_profile;
use safereg::checker::CheckSummary;
use safereg::common::config::QuorumConfig;
use safereg::common::history::OpKind;
use safereg::common::ids::{ReaderId, ServerId, WriterId};
use safereg::common::value::Value;
use safereg::simnet::delay::UniformDelay;
use safereg::simnet::driver::{Action, Plan, StartRule};
use safereg::simnet::sim::Sim;
use safereg::simnet::workload::{ByzKind, Protocol, WorkloadSpec};

const ALL_PROTOCOLS: [Protocol; 5] = [
    Protocol::Bsr,
    Protocol::BsrH,
    Protocol::Bsr2p,
    Protocol::Bcsr,
    Protocol::RbBaseline,
];

fn read_heavy_run(protocol: Protocol, byz: Option<(usize, ByzKind)>, seed: u64) -> CheckSummary {
    let spec = WorkloadSpec {
        protocol,
        f: 1,
        extra_servers: 0,
        writers: 2,
        readers: 3,
        writer_ops: 4,
        reader_ops: 6,
        value_size: 48,
        think: 25,
        byzantine: byz,
        seed,
    };
    let mut sim = spec.build();
    let report = sim.run();
    assert_eq!(
        report.incomplete_ops,
        0,
        "{}: every op completes in a fault-free/within-f run",
        protocol.name()
    );
    CheckSummary::check_all(sim.history())
}

#[test]
fn every_protocol_is_safe_without_faults() {
    for protocol in ALL_PROTOCOLS {
        let summary = read_heavy_run(protocol, None, 11);
        assert!(
            summary.is_safe(),
            "{}: {:?}",
            protocol.name(),
            summary.safety
        );
        assert!(summary.liveness.is_empty());
        assert!(summary.order.is_empty());
    }
}

#[test]
fn every_protocol_is_safe_with_each_byzantine_kind() {
    for protocol in ALL_PROTOCOLS {
        for kind in [
            ByzKind::Silent,
            ByzKind::Stale,
            ByzKind::Fabricator,
            ByzKind::Equivocator,
            ByzKind::AckForger,
        ] {
            for seed in [1u64, 2, 3] {
                let summary = read_heavy_run(protocol, Some((1, kind)), seed);
                assert!(
                    summary.is_safe(),
                    "{} under {kind:?} seed {seed}: {:?}",
                    protocol.name(),
                    summary.safety
                );
            }
        }
    }
}

#[test]
fn regular_variants_are_also_fresh_under_faults() {
    // BSR only promises safety; BSR-H, BSR-2P and the RB baseline promise
    // the regularity-grade freshness too.
    for protocol in [Protocol::BsrH, Protocol::Bsr2p, Protocol::RbBaseline] {
        for kind in [ByzKind::Silent, ByzKind::Stale, ByzKind::AckForger] {
            for seed in [5u64, 6] {
                let summary = read_heavy_run(protocol, Some((1, kind)), seed);
                assert!(
                    summary.is_fresh(),
                    "{} under {kind:?} seed {seed}: {:?}",
                    protocol.name(),
                    summary.freshness
                );
            }
        }
    }
}

#[test]
fn one_shot_protocols_use_exactly_one_read_round() {
    for protocol in [Protocol::Bsr, Protocol::BsrH, Protocol::Bcsr] {
        let spec = WorkloadSpec {
            protocol,
            f: 1,
            extra_servers: 0,
            writers: 1,
            readers: 3,
            writer_ops: 3,
            reader_ops: 5,
            value_size: 32,
            think: 20,
            byzantine: Some((1, ByzKind::Silent)),
            seed: 77,
        };
        let mut sim = spec.build();
        sim.run();
        let profile = read_round_profile(sim.history());
        assert!(profile.all_one_shot(), "{}: {:?}", protocol.name(), profile);
    }
}

#[test]
fn reader_cache_makes_bsr_reads_monotone_per_reader() {
    // A single reader's successive reads never regress in tag, even under
    // a stale-replying Byzantine server.
    let spec = WorkloadSpec {
        protocol: Protocol::Bsr,
        f: 1,
        extra_servers: 0,
        writers: 1,
        readers: 1,
        writer_ops: 6,
        reader_ops: 12,
        value_size: 16,
        think: 15,
        byzantine: Some((1, ByzKind::Stale)),
        seed: 3,
    };
    let mut sim = spec.build();
    sim.run();
    let mut last = None;
    for read in sim.history().completed_reads() {
        if let OpKind::Read {
            returned_tag: Some(t),
            ..
        } = &read.kind
        {
            if let Some(prev) = last {
                assert!(*t >= prev, "reader regressed from {prev} to {t}");
            }
            last = Some(*t);
        }
    }
    assert!(last.is_some());
}

#[test]
fn mixed_protocol_deployment_over_tcp_and_sim_agree() {
    // The same write/read pair through the simulator and through TCP must
    // produce the same value and tag (the state machines are identical).
    let cfg = QuorumConfig::minimal_bsr(1).unwrap();

    // Simulator run.
    let mut sim = Sim::new(cfg, 5, Box::new(UniformDelay { lo: 1, hi: 20 }));
    for sid in cfg.servers() {
        sim.add_server(Protocol::Bsr.correct_server(sid, cfg));
    }
    sim.add_client(
        Protocol::Bsr.writer(WriterId(0), cfg),
        vec![Plan::write_at(0, "agree")],
    );
    sim.add_client(
        Protocol::Bsr.reader(ReaderId(0), cfg),
        vec![Plan::read_at(500)],
    );
    sim.run();
    let sim_read = sim
        .history()
        .completed_reads()
        .next()
        .map(|r| match &r.kind {
            OpKind::Read {
                returned: Some(v),
                returned_tag: Some(t),
            } => (v.clone(), *t),
            _ => panic!("read incomplete"),
        })
        .unwrap();

    // TCP run: the same register is one key of the deployed KV stack.
    use safereg::kv::{KvClient, KvMode, TcpKvCluster};
    let cluster = TcpKvCluster::builder(KvMode::Replicated, b"e2e")
        .quorum(cfg)
        .start()
        .unwrap();
    let mut transport = cluster.transport();
    let mut client = KvClient::new(cfg, WriterId(0), ReaderId(0));
    client.put(&mut transport, b"register", "agree").unwrap();
    let tcp_read = client.get_with_tag(&mut transport, b"register").unwrap();

    assert_eq!(tcp_read, sim_read);
}

#[test]
fn concurrent_writers_and_readers_over_tcp() {
    // Three writers and three readers hammer one key of a loopback
    // cluster from separate threads, each over its own transport;
    // afterwards the register must hold the highest-tagged write and a
    // late reader must see it.
    use safereg::common::tag::Tag;
    use safereg::kv::{KvClient, KvMode, TcpKvCluster};
    const KEY: &[u8] = b"contended";
    let cfg = QuorumConfig::minimal_bsr(1).unwrap();
    let cluster = TcpKvCluster::builder(KvMode::Replicated, b"concurrency")
        .quorum(cfg)
        .start()
        .unwrap();

    let max_tag = std::thread::scope(|scope| {
        let writers: Vec<_> = (0..3u16)
            .map(|w| {
                let mut transport = cluster.transport();
                scope.spawn(move || {
                    let mut client = KvClient::new(cfg, WriterId(w), ReaderId(100 + w));
                    let mut last = Tag::ZERO;
                    for i in 0..5 {
                        let value = format!("w{w}-i{i}").into_bytes();
                        let tag = client.put(&mut transport, KEY, value).unwrap();
                        assert!(tag > last, "writer {w}: tags must grow");
                        last = tag;
                    }
                    last
                })
            })
            .collect();
        for r in 0..3u16 {
            let mut transport = cluster.transport();
            scope.spawn(move || {
                let mut client = KvClient::new(cfg, WriterId(100 + r), ReaderId(r));
                let mut last = Tag::ZERO;
                for _ in 0..5 {
                    let (_, tag) = client.get_with_tag(&mut transport, KEY).unwrap();
                    // Per-reader monotonicity via the local pair.
                    assert!(tag >= last, "reader {r}: regressed");
                    last = tag;
                }
            });
        }
        writers
            .into_iter()
            .map(|w| w.join().expect("writer thread"))
            .max()
            .unwrap()
    });

    // Quiescent read: everyone now sees the globally most recent write.
    let mut transport = cluster.transport();
    let mut late = KvClient::new(cfg, WriterId(9), ReaderId(9));
    let (_, tag) = late.get_with_tag(&mut transport, KEY).unwrap();
    assert_eq!(
        tag, max_tag,
        "final read returns the newest committed write"
    );
}

#[test]
fn a_client_outlives_crash_and_restart_of_f_nodes() {
    // One long-lived client and transport across a replica crashing and
    // coming back: no reconnect ceremony, no lost write.
    use safereg::kv::{KvClient, KvMode, TcpKvCluster};
    let cfg = QuorumConfig::minimal_bsr(1).unwrap();
    let mut cluster = TcpKvCluster::builder(KvMode::Replicated, b"restart")
        .quorum(cfg)
        .start()
        .unwrap();
    let mut transport = cluster.transport();
    transport.set_timeout(std::time::Duration::from_millis(500));
    let mut client = KvClient::new(cfg, WriterId(0), ReaderId(0));
    client.put(&mut transport, b"k", "one").unwrap();

    // s4 is the first replica every phase asks, so its death is felt.
    cluster.crash(ServerId(4));
    client.put(&mut transport, b"k", "two").unwrap();
    let mut fresh = cluster.transport();
    let mut reader = KvClient::new(cfg, WriterId(1), ReaderId(1));
    assert_eq!(reader.get(&mut fresh, b"k").unwrap().as_bytes(), b"two");

    cluster.restart(ServerId(4)).unwrap();
    client.put(&mut transport, b"k", "three").unwrap();
    assert_eq!(
        client.get(&mut transport, b"k").unwrap().as_bytes(),
        b"three"
    );
}

#[test]
fn kv_store_read_your_writes_sequentially() {
    use safereg::kv::{InMemKvCluster, KvClient};
    let cfg = QuorumConfig::minimal_bsr(1).unwrap();
    let mut cluster = InMemKvCluster::new(cfg);
    let mut client = KvClient::new(cfg, WriterId(0), ReaderId(0));
    for i in 0..20 {
        let key = format!("key-{}", i % 4);
        let val = format!("val-{i}");
        client
            .put(&mut cluster, key.as_bytes(), val.as_str())
            .unwrap();
        let got = client.get(&mut cluster, key.as_bytes()).unwrap();
        assert_eq!(got.as_bytes(), val.as_bytes(), "sequential read-your-write");
    }
}

#[test]
fn bcsr_large_values_roundtrip_under_faults() {
    let cfg = QuorumConfig::new(8, 1).unwrap(); // k = 3: real coding
    let mut sim = Sim::new(cfg, 13, Box::new(UniformDelay { lo: 1, hi: 30 }));
    for sid in cfg.servers() {
        if sid == ServerId(7) {
            sim.add_server(Box::new(safereg::simnet::behavior::Silent::new(sid)));
        } else {
            sim.add_server(Protocol::Bcsr.correct_server(sid, cfg));
        }
    }
    let big = vec![0xCDu8; 100 * 1024];
    sim.add_client(
        Protocol::Bcsr.writer(WriterId(0), cfg),
        vec![Plan {
            start: StartRule::At(0),
            action: Action::Write(Value::from(big.clone())),
        }],
    );
    sim.add_client(
        Protocol::Bcsr.reader(ReaderId(0), cfg),
        vec![Plan::read_at(5_000)],
    );
    let report = sim.run();
    assert_eq!(report.incomplete_ops, 0);
    let read = sim.history().completed_reads().next().unwrap();
    match &read.kind {
        OpKind::Read {
            returned: Some(v), ..
        } => assert_eq!(v.as_bytes(), &big[..]),
        other => panic!("unexpected {other:?}"),
    }
}
