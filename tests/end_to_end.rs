//! Cross-crate integration tests: each protocol end-to-end on the
//! simulator, over TCP, and through the KV layer, with the checkers as
//! the oracle.

use safereg::checker::rounds::read_round_profile;
use safereg::checker::CheckSummary;
use safereg::common::buf::Bytes;
use safereg::common::config::QuorumConfig;
use safereg::common::history::OpKind;
use safereg::common::ids::{ReaderId, ServerId, WriterId};
use safereg::common::msg::{CodedElement, Payload, ServerToClient};
use safereg::common::rng::DetRng;
use safereg::common::tag::Tag;
use safereg::common::value::Value;
use safereg::core::bcsr::BcsrReadOp;
use safereg::core::op::{ClientOp, ReadPath};
use safereg::mds::stripe::{decode_verified, encode_value, ElementView};
use safereg::mds::ReedSolomon;
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

/// The paper's worst case for a coded read (§IV-A) at 64 KiB, through the
/// reader itself: `f` servers missing, `2f` answering with an older tag and
/// `f` Byzantine servers answering with the fresh tag but corrupting half
/// of their element's columns, `2·f + 3f = n − k`. The liars corrupt
/// disjoint halves, so no one column shows them all.
#[test]
fn bcsr_worst_case_at_64_kib_reads_fresh_on_the_fast_path() {
    read_worst_case(11, 1, &[5], &[6, 7], &[8]);
    read_worst_case(16, 2, &[10, 11], &[12, 13, 14, 15], &[0, 1]);
}

fn read_worst_case(n: usize, f: usize, missing: &[u16], stale: &[u16], liars: &[u16]) {
    let cfg = QuorumConfig::new(n, f).unwrap();
    let code = ReedSolomon::new(n, cfg.mds_k().unwrap()).unwrap();
    let mut bytes = vec![0u8; 64 * 1024];
    DetRng::seed_from(n as u64).fill_bytes(&mut bytes);
    let fresh = Value::from(bytes);
    let fresh_e = encode_value(&code, &fresh);
    let old_e = encode_value(&code, &Value::from(vec![0x0D; 64 * 1024]));
    let (t_old, t_new) = (Tag::new(1, WriterId(0)), Tag::new(2, WriterId(0)));
    let cols = fresh_e[0].data.len();

    let mut op = BcsrReadOp::new(ReaderId(0), 1, cfg, code.clone());
    op.start();
    let id = op.op_id();
    let mut claimed = Vec::new();
    for i in (0..n as u16).filter(|i| !missing.contains(i)) {
        let honest = fresh_e[i as usize].clone();
        let (tag, elem) = if stale.contains(&i) {
            (t_old, old_e[i as usize].clone())
        } else if let Some(nth) = liars.iter().position(|l| *l == i) {
            let half = if nth == 0 {
                0..cols / 2
            } else {
                cols / 2..cols
            };
            let mut data = honest.data.to_vec();
            for b in &mut data[half] {
                *b ^= 0xA5;
            }
            let data = Bytes::from(data);
            (t_new, CodedElement { data, ..honest })
        } else {
            (t_new, honest)
        };
        if tag == t_new {
            claimed.push(elem.clone());
        }
        let payload = Payload::Coded(elem);
        op.on_message(
            ServerId(i),
            &ServerToClient::DataResp {
                op: id,
                tag,
                payload,
            },
        );
    }
    let out = op.output().expect("n − f responses conclude the read");
    assert_eq!(out.tag(), t_new, "n = {n}");
    assert_eq!(out.read_value(), Some(&fresh), "n = {n}");
    assert_eq!(op.read_path(), Some(ReadPath::Fast), "n = {n}");

    // The decoder found every liar by locating, one pass per liar, without
    // falling back to decoding column by column.
    let views: Vec<ElementView<'_>> = claimed.iter().map(ElementView::of).collect();
    let decoded = decode_verified(&code, fresh.len(), &views).unwrap();
    let expected: Vec<usize> = liars.iter().map(|l| *l as usize).collect();
    assert_eq!(decoded.located, Some(expected), "n = {n}");
}
