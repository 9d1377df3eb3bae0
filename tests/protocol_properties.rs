//! Property-based tests over randomized executions.
//!
//! For arbitrary seeds, client populations and Byzantine strategies within
//! the paper's fault model, every execution must satisfy the paper's
//! guarantees: safety and write order always; freshness for the regular
//! variants; liveness whenever at most `f` servers misbehave.
//!
//! The suite enumerates every `(protocol, byzantine)` pair — the full
//! discrete space, which sampling can miss — with [`DetRng`]-drawn seeds
//! and populations.

use safereg::checker::CheckSummary;
use safereg::common::rng::DetRng;
use safereg::simnet::workload::{ByzKind, Protocol, WorkloadSpec};

const PROTOCOLS: [Protocol; 5] = [
    Protocol::Bsr,
    Protocol::BsrH,
    Protocol::Bsr2p,
    Protocol::Bcsr,
    Protocol::RbBaseline,
];

const BYZ: [Option<ByzKind>; 6] = [
    None,
    Some(ByzKind::Silent),
    Some(ByzKind::Stale),
    Some(ByzKind::Fabricator),
    Some(ByzKind::Equivocator),
    Some(ByzKind::AckForger),
];

#[test]
fn randomized_executions_are_safe_live_and_ordered() {
    let mut rng = DetRng::seed_from(0x9209_7001);
    for protocol in PROTOCOLS {
        for byz in BYZ {
            let seed = rng.next_u64();
            let spec = WorkloadSpec {
                protocol,
                f: 1,
                extra_servers: rng.index(2),
                writers: 1 + rng.index(2),
                readers: 1 + rng.index(3),
                writer_ops: 2 + rng.index(3),
                reader_ops: 2 + rng.index(3),
                value_size: 24,
                think: 20,
                byzantine: byz.map(|k| (1, k)),
                seed,
            };
            let mut sim = spec.build();
            let report = sim.run();

            // Liveness (Theorem 1/4): at most f faulty servers.
            assert_eq!(
                report.incomplete_ops,
                0,
                "{} under {:?}",
                protocol.name(),
                byz
            );

            let summary = CheckSummary::check_all(sim.history());
            // Safety (Theorem 2 / Lemma 4) and write order (Lemma 2): always.
            assert!(
                summary.is_safe(),
                "{} under {:?} seed {}: {:?}",
                protocol.name(),
                byz,
                seed,
                summary.safety
            );
            assert!(
                summary.order.is_empty(),
                "{} order: {:?}",
                protocol.name(),
                summary.order
            );

            // Freshness: promised by the regular variants (§III-C) and the RB
            // baseline; BSR deliberately does not promise it (Theorem 3).
            if matches!(
                protocol,
                Protocol::BsrH | Protocol::Bsr2p | Protocol::RbBaseline
            ) {
                assert!(
                    summary.is_fresh(),
                    "{} under {:?} seed {}: {:?}",
                    protocol.name(),
                    byz,
                    seed,
                    summary.freshness
                );
            }
        }
    }
}

#[test]
fn tag_space_stays_bounded_by_write_count() {
    let mut rng = DetRng::seed_from(0x9209_7002);
    for _ in 0..12 {
        // Robust tag selection: a register's tag number never exceeds the
        // number of completed writes (no inflation), regardless of
        // interleaving.
        let seed = rng.next_u64();
        let writers = 1 + rng.index(3);
        let ops = 1 + rng.index(3);
        let spec = WorkloadSpec {
            protocol: Protocol::Bsr,
            f: 1,
            extra_servers: 0,
            writers,
            readers: 1,
            writer_ops: ops,
            reader_ops: 2,
            value_size: 8,
            think: 15,
            byzantine: Some((1, ByzKind::Fabricator)),
            seed,
        };
        let mut sim = spec.build();
        sim.run();
        let total_writes = writers * ops;
        for w in sim.history().completed_writes() {
            if let safereg::common::history::OpKind::Write { tag: Some(t), .. } = &w.kind {
                assert!(
                    t.num as usize <= total_writes,
                    "tag {t} exceeds {total_writes} writes"
                );
            }
        }
    }
}
