//! Acceptance tests for the observability layer: semi-fast-path
//! accounting surfaced through the metrics dump, and determinism of the
//! dump itself.
//!
//! The paper's headline property (§III, §IV) is that reads are *fast* —
//! one round, `f+1` witnesses — unless writes or Byzantine servers
//! interfere. These tests pin that property end to end: a quiescent run
//! reports a 100 % fast-read ratio through the metrics dump, interference
//! reports strictly less, and identical seeded runs produce byte-identical
//! dumps and span streams.

use std::sync::Arc;

use safereg::common::config::QuorumConfig;
use safereg::common::ids::{ReaderId, WriterId};
use safereg::obs::{render_jsonl, SpanLog};
use safereg::simnet::delay::FixedDelay;
use safereg::simnet::driver::Plan;
use safereg::simnet::scenarios::theorem3;
use safereg::simnet::sim::Sim;
use safereg::simnet::workload::{ByzKind, Protocol, WorkloadSpec};

/// A deployment where no read overlaps any write: three writes settle,
/// then two readers issue three reads each.
fn quiescent_sim() -> Sim {
    let protocol = Protocol::Bsr;
    let cfg = QuorumConfig::new(protocol.min_n(1), 1).unwrap();
    let mut sim = Sim::new(cfg, 0x0B5, Box::new(FixedDelay { hop: 10 }));
    for sid in cfg.servers() {
        sim.add_server(protocol.correct_server(sid, cfg));
    }
    sim.add_client(
        protocol.writer(WriterId(0), cfg),
        vec![
            Plan::write_at(0, "v1"),
            Plan::write_at(500, "v2"),
            Plan::write_at(1000, "v3"),
        ],
    );
    for r in 0..2u16 {
        sim.add_client(
            protocol.reader(ReaderId(r), cfg),
            vec![
                Plan::read_at(2000),
                Plan::read_at(2500),
                Plan::read_at(3000),
            ],
        );
    }
    sim
}

fn gauge_value(dump: &str, metric: &str) -> Option<u64> {
    let needle = format!("{{\"metric\":\"{metric}\",\"type\":\"gauge\",\"value\":");
    dump.lines()
        .find(|l| l.starts_with(&needle))
        .and_then(|l| l[needle.len()..].trim_end_matches('}').parse().ok())
}

#[test]
fn quiescent_run_reports_every_read_fast() {
    let mut sim = quiescent_sim();
    let report = sim.run();
    assert_eq!(report.fast_reads, 6);
    assert_eq!(report.slow_reads, 0);
    assert_eq!(report.fast_read_ratio(), Some(1.0));

    let dump = render_jsonl(&sim.metrics_snapshot());
    assert_eq!(
        gauge_value(&dump, "sim.read.fast_ratio_permille"),
        Some(1000),
        "the dump reports a 100% fast-read ratio:\n{dump}"
    );
    // Every series is registered eagerly at spawn so dumps are
    // schema-stable: the slow-read counter is present — and zero — even
    // though a quiescent run never touches it.
    assert!(dump.contains("\"metric\":\"sim.reads.slow\",\"type\":\"counter\",\"value\":0"));
    assert!(dump.contains("\"metric\":\"sim.reads.fast\",\"type\":\"counter\",\"value\":6"));
}

#[test]
fn byzantine_interference_lowers_the_fast_ratio() {
    let mut spec = WorkloadSpec::read_heavy(Protocol::Bsr, 1, 800, 0xE13);
    spec.byzantine = Some((1, ByzKind::Fabricator));
    let mut sim = spec.build();
    let report = sim.run();

    assert!(report.slow_reads > 0, "the fabricator forces slow reads");
    let ratio = report.fast_read_ratio().unwrap();
    assert!(
        ratio < 1.0,
        "fast-read ratio {ratio} must drop below the quiescent 1.0"
    );

    let dump = render_jsonl(&sim.metrics_snapshot());
    let permille = gauge_value(&dump, "sim.read.fast_ratio_permille").unwrap();
    assert!(
        permille < 1000,
        "dump gauge {permille} must be below 1000:\n{dump}"
    );
    assert!(dump.contains("\"metric\":\"sim.read.validation_failures\""));
}

#[test]
fn theorem3_schedule_defeats_the_fast_path_entirely() {
    // The Theorem 3 regularity-violation schedule leaves the BSR read with
    // no f+1-witnessed candidate at all: every read is slow. The two
    // regular fixes keep their (single) read fast on the same schedule.
    let bsr = theorem3(Protocol::Bsr).report;
    assert_eq!((bsr.fast_reads, bsr.slow_reads), (0, 1));
    assert_eq!(bsr.fast_read_ratio(), Some(0.0));

    for fixed in [Protocol::BsrH, Protocol::Bsr2p] {
        let r = theorem3(fixed).report;
        assert_eq!(
            r.fast_read_ratio(),
            Some(1.0),
            "{} should stay fast under the Theorem 3 schedule",
            fixed.name()
        );
    }
}

#[test]
fn identical_runs_produce_byte_identical_dumps_and_event_streams() {
    let run = || {
        let mut spec = WorkloadSpec::read_heavy(Protocol::BsrH, 1, 900, 0xDE7);
        spec.byzantine = Some((1, ByzKind::Equivocator));
        let mut sim = spec.build();
        let log = Arc::new(SpanLog::new());
        sim.set_span_log(Arc::clone(&log), 1000);
        let report = sim.run();
        (
            report,
            render_jsonl(&sim.metrics_snapshot()),
            log.render_jsonl(),
        )
    };
    let (report_a, dump_a, spans_a) = run();
    let (report_b, dump_b, spans_b) = run();
    assert_eq!(report_a, report_b);
    assert_eq!(dump_a, dump_b, "metric dumps must be byte-identical");
    assert_eq!(spans_a, spans_b, "span streams must be byte-identical");
    assert!(
        spans_a.lines().count() > 100,
        "the run actually traced spans"
    );
}
