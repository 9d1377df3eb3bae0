//! End-to-end causal-tracing scenario: proves the four properties the
//! tracing layer promises, over both deployment shapes.
//!
//! 1. **Determinism** — two identically-seeded simulator runs with span
//!    sampling on render byte-identical JSONL span streams (the
//!    caller-stamped clock rule at work), and a sampling-off run emits
//!    nothing.
//! 2. **Attribution** — a fault-injected TCP run (one Fabricator replica
//!    behind mild chaos proxies, sampling at 1000 ‰) completes its
//!    workload with every slow read carrying exactly one concrete
//!    [`SlowCause`] label; the per-cause counters partition the slow
//!    count and the per-phase latency histograms fill in.
//! 3. **Violation dumps** — a deliberately over-faulted deployment
//!    (`2 > f` silent replicas) starves a read; the checker flags the
//!    incomplete operation and [`violation_trees`] reconstructs that
//!    exact op's span tree from the flight ring via
//!    [`TraceCtx::derive_id`](safereg_common::trace::TraceCtx::derive_id)
//!    — no lookup table was kept during the run — before
//!    [`dump_flight`](safereg_obs::dump_flight) spills the ring.
//! 4. **Overhead** — with sampling off the whole layer costs one branch
//!    and 16 wire bytes per frame: two interleaved sampling-off
//!    measurements over the in-memory cluster must agree within 5 %
//!    (best-of-three each), and the sampling-on cost is reported
//!    alongside.

use std::sync::Arc;
use std::time::{Duration, Instant};

use safereg_checker::CheckSummary;
use safereg_common::config::{QuorumConfig, TransportConfig};
use safereg_common::history::History;
use safereg_common::ids::{ReaderId, ServerId, WriterId};
use safereg_common::msg::OpId;
use safereg_common::shard::ShardMap;
use safereg_common::trace::Phase;
use safereg_common::value::Value;
use safereg_core::behavior::ByzRole;
use safereg_kv::{InMemKvCluster, KvClient, KvMode, TcpKvCluster};
use safereg_obs::names;
use safereg_obs::span::SlowCause;
use safereg_obs::trace::wall_micros;
use safereg_obs::{dump_flight, flight, violation_trees, SpanLog};
use safereg_simnet::workload::{ByzKind, Protocol, WorkloadSpec};
use safereg_transport::chaos::{FaultPlan, FaultSpec};

use crate::cli::Report;
use crate::json::Json;
use crate::ops::{retry, scenario_transport};

/// Per-cause slot of the slow-read histogram.
#[derive(Debug, Clone)]
pub struct CauseCount {
    /// The cause label (snake_case, schema-stable).
    pub cause: &'static str,
    /// Slow reads attributed to it during the chaos leg.
    pub count: u64,
}

/// Per-phase latency summary from the global trace histograms.
#[derive(Debug, Clone)]
pub struct PhaseStat {
    /// The phase label (snake_case, schema-stable).
    pub phase: &'static str,
    /// Segments recorded.
    pub count: u64,
    /// 99th-percentile segment duration in microseconds.
    pub p99_us: u64,
}

/// Outcome of one trace scenario run.
#[derive(Debug, Clone)]
pub struct TraceReport {
    /// The seed driving the simulator workload and the chaos plan.
    pub seed: u64,
    /// Span lines each sampled simulator run rendered.
    pub sim_span_lines: usize,
    /// The first rendered span line (CI validates its schema).
    pub sim_first_line: String,
    /// Both identically-seeded sampled runs rendered identical bytes.
    pub sim_deterministic: bool,
    /// Lines a sampling-off run rendered (0 required).
    pub sim_unsampled_lines: usize,
    /// Chaos-leg operations attempted.
    pub ops_attempted: u64,
    /// Chaos-leg operations completed (within per-op retries).
    pub ops_completed: u64,
    /// Chaos-leg reads that took the slow path.
    pub slow_reads: u64,
    /// Slow reads per cause (chaos-leg delta, priority order).
    pub causes: Vec<CauseCount>,
    /// Slow reads with no cause label (0 required).
    pub unattributed_slow: u64,
    /// Operations the sampler admitted during the chaos leg.
    pub sampled_ops: u64,
    /// Per-phase p99s observed during the chaos leg.
    pub phases: Vec<PhaseStat>,
    /// Violations the checker found in the over-faulted leg (>= 1 required).
    pub violations_found: usize,
    /// Span records reconstructed for the violating ops (> 0 required).
    pub violation_tree_spans: usize,
    /// Records the flight recorder dumped for the violation.
    pub flight_records_dumped: usize,
    /// In-memory ops/sec, sampling off, first batch (best of 3).
    pub ops_per_sec_off: f64,
    /// In-memory ops/sec, sampling off, second batch (best of 3).
    pub ops_per_sec_off2: f64,
    /// In-memory ops/sec, sampling at 1000 ‰ (best of 3).
    pub ops_per_sec_on: f64,
    /// Disagreement between the two sampling-off batches, in permille —
    /// the measured cost ceiling of the dormant layer (< 50 required).
    pub overhead_off_permille: u64,
    /// Throughput cost of sampling at 1000 ‰ vs off, in permille
    /// (reported, not gated: sampling does real work).
    pub overhead_on_permille: u64,
}

impl Report for TraceReport {
    const NAME: &'static str = "trace";

    fn ok(&self) -> bool {
        self.sim_deterministic
            && self.sim_span_lines > 0
            && self.sim_unsampled_lines == 0
            && self.ops_completed > 0
            && self.slow_reads > 0
            && self.unattributed_slow == 0
            && self.sampled_ops > 0
            && self.phases.iter().any(|p| p.phase == "rpc" && p.count > 0)
            && self
                .phases
                .iter()
                .any(|p| p.phase == "server_decode" && p.count > 0)
            && self.violations_found >= 1
            && self.violation_tree_spans > 0
            && self.flight_records_dumped > 0
            && self.overhead_off_permille < 50
    }

    fn json(&self) -> Json {
        let causes = self.causes.iter().map(|c| {
            Json::object()
                .str("cause", c.cause)
                .num("count", c.count)
                .end()
        });
        let phases = self.phases.iter().map(|p| {
            Json::object()
                .str("phase", p.phase)
                .num("count", p.count)
                .num("p99_us", p.p99_us)
                .end()
        });
        Json::object()
            .num("seed", self.seed)
            .num("sim_span_lines", self.sim_span_lines)
            .num("sim_deterministic", self.sim_deterministic)
            .num("sim_unsampled_lines", self.sim_unsampled_lines)
            .num("ops_attempted", self.ops_attempted)
            .num("ops_completed", self.ops_completed)
            .num("slow_reads", self.slow_reads)
            .field("causes", Json::array(causes))
            .num("unattributed_slow", self.unattributed_slow)
            .num("sampled_ops", self.sampled_ops)
            .field("phases", Json::array(phases))
            .num("violations_found", self.violations_found)
            .num("violation_tree_spans", self.violation_tree_spans)
            .num("flight_records_dumped", self.flight_records_dumped)
            .float("ops_per_sec_off", self.ops_per_sec_off, 0)
            .float("ops_per_sec_off2", self.ops_per_sec_off2, 0)
            .float("ops_per_sec_on", self.ops_per_sec_on, 0)
            .num("overhead_off_permille", self.overhead_off_permille)
            .num("overhead_on_permille", self.overhead_on_permille)
            .num("ok", self.ok())
            .end()
    }
}

/// Renders one sampled simulator run (contended, one Fabricator) as its
/// JSONL span stream.
fn sim_stream(seed: u64, sample_permille: u16) -> String {
    let mut spec = WorkloadSpec::read_heavy(Protocol::Bsr, 1, 800, seed);
    spec.byzantine = Some((1, ByzKind::Fabricator));
    let mut sim = spec.build();
    let log = Arc::new(SpanLog::new());
    sim.set_span_log(Arc::clone(&log), sample_permille);
    sim.run();
    log.render_jsonl()
}

/// Transport policy for the faulted TCP legs: the scenarios' shared
/// preset, with every operation sampled.
fn trace_transport() -> TransportConfig {
    TransportConfig {
        trace_sample: 1000,
        ..scenario_transport()
    }
}

/// Chaos-leg outcome: ops attempted/completed plus counter deltas.
struct ChaosLeg {
    attempted: u64,
    completed: u64,
    slow_reads: u64,
    causes: Vec<CauseCount>,
    sampled_ops: u64,
    phases: Vec<PhaseStat>,
}

/// Runs the attribution leg: an `n = 5, f = 1` TCP cluster with one
/// Fabricator replica behind mild chaos proxies, sampling at 1000 ‰. The
/// forged tags fail validation on every read, so the workload is
/// slow-read-heavy by construction.
fn chaos_leg(seed: u64) -> ChaosLeg {
    let reg = safereg_obs::global();
    let q = QuorumConfig::minimal_bsr(1).expect("n = 5, f = 1 is valid");
    let tconfig = trace_transport();
    let mut cluster = TcpKvCluster::builder(KvMode::Replicated, b"trace-bench")
        .shards(ShardMap::single(q))
        .config(tconfig)
        .chaos(FaultPlan::new(seed, FaultSpec::mild()))
        .start()
        .expect("start trace cluster");
    cluster
        .set_role(ServerId(4), ByzRole::Fabricator, seed)
        .expect("convert replica");

    let slow_before = reg.counter(&names::shard_reads_counter(0, "slow")).get();
    let sampled_before = reg.counter(names::TRACE_SAMPLED_OPS).get();
    let causes_before: Vec<u64> = SlowCause::ALL
        .iter()
        .map(|c| reg.counter(&names::slow_cause_counter(c.as_str())).get())
        .collect();
    let phase_counts_before: Vec<u64> = Phase::ALL
        .iter()
        .map(|p| reg.histogram(&names::trace_phase_hist(p.as_str())).count())
        .collect();

    let mut client = KvClient::sharded(cluster.map().clone(), WriterId(0), ReaderId(0));
    client.set_policy(tconfig);
    let mut transport = cluster.transport_with(tconfig);

    let pause = Duration::from_millis(5);
    let mut attempted = 0u64;
    let mut completed = 0u64;
    for i in 0..24u32 {
        let key = format!("trace-k{}", i % 3).into_bytes();
        attempted += 2;
        let put = retry(4, pause, || {
            client.put(&mut transport, &key, format!("v{i}").into_bytes())
        });
        let get = retry(4, pause, || client.get_with_tag(&mut transport, &key));
        completed += u64::from(put.is_some()) + u64::from(get.is_some());
    }

    // Slow-read phase: crash-recover four honest replicas one at a time
    // (never more than f = 1 down at once — a restart is a transient
    // crash). The amnesiac respawn (`set_role` to Correct) is deliberate —
    // `restart()` would pull the register state back from a quorum and
    // keep reads fast; skipping the pull means afterwards no f + 1 = 2
    // replicas still witness the reader's cached pair, so every following
    // read is forced onto the slow path and must carry a concrete cause.
    for sid in [ServerId(0), ServerId(1), ServerId(2), ServerId(3)] {
        cluster
            .set_role(sid, ByzRole::Correct, 0)
            .expect("respawn replica");
    }
    for _ in 0..6 {
        attempted += 1;
        let get = retry(4, pause, || {
            client.get_with_tag(&mut transport, b"trace-k0")
        });
        completed += u64::from(get.is_some());
    }

    let causes: Vec<CauseCount> = SlowCause::ALL
        .iter()
        .zip(&causes_before)
        .map(|(c, &before)| CauseCount {
            cause: c.as_str(),
            count: reg.counter(&names::slow_cause_counter(c.as_str())).get() - before,
        })
        .collect();
    let phases: Vec<PhaseStat> = Phase::ALL
        .iter()
        .zip(&phase_counts_before)
        .map(|(p, &before)| {
            let h = reg.histogram(&names::trace_phase_hist(p.as_str()));
            PhaseStat {
                phase: p.as_str(),
                count: h.count() - before,
                p99_us: h.summary().map_or(0, |s| s.p99),
            }
        })
        .collect();
    ChaosLeg {
        attempted,
        completed,
        slow_reads: reg.counter(&names::shard_reads_counter(0, "slow")).get() - slow_before,
        causes,
        sampled_ops: reg.counter(names::TRACE_SAMPLED_OPS).get() - sampled_before,
        phases,
    }
}

/// Runs the violation leg: a healthy write, then `2 > f` replicas turned
/// silent so the next read starves. The checker flags the incomplete read;
/// its span tree is rebuilt from the flight ring by recomputing the trace
/// id from the violating [`OpId`] — the spans were recorded *during* the
/// doomed read, nothing is re-run.
fn violation_leg(seed: u64) -> (usize, usize, usize) {
    let q = QuorumConfig::minimal_bsr(1).expect("n = 5, f = 1 is valid");
    let tconfig = trace_transport();
    let mut cluster = TcpKvCluster::builder(KvMode::Replicated, b"trace-violation")
        .quorum(q)
        .start()
        .expect("start cluster");
    let mut client = KvClient::new(q, WriterId(50), ReaderId(51));
    client.set_policy(tconfig);
    let mut transport = cluster.transport_with(tconfig);
    let mut history = History::new();

    // Op 1: a healthy write. The client's internal sequence numbers are
    // deterministic (one per operation), so the history can be recorded
    // under the exact OpIds the tracing layer derives span ids from.
    let value = Value::from(format!("doomed-{seed}").into_bytes());
    let h = history.begin_write(OpId::new(WriterId(50), 1), value.clone(), wall_micros());
    let tag = client
        .put(&mut transport, b"trace-v", value)
        .expect("healthy write completes");
    history.complete_write(h, tag, wall_micros());

    // 2 > f replicas go silent: the read quorum (n - f = 4) is forever
    // out of reach, so op 2 must starve.
    for sid in [ServerId(3), ServerId(4)] {
        cluster
            .set_role(sid, ByzRole::Silent, seed)
            .expect("convert replica");
    }
    let read_op = OpId::new(ReaderId(51), 2);
    history.begin_read(read_op, wall_micros());
    assert!(
        client.get_with_tag(&mut transport, b"trace-v").is_err(),
        "a read cannot complete with 2 > f silent replicas"
    );

    let summary = CheckSummary::check_all(&history);
    let violations = &summary.liveness;
    let records = flight().snapshot();
    let trees = violation_trees(&records, violations);
    // The header line is per violation; every further line is a span.
    let tree_spans = trees
        .lines()
        .filter(|l| l.trim_start().starts_with('{'))
        .count();
    let dumped = dump_flight("violation");
    eprint!("{trees}");
    (violations.len(), tree_spans, dumped)
}

/// One timed batch over the in-memory cluster: `ops` put/get operations
/// under the given sampling rate, returning ops/sec.
fn timed_batch(sample_permille: u16, ops: u32) -> f64 {
    let q = QuorumConfig::minimal_bsr(1).expect("n = 5, f = 1 is valid");
    let mut cluster = InMemKvCluster::new(q);
    let mut client = KvClient::new(q, WriterId(7), ReaderId(7));
    client.set_policy(TransportConfig {
        trace_sample: sample_permille,
        ..TransportConfig::aggressive()
    });
    for i in 0..64u32 {
        // Warmup: fault the caches and the allocator, outside the clock.
        let key = format!("warm{}", i % 4).into_bytes();
        client.put(&mut cluster, &key, b"w".to_vec()).expect("put");
    }
    let start = Instant::now();
    for i in 0..ops {
        let key = format!("bench{}", i % 8).into_bytes();
        if i % 4 == 0 {
            client.put(&mut cluster, &key, b"v".to_vec()).expect("put");
        } else {
            let _ = client.get(&mut cluster, &key).expect("get");
        }
    }
    f64::from(ops) / start.elapsed().as_secs_f64()
}

/// Best-of-`reps` throughput for the three sampling settings, batches
/// interleaved round-robin so background load drifts hit all three
/// equally. Scheduler noise shows up as slowdowns, never speedups, so max
/// is the low-noise estimator; the off/off2 split bounds the residual.
fn interleaved_best(reps: u32, ops: u32) -> (f64, f64, f64) {
    let (mut off, mut on, mut off2) = (0f64, 0f64, 0f64);
    for _ in 0..reps {
        off = off.max(timed_batch(0, ops));
        on = on.max(timed_batch(1000, ops));
        off2 = off2.max(timed_batch(0, ops));
    }
    (off, on, off2)
}

/// Runs the whole scenario.
///
/// # Panics
///
/// Panics when a cluster cannot be started or the healthy write of the
/// violation leg fails — environment failures, not scenario outcomes.
pub fn trace_run(seed: u64) -> TraceReport {
    let a = sim_stream(seed, 1000);
    let b = sim_stream(seed, 1000);
    let unsampled = sim_stream(seed, 0);

    let chaos = chaos_leg(seed);
    let (violations_found, violation_tree_spans, flight_records_dumped) = violation_leg(seed);

    let (off, on, off2) = interleaved_best(16, 6_000);
    let spread = (off - off2).abs() / off.max(off2).max(1.0);
    let on_cost = ((off.max(off2) - on) / off.max(off2).max(1.0)).max(0.0);

    let attributed: u64 = chaos.causes.iter().map(|c| c.count).sum();
    TraceReport {
        seed,
        sim_span_lines: a.lines().count(),
        sim_first_line: a.lines().next().unwrap_or_default().to_string(),
        sim_deterministic: a == b && !a.is_empty(),
        sim_unsampled_lines: unsampled.lines().count(),
        ops_attempted: chaos.attempted,
        ops_completed: chaos.completed,
        slow_reads: chaos.slow_reads,
        unattributed_slow: chaos.slow_reads.saturating_sub(attributed),
        causes: chaos.causes,
        sampled_ops: chaos.sampled_ops,
        phases: chaos.phases,
        violations_found,
        violation_tree_spans,
        flight_records_dumped,
        ops_per_sec_off: off,
        ops_per_sec_off2: off2,
        ops_per_sec_on: on,
        overhead_off_permille: (spread * 1000.0) as u64,
        overhead_on_permille: (on_cost * 1000.0) as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The simulator legs alone (cheap): byte-identical sampled streams,
    /// silent when sampling is off.
    #[test]
    fn sim_streams_are_deterministic_and_gated_by_sampling() {
        let a = sim_stream(0x7ACE, 1000);
        let b = sim_stream(0x7ACE, 1000);
        assert!(!a.is_empty());
        assert_eq!(a, b, "identically-seeded streams must be byte-identical");
        assert!(a.contains("\"phase\":\"client_op\""));
        assert!(a.contains("\"phase\":\"rpc\""));
        assert_eq!(sim_stream(0x7ACE, 0), "");
    }

    /// The violation leg finds the starved read and rebuilds its spans.
    #[test]
    fn violation_leg_dumps_the_starved_reads_span_tree() {
        let (violations, tree_spans, _) = violation_leg(0xDEAD);
        assert!(violations >= 1, "the starved read must be flagged");
        assert!(tree_spans > 0, "the violating op's spans must be found");
    }
}
