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
//!    measurements over the in-memory cluster, one before and one right
//!    after a sampling-on batch, must agree within 5 % (the median of
//!    per-round ratios), and the sampling-on cost is reported alongside.

use std::sync::Arc;
use std::time::{Duration, Instant};

use safereg_checker::CheckSummary;
use safereg_common::config::{QuorumConfig, TransportConfig};
use safereg_common::history::History;
use safereg_common::ids::{ReaderId, ServerId, WriterId};
use safereg_common::msg::OpId;
use safereg_common::shard::ShardMap;
use safereg_common::trace::Phase;
use safereg_core::behavior::ByzRole;
use safereg_kv::{InMemKvCluster, KvClient, KvMode, TcpKvCluster};
use safereg_obs::names;
use safereg_obs::span::SlowCause;
use safereg_obs::{dump_flight, flight, violation_trees, SpanLog};
use safereg_simnet::workload::{ByzKind, Protocol, WorkloadSpec};
use safereg_transport::chaos::{FaultPlan, FaultSpec};

use crate::cli::Report;
use crate::json::Json;
use crate::ops::scenario_transport;
use crate::schedule::{replay, value_of, Act, Event, Executor, Schedule, Scope};

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
    /// In-memory ops/sec, sampling off, first batch of each round (median
    /// over rounds).
    pub ops_per_sec_off: f64,
    /// In-memory ops/sec, sampling off, the batch after the sampling-on
    /// one (median over rounds).
    pub ops_per_sec_off2: f64,
    /// In-memory ops/sec, sampling at 1000 ‰ (median over rounds).
    pub ops_per_sec_on: f64,
    /// Disagreement between the two sampling-off batches, in permille (the
    /// median over rounds) — the measured cost ceiling of the dormant
    /// layer (< 50 required).
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

/// A respawning role change of a whole replica.
fn role(sid: u16, role: ByzRole, seed: u64) -> Event {
    Event::Sync(Act::SetRole(ServerId(sid), Scope::Respawn, role, seed))
}

/// The trace generator's two legs.
///
/// Chaos leg: replica 4 turns Fabricator, then 24 put/get pairs over three
/// keys. Then four honest replicas crash-recover one at a time (never more
/// than f = 1 down at once). The amnesiac respawn (`set-role` to correct)
/// is deliberate — a `restart` would pull the register state back from a
/// quorum and keep reads fast; skipping the pull means afterwards no
/// f + 1 = 2 replicas still witness the reader's cached pair, so the six
/// reads that follow are forced onto the slow path and must carry a
/// concrete cause.
///
/// Violation leg: a healthy write, then `2 > f` replicas turn silent so
/// the next read starves.
pub(crate) fn legs(seed: u64) -> [Schedule; 2] {
    let mut chaos = Schedule::new(seed);
    chaos.extend([role(4, ByzRole::Fabricator, seed)]);
    chaos.extend((0..24).flat_map(|i| [Event::Put(0, i % 3), Event::Get(0, i % 3)]));
    chaos.extend((0..4).map(|sid| role(sid, ByzRole::Correct, 0)));
    chaos.extend((0..6).map(|_| Event::Get(0, 0)));
    let mut violation = Schedule::new(seed);
    violation.extend([Event::Put(VIOLATION_CLIENT, 0)]);
    violation.extend([3, 4].map(|sid| role(sid, ByzRole::Silent, seed)));
    violation.extend([Event::Get(VIOLATION_CLIENT, 0)]);
    [chaos, violation]
}

/// The violation leg's client, whose op ids the span trees are found by.
const VIOLATION_CLIENT: u16 = 50;

/// Runs the attribution leg: an `n = 5, f = 1` TCP cluster with one
/// Fabricator replica behind mild chaos proxies, sampling at 1000 ‰. The
/// forged tags fail validation on every read, so the workload is
/// slow-read-heavy by construction.
fn chaos_leg(schedule: &Schedule) -> ChaosLeg {
    let reg = safereg_obs::global();
    let q = QuorumConfig::minimal_bsr(1).expect("n = 5, f = 1 is valid");
    let tconfig = trace_transport();
    let mut cluster = TcpKvCluster::builder(KvMode::Replicated, b"trace-bench")
        .shards(ShardMap::single(q))
        .config(tconfig)
        .chaos(FaultPlan::new(schedule.seed, FaultSpec::mild()))
        .start()
        .expect("start trace cluster");

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

    let keys = (0..3).map(|k| format!("trace-k{k}").into_bytes()).collect();
    let record = Executor::new(keys, 4, tconfig).run(&mut cluster, schedule);

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
        attempted: record.ops.len() as u64,
        completed: record.completed(),
        slow_reads: reg.counter(&names::shard_reads_counter(0, "slow")).get() - slow_before,
        causes,
        sampled_ops: reg.counter(names::TRACE_SAMPLED_OPS).get() - sampled_before,
        phases,
    }
}

/// Runs the violation leg. The checker flags the incomplete read; its
/// span tree is rebuilt from the flight ring by recomputing the trace id
/// from the violating [`OpId`] — the spans were recorded *during* the
/// doomed read, nothing is re-run.
fn violation_leg(schedule: &Schedule) -> (usize, usize, usize) {
    let q = QuorumConfig::minimal_bsr(1).expect("n = 5, f = 1 is valid");
    let mut cluster = TcpKvCluster::builder(KvMode::Replicated, b"trace-violation")
        .quorum(q)
        .start()
        .expect("start cluster");
    // One attempt per op: the executor's op count is then the client's
    // own sequence number, so the history's op ids are the ones the
    // tracing layer derived span ids from.
    let keys = vec![b"trace-v".to_vec()];
    let record = Executor::new(keys, 1, trace_transport()).run(&mut cluster, schedule);
    let [put, get] = &record.ops[..] else {
        unreachable!("the violation leg runs two ops");
    };
    let us = |d: Duration| d.as_micros() as u64;
    let mut history = History::new();
    let (c, tag) = (VIOLATION_CLIENT, put.tag.expect("healthy write completes"));
    let h = history.begin_write(
        OpId::new(WriterId(c), put.seq),
        value_of(c, put.seq),
        us(put.start),
    );
    history.complete_write(h, tag, us(put.end));
    assert!(
        get.tag.is_none(),
        "a read cannot complete with 2 > f silent replicas"
    );
    history.begin_read(OpId::new(ReaderId(c), get.seq), us(get.start));

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

/// Throughput of the three sampling settings over `rounds` rounds of
/// three adjacent batches: off, on, off2. Returns the median throughput of
/// each setting, and the medians of the per-round ratios `off2 / off` and
/// `on / off`. A round's batches run back to back and share its background
/// load, so a ratio cancels drift that a best-of keeps, and the median
/// drops the rounds a burst of load split unevenly. off2 always follows
/// the sampling-on batch, so cost that batch leaves behind (spans still
/// buffered, a heap it grew) slows off2 alone and shows in the ratio.
fn interleaved_medians(rounds: usize, ops: u32) -> ([f64; 3], f64, f64) {
    let rounds: Vec<[f64; 3]> = (0..rounds)
        .map(|_| {
            let off = timed_batch(0, ops);
            let on = timed_batch(1000, ops);
            [off, on, timed_batch(0, ops)]
        })
        .collect();
    let median = |mut xs: Vec<f64>| {
        xs.sort_by(f64::total_cmp);
        xs[xs.len() / 2]
    };
    let col = |i: usize| median(rounds.iter().map(|r| r[i]).collect());
    let ratio = |i: usize| median(rounds.iter().map(|r| r[i] / r[0]).collect());
    ([col(0), col(1), col(2)], ratio(2), ratio(1))
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

    let schedules = legs(seed);
    let chaos = chaos_leg(&schedules[0]);
    let (violations_found, violation_tree_spans, flight_records_dumped) =
        violation_leg(&schedules[1]);

    let ([off, on, off2], off_ratio, on_ratio) = interleaved_medians(80, 2_000);
    let spread = (off_ratio - 1.0).abs();
    let on_cost = (1.0 - on_ratio).max(0.0);

    let attributed: u64 = chaos.causes.iter().map(|c| c.count).sum();
    let report = TraceReport {
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
    };
    if !report.ok() {
        replay(TraceReport::NAME, seed, &schedules);
    }
    report
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
        let (violations, tree_spans, _) = violation_leg(&legs(0xDEAD)[1]);
        assert!(violations >= 1, "the starved read must be flagged");
        assert!(tree_spans > 0, "the violating op's spans must be found");
    }
}
