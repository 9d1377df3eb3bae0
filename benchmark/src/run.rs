//! The two measurements of one workload: the untraced rounds that give the
//! end-to-end metrics, and the traced run that gives the per-layer ledger.

use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use safereg_common::codec::payload_bytes_copied;
use safereg_kv::TcpKvTransport;
use safereg_obs::names;

use crate::layers::{self, Ledger, Timer};
use crate::load::{
    self, closed_loop, open_loop, preload_ops, run_once, Deployment, KvWorker, OpTransport,
    Outcome, Phase,
};
use crate::span::{self, SpanTransport, TraceSummary};
use crate::stats::{mean, median, quantile, quantile_sorted, supports, MIN_P95_SAMPLES};
use crate::workload::{gen_ops, Op, Spec, Stream, ValuePool, WORKERS};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// Open-loop and closed-loop slice of one round of a full run.
const OPEN_SLICE: Duration = Duration::from_millis(1000);
const CLOSED_SLICE: Duration = Duration::from_millis(500);

/// Hypervisor steal, in jiffies over all cores, from which a round is
/// discarded. A quiet host shows about one jiffy in four seconds.
const STEAL_LIMIT: u64 = 2;

/// Generator lateness p95 above which a round is discarded. Waking from a
/// timed sleep takes 100 to 250 us on a quiet host; more means the host
/// stalled, whatever `/proc/stat` says.
const LATE_LIMIT_US: f64 = 500.0;

/// How the run's `--seconds` are spent.
///
/// The untraced run is `rounds` rounds of one open-loop slice followed by
/// one closed-loop slice. Rounds are short and interleaved because the host
/// is a small VM whose hypervisor takes the cores away for seconds at a
/// time (p50 doubles, lateness reaches 100 ms and more): a round during
/// which `/proc/stat` shows stolen time, or whose generator ran late, says
/// nothing about the program, so it is discarded and run again — up to half
/// as many extra rounds as the plan has.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    pub seconds: f64,
    pub quick: bool,
    pub rounds: usize,
    pub open: Duration,
    pub closed: Duration,
}

impl Plan {
    pub fn new(seconds: f64) -> Self {
        let round = (OPEN_SLICE + CLOSED_SLICE).as_secs_f64();
        Plan {
            seconds,
            quick: false,
            rounds: ((seconds / round).round() as usize).max(1),
            open: OPEN_SLICE,
            closed: CLOSED_SLICE,
        }
    }

    /// The smoke test: one round of 2 s phases. Not a measurement.
    pub fn quick() -> Self {
        let phase = Duration::from_secs(2);
        Plan {
            seconds: 4.0,
            quick: true,
            rounds: 1,
            open: phase,
            closed: phase,
        }
    }
}

/// What one run of one workload produced.
#[derive(Debug, Default)]
pub struct RunResult {
    pub metrics: Ledger,
    pub attempted: u64,
    /// Failed, refused or wrong.
    pub failed: u64,
    pub wrong_reads: u64,
    /// Breaches of the run's own checks; any makes the run incorrect.
    pub problems: Vec<String>,
}

impl RunResult {
    fn tally(&mut self, phase: &Phase) {
        self.attempted += phase.samples.len() as u64;
        self.failed += (phase.samples.len() - phase.count(Outcome::Ok)) as u64;
        self.wrong_reads += phase.count(Outcome::Wrong) as u64;
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }
}

fn workers_on<T: OpTransport>(
    spec: &Spec,
    pool: &Arc<ValuePool>,
    transport: impl Fn(usize) -> T,
) -> Vec<KvWorker<T>> {
    let make = |w| KvWorker::new(load::client(spec, w), transport(w), Arc::clone(pool), spec);
    (0..WORKERS).map(make).collect()
}

fn open_ops(spec: &Spec, seed: u64, stream: usize, length: Duration) -> Vec<Op> {
    let count = (f64::from(spec.rate) * length.as_secs_f64()).round() as usize;
    gen_ops(spec, seed, Stream::Open(stream), count)
}

fn closed_ops(spec: &Spec, seed: u64, stream: usize, length: Duration) -> Vec<Op> {
    // Several times what the offered rate would need; the list is cycled
    // if a faster system runs through it.
    let count = (8.0 * f64::from(spec.rate) * length.as_secs_f64()) as usize;
    gen_ops(spec, seed, Stream::Closed(stream), count.max(1024))
}

/// How long past its schedule an open-loop phase may run before the ops
/// still waiting are refused: long enough that only a system serving a
/// small fraction of the offered rate gets there, not one that stalled.
const GRACE: Duration = Duration::from_secs(10);

fn late_p95(phase: &Phase) -> f64 {
    let mut late: Vec<f64> = phase.samples.iter().map(|s| s.late_us).collect();
    quantile(&mut late, 0.95)
}

/// Time the hypervisor ran something else while this VM wanted a core, in
/// jiffies summed over cores (0 where `/proc/stat` does not say).
fn stolen_jiffies() -> u64 {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let cpu = stat.lines().next().unwrap_or_default();
    cpu.split_whitespace()
        .nth(8)
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// One round of the untraced run.
struct Round {
    /// Open-loop latencies, ascending: gets, then puts.
    latencies: [Vec<f64>; 2],
    sat: f64,
    late_p95: f64,
    clean: bool,
}

fn round<E: load::Exec>(
    workers: &mut [E],
    spec: &Spec,
    seed: u64,
    index: usize,
    plan: &Plan,
    result: &mut RunResult,
) -> Round {
    let stolen = stolen_jiffies();
    let ops = open_ops(spec, seed, index, plan.open);
    let open = open_loop(workers, &ops, f64::from(spec.rate), GRACE);
    result.tally(&open);
    let closed = closed_loop(
        workers,
        &closed_ops(spec, seed, index, plan.closed),
        plan.closed,
    );
    result.tally(&closed);
    let stolen = stolen_jiffies() - stolen;
    let (mut gets, mut puts) = (open.latencies(false), open.latencies(true));
    let (get_p50, late) = (quantile(&mut gets, 0.5), late_p95(&open));
    // Latency already counts from the due time, so generator lateness is
    // informational — unless it shows that the host stalled.
    let clean = stolen < STEAL_LIMIT && late <= LATE_LIMIT_US.min(get_p50);
    eprintln!(
        "# {} round {index}: get p50 {get_p50:.0} p95 {:.0} put p50 {:.0} p95 {:.0} us, late p95 {late:.0} us, closed {:.0} ops/s, stolen {stolen}{}",
        spec.name,
        quantile(&mut gets, 0.95),
        quantile(&mut puts, 0.5),
        quantile(&mut puts, 0.95),
        closed.ops_per_s(),
        if clean { "" } else { "  DISCARDED" },
    );
    Round {
        latencies: [gets, puts],
        sat: closed.ops_per_s(),
        late_p95: late,
        clean,
    }
}

/// The untraced run: set-up (timed, repeated), then the rounds.
pub fn end_to_end(spec: &Spec, seed: u64, plan: &Plan) -> std::io::Result<RunResult> {
    let mut result = RunResult::default();
    let zero = Counters::read(spec);
    let pool = Arc::new(ValuePool::new(spec, seed));
    let preload = preload_ops(spec);

    // Cluster start, transport connect and the preload are `setup_s`, and
    // excluded from everything else. The first deployment is the one
    // measured; the other set-ups follow the rounds, because memory freed by
    // a dropped deployment would be recycled by the next one's early rounds
    // and make them faster than the rest.
    let mut setups = Vec::new();
    let mut set_up = |result: &mut RunResult| -> std::io::Result<_> {
        let start = Instant::now();
        let deployment = Deployment::start(spec)?;
        let mut workers = workers_on(spec, &pool, |_| deployment.transport());
        result.tally(&run_once(&mut workers, &preload));
        setups.push(start.elapsed().as_secs_f64());
        Ok((deployment, workers))
    };
    let (deployment, mut workers) = set_up(&mut result)?;

    let mut rounds: Vec<Round> = Vec::new();
    let clean = |rounds: &[Round]| rounds.iter().filter(|r| r.clean).count();
    while clean(&rounds) < plan.rounds && rounds.len() < plan.rounds + plan.rounds / 2 {
        let index = rounds.len();
        rounds.push(round(&mut workers, spec, seed, index, plan, &mut result));
    }
    // A host that was never quiet for half the plan: the quietest half of
    // the rounds, by generator lateness, is the best there is.
    let floor = plan.rounds.div_ceil(2);
    if clean(&rounds) < floor {
        eprintln!(
            "# {}: only {} quiet rounds of {}; using the {floor} least late",
            spec.name,
            clean(&rounds),
            rounds.len()
        );
        let mut late: Vec<f64> = rounds.iter().map(|r| r.late_p95).collect();
        late.sort_unstable_by(f64::total_cmp);
        let cut = late[floor - 1];
        rounds.iter_mut().for_each(|r| r.clean = r.late_p95 <= cut);
    }
    // The percentile is only as good as its sample: p95 is the highest
    // percentile with at least ten samples beyond it in every (workload,
    // kind) cell of the run.
    for (kind, name) in ["get", "put"].iter().enumerate() {
        let n: usize = rounds.iter().map(|r| r.latencies[kind].len()).sum();
        if !plan.quick && !supports(n, 0.95) {
            result.problems.push(format!(
                "{n} {name} samples, p95 needs {MIN_P95_SAMPLES}: raise --seconds"
            ));
        }
    }
    rounds.retain(|r| r.clean);
    drop((workers, deployment));
    for _ in 1..if plan.quick { 1 } else { SETUP_REPS } {
        set_up(&mut result)?;
    }

    // Each value is the median over rounds of the round's statistic.
    let over_rounds = |kind: usize, q: f64| {
        let per_round = rounds
            .iter()
            .map(|r| quantile_sorted(&r.latencies[kind], q));
        median(&per_round.collect::<Vec<_>>())
    };
    let m = &mut result.metrics;
    m.insert("get_p50_us", over_rounds(0, 0.5));
    m.insert("put_p50_us", over_rounds(1, 0.5));
    m.insert("get_p95_us", over_rounds(0, 0.95));
    m.insert("put_p95_us", over_rounds(1, 0.95));
    let sat: Vec<f64> = rounds.iter().map(|r| r.sat).collect();
    m.insert("sat_ops_per_s", median(&sat));
    m.insert("setup_s", median(&setups));
    check_counters(spec, &mut result, &zero);
    Ok(result)
}

/// Process-wide counters the program keeps, read through its public
/// registry. Cluster and clients share the process, so a delta over a pass
/// covers both sides of the wire.
#[derive(Debug, Clone, Copy)]
struct Counters {
    fast: u64,
    slow: u64,
    reconnects: u64,
    unreachable: u64,
    wakeups: u64,
    events: u64,
    batches: u64,
    batch_frames: u64,
    copied: u64,
}

impl Counters {
    fn read(spec: &Spec) -> Self {
        let reg = safereg_obs::global();
        let reads = |path| {
            let shards = 0..spec.shards;
            shards
                .map(|g| reg.counter(&names::shard_reads_counter(g, path)).get())
                .sum()
        };
        let batch = reg.histogram(names::TRANSPORT_BATCH_FRAMES).snapshot();
        Counters {
            fast: reads("fast"),
            slow: reads("slow"),
            reconnects: reg.counter(names::KV_RECONNECTS).get(),
            unreachable: reg.counter(names::KV_EXCHANGE_UNREACHABLE).get(),
            wakeups: reg.counter(names::REACTOR_WAKEUPS).get(),
            events: reg.counter(names::REACTOR_EVENTS).get(),
            batches: batch.count,
            batch_frames: batch.sum,
            copied: payload_bytes_copied(),
        }
    }
}

/// The checks both kinds of run make on counts since `since`.
fn check_counters(spec: &Spec, result: &mut RunResult, since: &Counters) {
    let now = Counters::read(spec);
    if now.slow > since.slow {
        let slow = now.slow - since.slow;
        result.problems.push(format!(
            "{slow} reads left the fast path; core.read_fast_ratio must be 1"
        ));
    }
    if now.reconnects > since.reconnects {
        result.problems.push(format!(
            "{} reconnects; must be 0",
            now.reconnects - since.reconnects
        ));
    }
    if result.wrong_reads > 0 {
        result
            .problems
            .push(format!("{} wrong reads", result.wrong_reads));
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    num as f64 / den.max(1) as f64
}

/// The traced run: everything in the per-layer ledger.
pub fn layers(spec: &Spec, seed: u64, plan: &Plan, out_dir: &Path) -> std::io::Result<RunResult> {
    let mut result = RunResult::default();
    let zero = Counters::read(spec);
    let pool = Arc::new(ValuePool::new(spec, seed));
    let deployment = Deployment::start(spec)?;
    let epoch = Instant::now();
    let traced = |w| SpanTransport::new(deployment.transport(), w, WORKERS, epoch);
    let mut workers: Vec<KvWorker<SpanTransport<TcpKvTransport>>> = workers_on(spec, &pool, traced);
    result.tally(&run_once(&mut workers, &preload_ops(spec)));

    // A sixth of the run each for an open-loop and a traced closed-loop
    // pass, a twelfth for the untraced baseline; the rest goes to the
    // kernels. None of it is gated, so none of it is filtered for steal.
    let pass = Duration::from_secs_f64(plan.seconds / 6.0);

    // Open loop, untraced: generator lateness and the ungated tail.
    let ops = open_ops(spec, seed, 0, pass);
    let open = open_loop(&mut workers, &ops, f64::from(spec.rate), GRACE);
    result.tally(&open);
    let m = &mut result.metrics;
    m.insert("bench.gen_late_p95_us", late_p95(&open));
    let (mut gets, mut puts) = (open.latencies(false), open.latencies(true));
    m.insert("kv.client.get_p99_us", quantile(&mut gets, 0.99));
    m.insert("kv.client.put_p99_us", quantile(&mut puts, 0.99));
    m.insert(
        "kv.client.max_us",
        gets.last()
            .copied()
            .unwrap_or(0.0)
            .max(puts.last().copied().unwrap_or(0.0)),
    );

    // Closed loop: untraced for the baseline, then with every transport
    // recording. Counter deltas are taken over the traced pass.
    let baseline = closed_loop(&mut workers, &closed_ops(spec, seed, 0, pass), pass / 2);
    result.tally(&baseline);
    let before = Counters::read(spec);
    workers
        .iter_mut()
        .for_each(|w| w.transport.recording = true);
    let traced = closed_loop(&mut workers, &closed_ops(spec, seed, 1, pass), pass);
    workers
        .iter_mut()
        .for_each(|w| w.transport.recording = false);
    let after = Counters::read(spec);
    result.tally(&traced);

    let spans: Vec<Vec<span::Span>> = workers
        .iter_mut()
        .map(|w| std::mem::take(&mut w.transport.spans))
        .collect();
    let mut trace = span::summarize(&spans);
    std::fs::create_dir_all(out_dir)?;
    span::write_jsonl(&out_dir.join(format!("trace_{}.jsonl", spec.name)), &spans)?;
    if trace.roots != traced.samples.len() {
        result.problems.push(format!(
            "{} root spans for {} traced ops",
            trace.roots,
            traced.samples.len()
        ));
    }

    let ops = traced.samples.len() as u64;
    let m = &mut result.metrics;
    m.insert(
        "bench.trace_overhead_permille",
        (1.0 - traced.ops_per_s() / baseline.ops_per_s()) * 1e3,
    );
    m.insert("core.exchanges_per_get", trace.exchanges_per_get);
    m.insert("core.exchanges_per_put", trace.exchanges_per_put);
    m.insert(
        "core.read_fast_ratio",
        ratio(
            after.fast - zero.fast,
            after.fast - zero.fast + after.slow - zero.slow,
        ),
    );
    m.insert(
        "kv.tcp.exchange_p50_us",
        quantile(&mut trace.exchange_us, 0.5),
    );
    m.insert(
        "kv.tcp.exchange_p95_us",
        quantile(&mut trace.exchange_us, 0.95),
    );
    m.insert("kv.tcp.rpc_sum_over_max", trace.rpc_sum_over_max);
    m.insert("kv.client.self_us", trace.client_self_us);
    m.insert(
        "kv.tcp.unreachable_per_kop",
        ratio((after.unreachable - before.unreachable) * 1000, ops),
    );
    m.insert(
        "kv.tcp.reconnects",
        (after.reconnects - zero.reconnects) as f64,
    );
    m.insert(
        "kv.reactor.wakeups_per_op",
        ratio(after.wakeups - before.wakeups, ops),
    );
    m.insert(
        "kv.reactor.events_per_op",
        ratio(after.events - before.events, ops),
    );
    m.insert(
        "kv.reactor.batch_frames_mean",
        ratio(
            after.batch_frames - before.batch_frames,
            after.batches - before.batches,
        ),
    );
    m.insert(
        "common.wire_bytes_copied_per_op",
        ratio(after.copied - before.copied, ops),
    );
    let connects = [(); layers::SAMPLES].map(|()| {
        let start = Instant::now();
        drop(deployment.transport());
        start.elapsed().as_secs_f64() * 1e6
    });
    m.insert("kv.tcp.connect_us", median(&connects));
    check_counters(spec, &mut result, &zero);
    drop(workers);
    drop(deployment);

    in_memory(spec, seed, plan, &pool, &mut result);
    let timer = Timer {
        sample: Duration::from_secs_f64((plan.seconds / 700.0).min(0.05)),
    };
    layers::micro(&timer, &mut result.metrics);
    layers::loopback(&mut result.metrics)?;
    let added = result.metrics["transport.chaos_added_rtt_us"];
    let stated = 2.0 * crate::workload::STRAGGLER_DELAY_US as f64;
    // The proxy's two relay hops and two timer overshoots come on top of
    // the stated delay; far outside that, the straggler workload is not
    // the one described.
    if !(0.9 * stated..=1.5 * stated).contains(&added) {
        result.problems.push(format!(
            "the proxy adds {added:.0} us per round trip, stated {stated:.0}"
        ));
    }
    let op_us = WORKERS as f64 * 1e6 / baseline.ops_per_s();
    budget(spec, &trace, op_us, &mut result.metrics);
    result.metrics.insert("bench.rss_peak_mb", rss_peak_mb());
    Ok(result)
}

/// The single-node baseline the socket numbers are read against: the same
/// `KvClient` ops over `InMemKvCluster` — protocol state machine, server
/// node and codec (and `mds` when coded), no socket, no MAC. One worker, so
/// only the keys it owns.
fn in_memory(spec: &Spec, seed: u64, plan: &Plan, pool: &Arc<ValuePool>, result: &mut RunResult) {
    let own = |ops: Vec<Op>| -> Vec<_> { ops.into_iter().step_by(WORKERS).collect() };
    let cluster = load::in_memory(spec);
    let mut worker = [KvWorker::new(
        load::client(spec, 0),
        cluster,
        Arc::clone(pool),
        spec,
    )];
    let preload = run_once(&mut worker, &own(preload_ops(spec)));
    result.tally(&preload);
    let stored = worker[0].transport.total_storage_bytes();
    let written = preload.samples.len() * spec.value_len;
    result.metrics.insert(
        "kv.server.stored_bytes_per_value_byte",
        stored as f64 / written as f64,
    );
    let phase = closed_loop(
        &mut worker,
        &own(closed_ops(spec, seed, 2, CLOSED_SLICE)),
        Duration::from_secs_f64(plan.seconds / 24.0),
    );
    result.tally(&phase);
    result
        .metrics
        .insert("core.inmem_get_us", mean(&phase.latencies(false)));
    result
        .metrics
        .insert("core.inmem_put_us", mean(&phase.latencies(true)));
}

/// Σ calls-per-op × layer cost against the measured closed-loop mean op
/// time. Reported, not gated: the layers are timed from outside, so what
/// happens between them (queues, wake-ups, the scheduler) is the residual.
fn budget(spec: &Spec, trace: &TraceSummary, measured_us: f64, m: &mut Ledger) {
    let ns = |name: &str| m[name] / 1e3;
    // One exchange with small frames both ways: each end derives two pair
    // keys, MACs what it sends and opens what it receives, encodes and
    // decodes; the server dispatches and attests; the wire is one loopback
    // round trip.
    let exchange = 4.0 * ns("crypto.pair_key_ns")
        + 2.0 * ns("crypto.auth_mac_parts_256b_ns")
        + 2.0 * ns("crypto.auth_open_256b_ns")
        + 2.0 * ns("common.wire_encode_put_256b_ns")
        + 2.0 * ns("common.wire_decode_put_256b_ns")
        + ns("kv.server.dispatch_query_ns")
        + ns("kv.server.attest_ns")
        + m["transport.loopback_rtt_us"];
    // Bytes an exchange carries beyond the 256 already counted: MACed at
    // both ends and moved once.
    let k = if spec.coded { spec.n - 5 * spec.f } else { 1 };
    let extra = spec.value_len.div_ceil(k).saturating_sub(256) as f64;
    let wire_per_byte = (m["transport.loopback_64k_us"] - m["transport.loopback_rtt_us"]) / 65536.0;
    let bulk = extra * (2.0 / m["crypto.hmac_64k_mb_s"] + wire_per_byte);
    let stripes = spec.value_len as f64 / 65536.0;
    let (encode, decode) = if spec.coded {
        (
            stripes * m["mds.stripe_encode_64k_n11k6_us"],
            stripes * m["mds.stripe_decode_64k_n11k6_us"],
        )
    } else {
        (0.0, 0.0)
    };
    // A get reaches the delayed replica once, a put once per phase.
    let delay = if spec.straggler {
        m["transport.chaos_added_rtt_us"]
    } else {
        0.0
    };
    let get = trace.exchanges_per_get * (exchange + bulk) + decode + delay;
    let put = trace.exchanges_per_put * (exchange + bulk / 2.0) + encode + 2.0 * delay;
    let share = f64::from(spec.put_permille) / 1e3;
    let explained = share * put + (1.0 - share) * get;
    m.insert("budget.explained_us", explained);
    m.insert(
        "budget.residual_permille",
        (measured_us - explained) / measured_us * 1e3,
    );
}

fn rss_peak_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let line = status.lines().find_map(|l| l.strip_prefix("VmHWM:"));
    let kb = line.and_then(|l| l.trim().trim_end_matches("kB").trim().parse::<f64>().ok());
    kb.unwrap_or(0.0) / 1024.0
}
