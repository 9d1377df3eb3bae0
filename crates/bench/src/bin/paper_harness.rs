//! Regenerates every experiment in EXPERIMENTS.md.
//!
//! ```text
//! cargo run -p safereg-bench --bin paper_harness            # everything
//! cargo run -p safereg-bench --bin paper_harness e1 e5 a2   # selected
//! ```

use safereg_bench::ablations;
use safereg_bench::audit as audit_harness;
use safereg_bench::churn as churn_scenario;
use safereg_bench::cli::{finish, Flags, Report};
use safereg_bench::experiments;
use safereg_bench::runtime as runtime_bench;
use safereg_bench::shard as shard_bench;
use safereg_bench::soak as soak_harness;
use safereg_bench::table;
use safereg_bench::trace as trace_bench;
use safereg_bench::wire as wire_bench;

/// The wire microbench counts heap allocations, so the harness runs under
/// the counting allocator (a pass-through over `System`).
#[global_allocator]
static COUNTING_ALLOC: wire_bench::CountingAlloc = wire_bench::CountingAlloc;

fn yes_no(b: bool) -> String {
    if b {
        "yes".into()
    } else {
        "NO".into()
    }
}

fn e1() {
    println!("== E1: resilience (paper: BSR n>=4f+1, BCSR n>=5f+1, RB n>=3f+1; all tight) ==");
    let rows: Vec<Vec<String>> = experiments::e1_resilience()
        .into_iter()
        .map(|r| {
            vec![
                r.protocol,
                r.n.to_string(),
                r.f.to_string(),
                r.verdict.into(),
                r.evidence,
            ]
        })
        .collect();
    table::print(&["protocol", "n", "f", "verdict", "evidence"], &rows);
}

fn e2() {
    println!("== E2: round complexity (paper: BSR/BCSR reads 1 round, writes 2) ==");
    let rows: Vec<Vec<String>> = experiments::e2_rounds()
        .into_iter()
        .map(|r| {
            vec![
                r.protocol,
                format!(
                    "{}..{} (mean {:.2})",
                    r.read_rounds.0, r.read_rounds.1, r.read_rounds.2
                ),
                r.write_rounds.to_string(),
                yes_no(r.one_shot),
            ]
        })
        .collect();
    table::print(
        &["protocol", "read rounds", "write rounds", "one-shot"],
        &rows,
    );
}

fn e3() {
    println!("== E3: latency in hops (paper: RB writes pay ~1.5x BSR's write latency) ==");
    let rows: Vec<Vec<String>> = experiments::e3_latency()
        .into_iter()
        .map(|r| {
            vec![
                r.protocol,
                format!("{:.1}", r.write_hops),
                format!("{:.1}", r.read_hops),
                format!("{:.2}x", r.write_vs_bsr),
            ]
        })
        .collect();
    table::print(
        &["protocol", "write hops", "read hops", "write vs BSR"],
        &rows,
    );
}

fn e4() {
    println!("== E4: storage & write bandwidth, 16 KiB value, f=1 (paper: n vs n/k units) ==");
    let rows: Vec<Vec<String>> = experiments::e4_costs()
        .into_iter()
        .map(|r| {
            vec![
                r.n.to_string(),
                r.k.to_string(),
                format!("{}", r.repl_storage),
                format!("{}", r.coded_storage),
                format!(
                    "{:.2}x",
                    r.repl_storage as f64 / r.coded_storage.max(1) as f64
                ),
                format!("{:.2}", r.n as f64 / r.theory_units),
                format!("{}", r.repl_write_bytes),
                format!("{}", r.coded_write_bytes),
            ]
        })
        .collect();
    table::print(
        &[
            "n",
            "k",
            "repl bytes",
            "coded bytes",
            "measured save",
            "theory k",
            "repl wire",
            "coded wire",
        ],
        &rows,
    );
}

fn replay_table(title: &str, rows: Vec<experiments::ReplayRow>) {
    println!("{title}");
    let rows: Vec<Vec<String>> = rows
        .into_iter()
        .map(|r| vec![r.name, yes_no(r.safe), yes_no(r.fresh), r.read_returned])
        .collect();
    table::print(&["scenario", "safe", "fresh", "read returned"], &rows);
}

fn e5() {
    replay_table(
        "== E5: Theorem 3 replay (paper: BSR is safe but NOT regular; the two fixes are) ==",
        experiments::e5_theorem3(),
    );
}

fn e6() {
    replay_table(
        "== E6: Theorem 5 replay (paper: one-shot replicated reads impossible at n = 4f) ==",
        experiments::e6_theorem5(),
    );
}

fn e7() {
    replay_table(
        "== E7: Theorem 6 replay (paper: one-shot coded reads impossible at n = 5f) ==",
        experiments::e7_theorem6(),
    );
}

fn e8() {
    println!("== E8: read-heavy workloads (paper motivation: TAO is ~99.8% reads) ==");
    let rows: Vec<Vec<String>> = experiments::e8_workloads()
        .into_iter()
        .map(|r| {
            vec![
                format!("{:.1}%", r.read_permille as f64 / 10.0),
                r.protocol,
                r.ops.to_string(),
                format!("{:.0}", r.read_latency),
                r.read_p99.to_string(),
                format!("{:.0}", r.write_latency),
                format!("{:.2}", r.throughput),
                format!("{:.0}", r.bytes_per_op),
                yes_no(r.safe),
            ]
        })
        .collect();
    table::print(
        &[
            "reads",
            "protocol",
            "ops",
            "read lat",
            "read p99",
            "write lat",
            "ops/ktick",
            "B/op",
            "safe",
        ],
        &rows,
    );
}

fn e9() {
    println!("== E9: liveness (paper Thm 1/4: live at <= f faults; starved beyond) ==");
    let rows: Vec<Vec<String>> = experiments::e9_liveness()
        .into_iter()
        .map(|r| {
            vec![
                r.protocol,
                r.silent.to_string(),
                format!("{}/{}", r.completed.0, r.completed.1),
                yes_no(r.as_expected),
            ]
        })
        .collect();
    table::print(&["protocol", "silent", "completed", "as expected"], &rows);
}

fn e10() {
    println!("== E10: write total order (paper Lemma 2) ==");
    let r = experiments::e10_write_order();
    let rows = vec![vec![
        r.runs.to_string(),
        r.writes.to_string(),
        r.duplicates.to_string(),
        r.inversions.to_string(),
    ]];
    table::print(&["runs", "writes", "duplicate tags", "inversions"], &rows);
}

fn e11() {
    println!("== E11: atomicity boundary (paper gives up atomicity for semi-fast ops) ==");
    let rows: Vec<Vec<String>> = experiments::e11_atomicity_boundary()
        .into_iter()
        .map(|r| {
            vec![
                r.protocol,
                yes_no(r.safe),
                yes_no(r.fresh),
                r.inversions.to_string(),
            ]
        })
        .collect();
    table::print(&["protocol", "safe", "fresh", "new/old inversions"], &rows);
}

fn e12() {
    println!("== E12: regular-variant read bandwidth (1 KiB values; why SIII-C has two fixes) ==");
    let rows: Vec<Vec<String>> = experiments::e12_variant_bandwidth()
        .into_iter()
        .map(|r| {
            vec![
                r.history_len.to_string(),
                r.bsr_read_bytes.to_string(),
                r.bsrh_read_bytes.to_string(),
                r.bsrh_warm_read_bytes.to_string(),
                r.bsr2p_read_bytes.to_string(),
            ]
        })
        .collect();
    table::print(
        &[
            "writes",
            "BSR read B",
            "BSR-H cold B",
            "BSR-H warm B",
            "BSR-2P read B",
        ],
        &rows,
    );
}

fn e13() {
    println!("== E13: semi-fast path accounting (paper SIII/SIV: reads are fast unless interfered with) ==");
    let rows: Vec<Vec<String>> = experiments::e13_fast_path()
        .into_iter()
        .map(|r| {
            vec![
                r.scenario.into(),
                r.protocol,
                r.fast.to_string(),
                r.slow.to_string(),
                r.ratio
                    .map_or_else(|| "-".into(), |x| format!("{:.1}%", x * 100.0)),
                r.validation_failures.to_string(),
            ]
        })
        .collect();
    table::print(
        &[
            "scenario",
            "protocol",
            "fast reads",
            "slow reads",
            "fast ratio",
            "validation fails",
        ],
        &rows,
    );
}

/// Prints the whole global metrics registry, one JSON object per line.
fn dump_metrics() {
    println!(
        "{}",
        safereg_obs::render_jsonl(&safereg_obs::global().snapshot())
    );
}

fn metrics() {
    println!("== metrics: full registry dump of the contended E13 run (line-oriented JSON) ==");
    print!("{}", experiments::e13_metrics_dump());
}

fn a1() {
    println!("== A1: witness threshold (paper rule: f+1 = 2) ==");
    let rows: Vec<Vec<String>> = ablations::a1_witness_threshold()
        .into_iter()
        .map(|r| {
            vec![
                r.threshold.to_string(),
                r.returned,
                yes_no(r.safe),
                yes_no(r.fresh),
            ]
        })
        .collect();
    table::print(&["threshold", "read returned", "safe", "fresh"], &rows);
}

fn a2() {
    println!("== A2: get-tag selection (paper rule: (f+1)-th highest) ==");
    let rows: Vec<Vec<String>> = ablations::a2_tag_selection()
        .into_iter()
        .map(|r| {
            vec![
                r.selection.into(),
                r.final_tag_num.to_string(),
                yes_no(r.inflated),
            ]
        })
        .collect();
    table::print(&["selection", "tag.num after 3 writes", "inflated"], &rows);
}

fn a3() {
    println!("== A3: BCSR decode strategy (DESIGN.md: erasure-marking) ==");
    let rows: Vec<Vec<String>> = ablations::a3_decode_strategy()
        .into_iter()
        .map(|r| vec![r.strategy.into(), yes_no(r.recovered), r.returned])
        .collect();
    table::print(
        &["strategy", "recovered fresh value", "read returned"],
        &rows,
    );
}

fn a4() {
    println!("== A4: history retention (Fig. 3 literal vs store-all) ==");
    let rows: Vec<Vec<String>> = ablations::a4_history_retention()
        .into_iter()
        .map(|r| vec![r.retention.into(), r.returned, yes_no(r.fresh)])
        .collect();
    table::print(&["retention", "BSR-H read returned", "fresh"], &rows);
}

fn a5() {
    println!("== A5: write fan-out (paper: put-data goes to all n; Lemma 7: >= 3f needed) ==");
    let rows: Vec<Vec<String>> = ablations::a5_write_fanout()
        .into_iter()
        .map(|r| {
            vec![
                r.fanout.to_string(),
                format!("{}/{}", r.violations, r.trials),
            ]
        })
        .collect();
    table::print(&["fan-out m", "unsafe schedules"], &rows);
}

fn wire() {
    println!("== wire: zero-copy wire path, BCSR write fan-out at n=11, f=2 ==");
    let r = wire_bench::run();
    let rows = vec![vec![
        format!("{}", r.n),
        format!("{}", r.f),
        format!("{} B", r.value_bytes),
        format!("{:.1}", r.old_allocs_per_write),
        format!("{:.1}", r.new_allocs_per_write),
        format!("{:.2}x", r.alloc_ratio),
        format!("{}", r.relay_frames),
        r.relay_bytes_copied.to_string(),
    ]];
    table::print(
        &[
            "n",
            "f",
            "value",
            "old allocs/write",
            "new allocs/write",
            "ratio",
            "relay frames",
            "relay B copied",
        ],
        &rows,
    );
    println!(
        "wire: alloc ratio = {:.2}x (>= 2x required); relay bytes copied = {} (0 required)",
        r.alloc_ratio, r.relay_bytes_copied
    );
    println!(
        "wire: batch flushes = {}, max frames/flush = {} (ceiling {})",
        r.batch_samples, r.batch_max_frames, r.batch_ceiling
    );
    finish(&r);
}

fn trace() {
    println!("== trace: causal op tracing (determinism, slow-read attribution, violation dumps, overhead) ==");
    let r = trace_bench::trace_run(0x7AC3_5EED);
    let rows = vec![vec![
        format!("{:#x}", r.seed),
        format!("{}/{}", yes_no(r.sim_deterministic), r.sim_span_lines),
        format!("{}/{}", r.ops_completed, r.ops_attempted),
        r.slow_reads.to_string(),
        r.unattributed_slow.to_string(),
        r.violations_found.to_string(),
        r.violation_tree_spans.to_string(),
        format!("{}‰", r.overhead_off_permille),
    ]];
    table::print(
        &[
            "seed",
            "sim stable/lines",
            "ops",
            "slow reads",
            "unattributed",
            "violations",
            "tree spans",
            "off overhead",
        ],
        &rows,
    );
    // One line per nonzero cause: the CI smoke greps these as proof that
    // every slow read of the fault-injected run carried a concrete label.
    for c in r.causes.iter().filter(|c| c.count > 0) {
        println!("trace: slow cause {} = {}", c.cause, c.count);
    }
    for p in r.phases.iter().filter(|p| p.count > 0) {
        println!(
            "trace: phase {} count = {}, p99 = {} us",
            p.phase, p.count, p.p99_us
        );
    }
    println!("trace: sample span {}", r.sim_first_line);
    println!(
        "trace: sim determinism = {} ({} span lines, {} with sampling off)",
        yes_no(r.sim_deterministic),
        r.sim_span_lines,
        r.sim_unsampled_lines
    );
    println!(
        "trace: overhead off = {} permille (< 50 required); sampling on = {} permille \
         ({:.0} vs {:.0} ops/sec in-memory)",
        r.overhead_off_permille, r.overhead_on_permille, r.ops_per_sec_on, r.ops_per_sec_off
    );
    finish(&r);
}

fn shard() {
    println!(
        "== shard: {{1, 4, 16}} register groups x {{uniform, zipf}} keys on one n=5 fleet, \
         plus s=64 with m={} of a {}-server fleet (m<n) ==",
        shard_bench::WIDE_M,
        shard_bench::WIDE_FLEET
    );
    let r = shard_bench::run();
    let rows: Vec<Vec<String>> = r
        .cells
        .iter()
        .map(|c| {
            vec![
                c.shards.to_string(),
                c.skew.into(),
                c.ops.to_string(),
                format!("{:.0}", c.ops_per_sec),
                format!("{} us", c.p99_micros),
                format!("{}..{}", c.sockets_min, c.sockets_max),
            ]
        })
        .collect();
    table::print(
        &["shards", "skew", "ops", "ops/sec", "p99", "sockets"],
        &rows,
    );
    println!(
        "shard: hottest shard under zipf at s=16 was g{} ({} ops)",
        r.hot_shard, r.hot_shard_ops
    );
    println!(
        "shard: sockets per client = {} (exactly the fleet required — n={} for m=n cells, \
         {} for the s=64 m<n leg — never s*n); monotone scaling = {}",
        yes_no(r.sockets_ok()),
        r.n,
        shard_bench::WIDE_FLEET,
        yes_no(r.monotone_ok())
    );
    finish(&r);
}

/// Parses `churn` flags and runs the scenario; exits nonzero on failure.
///
/// ```text
/// paper_harness churn [--ops 200] [--seed 12653134] [--shards 2] [--keys 3]
///                     [--continuous] [--events 6]
/// ```
fn churn(args: &[String]) {
    let flags = Flags::parse(
        "churn",
        args,
        &["--ops", "--seed", "--shards", "--keys", "--events"],
        &["--continuous"],
    );
    let d = churn_scenario::ChurnConfig::default();
    let cfg = churn_scenario::ChurnConfig {
        seed: flags.num("--seed", d.seed),
        ops_per_phase: flags.num("--ops", d.ops_per_phase),
        shards: flags.num("--shards", d.shards),
        keys: flags.num("--keys", d.keys),
        continuous: flags.switch("--continuous"),
        events: flags.num("--events", d.events),
    };

    if cfg.continuous {
        println!(
            "== churn: seeded arrival/departure process ({} events) under a live \
             Fabricator, {} ops/phase, seed {} ==",
            cfg.events, cfg.ops_per_phase, cfg.seed
        );
    } else {
        println!(
            "== churn: add/remove/replace under a live Fabricator, {} ops/phase, seed {} ==",
            cfg.ops_per_phase, cfg.seed
        );
    }
    let r = churn_scenario::churn_run(&cfg);
    let rows: Vec<Vec<String>> = r
        .phases
        .iter()
        .map(|p| {
            vec![
                p.label.clone(),
                p.epoch.to_string(),
                p.ops.to_string(),
                p.failures.to_string(),
                format!("{:.0}", p.ops_per_sec),
                format!("{} us", p.p99_micros),
                p.adoptions.to_string(),
                p.stale_frames.to_string(),
            ]
        })
        .collect();
    table::print(
        &[
            "phase",
            "epoch",
            "ops",
            "failures",
            "ops/sec",
            "p99",
            "adoptions",
            "stale frames",
        ],
        &rows,
    );
    println!(
        "churn: {} steps applied ({} mode, {} expected), final epoch {}, \
         {} keys transferred, byz = {}",
        r.steps, r.mode, r.expected_steps, r.final_epoch, r.transfer_keys, r.byz_role
    );
    println!(
        "churn: {}/{} ops completed, {} failures (0 required), violations = {} (0 required)",
        r.ops_completed,
        r.ops_attempted,
        r.failures,
        r.violations.len()
    );
    for v in &r.violations {
        println!("  violation: {v}");
    }
    println!(
        "churn: coded joiner rebuilt logical slot {} from m - f slices, digest match = {}",
        r.coded_joiner_logical,
        yes_no(r.coded_digest_ok)
    );
    if r.reconfig_slow_reads > 0 {
        println!(
            "churn: slow cause reconfig_transfer = {}",
            r.reconfig_slow_reads
        );
    }
    finish(&r);
}

/// Parses `audit` flags and runs the accountability harness; exits
/// nonzero on failure.
///
/// ```text
/// paper_harness audit [--ops 64] [--seed 2698084077] [--keys 2]
/// ```
fn audit(args: &[String]) {
    let flags = Flags::parse("audit", args, &["--ops", "--seed", "--keys"], &[]);
    let d = audit_harness::AuditConfig::default();
    let cfg = audit_harness::AuditConfig {
        seed: flags.num("--seed", d.seed),
        ops: flags.num("--ops", d.ops),
        keys: flags.num("--keys", d.keys),
    };

    println!(
        "== audit: convict injected Fabricator/Equivocator from chained evidence, \
         acquit correct replicas under corruption; {} rounds/leg, seed {} ==",
        cfg.ops, cfg.seed
    );
    let r = audit_harness::audit_run(&cfg);
    let rows: Vec<Vec<String>> = r
        .legs
        .iter()
        .map(|l| {
            vec![
                l.label.into(),
                l.accused.map_or("-".into(), |s| format!("s{s}")),
                l.ops.to_string(),
                l.failures.to_string(),
                l.evidence.to_string(),
                l.verdict.clone(),
            ]
        })
        .collect();
    table::print(
        &["leg", "accused", "ops", "failures", "evidence", "verdict"],
        &rows,
    );
    for (s, c) in &r.convictions {
        println!("audit: convicted s{s} of {c}");
    }
    println!(
        "audit: convictions = {} (every injected fault), false_accusations {} (0 required), \
         {} evidence records",
        r.convictions.len(),
        r.false_accusations,
        r.evidence_total
    );
    println!(
        "audit: offline re-verification = {}; wire round-trip re-verification = {}",
        yes_no(r.offline_reverify_ok),
        yes_no(r.offline_roundtrip_ok)
    );
    println!(
        "audit: {} quarantined; evicted {:?} (epoch {} after); \
         post-eviction ops = {} ({} failures)",
        r.quarantines,
        r.evicted,
        r.epoch_after_eviction,
        r.post_eviction_ops,
        r.post_eviction_failures
    );
    println!(
        "audit: chaos leg convicted {} correct replicas (0 required); \
         max suspicion on a correct replica = {}",
        r.chaos_convictions, r.suspicion_correct_max
    );
    // The CI smoke greps the dump for `kv.audit.convictions`.
    dump_metrics();
    finish(&r);
}

/// Parses `soak` flags and runs the harness; exits nonzero on failure.
///
/// ```text
/// paper_harness soak --ops 20000 --byz f --seed 7 [--epochs 5]
///                    [--writers 4] [--readers 4] [--keys 4] [--shards 4]
///                    [--minutes 10] [--continuous]
/// ```
fn soak(args: &[String]) {
    let flags = Flags::parse(
        "soak",
        args,
        &[
            "--ops",
            "--byz",
            "--seed",
            "--epochs",
            "--writers",
            "--readers",
            "--keys",
            "--shards",
            "--minutes",
        ],
        &["--continuous"],
    );
    let d = soak_harness::SoakConfig::default();
    let cfg = soak_harness::SoakConfig {
        ops: flags.num("--ops", d.ops),
        // `--byz f` pins the count to the deployment's resilience bound; a
        // number is clamped to `f` by the harness anyway.
        byz: match flags.text("--byz") {
            Some("f") => usize::MAX,
            _ => flags.num("--byz", d.byz),
        },
        seed: flags.num("--seed", d.seed),
        epochs: flags.num("--epochs", d.epochs),
        writers: flags.num("--writers", d.writers),
        readers: flags.num("--readers", d.readers),
        keys: flags.num("--keys", d.keys),
        shards: flags.num("--shards", d.shards),
        minutes: flags.num("--minutes", d.minutes),
        continuous: flags.switch("--continuous"),
    };

    println!(
        "== soak: {} ops, {} writers + {} readers, {} epochs, seed {} ==",
        cfg.ops, cfg.writers, cfg.readers, cfg.epochs, cfg.seed
    );
    let r = soak_harness::soak_run(&cfg);
    let rows: Vec<Vec<String>> = r
        .epochs
        .iter()
        .map(|s| {
            vec![
                s.epoch.to_string(),
                s.byz
                    .iter()
                    .map(|(sid, label)| format!("{}={label}", sid.0))
                    .collect::<Vec<_>>()
                    .join(","),
                s.ops_completed.to_string(),
                s.failures.to_string(),
                format!("{} ms", s.millis),
                format!("{} KiB", s.rss_kib),
                s.evictions.to_string(),
                s.restarts.to_string(),
            ]
        })
        .collect();
    table::print(
        &[
            "epoch",
            "byzantine",
            "ops",
            "failures",
            "wall",
            "rss",
            "evictions",
            "restarts",
        ],
        &rows,
    );
    println!(
        "soak: {}/{} ops completed, {} failures, {} reads checked, \
         peak window {} records, {} pruned",
        r.ops_completed, r.ops_attempted, r.failures, r.reads_checked, r.peak_window, r.pruned
    );
    // Sharded runs: one line per register group so smoke tests can grep
    // each shard's health without parsing the JSON report.
    for s in &r.shard_stats {
        println!(
            "soak: shard g{} ops = {}, fast_ratio = {:.3}",
            s.shard,
            s.ops,
            s.fast_ratio_permille as f64 / 1000.0
        );
    }
    if r.continuous {
        println!(
            "soak: continuous churn applied {} membership events",
            r.reconfig_events
        );
    }
    println!(
        "soak: violations = {} (0 required); rss bounded = {}; progressed = {}; \
         schedule reproducible = {}",
        r.violations.len(),
        yes_no(r.rss_bounded),
        yes_no(r.progressed),
        yes_no(r.schedule_reproducible)
    );
    for v in &r.violations {
        println!("  violation: {v}");
    }
    // The CI smoke greps the dump for `server.evictions` and
    // `transport.batch.frames`.
    dump_metrics();
    // Sharded runs also pass the sharding verdict the CI smoke greps.
    if r.ok() && r.shards > 1 {
        println!("shard: ok");
    }
    finish(&r);
}

/// Parses `runtime` flags and runs the saturation ladder; exits nonzero
/// on failure. `--quick` starts from the one-rung smoke configuration.
///
/// ```text
/// paper_harness runtime [--conns 1000,10000,50000] [--rate 2000]
///                       [--secs 6] [--reactors 2] [--quick]
/// ```
fn runtime(args: &[String]) {
    let flags = Flags::parse(
        "runtime",
        args,
        &["--conns", "--rate", "--secs", "--reactors"],
        &["--quick"],
    );
    let d = if flags.switch("--quick") {
        runtime_bench::RuntimeConfig::quick()
    } else {
        runtime_bench::RuntimeConfig::default()
    };
    let cfg = runtime_bench::RuntimeConfig {
        rungs: flags.text("--conns").map_or(d.rungs, |list| {
            list.split(',').map(|c| flags.value("--conns", c)).collect()
        }),
        rate: flags.num("--rate", d.rate),
        secs: flags.num("--secs", d.secs),
        reactors: flags.num("--reactors", d.reactors),
    };

    println!(
        "== runtime: reactor latency under load, rungs {:?} ==",
        cfg.rungs
    );
    let r = runtime_bench::runtime_run(&cfg);
    let rows: Vec<Vec<String>> = r
        .runs
        .iter()
        .map(|s| {
            vec![
                format!("{}/{}", s.achieved_conns, s.requested_conns),
                s.sent.to_string(),
                s.received.to_string(),
                format!("{:.0}", s.ops_per_sec),
                format!("{} us", s.p50_micros),
                format!("{} us", s.p99_micros),
                s.threads_peak.to_string(),
            ]
        })
        .collect();
    table::print(
        &[
            "conns (got/asked)",
            "sent",
            "received",
            "ops/sec",
            "p50",
            "p99",
            "threads",
        ],
        &rows,
    );
    for f in &r.failures {
        println!("runtime: check failed: {f}");
    }
    // The CI smoke greps the dump for `reactor.threads` and
    // `reactor.accept.handoffs`.
    dump_metrics();
    finish(&r);
}

/// A scenario command, run with the flags that follow its name.
type Scenario = fn(&[String]);

/// Scenarios: the first argument names one, the rest are its flags. The
/// load generator `runtime` spawns is one too, left off the usage line on
/// purpose.
const SCENARIOS: [(&str, Scenario); 5] = [
    ("runtime-loadgen", runtime_bench::loadgen_main),
    ("runtime", runtime),
    ("soak", soak),
    ("churn", churn),
    ("audit", audit),
];

/// Experiments: any subset by name, all of them with no argument.
const EXPERIMENTS: [(&str, fn()); 22] = [
    ("e1", e1),
    ("e2", e2),
    ("e3", e3),
    ("e4", e4),
    ("e5", e5),
    ("e6", e6),
    ("e7", e7),
    ("e8", e8),
    ("e9", e9),
    ("e10", e10),
    ("e11", e11),
    ("e12", e12),
    ("e13", e13),
    ("wire", wire),
    ("shard", shard),
    ("trace", trace),
    ("metrics", metrics),
    ("a1", a1),
    ("a2", a2),
    ("a3", a3),
    ("a4", a4),
    ("a5", a5),
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let first = args.first().map_or("", String::as_str);
    if let Some((_, run)) = SCENARIOS.iter().find(|(name, _)| *name == first) {
        return run(&args[1..]);
    }
    let selected: Vec<&(&str, fn())> = EXPERIMENTS
        .iter()
        .filter(|(name, _)| args.is_empty() || args.iter().any(|a| a == name))
        .collect();
    if selected.is_empty() {
        eprintln!(
            "unknown experiment; available: e1..e13, a1..a5, wire, shard, trace, \
             metrics, soak, churn, audit, runtime"
        );
        std::process::exit(2);
    }
    for (_, run) in selected {
        run();
        println!();
    }
}
