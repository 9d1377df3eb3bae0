//! Regenerates every experiment in EXPERIMENTS.md.
//!
//! ```text
//! cargo run -p safereg-bench --bin paper_harness            # everything
//! cargo run -p safereg-bench --bin paper_harness e1 e5 a2   # selected
//! ```

use safereg_bench::ablations;
use safereg_bench::audit as audit_harness;
use safereg_bench::chaos as chaos_scenario;
use safereg_bench::churn as churn_scenario;
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
    println!(
        "{}",
        table::render(&["protocol", "n", "f", "verdict", "evidence"], &rows)
    );
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
    println!(
        "{}",
        table::render(
            &["protocol", "read rounds", "write rounds", "one-shot"],
            &rows
        )
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
    println!(
        "{}",
        table::render(
            &["protocol", "write hops", "read hops", "write vs BSR"],
            &rows
        )
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
    println!(
        "{}",
        table::render(
            &[
                "n",
                "k",
                "repl bytes",
                "coded bytes",
                "measured save",
                "theory k",
                "repl wire",
                "coded wire"
            ],
            &rows
        )
    );
}

fn replay_table(title: &str, rows: Vec<experiments::ReplayRow>) {
    println!("{title}");
    let rows: Vec<Vec<String>> = rows
        .into_iter()
        .map(|r| vec![r.name, yes_no(r.safe), yes_no(r.fresh), r.read_returned])
        .collect();
    println!(
        "{}",
        table::render(&["scenario", "safe", "fresh", "read returned"], &rows)
    );
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
    println!(
        "{}",
        table::render(
            &[
                "reads",
                "protocol",
                "ops",
                "read lat",
                "read p99",
                "write lat",
                "ops/ktick",
                "B/op",
                "safe"
            ],
            &rows
        )
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
    println!(
        "{}",
        table::render(&["protocol", "silent", "completed", "as expected"], &rows)
    );
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
    println!(
        "{}",
        table::render(&["runs", "writes", "duplicate tags", "inversions"], &rows)
    );
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
    println!(
        "{}",
        table::render(&["protocol", "safe", "fresh", "new/old inversions"], &rows)
    );
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
    println!(
        "{}",
        table::render(
            &[
                "writes",
                "BSR read B",
                "BSR-H cold B",
                "BSR-H warm B",
                "BSR-2P read B"
            ],
            &rows
        )
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
    println!(
        "{}",
        table::render(
            &[
                "scenario",
                "protocol",
                "fast reads",
                "slow reads",
                "fast ratio",
                "validation fails"
            ],
            &rows
        )
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
    println!(
        "{}",
        table::render(&["threshold", "read returned", "safe", "fresh"], &rows)
    );
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
    println!(
        "{}",
        table::render(&["selection", "tag.num after 3 writes", "inflated"], &rows)
    );
}

fn a3() {
    println!("== A3: BCSR decode strategy (DESIGN.md: erasure-marking) ==");
    let rows: Vec<Vec<String>> = ablations::a3_decode_strategy()
        .into_iter()
        .map(|r| vec![r.strategy.into(), yes_no(r.recovered), r.returned])
        .collect();
    println!(
        "{}",
        table::render(
            &["strategy", "recovered fresh value", "read returned"],
            &rows
        )
    );
}

fn a4() {
    println!("== A4: history retention (Fig. 3 literal vs store-all) ==");
    let rows: Vec<Vec<String>> = ablations::a4_history_retention()
        .into_iter()
        .map(|r| vec![r.retention.into(), r.returned, yes_no(r.fresh)])
        .collect();
    println!(
        "{}",
        table::render(&["retention", "BSR-H read returned", "fresh"], &rows)
    );
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
    println!(
        "{}",
        table::render(&["fan-out m", "unsafe schedules"], &rows)
    );
}

fn chaos() {
    println!("== chaos: self-healing TCP under a seeded adversary (sever + blackhole <= f) ==");
    let r = chaos_scenario::chaos_run(0xC4A0_5EED);
    let rows = vec![vec![
        format!("{:#x}", r.seed),
        format!("{}/{}", r.ops_completed, r.ops_attempted),
        r.reconnects.to_string(),
        r.breaker_transitions.to_string(),
        r.backoff_waits.to_string(),
        r.faults_injected.to_string(),
        yes_no(r.safe && r.order_violations == 0),
        yes_no(r.schedule_reproducible),
    ]];
    println!(
        "{}",
        table::render(
            &[
                "seed",
                "ops",
                "reconnects",
                "breaker flips",
                "backoff waits",
                "faults",
                "safe",
                "seed-stable"
            ],
            &rows
        )
    );
    if r.self_healing_ok() {
        println!("chaos: self-healing ok");
    } else {
        println!("chaos: FAILED ({r:?})");
        std::process::exit(1);
    }
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
    println!(
        "{}",
        table::render(
            &[
                "n",
                "f",
                "value",
                "old allocs/write",
                "new allocs/write",
                "ratio",
                "relay frames",
                "relay B copied"
            ],
            &rows
        )
    );
    if let Err(e) = std::fs::write("BENCH_wire.json", r.to_json()) {
        eprintln!("wire: could not write BENCH_wire.json: {e}");
    }
    println!(
        "wire: alloc ratio = {:.2}x (>= 2x required); relay bytes copied = {} (0 required)",
        r.alloc_ratio, r.relay_bytes_copied
    );
    println!(
        "wire: batch flushes = {}, max frames/flush = {} (ceiling {})",
        r.batch_samples, r.batch_max_frames, r.batch_ceiling
    );
    if r.ok() {
        println!("wire: ok");
    } else {
        println!("wire: FAILED ({r:?})");
        std::process::exit(1);
    }
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
    println!(
        "{}",
        table::render(
            &[
                "seed",
                "sim stable/lines",
                "ops",
                "slow reads",
                "unattributed",
                "violations",
                "tree spans",
                "off overhead"
            ],
            &rows
        )
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
    if let Err(e) = std::fs::write("BENCH_trace.json", r.to_json()) {
        eprintln!("trace: could not write BENCH_trace.json: {e}");
    }
    if r.ok() {
        println!("trace: ok");
    } else {
        println!("trace: FAILED ({r:?})");
        std::process::exit(1);
    }
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
    println!(
        "{}",
        table::render(
            &["shards", "skew", "ops", "ops/sec", "p99", "sockets"],
            &rows
        )
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
    if let Err(e) = std::fs::write("BENCH_shard.json", r.to_json()) {
        eprintln!("shard: could not write BENCH_shard.json: {e}");
    }
    if r.ok() {
        println!("shard: ok");
    } else {
        println!("shard: FAILED ({r:?})");
        std::process::exit(1);
    }
}

/// Parses `churn` flags and runs the scenario; exits nonzero on failure.
///
/// ```text
/// paper_harness churn [--ops 200] [--seed 0xC1124E] [--shards 2] [--keys 3]
///                     [--continuous] [--events 6]
/// ```
fn churn(flags: &[String]) -> ! {
    let mut cfg = churn_scenario::ChurnConfig::default();
    let mut i = 0;
    while i < flags.len() {
        let flag = flags[i].as_str();
        // Boolean flags take no value; handle them before the pair logic.
        if flag == "--continuous" {
            cfg.continuous = true;
            i += 1;
            continue;
        }
        let Some(value) = flags.get(i + 1) else {
            eprintln!("churn: {flag} needs a value");
            std::process::exit(2);
        };
        let parse = |what: &str| {
            value.parse::<u64>().unwrap_or_else(|_| {
                eprintln!("churn: {what} must be a number, got {value}");
                std::process::exit(2);
            })
        };
        match flag {
            "--ops" => cfg.ops_per_phase = parse("--ops"),
            "--seed" => cfg.seed = parse("--seed"),
            "--shards" => cfg.shards = parse("--shards") as u16,
            "--keys" => cfg.keys = parse("--keys") as usize,
            "--events" => cfg.events = parse("--events"),
            _ => {
                eprintln!("churn: unknown flag {flag}");
                std::process::exit(2);
            }
        }
        i += 2;
    }

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
    println!(
        "{}",
        table::render(
            &[
                "phase",
                "epoch",
                "ops",
                "failures",
                "ops/sec",
                "p99",
                "adoptions",
                "stale frames"
            ],
            &rows
        )
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
    if let Err(e) = std::fs::write("BENCH_churn.json", r.to_json()) {
        eprintln!("churn: could not write BENCH_churn.json: {e}");
    }
    if r.ok() {
        println!("churn: ok");
        std::process::exit(0);
    }
    println!("churn: FAILED (rerun with --seed {} to replay)", r.seed);
    std::process::exit(1);
}

/// Parses `audit` flags and runs the accountability harness; exits
/// nonzero on failure.
///
/// ```text
/// paper_harness audit [--ops 64] [--seed 0xA0D17EED] [--keys 2]
/// ```
fn audit(flags: &[String]) -> ! {
    let mut cfg = audit_harness::AuditConfig::default();
    let mut i = 0;
    while i < flags.len() {
        let flag = flags[i].as_str();
        let Some(value) = flags.get(i + 1) else {
            eprintln!("audit: {flag} needs a value");
            std::process::exit(2);
        };
        let parse = |what: &str| {
            value.parse::<u64>().unwrap_or_else(|_| {
                eprintln!("audit: {what} must be a number, got {value}");
                std::process::exit(2);
            })
        };
        match flag {
            "--ops" => cfg.ops = parse("--ops"),
            "--seed" => cfg.seed = parse("--seed"),
            "--keys" => cfg.keys = parse("--keys") as usize,
            _ => {
                eprintln!("audit: unknown flag {flag}");
                std::process::exit(2);
            }
        }
        i += 2;
    }

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
    println!(
        "{}",
        table::render(
            &["leg", "accused", "ops", "failures", "evidence", "verdict"],
            &rows
        )
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
    if let Err(e) = std::fs::write("BENCH_audit.json", r.to_json()) {
        eprintln!("audit: could not write BENCH_audit.json: {e}");
    }
    // Full metrics dump: the CI smoke greps this for the audit counters
    // (`kv.audit.evidence`, `kv.audit.convictions`, ...).
    println!(
        "{}",
        safereg_obs::render_jsonl(&safereg_obs::global().snapshot())
    );
    if r.ok() {
        println!("audit: ok");
        std::process::exit(0);
    }
    println!("audit: FAILED (rerun with --seed {} to replay)", r.seed);
    std::process::exit(1);
}

/// Parses `soak` flags and runs the harness; exits nonzero on failure.
///
/// ```text
/// paper_harness soak --ops 20000 --byz f --seed 7 [--epochs 5]
///                    [--writers 4] [--readers 4] [--keys 4] [--shards 4]
///                    [--minutes 10] [--continuous]
/// ```
fn soak(flags: &[String]) -> ! {
    let mut cfg = soak_harness::SoakConfig::default();
    let mut i = 0;
    while i < flags.len() {
        let flag = flags[i].as_str();
        // Boolean flags take no value; handle them before the pair logic.
        if flag == "--continuous" {
            cfg.continuous = true;
            i += 1;
            continue;
        }
        let Some(value) = flags.get(i + 1) else {
            eprintln!("soak: {flag} needs a value");
            std::process::exit(2);
        };
        let parse = |what: &str| {
            value.parse::<u64>().unwrap_or_else(|_| {
                eprintln!("soak: {what} must be a number, got {value}");
                std::process::exit(2);
            })
        };
        match flag {
            "--ops" => cfg.ops = parse("--ops"),
            // `--byz f` pins the count to the deployment's resilience
            // bound; a number is clamped to `f` by the harness anyway.
            "--byz" if value == "f" => cfg.byz = usize::MAX,
            "--byz" => cfg.byz = parse("--byz") as usize,
            "--seed" => cfg.seed = parse("--seed"),
            "--epochs" => cfg.epochs = parse("--epochs") as usize,
            "--writers" => cfg.writers = parse("--writers") as usize,
            "--readers" => cfg.readers = parse("--readers") as usize,
            "--keys" => cfg.keys = parse("--keys") as usize,
            "--shards" => cfg.shards = parse("--shards") as u16,
            "--minutes" => cfg.minutes = parse("--minutes"),
            _ => {
                eprintln!("soak: unknown flag {flag}");
                std::process::exit(2);
            }
        }
        i += 2;
    }

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
    println!(
        "{}",
        table::render(
            &[
                "epoch",
                "byzantine",
                "ops",
                "failures",
                "wall",
                "rss",
                "evictions",
                "restarts"
            ],
            &rows
        )
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
    if let Err(e) = std::fs::write("BENCH_soak.json", r.to_json()) {
        eprintln!("soak: could not write BENCH_soak.json: {e}");
    }
    // Full metrics dump: the CI smoke greps this for the degradation
    // counters (`server.evictions`, `transport.batch.frames`).
    println!(
        "{}",
        safereg_obs::render_jsonl(&safereg_obs::global().snapshot())
    );
    if r.ok() {
        if r.shards > 1 {
            println!("shard: ok");
        }
        println!("soak: ok");
        std::process::exit(0);
    }
    println!("soak: FAILED (rerun with --seed {} to replay)", r.seed);
    std::process::exit(1);
}

/// Parses `runtime` flags and runs the saturation ladder; exits nonzero
/// on failure.
///
/// ```text
/// paper_harness runtime [--conns 1000,10000,50000] [--rate 2000]
///                       [--secs 6] [--reactors 2] [--quick]
/// ```
fn runtime(flags: &[String]) -> ! {
    let mut cfg = runtime_bench::RuntimeConfig::default();
    let mut i = 0;
    while i < flags.len() {
        let flag = flags[i].as_str();
        if flag == "--quick" {
            cfg = runtime_bench::RuntimeConfig::quick();
            i += 1;
            continue;
        }
        let Some(value) = flags.get(i + 1) else {
            eprintln!("runtime: {flag} needs a value");
            std::process::exit(2);
        };
        let parse = |what: &str| {
            value.parse::<u64>().unwrap_or_else(|_| {
                eprintln!("runtime: {what} must be a number, got {value}");
                std::process::exit(2);
            })
        };
        match flag {
            "--conns" => {
                cfg.rungs = value
                    .split(',')
                    .map(|v| {
                        v.parse::<usize>().unwrap_or_else(|_| {
                            eprintln!("runtime: --conns wants a comma list, got {value}");
                            std::process::exit(2);
                        })
                    })
                    .collect();
            }
            "--rate" => cfg.rate = parse("--rate"),
            "--secs" => cfg.secs = parse("--secs"),
            "--reactors" => cfg.reactors = parse("--reactors") as usize,
            _ => {
                eprintln!("runtime: unknown flag {flag}");
                std::process::exit(2);
            }
        }
        i += 2;
    }

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
    println!(
        "{}",
        table::render(
            &[
                "conns (got/asked)",
                "sent",
                "received",
                "ops/sec",
                "p50",
                "p99",
                "threads"
            ],
            &rows
        )
    );
    for f in &r.failures {
        println!("runtime: check failed: {f}");
    }
    if let Err(e) = std::fs::write("BENCH_runtime.json", r.to_json()) {
        eprintln!("runtime: could not write BENCH_runtime.json: {e}");
    }
    // Full metrics dump: the CI smoke greps this for the reactor gauges
    // and counters (`reactor.threads`, `reactor.events`, ...).
    println!(
        "{}",
        safereg_obs::render_jsonl(&safereg_obs::global().snapshot())
    );
    if r.ok() {
        println!("runtime: ok");
        std::process::exit(0);
    }
    println!("runtime: FAILED");
    std::process::exit(1);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // The hidden load-generator child (spawned by `runtime`): not part of
    // the experiment list on purpose.
    if args.first().map(String::as_str) == Some("runtime-loadgen") {
        runtime_bench::loadgen_main(&args[1..]);
    }
    if args.first().map(String::as_str) == Some("runtime") {
        runtime(&args[1..]);
    }
    if args.first().map(String::as_str) == Some("soak") {
        soak(&args[1..]);
    }
    if args.first().map(String::as_str) == Some("churn") {
        churn(&args[1..]);
    }
    if args.first().map(String::as_str) == Some("audit") {
        audit(&args[1..]);
    }
    let all: Vec<(&str, fn())> = vec![
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
        ("chaos", chaos),
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
    let selected: Vec<&(&str, fn())> = if args.is_empty() {
        all.iter().collect()
    } else {
        all.iter()
            .filter(|(name, _)| args.iter().any(|a| a == name))
            .collect()
    };
    if selected.is_empty() {
        eprintln!(
            "unknown experiment; available: e1..e13, a1..a5, chaos, wire, shard, trace, \
             metrics, soak, churn, audit, runtime"
        );
        std::process::exit(2);
    }
    for (_, run) in selected {
        run();
        println!();
    }
}
