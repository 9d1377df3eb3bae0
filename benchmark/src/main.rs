//! The repo's benchmark. See README.md.
//!
//! ```text
//! safereg-benchmark run [--workload <name>] [--seed <u64>] [--seconds <n>] [--trace <0|1>] [--quick]
//! safereg-benchmark compare <baseline.json> <candidate.json>
//! ```
//!
//! With `--workload`, `run` measures that one workload and prints, as the
//! last line of its output, one JSON object with the keys `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics under
//! `--trace 0`, the per-layer ledger under `--trace 1`. Without it, `run`
//! measures every workload both ways and writes `out/result.json`.

mod layers;
mod load;
mod report;
mod run;
mod span;
mod stats;
mod workload;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use report::{json_num, json_str, metrics_json, Json, MetricDef, END_TO_END, PER_LAYER};
use run::{Plan, RunResult};
use workload::{Spec, SPECS, STRAGGLER_DELAY_US, WORKERS};

const DEFAULT_SECONDS: f64 = 20.0;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => parse_run(&args[1..]).and_then(|r| run(&r)),
        Some("compare") if args.len() == 3 => compare(Path::new(&args[1]), Path::new(&args[2])),
        _ => Err("usage: run [--workload <name>] [--seed <u64>] [--seconds <n>] [--trace <0|1>] [--quick]\n       compare <baseline.json> <candidate.json>".into()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("{message}");
            ExitCode::from(2)
        }
    }
}

struct RunArgs {
    workload: Option<&'static Spec>,
    seed: u64,
    plan: Plan,
    trace: bool,
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut out = RunArgs {
        workload: None,
        seed: 1,
        plan: Plan::new(DEFAULT_SECONDS),
        trace: false,
    };
    let mut quick = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--quick" {
            quick = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => out.workload = Some(workload::spec(value).ok_or_else(bad)?),
            "--seed" => out.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                let seconds: f64 = value.parse().map_err(|_| bad())?;
                if !(1.0..=600.0).contains(&seconds) {
                    return Err(bad());
                }
                out.plan = Plan::new(seconds);
            }
            "--trace" => out.trace = value.parse::<u8>().map_err(|_| bad())? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if quick {
        out.plan = Plan::quick();
    }
    Ok(out)
}

fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()?;
    let text = String::from_utf8(out.stdout).ok()?;
    (out.status.success() && !text.trim().is_empty()).then(|| text.trim().to_string())
}

/// Host facts every result is read against.
fn host_facts() -> Vec<(&'static str, String)> {
    let read = |path: &str| std::fs::read_to_string(path).unwrap_or_default();
    let limits = read("/proc/self/limits");
    let fds = limits.lines().find(|l| l.starts_with("Max open files"));
    let fd_soft = fds
        .and_then(|l| l.split_whitespace().nth(3))
        .unwrap_or("unknown");
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let unknown = || "unknown".to_string();
    let manifest_dir = env!("CARGO_MANIFEST_DIR");
    vec![
        ("nproc", nproc.to_string()),
        (
            "kernel",
            read("/proc/sys/kernel/osrelease").trim().to_string(),
        ),
        ("fd_soft_limit", fd_soft.to_string()),
        (
            "rustc",
            command_line("rustc", &["-V"]).unwrap_or_else(unknown),
        ),
        (
            "git_commit",
            command_line("git", &["-C", manifest_dir, "rev-parse", "--short", "HEAD"])
                .unwrap_or_else(unknown),
        ),
    ]
}

fn print_header(args: &RunArgs, host: &[(&'static str, String)]) {
    for (key, value) in host {
        println!("# {key}: {value}");
    }
    let p = &args.plan;
    println!(
        "# seed: {}  workers: {WORKERS}  rounds: {}  open phase: {:.2} s  closed phase: {:.2} s{}",
        args.seed,
        p.rounds,
        p.open.as_secs_f64(),
        p.closed.as_secs_f64(),
        if p.quick { "  (--quick)" } else { "" }
    );
    println!("# straggler: replica {} is reached through a proxy that delays every frame {STRAGGLER_DELAY_US} us, each way",
        workload::STRAGGLER_SERVER);
}

fn print_metrics(spec: &Spec, defs: &[MetricDef], result: &RunResult) {
    for d in defs {
        println!(
            "{} {} {} {}",
            spec.name,
            d.name,
            json_num(result.metrics[d.name]),
            d.unit
        );
    }
    println!(
        "# {}: attempted {} completed {} failed {} wrong_reads {}",
        spec.name,
        result.attempted,
        result.attempted - result.failed,
        result.failed,
        result.wrong_reads
    );
    for problem in &result.problems {
        println!("# {}: INCORRECT: {problem}", spec.name);
    }
}

fn run(args: &RunArgs) -> Result<bool, String> {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    if WORKERS > nproc {
        return Err(format!(
            "refusing to run {WORKERS} load threads on {nproc} cores"
        ));
    }
    match args.workload {
        Some(spec) => run_one(args, spec),
        None => run_all(args),
    }
}

/// Measures one workload one way and prints the result line.
fn run_one(args: &RunArgs, spec: &Spec) -> Result<bool, String> {
    print_header(args, &host_facts());
    let e2e: Vec<MetricDef> = END_TO_END.iter().map(|(d, _)| *d).collect();
    let (defs, result): (&[MetricDef], _) = if args.trace {
        let result = run::layers(spec, args.seed, &args.plan, &out_dir());
        (&PER_LAYER, result)
    } else {
        (&e2e, run::end_to_end(spec, args.seed, &args.plan))
    };
    let r = result.map_err(|e| format!("{}: {e}", spec.name))?;
    print_metrics(spec, defs, &r);
    println!(
        r#"{{"correct": {}, "attempted": {}, "failed": {}, "metrics": {}}}"#,
        r.correct(),
        r.attempted,
        r.failed,
        metrics_json(defs, &r.metrics)
    );
    Ok(r.correct())
}

const METRICS_KEY: &str = r#""metrics": "#;

/// Measures every workload both ways — each as a process of its own, exactly
/// as the driver runs it, so no measurement inherits another's heap — and
/// writes `out/result.json`.
fn run_all(args: &RunArgs) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let p = &args.plan;
    let mut workloads = String::new();
    let mut correct = true;
    for (i, spec) in SPECS.iter().enumerate() {
        let (mut attempted, mut failed) = (0.0, 0.0);
        let mut metrics = Vec::new();
        for trace in ["0", "1"] {
            let mut child = std::process::Command::new(&exe);
            child.args(["run", "--workload", spec.name, "--trace", trace]);
            child.args(["--seed", &args.seed.to_string()]);
            if p.quick {
                child.arg("--quick");
            } else {
                child.args(["--seconds", &p.seconds.to_string()]);
            }
            let out = child
                .stderr(std::process::Stdio::inherit())
                .output()
                .map_err(|e| e.to_string())?;
            let stdout = String::from_utf8_lossy(&out.stdout);
            print!("{stdout}");
            let line = stdout.lines().last().unwrap_or_default();
            let doc = Json::parse(line).map_err(|e| format!("{}: {e}", spec.name))?;
            let count = |key| doc.get(key).and_then(Json::num).unwrap_or(f64::NAN);
            correct &= doc.get("correct") == Some(&Json::Bool(true));
            attempted += count("attempted");
            failed += count("failed");
            let at = line.find(METRICS_KEY).ok_or("result line has no metrics")?;
            metrics.push(line[at + METRICS_KEY.len()..line.len() - 1].to_string());
        }
        write!(workloads,
            r#"{}"{}": {{"attempted": {attempted}, "failed": {failed}, "fail_ratio": {}, "end_to_end": {}, "per_layer": {}}}"#,
            if i == 0 { "" } else { ",\n  " }, spec.name, json_num(failed / attempted), metrics[0], metrics[1],
        ).expect("write to String");
    }
    let path = out_dir().join("result.json");
    if !correct {
        // A breach leaves no result behind to be compared against.
        let _ = std::fs::remove_file(&path);
        return Ok(false);
    }
    let host: Vec<String> = host_facts()
        .iter()
        .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
        .collect();
    let doc = format!(
        "{{\"quick\": {}, \"seed\": {}, \"seconds\": {}, \"rounds\": {}, \"open_phase_s\": {}, \"closed_phase_s\": {},\n \"host\": {{{}}},\n \"workloads\": {{\n  {workloads}\n }}}}\n",
        p.quick, args.seed, json_num(p.seconds), p.rounds, json_num(p.open.as_secs_f64()), json_num(p.closed.as_secs_f64()), host.join(", "),
    );
    std::fs::create_dir_all(out_dir())
        .and_then(|()| std::fs::write(&path, doc))
        .map_err(|e| e.to_string())?;
    println!("# wrote {}", path.display());
    Ok(true)
}

fn compare(base: &Path, new: &Path) -> Result<bool, String> {
    let load = |path: &Path| {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    };
    let verdicts = report::compare(&load(base)?, &load(new)?)?;
    println!(
        "{:<12} {:<14} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "baseline", "candidate", "worse by", "bound"
    );
    for v in &verdicts {
        println!(
            "{:<12} {:<14} {:>14.4} {:>14.4} {:>8.1}% {:>6.0}%{}",
            v.workload,
            v.metric,
            v.base,
            v.new,
            v.worse_by * 100.0,
            v.bound * 100.0,
            if v.breach { "  BREACH" } else { "" }
        );
    }
    let breaches = verdicts.iter().filter(|v| v.breach).count();
    println!("{breaches} breach(es) in {} comparisons", verdicts.len());
    Ok(breaches == 0)
}
