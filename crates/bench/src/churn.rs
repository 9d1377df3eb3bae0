//! Churn scenario: rolling reconfiguration under a live Byzantine replica.
//!
//! The epoch machinery ([`EpochConfig`](safereg_common::epoch::EpochConfig),
//! `WrongEpoch` redirects, cross-epoch state transfer) exists so membership
//! can change *while the register keeps serving*. This scenario proves it
//! on the live TCP stack, in the worst company the deployment tolerates:
//!
//! * a two-shard replicated cluster performs one **add**, one **remove**
//!   and one **replace** — three epoch bumps, each a single-replica step
//!   as the quorum-intersection argument demands (DESIGN.md §11) — or,
//!   in `--continuous` mode, steps drawn from the one arrival/departure
//!   process ([`Arrivals`]): joiners arrive under fresh ids and only
//!   joiners depart or get swapped, so base members (the Fabricator
//!   included) stay and live faults never exceed `f` per shard, with
//!   inter-arrival gaps drawn in operations so the schedule replays from
//!   the seed;
//! * a **Fabricator** plays its role on a surviving replica throughout —
//!   the joiner arrives, the leaver drains, and clients adopt successor
//!   configs all while one replica forges tags (its role is
//!   [`Scope::Served`], so each step re-applies it to a group newly placed
//!   on the replica before the step ends);
//! * one client drives a put/get workload across every boundary, judged
//!   online per key — the verdict must stay clean and every operation must
//!   terminate (bounded retries, zero abandoned ops);
//! * each step is one [`Schedule`]: the before ops, a sync barrier, the
//!   step as an async event with as many ops again beside it, a sync
//!   barrier, and the after ops. An op is *before* the step when it ended
//!   before the step started, *after* when it started after the step
//!   ended, and *during* otherwise (the first op issued after the step
//!   started at least), so `BENCH_churn.json` records what an epoch change
//!   costs the workload;
//! * a separate coded (`n = 5f + 3`, BCSR) leg replaces the
//!   smallest-id replica — relabeling every survivor's logical slot —
//!   and asserts by digest that the joiner's fragment was rebuilt by
//!   decoding `m − f` old slices and re-encoding its own, again with a
//!   Fabricator answering the transfer reads.

use safereg_checker::Violation;
use safereg_common::config::QuorumConfig;
use safereg_common::ids::{ReaderId, ServerId, WriterId};
use safereg_common::msg::Payload;
use safereg_common::shard::ShardMap;
use safereg_core::behavior::ByzRole;
use safereg_kv::{entry_digest, KvClient, KvMode, TcpKvCluster};
use safereg_mds::rs::ReedSolomon;
use safereg_mds::stripe::encode_value;
use safereg_obs::names;
use safereg_transport::chaos::{FaultPlan, FaultSpec};

use crate::cli::Report;
use crate::json::Json;
use crate::ops::scenario_transport;
use crate::schedule::{replay, Act, Arrivals, Event, Executor, OpSpan, Record, Schedule, Scope};

/// Knobs for one churn run.
#[derive(Debug, Clone)]
pub struct ChurnConfig {
    /// Master seed: Byzantine forgery streams, the shard placement, and
    /// (in continuous mode) the arrival/departure process.
    pub seed: u64,
    /// Operations before each step, beside it, and after it; the ops
    /// beside it fall into the during or the after phase by time.
    pub ops_per_phase: u64,
    /// Register-group shards for the replicated leg.
    pub shards: u16,
    /// Distinct keys the workload cycles through.
    pub keys: usize,
    /// Continuous mode: instead of the fixed add/remove/replace ladder,
    /// [`ChurnConfig::events`] membership events are drawn from the seeded
    /// arrival/departure process ([`Arrivals`]), with `ops_per_phase` as
    /// the mean gap in operations, so the schedule replays exactly from
    /// the seed.
    pub continuous: bool,
    /// Membership events in continuous mode (ignored by the ladder).
    pub events: u64,
}

impl Default for ChurnConfig {
    fn default() -> Self {
        ChurnConfig {
            seed: 0xC1_124E,
            ops_per_phase: 200,
            shards: 2,
            keys: 3,
            continuous: false,
            events: 6,
        }
    }
}

/// Workload measurement over one phase of one reconfiguration step.
#[derive(Debug, Clone)]
pub struct PhaseStat {
    /// `"add:before"`, `"add:during"`, `"add:after"`, `"remove:…"`, …
    pub label: String,
    /// Cluster epoch when the phase ended.
    pub epoch: u32,
    /// Operations completed in the phase.
    pub ops: u64,
    /// Operations abandoned in the phase (retry budget exhausted).
    pub failures: u64,
    /// Completed operations per wall-clock second.
    pub ops_per_sec: f64,
    /// 99th-percentile op latency in microseconds.
    pub p99_micros: u64,
    /// Operations of the phase during which the client switched
    /// membership on `f + 1` matching redirect votes.
    pub adoptions: u64,
    /// `kv.epoch.stale_frames` delta over the step: frames servers
    /// bounced (counted in the during phase).
    pub stale_frames: u64,
}

/// Outcome of one churn run.
#[derive(Debug, Clone)]
pub struct ChurnReport {
    /// The master seed.
    pub seed: u64,
    /// `"ladder"` or `"continuous"`.
    pub mode: &'static str,
    /// Reconfiguration steps the run scheduled (3 for the ladder,
    /// [`ChurnConfig::events`] in continuous mode).
    pub expected_steps: u32,
    /// Reconfiguration steps that applied cleanly.
    pub steps: u32,
    /// Cluster epoch after the last step (one bump per applied step).
    pub final_epoch: u32,
    /// The Byzantine role live through every step.
    pub byz_role: &'static str,
    /// Before/during/after measurements, three per step.
    pub phases: Vec<PhaseStat>,
    /// Per-key safety violations found by the windowed checkers.
    pub violations: Vec<Violation>,
    /// Operations attempted across all phases.
    pub ops_attempted: u64,
    /// Operations completed across all phases.
    pub ops_completed: u64,
    /// Operations abandoned across all phases — 0 required: every op
    /// must terminate, through redirects, transfer and forged tags.
    pub failures: u64,
    /// `kv.reconfig.transfer.keys` delta: entries state-transferred.
    pub transfer_keys: u64,
    /// `kv.read.slow_cause.reconfig_transfer` delta: slow reads the span
    /// layer attributed to an epoch adoption mid-read.
    pub reconfig_slow_reads: u64,
    /// Coded leg: the joiner's stored fragment matched the digest of the
    /// slice its logical slot demands, re-encoded from the decoded value.
    pub coded_digest_ok: bool,
    /// Coded leg: the logical slot the joiner rebuilt.
    pub coded_joiner_logical: u16,
}

impl Report for ChurnReport {
    const NAME: &'static str = "churn";

    /// Every scheduled step applied, zero checker violations, zero
    /// abandoned ops, every phase made progress, and the coded joiner
    /// rebuilt its fragment.
    fn ok(&self) -> bool {
        self.steps == self.expected_steps
            && self.final_epoch == self.expected_steps
            && self.violations.is_empty()
            && self.failures == 0
            && self.phases.iter().all(|p| p.ops > 0)
            && self.coded_digest_ok
    }

    fn json(&self) -> Json {
        let phases = self.phases.iter().map(|p| {
            Json::object()
                .str("label", &p.label)
                .num("epoch", p.epoch)
                .num("ops", p.ops)
                .num("failures", p.failures)
                .float("ops_per_sec", p.ops_per_sec, 1)
                .num("p99_micros", p.p99_micros)
                .num("adoptions", p.adoptions)
                .num("stale_frames", p.stale_frames)
                .end()
        });
        Json::object()
            .num("seed", self.seed)
            .str("mode", self.mode)
            .num("expected_steps", self.expected_steps)
            .num("steps", self.steps)
            .num("final_epoch", self.final_epoch)
            .str("byz_role", self.byz_role)
            .field("phases", Json::array(phases))
            .num("violations", self.violations.len())
            .num("ops_attempted", self.ops_attempted)
            .num("ops_completed", self.ops_completed)
            .num("failures", self.failures)
            .num("transfer_keys", self.transfer_keys)
            .num("reconfig_slow_reads", self.reconfig_slow_reads)
            .num("coded_digest_ok", self.coded_digest_ok)
            .num("coded_joiner_logical", self.coded_joiner_logical)
            .num("ok", self.ok())
            .end()
    }
}

/// Attempts per logical operation. Generous because an op can land in the
/// middle of a flip *and* meet a Fabricator on the same quorum — it must
/// still terminate.
const OP_RETRIES: usize = 8;

/// The replica that plays the Fabricator: it survives the add, the remove
/// and the replace, so the role overlaps every epoch change.
const FABRICATOR: ServerId = ServerId(3);

/// The workload's one client.
const CLIENT: u16 = 1;

/// The churn generator: one schedule per membership step — the fixed
/// add/remove/replace ladder, or steps drawn from [`Arrivals`] with
/// `ops_per_phase` as the mean gap. Each schedule runs the step's before
/// ops, the step beside as many ops again, and the after ops, with a sync
/// barrier on either side of the step's ops (the step starts once the
/// before ops have finished, the after ops once the step has); the first
/// also makes the Fabricator a [`Scope::Served`] role.
pub(crate) fn steps(cfg: &ChurnConfig) -> Vec<Schedule> {
    let n = cfg.ops_per_phase.max(1);
    let acts: Vec<(u64, Act)> = if cfg.continuous {
        let mut arrivals = Arrivals::new(cfg.seed ^ 0xC027_17EE, n);
        (0..cfg.events.max(1))
            .map(|_| arrivals.next_event())
            .collect()
    } else {
        vec![
            (n, Act::Add(ServerId(5))),
            (n, Act::Remove(ServerId(0))),
            (n, Act::Replace(ServerId(1), ServerId(6))),
        ]
    };
    let keys = cfg.keys.max(1);
    let ops = |count: u64| {
        (0..count as usize).map(move |i| match i % 2 {
            0 => Event::Put(CLIENT, i % keys),
            _ => Event::Get(CLIENT, i % keys),
        })
    };
    let forger = Act::SetRole(FABRICATOR, Scope::Served, ByzRole::Fabricator, cfg.seed);
    let mut out = Vec::with_capacity(acts.len());
    for (before, act) in acts {
        let mut s = Schedule::new(cfg.seed);
        if out.is_empty() {
            s.extend([Event::Sync(forger)]);
        }
        let barrier = Event::Sync(Act::Barrier);
        s.extend(ops(before));
        s.extend([barrier, Event::Async(act)]);
        s.extend(ops(n));
        s.extend([barrier]);
        s.extend(ops(n));
        out.push(s);
    }
    out
}

/// A step's name in the phase labels.
fn step_label(i: usize, act: Act, continuous: bool) -> String {
    match (continuous, act) {
        (false, Act::Add(_)) => "add".into(),
        (false, Act::Remove(_)) => "remove".into(),
        (false, _) => "replace".into(),
        (true, Act::Add(s)) => format!("e{i}:arrival(s{})", s.0),
        (true, Act::Remove(s)) => format!("e{i}:departure(s{})", s.0),
        (true, Act::Replace(old, new)) => format!("e{i}:swap(s{}->s{})", old.0, new.0),
        (true, _) => format!("e{i}"),
    }
}

/// Folds one step's record into its before, during and after phases:
/// ops that ended before the step started, that overlap it, and that
/// started after it ended — save the first op issued after the step
/// started, which is always *during*. Stale frames only bounce around
/// the flip, so the step's whole `stale` delta goes to the during phase.
fn phases(label: &str, record: &Record, epochs: (u32, u32), stale: u64) -> Vec<PhaseStat> {
    let step = record.events.iter().find(|e| e.act.is_membership());
    let step = step.expect("every churn schedule holds one step");
    let first_beside = record.ops.iter().position(|o| o.start >= step.start);
    let mut split: [Vec<&OpSpan>; 3] = Default::default();
    for (i, o) in record.ops.iter().enumerate() {
        let phase = match (o.end < step.start, o.start > step.end) {
            (true, _) => 0,
            (_, true) if Some(i) != first_beside => 2,
            _ => 1,
        };
        split[phase].push(o);
    }
    let names = ["before", "during", "after"];
    let at_epoch = [epochs.0, epochs.0 + 1, epochs.1];
    split
        .iter()
        .enumerate()
        .map(|(i, ops)| {
            let mut latencies: Vec<u64> = ops
                .iter()
                .map(|o| (o.end - o.start).as_micros() as u64)
                .collect();
            latencies.sort_unstable();
            let p99 =
                latencies.get((latencies.len() * 99 / 100).min(latencies.len().saturating_sub(1)));
            let first = ops.iter().map(|o| o.start).min().unwrap_or_default();
            let last = ops.iter().map(|o| o.end).max().unwrap_or_default();
            let done = ops.iter().filter(|o| o.tag.is_some()).count() as u64;
            PhaseStat {
                label: format!("{label}:{}", names[i]),
                epoch: at_epoch[i],
                ops: done,
                failures: ops.len() as u64 - done,
                ops_per_sec: done as f64 / (last.saturating_sub(first)).as_secs_f64().max(1e-9),
                p99_micros: p99.copied().unwrap_or(0),
                adoptions: ops.iter().filter(|o| o.adopted).count() as u64,
                stale_frames: if i == 1 { stale } else { 0 },
            }
        })
        .collect()
}

/// Coded leg: a BCSR cluster (`n = 8, f = 1, k = 3`) replaces its
/// smallest-id replica, which relabels every survivor's logical slot.
/// Returns whether the joiner's stored fragment equals the digest of the
/// slice its new slot demands (re-encoded from the decoded value) and
/// the slot index it rebuilt.
fn coded_fragment_check(seed: u64) -> (bool, u16) {
    let q = QuorumConfig::new(8, 1).expect("n = 8, f = 1 is a valid BCSR point");
    let mut cluster = match TcpKvCluster::builder(KvMode::Coded, b"churn-coded")
        .quorum(q)
        .start()
    {
        Ok(c) => c,
        Err(_) => return (false, 0),
    };
    let mut transport = cluster.transport();
    let mut client = KvClient::new_coded(q, WriterId(40), ReaderId(40));
    let blob: Vec<u8> = (0..4096u64)
        .map(|i| (i.wrapping_mul(31) ^ seed) as u8)
        .collect();
    if client.put(&mut transport, b"fragment", blob).is_err() {
        return (false, 0);
    }
    // The forger answers the transfer's decode reads too.
    let _ = cluster.set_role(ServerId(2), ByzRole::Fabricator, seed);
    let Ok((value, tag)) = client.get_with_tag(&mut transport, b"fragment") else {
        return (false, 0);
    };
    if cluster.replace_replica(ServerId(0), ServerId(9)).is_err() {
        return (false, 0);
    }
    let g = cluster.map().shard_of(b"fragment");
    let Some(logical) = cluster.map().logical_of(g, ServerId(9)) else {
        return (false, 0);
    };
    let code = ReedSolomon::new(q.n(), q.mds_k().expect("coded point")).expect("valid code");
    let elems = encode_value(&code, &value);
    let expected = entry_digest(&tag, &Payload::Coded(elems[logical.0 as usize].clone()));
    (
        cluster.payload_digest(ServerId(9), g, b"fragment") == Some(expected),
        logical.0,
    )
}

/// Runs the churn scenario: single-replica reconfiguration steps (the
/// fixed add/remove/replace ladder, or the arrival/departure process in
/// [continuous](ChurnConfig::continuous) mode) on a live two-shard
/// replicated cluster with a Fabricator active throughout, then the coded
/// fragment-rebuild check.
///
/// # Panics
///
/// Panics when the cluster cannot be started — an environment failure,
/// not a churn outcome.
pub fn churn_run(cfg: &ChurnConfig) -> ChurnReport {
    let q = QuorumConfig::minimal_bsr(1).expect("n = 5, f = 1 is valid");
    let tconfig = scenario_transport();
    let map = ShardMap::new(cfg.seed, cfg.shards.max(1), q.servers().collect(), q)
        .expect("m = n fits the fleet");

    let reg = safereg_obs::global();
    let transfer0 = reg.counter(names::KV_TRANSFER_KEYS).get();
    let slow0 = reg
        .counter(&names::slow_cause_counter("reconfig_transfer"))
        .get();

    // Calm chaos proxies front every replica: mild jitter without drops,
    // so each epoch step crosses a perturbed (but live) network.
    let mut cluster = TcpKvCluster::builder(KvMode::Replicated, b"churn-harness")
        .shards(map.clone())
        .config(tconfig)
        .chaos(FaultPlan::new(cfg.seed, FaultSpec::calm()))
        .start()
        .expect("start churn cluster");
    let keys = (0..cfg.keys.max(1)).map(|k| format!("churn-k{k}").into_bytes());
    let mut exec = Executor::new(keys.collect(), OP_RETRIES, tconfig);

    let schedules = steps(cfg);
    let (mut phase_stats, mut applied) = (Vec::with_capacity(schedules.len() * 3), 0);
    let (mut attempted, mut completed) = (0, 0);
    for (i, schedule) in schedules.iter().enumerate() {
        let (epoch0, stale0) = (
            cluster.epoch(),
            reg.counter(names::KV_EPOCH_STALE_FRAMES).get(),
        );
        let record = exec.run(&mut cluster, schedule);
        let stale = reg.counter(names::KV_EPOCH_STALE_FRAMES).get() - stale0;
        let act = schedule.events.iter().find_map(|e| match *e {
            Event::Async(act) => Some(act),
            _ => None,
        });
        let label = step_label(i, act.expect("one step"), cfg.continuous);
        phase_stats.extend(phases(&label, &record, (epoch0, cluster.epoch()), stale));
        applied += record.membership_applied() as u32;
        attempted += record.ops.len() as u64;
        completed += record.completed();
    }

    let violations = exec.close().violations;
    if !violations.is_empty() {
        safereg_obs::dump_flight("violation");
    }

    let final_epoch = cluster.epoch();
    let (coded_digest_ok, coded_joiner_logical) = coded_fragment_check(cfg.seed);

    let report = ChurnReport {
        seed: cfg.seed,
        mode: if cfg.continuous {
            "continuous"
        } else {
            "ladder"
        },
        expected_steps: schedules.len() as u32,
        steps: applied,
        final_epoch,
        byz_role: ByzRole::Fabricator.label(),
        phases: phase_stats,
        violations,
        ops_attempted: attempted,
        ops_completed: completed,
        failures: attempted - completed,
        transfer_keys: reg.counter(names::KV_TRANSFER_KEYS).get() - transfer0,
        reconfig_slow_reads: reg
            .counter(&names::slow_cause_counter("reconfig_transfer"))
            .get()
            - slow0,
        coded_digest_ok,
        coded_joiner_logical,
    };
    if !report.ok() {
        replay(ChurnReport::NAME, cfg.seed, &schedules);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A miniature churn: the full add/remove/replace ladder with a live
    /// Fabricator and a small workload — clean verdict, every op
    /// terminated, coded fragment rebuilt.
    #[test]
    fn tiny_churn_is_clean() {
        let cfg = ChurnConfig {
            seed: 21,
            ops_per_phase: 30,
            shards: 2,
            keys: 2,
            ..ChurnConfig::default()
        };
        let report = churn_run(&cfg);
        for p in &report.phases {
            eprintln!(
                "{}: epoch {}, {} ops, {:.0} ops/sec, p99 {} us, {} adoptions",
                p.label, p.epoch, p.ops, p.ops_per_sec, p.p99_micros, p.adoptions
            );
        }
        // A step counts only once the Fabricator is back on every group the
        // step placed on it, so no op starts after the step with it honest.
        assert_eq!(report.steps, 3, "a reconfiguration step failed");
        assert_eq!(report.final_epoch, 3);
        assert!(
            report.violations.is_empty(),
            "churn found safety violations: {:?}",
            report.violations
        );
        assert_eq!(report.failures, 0, "an operation failed to terminate");
        assert!(report.coded_digest_ok, "coded joiner fragment mismatch");
        assert!(
            report.phases.iter().any(|p| p.adoptions > 0),
            "no client ever adopted a successor config"
        );
        assert!(report.transfer_keys > 0, "no state was transferred");
        assert!(report.ok(), "{report:?}");
    }

    /// Continuous mode: the arrival/departure process replaces the
    /// ladder — every drawn event applies, the verdict stays clean, and
    /// the schedule is a pure function of the seed (same seed, same
    /// phase labels).
    #[test]
    fn tiny_continuous_churn_is_clean() {
        let cfg = ChurnConfig {
            seed: 33,
            ops_per_phase: 20,
            shards: 2,
            keys: 2,
            continuous: true,
            events: 4,
        };
        let report = churn_run(&cfg);
        for p in &report.phases {
            eprintln!("{}: epoch {}, {} ops", p.label, p.epoch, p.ops);
        }
        assert_eq!(report.mode, "continuous");
        assert_eq!(report.steps, 4, "a drawn membership event failed");
        assert_eq!(report.final_epoch, 4);
        assert!(
            report.violations.is_empty(),
            "continuous churn found safety violations: {:?}",
            report.violations
        );
        assert_eq!(report.failures, 0, "an operation failed to terminate");
        assert!(
            report.phases[0].label.starts_with("e0:arrival"),
            "first event must be an arrival (nobody can depart yet): {}",
            report.phases[0].label
        );
        let replay = churn_run(&cfg);
        let labels =
            |r: &ChurnReport| -> Vec<String> { r.phases.iter().map(|p| p.label.clone()).collect() };
        assert_eq!(
            labels(&report),
            labels(&replay),
            "the arrival/departure schedule must replay from the seed"
        );
        assert!(report.ok(), "{report:?}");
    }
}
