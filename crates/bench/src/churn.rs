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
//!   in `--continuous` mode, a seeded [`DetRng`] arrival/departure
//!   process: joiners arrive under fresh ids and only joiners depart or
//!   get swapped, so base members (the Fabricator included) stay and
//!   live faults never exceed `f` per shard, with inter-arrival gaps
//!   drawn in operations so the schedule replays from the seed;
//! * a **Fabricator** plays its role on a surviving replica throughout —
//!   the joiner arrives, the leaver drains, and clients adopt successor
//!   configs all while one replica forges tags (the role is re-asserted
//!   after every step, since a re-placed group restarts honest);
//! * one client drives a put/get workload across every boundary, judged
//!   online by a [`CheckedKeys`] checker per key — the verdict must stay
//!   clean and every operation must terminate (bounded retries, zero
//!   abandoned ops);
//! * throughput and p99 latency are sampled **before**, **during** and
//!   **after** each step, so `BENCH_churn.json` records what an epoch
//!   change costs the workload;
//! * a separate coded (`n = 5f + 3`, BCSR) leg replaces the
//!   smallest-id replica — relabeling every survivor's logical slot —
//!   and asserts by digest that the joiner's fragment was rebuilt by
//!   decoding `m − f` old slices and re-encoding its own, again with a
//!   Fabricator answering the transfer reads.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use safereg_checker::Violation;
use safereg_common::config::QuorumConfig;
use safereg_common::ids::{ReaderId, ServerId, WriterId};
use safereg_common::msg::{OpId, Payload};
use safereg_common::rng::DetRng;
use safereg_common::shard::ShardMap;
use safereg_common::value::Value;
use safereg_core::behavior::ByzRole;
use safereg_kv::{entry_digest, KvClient, KvMode, TcpKvCluster, TcpKvTransport};
use safereg_mds::rs::ReedSolomon;
use safereg_mds::stripe::encode_value;
use safereg_obs::names;
use safereg_transport::chaos::{FaultPlan, FaultSpec};

use crate::cli::Report;
use crate::json::Json;
use crate::ops::{scenario_transport, set_role_everywhere, CheckedKeys};

/// Knobs for one churn run.
#[derive(Debug, Clone)]
pub struct ChurnConfig {
    /// Master seed: Byzantine forgery streams, the shard placement, and
    /// (in continuous mode) the arrival/departure process.
    pub seed: u64,
    /// Operations per measured before/after phase (the during phase runs
    /// as many as fit while the reconfiguration is in flight).
    pub ops_per_phase: u64,
    /// Register-group shards for the replicated leg.
    pub shards: u16,
    /// Distinct keys the workload cycles through.
    pub keys: usize,
    /// Continuous mode: instead of the fixed add/remove/replace ladder,
    /// [`ChurnConfig::events`] membership events are drawn from a seeded
    /// [`DetRng`] arrival/departure process — joiners arrive under fresh
    /// ids, only joiners ever depart (base members, including the live
    /// Fabricator, stay), so the per-shard fault count never exceeds `f`.
    /// Inter-arrival times are drawn in *operations*: each event's
    /// "before" phase length is a DetRng draw, so the schedule replays
    /// exactly from the seed.
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
    /// `kv.epoch.adoptions` delta over the phase: clients that switched
    /// membership mid-operation on `f + 1` matching redirect votes.
    pub adoptions: u64,
    /// `kv.epoch.stale_frames` delta: frames servers bounced.
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

/// Mutable workload state threaded through every phase.
struct Workload {
    client: KvClient,
    transport: TcpKvTransport,
    keys: Vec<Vec<u8>>,
    checked: CheckedKeys,
    /// Next OpId sequence per identity (writes, reads).
    seq: (u64, u64),
}

impl Workload {
    /// One terminated logical operation (alternating put/get by `i`),
    /// judged by the key's checker. Returns the op latency in micros.
    fn one_op(&mut self, i: u64) -> u64 {
        let kidx = (i as usize) % self.keys.len();
        let key = &self.keys[kidx];
        let started = Instant::now();
        if i.is_multiple_of(2) {
            self.seq.0 += 1;
            let value = Value::from(format!("churn:w{}", self.seq.0).into_bytes());
            let op = OpId::new(WriterId(1), self.seq.0);
            self.checked.write(kidx, op, &value, || {
                self.client.put(&mut self.transport, key, value.clone())
            });
        } else {
            self.seq.1 += 1;
            let op = OpId::new(ReaderId(1), self.seq.1);
            self.checked.read(kidx, op, || {
                self.client.get_with_tag(&mut self.transport, key)
            });
        }
        started.elapsed().as_micros() as u64
    }

    /// Drives ops until `count` is reached or `stop` flips (at least one
    /// op either way) and folds the window into a [`PhaseStat`].
    fn run_phase(
        &mut self,
        label: &str,
        epoch_after: u32,
        count: u64,
        stop: Option<&AtomicBool>,
    ) -> PhaseStat {
        let reg = safereg_obs::global();
        let adoptions0 = reg.counter(names::KV_EPOCH_ADOPTIONS).get();
        let stale0 = reg.counter(names::KV_EPOCH_STALE_FRAMES).get();
        let completed0 = self.checked.completed();
        let failures0 = self.checked.failures();
        let started = Instant::now();
        let mut latencies = Vec::new();
        let mut i = 0u64;
        loop {
            latencies.push(self.one_op(i));
            i += 1;
            let done = match stop {
                Some(flag) => flag.load(Ordering::Acquire) || i >= count,
                None => i >= count,
            };
            if done {
                break;
            }
        }
        let elapsed = started.elapsed().as_secs_f64().max(1e-9);
        latencies.sort_unstable();
        let p99 = latencies[((latencies.len() * 99) / 100).min(latencies.len() - 1)];
        let ops = self.checked.completed() - completed0;
        PhaseStat {
            label: label.into(),
            epoch: epoch_after,
            ops,
            failures: self.checked.failures() - failures0,
            ops_per_sec: ops as f64 / elapsed,
            p99_micros: p99,
            adoptions: reg.counter(names::KV_EPOCH_ADOPTIONS).get() - adoptions0,
            stale_frames: reg.counter(names::KV_EPOCH_STALE_FRAMES).get() - stale0,
        }
    }
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
/// fixed add/remove/replace ladder, or a seeded arrival/departure
/// process in [continuous](ChurnConfig::continuous) mode) on a live
/// two-shard replicated cluster with a Fabricator active throughout,
/// then the coded fragment-rebuild check.
///
/// # Panics
///
/// Panics when the cluster cannot be started — an environment failure,
/// not a churn outcome.
#[allow(clippy::too_many_lines)]
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
    let cluster = TcpKvCluster::builder(KvMode::Replicated, b"churn-harness")
        .shards(map.clone())
        .config(tconfig)
        .chaos(FaultPlan::new(cfg.seed, FaultSpec::calm()))
        .start()
        .expect("start churn cluster");
    set_role_everywhere(&cluster, FABRICATOR, ByzRole::Fabricator, cfg.seed);
    let cluster = Mutex::new(cluster);

    let mut wl = Workload {
        client: KvClient::sharded(map.clone(), WriterId(1), ReaderId(1)),
        transport: cluster
            .lock()
            .expect("cluster lock")
            .transport_with(tconfig),
        keys: (0..cfg.keys.max(1))
            .map(|k| format!("churn-k{k}").into_bytes())
            .collect(),
        checked: CheckedKeys::new(cfg.keys.max(1), OP_RETRIES),
        seq: (0, 0),
    };
    wl.client.set_policy(tconfig);

    // One step = (label, membership change, before-phase length). The
    // ladder is the fixed trio: the add targets a fresh id, the remove
    // drains an original member (never the Fabricator), the replace
    // swaps another for a joiner. Continuous mode draws the steps from a
    // seeded arrival/departure process instead: joiners arrive under
    // fresh ids and only joiners depart or get swapped — base members
    // (the Fabricator included) stay, so live faults never exceed `f`
    // per shard — with inter-arrival gaps drawn in operations.
    type Step = (
        String,
        Box<dyn FnOnce(&mut TcpKvCluster) -> std::io::Result<()> + Send>,
        u64,
    );
    let steps: Vec<Step> = if cfg.continuous {
        let mut rng = DetRng::seed_from(cfg.seed ^ 0xC027_17EE);
        let mut next_id = 100u16;
        let mut joiners: Vec<ServerId> = Vec::new();
        (0..cfg.events.max(1))
            .map(|i| {
                // Arrive when nobody can depart; cap the fleet at +2 so
                // departures stay available; otherwise draw uniformly.
                let kind = if joiners.is_empty() {
                    0
                } else if joiners.len() >= 2 {
                    1 + rng.index(2)
                } else {
                    rng.index(3)
                };
                let gap = cfg.ops_per_phase / 2 + rng.range_u64(1..cfg.ops_per_phase.max(2));
                match kind {
                    0 => {
                        let sid = ServerId(next_id);
                        next_id += 1;
                        joiners.push(sid);
                        (
                            format!("e{i}:arrival(s{})", sid.0),
                            Box::new(move |cl: &mut TcpKvCluster| cl.add_replica(sid)) as _,
                            gap,
                        )
                    }
                    1 => {
                        let sid = joiners.swap_remove(rng.index(joiners.len()));
                        (
                            format!("e{i}:departure(s{})", sid.0),
                            Box::new(move |cl: &mut TcpKvCluster| cl.remove_replica(sid)) as _,
                            gap,
                        )
                    }
                    _ => {
                        let idx = rng.index(joiners.len());
                        let old = joiners[idx];
                        let new = ServerId(next_id);
                        next_id += 1;
                        joiners[idx] = new;
                        (
                            format!("e{i}:swap(s{}->s{})", old.0, new.0),
                            Box::new(move |cl: &mut TcpKvCluster| cl.replace_replica(old, new))
                                as _,
                            gap,
                        )
                    }
                }
            })
            .collect()
    } else {
        vec![
            (
                "add".into(),
                Box::new(|cl: &mut TcpKvCluster| cl.add_replica(ServerId(5))) as _,
                cfg.ops_per_phase,
            ),
            (
                "remove".into(),
                Box::new(|cl: &mut TcpKvCluster| cl.remove_replica(ServerId(0))) as _,
                cfg.ops_per_phase,
            ),
            (
                "replace".into(),
                Box::new(|cl: &mut TcpKvCluster| cl.replace_replica(ServerId(1), ServerId(6))) as _,
                cfg.ops_per_phase,
            ),
        ]
    };
    let expected_steps = steps.len() as u32;

    let mut phases = Vec::with_capacity(steps.len() * 3);
    let mut applied = 0u32;
    for (name, step, before_ops) in steps {
        let epoch_before = cluster.lock().expect("cluster lock").epoch();
        phases.push(wl.run_phase(&format!("{name}:before"), epoch_before, before_ops, None));

        // The reconfiguration runs on its own thread while the workload
        // keeps hammering the register — the "during" window is exactly
        // the epoch change in flight, redirects and transfer included.
        let stop = AtomicBool::new(false);
        let cap = cfg.ops_per_phase * 50;
        let step_ok = std::thread::scope(|s| {
            let handle = s.spawn(|| {
                let mut cl = cluster.lock().expect("cluster lock");
                let r = step(&mut cl);
                stop.store(true, Ordering::Release);
                r
            });
            phases.push(wl.run_phase(
                &format!("{name}:during"),
                epoch_before + 1,
                cap,
                Some(&stop),
            ));
            handle.join().expect("reconfig thread")
        });
        if step_ok.is_ok() {
            applied += 1;
        }
        // A step restarts re-placed groups honest; the point of the
        // scenario is a forger that stays live across every step.
        let epoch_after = {
            let cl = cluster.lock().expect("cluster lock");
            set_role_everywhere(&cl, FABRICATOR, ByzRole::Fabricator, cfg.seed);
            cl.epoch()
        };
        phases.push(wl.run_phase(
            &format!("{name}:after"),
            epoch_after,
            cfg.ops_per_phase,
            None,
        ));
    }

    let violations = wl.checked.close().violations;
    if !violations.is_empty() {
        safereg_obs::dump_flight("violation");
    }

    let final_epoch = cluster.lock().expect("cluster lock").epoch();
    let (coded_digest_ok, coded_joiner_logical) = coded_fragment_check(cfg.seed);

    ChurnReport {
        seed: cfg.seed,
        mode: if cfg.continuous {
            "continuous"
        } else {
            "ladder"
        },
        expected_steps,
        steps: applied,
        final_epoch,
        byz_role: ByzRole::Fabricator.label(),
        phases,
        violations,
        ops_attempted: wl.checked.attempted(),
        ops_completed: wl.checked.completed(),
        failures: wl.checked.failures(),
        transfer_keys: reg.counter(names::KV_TRANSFER_KEYS).get() - transfer0,
        reconfig_slow_reads: reg
            .counter(&names::slow_cause_counter("reconfig_transfer"))
            .get()
            - slow0,
        coded_digest_ok,
        coded_joiner_logical,
    }
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

    /// Continuous mode: a DetRng arrival/departure process replaces the
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
