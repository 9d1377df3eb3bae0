//! Memory-bounded soak: the live TCP kv stack under rotating Byzantine
//! replicas, server-side chaos and crash/restarts, checked incrementally.
//!
//! `N` writer and `M` reader clients hammer a chaos-fronted
//! [`TcpKvCluster`] for several *epochs*. Each epoch is one [`Schedule`]
//! from the soak's generator, run by the [`Executor`]:
//!
//! * up to `f` replicas play a live Byzantine role from
//!   [`ByzRole::FAULTY`], rotating both the afflicted replica and the role
//!   each epoch ([`ByzRole::for_epoch`]);
//! * every replica's accept path runs behind a server-side
//!   [`ChaosProxy`](safereg_transport::chaos::ChaosProxy) whose
//!   [`FaultPlan`] seed rotates per epoch (`seed ^ epoch`, a sync
//!   `set-plan` at the epoch boundary);
//! * an async event an eighth of the way into the epoch kills and respawns
//!   the Byzantine replicas — never more than `f` faulty at any instant,
//!   since the restarted replica *is* the faulty one;
//! * with [`SoakConfig::continuous`], the one arrival/departure process
//!   ([`Arrivals`]) adds two membership events per epoch: joiners take
//!   fresh ids and only joiners ever depart, so the rotating Byzantine
//!   host is always a base member and faults stay ≤ `f`.
//!
//! Safety is judged online by one windowed checker per key, so memory
//! stays flat no matter how many operations run: reads are checked at
//! completion and forgotten, superseded writes are pruned. The executor
//! samples `VmRSS` after every epoch; the run fails on monotone RSS growth
//! beyond a slack or on an epoch that completed nothing. Rebuilding every
//! epoch's [`FaultPlan`] from its seed must reproduce the identical fault
//! schedule ([`FaultPlan::fingerprint`]), and the epoch schedules are a
//! function of the configuration, so any failure is replayable from the
//! `--seed` alone.

use std::time::{Duration, Instant};

use safereg_checker::Violation;
use safereg_common::config::QuorumConfig;
use safereg_common::ids::ServerId;
use safereg_common::shard::ShardMap;
use safereg_core::behavior::ByzRole;
use safereg_kv::{KvMode, TcpKvCluster};
use safereg_obs::names;
use safereg_transport::chaos::{Direction, FaultPlan, FaultSpec};

use crate::cli::Report;
use crate::json::Json;
use crate::ops::scenario_transport;
use crate::schedule::{replay, Act, Arrivals, Event, Executor, Schedule, Scope};

/// Knobs for one soak run.
#[derive(Debug, Clone)]
pub struct SoakConfig {
    /// Total operations budgeted across all threads and epochs.
    pub ops: u64,
    /// Byzantine replicas per epoch, clamped to the deployment's `f`.
    pub byz: usize,
    /// Master seed: feeds every epoch's fault plan (`seed ^ epoch`) and
    /// the Byzantine servers' forgery streams.
    pub seed: u64,
    /// Epochs (role-rotation periods). The RSS watchdog needs at least 2.
    pub epochs: usize,
    /// Writer threads.
    pub writers: usize,
    /// Reader threads.
    pub readers: usize,
    /// Distinct keys; writers cycle through all of them every epoch so
    /// each key is re-written between replica restarts (state lost by a
    /// respawned replica is replenished before the next one loses its).
    pub keys: usize,
    /// Register-group shards. `1` is the classic single-group soak; above
    /// that the cluster runs a [`ShardMap`] over the same `n` servers and
    /// Byzantine roles rotate **independently per shard**: each epoch one
    /// victim host turns Byzantine with a *different* role in every group
    /// it serves, so every shard still has at most `f` faulty replicas.
    pub shards: u16,
    /// Wall-clock target in minutes. `0` (the default) runs exactly
    /// `epochs` role-rotation periods; above that the soak keeps cycling
    /// further epochs — same per-epoch op quota, rotating seeds — until
    /// the target has elapsed, so one flag turns the smoke run into an
    /// overnight burn-in without retuning `ops`/`epochs`.
    pub minutes: u64,
    /// Layer the seeded arrival/departure process ([`Arrivals`]) on top
    /// of the workload: two membership events per epoch at drawn gaps.
    /// Joiners take ids from 100 upward and only joiners ever leave, so
    /// the base membership (and the Byzantine victim rotation over it)
    /// is untouched and live faults stay ≤ `f` per shard.
    pub continuous: bool,
}

impl Default for SoakConfig {
    fn default() -> Self {
        SoakConfig {
            ops: 20_000,
            byz: 1,
            seed: 7,
            epochs: 5,
            writers: 4,
            readers: 4,
            keys: 4,
            shards: 1,
            minutes: 0,
            continuous: false,
        }
    }
}

impl SoakConfig {
    /// The keys the soak writes and reads: `keys`, raised to one per
    /// register group so no group of a sharded soak idles.
    pub fn key_count(&self) -> usize {
        self.keys.max(usize::from(self.shards)).max(1)
    }
}

/// Watchdog snapshot taken at the end of each epoch.
#[derive(Debug, Clone)]
pub struct EpochStat {
    /// Epoch index.
    pub epoch: usize,
    /// The replicas that played a Byzantine role this epoch, with labels.
    pub byz: Vec<(ServerId, &'static str)>,
    /// Operations completed during this epoch.
    pub ops_completed: u64,
    /// Operations abandoned during this epoch (retry budget exhausted).
    pub failures: u64,
    /// Wall-clock duration of the epoch's workload in milliseconds.
    pub millis: u64,
    /// `VmRSS` in KiB at epoch end (0 when `/proc` is unavailable).
    pub rss_kib: u64,
    /// `server.evictions` accumulated since the run started.
    pub evictions: u64,
    /// `server.restarts` accumulated since the run started.
    pub restarts: u64,
}

/// Per-shard traffic accounting for a sharded soak, read back as deltas
/// of the global `kv.shard.*` series across the run.
#[derive(Debug, Clone)]
pub struct ShardSoakStat {
    /// The shard.
    pub shard: u16,
    /// Operations this run completed against the shard.
    pub ops: u64,
    /// Fast-read share of the run's reads on this shard, in permille
    /// (1000 when the shard saw no reads — vacuously all-fast).
    pub fast_ratio_permille: u64,
}

/// Outcome of one soak run.
#[derive(Debug, Clone)]
pub struct SoakReport {
    /// The master seed (reproduces the whole fault schedule).
    pub seed: u64,
    /// Register-group shards the run was partitioned into.
    pub shards: u16,
    /// Per-shard traffic deltas (one entry per shard, including idle ones).
    pub shard_stats: Vec<ShardSoakStat>,
    /// Operations attempted.
    pub ops_attempted: u64,
    /// Operations completed.
    pub ops_completed: u64,
    /// Operations abandoned after soak-level retries.
    pub failures: u64,
    /// Per-key safety violations found by the windowed checkers.
    pub violations: Vec<Violation>,
    /// Reads judged across all keys.
    pub reads_checked: u64,
    /// Largest per-key checker window seen — the memory bound in records.
    pub peak_window: usize,
    /// Records pruned across all keys.
    pub pruned: u64,
    /// Per-epoch watchdog snapshots.
    pub epochs: Vec<EpochStat>,
    /// RSS did not grow monotonically beyond the slack across epochs.
    pub rss_bounded: bool,
    /// Every epoch completed at least one operation.
    pub progressed: bool,
    /// Every epoch's fault plan, rebuilt from its seed, reproduced the
    /// identical schedule bytes.
    pub schedule_reproducible: bool,
    /// The run layered the seeded arrival/departure process on top.
    pub continuous: bool,
    /// Membership reconfigurations (joins + departures) the continuous
    /// process applied across all epochs.
    pub reconfig_events: u64,
}

impl Report for SoakReport {
    const NAME: &'static str = "soak";

    /// Individual operation failures under chaos are expected (and
    /// retried); what must hold is safety, bounded memory, progress,
    /// replayability and traffic on every register group.
    fn ok(&self) -> bool {
        self.violations.is_empty()
            && self.rss_bounded
            && self.progressed
            && self.schedule_reproducible
            && (!self.continuous || self.reconfig_events > 0)
            && self.shard_stats.iter().all(|s| s.ops > 0)
    }

    fn json(&self) -> Json {
        let shard_stats = self.shard_stats.iter().map(|s| {
            Json::object()
                .num("shard", s.shard)
                .num("ops", s.ops)
                .num("fast_ratio_permille", s.fast_ratio_permille)
                .end()
        });
        Json::object()
            .num("seed", self.seed)
            .num("shards", self.shards)
            .field("shard_stats", Json::array(shard_stats))
            .num("ops_attempted", self.ops_attempted)
            .num("ops_completed", self.ops_completed)
            .num("failures", self.failures)
            .num("violations", self.violations.len())
            .num("reads_checked", self.reads_checked)
            .num("peak_window", self.peak_window)
            .num("pruned", self.pruned)
            .num("epochs", self.epochs.len())
            .num("rss_bounded", self.rss_bounded)
            .num("progressed", self.progressed)
            .num("schedule_reproducible", self.schedule_reproducible)
            .num("continuous", self.continuous)
            .num("reconfig_events", self.reconfig_events)
            .num("ok", self.ok())
            .end()
    }
}

/// Pins glibc to its main malloc arena for the rest of the process.
///
/// The restart ladder churns server threads, and glibc answers each
/// burst of cross-thread contention by spinning up a fresh per-thread
/// arena it never returns to the OS — so a leak-free run still shows
/// strictly-monotone RSS growth for far longer than the soak's epoch
/// window and trips the watchdog. Capping the arena count makes the
/// RSS series measure the workload, not the allocator: with one arena
/// the same run plateaus mid-soak. Loopback ops spend their time in
/// syscalls and MACs, not malloc, so the lost arena parallelism is
/// noise here.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn pin_malloc_arena() {
    const M_ARENA_MAX: i32 = -8;
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    // SAFETY: `mallopt` takes two integers and touches no memory of ours,
    // and glibc allows the call at any point in a process's life.
    unsafe {
        mallopt(M_ARENA_MAX, 1);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn pin_malloc_arena() {}

/// Growth slack for the RSS watchdog: strictly monotone growth below this
/// total is tolerated (allocator warmup, thread stacks), above it the run
/// is flagged as leaking.
const RSS_SLACK_KIB: u64 = 8 * 1024;

/// The RSS watchdog over the per-epoch `VmRSS` samples: false on strictly
/// monotone growth beyond the slack.
fn rss_bounded(rss: &[u64]) -> bool {
    let strictly_up = rss.len() >= 2 && rss.windows(2).all(|w| w[1] > w[0]);
    let growth = rss
        .last()
        .unwrap_or(&0)
        .saturating_sub(*rss.first().unwrap_or(&0));
    !(strictly_up && growth > RSS_SLACK_KIB)
}

/// Soak-level attempts per logical operation.
const OP_RETRIES: usize = 4;

/// Reader clients are numbered from here; writers from 0.
const READERS: u16 = 100;

/// The client that re-writes every key at a sharded epoch boundary.
const SCRUB: u16 = 250;

/// The soak's generator: one schedule per epoch. It follows the placement
/// through the membership events it draws, so every per-group role names
/// a group the replica serves when the event runs.
#[derive(Debug)]
struct Epochs {
    cfg: SoakConfig,
    n: usize,
    byz_n: usize,
    quota: u64,
    base: ShardMap,
    map: ShardMap,
    arrivals: Option<Arrivals>,
    /// The fleet once every drawn membership event has applied.
    fleet: Vec<ServerId>,
    /// Last epoch's Byzantine replicas.
    byz: Vec<ServerId>,
}

impl Epochs {
    fn new(cfg: &SoakConfig, map: &ShardMap) -> Epochs {
        let q = map.shard_config();
        let epochs = cfg.epochs.max(1) as u64;
        let clients = (cfg.writers.max(1) + cfg.readers.max(1)) as u64;
        Epochs {
            cfg: cfg.clone(),
            n: q.n(),
            byz_n: cfg.byz.min(q.f()),
            quota: (cfg.ops / (epochs * clients)).max(1),
            base: map.clone(),
            map: map.clone(),
            arrivals: None,
            fleet: map.fleet().to_vec(),
            byz: Vec::new(),
        }
    }

    /// Epoch `e`: a sync boundary (plan seed, restores, scrub, conversions)
    /// then the workload, with the mid-epoch restart and, in continuous
    /// mode, two membership events running beside it.
    fn epoch(&mut self, e: usize) -> Schedule {
        let (n, eseed, sharded) = (self.n, self.cfg.seed ^ e as u64, self.map.num_shards() > 1);
        let mut s = Schedule::new(eseed);
        s.extend([Event::Sync(Act::SetPlan(Some(eseed)))]);
        let restore = |sid, scope| Event::Sync(Act::SetRole(sid, scope, ByzRole::Correct, 0));
        // Restores run before conversions so the faulty set never exceeds
        // `f` replicas at any instant.
        if sharded && self.byz_n > 0 {
            // The restored replica missed every write of the epoch it spent
            // Byzantine, so before the next victim converts, a scrub
            // re-writes every key while *zero* replicas are faulty; only
            // then does the victim turn Byzantine, with a different live
            // role per register group it serves.
            for sid in std::mem::take(&mut self.byz) {
                s.extend([restore(sid, Scope::Served)]);
            }
            s.extend((0..self.cfg.key_count()).map(|k| Event::Put(SCRUB, k)));
            let victim = ServerId((e % n) as u16);
            s.extend(self.victim_roles(victim, e, Event::Sync));
            self.byz = vec![victim];
        } else if sharded {
            self.byz.clear();
        } else {
            let next: Vec<ServerId> = (0..self.byz_n)
                .map(|i| ServerId(((e + i) % n) as u16))
                .collect();
            for sid in self.byz.iter().filter(|s| !next.contains(s)) {
                s.extend([restore(*sid, Scope::Respawn)]);
            }
            for (i, sid) in next.iter().enumerate() {
                let role = ByzRole::for_epoch(e as u64, i);
                s.extend([Event::Sync(Act::SetRole(*sid, Scope::Respawn, role, eseed))]);
            }
            self.byz = next;
        }

        let (writers, keys) = (self.cfg.writers.max(1), self.cfg.key_count());
        let mut ops = Vec::new();
        for i in 0..self.quota as usize {
            ops.extend((0..writers).map(|w| Event::Put(w as u16, (w + i) % keys)));
            ops.extend(
                (0..self.cfg.readers.max(1))
                    .map(|r| Event::Get(READERS + r as u16, (r + i) % keys)),
            );
        }
        // Kill and respawn the faulty replicas in place (same role, same
        // seed, same address), or one correct replica when none is faulty.
        let mid = ops.len() / 8;
        let mut at: Vec<(usize, Event)> = Vec::new();
        if self.byz.is_empty() {
            at.push((mid, Event::Async(Act::Restart(ServerId((e % n) as u16)))));
        } else if sharded {
            let victim = self.byz[0];
            at.push((mid, Event::Async(Act::Restart(victim))));
            at.extend(
                self.victim_roles(victim, e, Event::Async)
                    .map(|ev| (mid, ev)),
            );
        } else {
            for (i, sid) in self.byz.iter().enumerate() {
                let act =
                    Act::SetRole(*sid, Scope::Respawn, ByzRole::for_epoch(e as u64, i), eseed);
                at.push((mid, Event::Async(act)));
            }
        }
        if self.cfg.continuous {
            // Two events per epoch, drawn to land after the restart.
            let mean_gap = (ops.len() - mid) as u64 / 3;
            let seed = self.cfg.seed ^ 0x50A7_C027;
            let arrivals = self
                .arrivals
                .get_or_insert_with(|| Arrivals::new(seed, mean_gap));
            let mut pos = mid as u64;
            for _ in 0..2 {
                let (gap, act) = arrivals.next_event();
                pos += gap;
                act.step_fleet(&mut self.fleet);
                at.push((pos as usize, Event::Async(act)));
            }
            let fleet = self.fleet.clone();
            self.map = self
                .base
                .for_fleet(fleet)
                .expect("m = n fits a grown fleet");
        }
        s.interleave(ops, at);
        s
    }

    /// The victim's per-group roles in epoch `e`, one event per group.
    fn victim_roles(
        &self,
        victim: ServerId,
        e: usize,
        mode: fn(Act) -> Event,
    ) -> impl Iterator<Item = Event> {
        let eseed = self.cfg.seed ^ e as u64;
        self.map.shards_of_server(victim).into_iter().map(move |g| {
            let role = ByzRole::for_epoch(e as u64, g.0 as usize);
            mode(Act::SetRole(
                victim,
                Scope::Shard(g),
                role,
                eseed ^ u64::from(g.0),
            ))
        })
    }
}

/// The first `count` epoch schedules of `cfg`.
pub(crate) fn epochs(cfg: &SoakConfig, count: usize) -> Vec<Schedule> {
    let mut gen = Epochs::new(cfg, &placement(cfg));
    (0..count).map(|e| gen.epoch(e)).collect()
}

/// The soak's placement: one `n = 4f + 1`, `f = 1` group, or
/// `cfg.shards` groups at that point over the same fleet.
fn placement(cfg: &SoakConfig) -> ShardMap {
    let q = QuorumConfig::minimal_bsr(1).expect("n = 5, f = 1 is valid");
    match cfg.shards.max(1) {
        1 => ShardMap::single(q),
        s => ShardMap::new(cfg.seed, s, q.servers().collect(), q).expect("m = n fits the fleet"),
    }
}

/// The soak's `keys` keys: the first `soak-k{i}` names that give every
/// register group of `map` its share — `⌊keys/s⌋`, plus one for the
/// lowest `keys mod s` groups — so no group of a sharded soak idles. With
/// one group these are `soak-k0 ..`.
fn soak_keys(keys: usize, map: &ShardMap) -> Vec<Vec<u8>> {
    let s = map.num_shards() as usize;
    let mut share: Vec<usize> = (0..s)
        .map(|g| keys / s + usize::from(g < keys % s))
        .collect();
    (0..)
        .map(|i| format!("soak-k{i}").into_bytes())
        .filter(|k| {
            let left = &mut share[map.shard_of(k).0 as usize];
            let take = *left > 0;
            *left -= usize::from(take);
            take
        })
        .take(keys)
        .collect()
}

/// Runs the soak against an `n = 4f + 1`, `f = 1` replicated deployment
/// (each of `cfg.shards` register groups runs that same `(m, f)` point
/// over the shared fleet).
///
/// # Panics
///
/// Panics when the cluster cannot be started — an environment failure,
/// not a soak outcome.
pub fn soak_run(cfg: &SoakConfig) -> SoakReport {
    pin_malloc_arena();
    let map = placement(cfg);
    let q = map.shard_config();
    let tconfig = scenario_transport();

    let reg = safereg_obs::global();
    let evictions_base = reg.counter(names::SERVER_EVICTIONS).get();
    let restarts_base = reg.counter(names::SERVER_RESTARTS).get();
    // Per-shard series are global and cumulative; deltas isolate this run.
    let shard_base: Vec<(u64, u64, u64)> = map
        .shards()
        .map(|g| {
            (
                reg.counter(&names::shard_ops_counter(g.0)).get(),
                reg.counter(&names::shard_reads_counter(g.0, "fast")).get(),
                reg.counter(&names::shard_reads_counter(g.0, "slow")).get(),
            )
        })
        .collect();

    let mut cluster = TcpKvCluster::builder(KvMode::Replicated, b"soak-harness")
        .shards(map.clone())
        .config(tconfig)
        .chaos(FaultPlan::new(cfg.seed, FaultSpec::mild()))
        .start()
        .expect("start soak cluster");
    let mut exec = Executor::new(soak_keys(cfg.key_count(), &map), OP_RETRIES, tconfig);

    // `--minutes` trades the fixed epoch count for a wall-clock target:
    // further epochs (fresh seeds, same quota) run until the deadline
    // passes, with at least `epochs` always run.
    let mut gen = Epochs::new(cfg, &map);
    let started = Instant::now();
    let deadline = Duration::from_secs(cfg.minutes * 60);
    let (mut stats, mut epoch_seeds) = (Vec::new(), Vec::new());
    let (mut attempted, mut completed, mut reconfig_events) = (0, 0, 0);
    while stats.len() < cfg.epochs.max(1) || started.elapsed() < deadline {
        let e = stats.len();
        let schedule = gen.epoch(e);
        let record = exec.run(&mut cluster, &schedule);
        epoch_seeds.push(schedule.seed);
        attempted += record.ops.len() as u64;
        completed += record.completed();
        reconfig_events += record.membership_applied();
        // The epoch's Byzantine replicas: its boundary conversions that
        // applied (a sync event that failed has already panicked).
        let byz = record.events.iter().filter_map(|ev| match ev.act {
            Act::SetRole(sid, _, role, _)
                if ev.sync && ev.result.is_ok() && role != ByzRole::Correct =>
            {
                Some((sid, role.label()))
            }
            _ => None,
        });
        stats.push(EpochStat {
            epoch: e,
            byz: byz.collect(),
            ops_completed: record.completed(),
            failures: record.failed(),
            millis: record.elapsed.as_millis() as u64,
            rss_kib: record.rss_kib,
            evictions: reg.counter(names::SERVER_EVICTIONS).get() - evictions_base,
            restarts: reg.counter(names::SERVER_RESTARTS).get() - restarts_base,
        });
    }
    let judged = exec.close();

    let rss: Vec<u64> = stats.iter().map(|s| s.rss_kib).collect();
    let rss_bounded = rss_bounded(&rss);
    let progressed = stats.iter().all(|s| s.ops_completed > 0);

    // Flight-recorder hooks: a watchdog trip or a checker violation spills
    // the last few thousand spans to stderr so the failure arrives with
    // its causal context attached (empty book-ends when sampling was off).
    if !rss_bounded || !progressed {
        safereg_obs::dump_flight("watchdog");
    }
    if !judged.violations.is_empty() {
        safereg_obs::dump_flight("violation");
    }

    // The same master seed must reproduce every epoch's fault schedule
    // exactly — this is what makes a soak failure replayable.
    let dirs = [Direction::ClientToServer, Direction::ServerToClient];
    let schedule_reproducible = epoch_seeds.iter().all(|&es| {
        let a = FaultPlan::new(es, FaultSpec::mild());
        let b = FaultPlan::new(es, FaultSpec::mild());
        (0..q.n() as u16).all(|s| {
            dirs.iter().all(|&d| {
                (0..2).all(|conn| {
                    a.fingerprint(ServerId(s), conn, d, 128)
                        == b.fingerprint(ServerId(s), conn, d, 128)
                })
            })
        })
    });

    let shard_stats: Vec<ShardSoakStat> = map
        .shards()
        .zip(&shard_base)
        .map(|(g, &(ops0, fast0, slow0))| {
            let ops = reg.counter(&names::shard_ops_counter(g.0)).get() - ops0;
            let fast = reg.counter(&names::shard_reads_counter(g.0, "fast")).get() - fast0;
            let slow = reg.counter(&names::shard_reads_counter(g.0, "slow")).get() - slow0;
            ShardSoakStat {
                shard: g.0,
                ops,
                // A shard that saw no reads is vacuously all-fast.
                fast_ratio_permille: (fast * 1000).checked_div(fast + slow).unwrap_or(1000),
            }
        })
        .collect();

    let report = SoakReport {
        seed: cfg.seed,
        shards: map.num_shards(),
        shard_stats,
        ops_attempted: attempted,
        ops_completed: completed,
        failures: attempted - completed,
        violations: judged.violations,
        reads_checked: judged.reads_checked,
        peak_window: judged.peak_window,
        pruned: judged.pruned,
        rss_bounded,
        progressed,
        schedule_reproducible,
        continuous: cfg.continuous,
        reconfig_events,
        epochs: stats,
    };
    if !report.ok() {
        replay(
            SoakReport::NAME,
            cfg.seed,
            &epochs(cfg, report.epochs.len()),
        );
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A miniature soak: two epochs, one Byzantine replica rotating role,
    /// mid-epoch restarts, server-side chaos — no safety violations, and
    /// the schedule replays from the seed.
    #[test]
    fn tiny_soak_is_safe_and_reproducible() {
        let cfg = SoakConfig {
            ops: 160,
            seed: 11,
            epochs: 2,
            writers: 1,
            readers: 1,
            keys: 2,
            ..SoakConfig::default()
        };
        let report = soak_run(&cfg);
        for s in &report.epochs {
            eprintln!(
                "epoch {}: {} ops, {} failures, {} ms, byz {:?}",
                s.epoch, s.ops_completed, s.failures, s.millis, s.byz
            );
        }
        assert!(
            report.violations.is_empty(),
            "soak found safety violations: {:?}",
            report.violations
        );
        assert!(report.progressed, "an epoch completed no operations");
        assert!(report.schedule_reproducible, "fault schedule diverged");
        assert!(
            report.peak_window < 64,
            "checker window grew to {}",
            report.peak_window
        );
        assert!(report.epochs.iter().any(|s| s.restarts > 0));
    }

    #[test]
    fn soak_keys_fill_every_group() {
        let cfg = SoakConfig {
            shards: 4,
            ..SoakConfig::default()
        };
        let map = placement(&cfg);
        // Fewer keys than groups still gives every group one.
        for (keys, share) in [(8, [2, 2, 2, 2]), (6, [2, 2, 1, 1]), (2, [1, 1, 1, 1])] {
            let cfg = SoakConfig {
                keys,
                ..cfg.clone()
            };
            let mut per = [0; 4];
            for k in soak_keys(cfg.key_count(), &map) {
                per[map.shard_of(&k).0 as usize] += 1;
            }
            assert_eq!(per, share, "{keys} keys");
        }
        let single = soak_keys(3, &placement(&SoakConfig::default()));
        assert_eq!(single, [b"soak-k0", b"soak-k1", b"soak-k2"]);
    }

    /// A sharded miniature soak: 4 register groups over the same 5
    /// servers, one victim host per epoch playing a different live role
    /// in every group — still zero violations, and the per-shard traffic
    /// accounting adds up to real work.
    #[test]
    fn tiny_sharded_soak_is_safe_with_per_shard_roles() {
        let cfg = SoakConfig {
            ops: 240,
            seed: 13,
            epochs: 2,
            writers: 2,
            readers: 2,
            keys: 8,
            shards: 4,
            ..SoakConfig::default()
        };
        let report = soak_run(&cfg);
        assert!(
            report.violations.is_empty(),
            "sharded soak found safety violations: {:?}",
            report.violations
        );
        assert!(report.progressed, "an epoch completed no operations");
        assert!(report.schedule_reproducible, "fault schedule diverged");
        assert_eq!(report.shards, 4);
        assert_eq!(report.shard_stats.len(), 4);
        let shard_ops: u64 = report.shard_stats.iter().map(|s| s.ops).sum();
        assert!(
            shard_ops >= report.ops_completed,
            "per-shard counters missed completed ops: {} < {}",
            shard_ops,
            report.ops_completed
        );
    }

    /// Continuous mode: the seeded arrival/departure process fires real
    /// reconfigurations mid-epoch while the rotating Byzantine replica
    /// and the restart supervisor stay active — and the checker still
    /// finds nothing, because joiners are always honest and only joiners
    /// ever depart.
    #[test]
    fn tiny_continuous_soak_reconfigures_and_stays_safe() {
        let cfg = SoakConfig {
            ops: 160,
            seed: 17,
            epochs: 2,
            writers: 1,
            readers: 1,
            keys: 2,
            continuous: true,
            ..SoakConfig::default()
        };
        let report = soak_run(&cfg);
        assert!(
            report.violations.is_empty(),
            "continuous soak found safety violations: {:?}",
            report.violations
        );
        assert!(report.continuous);
        assert!(
            report.reconfig_events > 0,
            "the arrival/departure process never applied an event"
        );
        assert!(report.progressed, "an epoch completed no operations");
        assert!(report.schedule_reproducible, "fault schedule diverged");
        assert!(report.ok(), "continuous soak failed its own predicate");
    }
}
