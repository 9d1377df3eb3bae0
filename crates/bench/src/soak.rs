//! Memory-bounded soak: the live TCP kv stack under rotating Byzantine
//! replicas, server-side chaos and crash/restarts, checked incrementally.
//!
//! `N` writer and `M` reader threads hammer a chaos-fronted
//! [`TcpKvCluster`] for several *epochs*, and in every epoch
//!
//! * up to `f` replicas play a live Byzantine role from
//!   [`ByzRole::FAULTY`], rotating both the afflicted replica and the role
//!   each epoch ([`ByzRole::for_epoch`]);
//! * every replica's accept path runs behind a server-side
//!   [`ChaosProxy`](safereg_transport::chaos::ChaosProxy) whose
//!   [`FaultPlan`] seed rotates per epoch (`seed ^ epoch`);
//! * a supervisor kills and respawns the Byzantine replicas mid-epoch —
//!   never more than `f` faulty at any instant, since the restarted
//!   replica *is* the faulty one;
//! * with [`SoakConfig::continuous`], the supervisor additionally drives
//!   a seeded arrival/departure membership process: a couple of
//!   reconfigurations per epoch at [`DetRng`]-drawn gaps, where joiners
//!   take fresh ids and only joiners ever depart — so the rotating
//!   Byzantine host is always a base member and faults stay ≤ `f`.
//!
//! Safety is judged online by one windowed checker per key
//! ([`CheckedKeys`]), so memory
//! stays flat no matter how many operations run: reads are checked at
//! completion and forgotten, superseded writes are pruned. A watchdog
//! snapshots `VmRSS` and the completed-op counter per epoch; the run fails
//! on monotone RSS growth beyond a slack or on an epoch that completed
//! nothing. Rebuilding every epoch's [`FaultPlan`] from its seed must
//! reproduce the identical fault schedule ([`FaultPlan::fingerprint`]),
//! so any failure is replayable from the `--seed` alone.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use safereg_checker::Violation;
use safereg_common::config::QuorumConfig;
use safereg_common::ids::{ReaderId, ServerId, WriterId};
use safereg_common::msg::OpId;
use safereg_common::rng::DetRng;
use safereg_common::shard::ShardMap;
use safereg_common::value::Value;
use safereg_core::behavior::ByzRole;
use safereg_kv::{KvClient, KvMode, TcpKvCluster};
use safereg_obs::names;
use safereg_transport::chaos::{Direction, FaultPlan, FaultSpec};

use crate::cli::Report;
use crate::json::Json;
use crate::ops::{scenario_transport, set_role_everywhere, CheckedKeys};
use crate::runtime::proc_status;

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
    /// Layer a seeded arrival/departure process on top of the workload:
    /// each epoch the supervisor also fires a couple of membership
    /// reconfigurations at [`DetRng`]-drawn inter-arrival gaps — a fresh
    /// replica joins when no joiner is live, otherwise a joiner departs.
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
    /// retried); what must hold is safety, bounded memory, progress and
    /// replayability.
    fn ok(&self) -> bool {
        self.violations.is_empty()
            && self.rss_bounded
            && self.progressed
            && self.schedule_reproducible
            && (!self.continuous || self.reconfig_events > 0)
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

/// Growth slack for the RSS watchdog: strictly-monotone growth below this
/// total is tolerated (allocator warmup, thread stacks), above it the run
/// is flagged as leaking.
const RSS_SLACK_KIB: u64 = 8 * 1024;

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

/// Soak-level attempts per logical operation.
const OP_RETRIES: usize = 4;

/// Runs the soak against an `n = 4f + 1`, `f = 1` replicated deployment
/// (each of `cfg.shards` register groups runs that same `(m, f)` point
/// over the shared fleet).
///
/// # Panics
///
/// Panics when the cluster cannot be started or a replica cannot be
/// respawned — environment failures, not soak outcomes.
#[allow(clippy::too_many_lines)]
pub fn soak_run(cfg: &SoakConfig) -> SoakReport {
    pin_malloc_arena();
    let q = QuorumConfig::minimal_bsr(1).expect("n = 5, f = 1 is valid");
    let n = q.n();
    let byz_n = cfg.byz.min(q.f());
    let epochs = cfg.epochs.max(1);
    let tconfig = scenario_transport();
    let shards = cfg.shards.max(1);
    let map = if shards == 1 {
        ShardMap::single(q)
    } else {
        ShardMap::new(cfg.seed, shards, q.servers().collect(), q).expect("m = n fits the fleet")
    };

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

    let cluster = TcpKvCluster::builder(KvMode::Replicated, b"soak-harness")
        .shards(map.clone())
        .config(tconfig)
        .chaos(FaultPlan::new(cfg.seed, FaultSpec::mild()))
        .start()
        .expect("start soak cluster");
    let cluster = Mutex::new(cluster);

    let keys: Vec<Vec<u8>> = (0..cfg.keys.max(1))
        .map(|k| format!("soak-k{k}").into_bytes())
        .collect();
    let checked = CheckedKeys::new(keys.len(), OP_RETRIES);

    // Clients persist across epochs: a fresh client would restart its
    // sequence numbers, and the replicas would rightly ignore the stale
    // tags — which the checker would then flag as failed writes.
    let client = |w: u16, r: u16| {
        let mut c = KvClient::sharded(map.clone(), WriterId(w), ReaderId(r));
        c.set_policy(tconfig);
        let transport = cluster
            .lock()
            .expect("cluster lock")
            .transport_with(tconfig);
        (c, transport)
    };
    let mut writer_clients: Vec<_> = (0..cfg.writers.max(1) as u16)
        .map(|w| client(w, 100 + w))
        .collect();
    let mut reader_clients: Vec<_> = (0..cfg.readers.max(1) as u16)
        .map(|r| client(200 + r, r))
        .collect();
    // Dedicated writer for the sharded boundary scrub (see the epoch loop);
    // its own identity keeps its sequence numbers off the workload writers'.
    let mut scrub = client(250, 250);

    let threads = (writer_clients.len() + reader_clients.len()) as u64;
    let quota = (cfg.ops / (epochs as u64 * threads)).max(1);

    let mut stats: Vec<EpochStat> = Vec::with_capacity(epochs);
    let mut current_byz: Vec<ServerId> = Vec::new();
    let mut epoch_seeds: Vec<u64> = Vec::with_capacity(epochs);

    // `--continuous` bookkeeping. Joiners arrive under fresh ids (100+)
    // and only joiners ever depart, so the base membership — and with it
    // the Byzantine victim rotation over ids `0..n` — is never
    // reconfigured away: the at-most-one faulty host is always a base
    // member and every joiner is honest, keeping live faults ≤ `f` per
    // shard throughout.
    let joiners: Mutex<Vec<ServerId>> = Mutex::new(Vec::new());
    let next_join_id = AtomicU64::new(100);
    let reconfig_events = AtomicU64::new(0);

    // `--minutes` trades the fixed epoch count for a wall-clock target:
    // the loop keeps rotating further epochs (fresh seeds, same quota)
    // until the deadline passes, with at least `epochs` always run.
    let soak_started = std::time::Instant::now();
    let deadline = (cfg.minutes > 0).then(|| Duration::from_secs(cfg.minutes * 60));
    let mut e = 0usize;
    loop {
        let eseed = cfg.seed ^ e as u64;
        epoch_seeds.push(eseed);

        // Epoch boundary: rotate the fault-plan seed and the Byzantine
        // assignment. Restores run before conversions so the faulty set
        // never exceeds `f` replicas at any instant — a restore's
        // restart-in-place is a transient fault of an already-faulty
        // replica, and only then does a fresh replica turn Byzantine.
        let byz_now: Vec<(ServerId, &'static str)> = {
            let mut cl = cluster.lock().expect("cluster lock");
            cl.set_plan(Some(FaultPlan::new(eseed, FaultSpec::mild())));
            if map.num_shards() == 1 {
                let next: Vec<(ServerId, ByzRole)> = (0..byz_n)
                    .map(|i| {
                        (
                            ServerId(((e + i) % n) as u16),
                            ByzRole::for_epoch(e as u64, i),
                        )
                    })
                    .collect();
                for sid in current_byz.drain(..) {
                    if !next.iter().any(|(s, _)| *s == sid) {
                        cl.set_role(sid, ByzRole::Correct, 0)
                            .expect("restore replica");
                    }
                }
                for (sid, role) in &next {
                    cl.set_role(*sid, *role, eseed).expect("convert replica");
                }
                current_byz = next.iter().map(|(s, _)| *s).collect();
                next.iter().map(|(s, r)| (*s, r.label())).collect()
            } else if byz_n == 0 {
                current_byz.clear();
                Vec::new()
            } else {
                // Sharded rotation, step 1 of 3: restore last epoch's
                // victim to honest service (live — its register state is
                // frozen at whatever it held before turning Byzantine).
                for sid in current_byz.drain(..) {
                    set_role_everywhere(&cl, sid, ByzRole::Correct, 0);
                }
                Vec::new()
            }
        };
        // Sharded rotation, steps 2 and 3. The restored replica missed
        // every write of the epoch it spent Byzantine, so before the next
        // victim converts, a scrub re-writes every key: the amnesiac
        // catches up while *zero* replicas are faulty, keeping each
        // shard's effective fault count at `f` across the boundary (the
        // same replenish-between-state-losses invariant the single-group
        // soak documents on `SoakConfig::keys`). Only then does the new
        // victim turn Byzantine — with a different live role per register
        // group it serves, so roles rotate independently per shard while
        // all faulty groups still share one physical host.
        let byz_now: Vec<(ServerId, &'static str)> = if map.num_shards() > 1 && byz_n > 0 {
            let (scrub_client, scrub_transport) = &mut scrub;
            for (kidx, key) in keys.iter().enumerate() {
                let value = Value::from(format!("scrub:e{e}:{kidx}").into_bytes());
                let op = OpId::new(
                    WriterId(250),
                    e as u64 * keys.len() as u64 + kidx as u64 + 1,
                );
                checked.write(kidx, op, &value, || {
                    scrub_client.put(scrub_transport, key, value.clone())
                });
            }
            let cl = cluster.lock().expect("cluster lock");
            let victim = ServerId((e % n) as u16);
            let mut labels = Vec::new();
            for g in cl.map().shards_of_server(victim) {
                let role = ByzRole::for_epoch(e as u64, g.0 as usize);
                assert!(
                    cl.set_shard_role(victim, g, role, eseed ^ u64::from(g.0)),
                    "victim must serve its placed shard"
                );
                labels.push((victim, role.label()));
            }
            current_byz = vec![victim];
            labels
        } else {
            byz_now
        };

        let epoch_completed_base = checked.completed();
        let epoch_failures_base = checked.failures();
        let epoch_started = std::time::Instant::now();

        let keys = &keys;
        let checked = &checked;
        let cluster_ref = &cluster;
        let supervisor_byz = current_byz.clone();
        let joiners = &joiners;
        let next_join_id = &next_join_id;
        let reconfig_events = &reconfig_events;
        let continuous = cfg.continuous;

        std::thread::scope(|s| {
            // Crash/restart supervisor: mid-epoch, kill and respawn the
            // Byzantine replicas in place (same role, same seed, same
            // advertised address). The faulty set is unchanged, so the
            // run never has more than `f` faulty replicas; with no
            // Byzantine replicas configured, one correct replica takes
            // the crash instead (`≤ f` either way).
            s.spawn(move || {
                std::thread::sleep(Duration::from_millis(200));
                let mut cl = cluster_ref.lock().expect("cluster lock");
                if supervisor_byz.is_empty() {
                    let _ = cl.restart(ServerId((e % n) as u16));
                } else if cl.map().num_shards() == 1 {
                    for (i, sid) in supervisor_byz.iter().enumerate() {
                        let _ = cl.set_role(*sid, ByzRole::for_epoch(e as u64, i), eseed);
                    }
                } else {
                    // Crash-recover the (already faulty) victim, then put
                    // its per-shard roles back: the faulty set never grows
                    // beyond the one host, in any shard.
                    for sid in supervisor_byz {
                        let _ = cl.restart(sid);
                        for g in cl.map().shards_of_server(sid) {
                            cl.set_shard_role(
                                sid,
                                g,
                                ByzRole::for_epoch(e as u64, g.0 as usize),
                                eseed ^ u64::from(g.0),
                            );
                        }
                    }
                }
                drop(cl);

                // Continuous churn: a seeded arrival/departure process
                // replaces the fixed membership — a couple of events per
                // epoch at DetRng-drawn gaps, replayable from the epoch
                // seed. Arrivals mint fresh ids; departures only ever
                // pick a joiner, so the base fleet stays put and the
                // faulty-host count never exceeds `f` in any shard.
                if continuous {
                    let mut rng = DetRng::seed_from(eseed ^ 0x50A7_C027);
                    for _ in 0..2 {
                        std::thread::sleep(Duration::from_millis(rng.range_u64(60..200)));
                        let mut cl = cluster_ref.lock().expect("cluster lock");
                        let mut js = joiners.lock().expect("joiners lock");
                        let applied = if js.is_empty() {
                            let sid = ServerId(next_join_id.fetch_add(1, Ordering::Relaxed) as u16);
                            cl.add_replica(sid).map(|()| js.push(sid)).is_ok()
                        } else {
                            let idx = rng.index(js.len());
                            match cl.remove_replica(js[idx]) {
                                Ok(()) => {
                                    js.swap_remove(idx);
                                    true
                                }
                                Err(_) => false,
                            }
                        };
                        if applied {
                            reconfig_events.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
            });

            for (w, (client, transport)) in writer_clients.iter_mut().enumerate() {
                s.spawn(move || {
                    for i in 0..quota {
                        let kidx = (w + i as usize) % keys.len();
                        let value = Value::from(format!("w{w}:e{e}:{i}").into_bytes());
                        let op = OpId::new(WriterId(w as u16), e as u64 * quota + i + 1);
                        checked.write(kidx, op, &value, || {
                            client.put(transport, &keys[kidx], value.clone())
                        });
                    }
                });
            }

            for (r, (client, transport)) in reader_clients.iter_mut().enumerate() {
                s.spawn(move || {
                    for i in 0..quota {
                        let kidx = (r + i as usize) % keys.len();
                        let op = OpId::new(ReaderId(r as u16), e as u64 * quota + i + 1);
                        checked.read(kidx, op, || client.get_with_tag(transport, &keys[kidx]));
                    }
                });
            }
        });

        stats.push(EpochStat {
            epoch: e,
            byz: byz_now,
            ops_completed: checked.completed() - epoch_completed_base,
            failures: checked.failures() - epoch_failures_base,
            millis: epoch_started.elapsed().as_millis() as u64,
            rss_kib: proc_status("VmRSS:"),
            evictions: reg.counter(names::SERVER_EVICTIONS).get() - evictions_base,
            restarts: reg.counter(names::SERVER_RESTARTS).get() - restarts_base,
        });
        e += 1;
        let done = match deadline {
            Some(d) => e >= epochs && soak_started.elapsed() >= d,
            None => e >= epochs,
        };
        if done {
            break;
        }
    }

    let judged = checked.close();

    let rss: Vec<u64> = stats.iter().map(|s| s.rss_kib).collect();
    let strictly_up = rss.len() >= 2 && rss.windows(2).all(|w| w[1] > w[0]);
    let growth = rss
        .last()
        .copied()
        .unwrap_or(0)
        .saturating_sub(rss.first().copied().unwrap_or(0));
    let rss_bounded = !(strictly_up && growth > RSS_SLACK_KIB);
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
        (0..n as u16).all(|s| {
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

    SoakReport {
        seed: cfg.seed,
        shards: map.num_shards(),
        shard_stats,
        ops_attempted: checked.attempted(),
        ops_completed: checked.completed(),
        failures: checked.failures(),
        violations: judged.violations,
        reads_checked: judged.reads_checked,
        peak_window: judged.peak_window,
        pruned: judged.pruned,
        epochs: stats,
        rss_bounded,
        progressed,
        schedule_reproducible,
        continuous: cfg.continuous,
        reconfig_events: reconfig_events.into_inner(),
    }
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
