//! Shard-scaling bench: the same five-server fleet at 1, 4 and 16
//! register groups under uniform and Zipf-skewed key traffic, plus a
//! wide s = 64 leg with an m &lt; n placement over a larger fleet.
//!
//! The sharding layer's pitch is *contention isolation on unchanged
//! hardware*: every shard is a full BSR deployment over the same `n`
//! physical servers, so adding shards buys nothing in replication cost —
//! it only splits each server's single register-group mutex into `s`
//! independent ones, letting connections that serve different groups
//! proceed without queueing on one lock. This bench measures that split
//! directly: a fixed fleet (`n = 5`, `f = 1`), a fixed client fleet of
//! [`THREADS`] synchronous workers, and a put/get mix over [`KEYSPACE`]
//! keys, swept over `s ∈ {1, 4, 16}` × {uniform, Zipf(1.0)} skew.
//!
//! Two properties are asserted, matching the claims in DESIGN.md §9:
//!
//! * **Socket sharing** — every client transport ends each cell with
//!   exactly its fleet's worth of live sockets, never `s × n`:
//!   connections are keyed by physical server and multiplexed across
//!   every group the server hosts. The wide leg stresses this hardest —
//!   64 groups × 5 replicas is 320 logical endpoints through 7 sockets.
//! * **Monotone scaling** — median throughput does not degrade as shards
//!   grow, `rate(1) ⪅ rate(4) ⪅ rate(16)` per skew (with a small noise
//!   allowance, [`MONOTONE_SLACK`] — the harness runs on whatever CPU it
//!   gets, and on a single core the win is bounded by lock-churn savings,
//!   not parallelism).
//!
//! Cells run as interleaved trials (every cell once per round, medians
//! across [`TRIALS`] rounds) so clock drift and allocator warm-up smear
//! across the whole matrix instead of biasing one cell.

use std::sync::Mutex;
use std::time::Instant;

use safereg_common::config::QuorumConfig;
use safereg_common::ids::{ReaderId, ServerId, WriterId};
use safereg_common::rng::{DetRng, Zipf};
use safereg_common::shard::ShardMap;
use safereg_kv::client::KvClient;
use safereg_kv::server::KvMode;
use safereg_kv::tcp::TcpKvCluster;

use crate::cli::Report;
use crate::json::Json;

/// Synchronous client workers per cell. More threads than cores is the
/// point: contention on the server-side group mutex is what shards split.
pub const THREADS: usize = 8;
/// Distinct keys; enough that 16 shards all own a useful slice.
pub const KEYSPACE: usize = 512;
/// Operations per thread per trial (1 put : 3 gets).
pub const OPS_PER_THREAD: usize = 96;
/// Trial rounds per cell; the reported rate and p99 are medians.
pub const TRIALS: usize = 5;
/// A cell may undercut its smaller-shard-count neighbour by at most this
/// factor before the monotone-scaling check fails. Generous on purpose:
/// on a shared single core the per-cell median still jitters by several
/// percent, and the property under test is "sharding never *costs*
/// throughput", not a fixed speed-up.
pub const MONOTONE_SLACK: f64 = 0.85;
/// Shard counts swept, smallest first (the monotone check walks pairs).
pub const SHARD_COUNTS: [u16; 3] = [1, 4, 16];
/// The wide leg: 64 register groups with an m &lt; n placement
/// ([`ShardMap::with_replicas`]) — each group is served by only
/// [`WIDE_M`] of the [`WIDE_FLEET`] physical servers, the
/// horizontal-scaling shape. Excluded from the monotone comparison (its
/// fleet differs) but fully subject to the socket-sharing invariant:
/// sockets stay bounded by the *fleet*, never `s × m`.
pub const WIDE_SHARDS: u16 = 64;
/// Physical servers in the wide leg's fleet.
pub const WIDE_FLEET: usize = 7;
/// Replicas per register group in the wide leg (m &lt; n).
pub const WIDE_M: usize = 5;
/// Per-group fault bound in the wide leg.
pub const WIDE_F: usize = 1;

/// Key-popularity skew for one cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Skew {
    /// Every key equally likely.
    Uniform,
    /// Zipf(1.0) over the keyspace: rank-1 key dominates.
    Zipf,
}

impl Skew {
    fn label(self) -> &'static str {
        match self {
            Skew::Uniform => "uniform",
            Skew::Zipf => "zipf",
        }
    }
}

/// One (shards, skew) cell's median measurements.
#[derive(Debug, Clone)]
pub struct ShardCell {
    /// Register groups over the fleet.
    pub shards: u16,
    /// `"uniform"` or `"zipf"`.
    pub skew: &'static str,
    /// Operations completed per trial (all threads).
    pub ops: u64,
    /// Median throughput across trials.
    pub ops_per_sec: f64,
    /// Median-of-trials 99th-percentile op latency.
    pub p99_micros: u64,
    /// Fewest live sockets any client transport held at trial end.
    pub sockets_min: usize,
    /// Most live sockets any client transport held at trial end.
    pub sockets_max: usize,
    /// Physical fleet size this cell's socket invariant is judged
    /// against (`n` for the m = n matrix, [`WIDE_FLEET`] for the wide
    /// m &lt; n leg).
    pub fleet: usize,
}

/// The full matrix plus the fleet size the socket invariant is judged
/// against.
#[derive(Debug, Clone)]
pub struct ShardBenchResult {
    /// Physical servers (also every shard's replica-set size here).
    pub n: usize,
    /// One row per (shards, skew) cell.
    pub cells: Vec<ShardCell>,
    /// Hottest shard a Zipf client observed at `s = 16` (gauge readback).
    pub hot_shard: u16,
    /// Ops the hottest shard had absorbed when the run ended.
    pub hot_shard_ops: u64,
}

impl Report for ShardBenchResult {
    const NAME: &'static str = "shard";

    /// Both invariants: exactly-`n` sockets everywhere, and per-skew
    /// throughput monotone (within [`MONOTONE_SLACK`]) in shard count.
    fn ok(&self) -> bool {
        self.sockets_ok() && self.monotone_ok()
    }

    fn json(&self) -> Json {
        Json::object()
            .num("n", self.n)
            .num("hot_shard", self.hot_shard)
            .num("hot_shard_ops", self.hot_shard_ops)
            .num("sockets_ok", self.sockets_ok())
            .num("monotone_ok", self.monotone_ok())
            .field(
                "cells",
                Json::array(self.cells.iter().map(|c| {
                    Json::object()
                        .num("shards", c.shards)
                        .str("skew", c.skew)
                        .num("ops", c.ops)
                        .float("ops_per_sec", c.ops_per_sec, 1)
                        .num("p99_micros", c.p99_micros)
                        .num("sockets_min", c.sockets_min)
                        .num("sockets_max", c.sockets_max)
                        .num("fleet", c.fleet)
                        .end()
                })),
            )
            .end()
    }
}

impl ShardBenchResult {
    /// Every cell's every transport ended with exactly its fleet's worth
    /// of sockets — `n` for the m = n matrix, [`WIDE_FLEET`] for the
    /// s = 64 m &lt; n leg, and never `s × m` anywhere.
    pub fn sockets_ok(&self) -> bool {
        self.cells
            .iter()
            .all(|c| c.sockets_min == c.fleet && c.sockets_max == c.fleet)
    }

    /// Per skew, walking [`SHARD_COUNTS`] in order never loses more than
    /// the noise allowance. The wide m &lt; n leg is excluded: it runs on
    /// a different fleet, so its rate is not comparable.
    pub fn monotone_ok(&self) -> bool {
        for skew in [Skew::Uniform, Skew::Zipf] {
            let rates: Vec<f64> = SHARD_COUNTS
                .iter()
                .filter_map(|s| {
                    self.cells
                        .iter()
                        .find(|c| c.shards == *s && c.skew == skew.label())
                        .map(|c| c.ops_per_sec)
                })
                .collect();
            if rates.len() != SHARD_COUNTS.len() {
                return false;
            }
            if rates.windows(2).any(|w| w[1] < w[0] * MONOTONE_SLACK) {
                return false;
            }
        }
        true
    }
}

/// The synthetic key for popularity rank `r`.
fn key_of(rank: usize) -> Vec<u8> {
    format!("user-{rank:08}").into_bytes()
}

/// One live cluster: a cell's cluster persists across its trials so later
/// rounds measure steady state, not cold connects.
struct Cell {
    shards: u16,
    skew: Skew,
    /// Keep-alive: dropping the cluster stops its listeners mid-trial.
    _cluster: TcpKvCluster,
    map: ShardMap,
    /// One (client, transport) pair per worker thread, kept across trials
    /// so sequence numbers stay monotone.
    workers: Vec<(KvClient, safereg_kv::TcpKvTransport)>,
    /// Per-trial (ops, ops/sec, p99 µs, min sockets, max sockets).
    trials: Vec<(u64, f64, u64, usize, usize)>,
}

impl Cell {
    fn start(shards: u16, skew: Skew) -> std::io::Result<Cell> {
        let cfg = QuorumConfig::minimal_bsr(1).expect("n = 5 BSR point");
        let fleet: Vec<ServerId> = cfg.servers().collect();
        let map = if shards == 1 {
            ShardMap::single(cfg)
        } else {
            ShardMap::new(0x5AFE_BE9C, shards, fleet, cfg).expect("m = n fits the fleet")
        };
        Cell::serve(map, skew, b"shard-bench")
    }

    /// The wide m &lt; n leg: [`WIDE_SHARDS`] register groups placed over a
    /// [`WIDE_FLEET`]-server fleet with only [`WIDE_M`] replicas each.
    fn start_wide(skew: Skew) -> std::io::Result<Cell> {
        let fleet: Vec<ServerId> = (0..WIDE_FLEET as u16).map(ServerId).collect();
        let map = ShardMap::with_replicas(0x5AFE_3164, WIDE_SHARDS, fleet, WIDE_M, WIDE_F)
            .expect("m < n fits the fleet");
        Cell::serve(map, skew, b"shard-bench-wide")
    }

    /// Starts a cluster serving `map` and one client per worker thread.
    fn serve(map: ShardMap, skew: Skew, master_seed: &[u8]) -> std::io::Result<Cell> {
        let cluster = TcpKvCluster::builder(KvMode::Replicated, master_seed)
            .shards(map.clone())
            .start()?;
        let workers = (0..THREADS)
            .map(|t| {
                let c = KvClient::sharded(map.clone(), WriterId(t as u16), ReaderId(t as u16));
                (c, cluster.transport())
            })
            .collect();
        Ok(Cell {
            shards: map.num_shards(),
            skew,
            _cluster: cluster,
            map,
            workers,
            trials: Vec::with_capacity(TRIALS),
        })
    }

    /// Runs one trial: all workers in parallel, each timing every op.
    fn trial(&mut self, round: usize) {
        let skew = self.skew;
        let shards = self.shards;
        let results: Mutex<Vec<(u64, Vec<u64>, usize)>> = Mutex::new(Vec::new());
        let start = Instant::now();
        std::thread::scope(|scope| {
            for (t, (client, transport)) in self.workers.iter_mut().enumerate() {
                let results = &results;
                scope.spawn(move || {
                    let mut rng = DetRng::seed_from(
                        0xD15C_0000 ^ (round as u64) << 32 ^ (u64::from(shards)) << 16 ^ t as u64,
                    );
                    let zipf = Zipf::new(KEYSPACE, 1.0);
                    let mut lat = Vec::with_capacity(OPS_PER_THREAD);
                    let mut done = 0u64;
                    for i in 0..OPS_PER_THREAD {
                        let rank = match skew {
                            Skew::Uniform => rng.index(KEYSPACE),
                            Skew::Zipf => zipf.sample(&mut rng),
                        };
                        let key = key_of(rank);
                        let t0 = Instant::now();
                        let ok = if i % 4 == 0 {
                            client
                                .put(transport, &key, format!("r{round}:{i}").into_bytes())
                                .is_ok()
                        } else {
                            client.get(transport, &key).is_ok()
                        };
                        if ok {
                            lat.push(t0.elapsed().as_micros() as u64);
                            done += 1;
                        }
                    }
                    let sockets = transport.live_sockets();
                    results
                        .lock()
                        .expect("results lock")
                        .push((done, lat, sockets));
                });
            }
        });
        let wall = start.elapsed().as_secs_f64();
        let per_thread = results.into_inner().expect("results lock");
        let ops: u64 = per_thread.iter().map(|(d, _, _)| d).sum();
        let mut lat: Vec<u64> = per_thread
            .iter()
            .flat_map(|(_, l, _)| l.iter().copied())
            .collect();
        lat.sort_unstable();
        let p99 = lat
            .get((lat.len().saturating_sub(1)) * 99 / 100)
            .copied()
            .unwrap_or(0);
        let sockets_min = per_thread.iter().map(|(_, _, s)| *s).min().unwrap_or(0);
        let sockets_max = per_thread.iter().map(|(_, _, s)| *s).max().unwrap_or(0);
        self.trials.push((
            ops,
            ops as f64 / wall.max(1e-9),
            p99,
            sockets_min,
            sockets_max,
        ));
    }

    fn into_cell(self) -> ShardCell {
        let mut by_rate = self.trials.clone();
        by_rate.sort_by(|a, b| a.1.total_cmp(&b.1));
        let median = by_rate[by_rate.len() / 2];
        let mut p99s: Vec<u64> = self.trials.iter().map(|t| t.2).collect();
        p99s.sort_unstable();
        ShardCell {
            shards: self.shards,
            skew: self.skew.label(),
            ops: median.0,
            ops_per_sec: median.1,
            p99_micros: p99s[p99s.len() / 2],
            sockets_min: self.trials.iter().map(|t| t.3).min().unwrap_or(0),
            sockets_max: self.trials.iter().map(|t| t.4).max().unwrap_or(0),
            fleet: self.map.fleet().len(),
        }
    }
}

/// Runs the full matrix and returns the measurements.
///
/// # Panics
///
/// Panics if the cluster cannot bind loopback listeners.
pub fn run() -> ShardBenchResult {
    let n = QuorumConfig::minimal_bsr(1).expect("n = 5 BSR point").n();
    let mut cells: Vec<Cell> = SHARD_COUNTS
        .iter()
        .flat_map(|&s| [Skew::Uniform, Skew::Zipf].map(|skew| (s, skew)))
        .map(|(s, skew)| Cell::start(s, skew).expect("bind loopback listeners"))
        .collect();
    // The wide m < n leg rides the same interleaved trial schedule; one
    // skew is enough — the invariant under test is socket sharing, not
    // popularity response.
    cells.push(Cell::start_wide(Skew::Uniform).expect("bind loopback listeners"));
    // Warm-up round (not recorded): connects sockets, faults in code paths.
    for cell in &mut cells {
        let keep = std::mem::take(&mut cell.trials);
        cell.trial(usize::MAX);
        cell.trials = keep;
    }
    for round in 0..TRIALS {
        for cell in &mut cells {
            cell.trial(round);
        }
    }
    // Gauge readback: the s = 16 Zipf cell's clients tracked their hottest
    // shard; report the hottest across that cell's workers.
    let (mut hot_shard, mut hot_ops) = (0u16, 0u64);
    if let Some(cell) = cells
        .iter()
        .find(|c| c.shards == 16 && c.skew == Skew::Zipf)
    {
        for (client, _) in &cell.workers {
            let (g, o) = client.hot_shard();
            if o > hot_ops {
                hot_ops = o;
                hot_shard = g;
            }
        }
        debug_assert!(cell.map.num_shards() == 16);
    }
    ShardBenchResult {
        n,
        cells: cells.into_iter().map(Cell::into_cell).collect(),
        hot_shard,
        hot_shard_ops: hot_ops,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A down-scaled single cell: the socket-sharing invariant must hold
    /// (16 shards, still exactly `n` sockets per client).
    #[test]
    fn sixteen_shards_share_n_sockets() {
        let mut cell = Cell::start(16, Skew::Uniform).expect("bind listeners");
        cell.trial(0);
        let (_, _, _, lo, hi) = cell.trials[0];
        let n = QuorumConfig::minimal_bsr(1).unwrap().n();
        assert_eq!(lo, n, "a client transport holds fewer than n sockets");
        assert_eq!(hi, n, "a client transport opened more than n sockets");
    }

    /// The wide leg: 64 register groups, each on only m = 5 of a
    /// 7-server fleet — sockets stay exactly the fleet size (7), never
    /// `s × m` (320).
    #[test]
    fn wide_m_lt_n_leg_shares_fleet_sockets() {
        let mut cell = Cell::start_wide(Skew::Uniform).expect("bind listeners");
        cell.trial(0);
        let (ops, _, _, lo, hi) = cell.trials[0];
        assert!(ops > 0, "wide cell made no progress");
        assert_eq!(lo, WIDE_FLEET, "a transport holds fewer than fleet sockets");
        assert_eq!(hi, WIDE_FLEET, "a transport opened more than fleet sockets");
        assert_eq!(
            cell.map.shard_config().n(),
            WIDE_M,
            "per-group replica count"
        );
    }
}
