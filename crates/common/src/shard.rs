//! Key-space sharding: the hash ring mapping keys to register-group
//! shards and shards to replica subsets.
//!
//! One register group per cluster caps every throughput number at one
//! quorum's worth of work. A [`ShardMap`] partitions the key space into
//! `s` independent register groups ("shards"), each served by its own
//! replica subset drawn from one shared fleet of physical servers:
//!
//! * **key → shard** runs over a seeded consistent-hash ring with
//!   [`VNODES`] virtual points per shard, so per-shard key populations
//!   stay within a documented balance bound (see [`ShardMap::shard_of`])
//!   and growing the map from `s` to `s + 1` shards remaps only
//!   `≈ 1/(s+1)` of the keys — the property that makes the map an
//!   epoch-ready structure for reconfiguration instead of a `hash % s`
//!   that reshuffles almost everything.
//! * **shard → replicas** uses rendezvous (highest-random-weight) hashing
//!   over the fleet: every process that knows the seed and the fleet
//!   derives the identical placement, so clients route and servers decide
//!   group membership without any coordination message.
//!
//! Within one shard the register protocol is completely unchanged: the
//! shard's replica subset of size `m` runs BSR/BCSR with the *same* fault
//! bound `f` it would run standalone (`m ≥ 4f + 1` replicated,
//! `m ≥ 5f + 1` coded). Sharding multiplies throughput by spreading
//! independent register groups over the fleet; it neither strengthens nor
//! weakens what each group tolerates — per-shard `f` is per-subset, and a
//! physical server may count against `f` in one shard while serving
//! another honestly.
//!
//! Protocol operations inside a shard address **logical** replica indices
//! `0 .. m-1` (the ids [`QuorumConfig::servers`] enumerates for the
//! shard's config); the map translates them to **physical** fleet ids at
//! the routing layer ([`ShardMap::physical`] / [`ShardMap::logical_of`]).
//! That keeps the sans-io protocol crates untouched and lets `s` shards
//! share one socket per physical server instead of `s × n` connections.

use std::collections::BTreeMap;
use std::fmt;

use crate::codec::{BytesReader, Wire, WireError};
use crate::config::QuorumConfig;
use crate::ids::ServerId;

/// Identifier of a register-group shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ShardId(pub u16);

impl fmt::Display for ShardId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "g{}", self.0)
    }
}

impl Wire for ShardId {
    fn encode_to(&self, buf: &mut Vec<u8>) {
        self.0.encode_to(buf);
    }

    fn decode_borrowed(r: &mut BytesReader<'_>) -> Result<Self, WireError> {
        Ok(ShardId(u16::decode_borrowed(r)?))
    }
}

/// Virtual ring points per shard. 128 points keep the largest arc share
/// close to its fair `1/s`: across seeds and shard counts up to 64, the
/// per-shard key count stays within the [`BALANCE_BOUND`] of the mean
/// (property-tested in `tests/shard_ring.rs`).
pub const VNODES: usize = 128;

/// Documented balance bound: with [`VNODES`] points per shard, every
/// shard's key count stays within `mean / BALANCE_BOUND ..= mean *
/// BALANCE_BOUND` for uniform-hashed key populations (Zipf-drawn key
/// *sets* hash uniformly too — skew concentrates ops, not key placement).
pub const BALANCE_BOUND: f64 = 2.0;

/// Error building a [`ShardMap`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardMapError {
    /// No shards requested.
    NoShards,
    /// The per-shard replica subset is larger than the fleet.
    SubsetExceedsFleet {
        /// Requested replicas per shard.
        m: usize,
        /// Physical servers available.
        fleet: usize,
    },
    /// The fleet was empty.
    EmptyFleet,
    /// The requested per-shard `(m, f)` pair is not a valid quorum
    /// configuration (`m == 0`, `f ≥ m`, or `m > 255`).
    BadQuorum {
        /// Requested replicas per shard.
        m: usize,
        /// Requested per-shard fault bound.
        f: usize,
    },
}

impl fmt::Display for ShardMapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShardMapError::NoShards => write!(f, "shard map needs at least one shard"),
            ShardMapError::SubsetExceedsFleet { m, fleet } => {
                write!(f, "per-shard subset m={m} exceeds the fleet of {fleet}")
            }
            ShardMapError::EmptyFleet => write!(f, "shard map needs at least one server"),
            ShardMapError::BadQuorum { m, f: faults } => {
                write!(
                    f,
                    "per-shard quorum m={m} f={faults} is not a valid configuration"
                )
            }
        }
    }
}

impl std::error::Error for ShardMapError {}

/// 64-bit avalanche mix (SplitMix64 finalizer) over an FNV-1a pass —
/// deterministic across platforms and good enough to spread ring points
/// and rendezvous scores uniformly.
fn hash64(seed: u64, bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64 ^ seed;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h ^= h >> 30;
    h = h.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    h ^= h >> 27;
    h = h.wrapping_mul(0x94D0_49BB_1331_11EB);
    h ^ (h >> 31)
}

/// Seeded placement of shards onto a fleet: key ring + replica subsets.
///
/// The map is a pure function of `(seed, shards, fleet, shard_cfg)` —
/// every client and every server rebuilds the identical structure, which
/// is what makes routing coordination-free and the membership structure
/// ready for epoch-numbered reconfiguration later.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardMap {
    seed: u64,
    shard_cfg: QuorumConfig,
    fleet: Vec<ServerId>,
    /// Consistent-hash ring: vnode point → owning shard.
    ring: BTreeMap<u64, ShardId>,
    /// Rendezvous placement: shard → its `m` physical replicas, in
    /// logical-index order (`replicas[i]` is logical `ServerId(i)`).
    placement: Vec<Vec<ServerId>>,
}

impl ShardMap {
    /// Builds a map of `shards` register groups over `fleet`, each served
    /// by a subset of `shard_cfg.n()` replicas tolerating `shard_cfg.f()`
    /// Byzantine members.
    ///
    /// # Errors
    ///
    /// [`ShardMapError`] when `shards == 0`, the fleet is empty, or the
    /// per-shard subset exceeds the fleet.
    pub fn new(
        seed: u64,
        shards: u16,
        fleet: Vec<ServerId>,
        shard_cfg: QuorumConfig,
    ) -> Result<Self, ShardMapError> {
        if shards == 0 {
            return Err(ShardMapError::NoShards);
        }
        if fleet.is_empty() {
            return Err(ShardMapError::EmptyFleet);
        }
        let m = shard_cfg.n();
        if m > fleet.len() {
            return Err(ShardMapError::SubsetExceedsFleet {
                m,
                fleet: fleet.len(),
            });
        }
        let mut ring = BTreeMap::new();
        for g in 0..shards {
            for v in 0..VNODES {
                let mut label = [0u8; 12];
                label[..2].copy_from_slice(&g.to_le_bytes());
                label[2..10].copy_from_slice(&(v as u64).to_le_bytes());
                label[10..].copy_from_slice(b"rg");
                // First-writer-wins on the (astronomically unlikely) point
                // collision keeps the map independent of insertion order.
                ring.entry(hash64(seed, &label)).or_insert(ShardId(g));
            }
        }
        let placement = (0..shards)
            .map(|g| {
                // Rendezvous: each server scores against the shard; the
                // top m scores are the shard's replicas. Logical order is
                // ascending physical id so that the one-shard-over-the-
                // whole-fleet map degenerates to the identity mapping.
                let mut scored: Vec<(u64, ServerId)> = fleet
                    .iter()
                    .map(|s| {
                        let mut label = [0u8; 4];
                        label[..2].copy_from_slice(&g.to_le_bytes());
                        label[2..].copy_from_slice(&s.0.to_le_bytes());
                        (hash64(seed ^ 0x9E37_79B9, &label), *s)
                    })
                    .collect();
                scored.sort_unstable_by(|a, b| b.cmp(a));
                let mut chosen: Vec<ServerId> =
                    scored.into_iter().take(m).map(|(_, s)| s).collect();
                chosen.sort_unstable();
                chosen
            })
            .collect();
        Ok(ShardMap {
            seed,
            shard_cfg,
            fleet,
            ring,
            placement,
        })
    }

    /// First-class m < n placement: `shards` register groups over `fleet`,
    /// each served by only `m` of the fleet's servers with per-subset
    /// fault bound `f`. This is the horizontal-scaling shape — adding
    /// servers grows the fleet without inflating every shard's quorum —
    /// that previously only arose transiently when the reconfig machinery
    /// added a replica to a full-fleet map.
    ///
    /// Equivalent to [`ShardMap::new`] with `QuorumConfig::new(m, f)`;
    /// exists so callers state the placement shape directly instead of
    /// building a quorum config whose only purpose is to carry `m`.
    ///
    /// # Errors
    ///
    /// [`ShardMapError::BadQuorum`] when `(m, f)` is not a valid quorum
    /// configuration, plus every [`ShardMap::new`] error.
    pub fn with_replicas(
        seed: u64,
        shards: u16,
        fleet: Vec<ServerId>,
        m: usize,
        f: usize,
    ) -> Result<Self, ShardMapError> {
        let cfg = QuorumConfig::new(m, f).map_err(|_| ShardMapError::BadQuorum { m, f })?;
        ShardMap::new(seed, shards, fleet, cfg)
    }

    /// The degenerate single-shard map: one register group over the whole
    /// fleet `cfg.servers()`, identity logical↔physical mapping. Every
    /// pre-sharding deployment is exactly this map.
    pub fn single(cfg: QuorumConfig) -> Self {
        ShardMap::new(0, 1, cfg.servers().collect(), cfg).expect("one shard over n >= 1 servers")
    }

    /// The placement seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Number of shards `s`.
    pub fn num_shards(&self) -> u16 {
        self.placement.len() as u16
    }

    /// Iterator over all shard ids.
    pub fn shards(&self) -> impl Iterator<Item = ShardId> + '_ {
        (0..self.num_shards()).map(ShardId)
    }

    /// The physical fleet the shards draw replicas from.
    pub fn fleet(&self) -> &[ServerId] {
        &self.fleet
    }

    /// The per-shard quorum configuration `(m, f)`. Identical for every
    /// shard: `f` is a per-subset bound, unchanged by sharding.
    pub fn shard_config(&self) -> QuorumConfig {
        self.shard_cfg
    }

    /// The shard owning `key`: successor lookup on the ring, wrapping.
    pub fn shard_of(&self, key: &[u8]) -> ShardId {
        let h = hash64(self.seed ^ 0x5AFE_5AFE, key);
        let next = self
            .ring
            .range(h..)
            .next()
            .or_else(|| self.ring.iter().next());
        *next.expect("ring holds >= VNODES points").1
    }

    /// The physical replicas serving `shard`, in logical-index order, or
    /// `None` for an unknown shard.
    pub fn replicas(&self, shard: ShardId) -> Option<&[ServerId]> {
        self.placement.get(shard.0 as usize).map(Vec::as_slice)
    }

    /// Translates a shard-logical replica index (the protocol's
    /// `ServerId(0..m)`) to the physical fleet id serving it.
    pub fn physical(&self, shard: ShardId, logical: ServerId) -> Option<ServerId> {
        self.replicas(shard)?.get(logical.0 as usize).copied()
    }

    /// Translates a physical fleet id back to its logical index within
    /// `shard`, or `None` when that server does not serve the shard.
    pub fn logical_of(&self, shard: ShardId, physical: ServerId) -> Option<ServerId> {
        self.replicas(shard)?
            .iter()
            .position(|s| *s == physical)
            .map(|i| ServerId(i as u16))
    }

    /// The shards a physical server serves (a replica hosts one register
    /// group per shard placed on it).
    pub fn shards_of_server(&self, physical: ServerId) -> Vec<ShardId> {
        self.shards()
            .filter(|g| self.logical_of(*g, physical).is_some())
            .collect()
    }

    /// The same map re-resolved over a different fleet — the epoch-change
    /// primitive. Seed, shard count, and per-shard `(m, f)` are preserved,
    /// so `shard_of` is *identical* across epochs (the key ring only
    /// depends on seed and shard count) and only shard→replica placement
    /// moves. Rendezvous scores are per `(shard, server)` and independent
    /// of the rest of the fleet, so a single added server displaces at
    /// most one incumbent per shard (the lowest-scored one), and a removed
    /// server is backfilled by exactly one newcomer per affected shard —
    /// the minimal-disruption property the churn tests assert.
    ///
    /// # Errors
    ///
    /// [`ShardMapError`] when the new fleet is empty or smaller than the
    /// per-shard subset `m`.
    pub fn for_fleet(&self, mut fleet: Vec<ServerId>) -> Result<ShardMap, ShardMapError> {
        fleet.sort_unstable();
        fleet.dedup();
        ShardMap::new(self.seed, self.num_shards(), fleet, self.shard_cfg)
    }
}

impl fmt::Display for ShardMap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "s={} fleet={} per-shard {}",
            self.num_shards(),
            self.fleet.len(),
            self.shard_cfg
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fleet(n: u16) -> Vec<ServerId> {
        (0..n).map(ServerId).collect()
    }

    #[test]
    fn single_is_identity() {
        let cfg = QuorumConfig::minimal_bsr(1).unwrap();
        let map = ShardMap::single(cfg);
        assert_eq!(map.num_shards(), 1);
        assert_eq!(map.shard_of(b"any-key"), ShardId(0));
        for s in cfg.servers() {
            assert_eq!(map.physical(ShardId(0), s), Some(s));
            assert_eq!(map.logical_of(ShardId(0), s), Some(s));
        }
    }

    #[test]
    fn placement_is_deterministic_and_seed_sensitive() {
        let cfg = QuorumConfig::minimal_bsr(1).unwrap();
        let a = ShardMap::new(7, 8, fleet(9), cfg).unwrap();
        let b = ShardMap::new(7, 8, fleet(9), cfg).unwrap();
        assert_eq!(a, b, "same inputs, same map");
        let c = ShardMap::new(8, 8, fleet(9), cfg).unwrap();
        let moved = (0..64)
            .filter(|i| {
                let k = format!("k{i}");
                a.shard_of(k.as_bytes()) != c.shard_of(k.as_bytes())
            })
            .count();
        assert!(moved > 0, "a different seed must reshuffle the ring");
    }

    #[test]
    fn logical_physical_roundtrip() {
        let cfg = QuorumConfig::minimal_bsr(1).unwrap();
        let map = ShardMap::new(3, 4, fleet(8), cfg).unwrap();
        for g in map.shards() {
            let replicas = map.replicas(g).unwrap();
            assert_eq!(replicas.len(), cfg.n());
            let mut uniq = replicas.to_vec();
            uniq.sort_unstable();
            uniq.dedup();
            assert_eq!(uniq.len(), cfg.n(), "replicas are distinct");
            for (i, p) in replicas.iter().enumerate() {
                assert_eq!(map.physical(g, ServerId(i as u16)), Some(*p));
                assert_eq!(map.logical_of(g, *p), Some(ServerId(i as u16)));
            }
        }
    }

    #[test]
    fn validation_errors() {
        let cfg = QuorumConfig::minimal_bsr(1).unwrap();
        assert_eq!(
            ShardMap::new(1, 0, fleet(5), cfg),
            Err(ShardMapError::NoShards)
        );
        assert_eq!(
            ShardMap::new(1, 1, vec![], cfg),
            Err(ShardMapError::EmptyFleet)
        );
        assert_eq!(
            ShardMap::new(1, 1, fleet(4), cfg),
            Err(ShardMapError::SubsetExceedsFleet { m: 5, fleet: 4 })
        );
    }

    #[test]
    fn with_replicas_places_m_of_the_fleet_per_shard() {
        let map = ShardMap::with_replicas(11, 4, fleet(8), 5, 1).unwrap();
        assert_eq!(map.shard_config().n(), 5);
        assert_eq!(map.shard_config().f(), 1);
        for g in map.shards() {
            assert_eq!(map.replicas(g).unwrap().len(), 5);
        }
        assert_eq!(
            ShardMap::with_replicas(11, 4, fleet(8), 5, 5),
            Err(ShardMapError::BadQuorum { m: 5, f: 5 })
        );
        assert_eq!(
            ShardMap::with_replicas(11, 4, fleet(3), 5, 1),
            Err(ShardMapError::SubsetExceedsFleet { m: 5, fleet: 3 })
        );
    }

    /// Property sweep over `m < fleet` placements: for a grid of seeds,
    /// shard counts, fleet sizes and `(m, f)` points, every shard must
    /// place exactly `m` *distinct* replicas drawn from the fleet, the
    /// logical↔physical maps must roundtrip, key routing must stay in
    /// range, and the whole placement must be a pure function of its
    /// inputs.
    #[test]
    fn shard_ring_property_holds_for_m_subsets() {
        for seed in [1u64, 0x5AFE, 0xDEAD_BEEF] {
            for shards in [1u16, 3, 8] {
                for fleet_n in [6u16, 8, 11] {
                    for (m, f) in [(5usize, 1usize), (6, 1)] {
                        if m > fleet_n as usize {
                            continue;
                        }
                        let map =
                            ShardMap::with_replicas(seed, shards, fleet(fleet_n), m, f).unwrap();
                        let again =
                            ShardMap::with_replicas(seed, shards, fleet(fleet_n), m, f).unwrap();
                        assert_eq!(map, again, "placement is deterministic");
                        for g in map.shards() {
                            let replicas = map.replicas(g).unwrap().to_vec();
                            assert_eq!(replicas.len(), m, "each shard places m replicas");
                            let mut uniq = replicas.clone();
                            uniq.sort_unstable();
                            uniq.dedup();
                            assert_eq!(uniq.len(), m, "replicas are distinct");
                            assert!(
                                replicas.iter().all(|s| s.0 < fleet_n),
                                "replicas come from the fleet"
                            );
                            for (i, p) in replicas.iter().enumerate() {
                                assert_eq!(map.physical(g, ServerId(i as u16)), Some(*p));
                                assert_eq!(map.logical_of(g, *p), Some(ServerId(i as u16)));
                            }
                        }
                        for k in 0..32u32 {
                            let key = format!("prop-{k}");
                            assert!(map.shard_of(key.as_bytes()).0 < shards);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn shards_of_server_partitions_work() {
        let cfg = QuorumConfig::minimal_bsr(1).unwrap();
        let map = ShardMap::new(11, 16, fleet(8), cfg).unwrap();
        let total: usize = (0..8)
            .map(|s| map.shards_of_server(ServerId(s)).len())
            .sum();
        assert_eq!(total, 16 * cfg.n(), "every shard has m replica slots");
    }
}
