//! Client-side epoch adoption, sans-io: an `InMemKvCluster` behind a
//! transport that answers `WrongEpoch` for chosen servers.
//!
//! A client moves to a newer configuration only when `f + 1` distinct
//! servers redirect to the same one, and only to a configuration newer
//! than its own that the shard ring can place; an op rides out a bounded
//! number of adoptions and then gives up.

use std::collections::BTreeSet;
use std::time::Duration;

use safereg_common::config::{BackoffPolicy, QuorumConfig, TransportConfig};
use safereg_common::epoch::EpochConfig;
use safereg_common::ids::{ClientId, ReaderId, ServerId, WriterId};
use safereg_common::msg::{ClientToServer, ServerToClient};
use safereg_common::shard::{ShardId, ShardMap};
use safereg_common::trace::TraceCtx;
use safereg_kv::{InMemKvCluster, KvClient, KvError, KvMode, KvTransport, Unreachable};

/// Redirects the servers in `redirecting` to `newer(adopted)`, where
/// `adopted` is the epoch of the transport's last `reconfigure` — the
/// sans-io stand-in for a frame stamp the servers no longer accept.
struct Redirects {
    inner: InMemKvCluster,
    redirecting: BTreeSet<ServerId>,
    newer: Box<dyn Fn(u32) -> Option<EpochConfig>>,
    /// When set, a server redirects only its first exchange.
    once: bool,
    redirected: BTreeSet<ServerId>,
    adopted: u32,
    reconfigures: Vec<u32>,
    contacted: BTreeSet<ServerId>,
}

impl Redirects {
    fn new(
        inner: InMemKvCluster,
        redirecting: &[u16],
        newer: impl Fn(u32) -> Option<EpochConfig> + 'static,
    ) -> Self {
        Redirects {
            inner,
            redirecting: redirecting.iter().copied().map(ServerId).collect(),
            newer: Box::new(newer),
            once: false,
            redirected: BTreeSet::new(),
            adopted: 0,
            reconfigures: Vec::new(),
            contacted: BTreeSet::new(),
        }
    }
}

impl KvTransport for Redirects {
    fn exchange(
        &mut self,
        from: ClientId,
        to: ServerId,
        shard: ShardId,
        key: &[u8],
        msg: &ClientToServer,
        trace: TraceCtx,
    ) -> Result<Vec<ServerToClient>, Unreachable> {
        self.contacted.insert(to);
        if self.redirecting.contains(&to) && !(self.once && self.redirected.contains(&to)) {
            if let Some(config) = (self.newer)(self.adopted) {
                self.redirected.insert(to);
                return Ok(vec![ServerToClient::WrongEpoch {
                    op: msg.op(),
                    config,
                }]);
            }
        }
        self.inner.exchange(from, to, shard, key, msg, trace)
    }

    fn reconfigure(&mut self, config: &EpochConfig) {
        self.adopted = config.epoch;
        self.reconfigures.push(config.epoch);
    }
}

fn fleet(ids: std::ops::Range<u16>) -> Vec<ServerId> {
    ids.map(ServerId).collect()
}

fn at(epoch: u32, ids: std::ops::Range<u16>) -> EpochConfig {
    EpochConfig::at_epoch(epoch, EpochConfig::genesis(fleet(ids)).members)
}

/// A client whose retry passes do not sleep.
fn client(map: ShardMap) -> KvClient {
    let mut client = KvClient::sharded(map, WriterId(0), ReaderId(0));
    client.set_policy(TransportConfig {
        backoff: BackoffPolicy {
            base: Duration::ZERO,
            cap: Duration::ZERO,
            jitter_permille: 0,
        },
        ..TransportConfig::default()
    });
    client
}

#[test]
fn f_byzantine_redirects_to_a_fabricated_config_never_move_the_client() {
    for f in 1..=2u16 {
        let cfg = QuorumConfig::minimal_bsr(f as usize).unwrap();
        let n = cfg.n() as u16;
        // The first `f` servers the client contacts (it works down from
        // the highest logical index) all vouch for one fabricated view.
        let liars: Vec<u16> = (n - f..n).collect();
        let mut t = Redirects::new(InMemKvCluster::new(cfg), &liars, |_| Some(at(9, 0..64)));
        let mut c = client(ShardMap::single(cfg));
        c.put(&mut t, b"k", "v").unwrap();
        assert_eq!(c.get(&mut t, b"k").unwrap().as_bytes(), b"v");
        assert_eq!(c.epoch(), 0, "f = {f}: f redirects moved the client");
        assert!(t.reconfigures.is_empty(), "f = {f}: {:?}", t.reconfigures);
        assert_eq!(c.map(), &ShardMap::single(cfg));
    }
}

#[test]
fn f_plus_one_matching_redirects_adopt_once_and_complete_on_the_new_map() {
    let cfg = QuorumConfig::minimal_bsr(1).unwrap();
    // The cluster serves the 6-server fleet on a placement that includes
    // s5; the client starts on the genesis map over s0..s4.
    let seed = (0..)
        .find(|s| {
            let map = ShardMap::new(*s, 1, fleet(0..6), cfg).unwrap();
            map.replicas(ShardId(0)).unwrap().contains(&ServerId(5))
        })
        .unwrap();
    let map = ShardMap::new(seed, 1, fleet(0..6), cfg).unwrap();
    let cluster = InMemKvCluster::new_sharded(map.clone(), KvMode::Replicated);
    let mut t = Redirects::new(cluster, &[4, 3], |adopted| {
        (adopted < 1).then(|| at(1, 0..6))
    });
    let mut c = client(ShardMap::new(seed, 1, fleet(0..5), cfg).unwrap());

    c.put(&mut t, b"k", "v").unwrap();
    assert_eq!(c.epoch(), 1);
    assert_eq!(t.reconfigures, vec![1], "adopt exactly once");
    assert_eq!(c.map(), &map, "the client routes through the adopted map");
    assert!(
        t.contacted.contains(&ServerId(5)),
        "the op reached the joiner after the hop"
    );

    let mut fresh = client(map);
    fresh.align_epoch(1);
    assert_eq!(fresh.get(&mut t, b"k").unwrap().as_bytes(), b"v");
    assert_eq!(c.get(&mut t, b"k").unwrap().as_bytes(), b"v");
    assert_eq!(t.reconfigures, vec![1], "no further adoption");
}

#[test]
fn redirects_at_or_below_the_client_epoch_gather_no_votes() {
    let cfg = QuorumConfig::minimal_bsr(1).unwrap();
    for stale in [2, 3] {
        // f + 1 servers redirect once each to the same view, which is not
        // newer than the client's; the op completes when they answer on
        // the retry pass.
        let newer = move |_| Some(at(stale, 0..5));
        let mut t = Redirects::new(InMemKvCluster::new(cfg), &[4, 3], newer);
        t.once = true;
        let mut c = client(ShardMap::single(cfg));
        c.align_epoch(3);
        c.put(&mut t, b"k", "v").unwrap();
        assert_eq!(c.epoch(), 3, "epoch {stale} redirects moved the client");
        assert!(t.reconfigures.is_empty(), "{:?}", t.reconfigures);
    }
}

#[test]
fn a_vouched_fleet_the_ring_cannot_place_is_dropped_and_the_op_carries_on() {
    let cfg = QuorumConfig::minimal_bsr(1).unwrap();
    // Two members cannot hold a five-replica shard: `for_fleet` fails.
    let mut t = Redirects::new(InMemKvCluster::new(cfg), &[4, 3], |_| Some(at(1, 0..2)));
    t.once = true;
    let mut c = client(ShardMap::single(cfg));
    c.put(&mut t, b"k", "v").unwrap();
    assert_eq!(c.epoch(), 0);
    assert!(t.reconfigures.is_empty(), "{:?}", t.reconfigures);
    assert_eq!(c.get(&mut t, b"k").unwrap().as_bytes(), b"v");
}

#[test]
fn an_advancing_fleet_spends_the_hop_budget_then_fails() {
    let cfg = QuorumConfig::minimal_bsr(1).unwrap();
    // Every adoption is answered by a redirect to the next epoch.
    let mut t = Redirects::new(InMemKvCluster::new(cfg), &[4, 3], |adopted| {
        Some(at(adopted + 1, 0..5))
    });
    let mut c = client(ShardMap::single(cfg));
    let err = c.put(&mut t, b"k", "v").unwrap_err();
    assert_eq!(
        err,
        KvError::QuorumUnavailable {
            responded: 0,
            needed: 4,
            unreachable: 0
        }
    );
    // The first attempt plus MAX_EPOCH_HOPS = 3 more, each ended by one
    // adoption.
    assert_eq!(t.reconfigures, vec![1, 2, 3, 4]);
    assert_eq!(c.epoch(), 4);
}
