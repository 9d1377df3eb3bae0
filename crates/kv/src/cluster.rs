//! In-process KV deployment with fault injection.

use std::collections::BTreeSet;

use safereg_common::config::QuorumConfig;
use safereg_common::ids::{ClientId, ServerId};
use safereg_common::msg::{ClientToServer, ServerToClient};
use safereg_common::shard::{ShardId, ShardMap};
use safereg_common::trace::{Phase, TraceCtx};

use crate::client::{KvTransport, Unreachable};
use crate::server::{KvMode, KvServer};

/// An in-memory cluster of [`KvServer`]s with crash injection — the
/// synchronous deployment used by examples and tests (the simulator and
/// the TCP transport cover asynchronous and real-network deployments of
/// the underlying registers). One process per fleet server; each hosts a
/// register group per shard the [`ShardMap`] places on it.
#[derive(Debug)]
pub struct InMemKvCluster {
    map: ShardMap,
    servers: Vec<KvServer>,
    crashed: BTreeSet<ServerId>,
}

impl InMemKvCluster {
    /// Starts `n` replicated-mode replicas serving one register group
    /// (the pre-sharding deployment shape).
    pub fn new(cfg: QuorumConfig) -> Self {
        Self::new_sharded(ShardMap::single(cfg), KvMode::Replicated)
    }

    /// Starts `n` coded-mode replicas (`n ≥ 5f + 1`), one register group.
    ///
    /// # Panics
    ///
    /// Panics when the configuration admits no `[n, n − 5f]` code.
    pub fn new_coded(cfg: QuorumConfig) -> Self {
        Self::new_sharded(ShardMap::single(cfg), KvMode::Coded)
    }

    /// Starts one replica per fleet server of `map`, each hosting its
    /// placed register groups.
    ///
    /// # Panics
    ///
    /// Panics in coded mode when the per-shard configuration admits no
    /// `[m, m − 5f]` code.
    pub fn new_sharded(map: ShardMap, mode: KvMode) -> Self {
        let servers = map
            .fleet()
            .iter()
            .map(|sid| KvServer::sharded(*sid, map.clone(), mode))
            .collect();
        InMemKvCluster {
            map,
            servers,
            crashed: BTreeSet::new(),
        }
    }

    /// The per-shard deployment configuration.
    pub fn config(&self) -> QuorumConfig {
        self.map.shard_config()
    }

    /// The shard placement the cluster serves.
    pub fn map(&self) -> &ShardMap {
        &self.map
    }

    /// Crashes a server: it stops responding (fail-silent).
    pub fn crash(&mut self, sid: ServerId) {
        self.crashed.insert(sid);
    }

    /// Restarts a crashed server with its state intact (a crash-recover
    /// server is indistinguishable from a slow one in this model).
    pub fn recover(&mut self, sid: ServerId) {
        self.crashed.remove(&sid);
    }

    /// Total key count across replicas (diagnostics).
    pub fn total_keys(&self) -> usize {
        self.servers.iter().map(KvServer::key_count).sum()
    }

    /// Total stored payload bytes across replicas.
    pub fn total_storage_bytes(&self) -> usize {
        self.servers.iter().map(KvServer::storage_bytes).sum()
    }
}

impl KvTransport for InMemKvCluster {
    fn exchange(
        &mut self,
        from: ClientId,
        to: ServerId,
        shard: ShardId,
        key: &[u8],
        msg: &ClientToServer,
        trace: TraceCtx,
    ) -> Result<Vec<ServerToClient>, Unreachable> {
        // A crashed replica is a network-level fault (connection refused),
        // not Byzantine silence — retry logic may probe it again.
        if self.crashed.contains(&to) {
            return Err(Unreachable { server: to });
        }
        match self.servers.iter().find(|s| s.id() == to) {
            // The in-memory hop keeps the causal chain: the server's
            // lock-wait and dispatch segments attach one hop below the
            // client's op, same as over TCP.
            Some(server) => {
                let trace = trace.hopped(Phase::Dispatch);
                let responses = server.handle_traced(from, shard, key, msg, trace, None);
                Ok(responses.into_iter().map(|(resp, _)| resp).collect())
            }
            None => Err(Unreachable { server: to }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::KvClient;
    use safereg_common::ids::{ReaderId, WriterId};

    #[test]
    fn crash_and_recover() {
        let cfg = QuorumConfig::minimal_bsr(1).unwrap();
        let mut cluster = InMemKvCluster::new(cfg);
        let mut client = KvClient::new(cfg, WriterId(0), ReaderId(0));

        client.put(&mut cluster, b"k", "v1").unwrap();
        cluster.crash(ServerId(2));
        cluster.crash(ServerId(3));
        assert!(
            client.put(&mut cluster, b"k", "v2").is_err(),
            "2 > f crashes starve the quorum"
        );
        cluster.recover(ServerId(3));
        client.put(&mut cluster, b"k", "v3").unwrap();
        assert_eq!(client.get(&mut cluster, b"k").unwrap().as_bytes(), b"v3");
    }

    #[test]
    fn storage_grows_with_keys() {
        let cfg = QuorumConfig::minimal_bsr(1).unwrap();
        let mut cluster = InMemKvCluster::new(cfg);
        let mut client = KvClient::new(cfg, WriterId(0), ReaderId(0));
        client.put(&mut cluster, b"a", "xx").unwrap();
        client.put(&mut cluster, b"b", "yy").unwrap();
        // A write completes at n − f acks; the remaining server may never
        // see the put, so storage lands between the quorum and full
        // replication.
        let quorum = cfg.response_quorum();
        assert!((2 * quorum..=2 * cfg.n()).contains(&cluster.total_keys()));
        let bytes = cluster.total_storage_bytes();
        assert!((2 * 2 * quorum..=2 * 2 * cfg.n()).contains(&bytes));
    }

    #[test]
    fn sharded_cluster_tolerates_f_crashes_per_shard() {
        let cfg = QuorumConfig::minimal_bsr(1).unwrap();
        let fleet: Vec<ServerId> = (0..7).map(ServerId).collect();
        let map = ShardMap::new(3, 4, fleet, cfg).unwrap();
        let mut cluster = InMemKvCluster::new_sharded(map.clone(), KvMode::Replicated);
        let mut client = KvClient::sharded(map.clone(), WriterId(0), ReaderId(0));
        client.put(&mut cluster, b"resilient", "v").unwrap();
        // Crash one replica of the key's own shard: still f-tolerant.
        let g = map.shard_of(b"resilient");
        let victim = map.replicas(g).unwrap()[0];
        cluster.crash(victim);
        assert_eq!(
            client.get(&mut cluster, b"resilient").unwrap().as_bytes(),
            b"v"
        );
    }
}

#[cfg(test)]
mod coded_tests {
    use super::*;
    use crate::client::KvClient;
    use safereg_common::ids::{ReaderId, WriterId};

    #[test]
    fn coded_kv_roundtrip_and_savings() {
        let cfg = QuorumConfig::new(8, 1).unwrap(); // k = 3: real coding
        let mut coded = InMemKvCluster::new_coded(cfg);
        let mut client = KvClient::new_coded(cfg, WriterId(0), ReaderId(0));

        let value = vec![0x42u8; 300];
        client.put(&mut coded, b"big", value.clone()).unwrap();
        assert_eq!(
            client.get(&mut coded, b"big").unwrap().as_bytes(),
            &value[..]
        );

        // Coded storage: each replica keeps ceil(300/3) = 100 bytes.
        let mut repl = InMemKvCluster::new(cfg);
        let mut repl_client = KvClient::new(cfg, WriterId(0), ReaderId(0));
        repl_client.put(&mut repl, b"big", value).unwrap();
        assert!(
            coded.total_storage_bytes() * 2 < repl.total_storage_bytes(),
            "coded {} vs replicated {}",
            coded.total_storage_bytes(),
            repl.total_storage_bytes()
        );
    }

    #[test]
    fn coded_kv_survives_f_crashes() {
        let cfg = QuorumConfig::minimal_bcsr(1).unwrap();
        let mut cluster = InMemKvCluster::new_coded(cfg);
        let mut client = KvClient::new_coded(cfg, WriterId(0), ReaderId(0));
        client.put(&mut cluster, b"k", "survives").unwrap();
        cluster.crash(ServerId(5));
        assert_eq!(
            client.get(&mut cluster, b"k").unwrap().as_bytes(),
            b"survives"
        );
    }
}
