//! TCP deployment of the key-value store.
//!
//! Every message travels as a [`KvFrame`](safereg_transport::frame::KvFrame)
//! — `(shard, key, envelope)` plus trace context, epoch stamp and
//! attestation link, MAC-authenticated under the pairwise link keys;
//! [`safereg_transport::frame`] owns the byte layout. Each request yields
//! at most one response frame on the same connection (the per-key register
//! protocol is strict request/response at the server), so the client
//! transport is a simple synchronous exchange — the quorum logic above it
//! supplies the fault tolerance.
//!
//! What lives where:
//!
//! * `host.rs` — [`KvServerHost`], built only by [`KvHostBuilder::spawn`]:
//!   the listener, the optional fronting chaos proxy, the reactor pool,
//!   and the per-frame serving path the reactors run (authenticate,
//!   admin-intercept, epoch-admit, dispatch, attest, seal).
//! * `transport.rs` — the client side: [`TcpKvTransport`] with its
//!   self-healing links and breakers, [`encode_request`] for load
//!   generators, and [`fetch_metrics`].
//! * `cluster.rs` — [`TcpKvCluster`] and its [`ClusterBuilder`]: a loopback
//!   deployment that spawns every host through one `spawn_host`, crashes,
//!   restarts and re-roles replicas, rolls membership changes with
//!   cross-epoch state transfer, and enforces audit verdicts.

mod cluster;
mod host;
mod transport;

pub use cluster::{ClusterBuilder, TcpKvCluster};
pub(crate) use host::{count_eviction, process_sealed_frame};
pub use host::{KvHostBuilder, KvServerHost};
pub use transport::{encode_request, fetch_metrics, TcpKvTransport};

/// Reserved key addressing the replica's observability dump rather than a
/// register: a `QUERY-DATA` on this key is answered with the server
/// process's metrics snapshot rendered as line-oriented JSON. The prefix
/// `__safereg/` cannot collide with register state because the admin path
/// intercepts it before the KV table is consulted.
pub const METRICS_KEY: &[u8] = b"__safereg/metrics";

#[cfg(test)]
mod tests {
    use std::net::TcpStream;
    use std::time::Duration;

    use safereg_common::config::{QuorumConfig, TransportConfig};
    use safereg_common::ids::{ClientId, ReaderId, ServerId, WriterId};
    use safereg_common::msg::Payload;
    use safereg_core::behavior::ByzRole;
    use safereg_crypto::keychain::KeyChain;
    use safereg_mds::rs::ReedSolomon;
    use safereg_mds::stripe::encode_value;
    use safereg_obs::names;
    use safereg_transport::chaos::FaultPlan;

    use super::*;
    use crate::client::KvClient;
    use crate::server::KvMode;

    #[test]
    fn kv_over_tcp_roundtrip() {
        let cfg = QuorumConfig::minimal_bsr(1).unwrap();
        let cluster = TcpKvCluster::builder(KvMode::Replicated, b"kv-tcp")
            .quorum(cfg)
            .start()
            .unwrap();
        let mut transport = cluster.transport();
        let mut client = KvClient::new(cfg, WriterId(0), ReaderId(0));
        client
            .put(&mut transport, b"greeting", "hello tcp")
            .unwrap();
        assert_eq!(
            client.get(&mut transport, b"greeting").unwrap().as_bytes(),
            b"hello tcp"
        );
        assert!(client.get(&mut transport, b"missing").unwrap().is_initial());
    }

    #[test]
    fn kv_over_tcp_tolerates_f_crashes() {
        let cfg = QuorumConfig::minimal_bsr(1).unwrap();
        let mut cluster = TcpKvCluster::builder(KvMode::Replicated, b"kv-tcp2")
            .quorum(cfg)
            .start()
            .unwrap();
        let mut transport = cluster.transport();
        let mut client = KvClient::new(cfg, WriterId(0), ReaderId(0));
        client.put(&mut transport, b"k", "v1").unwrap();
        cluster.crash(ServerId(3));
        // New transport reflects the crash (the old connection would time
        // out instead; both work, the reconnect is faster in tests).
        transport.set_timeout(Duration::from_millis(500));
        client.put(&mut transport, b"k", "v2").unwrap();
        assert_eq!(client.get(&mut transport, b"k").unwrap().as_bytes(), b"v2");
    }

    #[test]
    fn metrics_key_serves_the_observability_dump() {
        let cfg = QuorumConfig::minimal_bsr(1).unwrap();
        let cluster = TcpKvCluster::builder(KvMode::Replicated, b"kv-metrics")
            .quorum(cfg)
            .start()
            .unwrap();
        let mut transport = cluster.transport();
        let mut client = KvClient::new(cfg, WriterId(3), ReaderId(3));
        client.put(&mut transport, b"watched", "payload").unwrap();
        assert_eq!(
            client.get(&mut transport, b"watched").unwrap().as_bytes(),
            b"payload"
        );

        let dump = fetch_metrics(
            &mut transport,
            ClientId::Reader(ReaderId(3)),
            ServerId(0),
            99,
        )
        .unwrap();
        // The replica counted the traffic the put/get just generated.
        assert!(dump.contains("\"metric\":\"kv.recv.query_tag\""));
        assert!(dump.contains("\"metric\":\"kv.recv.query_data\""));
        // Degradation counters are registered eagerly at host spawn, so
        // the dump exposes them even before any connection is evicted.
        assert!(dump.contains("\"metric\":\"server.evictions\""));
        // The admin read itself never touches register state.
        assert!(client
            .get(&mut transport, METRICS_KEY)
            .unwrap()
            .is_initial());
    }

    #[test]
    fn coded_kv_over_tcp() {
        let cfg = QuorumConfig::new(8, 1).unwrap(); // k = 3
        let cluster = TcpKvCluster::builder(KvMode::Coded, b"kv-tcp3")
            .quorum(cfg)
            .start()
            .unwrap();
        let mut transport = cluster.transport();
        let mut client = KvClient::new_coded(cfg, WriterId(0), ReaderId(0));
        let blob = vec![0xA1u8; 4096];
        client.put(&mut transport, b"blob", blob.clone()).unwrap();
        assert_eq!(
            client.get(&mut transport, b"blob").unwrap().as_bytes(),
            &blob[..]
        );
    }

    #[test]
    fn byzantine_replica_cannot_corrupt_the_register() {
        let cfg = QuorumConfig::minimal_bsr(1).unwrap();
        let mut cluster = TcpKvCluster::builder(KvMode::Replicated, b"kv-byz")
            .quorum(cfg)
            .start()
            .unwrap();
        let mut client = KvClient::new(cfg, WriterId(0), ReaderId(0));
        {
            let mut transport = cluster.transport();
            client.put(&mut transport, b"k", "truth").unwrap();
        }
        cluster
            .set_role(ServerId(3), ByzRole::Fabricator, 99)
            .unwrap();
        assert_eq!(cluster.roles()[&ServerId(3)], ByzRole::Fabricator);
        // With one live fabricating replica (f = 1), writes still reach a
        // quorum and reads still return a genuinely-written value: the
        // forged high tag lacks the f + 1 witnesses validation demands.
        let mut transport = cluster.transport();
        client.put(&mut transport, b"k", "still truth").unwrap();
        let (value, tag) = client.get_with_tag(&mut transport, b"k").unwrap();
        assert_eq!(value.as_bytes(), b"still truth");
        assert!(tag.num < 1_000_000, "forged tag did not win");
        // Rotation back to honest service is a restart-in-place.
        cluster.set_role(ServerId(3), ByzRole::Correct, 0).unwrap();
        assert_eq!(cluster.roles()[&ServerId(3)], ByzRole::Correct);
    }

    #[test]
    fn chaos_fronted_cluster_still_serves() {
        use safereg_transport::chaos::FaultSpec;
        let cfg = QuorumConfig::minimal_bsr(1).unwrap();
        let plan = FaultPlan::new(7, FaultSpec::calm());
        let cluster = TcpKvCluster::builder(KvMode::Replicated, b"kv-server-chaos")
            .quorum(cfg)
            .chaos(plan)
            .start()
            .unwrap();
        let mut transport = cluster.transport();
        let mut client = KvClient::new(cfg, WriterId(1), ReaderId(1));
        client
            .put(&mut transport, b"k", "through the proxy")
            .unwrap();
        assert_eq!(
            client.get(&mut transport, b"k").unwrap().as_bytes(),
            b"through the proxy"
        );
    }

    #[test]
    fn restart_respawns_on_the_old_address_and_counts() {
        let cfg = QuorumConfig::minimal_bsr(1).unwrap();
        let mut cluster = TcpKvCluster::builder(KvMode::Replicated, b"kv-restart")
            .quorum(cfg)
            .start()
            .unwrap();
        let addrs = cluster.addrs();
        let before = safereg_obs::global().counter(names::SERVER_RESTARTS).get();
        cluster.crash(ServerId(2));
        cluster.restart(ServerId(2)).unwrap();
        assert_eq!(cluster.addrs(), addrs, "restart keeps the old address");
        assert!(safereg_obs::global().counter(names::SERVER_RESTARTS).get() > before);
        let mut transport = cluster.transport();
        let mut client = KvClient::new(cfg, WriterId(2), ReaderId(2));
        client.put(&mut transport, b"k", "after restart").unwrap();
        assert_eq!(
            client.get(&mut transport, b"k").unwrap().as_bytes(),
            b"after restart"
        );
    }

    #[test]
    fn idle_kv_connections_are_evicted() {
        use std::io::Read;
        let tconfig = TransportConfig {
            idle_timeout: Duration::from_millis(250),
            ..TransportConfig::default()
        };
        let cfg = QuorumConfig::minimal_bsr(1).unwrap();
        let chain = KeyChain::from_master_seed(b"kv-idle");
        let host = KvServerHost::builder(ServerId(0), cfg, KvMode::Replicated, chain)
            .config(tconfig)
            .spawn()
            .unwrap();
        let before = safereg_obs::global()
            .counter(&names::eviction_counter("idle"))
            .get();
        let mut conn = TcpStream::connect(host.addr()).unwrap();
        conn.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        // Send nothing: the host must close the connection once the idle
        // budget elapses, observable here as EOF.
        let mut buf = [0u8; 1];
        assert_eq!(conn.read(&mut buf).unwrap(), 0, "server closed the link");
        let reg = safereg_obs::global();
        assert!(reg.counter(&names::eviction_counter("idle")).get() > before);
        assert!(reg.counter(names::SERVER_EVICTIONS).get() > 0);
    }

    #[test]
    fn tiny_outbox_serves_a_roundtrip() {
        // The bounded reply outbox must be transparent when it never
        // fills, however small it is.
        let tconfig = TransportConfig {
            chan_capacity: 2,
            ..TransportConfig::default()
        };
        let cfg = QuorumConfig::minimal_bsr(1).unwrap();
        let cluster = TcpKvCluster::builder(KvMode::Replicated, b"kv-outbox")
            .quorum(cfg)
            .config(tconfig)
            .start()
            .unwrap();
        let mut transport = cluster.transport();
        let mut client = KvClient::new(cfg, WriterId(0), ReaderId(0));
        client.put(&mut transport, b"key", "value").unwrap();
        assert_eq!(
            client.get(&mut transport, b"key").unwrap().as_bytes(),
            b"value"
        );
    }

    #[test]
    fn rolling_reconfiguration_redirects_live_clients() {
        let cfg = QuorumConfig::minimal_bsr(1).unwrap();
        let mut cluster = TcpKvCluster::builder(KvMode::Replicated, b"kv-churn")
            .quorum(cfg)
            .start()
            .unwrap();
        let mut transport = cluster.transport();
        let mut client = KvClient::new(cfg, WriterId(0), ReaderId(0));
        client.put(&mut transport, b"k", "epoch0").unwrap();
        assert_eq!(cluster.epoch(), 0);

        // Add: the stale client learns the successor config from f + 1
        // matching `WrongEpoch` votes and finishes the op against it.
        cluster.add_replica(ServerId(5)).unwrap();
        assert_eq!(cluster.epoch(), 1);
        assert_eq!(
            client.get(&mut transport, b"k").unwrap().as_bytes(),
            b"epoch0"
        );
        assert_eq!(client.epoch(), 1, "client adopted the redirect");

        // Remove: the leaver retires after a drain grace; writes keep
        // completing against the shrunk fleet.
        cluster.remove_replica(ServerId(1)).unwrap();
        assert_eq!(cluster.epoch(), 2);
        client.put(&mut transport, b"k", "epoch2").unwrap();
        assert_eq!(client.epoch(), 2);

        // Replace: one epoch bump swaps a member for a joiner.
        cluster.replace_replica(ServerId(2), ServerId(9)).unwrap();
        assert_eq!(cluster.epoch(), 3);
        assert_eq!(
            client.get(&mut transport, b"k").unwrap().as_bytes(),
            b"epoch2"
        );
        assert_eq!(client.epoch(), 3);
        let fleet = cluster.epoch_config().ids();
        assert!(fleet.contains(&ServerId(9)) && !fleet.contains(&ServerId(2)));

        // The joiner replaced a fully-placed member (m = n), so it pulled
        // the register's state before serving; every replica of a BSR
        // group stores the identical `(tag, value)` entry.
        let g = cluster.map().shard_of(b"k");
        let survivor = cluster.payload_digest(ServerId(3), g, b"k");
        assert!(survivor.is_some(), "survivor holds the register");
        assert_eq!(cluster.payload_digest(ServerId(9), g, b"k"), survivor);
    }

    #[test]
    fn coded_joiner_rebuilds_its_own_fragment() {
        let cfg = QuorumConfig::new(8, 1).unwrap(); // k = 3
        let mut cluster = TcpKvCluster::builder(KvMode::Coded, b"kv-churn-coded")
            .quorum(cfg)
            .start()
            .unwrap();
        let mut transport = cluster.transport();
        let mut client = KvClient::new_coded(cfg, WriterId(0), ReaderId(0));
        let blob = vec![0x5Au8; 3 * 1024];
        client.put(&mut transport, b"blob", blob.clone()).unwrap();
        let (value, tag) = client.get_with_tag(&mut transport, b"blob").unwrap();

        // Replacing the smallest id relabels *every* survivor's logical
        // slot (ascending-id order), so each re-derives its fragment and
        // the joiner decodes the value out of m − f old slices before
        // re-encoding its own — the PULL-before-FLIP ordering under test.
        cluster.replace_replica(ServerId(0), ServerId(9)).unwrap();
        let g = cluster.map().shard_of(b"blob");
        let code = ReedSolomon::new(cfg.n(), cfg.mds_k().unwrap()).unwrap();
        let elems = encode_value(&code, &value);
        for sid in [ServerId(9), ServerId(1)] {
            let logical = cluster.map().logical_of(g, sid).unwrap().0 as usize;
            assert_eq!(
                cluster.payload_digest(sid, g, b"blob").unwrap(),
                crate::server::entry_digest(&tag, &Payload::Coded(elems[logical].clone())),
                "{sid:?} stores exactly the fragment its new slot demands"
            );
        }
        // And the register still reads back through the new epoch.
        assert_eq!(
            client.get(&mut transport, b"blob").unwrap().as_bytes(),
            &blob[..]
        );
        assert_eq!(client.epoch(), 1);
    }

    #[test]
    fn restarted_replica_is_rehydrated_not_amnesiac() {
        for (mode, cfg) in [
            (KvMode::Replicated, QuorumConfig::minimal_bsr(1).unwrap()),
            (KvMode::Coded, QuorumConfig::new(8, 1).unwrap()), // k = 3
        ] {
            let mut cluster = TcpKvCluster::builder(mode, b"kv-amnesia")
                .quorum(cfg)
                .start()
                .unwrap();
            let mut transport = cluster.transport();
            let mut client = match mode {
                KvMode::Replicated => KvClient::new(cfg, WriterId(0), ReaderId(0)),
                KvMode::Coded => KvClient::new_coded(cfg, WriterId(0), ReaderId(0)),
            };
            client.put(&mut transport, b"k", "v1").unwrap();
            client.put(&mut transport, b"k", "v2").unwrap();
            let (value, tag) = client.get_with_tag(&mut transport, b"k").unwrap();
            let g = cluster.map().shard_of(b"k");
            // A coded replica stores only the fragment of its own slot.
            let payload = match mode {
                KvMode::Replicated => Payload::Full(value),
                KvMode::Coded => {
                    let code = ReedSolomon::new(cfg.n(), cfg.mds_k().unwrap()).unwrap();
                    let logical = cluster.map().logical_of(g, ServerId(2)).unwrap().0 as usize;
                    Payload::Coded(encode_value(&code, &value)[logical].clone())
                }
            };
            let expected = crate::server::entry_digest(&tag, &payload);

            cluster.crash(ServerId(2));
            cluster.restart(ServerId(2)).unwrap();
            // Once `restart` returns, the replica holds `(tag, payload)`
            // again. It served (and voted in its own re-hydration read)
            // before the install, so this schedule only passes because it
            // has no Byzantine replica and no missed write; ROADMAP item 1
            // has one that loses the write.
            assert_eq!(
                cluster.payload_digest(ServerId(2), g, b"k"),
                Some(expected),
                "{mode:?}"
            );
            transport.set_timeout(Duration::from_millis(500));
            assert_eq!(client.get(&mut transport, b"k").unwrap().as_bytes(), b"v2");
        }
    }
}
