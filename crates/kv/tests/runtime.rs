//! Reactor integration tests: the readiness-driven serving path under
//! lossless backpressure, stall eviction and `m < n` placement. (Chaos
//! over the reactor lives in the root `tests/chaos_torture.rs`; idle
//! eviction in `tcp.rs`' unit tests; both poll backends in
//! `safereg_transport::poll`'s tests.)

use std::io::Write;
use std::net::TcpStream;
use std::sync::Mutex;
use std::time::Duration;

use safereg_common::config::{QuorumConfig, TransportConfig};
use safereg_common::epoch::EpochConfig;
use safereg_common::ids::{ClientId, ReaderId, ServerId, WriterId};
use safereg_common::msg::{ClientToServer, Message, OpId, ServerToClient};
use safereg_common::shard::{ShardId, ShardMap};
use safereg_crypto::keychain::KeyChain;
use safereg_kv::{encode_request, KvClient, KvMode, KvServerHost, TcpKvCluster};
use safereg_obs::names;
use safereg_transport::frame::{read_frame, KvFrame};

/// Serializes the tests that read the process-wide stall-eviction counter,
/// so one test's eviction never shows up in another's before/after delta.
static STALL_COUNTER: Mutex<()> = Mutex::new(());

/// Exactly one of `.quorum()` / `.shards()` is required.
#[test]
fn builder_without_quorum_or_shards_refuses_to_start() {
    let err = TcpKvCluster::builder(KvMode::Replicated, b"rt-empty")
        .start()
        .unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
}

/// Builds the wire bytes of one authenticated `QueryData` request against
/// a single freshly-spawned replica (genesis epoch, single shard).
fn canned_query(chain: &KeyChain, cfg: QuorumConfig, who: u16, seq: u64) -> Vec<u8> {
    let stamp = EpochConfig::genesis(cfg.servers()).stamp();
    let from = ClientId::Reader(ReaderId(who));
    encode_request(
        chain,
        stamp,
        from,
        ServerId(0),
        ShardId(0),
        b"flood",
        &ClientToServer::QueryData {
            op: OpId::new(from, seq),
        },
    )
}

/// A peer that sends requests but never drains its replies must be stall
/// evicted by the reactor once the write side has been blocked for the
/// stall budget. The replies are made large (reads of a 1 MiB value) so
/// the kernel's generous loopback buffers cannot mask the jam.
#[test]
fn slow_reader_is_stall_evicted_by_the_reactor() {
    let _serial = STALL_COUNTER
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let tconfig = TransportConfig {
        chan_capacity: 4,
        stall_timeout: Duration::from_millis(300),
        idle_timeout: Duration::from_secs(30),
        ..TransportConfig::default()
    };
    // A one-replica deployment (n = 1, f = 0): a real client can complete
    // the seeding put against the same host the flood targets.
    let cfg = QuorumConfig::new(1, 0).unwrap();
    let chain = KeyChain::from_master_seed(b"rt-stall");
    let host = KvServerHost::builder(ServerId(0), cfg, KvMode::Replicated, chain.clone())
        .config(tconfig)
        .spawn()
        .unwrap();
    let addrs: std::collections::BTreeMap<ServerId, std::net::SocketAddr> =
        [(ServerId(0), host.addr())].into_iter().collect();
    let mut transport =
        safereg_kv::TcpKvTransport::connect_with(&addrs, chain.clone(), TransportConfig::default());
    let mut client = KvClient::new(cfg, WriterId(7), ReaderId(7));
    let blob: Vec<u8> = (0..1_048_576u32).map(|i| (i % 251) as u8).collect();
    client.put(&mut transport, b"flood", blob).unwrap();

    let reg = safereg_obs::global();
    let before = reg.counter(&names::eviction_counter("stall")).get();

    // Ask for the megabyte 300 times and read nothing: four queued replies
    // already exceed the socket buffers, so the reactor's write side jams
    // at once and the stall clock runs uninterrupted.
    let conn = TcpStream::connect(host.addr()).unwrap();
    for seq in 0..300u64 {
        let request = canned_query(&chain, cfg, 7, seq + 1);
        conn.set_write_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        if (&conn).write_all(&request).is_err() {
            break;
        }
    }
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while std::time::Instant::now() < deadline
        && reg.counter(&names::eviction_counter("stall")).get() == before
    {
        std::thread::sleep(Duration::from_millis(50));
    }
    assert!(
        reg.counter(&names::eviction_counter("stall")).get() > before,
        "the reactor must have evicted the stalled connection"
    );
}

/// Backpressure is lossless: a client that pipelines sixteen times more
/// requests than the outbox holds, before reading a single reply, must get
/// every reply back — authentic and in request order — and must not be
/// stall evicted. The outbox gate suspends frame parsing instead of
/// dropping replies, so the requests past the bound wait in the read
/// buffer until the outbox drains.
#[test]
fn pipelined_requests_past_the_outbox_bound_all_get_replies() {
    let _serial = STALL_COUNTER
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let tconfig = TransportConfig {
        chan_capacity: 4,
        ..TransportConfig::default()
    };
    let cfg = QuorumConfig::new(1, 0).unwrap();
    let chain = KeyChain::from_master_seed(b"rt-pipeline");
    let host = KvServerHost::builder(ServerId(0), cfg, KvMode::Replicated, chain.clone())
        .config(tconfig)
        .spawn()
        .unwrap();
    let reg = safereg_obs::global();
    let stalls_before = reg.counter(&names::eviction_counter("stall")).get();

    const PIPELINED: u64 = 64;
    let requests: Vec<u8> = (1..=PIPELINED)
        .flat_map(|seq| canned_query(&chain, cfg, 9, seq))
        .collect();
    let mut conn = TcpStream::connect(host.addr()).unwrap();
    conn.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    conn.write_all(&requests).unwrap();
    for seq in 1..=PIPELINED {
        let sealed = read_frame(&mut conn).unwrap_or_else(|e| panic!("reply {seq}: {e:?}"));
        let frame = KvFrame::open(&chain, &sealed).expect("authentic reply");
        match frame.env.msg {
            Message::ToClient(ServerToClient::DataResp { op, .. }) => {
                assert_eq!(op.seq, seq, "replies come back in request order");
            }
            other => panic!("reply {seq}: unexpected {other:?}"),
        }
    }
    assert_eq!(
        reg.counter(&names::eviction_counter("stall")).get(),
        stalls_before,
        "a pipelining client that does read is never stall evicted"
    );
}

/// First-class `m < n` placement: an 8-server fleet serving 4 shards with
/// 5 replicas each (`f = 1`) must roundtrip keys across every shard over
/// the reactor runtime.
#[test]
fn m_of_n_sharded_cluster_roundtrips_on_the_reactor() {
    let fleet: Vec<ServerId> = (0..8).map(ServerId).collect();
    let map = ShardMap::with_replicas(0x5AFE_0008, 4, fleet, 5, 1).unwrap();
    let cluster = TcpKvCluster::builder(KvMode::Replicated, b"rt-mofn")
        .shards(map.clone())
        .start()
        .unwrap();
    let mut transport = cluster.transport();
    let mut client = KvClient::sharded(map.clone(), WriterId(5), ReaderId(5));
    for k in 0..16u32 {
        let key = format!("mofn-{k}");
        let value = format!("value-{k}");
        client
            .put(&mut transport, key.as_bytes(), value.clone().into_bytes())
            .unwrap();
        assert_eq!(
            client
                .get(&mut transport, key.as_bytes())
                .unwrap()
                .as_bytes(),
            value.as_bytes()
        );
    }
}
