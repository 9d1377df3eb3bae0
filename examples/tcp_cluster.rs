//! The same protocols on real sockets: an authenticated TCP cluster on
//! loopback, serving BSR (replicated) and BCSR (erasure-coded) registers —
//! one register per key.
//!
//! Every frame is HMAC-authenticated with a per-link key (the paper's
//! signed-channel assumption, §II-A); a crashed server is tolerated
//! transparently by the quorum logic.
//!
//! ```text
//! cargo run --example tcp_cluster
//! ```

use std::time::Instant;

use safereg::common::config::QuorumConfig;
use safereg::common::ids::{ReaderId, ServerId, WriterId};
use safereg::kv::{KvClient, KvMode, TcpKvCluster};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // --- BSR over TCP -----------------------------------------------------
    let cfg = QuorumConfig::minimal_bsr(1)?;
    let mut cluster = TcpKvCluster::builder(KvMode::Replicated, b"tcp-demo-secret")
        .quorum(cfg)
        .start()?;
    println!("BSR cluster up: {cfg} on {:?} ports", cluster.addrs().len());

    let mut transport = cluster.transport();
    let mut client = KvClient::new(cfg, WriterId(0), ReaderId(0));
    let started = Instant::now();
    client.put(&mut transport, b"register", "replicated over tcp")?;
    println!("write committed in {:?}", started.elapsed());

    let started = Instant::now();
    let value = client.get(&mut transport, b"register")?;
    println!(
        "one-shot read -> {:?} in {:?}",
        String::from_utf8_lossy(value.as_bytes()),
        started.elapsed()
    );

    // Crash one server (= f) and keep going.
    cluster.crash(ServerId(2));
    println!("crashed s2; operations continue against the remaining quorum");
    client.put(&mut transport, b"register", "still writable")?;
    let value = client.get(&mut transport, b"register")?;
    println!("read -> {:?}", String::from_utf8_lossy(value.as_bytes()));

    // --- BCSR over TCP ----------------------------------------------------
    let cfg = QuorumConfig::minimal_bcsr(1)?;
    let coded = TcpKvCluster::builder(KvMode::Coded, b"tcp-demo-coded")
        .quorum(cfg)
        .start()?;
    println!(
        "\nBCSR cluster up: {cfg} (erasure-coded, k = n - 5f = {})",
        cfg.mds_k().unwrap()
    );

    let mut transport = coded.transport();
    let mut client = KvClient::new_coded(cfg, WriterId(0), ReaderId(0));
    let payload = vec![0xAB; 32 * 1024];
    let started = Instant::now();
    client.put(&mut transport, b"blob", payload.clone())?;
    println!("coded 32 KiB write committed in {:?}", started.elapsed());

    let started = Instant::now();
    let value = client.get(&mut transport, b"blob")?;
    assert_eq!(value.as_bytes(), &payload[..]);
    println!(
        "coded one-shot read verified ({} bytes) in {:?}",
        payload.len(),
        started.elapsed()
    );

    Ok(())
}
