//! Self-healing in action: a TCP cluster behind seeded chaos proxies, with
//! a server severed, a server blackholed, and everything recovering —
//! narrated by the breaker states and healing counters.
//!
//! The fault plan is a pure function of its seed: run this twice and the
//! proxies roll the identical drop/delay/corrupt/truncate/kill schedule.
//!
//! ```text
//! cargo run --example chaos_recovery
//! ```

use std::time::{Duration, Instant};

use safereg::common::config::{QuorumConfig, TransportConfig};
use safereg::common::ids::{ReaderId, ServerId, WriterId};
use safereg::kv::{KvClient, KvMode, TcpKvCluster, TcpKvTransport};
use safereg::obs::names;
use safereg::transport::chaos::{ChaosNet, FaultPlan, FaultSpec};

const KEY: &[u8] = b"register";

fn breaker_states(transport: &TcpKvTransport, n: u16) -> String {
    (0..n)
        .map(|s| match transport.link_state(ServerId(s)) {
            Some(0) => 'C', // Closed: healthy
            Some(1) => 'H', // HalfOpen: probing
            Some(2) => 'O', // Open: shedding
            _ => '?',
        })
        .collect()
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let reg = safereg::obs::global();
    let reconnects_before = reg.counter(names::KV_RECONNECTS).get();

    let cfg = QuorumConfig::minimal_bsr(1)?;
    let cluster = TcpKvCluster::builder(KvMode::Replicated, b"chaos-demo")
        .quorum(cfg)
        .start()?;

    // A mildly hostile, seeded adversary in front of every server.
    let plan = FaultPlan::new(0xC0FFEE, FaultSpec::mild());
    let net = ChaosNet::wrap(&cluster.addrs(), &plan)?;
    println!("cluster {cfg} wrapped in chaos proxies (seed 0xC0FFEE, mild faults)");

    let config = TransportConfig::aggressive();
    let mut transport = TcpKvTransport::connect_with(&net.addrs(), cluster.chain().clone(), config);
    let mut client = KvClient::new(cfg, WriterId(0), ReaderId(0));
    client.set_policy(config);

    client.put(&mut transport, KEY, "calm seas")?;
    println!("write ok      breakers={}", breaker_states(&transport, 5));

    // Kill every live connection to s1: the next exchange finds the link
    // dead, the quorum carries on without it, and a later one reconnects.
    net.sever(ServerId(1));
    client.put(&mut transport, KEY, "severed s1")?;
    let value = client.get(&mut transport, KEY)?;
    println!(
        "post-sever    breakers={}  read -> {:?}",
        breaker_states(&transport, 5),
        String::from_utf8_lossy(value.as_bytes())
    );

    // Blackhole s2 (<= f down): connects succeed, frames vanish. Sessions
    // die undelivered until the breaker trips Open and sheds the traffic.
    // Reconnects are lazy — they happen inside an exchange — so traffic is
    // what moves the breaker.
    net.set_blackhole(ServerId(2), true);
    let deadline = Instant::now() + Duration::from_secs(10);
    while transport.link_state(ServerId(2)) != Some(2) && Instant::now() < deadline {
        client.put(&mut transport, KEY, "during blackhole")?;
        std::thread::sleep(Duration::from_millis(20));
    }
    let value = client.get(&mut transport, KEY)?;
    println!(
        "blackhole s2  breakers={}  read -> {:?}",
        breaker_states(&transport, 5),
        String::from_utf8_lossy(value.as_bytes())
    );

    // Lift it: the breaker only closes once a real authenticated frame is
    // delivered, so keep a little traffic flowing while it heals.
    net.set_blackhole(ServerId(2), false);
    let deadline = Instant::now() + Duration::from_secs(10);
    while transport.link_state(ServerId(2)) != Some(0) && Instant::now() < deadline {
        client.put(&mut transport, KEY, "healing")?;
        std::thread::sleep(Duration::from_millis(20));
    }
    println!(
        "healed        breakers={}  live sockets={}",
        breaker_states(&transport, 5),
        transport.live_sockets()
    );

    let reconnects = reg.counter(names::KV_RECONNECTS).get() - reconnects_before;
    println!("the transport reconnected {reconnects} times; no operation was lost");
    Ok(())
}
