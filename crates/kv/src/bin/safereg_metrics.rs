//! Dumps the observability registry of a running KV replica.
//!
//! Usage: `safereg-metrics <server-id> <addr> [master-seed]`
//!
//! Connects to the replica, queries the reserved metrics key and prints
//! the line-oriented JSON dump to stdout. The master seed must match the
//! one the deployment was started with (default `safereg`), since the
//! admin path is authenticated like every other frame.

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::process::ExitCode;

use safereg_common::config::TransportConfig;
use safereg_common::ids::{ClientId, ReaderId, ServerId};
use safereg_crypto::keychain::KeyChain;
use safereg_kv::tcp::{fetch_metrics, TcpKvTransport};

fn usage() -> ExitCode {
    eprintln!("usage: safereg-metrics <server-id> <addr> [master-seed]");
    eprintln!("  e.g. safereg-metrics 0 127.0.0.1:4000 my-seed");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.len() < 2 || args.len() > 3 {
        return usage();
    }
    let sid = match args[0].parse::<u16>() {
        Ok(n) => ServerId(n),
        Err(_) => return usage(),
    };
    let addr = match args[1].parse::<SocketAddr>() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("bad address {:?}: {e}", args[1]);
            return usage();
        }
    };
    let seed = args.get(2).map_or("safereg", String::as_str);

    let chain = KeyChain::from_master_seed(seed.as_bytes());
    let mut servers = BTreeMap::new();
    servers.insert(sid, addr);
    let mut transport = TcpKvTransport::connect_with(&servers, chain, TransportConfig::default());
    match fetch_metrics(&mut transport, ClientId::Reader(ReaderId(u16::MAX)), sid, 1) {
        Some(dump) => {
            print!("{dump}");
            ExitCode::SUCCESS
        }
        None => {
            eprintln!("no metrics dump from {sid} at {addr} (wrong seed or server down?)");
            ExitCode::FAILURE
        }
    }
}
