//! Command-line client for a `safereg-kv-server` deployment.
//!
//! ```text
//! # one write (two rounds), then a one-shot read:
//! safereg-cli --servers 127.0.0.1:7000,127.0.0.1:7001,... --f 1 --secret demo put greeting "hello"
//! safereg-cli --servers 127.0.0.1:7000,127.0.0.1:7001,... --f 1 --secret demo get greeting
//! ```
//!
//! The server list's order defines the server ids (first = `s0`). Add
//! `--coded` when the deployment hosts BCSR replicas, and `--client-id` to
//! distinguish concurrent clients (writer tags tie-break on it).

use std::collections::BTreeMap;
use std::net::SocketAddr;

use safereg_common::config::{QuorumConfig, TransportConfig};
use safereg_common::ids::{ReaderId, ServerId, WriterId};
use safereg_crypto::keychain::KeyChain;
use safereg_kv::{KvClient, TcpKvTransport};

struct Args {
    servers: Vec<SocketAddr>,
    f: usize,
    secret: String,
    client_id: u16,
    coded: bool,
    command: Command,
}

enum Command {
    Put(String, String),
    Get(String),
}

fn usage() -> ! {
    eprintln!(
        "usage: safereg-cli --servers <a:p,a:p,...> --f <usize> --secret <string> \
         [--client-id <u16>] [--coded] (put <key> <value> | get <key>)"
    );
    std::process::exit(2)
}

fn parse_args() -> Args {
    let mut servers = Vec::new();
    let mut f = usize::MAX;
    let mut secret = String::new();
    let mut client_id = 0u16;
    let mut coded = false;
    let mut command = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut take = || it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--servers" => {
                servers = take()
                    .split(',')
                    .map(|s| s.parse().unwrap_or_else(|_| usage()))
                    .collect();
            }
            "--f" => f = take().parse().unwrap_or_else(|_| usage()),
            "--secret" => secret = take(),
            "--client-id" => client_id = take().parse().unwrap_or_else(|_| usage()),
            "--coded" => coded = true,
            "put" => command = Some(Command::Put(take(), take())),
            "get" => command = Some(Command::Get(take())),
            _ => usage(),
        }
    }
    if servers.is_empty() || f == usize::MAX || secret.is_empty() {
        usage()
    }
    Args {
        servers,
        f,
        secret,
        client_id,
        coded,
        command: command.unwrap_or_else(|| usage()),
    }
}

fn main() {
    let args = parse_args();
    let cfg = match QuorumConfig::new(args.servers.len(), args.f) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("invalid configuration: {e}");
            std::process::exit(2);
        }
    };
    if args.coded && cfg.mds_k().is_none() {
        eprintln!("invalid configuration: {cfg} admits no [n, n - 5f] code");
        std::process::exit(2);
    }
    let addrs: BTreeMap<ServerId, SocketAddr> = args
        .servers
        .iter()
        .enumerate()
        .map(|(i, a)| (ServerId(i as u16), *a))
        .collect();
    let chain = KeyChain::from_master_seed(args.secret.as_bytes());
    let mut transport = TcpKvTransport::connect_with(&addrs, chain, TransportConfig::default());
    let (writer, reader) = (WriterId(args.client_id), ReaderId(args.client_id));
    let mut client = if args.coded {
        KvClient::new_coded(cfg, writer, reader)
    } else {
        KvClient::new(cfg, writer, reader)
    };

    match args.command {
        Command::Put(key, value) => {
            match client.put(&mut transport, key.as_bytes(), value.into_bytes()) {
                Ok(tag) => println!("ok: wrote tag {tag}"),
                Err(e) => fail(&e),
            }
        }
        Command::Get(key) => match client.get(&mut transport, key.as_bytes()) {
            Ok(v) => println!("{}", String::from_utf8_lossy(v.as_bytes())),
            Err(e) => fail(&e),
        },
    }
}

fn fail(e: &dyn std::fmt::Display) -> ! {
    eprintln!("error: {e}");
    std::process::exit(1)
}
