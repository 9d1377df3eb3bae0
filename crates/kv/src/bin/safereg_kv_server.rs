//! Standalone KV replica daemon.
//!
//! Hosts one replica of a Byzantine-tolerant key-value deployment on a
//! TCP port. Start `n` of these (one per server id); each also serves
//! its observability dump over the reserved `__safereg/metrics` key
//! (fetch it with `safereg-metrics`).
//!
//! ```text
//! safereg-kv-server --id 0 --n 5 --f 1 --listen 127.0.0.1:7000 --secret demo
//! safereg-kv-server --id 1 --n 5 --f 1 --listen 127.0.0.1:7001 --secret demo
//! ...
//! ```
//!
//! Pass `--coded` for erasure-coded registers (needs `n ≥ 5f + 1`) and
//! `--reactors <k>` to size the reactor pool. Talk to the deployment with
//! `safereg-cli`.

use safereg_common::config::QuorumConfig;
use safereg_common::ids::ServerId;
use safereg_crypto::keychain::KeyChain;
use safereg_kv::tcp::KvServerHost;
use safereg_kv::KvMode;

struct Args {
    id: u16,
    n: usize,
    f: usize,
    listen: String,
    secret: String,
    coded: bool,
    reactors: usize,
}

fn usage() -> ! {
    eprintln!(
        "usage: safereg-kv-server --id <u16> --n <usize> --f <usize> \
         --listen <addr:port> --secret <string> [--coded] [--reactors <usize>]"
    );
    std::process::exit(2)
}

fn parse_args() -> Args {
    let mut args = Args {
        id: 0,
        n: 0,
        f: 0,
        listen: String::new(),
        secret: String::new(),
        coded: false,
        reactors: 0,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut take = || it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--id" => args.id = take().parse().unwrap_or_else(|_| usage()),
            "--n" => args.n = take().parse().unwrap_or_else(|_| usage()),
            "--f" => args.f = take().parse().unwrap_or_else(|_| usage()),
            "--listen" => args.listen = take(),
            "--secret" => args.secret = take(),
            "--coded" => args.coded = true,
            "--reactors" => args.reactors = take().parse().unwrap_or_else(|_| usage()),
            _ => usage(),
        }
    }
    if args.n == 0 || args.listen.is_empty() || args.secret.is_empty() {
        usage()
    }
    args
}

fn main() {
    let args = parse_args();
    let cfg = match QuorumConfig::new(args.n, args.f) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("invalid configuration: {e}");
            std::process::exit(2);
        }
    };
    let mode = if args.coded {
        if !cfg.supports_bcsr() {
            eprintln!("warning: {cfg} is below BCSR's n >= 5f + 1 bound — reads may be unsafe");
        }
        KvMode::Coded
    } else {
        if !cfg.supports_bsr() {
            eprintln!("warning: {cfg} is below BSR's n >= 4f + 1 bound — reads may be unsafe");
        }
        KvMode::Replicated
    };

    let sid = ServerId(args.id);
    let chain = KeyChain::from_master_seed(args.secret.as_bytes());
    let host = match KvServerHost::builder(sid, cfg, mode, chain)
        .bind(args.listen.as_str())
        .reactors(args.reactors)
        .spawn()
    {
        Ok(h) => h,
        Err(e) => {
            eprintln!("failed to bind {}: {e}", args.listen);
            std::process::exit(1);
        }
    };
    println!(
        "safereg-kv-server {sid} serving {} kv store on {} ({cfg})",
        if args.coded { "coded" } else { "replicated" },
        host.addr(),
    );
    // Serve until killed; the host's accept thread does the work.
    loop {
        std::thread::park();
    }
}
