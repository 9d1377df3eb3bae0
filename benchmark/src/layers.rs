//! The per-layer ledger's micro-timings: every number here comes from
//! timing calls into a layer's **public** functions from outside.
//!
//! Each kernel is warmed up, its iteration count is scaled until one sample
//! lasts at least the timer's sample length, and the median of
//! [`SAMPLES`] samples is reported.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::{Duration, Instant};

use safereg_common::codec::Wire;
use safereg_common::config::QuorumConfig;
use safereg_common::epoch::EpochConfig;
use safereg_common::ids::{ClientId, NodeId, ReaderId, ServerId, WriterId};
use safereg_common::msg::{ClientToServer, Envelope, OpId, Payload, ServerToClient};
use safereg_common::rng::DetRng;
use safereg_common::shard::{ShardId, ShardMap};
use safereg_common::tag::Tag;
use safereg_common::value::Value;
use safereg_crypto::auth::AuthCodec;
use safereg_crypto::hmac::HmacSha256;
use safereg_crypto::keychain::KeyChain;
use safereg_crypto::sha256::Sha256;
use safereg_kv::{encode_request, KvServer};
use safereg_mds::gf256;
use safereg_mds::rs::ReedSolomon;
use safereg_mds::stripe::{decode_elements, encode_value, ElementView};
use safereg_transport::chaos::ChaosProxy;

use crate::stats::median;

pub const SAMPLES: usize = 7;

pub type Ledger = BTreeMap<&'static str, f64>;

pub struct Timer {
    pub sample: Duration,
}

impl Timer {
    /// Median nanoseconds per call of `f`.
    pub fn ns(&self, mut f: impl FnMut()) -> f64 {
        let mut run = |iters: u64| {
            let start = Instant::now();
            for _ in 0..iters {
                f();
            }
            start.elapsed()
        };
        // Warm-up doubles as calibration.
        let mut iters = 1u64;
        loop {
            let took = run(iters);
            if took >= self.sample {
                break;
            }
            let scale = self.sample.as_secs_f64() / took.as_secs_f64().max(1e-9);
            iters = (iters as f64 * scale.min(16.0) * 1.05).ceil() as u64;
        }
        median(&[(); SAMPLES].map(|()| run(iters).as_nanos() as f64 / iters as f64))
    }
}

const KIB64: usize = 64 * 1024;

fn random_bytes(len: usize, seed: u64) -> Vec<u8> {
    let mut buf = vec![0u8; len];
    DetRng::seed_from(seed).fill_bytes(&mut buf);
    buf
}

/// Keeps a result alive past the optimiser without running its destructor
/// elsewhere than a real caller would.
fn sink<T>(value: T) {
    black_box(value);
}

/// Bytes per nanosecond, as MB/s.
fn mb_s(bytes: usize, ns: f64) -> f64 {
    bytes as f64 / ns * 1e3
}

fn put_msg(seq: u64, value: &Value) -> ClientToServer {
    ClientToServer::PutData {
        op: OpId::new(WriterId(0), seq),
        tag: Tag::new(seq, WriterId(0)),
        payload: Payload::Full(value.clone()),
    }
}

/// Times every compute kernel of `crypto`, `mds`, `common`, `kv` and `obs`.
pub fn micro(t: &Timer, out: &mut Ledger) {
    let small = random_bytes(256, 1);
    let large = random_bytes(KIB64, 2);
    let (small_value, large_value) = (Value::new(small.clone()), Value::new(large.clone()));
    let writer = ClientId::Writer(WriterId(0));
    let (client_node, server_node) = (NodeId::Client(writer), NodeId::Server(ServerId(3)));

    // crypto
    let ns = t.ns(|| sink(Sha256::digest(black_box(&large))));
    out.insert("crypto.sha256_mb_s", mb_s(KIB64, ns));
    let key = [7u8; 32];
    let ns = t.ns(|| sink(HmacSha256::mac(&key, black_box(&large))));
    out.insert("crypto.hmac_64k_mb_s", mb_s(KIB64, ns));
    let ns = t.ns(|| sink(HmacSha256::mac(&key, black_box(&small))));
    out.insert("crypto.hmac_256b_ns", ns);
    let chain = KeyChain::from_master_seed(b"layers");
    let ns = t.ns(|| sink(chain.pair_key(black_box(client_node), server_node)));
    out.insert("crypto.pair_key_ns", ns);
    let codec = AuthCodec::new(chain.pair_key(client_node, server_node));
    let head = random_bytes(64, 3);
    let ns = t.ns(|| sink(codec.mac_of_parts(&[black_box(&head), &small])));
    out.insert("crypto.auth_mac_parts_256b_ns", ns);
    let sealed = codec.seal(&[&head[..], &small[..]].concat());
    let ns = t.ns(|| sink(codec.open(black_box(&sealed)).is_ok()));
    out.insert("crypto.auth_open_256b_ns", ns);

    // mds
    let mut scratch = large.clone();
    let ns = t.ns(|| {
        for b in scratch.iter_mut() {
            *b = gf256::mul(0x57, *b);
        }
        black_box(&mut scratch);
    });
    out.insert("mds.gf_mul_mb_s", mb_s(KIB64, ns));
    for (name, n, k) in [
        ("mds.rs_encode_n6k1_mb_s", 6, 1),
        ("mds.rs_encode_n11k6_mb_s", 11, 6),
        ("mds.rs_encode_n16k11_mb_s", 16, 11),
    ] {
        let code = ReedSolomon::new(n, k).expect("valid code");
        let ns = t.ns(|| sink(code.encode(black_box(&small[..k]))));
        out.insert(name, mb_s(k, ns));
    }
    let code = ReedSolomon::new(11, 6).expect("valid code");
    let clean: Vec<Option<u8>> = code.encode(&small[..6]).into_iter().map(Some).collect();
    let ns = t.ns(|| sink(code.decode(black_box(&clean))));
    out.insert("mds.rs_decode_clean_n11k6_mb_s", mb_s(6, ns));
    let mut err2 = clean.clone();
    (err2[1], err2[8]) = (err2[1].map(|b| b ^ 0x5A), err2[8].map(|b| b ^ 0xA5));
    let ns = t.ns(|| sink(code.decode(black_box(&err2))));
    out.insert("mds.rs_decode_err2_n11k6_mb_s", mb_s(6, ns));
    let ns = t.ns(|| sink(encode_value(&code, black_box(&large_value))));
    out.insert("mds.stripe_encode_64k_n11k6_us", ns / 1e3);
    // What a BCSR(11, 6) read decodes: rounds visit replicas from the highest
    // id down and stop at n − f = 10 replies, so element 0 is the one missing.
    let elements = encode_value(&code, &large_value);
    let views: Vec<ElementView<'_>> = elements[1..].iter().map(ElementView::of).collect();
    let ns = t.ns(|| sink(decode_elements(&code, KIB64, black_box(&views))));
    out.insert("mds.stripe_decode_64k_n11k6_us", ns / 1e3);

    // common
    for (enc, dec, value) in [
        (
            "common.wire_encode_put_256b_ns",
            "common.wire_decode_put_256b_ns",
            &small_value,
        ),
        (
            "common.wire_encode_put_64k_ns",
            "common.wire_decode_put_64k_ns",
            &large_value,
        ),
    ] {
        let env = Envelope::to_server(writer, ServerId(3), put_msg(9, value));
        out.insert(enc, t.ns(|| sink(black_box(&env).encode_parts())));
        let bytes = env.to_bytes();
        out.insert(dec, t.ns(|| sink(Envelope::from_bytes(black_box(&bytes)))));
    }
    let cfg = QuorumConfig::new(5, 1).expect("valid quorum");
    let map = ShardMap::new(1, 16, cfg.servers().collect(), cfg).expect("valid map");
    let ns = t.ns(|| sink(map.shard_of(black_box(b"bench/00042_"))));
    out.insert("common.shard_of_ns", ns);

    // kv server: `handle` and `attest` called directly, no socket, no MAC.
    let server = KvServer::new(ServerId(3), cfg);
    let (shard, key) = (ShardId(0), b"bench/00042_");
    let mut seq = 0u64;
    let mut put = |value: &Value| {
        seq += 1;
        sink(server.handle(writer, shard, key, &put_msg(seq, value)));
    };
    out.insert("kv.server.dispatch_put_256b_ns", t.ns(|| put(&small_value)));
    out.insert("kv.server.dispatch_put_64k_ns", t.ns(|| put(&large_value)));
    let query = ClientToServer::QueryData {
        op: OpId::new(ReaderId(0), 1),
    };
    let reader = ClientId::Reader(ReaderId(0));
    let ns = t.ns(|| sink(server.handle(reader, shard, key, black_box(&query))));
    out.insert("kv.server.dispatch_query_ns", ns);
    server.enable_audit(&chain);
    let ack = ServerToClient::PutAck {
        op: OpId::new(WriterId(0), 1),
        tag: Tag::new(1, WriterId(0)),
    };
    out.insert(
        "kv.server.attest_ns",
        t.ns(|| sink(server.attest(key, black_box(&ack)))),
    );

    // kv tcp: sealing one request exactly as `TcpKvTransport::exchange` does.
    let stamp = EpochConfig::genesis(cfg.servers()).stamp();
    for (name, value) in [
        ("kv.tcp.seal_request_256b_ns", &small_value),
        ("kv.tcp.seal_request_64k_ns", &large_value),
    ] {
        let msg = put_msg(9, value);
        let ns = t.ns(|| {
            sink(encode_request(
                &chain,
                stamp,
                writer,
                ServerId(3),
                shard,
                key,
                black_box(&msg),
            ))
        });
        out.insert(name, ns);
    }

    // obs: both sit on every frame's path.
    let counter = safereg_obs::global().counter("bench.probe.counter");
    out.insert("obs.counter_inc_ns", t.ns(|| counter.inc()));
    let histogram = safereg_obs::global().histogram("bench.probe.histogram");
    let mut v = 0u64;
    let ns = t.ns(|| {
        v = v.wrapping_add(977);
        histogram.record(v & 0xFFFF);
    });
    out.insert("obs.histogram_record_ns", ns);
}

fn write_frame(stream: &mut TcpStream, payload: &[u8]) -> std::io::Result<()> {
    stream.write_all(&(payload.len() as u32).to_le_bytes())?;
    stream.write_all(payload)
}

fn read_frame(stream: &mut TcpStream, buf: &mut Vec<u8>) -> std::io::Result<()> {
    let mut len = [0u8; 4];
    stream.read_exact(&mut len)?;
    buf.resize(u32::from_le_bytes(len) as usize, 0);
    stream.read_exact(buf)
}

/// A raw `std::net` server answering every length-prefixed frame (the
/// framing `ChaosProxy` relays) with a 32-byte frame, until its peer hangs
/// up. Serves `conns` connections, then ends.
fn ack_server(conns: usize) -> std::io::Result<(SocketAddr, std::thread::JoinHandle<()>)> {
    let listener = TcpListener::bind(("127.0.0.1", 0))?;
    let addr = listener.local_addr()?;
    let handle = std::thread::spawn(move || {
        for mut stream in listener.incoming().take(conns).flatten() {
            stream.set_nodelay(true).ok();
            let mut buf = Vec::new();
            while read_frame(&mut stream, &mut buf).is_ok() {
                if write_frame(&mut stream, &[0u8; 32]).is_err() {
                    break;
                }
            }
        }
    });
    Ok((addr, handle))
}

/// Median round trip, µs, of `pings` frames of `len` bytes to `addr`.
fn ping_us(addr: SocketAddr, len: usize, pings: usize) -> std::io::Result<f64> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    let (payload, mut buf) = (vec![0xABu8; len], Vec::new());
    let mut rtts = Vec::with_capacity(pings);
    for i in 0..pings + pings / 10 {
        let start = Instant::now();
        write_frame(&mut stream, &payload)?;
        read_frame(&mut stream, &mut buf)?;
        // The first tenth warms the path up.
        if i >= pings / 10 {
            rtts.push(start.elapsed().as_secs_f64() * 1e6);
        }
    }
    Ok(median(&rtts))
}

/// The floor one exchange cannot beat on this host — a machine fact, not a
/// target — and the delay the `straggler` proxy really adds.
pub fn loopback(out: &mut Ledger) -> std::io::Result<()> {
    let (addr, server) = ack_server(3)?;
    let direct = ping_us(addr, 32, 2000)?;
    out.insert("transport.loopback_rtt_us", direct);
    out.insert("transport.loopback_64k_us", ping_us(addr, KIB64, 400)?);
    let mut proxy = ChaosProxy::spawn(ServerId(0), addr, crate::load::straggler_plan())?;
    let proxied = ping_us(proxy.addr(), 32, 60)?;
    out.insert("transport.chaos_added_rtt_us", proxied - direct);
    proxy.stop();
    server.join().expect("ack server panicked");
    Ok(())
}
