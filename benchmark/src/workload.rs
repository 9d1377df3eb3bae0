//! The four workloads and their seeded inputs.
//!
//! Everything the cluster sees — key ranks, get/put choice, value bytes —
//! is derived from `--seed` before the clock starts. Rates are constants
//! (about 35% of the seed commit's saturation on a 2-core host), never
//! tuned at run time: a commit that gets faster must show it as lower
//! latency at the same offered load and as a higher `sat_ops_per_s`.

use safereg_common::buf::Bytes;
use safereg_common::rng::{DetRng, Zipf};
use safereg_common::value::Value;

/// Client worker threads. Fixed, because key ownership and the rates below
/// are only meaningful at one worker count; the harness refuses to run on a
/// host with fewer cores.
pub const WORKERS: usize = 2;

/// Delay the `straggler` proxy injects on every frame, each way.
pub const STRAGGLER_DELAY_US: u64 = 2000;

/// The replica `straggler` reaches through the proxy. Read rounds visit
/// replicas from the highest id down and stop at `n − f` replies, so id 1
/// is inside every round.
pub const STRAGGLER_SERVER: u16 = 1;

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    pub n: usize,
    pub f: usize,
    pub coded: bool,
    pub shards: u16,
    pub keys: usize,
    /// Zipf exponent over each worker's owned keys; 0 is uniform.
    pub skew: f64,
    pub value_len: usize,
    pub put_permille: u32,
    /// Open-loop offered load, ops/s over all workers.
    pub rate: u32,
    pub straggler: bool,
}

pub const SPECS: [Spec; 4] = [
    Spec {
        name: "small_repl",
        why: "BSR n=5 f=1, 16 shards, 4096 Zipf keys, 256 B values, 25% puts: per-frame fixed costs dominate, payload kernels idle",
        n: 5,
        f: 1,
        coded: false,
        shards: 16,
        keys: 4096,
        skew: 1.0,
        value_len: 256,
        put_permille: 250,
        rate: 1500,
        straggler: false,
    },
    Spec {
        name: "large_repl",
        why: "BSR n=5 f=1, one shard, 256 uniform keys, 64 KiB values, 50% puts: bulk SHA-256/HMAC and copying dominate, mds bypassed",
        n: 5,
        f: 1,
        coded: false,
        shards: 1,
        keys: 256,
        skew: 0.0,
        value_len: 64 * 1024,
        put_permille: 500,
        rate: 120,
        straggler: false,
    },
    Spec {
        name: "large_coded",
        why: "BCSR n=11 f=1 k=6, one shard, 256 uniform keys, 64 KiB values, 50% puts: Reed-Solomon encode on put and decode on get dominate",
        n: 11,
        f: 1,
        coded: true,
        shards: 1,
        keys: 256,
        skew: 0.0,
        value_len: 64 * 1024,
        put_permille: 500,
        rate: 40,
        straggler: false,
    },
    Spec {
        name: "straggler",
        why: "BSR n=5 f=1, one shard, 256 B values, 25% puts, replica 1 behind a proxy adding 2 ms each way: latency counts round structure, not compute",
        n: 5,
        f: 1,
        coded: false,
        shards: 1,
        keys: 256,
        skew: 1.0,
        value_len: 256,
        put_permille: 250,
        rate: 150,
        straggler: true,
    },
];

pub fn spec(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

/// One generated operation. Op `i` of a sequence belongs to worker
/// `i % WORKERS`, and its key rank is ≡ that worker (mod `WORKERS`): a
/// worker only ever touches keys it owns, so every get is non-concurrent
/// with writes to its key and Definition 1 makes the expected value exact.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Op {
    pub rank: u32,
    pub put: bool,
}

/// Independent input streams of one run.
#[derive(Debug, Clone, Copy)]
pub enum Stream {
    Open(usize),
    Closed(usize),
    Pool,
}

fn stream_rng(seed: u64, stream: Stream) -> DetRng {
    let salt = match stream {
        Stream::Open(trial) => 0x1000 + trial as u64,
        Stream::Closed(trial) => 0x2000 + trial as u64,
        Stream::Pool => 0x3000,
    };
    DetRng::seed_from(seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Generates `count` operations of `spec` for one phase.
pub fn gen_ops(spec: &Spec, seed: u64, stream: Stream, count: usize) -> Vec<Op> {
    let mut rng = stream_rng(seed, stream);
    let owned = Zipf::new(spec.keys / WORKERS, spec.skew);
    (0..count)
        .map(|i| Op {
            rank: (owned.sample(&mut rng) * WORKERS + i % WORKERS) as u32,
            put: rng.range_u64(0..1000) < u64::from(spec.put_permille),
        })
        .collect()
}

pub fn key_of(rank: u32) -> [u8; 12] {
    let mut key = *b"bench/00000_";
    key[6..11].copy_from_slice(format!("{rank:05}").as_bytes());
    key
}

const HEADER: usize = 16;
const POOL_SLACK: usize = 4096;

/// Seeded random bytes that value bodies are cut from.
pub struct ValuePool {
    bytes: Vec<u8>,
    value_len: usize,
}

impl ValuePool {
    pub fn new(spec: &Spec, seed: u64) -> Self {
        let mut bytes = vec![0u8; spec.value_len + POOL_SLACK];
        stream_rng(seed, Stream::Pool).fill_bytes(&mut bytes);
        ValuePool {
            bytes,
            value_len: spec.value_len,
        }
    }

    /// The value of write number `version` to key `rank`: a header naming
    /// both (so no two writes of a run carry equal values and a stale read
    /// cannot pass for a fresh one) over a window of the pool.
    pub fn value(&self, rank: u32, version: u64) -> Value {
        let mut v = Vec::with_capacity(self.value_len);
        v.extend_from_slice(&rank.to_le_bytes());
        v.extend_from_slice(&version.to_le_bytes());
        v.extend_from_slice(b"sreg");
        let offset = (u64::from(rank).wrapping_mul(31).wrapping_add(version) as usize) % POOL_SLACK;
        v.extend_from_slice(&self.bytes[offset..offset + self.value_len - HEADER]);
        Value::new(Bytes::from(v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_sequence_other_seed_other_sequence() {
        for spec in &SPECS {
            let a = gen_ops(spec, 7, Stream::Open(0), 2000);
            let b = gen_ops(spec, 7, Stream::Open(0), 2000);
            let c = gen_ops(spec, 8, Stream::Open(0), 2000);
            let d = gen_ops(spec, 7, Stream::Open(1), 2000);
            let e = gen_ops(spec, 7, Stream::Closed(0), 2000);
            assert_eq!(a, b, "{}", spec.name);
            assert_ne!(a, c, "{}", spec.name);
            assert_ne!(a, d, "{}", spec.name);
            assert_ne!(a, e, "{}", spec.name);
            let (pa, pb) = (ValuePool::new(spec, 7), ValuePool::new(spec, 7));
            assert_eq!(pa.value(3, 9), pb.value(3, 9));
            assert_ne!(pa.value(3, 9), ValuePool::new(spec, 8).value(3, 9));
        }
    }

    #[test]
    fn ops_respect_ownership_mix_and_value_shape() {
        for spec in &SPECS {
            let ops = gen_ops(spec, 1, Stream::Closed(2), 20_000);
            let puts = ops.iter().filter(|o| o.put).count() as f64;
            let share = puts / ops.len() as f64 * 1000.0;
            assert!((share - f64::from(spec.put_permille)).abs() < 20.0);
            for (i, op) in ops.iter().enumerate() {
                assert_eq!(op.rank as usize % WORKERS, i % WORKERS);
                assert!((op.rank as usize) < spec.keys);
            }
            let pool = ValuePool::new(spec, 1);
            assert_eq!(pool.value(5, 1).len(), spec.value_len);
            assert_ne!(pool.value(5, 1), pool.value(5, 2));
            assert_ne!(pool.value(5, 1), pool.value(7, 1));
        }
        assert_eq!(&key_of(42), b"bench/00042_");
    }
}
