//! `wire` microbench: allocation accounting for the zero-copy wire path.
//!
//! Measures the BCSR write fan-out at the paper's running point `n = 11,
//! f = 2` (so `k = 1`): a writer stripes one value and ships a `PutData`
//! frame to each of the `n` servers. Two implementations of that fan-out
//! are compared under a counting global allocator:
//!
//! * **old** — the pre-`Bytes` path: one fragment `Vec` per server, one
//!   `Bytes` wrap per fragment, one contiguous encode (`encode_to` into a
//!   fresh `Vec`) per envelope, and one sealed-output `Vec` per frame: ~4 heap
//!   allocations per server, `4n` per write.
//! * **new** — the deployed encode-once path: all fragments live in a
//!   single arena `Bytes` (one `Vec` + one `Arc`), each server's payload
//!   is an O(1) slice, and [`SealedKv::seal`] allocates only the metadata
//!   head (the MAC is streamed over `(head, tail)`).
//!
//! The Reed–Solomon striping itself (one codeword per column) is identical
//! in both paths and excluded from the measured region — this bench
//! isolates the *wire* cost the zero-copy redesign changed, not the coding
//! math it didn't touch.
//!
//! A relay simulation then feeds every new-path frame through
//! [`KvFrame::open`] — the same open every host and client runs — and
//! counts the payload bytes of each decoded frame that do not point into
//! the received buffer: the serving path must never memcpy payload bytes,
//! so the bar is 0.
//!
//! A final batching leg drives a real TCP cluster and checks the vectored
//! outbox drain: every flush recorded in `transport.batch.frames` must
//! respect the [`MAX_BATCH_FRAMES`] ceiling (64),
//! and at least one flush must have happened — a reactor that stops
//! reporting (or stops bounding) its batches fails the bench.
//!
//! [`run`] only produces meaningful numbers when [`CountingAlloc`] is
//! installed as the `#[global_allocator]` (the `paper_harness` binary does
//! this); under the default allocator every count reads zero and the
//! result is marked failed.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use safereg_common::buf::Bytes;
use safereg_common::codec::Wire;
use safereg_common::epoch::ConfigStamp;
use safereg_common::ids::{ClientId, ServerId, WriterId};
use safereg_common::msg::{ClientToServer, CodedElement, Envelope, Message, OpId, Payload};
use safereg_common::shard::ShardId;
use safereg_common::tag::Tag;
use safereg_common::trace::TraceCtx;
use safereg_common::value::Value;
use safereg_crypto::auth::AuthCodec;
use safereg_crypto::keychain::KeyChain;
use safereg_mds::rs::ReedSolomon;
use safereg_mds::stripe::encode_value;
use safereg_transport::frame::{KvFrame, SealedKv, MAX_BATCH_FRAMES};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// A pass-through allocator that counts every allocation (alloc,
/// alloc_zeroed, and realloc each count once). Install it in a binary with
/// `#[global_allocator]` to make [`allocations`] live.
pub struct CountingAlloc;

// SAFETY: defers every operation to `System`; the counter is a relaxed
// atomic with no allocation of its own.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Total allocations observed since process start (0 unless
/// [`CountingAlloc`] is the global allocator).
pub fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// Outcome of the wire microbench.
#[derive(Debug, Clone)]
pub struct WireBenchResult {
    /// Cluster size of the measured BCSR point.
    pub n: usize,
    /// Fault bound of the measured point.
    pub f: usize,
    /// Value size striped per write.
    pub value_bytes: usize,
    /// Measured writes per path.
    pub iters: u64,
    /// Mean heap allocations per write on the pre-`Bytes` path.
    pub old_allocs_per_write: f64,
    /// Mean heap allocations per write on the encode-once path.
    pub new_allocs_per_write: f64,
    /// `old / new`; the acceptance bar is ≥ 2.
    pub alloc_ratio: f64,
    /// Frames pushed through the borrowing relay decode.
    pub relay_frames: usize,
    /// Payload bytes of relayed frames that decoded into a copy instead of
    /// a view of the received buffer; the bar is 0.
    pub relay_bytes_copied: u64,
    /// Vectored-drain ceiling ([`MAX_BATCH_FRAMES`]).
    pub batch_ceiling: usize,
    /// `transport.batch.frames` samples recorded by the TCP leg.
    pub batch_samples: u64,
    /// Largest batch any writer flushed; the bar is `≤ batch_ceiling`.
    pub batch_max_frames: u64,
}

impl WireBenchResult {
    /// Whether every acceptance bar holds.
    pub fn ok(&self) -> bool {
        self.alloc_ratio >= 2.0
            && self.relay_bytes_copied == 0
            && self.relay_frames > 0
            && self.batch_samples > 0
            && self.batch_max_frames <= self.batch_ceiling as u64
    }

    /// The result as one JSON object (BENCH_wire.json).
    pub fn to_json(&self) -> String {
        format!(
            concat!(
                "{{\"bench\":\"wire\",\"n\":{},\"f\":{},\"value_bytes\":{},",
                "\"iters\":{},\"old_allocs_per_write\":{:.2},",
                "\"new_allocs_per_write\":{:.2},\"alloc_ratio\":{:.2},",
                "\"relay_frames\":{},\"relay_bytes_copied\":{},",
                "\"batch_ceiling\":{},\"batch_samples\":{},",
                "\"batch_max_frames\":{},\"ok\":{}}}\n"
            ),
            self.n,
            self.f,
            self.value_bytes,
            self.iters,
            self.old_allocs_per_write,
            self.new_allocs_per_write,
            self.alloc_ratio,
            self.relay_frames,
            self.relay_bytes_copied,
            self.batch_ceiling,
            self.batch_samples,
            self.batch_max_frames,
            self.ok(),
        )
    }
}

const N: usize = 11;
const F: usize = 2;
const VALUE_BYTES: usize = 16 << 10;
const ITERS: u64 = 64;

fn put_envelope(server: usize, element: CodedElement) -> Envelope {
    Envelope::to_server(
        ClientId::Writer(WriterId(1)),
        ServerId(server as u16),
        ClientToServer::PutData {
            op: OpId::new(WriterId(1), 7),
            tag: Tag::new(42, WriterId(1)),
            payload: Payload::Coded(element),
        },
    )
}

/// The deployed frame around one fan-out envelope: `key` is shared (an O(1)
/// clone), everything else is fixed-size metadata.
fn put_frame(key: &Bytes, server: usize, element: CodedElement) -> KvFrame {
    KvFrame {
        shard: ShardId(0),
        trace: TraceCtx::NONE,
        stamp: ConfigStamp {
            epoch: 0,
            digest: 0,
        },
        link: None,
        key: key.clone(),
        env: put_envelope(server, element),
    }
}

/// The sealed payload as a host's socket read delivers it: one buffer,
/// length prefix stripped.
fn received(sealed: &SealedKv) -> Bytes {
    Bytes::from(sealed.to_wire_bytes()).slice(4..)
}

/// Whether `view` lies inside `buf`'s memory, i.e. was decoded without a
/// copy.
fn aliases(view: &Bytes, buf: &Bytes) -> bool {
    let (lo, hi) = (buf.as_ptr() as usize, buf.as_ptr() as usize + buf.len());
    let at = view.as_ptr() as usize;
    lo <= at && at + view.len() <= hi
}

/// Runs the microbench. See the module docs for what is measured.
pub fn run() -> WireBenchResult {
    let k = N - 5 * F; // BCSR dimension: k = 1 at the paper's point
    let code = ReedSolomon::new(N, k).expect("valid BCSR point");
    let value = Value::from(vec![0xF0u8; VALUE_BYTES]);
    let chain = KeyChain::from_master_seed(b"wire-bench");
    let key = Bytes::copy_from_slice(b"wire-bench/key");

    // Stripe once, outside the measured region: the RS math is common to
    // both paths. `flat` is the raw fragment arena (element i occupies
    // `flat[i*frag .. (i+1)*frag]`), `frag` the per-server fragment size.
    let elements = encode_value(&code, &value);
    let frag = elements[0].data.len();
    let mut flat = Vec::with_capacity(N * frag);
    for e in &elements {
        flat.extend_from_slice(e.data.as_ref());
    }
    let value_len = value.len() as u32;

    // Warm up key derivation and the obs registry so one-time allocations
    // stay out of the measured deltas.
    for (i, e) in elements.iter().enumerate() {
        let sealed = SealedKv::seal(&chain, &put_frame(&key, i, e.clone()));
        let _ = KvFrame::open(&chain, &received(&sealed)).expect("warm-up frame opens");
    }

    // Old path: per-server fragment Vec + Bytes wrap + contiguous encode +
    // sealed-output Vec (4 allocations per server).
    let mut old_frames: Vec<Vec<u8>> = Vec::with_capacity(N);
    let before = allocations();
    for _ in 0..ITERS {
        old_frames.clear();
        for i in 0..N {
            let fragment = flat[i * frag..(i + 1) * frag].to_vec();
            let element = CodedElement {
                index: i as u16,
                value_len,
                data: Bytes::from(fragment),
            };
            let env = put_envelope(i, element);
            let mut bytes = Vec::new();
            env.encode_to(&mut bytes);
            let codec = AuthCodec::new(chain.pair_key(env.src, env.dst));
            old_frames.push(codec.seal(&bytes));
        }
    }
    let old_allocs = allocations() - before;

    // New path: one arena (Vec + Arc), O(1) slices per server, and a
    // streamed seal that allocates only the metadata head.
    let mut new_frames = Vec::with_capacity(N);
    let before = allocations();
    for _ in 0..ITERS {
        new_frames.clear();
        let arena = Bytes::from(flat.clone());
        for i in 0..N {
            let element = CodedElement {
                index: i as u16,
                value_len,
                data: arena
                    .try_slice(i * frag..(i + 1) * frag)
                    .expect("arena sized as n*frag"),
            };
            new_frames.push(SealedKv::seal(&chain, &put_frame(&key, i, element)));
        }
    }
    let new_allocs = allocations() - before;

    // Relay simulation: every new-path frame is opened exactly as a host
    // opens it, and its payload must come back as a view of the received
    // buffer.
    let mut relay_frames = 0usize;
    let mut relay_bytes_copied = 0u64;
    for sealed in &new_frames {
        let buf = received(sealed);
        let frame = KvFrame::open(&chain, &buf).expect("sealed frame opens");
        let Message::ToServer(ClientToServer::PutData {
            payload: Payload::Coded(element),
            ..
        }) = &frame.env.msg
        else {
            panic!("relay decoded an unexpected message");
        };
        if !aliases(&element.data, &buf) {
            relay_bytes_copied += element.data.len() as u64;
        }
        relay_frames += 1;
    }

    let (batch_samples, batch_max_frames) = batch_drain_leg();

    let old_allocs_per_write = old_allocs as f64 / ITERS as f64;
    let new_allocs_per_write = new_allocs as f64 / ITERS as f64;
    WireBenchResult {
        n: N,
        f: F,
        value_bytes: VALUE_BYTES,
        iters: ITERS,
        old_allocs_per_write,
        new_allocs_per_write,
        alloc_ratio: old_allocs_per_write / new_allocs_per_write.max(f64::MIN_POSITIVE),
        relay_frames,
        relay_bytes_copied,
        batch_ceiling: MAX_BATCH_FRAMES,
        batch_samples,
        batch_max_frames,
    }
}

/// Drives a real `n = 5` TCP cluster through enough traffic that every
/// host's reactor flushes batches, then reads back the
/// `transport.batch.frames` histogram. Returns `(samples, max)`; the
/// report asserts `max ≤ MAX_BATCH_FRAMES`. The leg runs after both measured
/// alloc regions, so its (substantial) heap traffic never skews them.
fn batch_drain_leg() -> (u64, u64) {
    use safereg_common::config::QuorumConfig;
    use safereg_common::ids::ReaderId;
    use safereg_kv::client::KvClient;
    use safereg_kv::server::KvMode;
    use safereg_kv::tcp::TcpKvCluster;

    let reg = safereg_obs::global();
    let before = reg
        .histogram(safereg_obs::names::TRANSPORT_BATCH_FRAMES)
        .count();

    let cfg = QuorumConfig::minimal_bsr(1).expect("n = 5 BSR point");
    let Ok(cluster) = TcpKvCluster::builder(KvMode::Replicated, b"wire-batch-leg")
        .quorum(cfg)
        .start()
    else {
        // No loopback listener available: report an empty leg; ok() fails
        // loudly rather than pretending the ceiling was checked.
        return (0, 0);
    };
    let mut transport = cluster.transport();
    let mut client = KvClient::new(cfg, WriterId(7), ReaderId(7));
    for i in 0u32..48 {
        let key = format!("batch-{}", i % 8);
        client
            .put(&mut transport, key.as_bytes(), i.to_le_bytes().to_vec())
            .expect("put under no faults");
        client
            .get(&mut transport, key.as_bytes())
            .expect("get under no faults");
    }
    drop(transport);
    drop(cluster);

    let snap = reg
        .histogram(safereg_obs::names::TRANSPORT_BATCH_FRAMES)
        .snapshot();
    (snap.count.saturating_sub(before), snap.max)
}
