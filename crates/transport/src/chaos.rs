//! Deterministic fault injection for the real network path.
//!
//! The simulator exercises the paper's Byzantine bestiary under a seeded
//! scheduler; this module ports that discipline to real sockets. A
//! [`FaultPlan`] is a pure function of a seed: for every `(server,
//! connection, direction)` stream it yields a reproducible sequence of
//! [`FaultAction`]s — forward, drop, delay, corrupt, truncate, or kill —
//! optionally restricted to particular message classes. A [`ChaosProxy`]
//! sits between a client and one server, parses the length-prefixed frame
//! stream, and applies the plan frame by frame; [`ChaosNet`] wraps a whole
//! deployment.
//!
//! Determinism contract: the *schedule* (the decision stream) is
//! byte-for-byte identical for the same seed — see
//! [`FaultPlan::fingerprint`]. Which decisions are consumed depends on the
//! traffic that actually flows, which wall-clock scheduling perturbs; the
//! guarantee mirrors the simulator's "same seed, same adversary", not
//! "same seed, same execution".
//!
//! The proxies speak [`crate::frame`]'s framing (`u32` little-endian
//! length + payload) and never authenticate anything: corruption is
//! *supposed* to reach the peer and be rejected by its MAC check.

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use safereg_common::buf::Bytes;
use safereg_common::ids::ServerId;
use safereg_common::rng::DetRng;
use safereg_common::sync::Mutex;
use safereg_obs::names;
use safereg_obs::trace::MsgClass;

use crate::frame::{frame_len, FrameError, KvFrame};

/// What the proxy does to one frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Pass the frame through untouched.
    Forward,
    /// Silently discard the frame (a lossy link).
    Drop,
    /// Hold the frame for this many microseconds, then forward it.
    Delay {
        /// Hold time in microseconds.
        micros: u64,
    },
    /// Flip bytes in the payload before forwarding (the MAC layer on the
    /// receiving side must reject it).
    Corrupt,
    /// Forward the length header and half the payload, then kill the
    /// connection — a crash mid-write.
    Truncate,
    /// Hard-kill the connection without forwarding anything.
    Kill,
}

impl FaultAction {
    /// Short tag used in fingerprints and metric names.
    pub fn tag(&self) -> &'static str {
        match self {
            FaultAction::Forward => "forwarded",
            FaultAction::Drop => "dropped",
            FaultAction::Delay { .. } => "delayed",
            FaultAction::Corrupt => "corrupted",
            FaultAction::Truncate => "truncated",
            FaultAction::Kill => "killed",
        }
    }
}

/// Which way a frame is travelling through the proxy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Direction {
    /// Client requests towards the server.
    ClientToServer,
    /// Server responses towards the client.
    ServerToClient,
}

/// Fault probabilities (permille) for one stream. Rolls are drawn from a
/// single 0..1000 range, checked in the order kill → truncate → corrupt →
/// drop → delay, so the probabilities are disjoint and must sum to at
/// most 1000.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultSpec {
    /// Probability (permille) of killing the connection at a frame.
    pub kill_permille: u16,
    /// Probability (permille) of truncating a frame then killing.
    pub truncate_permille: u16,
    /// Probability (permille) of corrupting a frame's payload.
    pub corrupt_permille: u16,
    /// Probability (permille) of dropping a frame.
    pub drop_permille: u16,
    /// Probability (permille) of delaying a frame.
    pub delay_permille: u16,
    /// Uniform delay range in microseconds (inclusive lo, exclusive hi).
    pub delay_micros: (u64, u64),
    /// When `Some`, faults only hit frames of these message classes;
    /// everything else is forwarded (one decision is still consumed per
    /// frame, so the schedule is traffic-class independent).
    pub classes: Option<Vec<MsgClass>>,
}

impl FaultSpec {
    /// No faults at all — the proxy becomes a transparent relay (useful
    /// for targeted `sever`/`blackhole` scenarios).
    pub fn calm() -> Self {
        FaultSpec {
            kill_permille: 0,
            truncate_permille: 0,
            corrupt_permille: 0,
            drop_permille: 0,
            delay_permille: 0,
            delay_micros: (0, 1),
            classes: None,
        }
    }

    /// A lossy-but-survivable link: a few percent of frames are dropped,
    /// delayed or corrupted, and connections occasionally die. Retries and
    /// reconnects must mask all of it.
    pub fn mild() -> Self {
        FaultSpec {
            kill_permille: 5,
            truncate_permille: 5,
            corrupt_permille: 20,
            drop_permille: 30,
            delay_permille: 100,
            delay_micros: (500, 5_000),
            classes: None,
        }
    }

    /// An actively hostile link: heavy loss, frequent kills.
    pub fn severe() -> Self {
        FaultSpec {
            kill_permille: 30,
            truncate_permille: 20,
            corrupt_permille: 50,
            drop_permille: 100,
            delay_permille: 200,
            delay_micros: (1_000, 20_000),
            classes: None,
        }
    }

    fn total_fault_permille(&self) -> u32 {
        u32::from(self.kill_permille)
            + u32::from(self.truncate_permille)
            + u32::from(self.corrupt_permille)
            + u32::from(self.drop_permille)
            + u32::from(self.delay_permille)
    }
}

/// A seeded, deployment-wide fault plan. Pure data: the same seed and spec
/// always describe the same adversary.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    seed: u64,
    spec: FaultSpec,
}

impl FaultPlan {
    /// Creates a plan.
    ///
    /// # Panics
    ///
    /// Panics when the spec's fault probabilities sum past 1000 permille.
    pub fn new(seed: u64, spec: FaultSpec) -> Self {
        assert!(
            spec.total_fault_permille() <= 1000,
            "fault probabilities exceed 1000 permille"
        );
        FaultPlan { seed, spec }
    }

    /// The seed this plan was built from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The per-stream decision source for `(server, connection ordinal,
    /// direction)`. Streams are independent: adding traffic on one never
    /// perturbs another, exactly like the simulator's per-process RNG
    /// forks.
    pub fn schedule(&self, server: ServerId, conn: u64, dir: Direction) -> FaultSchedule {
        // SplitMix-style mixing keeps distinct streams decorrelated even
        // for adjacent (server, conn) pairs.
        let mut mixed = self.seed ^ 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(u64::from(server.0) + 1);
        mixed = mixed.wrapping_add(0xBF58_476D_1CE4_E5B9u64.wrapping_mul(conn + 1));
        mixed = mixed.wrapping_add(match dir {
            Direction::ClientToServer => 0x94D0_49BB_1331_11EB,
            Direction::ServerToClient => 0xD6E8_FEB8_6659_FD93,
        });
        FaultSchedule {
            rng: DetRng::seed_from(mixed),
            spec: self.spec.clone(),
        }
    }

    /// A byte encoding of the first `n` decisions of one stream — the
    /// "byte-identical fault schedule" determinism tests assert on. Equal
    /// seeds produce equal fingerprints; a different seed almost surely
    /// does not.
    pub fn fingerprint(&self, server: ServerId, conn: u64, dir: Direction, n: usize) -> Vec<u8> {
        let mut sched = self.schedule(server, conn, dir);
        let mut out = Vec::with_capacity(n * 9);
        for _ in 0..n {
            match sched.decide() {
                FaultAction::Forward => out.push(0),
                FaultAction::Drop => out.push(1),
                FaultAction::Delay { micros } => {
                    out.push(2);
                    out.extend_from_slice(&micros.to_le_bytes());
                }
                FaultAction::Corrupt => out.push(3),
                FaultAction::Truncate => out.push(4),
                FaultAction::Kill => out.push(5),
            }
        }
        out
    }
}

/// One stream's deterministic decision source.
#[derive(Debug, Clone)]
pub struct FaultSchedule {
    rng: DetRng,
    spec: FaultSpec,
}

impl FaultSchedule {
    /// Draws the next decision unconditionally (class filter ignored).
    pub fn decide(&mut self) -> FaultAction {
        let roll = self.rng.range_u64(0..1000);
        let mut bound = u64::from(self.spec.kill_permille);
        if roll < bound {
            return FaultAction::Kill;
        }
        bound += u64::from(self.spec.truncate_permille);
        if roll < bound {
            return FaultAction::Truncate;
        }
        bound += u64::from(self.spec.corrupt_permille);
        if roll < bound {
            return FaultAction::Corrupt;
        }
        bound += u64::from(self.spec.drop_permille);
        if roll < bound {
            return FaultAction::Drop;
        }
        bound += u64::from(self.spec.delay_permille);
        if roll < bound {
            let (lo, hi) = self.spec.delay_micros;
            let micros = if hi > lo {
                self.rng.range_u64(lo..hi)
            } else {
                lo
            };
            return FaultAction::Delay { micros };
        }
        FaultAction::Forward
    }

    /// Draws the next decision for a frame of `class`. A decision is
    /// consumed either way (schedule position is traffic-independent), but
    /// frames outside the spec's class filter are always forwarded.
    pub fn next_action(&mut self, class: Option<MsgClass>) -> FaultAction {
        let action = self.decide();
        match (&self.spec.classes, class) {
            (Some(filter), Some(c)) if !filter.contains(&c) => FaultAction::Forward,
            (Some(_), None) => FaultAction::Forward,
            _ => action,
        }
    }
}

/// Best-effort classification of a raw frame payload through the one
/// frame decoder (keyless — the proxy never verifies MACs); garbage
/// classifies as `None`.
fn classify(payload: &Bytes) -> Option<MsgClass> {
    KvFrame::parse(payload)
        .ok()
        .map(|frame| MsgClass::of(&frame.env.msg))
}

/// Incremental frame parser over the raw `u32`-length-prefixed stream.
/// Buffering in user space (instead of `read_exact` with a timeout) means
/// a poll timeout can never lose half-read bytes.
struct FrameBuf {
    buf: Vec<u8>,
}

impl FrameBuf {
    fn new() -> Self {
        FrameBuf { buf: Vec::new() }
    }

    /// Extracts the next complete frame payload, if buffered, as an
    /// immutable [`Bytes`] the fault actions can slice without copying.
    /// An oversized length prefix is an error: no endpoint would accept
    /// the frame, so the proxy must not buffer towards it either.
    fn extract(&mut self) -> Result<Option<Bytes>, FrameError> {
        let Some(prefix) = self.buf.first_chunk::<4>() else {
            return Ok(None);
        };
        let len = frame_len(*prefix)?;
        if self.buf.len() < 4 + len {
            return Ok(None);
        }
        let payload = Bytes::from(self.buf[4..4 + len].to_vec());
        self.buf.drain(..4 + len);
        Ok(Some(payload))
    }
}

/// Shared state of one proxy.
struct ProxyShared {
    stop: AtomicBool,
    /// When set, accepted connections are dropped immediately — the
    /// server looks up but every session dies before serving a frame.
    blackhole: AtomicBool,
    /// Live (client-side, server-side) socket pairs, for `sever`.
    live: Mutex<Vec<(TcpStream, TcpStream)>>,
    conn_counter: AtomicU64,
}

/// A chaos proxy in front of one server: clients connect to
/// [`ChaosProxy::addr`] and the proxy relays frames to the real server,
/// applying its [`FaultPlan`] stream per connection and direction.
pub struct ChaosProxy {
    addr: SocketAddr,
    upstream: SocketAddr,
    shared: Arc<ProxyShared>,
    accept_thread: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for ChaosProxy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChaosProxy")
            .field("addr", &self.addr)
            .field("upstream", &self.upstream)
            .finish()
    }
}

impl ChaosProxy {
    /// Starts a proxy on an ephemeral loopback port in front of
    /// `upstream`, injecting faults for `server`'s streams of `plan`.
    ///
    /// # Errors
    ///
    /// Propagates bind errors.
    pub fn spawn(server: ServerId, upstream: SocketAddr, plan: FaultPlan) -> std::io::Result<Self> {
        Self::spawn_on(server, upstream, plan, ("127.0.0.1", 0))
    }

    /// Starts a proxy on an explicit bind address — restart supervisors use
    /// this to bring a proxy back on the address clients already hold.
    ///
    /// # Errors
    ///
    /// Propagates bind errors.
    pub fn spawn_on(
        server: ServerId,
        upstream: SocketAddr,
        plan: FaultPlan,
        bind: impl std::net::ToSocketAddrs,
    ) -> std::io::Result<Self> {
        let listener = TcpListener::bind(bind)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(ProxyShared {
            stop: AtomicBool::new(false),
            blackhole: AtomicBool::new(false),
            live: Mutex::new(Vec::new()),
            conn_counter: AtomicU64::new(0),
        });

        let accept_shared = Arc::clone(&shared);
        let accept_thread = std::thread::Builder::new()
            .name(format!("safereg-chaos-{server}"))
            .spawn(move || {
                for conn in listener.incoming() {
                    if accept_shared.stop.load(Ordering::SeqCst) {
                        break;
                    }
                    let client = match conn {
                        Ok(s) => s,
                        Err(_) => continue,
                    };
                    if accept_shared.blackhole.load(Ordering::SeqCst) {
                        // The TCP handshake succeeded (kernel backlog),
                        // but the session dies before a single frame —
                        // indistinguishable from a server crashing on
                        // accept, which is what drives breakers open.
                        drop(client);
                        continue;
                    }
                    let upstream_stream =
                        match TcpStream::connect_timeout(&upstream, Duration::from_secs(1)) {
                            Ok(s) => s,
                            Err(_) => continue, // real server down: drop the client
                        };
                    client.set_nodelay(true).ok();
                    upstream_stream.set_nodelay(true).ok();
                    let conn_idx = accept_shared.conn_counter.fetch_add(1, Ordering::SeqCst);
                    let c2s = plan.schedule(server, conn_idx, Direction::ClientToServer);
                    let s2c = plan.schedule(server, conn_idx, Direction::ServerToClient);
                    let (Ok(client2), Ok(upstream2)) =
                        (client.try_clone(), upstream_stream.try_clone())
                    else {
                        continue;
                    };
                    if let (Ok(ck), Ok(uk)) = (client.try_clone(), upstream_stream.try_clone()) {
                        accept_shared.live.lock().push((ck, uk));
                    }
                    let stop_a = Arc::clone(&accept_shared);
                    let stop_b = Arc::clone(&accept_shared);
                    let _ = std::thread::Builder::new()
                        .name("safereg-chaos-c2s".into())
                        .spawn(move || relay(client, upstream_stream, c2s, stop_a));
                    let _ = std::thread::Builder::new()
                        .name("safereg-chaos-s2c".into())
                        .spawn(move || relay(upstream2, client2, s2c, stop_b));
                }
            })
            .expect("spawn chaos accept thread");

        Ok(ChaosProxy {
            addr,
            upstream,
            shared,
            accept_thread: Some(accept_thread),
        })
    }

    /// The address clients should connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The real server behind this proxy.
    pub fn upstream(&self) -> SocketAddr {
        self.upstream
    }

    /// Hard-kills every live connection through this proxy (clients must
    /// reconnect). New connections are still accepted.
    pub fn sever(&self) {
        let mut live = self.shared.live.lock();
        for (c, u) in live.drain(..) {
            let _ = c.shutdown(Shutdown::Both);
            let _ = u.shutdown(Shutdown::Both);
        }
    }

    /// While blackholed, new sessions die before delivering a frame (and
    /// existing ones are severed) — the server is effectively down.
    pub fn set_blackhole(&self, on: bool) {
        self.shared.blackhole.store(on, Ordering::SeqCst);
        if on {
            self.sever();
        }
    }

    /// Stops the proxy and severs everything.
    pub fn stop(&mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        self.sever();
        let _ = TcpStream::connect(self.addr); // unblock accept
        if let Some(h) = self.accept_thread.take() {
            let _ = h.join();
        }
    }
}

impl Drop for ChaosProxy {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Relays frames `src → dst`, consulting `sched` per frame.
fn relay(
    mut src: TcpStream,
    mut dst: TcpStream,
    mut sched: FaultSchedule,
    shared: Arc<ProxyShared>,
) {
    let reg = safereg_obs::global();
    let _ = src.set_read_timeout(Some(Duration::from_millis(100)));
    let mut fb = FrameBuf::new();
    let mut chunk = [0u8; 16 * 1024];
    let teardown = |src: &TcpStream, dst: &TcpStream| {
        let _ = src.shutdown(Shutdown::Both);
        let _ = dst.shutdown(Shutdown::Both);
    };
    loop {
        loop {
            let payload = match fb.extract() {
                Ok(Some(payload)) => payload,
                Ok(None) => break,
                Err(_) => {
                    teardown(&src, &dst);
                    return;
                }
            };
            // Only a class-filtered plan needs the frame decoded.
            let class = sched.spec.classes.as_ref().and_then(|_| classify(&payload));
            let action = sched.next_action(class);
            if action == FaultAction::Forward {
                reg.counter(names::CHAOS_FORWARDED).inc();
            } else {
                reg.counter(&format!("{}.{}", names::CHAOS_FAULT_PREFIX, action.tag()))
                    .inc();
            }
            match action {
                FaultAction::Forward => {
                    if write_raw(&mut dst, &[payload.as_ref()]).is_err() {
                        teardown(&src, &dst);
                        return;
                    }
                }
                FaultAction::Drop => {}
                FaultAction::Delay { micros } => {
                    std::thread::sleep(Duration::from_micros(micros));
                    if write_raw(&mut dst, &[payload.as_ref()]).is_err() {
                        teardown(&src, &dst);
                        return;
                    }
                }
                FaultAction::Corrupt => {
                    // One byte is flipped; the untouched prefix and suffix
                    // are written as slices of the original buffer, never
                    // re-allocated.
                    if payload.is_empty() {
                        if write_raw(&mut dst, &[payload.as_ref()]).is_err() {
                            teardown(&src, &dst);
                            return;
                        }
                    } else {
                        let mid = payload.len() / 2;
                        let flipped = [payload.as_ref()[mid] ^ 0xFF];
                        let parts = [
                            &payload.as_ref()[..mid],
                            &flipped[..],
                            &payload.as_ref()[mid + 1..],
                        ];
                        if write_raw(&mut dst, &parts).is_err() {
                            teardown(&src, &dst);
                            return;
                        }
                    }
                }
                FaultAction::Truncate => {
                    // Announce the full length, deliver half, die: the
                    // peer's next read blocks on a frame that never
                    // completes until the kill lands.
                    let len = payload.len() as u32;
                    let _ = dst.write_all(&len.to_le_bytes());
                    let _ = dst.write_all(&payload.as_ref()[..payload.len() / 2]);
                    let _ = dst.flush();
                    teardown(&src, &dst);
                    return;
                }
                FaultAction::Kill => {
                    teardown(&src, &dst);
                    return;
                }
            }
        }
        if shared.stop.load(Ordering::SeqCst) {
            teardown(&src, &dst);
            return;
        }
        match src.read(&mut chunk) {
            Ok(0) => {
                teardown(&src, &dst);
                return;
            }
            Ok(n) => fb.buf.extend_from_slice(&chunk[..n]),
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                continue;
            }
            Err(_) => {
                teardown(&src, &dst);
                return;
            }
        }
    }
}

/// Writes one raw frame whose payload is the concatenation of `parts` —
/// the corrupt path hands over (prefix, flipped byte, suffix) slices so
/// the untouched bytes are never re-buffered.
fn write_raw(dst: &mut TcpStream, parts: &[&[u8]]) -> std::io::Result<()> {
    let len: usize = parts.iter().map(|p| p.len()).sum();
    dst.write_all(&(len as u32).to_le_bytes())?;
    for part in parts {
        dst.write_all(part)?;
    }
    dst.flush()
}

/// A chaos proxy per server: the seam between any cluster's real
/// addresses and a client that should experience faults.
#[derive(Debug)]
pub struct ChaosNet {
    proxies: BTreeMap<ServerId, ChaosProxy>,
}

impl ChaosNet {
    /// Wraps every server address with a [`ChaosProxy`] driven by `plan`.
    ///
    /// # Errors
    ///
    /// Propagates bind errors.
    pub fn wrap(addrs: &BTreeMap<ServerId, SocketAddr>, plan: &FaultPlan) -> std::io::Result<Self> {
        let mut proxies = BTreeMap::new();
        for (sid, addr) in addrs {
            proxies.insert(*sid, ChaosProxy::spawn(*sid, *addr, plan.clone())?);
        }
        Ok(ChaosNet { proxies })
    }

    /// The proxied addresses — hand these to a client instead of the real
    /// ones.
    pub fn addrs(&self) -> BTreeMap<ServerId, SocketAddr> {
        self.proxies.iter().map(|(s, p)| (*s, p.addr())).collect()
    }

    /// Kills every live connection to `server`.
    pub fn sever(&self, server: ServerId) {
        if let Some(p) = self.proxies.get(&server) {
            p.sever();
        }
    }

    /// Blackholes (or restores) `server`.
    pub fn set_blackhole(&self, server: ServerId, on: bool) {
        if let Some(p) = self.proxies.get(&server) {
            p.set_blackhole(on);
        }
    }

    /// Access to one proxy.
    pub fn proxy(&self, server: ServerId) -> Option<&ChaosProxy> {
        self.proxies.get(&server)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_schedule_bytes() {
        let a = FaultPlan::new(42, FaultSpec::severe());
        let b = FaultPlan::new(42, FaultSpec::severe());
        for sid in [ServerId(0), ServerId(3)] {
            for conn in [0u64, 1, 7] {
                for dir in [Direction::ClientToServer, Direction::ServerToClient] {
                    assert_eq!(
                        a.fingerprint(sid, conn, dir, 256),
                        b.fingerprint(sid, conn, dir, 256),
                        "schedule must be a pure function of the seed"
                    );
                }
            }
        }
    }

    #[test]
    fn different_seeds_or_streams_diverge() {
        let a = FaultPlan::new(1, FaultSpec::severe());
        let b = FaultPlan::new(2, FaultSpec::severe());
        let dir = Direction::ClientToServer;
        assert_ne!(
            a.fingerprint(ServerId(0), 0, dir, 256),
            b.fingerprint(ServerId(0), 0, dir, 256)
        );
        assert_ne!(
            a.fingerprint(ServerId(0), 0, dir, 256),
            a.fingerprint(ServerId(1), 0, dir, 256),
            "per-server streams are independent"
        );
        assert_ne!(
            a.fingerprint(ServerId(0), 0, Direction::ClientToServer, 256),
            a.fingerprint(ServerId(0), 0, Direction::ServerToClient, 256),
            "per-direction streams are independent"
        );
    }

    #[test]
    fn calm_spec_always_forwards() {
        let plan = FaultPlan::new(9, FaultSpec::calm());
        let mut sched = plan.schedule(ServerId(0), 0, Direction::ClientToServer);
        for _ in 0..100 {
            assert_eq!(sched.next_action(None), FaultAction::Forward);
        }
    }

    #[test]
    fn class_filter_shields_other_classes() {
        let mut spec = FaultSpec::severe();
        spec.classes = Some(vec![MsgClass::PutData]);
        let plan = FaultPlan::new(3, spec);
        let mut sched = plan.schedule(ServerId(0), 0, Direction::ClientToServer);
        for _ in 0..200 {
            assert_eq!(
                sched.next_action(Some(MsgClass::QueryData)),
                FaultAction::Forward,
                "query-data is outside the filter"
            );
        }
        let mut sched = plan.schedule(ServerId(0), 0, Direction::ClientToServer);
        let mut faulted = 0;
        for _ in 0..200 {
            if sched.next_action(Some(MsgClass::PutData)) != FaultAction::Forward {
                faulted += 1;
            }
        }
        assert!(faulted > 0, "the targeted class does get hit");
    }

    #[test]
    #[should_panic(expected = "exceed 1000 permille")]
    fn overfull_spec_is_rejected() {
        let mut spec = FaultSpec::severe();
        spec.drop_permille = 1000;
        FaultPlan::new(0, spec);
    }

    #[test]
    fn frame_buf_reassembles_split_frames() {
        let mut fb = FrameBuf::new();
        let mut wire = Vec::new();
        wire.extend_from_slice(&3u32.to_le_bytes());
        wire.extend_from_slice(b"abc");
        wire.extend_from_slice(&2u32.to_le_bytes());
        wire.extend_from_slice(b"xy");
        // Feed byte by byte: frames only pop once complete.
        let mut got = Vec::new();
        for b in wire {
            fb.buf.push(b);
            while let Some(f) = fb.extract().unwrap() {
                got.push(f);
            }
        }
        assert_eq!(
            got,
            vec![
                Bytes::copy_from_slice(b"abc"),
                Bytes::copy_from_slice(b"xy")
            ]
        );
        fb.buf.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(fb.extract(), Err(FrameError::TooLarge { .. })));
    }

    #[test]
    fn proxy_relays_and_severs() {
        // Echo server: reads a frame, writes it back.
        let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let upstream = listener.local_addr().unwrap();
        std::thread::spawn(move || {
            for conn in listener.incoming() {
                let Ok(mut s) = conn else { continue };
                std::thread::spawn(move || loop {
                    let mut len = [0u8; 4];
                    if s.read_exact(&mut len).is_err() {
                        return;
                    }
                    let mut buf = vec![0u8; u32::from_le_bytes(len) as usize];
                    if s.read_exact(&mut buf).is_err() {
                        return;
                    }
                    if write_raw(&mut s, &[&buf[..]]).is_err() {
                        return;
                    }
                });
            }
        });

        let plan = FaultPlan::new(7, FaultSpec::calm());
        let proxy = ChaosProxy::spawn(ServerId(0), upstream, plan).unwrap();
        let mut client = TcpStream::connect(proxy.addr()).unwrap();
        write_raw(&mut client, &[&b"ping"[..]]).unwrap();
        let mut len = [0u8; 4];
        client.read_exact(&mut len).unwrap();
        let mut buf = vec![0u8; u32::from_le_bytes(len) as usize];
        client.read_exact(&mut buf).unwrap();
        assert_eq!(buf, b"ping");

        proxy.sever();
        // The severed connection dies: either the write or the read fails.
        let dead = write_raw(&mut client, &[&b"again"[..]]).is_err()
            || client.read_exact(&mut [0u8; 4]).is_err();
        assert!(dead, "severed connection must not keep working");
    }
}
