//! Readiness-driven serving runtime for the KV host — the one serving
//! path.
//!
//! Every accepted connection is multiplexed onto a small pool of
//! *reactors* — one event loop per hosted shard by default, at most one
//! per core — built on the zero-dependency readiness layer in
//! [`safereg_transport::poll`] (raw `epoll` on Linux, portable `poll`
//! elsewhere), so serving `C` connections costs `O(reactors)` threads,
//! not `O(C)`.
//!
//! Per connection the reactor keeps a read-accumulation buffer feeding the
//! borrowing frame decode, and a bounded outbox of sealed replies drained
//! with vectored writes (four iovecs per frame: length prefix, head,
//! zero-copy tail, MAC) directly from the event loop. Backpressure is
//! lossless: while the outbox holds `chan_capacity` replies the reactor
//! stops parsing that connection's frames and parks its read interest
//! (frames already buffered stay buffered), so a correct replica never
//! drops its own reply. A client that stops draining its socket trips the
//! stall budget and is evicted; one that goes quiet trips the idle budget
//! — both enforced by a periodic tick.

#![allow(clippy::needless_pass_by_value)]

#[cfg(unix)]
pub(crate) use imp::ReactorPool;

#[cfg(unix)]
mod imp {
    use std::collections::{HashMap, VecDeque};
    use std::io::{ErrorKind, IoSlice, Read, Write};
    use std::net::TcpStream;
    use std::os::unix::io::AsRawFd;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::{Arc, Mutex};
    use std::time::{Duration, Instant};

    use safereg_common::buf::Bytes;
    use safereg_common::config::TransportConfig;
    use safereg_common::ids::ServerId;
    use safereg_crypto::keychain::{KeyChain, KeyRing};
    use safereg_obs::names;
    use safereg_transport::frame::{frame_len, SealedKv, MAX_BATCH_FRAMES};
    use safereg_transport::poll::{Interest, PollEvent, Poller, Waker};

    use crate::server::KvServer;
    use crate::tcp::{count_eviction, process_sealed_frame};

    /// How often an otherwise-idle reactor scans its connections for idle
    /// and stall deadline breaches. Short enough to honour the sub-second
    /// budgets the eviction tests configure; long enough to be noise at
    /// the default budgets.
    const TICK: Duration = Duration::from_millis(25);

    /// Per-reactor socket read scratch. Reads accumulate into the
    /// connection's buffer, so the scratch is shared by every connection
    /// of the reactor.
    const SCRATCH: usize = 64 * 1024;

    struct Slot {
        inbox: Mutex<VecDeque<TcpStream>>,
        waker: Waker,
    }

    struct PoolShared {
        slots: Vec<Slot>,
        next: AtomicUsize,
    }

    /// The accept loop's cheap handle into the pool: round-robins accepted
    /// connections onto reactor inboxes and wakes the chosen reactor.
    pub(crate) struct ReactorHandle {
        shared: Arc<PoolShared>,
    }

    impl ReactorHandle {
        pub(crate) fn dispatch(&self, stream: TcpStream) {
            let i = self.shared.next.fetch_add(1, Ordering::Relaxed) % self.shared.slots.len();
            let slot = &self.shared.slots[i];
            slot.inbox
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .push_back(stream);
            safereg_obs::global().counter(names::REACTOR_HANDOFFS).inc();
            slot.waker.wake();
        }
    }

    /// A pool of readiness event loops serving every connection of one
    /// [`KvServerHost`](crate::tcp::KvServerHost).
    pub(crate) struct ReactorPool {
        shared: Arc<PoolShared>,
        threads: Vec<std::thread::JoinHandle<()>>,
    }

    impl ReactorPool {
        /// Creates `reactors` event loops on the platform's readiness
        /// backend. Poller creation errors surface here, before any thread
        /// is spawned.
        pub(crate) fn spawn(
            reactors: usize,
            server: Arc<KvServer>,
            chain: KeyChain,
            me: ServerId,
            tconfig: TransportConfig,
            stop: Arc<AtomicBool>,
        ) -> std::io::Result<ReactorPool> {
            let n = reactors.max(1);
            let mut pollers = Vec::with_capacity(n);
            let mut slots = Vec::with_capacity(n);
            for _ in 0..n {
                let poller = Poller::new()?;
                slots.push(Slot {
                    inbox: Mutex::new(VecDeque::new()),
                    waker: poller.waker(),
                });
                pollers.push(poller);
            }
            let shared = Arc::new(PoolShared {
                slots,
                next: AtomicUsize::new(0),
            });
            let mut threads = Vec::with_capacity(n);
            for (i, poller) in pollers.into_iter().enumerate() {
                let shared = Arc::clone(&shared);
                let server = Arc::clone(&server);
                let mut ring = KeyRing::new(&chain);
                let stop = Arc::clone(&stop);
                let handle = std::thread::Builder::new()
                    .name(format!("safereg-kv-reactor-{i}"))
                    .spawn(move || {
                        let reg = safereg_obs::global();
                        reg.gauge(names::REACTOR_THREADS).add(1);
                        run_reactor(
                            poller,
                            &shared.slots[i],
                            &server,
                            &mut ring,
                            me,
                            tconfig,
                            &stop,
                        );
                        reg.gauge(names::REACTOR_THREADS).sub(1);
                    })?;
                threads.push(handle);
            }
            Ok(ReactorPool { shared, threads })
        }

        pub(crate) fn handle(&self) -> ReactorHandle {
            ReactorHandle {
                shared: Arc::clone(&self.shared),
            }
        }

        /// Number of event loops in the pool.
        #[cfg(test)]
        pub(crate) fn len(&self) -> usize {
            self.shared.slots.len()
        }

        /// Wakes every reactor and joins it. The host's stop flag must
        /// already be set — the wake is what makes a parked `wait` observe
        /// it.
        pub(crate) fn shutdown(&mut self) {
            for slot in &self.shared.slots {
                slot.waker.wake();
            }
            for h in self.threads.drain(..) {
                let _ = h.join();
            }
        }
    }

    /// One connection's state inside a reactor.
    struct Conn {
        stream: TcpStream,
        /// Unparsed inbound bytes (partial frames survive here across
        /// readiness events; under backpressure, whole frames do).
        rbuf: Vec<u8>,
        /// Sealed replies awaiting the socket, bounded by `chan_capacity`.
        outbox: VecDeque<SealedKv>,
        /// Bytes of the front outbox frame already written — a vectored
        /// write that lands mid-frame must resume exactly there, never
        /// re-send the prefix.
        front_off: usize,
        last_inbound: Instant,
        /// Set when a write hit `WouldBlock`; cleared on any write
        /// progress. The stall budget runs against it.
        stalled_since: Option<Instant>,
        interest: Interest,
    }

    impl Conn {
        /// Backpressure gate: a full outbox suspends frame parsing and
        /// read interest until the socket drains it.
        fn gated(&self, tconfig: &TransportConfig) -> bool {
            self.outbox.len() >= tconfig.chan_capacity.max(1)
        }
    }

    /// Drains the socket into the connection's read buffer. Returns `true`
    /// when the connection must close (EOF or a hard error).
    fn drain_socket(conn: &mut Conn, scratch: &mut [u8]) -> bool {
        loop {
            match conn.stream.read(scratch) {
                Ok(0) => return true,
                Ok(n) => {
                    conn.rbuf.extend_from_slice(&scratch[..n]);
                    conn.last_inbound = Instant::now();
                    if n < scratch.len() {
                        // Level-triggered readiness re-reports anything the
                        // kernel still holds; a short read almost always
                        // means the buffer is dry, so skip the extra
                        // syscall.
                        return false;
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return false,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => return true,
            }
        }
    }

    /// Parses and serves every complete frame buffered on the connection,
    /// stopping early when backpressure gates the outbox. Returns
    /// `(close, frames_served)`.
    fn process_buffered(
        conn: &mut Conn,
        server: &KvServer,
        ring: &mut KeyRing,
        me: ServerId,
        tconfig: &TransportConfig,
        stop: &AtomicBool,
    ) -> (bool, usize) {
        let mut off = 0;
        let mut served = 0;
        let mut close = false;
        loop {
            if conn.gated(tconfig) {
                // Backpressure: leave the rest buffered, the interest
                // recomputation below parks the read side until the outbox
                // drains.
                break;
            }
            let avail = conn.rbuf.len() - off;
            if avail < 4 {
                break;
            }
            let prefix = conn.rbuf[off..off + 4].try_into().expect("4 bytes");
            let Ok(len) = frame_len(prefix) else {
                close = true; // oversized frame: hard close, like read_frame
                break;
            };
            if avail - 4 < len {
                break;
            }
            let sealed = Bytes::copy_from_slice(&conn.rbuf[off + 4..off + 4 + len]);
            off += 4 + len;
            // A crashed host must never answer a request sent after the
            // crash: recheck between reading and responding.
            if stop.load(Ordering::SeqCst) {
                close = true;
                break;
            }
            served += 1;
            // The reply is queued even past the gate: frame *parsing* is
            // what the gate suspends, so the overshoot is bounded by one
            // frame's replies.
            let outbox = &mut conn.outbox;
            let mut queue = |reply: SealedKv| outbox.push_back(reply);
            process_sealed_frame(server, ring, me, &sealed, &mut queue);
        }
        conn.rbuf.drain(..off);
        (close, served)
    }

    /// Drains the outbox with vectored writes: up to [`MAX_BATCH_FRAMES`]
    /// frames per syscall, four iovecs each, resuming mid-frame at
    /// `front_off` after a partial write. Returns `true` when the
    /// connection must close.
    fn flush_outbox(conn: &mut Conn) -> bool {
        while !conn.outbox.is_empty() {
            let batch = conn.outbox.len().min(MAX_BATCH_FRAMES);
            let mut slices: Vec<IoSlice<'_>> = Vec::with_capacity(batch * 4);
            for (i, frame) in conn.outbox.iter().take(batch).enumerate() {
                let mut skip = if i == 0 { conn.front_off } else { 0 };
                for part in frame.parts() {
                    if skip >= part.len() {
                        skip -= part.len();
                        continue;
                    }
                    slices.push(IoSlice::new(&part[skip..]));
                    skip = 0;
                }
            }
            match (&conn.stream).write_vectored(&slices) {
                Ok(0) => return true,
                Ok(mut n) => {
                    safereg_obs::global()
                        .histogram(names::TRANSPORT_BATCH_FRAMES)
                        .record(batch as u64);
                    conn.stalled_since = None;
                    while n > 0 {
                        let total = conn.outbox.front().expect("bytes imply a frame").wire_len();
                        let left = total - conn.front_off;
                        if n >= left {
                            n -= left;
                            conn.outbox.pop_front();
                            conn.front_off = 0;
                        } else {
                            conn.front_off += n;
                            n = 0;
                        }
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    if conn.stalled_since.is_none() {
                        conn.stalled_since = Some(Instant::now());
                    }
                    return false;
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => return true,
            }
        }
        conn.stalled_since = None;
        false
    }

    /// Serves one connection after its socket has been drained:
    /// alternate parse/flush until no further progress. Returns `true`
    /// when the connection must close.
    fn pump(
        conn: &mut Conn,
        server: &KvServer,
        ring: &mut KeyRing,
        me: ServerId,
        tconfig: &TransportConfig,
        stop: &AtomicBool,
    ) -> bool {
        loop {
            let (close, served) = process_buffered(conn, server, ring, me, tconfig, stop);
            if close {
                return true;
            }
            if flush_outbox(conn) {
                return true;
            }
            if served == 0 {
                return false;
            }
            // Replies just left the outbox; under backpressure more
            // buffered frames may now fit — loop until the buffer or the
            // budget is exhausted.
        }
    }

    fn desired_interest(conn: &Conn, tconfig: &TransportConfig) -> Interest {
        Interest {
            readable: !conn.gated(tconfig),
            writable: !conn.outbox.is_empty(),
        }
    }

    #[allow(clippy::too_many_lines)]
    fn run_reactor(
        mut poller: Poller,
        slot: &Slot,
        server: &KvServer,
        ring: &mut KeyRing,
        me: ServerId,
        tconfig: TransportConfig,
        stop: &AtomicBool,
    ) {
        let reg = safereg_obs::global();
        let mut conns: HashMap<u64, Conn> = HashMap::new();
        let mut next_token: u64 = 0;
        let mut events: Vec<PollEvent> = Vec::new();
        let mut scratch = vec![0u8; SCRATCH];
        loop {
            if stop.load(Ordering::SeqCst) {
                break;
            }
            let woken = match poller.wait(&mut events, Some(TICK)) {
                Ok(w) => w,
                Err(_) => break,
            };
            if woken {
                reg.counter(names::REACTOR_WAKEUPS).inc();
            }
            if stop.load(Ordering::SeqCst) {
                break;
            }
            // Adopt handed-off connections before touching events, so a
            // connection accepted and immediately written to is served on
            // this iteration's readiness pass or the next — never lost.
            loop {
                let stream = slot
                    .inbox
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .pop_front();
                let Some(stream) = stream else { break };
                if stream.set_nonblocking(true).is_err() {
                    continue;
                }
                let token = next_token;
                next_token += 1;
                let fd = stream.as_raw_fd();
                if poller.register(fd, token, Interest::READ).is_err() {
                    continue; // dropping the stream closes it
                }
                conns.insert(
                    token,
                    Conn {
                        stream,
                        rbuf: Vec::new(),
                        outbox: VecDeque::new(),
                        front_off: 0,
                        last_inbound: Instant::now(),
                        stalled_since: None,
                        interest: Interest::READ,
                    },
                );
                reg.gauge(names::REACTOR_CONNS).add(1);
            }
            if !events.is_empty() {
                reg.counter(names::REACTOR_EVENTS).add(events.len() as u64);
            }
            for ev in &events {
                let Some(conn) = conns.get_mut(&ev.token) else {
                    continue;
                };
                let mut close = false;
                if ev.readable || ev.writable {
                    close = (ev.readable && drain_socket(conn, &mut scratch))
                        || pump(conn, server, ring, me, &tconfig, stop);
                }
                // A pure hangup (error/RST with nothing readable) has no
                // bytes to serve; a readable hangup was already drained to
                // EOF by the pump above.
                if ev.hangup && !ev.readable {
                    close = true;
                }
                if close {
                    let conn = conns.remove(&ev.token).expect("present above");
                    let _ = poller.deregister(conn.stream.as_raw_fd());
                    reg.gauge(names::REACTOR_CONNS).sub(1);
                } else {
                    let want = desired_interest(conn, &tconfig);
                    if want != conn.interest {
                        let fd = conn.stream.as_raw_fd();
                        let _ = poller.reregister(fd, ev.token, want);
                        conn.interest = want;
                    }
                }
            }
            // Deadline sweep: both budgets are enforced from the tick, so
            // a connection with no readiness events still ages out.
            let mut evict: Vec<(u64, &'static str)> = Vec::new();
            for (token, conn) in &conns {
                if conn
                    .stalled_since
                    .is_some_and(|s| s.elapsed() >= tconfig.stall_timeout)
                {
                    evict.push((*token, "stall"));
                } else if conn.last_inbound.elapsed() >= tconfig.idle_timeout {
                    evict.push((*token, "idle"));
                }
            }
            for (token, reason) in evict {
                if let Some(conn) = conns.remove(&token) {
                    let _ = poller.deregister(conn.stream.as_raw_fd());
                    reg.gauge(names::REACTOR_CONNS).sub(1);
                    count_eviction(reason);
                }
            }
        }
        // Shutdown: tear every connection down and zero the gauge's share.
        for (_, conn) in conns.drain() {
            let _ = poller.deregister(conn.stream.as_raw_fd());
            reg.gauge(names::REACTOR_CONNS).sub(1);
        }
    }
}

/// Non-unix stub: [`spawn`](ReactorPool::spawn) always fails with
/// [`Unsupported`](std::io::ErrorKind::Unsupported), which the host
/// builder surfaces — there is no other serving path to fall back to.
#[cfg(not(unix))]
pub(crate) struct ReactorPool;

#[cfg(not(unix))]
pub(crate) struct ReactorHandle;

#[cfg(not(unix))]
impl ReactorPool {
    pub(crate) fn spawn(
        _reactors: usize,
        _server: std::sync::Arc<crate::server::KvServer>,
        _chain: safereg_crypto::keychain::KeyChain,
        _me: safereg_common::ids::ServerId,
        _tconfig: safereg_common::config::TransportConfig,
        _stop: std::sync::Arc<std::sync::atomic::AtomicBool>,
    ) -> std::io::Result<ReactorPool> {
        Err(std::io::Error::new(
            std::io::ErrorKind::Unsupported,
            "reactor runtime requires unix readiness APIs",
        ))
    }

    pub(crate) fn handle(&self) -> ReactorHandle {
        ReactorHandle
    }

    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        0
    }

    pub(crate) fn shutdown(&mut self) {}
}

#[cfg(not(unix))]
impl ReactorHandle {
    pub(crate) fn dispatch(&self, _stream: std::net::TcpStream) {}
}
