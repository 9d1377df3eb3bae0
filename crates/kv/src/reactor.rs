//! Readiness-driven serving runtime for the KV host — the one serving
//! path.
//!
//! Every accepted connection is multiplexed onto a small pool of
//! *reactors* — one event loop per hosted shard by default — built on the
//! zero-dependency readiness layer in [`safereg_transport::poll`] (raw
//! `epoll` on Linux, portable `poll` elsewhere), so serving `C`
//! connections costs `O(reactors)` threads, not `O(C)`.
//!
//! Per connection the reactor keeps a read-accumulation buffer feeding the
//! borrowing frame decode, and a bounded outbox of sealed replies drained
//! with vectored writes (four iovecs per frame: length prefix, head,
//! zero-copy tail, MAC) directly from the event loop. Backpressure maps
//! the [`ShedPolicy`] onto readiness: `Block` parks the connection's read
//! interest while the outbox is full (frames already buffered stay
//! buffered, nothing is lost), the drop policies shed from the outbox and
//! count `chan.shed`. A client that stops draining its socket trips the
//! stall budget and is evicted; one that goes quiet trips the idle budget
//! — both enforced by a periodic tick.
//!
//! When [`TransportConfig::adaptive_outbox`] is set, each connection's
//! outbox capacity breathes with its shed rate through
//! [`AdaptiveCap`]: sustained shedding doubles the cap (up to
//! `chan_capacity_max`), quiet windows shrink it back.

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
    use safereg_common::sync::channel::{AdaptiveCap, CapChange, ShedPolicy};
    use safereg_crypto::keychain::KeyChain;
    use safereg_obs::names;
    use safereg_transport::frame::{frame_len, SealedKv};
    use safereg_transport::poll::{Interest, PollBackend, PollEvent, Poller, Waker};

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
        /// Creates `reactors` event loops on `backend`. Backend creation
        /// errors (e.g. forcing `epoll` off-Linux) surface here, before
        /// any thread is spawned.
        pub(crate) fn spawn(
            reactors: usize,
            backend: PollBackend,
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
                let poller = Poller::with_backend(backend)?;
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
                let chain = chain.clone();
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
                            &chain,
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
        /// readiness events; under `Block` backpressure, whole frames do).
        rbuf: Vec<u8>,
        /// Sealed replies awaiting the socket, bounded by the (possibly
        /// adaptive) outbox capacity.
        outbox: VecDeque<SealedKv>,
        /// Bytes of the front outbox frame already written — a vectored
        /// write that lands mid-frame must resume exactly there, never
        /// re-send the prefix.
        front_off: usize,
        /// Adaptive capacity controller; `None` runs the fixed
        /// `chan_capacity`.
        adaptive: Option<AdaptiveCap>,
        last_inbound: Instant,
        /// Set when a write hit `WouldBlock`; cleared on any write
        /// progress. The stall budget runs against it.
        stalled_since: Option<Instant>,
        interest: Interest,
    }

    impl Conn {
        fn capacity(&self, tconfig: &TransportConfig) -> usize {
            self.adaptive
                .as_ref()
                .map_or(tconfig.chan_capacity.max(1), AdaptiveCap::capacity)
        }
    }

    /// Queues one sealed reply on the connection's outbox under the shed
    /// policy, counting sheds and adaptive resizes. Never fails: under
    /// `Block` the reply is queued regardless (frame *parsing* is what the
    /// gate suspends, so the overshoot is bounded by one frame's replies),
    /// and the drop policies shed instead of failing.
    fn queue_outbox(
        outbox: &mut VecDeque<SealedKv>,
        front_off: usize,
        adaptive: &mut Option<AdaptiveCap>,
        tconfig: &TransportConfig,
        reply: SealedKv,
    ) {
        let capacity = adaptive
            .as_ref()
            .map_or(tconfig.chan_capacity.max(1), AdaptiveCap::capacity);
        let full = outbox.len() >= capacity;
        let shed = match tconfig.shed_policy {
            ShedPolicy::Block => {
                outbox.push_back(reply);
                false
            }
            ShedPolicy::DropNewest => {
                if full {
                    true // the new reply is dropped
                } else {
                    outbox.push_back(reply);
                    false
                }
            }
            ShedPolicy::DropOldest => {
                if full {
                    // Never drop the partially-written front frame: its
                    // length prefix is already on the wire and dropping it
                    // would desynchronise the stream. Shed the oldest
                    // *unsent* frame instead (or the new reply when the
                    // front is all there is).
                    if front_off == 0 {
                        outbox.pop_front();
                        outbox.push_back(reply);
                    } else if outbox.len() >= 2 {
                        outbox.remove(1);
                        outbox.push_back(reply);
                    }
                    true
                } else {
                    outbox.push_back(reply);
                    false
                }
            }
        };
        let reg = safereg_obs::global();
        if shed {
            reg.counter(names::CHAN_SHED).inc();
            reg.counter(&names::shed_counter(tconfig.shed_policy.label()))
                .inc();
        }
        if let Some(cap) = adaptive {
            match cap.record(shed, Instant::now()) {
                Some(CapChange::Grew(_)) => {
                    reg.counter(names::CHAN_ADAPTIVE_GROW).inc();
                }
                Some(CapChange::Shrank(_)) => {
                    reg.counter(names::CHAN_ADAPTIVE_SHRINK).inc();
                }
                None => {}
            }
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
    /// stopping early when `Block` backpressure gates the outbox. Returns
    /// `(close, frames_served)`.
    fn process_buffered(
        conn: &mut Conn,
        server: &KvServer,
        chain: &KeyChain,
        me: ServerId,
        tconfig: &TransportConfig,
        stop: &AtomicBool,
    ) -> (bool, usize) {
        let mut off = 0;
        let mut served = 0;
        let mut close = false;
        loop {
            if tconfig.shed_policy == ShedPolicy::Block
                && conn.outbox.len() >= conn.capacity(tconfig)
            {
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
            let Conn {
                outbox,
                front_off,
                adaptive,
                ..
            } = conn;
            let mut queue =
                |reply: SealedKv| queue_outbox(outbox, *front_off, adaptive, tconfig, reply);
            process_sealed_frame(server, chain, me, &sealed, &mut queue);
        }
        conn.rbuf.drain(..off);
        (close, served)
    }

    /// Drains the outbox with vectored writes: up to `max_batch_frames`
    /// frames per syscall, four iovecs each, resuming mid-frame at
    /// `front_off` after a partial write. Returns `true` when the
    /// connection must close.
    fn flush_outbox(conn: &mut Conn, tconfig: &TransportConfig) -> bool {
        let max_batch = tconfig.max_batch_frames.max(1);
        while !conn.outbox.is_empty() {
            let batch = conn.outbox.len().min(max_batch);
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
        chain: &KeyChain,
        me: ServerId,
        tconfig: &TransportConfig,
        stop: &AtomicBool,
    ) -> bool {
        loop {
            let (close, served) = process_buffered(conn, server, chain, me, tconfig, stop);
            if close {
                return true;
            }
            if flush_outbox(conn, tconfig) {
                return true;
            }
            if served == 0 {
                return false;
            }
            // Replies just left the outbox; under Block backpressure more
            // buffered frames may now fit — loop until the buffer or the
            // budget is exhausted.
        }
    }

    fn desired_interest(conn: &Conn, tconfig: &TransportConfig) -> Interest {
        let gated =
            tconfig.shed_policy == ShedPolicy::Block && conn.outbox.len() >= conn.capacity(tconfig);
        Interest {
            readable: !gated,
            writable: !conn.outbox.is_empty(),
        }
    }

    #[allow(clippy::too_many_lines)]
    fn run_reactor(
        mut poller: Poller,
        slot: &Slot,
        server: &KvServer,
        chain: &KeyChain,
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
                let adaptive = tconfig.adaptive_outbox.then(|| {
                    AdaptiveCap::new(
                        tconfig.chan_capacity,
                        tconfig.chan_capacity_max,
                        AdaptiveCap::DEFAULT_WINDOW,
                    )
                });
                conns.insert(
                    token,
                    Conn {
                        stream,
                        rbuf: Vec::new(),
                        outbox: VecDeque::new(),
                        front_off: 0,
                        adaptive,
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
                        || pump(conn, server, chain, me, &tconfig, stop);
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
        _backend: safereg_transport::poll::PollBackend,
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

    pub(crate) fn shutdown(&mut self) {}
}

#[cfg(not(unix))]
impl ReactorHandle {
    pub(crate) fn dispatch(&self, _stream: std::net::TcpStream) {}
}
