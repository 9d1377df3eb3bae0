//! Zero-dependency readiness polling: raw `epoll` on Linux with a
//! portable `poll(2)` fallback.
//!
//! The workspace is hermetic — no `libc`, `mio`, or `tokio` — so this
//! module declares the handful of C prototypes it needs directly against
//! the libc `std` already links and builds a minimal level-triggered
//! [`Poller`] on top:
//!
//! * **epoll backend** (Linux): one `epoll_create1` instance per poller,
//!   `epoll_ctl` add/mod/del, `epoll_wait` with millisecond timeouts.
//!   O(ready) dispatch — the shape a reactor serving tens of thousands
//!   of mostly-idle connections needs.
//! * **poll backend** (any Unix, and force-selectable on Linux so tests
//!   exercise it): a registration table replayed into a `pollfd` array
//!   per wait. O(registered) per wake, fine for small sets and as the
//!   portability escape hatch.
//!
//! Cross-thread wakeups use an `eventfd` (Linux) or a self-pipe (other
//! Unix) registered under the reserved [`WAKE_TOKEN`]; [`Waker::wake`]
//! makes a blocked [`Poller::wait`] return immediately. Wake tokens are
//! consumed internally — callers only ever see their own tokens.
//!
//! Everything is level-triggered: a socket with unread bytes (or writable
//! space) reports ready on every wait until the condition clears. The
//! reactor layer above relies on that to resume partial reads and
//! partially-flushed outboxes without bookkeeping re-arms.

use std::io;
use std::time::Duration;

#[cfg(unix)]
use std::collections::HashMap;
#[cfg(unix)]
use std::os::fd::RawFd;
#[cfg(unix)]
use std::sync::Arc;

#[cfg(unix)]
use safereg_common::sync::Mutex;

/// Token value reserved for the internal wakeup fd; never reported to
/// callers and rejected by [`Poller::register`].
pub const WAKE_TOKEN: u64 = u64::MAX;

/// Which readiness conditions a registration subscribes to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    /// Wake when the fd has bytes to read (or the peer hung up).
    pub readable: bool,
    /// Wake when the fd has buffer space to write.
    pub writable: bool,
}

impl Interest {
    /// Read readiness only.
    pub const READ: Interest = Interest {
        readable: true,
        writable: false,
    };
    /// Write readiness only.
    pub const WRITE: Interest = Interest {
        readable: false,
        writable: true,
    };
    /// Both directions.
    pub const BOTH: Interest = Interest {
        readable: true,
        writable: true,
    };
    /// Registered but dormant (kept in the table, woken by nothing except
    /// errors/hangup) — how the reactor parks a connection it is
    /// backpressuring.
    pub const NONE: Interest = Interest {
        readable: false,
        writable: false,
    };
}

/// One readiness report from [`Poller::wait`].
#[derive(Debug, Clone, Copy)]
pub struct PollEvent {
    /// The token the fd was registered under.
    pub token: u64,
    /// Bytes (or EOF) are available to read.
    pub readable: bool,
    /// Buffer space is available to write.
    pub writable: bool,
    /// The peer closed or the fd errored; the connection is done.
    pub hangup: bool,
}

/// Poller implementation selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PollBackend {
    /// Raw `epoll` (Linux only).
    Epoll,
    /// Portable `poll(2)`.
    Poll,
}

impl Default for PollBackend {
    fn default() -> Self {
        if cfg!(target_os = "linux") {
            PollBackend::Epoll
        } else {
            PollBackend::Poll
        }
    }
}

impl PollBackend {
    /// Stable lowercase label for logs and bench records.
    pub fn label(&self) -> &'static str {
        match self {
            PollBackend::Epoll => "epoll",
            PollBackend::Poll => "poll",
        }
    }
}

#[cfg(unix)]
mod sys {
    //! The C prototypes and ABI constants this module needs, declared
    //! against the libc `std` already links into every binary.

    #[cfg(target_os = "linux")]
    #[cfg_attr(target_arch = "x86_64", repr(C, packed))]
    #[cfg_attr(not(target_arch = "x86_64"), repr(C))]
    #[derive(Clone, Copy)]
    pub struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    #[repr(C)]
    #[derive(Clone, Copy)]
    pub struct PollFd {
        pub fd: i32,
        pub events: i16,
        pub revents: i16,
    }

    pub const POLLIN: i16 = 0x001;
    pub const POLLOUT: i16 = 0x004;
    pub const POLLERR: i16 = 0x008;
    pub const POLLHUP: i16 = 0x010;

    #[cfg(target_os = "linux")]
    pub const EPOLL_CLOEXEC: i32 = 0o2000000;
    #[cfg(target_os = "linux")]
    pub const EPOLL_CTL_ADD: i32 = 1;
    #[cfg(target_os = "linux")]
    pub const EPOLL_CTL_DEL: i32 = 2;
    #[cfg(target_os = "linux")]
    pub const EPOLL_CTL_MOD: i32 = 3;
    #[cfg(target_os = "linux")]
    pub const EPOLLIN: u32 = 0x001;
    #[cfg(target_os = "linux")]
    pub const EPOLLOUT: u32 = 0x004;
    #[cfg(target_os = "linux")]
    pub const EPOLLERR: u32 = 0x008;
    #[cfg(target_os = "linux")]
    pub const EPOLLHUP: u32 = 0x010;
    #[cfg(target_os = "linux")]
    pub const EPOLLRDHUP: u32 = 0x2000;
    #[cfg(target_os = "linux")]
    pub const EFD_CLOEXEC: i32 = 0o2000000;
    #[cfg(target_os = "linux")]
    pub const EFD_NONBLOCK: i32 = 0o4000;

    extern "C" {
        #[cfg(target_os = "linux")]
        pub fn epoll_create1(flags: i32) -> i32;
        #[cfg(target_os = "linux")]
        pub fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
        #[cfg(target_os = "linux")]
        pub fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
        #[cfg(target_os = "linux")]
        pub fn eventfd(initval: u32, flags: i32) -> i32;
        #[cfg(not(target_os = "linux"))]
        pub fn pipe(fds: *mut i32) -> i32;
        pub fn poll(fds: *mut PollFd, nfds: usize, timeout: i32) -> i32;
        pub fn close(fd: i32) -> i32;
        pub fn read(fd: i32, buf: *mut u8, count: usize) -> isize;
        pub fn write(fd: i32, buf: *const u8, count: usize) -> isize;
    }
}

/// Cross-thread wakeup handle for a [`Poller`]; cheap to clone, safe to
/// call from any thread, coalesces concurrent wakes.
#[cfg(unix)]
#[derive(Clone)]
pub struct Waker(Arc<WakeFd>);

#[cfg(unix)]
impl Waker {
    /// Makes the poller's current (or next) [`Poller::wait`] return with
    /// `woken = true`.
    pub fn wake(&self) {
        self.0.wake();
    }
}

#[cfg(unix)]
struct WakeFd {
    /// The fd the poller watches.
    read_fd: RawFd,
    /// The fd `wake` writes to (same as `read_fd` for eventfd).
    write_fd: RawFd,
    /// Whether the pair is an eventfd (8-byte counter) or a pipe.
    eventfd: bool,
}

#[cfg(unix)]
impl WakeFd {
    #[cfg(target_os = "linux")]
    fn new() -> io::Result<WakeFd> {
        // SAFETY: `eventfd` takes two integers and touches no memory of
        // ours; a negative return is handled below.
        let fd = unsafe { sys::eventfd(0, sys::EFD_CLOEXEC | sys::EFD_NONBLOCK) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(WakeFd {
            read_fd: fd,
            write_fd: fd,
            eventfd: true,
        })
    }

    #[cfg(not(target_os = "linux"))]
    fn new() -> io::Result<WakeFd> {
        let mut fds = [0i32; 2];
        // SAFETY: `fds` is two writable `i32`s, exactly what `pipe` fills.
        if unsafe { sys::pipe(fds.as_mut_ptr()) } < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(WakeFd {
            read_fd: fds[0],
            write_fd: fds[1],
            eventfd: false,
        })
    }

    fn wake(&self) {
        let one: u64 = 1;
        let (buf, len): (*const u8, usize) = if self.eventfd {
            (&one as *const u64 as *const u8, 8)
        } else {
            (b"w".as_ptr(), 1)
        };
        // EAGAIN (counter saturated / pipe full) still leaves the fd
        // readable, which is all a wake needs; other errors have no
        // recovery path worth taking here.
        // SAFETY: `buf` points at `len` readable bytes that outlive the
        // call: the 8-byte `one` for an eventfd, the 1-byte literal for a
        // pipe. `write_fd` is open until `Drop`, which needs `&mut self`.
        let _ = unsafe { sys::write(self.write_fd, buf, len) };
    }

    fn drain(&self) {
        let mut buf = [0u8; 64];
        // SAFETY: `buf` is `buf.len()` writable bytes, and `read_fd` is open
        // until `Drop`, which needs `&mut self`.
        let _ = unsafe { sys::read(self.read_fd, buf.as_mut_ptr(), buf.len()) };
    }
}

#[cfg(unix)]
impl Drop for WakeFd {
    fn drop(&mut self) {
        // SAFETY: this `WakeFd` owns both fds, nothing else closes them,
        // and `drop` runs once; an eventfd's single fd is closed once.
        unsafe {
            sys::close(self.read_fd);
            if self.write_fd != self.read_fd {
                sys::close(self.write_fd);
            }
        }
    }
}

#[cfg(unix)]
enum Backend {
    #[cfg(target_os = "linux")]
    Epoll {
        epfd: RawFd,
        /// Scratch buffer reused across waits.
        buf: Vec<sys::EpollEvent>,
    },
    Poll {
        /// fd → (token, interest); replayed into a `pollfd` array per wait.
        table: Mutex<HashMap<RawFd, (u64, Interest)>>,
        /// Scratch `pollfd` array reused across waits.
        buf: Vec<sys::PollFd>,
    },
}

/// A level-triggered readiness poller over raw fds.
///
/// One poller per reactor thread; [`Poller::wait`] is `&mut self` (only
/// the owning thread waits), while registration is `&self` and the
/// [`Waker`] may be used from any thread.
///
/// # Examples
///
/// ```no_run
/// use safereg_transport::poll::{Interest, PollBackend, Poller};
/// use std::net::TcpStream;
/// use std::os::fd::AsRawFd;
/// use std::time::Duration;
///
/// let mut poller = Poller::new()?;
/// let stream = TcpStream::connect("127.0.0.1:9000")?;
/// stream.set_nonblocking(true)?;
/// poller.register(stream.as_raw_fd(), 7, Interest::READ)?;
/// let mut events = Vec::new();
/// poller.wait(&mut events, Some(Duration::from_millis(100)))?;
/// for ev in &events {
///     assert_eq!(ev.token, 7);
/// }
/// # Ok::<(), std::io::Error>(())
/// ```
#[cfg(unix)]
pub struct Poller {
    backend: Backend,
    kind: PollBackend,
    wake: Arc<WakeFd>,
}

#[cfg(unix)]
impl Poller {
    /// Creates a poller on the platform default backend (epoll on Linux,
    /// poll elsewhere).
    pub fn new() -> io::Result<Poller> {
        Poller::with_backend(PollBackend::default())
    }

    /// Creates a poller on an explicit backend.
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::Unsupported`] for [`PollBackend::Epoll`] off
    /// Linux; otherwise any fd-creation failure.
    pub fn with_backend(kind: PollBackend) -> io::Result<Poller> {
        let wake = Arc::new(WakeFd::new()?);
        let backend = match kind {
            #[cfg(target_os = "linux")]
            PollBackend::Epoll => {
                // SAFETY: `epoll_create1` takes one integer and touches no
                // memory of ours; a negative return is handled below.
                let epfd = unsafe { sys::epoll_create1(sys::EPOLL_CLOEXEC) };
                if epfd < 0 {
                    return Err(io::Error::last_os_error());
                }
                Backend::Epoll {
                    epfd,
                    buf: vec![sys::EpollEvent { events: 0, data: 0 }; 256],
                }
            }
            #[cfg(not(target_os = "linux"))]
            PollBackend::Epoll => {
                return Err(io::Error::new(
                    io::ErrorKind::Unsupported,
                    "epoll is Linux-only; use PollBackend::Poll",
                ));
            }
            PollBackend::Poll => Backend::Poll {
                table: Mutex::new(HashMap::new()),
                buf: Vec::new(),
            },
        };
        let poller = Poller {
            backend,
            kind,
            wake,
        };
        poller.register_fd(poller.wake.read_fd, WAKE_TOKEN, Interest::READ)?;
        Ok(poller)
    }

    /// The backend this poller runs on.
    pub fn backend(&self) -> PollBackend {
        self.kind
    }

    /// A cloneable cross-thread wakeup handle.
    pub fn waker(&self) -> Waker {
        Waker(Arc::clone(&self.wake))
    }

    /// Starts watching `fd` under `token`.
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::InvalidInput`] for the reserved [`WAKE_TOKEN`];
    /// otherwise whatever the kernel reports.
    pub fn register(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        if token == WAKE_TOKEN {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "token u64::MAX is reserved for the poller's waker",
            ));
        }
        self.register_fd(fd, token, interest)
    }

    fn register_fd(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        match &self.backend {
            #[cfg(target_os = "linux")]
            Backend::Epoll { epfd, .. } => {
                let mut ev = sys::EpollEvent {
                    events: epoll_bits(interest),
                    data: token,
                };
                // SAFETY: `ev` is a live `EpollEvent` the kernel only reads
                // for the duration of the call; a bad fd is an error return.
                check(unsafe { sys::epoll_ctl(*epfd, sys::EPOLL_CTL_ADD, fd, &mut ev) })
            }
            Backend::Poll { table, .. } => {
                table.lock().insert(fd, (token, interest));
                Ok(())
            }
        }
    }

    /// Changes the interest set (and token) of an already-registered fd.
    ///
    /// # Errors
    ///
    /// As [`Poller::register`].
    pub fn reregister(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        if token == WAKE_TOKEN {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "token u64::MAX is reserved for the poller's waker",
            ));
        }
        match &self.backend {
            #[cfg(target_os = "linux")]
            Backend::Epoll { epfd, .. } => {
                let mut ev = sys::EpollEvent {
                    events: epoll_bits(interest),
                    data: token,
                };
                // SAFETY: as in `register_fd`: `ev` is live for the call.
                check(unsafe { sys::epoll_ctl(*epfd, sys::EPOLL_CTL_MOD, fd, &mut ev) })
            }
            Backend::Poll { table, .. } => {
                table.lock().insert(fd, (token, interest));
                Ok(())
            }
        }
    }

    /// Stops watching `fd`. The caller still owns (and closes) the fd.
    ///
    /// # Errors
    ///
    /// Whatever the kernel reports (epoll backend only; the table backend
    /// cannot fail).
    pub fn deregister(&self, fd: RawFd) -> io::Result<()> {
        match &self.backend {
            #[cfg(target_os = "linux")]
            Backend::Epoll { epfd, .. } => {
                let mut ev = sys::EpollEvent { events: 0, data: 0 };
                // SAFETY: `ev` is live for the call; kernels before 2.6.9
                // require a non-null event even for `EPOLL_CTL_DEL`.
                check(unsafe { sys::epoll_ctl(*epfd, sys::EPOLL_CTL_DEL, fd, &mut ev) })
            }
            Backend::Poll { table, .. } => {
                table.lock().remove(&fd);
                Ok(())
            }
        }
    }

    /// Blocks until at least one registered fd is ready, the timeout
    /// elapses, or a [`Waker`] fires. Ready fds are appended to `events`
    /// (cleared first); returns whether a wake was consumed.
    ///
    /// # Errors
    ///
    /// Whatever the kernel reports. `EINTR` is swallowed (reported as an
    /// empty, un-woken return) so callers just loop.
    pub fn wait(
        &mut self,
        events: &mut Vec<PollEvent>,
        timeout: Option<Duration>,
    ) -> io::Result<bool> {
        events.clear();
        let timeout_ms = timeout_to_ms(timeout);
        let mut woken = false;
        match &mut self.backend {
            #[cfg(target_os = "linux")]
            Backend::Epoll { epfd, buf } => {
                // SAFETY: `buf` is `buf.len()` initialised `EpollEvent`s the
                // kernel may overwrite, and it returns at most that many.
                let n = unsafe {
                    sys::epoll_wait(*epfd, buf.as_mut_ptr(), buf.len() as i32, timeout_ms)
                };
                if n < 0 {
                    let err = io::Error::last_os_error();
                    if err.kind() == io::ErrorKind::Interrupted {
                        return Ok(false);
                    }
                    return Err(err);
                }
                for ev in &buf[..n as usize] {
                    // Copy out of the (possibly packed) struct before use.
                    let (bits, token) = (ev.events, ev.data);
                    if token == WAKE_TOKEN {
                        self.wake.drain();
                        woken = true;
                        continue;
                    }
                    events.push(PollEvent {
                        token,
                        readable: bits & sys::EPOLLIN != 0,
                        writable: bits & sys::EPOLLOUT != 0,
                        hangup: bits & (sys::EPOLLERR | sys::EPOLLHUP | sys::EPOLLRDHUP) != 0,
                    });
                }
            }
            Backend::Poll { table, buf } => {
                buf.clear();
                let tokens: Vec<u64> = {
                    let table = table.lock();
                    let mut tokens = Vec::with_capacity(table.len());
                    for (fd, (token, interest)) in table.iter() {
                        let mut bits = 0i16;
                        if interest.readable {
                            bits |= sys::POLLIN;
                        }
                        if interest.writable {
                            bits |= sys::POLLOUT;
                        }
                        buf.push(sys::PollFd {
                            fd: *fd,
                            events: bits,
                            revents: 0,
                        });
                        tokens.push(*token);
                    }
                    tokens
                };
                // SAFETY: `buf` is `buf.len()` initialised `PollFd`s; the
                // kernel writes only their `revents` fields.
                let n = unsafe { sys::poll(buf.as_mut_ptr(), buf.len(), timeout_ms) };
                if n < 0 {
                    let err = io::Error::last_os_error();
                    if err.kind() == io::ErrorKind::Interrupted {
                        return Ok(false);
                    }
                    return Err(err);
                }
                for (pfd, token) in buf.iter().zip(tokens) {
                    if pfd.revents == 0 {
                        continue;
                    }
                    if token == WAKE_TOKEN {
                        self.wake.drain();
                        woken = true;
                        continue;
                    }
                    events.push(PollEvent {
                        token,
                        readable: pfd.revents & sys::POLLIN != 0,
                        writable: pfd.revents & sys::POLLOUT != 0,
                        hangup: pfd.revents & (sys::POLLERR | sys::POLLHUP) != 0,
                    });
                }
            }
        }
        Ok(woken)
    }
}

#[cfg(unix)]
impl Drop for Poller {
    fn drop(&mut self) {
        #[cfg(target_os = "linux")]
        if let Backend::Epoll { epfd, .. } = &self.backend {
            // SAFETY: the poller owns `epfd`, nothing else closes it, and
            // `drop` runs once.
            unsafe {
                sys::close(*epfd);
            }
        }
    }
}

#[cfg(target_os = "linux")]
fn epoll_bits(interest: Interest) -> u32 {
    let mut bits = sys::EPOLLRDHUP;
    if interest.readable {
        bits |= sys::EPOLLIN;
    }
    if interest.writable {
        bits |= sys::EPOLLOUT;
    }
    bits
}

#[cfg(unix)]
fn check(ret: i32) -> io::Result<()> {
    if ret < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(())
    }
}

#[cfg(unix)]
fn timeout_to_ms(timeout: Option<Duration>) -> i32 {
    match timeout {
        None => -1,
        Some(d) if d.is_zero() => 0,
        // Round sub-millisecond timeouts up so short deadlines never
        // degenerate into a busy loop.
        Some(d) => d.as_millis().clamp(1, i32::MAX as u128) as i32,
    }
}

// Non-Unix stub so call sites stay cfg-free; every constructor fails.
#[cfg(not(unix))]
#[derive(Clone)]
pub struct Waker;

#[cfg(not(unix))]
impl Waker {
    pub fn wake(&self) {}
}

#[cfg(not(unix))]
pub struct Poller;

#[cfg(not(unix))]
impl Poller {
    pub fn new() -> io::Result<Poller> {
        Err(io::Error::new(
            io::ErrorKind::Unsupported,
            "readiness polling is implemented for Unix only",
        ))
    }

    pub fn with_backend(_kind: PollBackend) -> io::Result<Poller> {
        Poller::new()
    }
}

#[cfg(all(test, unix))]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};
    use std::os::fd::AsRawFd;
    use std::time::Instant;

    fn backends() -> Vec<PollBackend> {
        if cfg!(target_os = "linux") {
            vec![PollBackend::Epoll, PollBackend::Poll]
        } else {
            vec![PollBackend::Poll]
        }
    }

    fn pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let a = TcpStream::connect(addr).unwrap();
        let (b, _) = listener.accept().unwrap();
        (a, b)
    }

    #[test]
    fn readable_after_peer_writes_on_every_backend() {
        for backend in backends() {
            let mut poller = Poller::with_backend(backend).unwrap();
            let (a, mut b) = pair();
            a.set_nonblocking(true).unwrap();
            poller.register(a.as_raw_fd(), 42, Interest::READ).unwrap();

            let mut events = Vec::new();
            // Nothing pending: a short wait times out empty.
            poller
                .wait(&mut events, Some(Duration::from_millis(20)))
                .unwrap();
            assert!(events.is_empty(), "{backend:?}: spurious event");

            b.write_all(b"ping").unwrap();
            poller
                .wait(&mut events, Some(Duration::from_secs(5)))
                .unwrap();
            assert_eq!(events.len(), 1, "{backend:?}");
            assert_eq!(events[0].token, 42);
            assert!(events[0].readable);

            // Level-triggered: unread bytes keep reporting.
            poller
                .wait(&mut events, Some(Duration::from_secs(5)))
                .unwrap();
            assert_eq!(events.len(), 1, "{backend:?}: level-trigger lost");

            let mut chunk = [0u8; 16];
            let n = (&a).read(&mut chunk).unwrap();
            assert_eq!(&chunk[..n], b"ping");
        }
    }

    #[test]
    fn writable_and_interest_changes_on_every_backend() {
        for backend in backends() {
            let mut poller = Poller::with_backend(backend).unwrap();
            let (a, _b) = pair();
            a.set_nonblocking(true).unwrap();
            poller.register(a.as_raw_fd(), 7, Interest::WRITE).unwrap();

            let mut events = Vec::new();
            poller
                .wait(&mut events, Some(Duration::from_secs(5)))
                .unwrap();
            assert_eq!(events.len(), 1, "{backend:?}: fresh socket not writable");
            assert!(events[0].writable);

            // Dormant interest: nothing reports even though it's writable.
            poller.reregister(a.as_raw_fd(), 7, Interest::NONE).unwrap();
            poller
                .wait(&mut events, Some(Duration::from_millis(20)))
                .unwrap();
            assert!(
                events.iter().all(|e| !e.writable && !e.readable),
                "{backend:?}: dormant fd reported readiness"
            );

            poller.deregister(a.as_raw_fd()).unwrap();
            poller
                .wait(&mut events, Some(Duration::from_millis(20)))
                .unwrap();
            assert!(events.is_empty(), "{backend:?}: deregistered fd reported");
        }
    }

    #[test]
    fn peer_hangup_reports_on_every_backend() {
        for backend in backends() {
            let mut poller = Poller::with_backend(backend).unwrap();
            let (a, b) = pair();
            a.set_nonblocking(true).unwrap();
            poller.register(a.as_raw_fd(), 3, Interest::READ).unwrap();
            drop(b);
            let mut events = Vec::new();
            poller
                .wait(&mut events, Some(Duration::from_secs(5)))
                .unwrap();
            assert_eq!(events.len(), 1, "{backend:?}");
            // A closed peer shows as hangup and/or EOF-readable; either
            // way the reactor's read path observes the close.
            assert!(
                events[0].hangup || events[0].readable,
                "{backend:?}: hangup invisible"
            );
        }
    }

    #[test]
    fn waker_interrupts_a_blocked_wait_on_every_backend() {
        for backend in backends() {
            let mut poller = Poller::with_backend(backend).unwrap();
            let waker = poller.waker();
            let h = std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(50));
                waker.wake();
            });
            let start = Instant::now();
            let mut events = Vec::new();
            let woken = poller
                .wait(&mut events, Some(Duration::from_secs(30)))
                .unwrap();
            assert!(woken, "{backend:?}: wake not reported");
            assert!(
                start.elapsed() < Duration::from_secs(10),
                "{backend:?}: wake did not interrupt the wait"
            );
            assert!(events.is_empty(), "{backend:?}: wake leaked as an event");
            h.join().unwrap();

            // Wakes coalesce and drain: the next wait times out quietly.
            let woken = poller
                .wait(&mut events, Some(Duration::from_millis(20)))
                .unwrap();
            assert!(!woken, "{backend:?}: stale wake");
        }
    }

    #[test]
    fn wake_token_is_reserved() {
        let poller = Poller::new().unwrap();
        let (a, _b) = pair();
        let err = poller
            .register(a.as_raw_fd(), WAKE_TOKEN, Interest::READ)
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
    }
}
