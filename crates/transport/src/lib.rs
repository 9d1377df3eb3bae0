//! The network layer under the `safereg` deployment: the paper's
//! authenticated point-to-point channels (§II-A) and the machinery that
//! carries them.
//!
//! * [`frame`] — *the* wire format: length-prefixed, HMAC-authenticated,
//!   zero-copy [`frame::KvFrame`]s, sealed into [`frame::SealedKv`] parts
//!   for vectored writes and opened with a borrowing decode. Nothing else
//!   in the workspace knows the byte layout.
//! * [`poll`] — a zero-dependency readiness layer (raw `epoll` on Linux,
//!   portable `poll(2)` elsewhere) the KV host's reactors run on.
//! * [`chaos`] — the simulator's fault bestiary ported to real sockets:
//!   seeded, reproducible proxies that drop, delay, corrupt, truncate and
//!   kill connections so reconnects, retries and circuit breakers can be
//!   exercised deterministically.
//!
//! Serving, clients and cluster orchestration live in `safereg-kv`
//! (`KvServerHost`, `TcpKvTransport`, `TcpKvCluster`) — a single register
//! is a KV store with one key. The RB baseline is deliberately not given a
//! TCP runtime: it exists to be *measured against* under controlled
//! delays, which the simulator does better; see DESIGN.md.

#![deny(unsafe_op_in_unsafe_fn, clippy::undocumented_unsafe_blocks)]

pub mod chaos;
pub mod frame;
pub mod poll;

pub use chaos::{
    ChaosNet, ChaosProxy, Direction, FaultAction, FaultPlan, FaultSchedule, FaultSpec,
};
pub use frame::{read_frame, FrameError, KvFrame, SealedKv, MAX_FRAME};
pub use poll::{Interest, PollBackend, PollEvent, Poller, Waker};
