//! What the deployed-stack scenarios do to a cluster: the one transport
//! policy they run with, retried client operations, the per-key checker
//! bookkeeping that judges each one in the checked scenarios
//! ([`soak`](crate::soak), [`churn`](crate::churn)), and live role
//! rotation.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

use safereg_checker::{Violation, WinHandle, WindowedChecker};
use safereg_common::config::TransportConfig;
use safereg_common::history::Instant;
use safereg_common::ids::ServerId;
use safereg_common::msg::OpId;
use safereg_common::tag::Tag;
use safereg_common::value::Value;
use safereg_core::behavior::ByzRole;
use safereg_kv::TcpKvCluster;

/// Runs `op` up to `attempts` times, sleeping `pause` between failed
/// tries, and returns the first success.
pub fn retry<T, E>(
    attempts: usize,
    pause: Duration,
    mut op: impl FnMut() -> Result<T, E>,
) -> Option<T> {
    for attempt in 0..attempts {
        if attempt > 0 {
            std::thread::sleep(pause);
        }
        if let Ok(v) = op() {
            return Some(v);
        }
    }
    None
}

/// The transport policy of every live-cluster scenario: the
/// [`aggressive`](TransportConfig::aggressive) preset with a 50 ms
/// exchange timeout and one in-op retry pass. The kv transport is
/// synchronous, so every dropped, corrupted or unanswered frame stalls the
/// client one full `io_timeout`: correct replicas on loopback answer in
/// microseconds and injected chaos delays cap at 5 ms, so 50 ms keeps a
/// 10× margin while a fault costs milliseconds, not the default seconds.
/// The one retry pass re-asks unreachable and silent servers and the
/// envelopes a `WrongEpoch` redirect requeues; beyond it the scenarios
/// retry with a fresh operation.
pub fn scenario_transport() -> TransportConfig {
    TransportConfig {
        io_timeout: Duration::from_millis(50),
        retry_budget: 1,
        ..TransportConfig::aggressive()
    }
}

/// Sets `role` live on every register group `sid` serves, seeding each
/// group's forgeries with `seed ^ group`.
pub fn set_role_everywhere(cluster: &TcpKvCluster, sid: ServerId, role: ByzRole, seed: u64) {
    for g in cluster.map().shards_of_server(sid) {
        cluster.set_shard_role(sid, g, role, seed ^ u64::from(g.0));
    }
}

/// Pause between the attempts of one checked operation.
const RETRY_PAUSE: Duration = Duration::from_millis(10);

/// One [`WindowedChecker`] per key, one logical clock and the op tallies,
/// shared by every client thread of a checked run.
///
/// Each logical operation is begun on its key's checker, retried (every
/// attempt a fresh protocol operation, the checker still judging the one
/// logical op), then completed or abandoned, and the key's window is
/// pruned right away so it stays as small as the live operations allow.
#[derive(Debug)]
pub struct CheckedKeys {
    checkers: Vec<Mutex<WindowedChecker>>,
    /// Logical clock for checker instants; fetched while holding the key's
    /// checker lock, so per key the feed order matches the instant order.
    clock: AtomicU64,
    attempts: usize,
    attempted: AtomicU64,
    completed: AtomicU64,
    failures: AtomicU64,
}

/// What the checkers concluded once a run is over.
#[derive(Debug)]
pub struct Judged {
    /// Safety violations across all keys.
    pub violations: Vec<Violation>,
    /// Reads judged across all keys.
    pub reads_checked: u64,
    /// Largest per-key window seen — the memory bound in records.
    pub peak_window: usize,
    /// Records pruned across all keys.
    pub pruned: u64,
}

impl CheckedKeys {
    /// Checkers for `keys` keys; every operation gets `attempts` tries.
    pub fn new(keys: usize, attempts: usize) -> CheckedKeys {
        CheckedKeys {
            checkers: (0..keys).map(|_| Mutex::default()).collect(),
            clock: AtomicU64::new(1),
            attempts,
            attempted: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            failures: AtomicU64::new(0),
        }
    }

    /// Logical write `op` of `value` to key `kidx`, attempted through `put`.
    pub fn write<E>(
        &self,
        kidx: usize,
        op: OpId,
        value: &Value,
        put: impl FnMut() -> Result<Tag, E>,
    ) {
        self.judge(
            kidx,
            |c, at| c.begin_write(op, value.clone(), at),
            put,
            |c, h, tag, at| c.complete_write(h, tag, at),
        );
    }

    /// Logical read `op` of key `kidx`, attempted through `get`.
    pub fn read<E>(&self, kidx: usize, op: OpId, get: impl FnMut() -> Result<(Value, Tag), E>) {
        self.judge(
            kidx,
            |c, at| c.begin_read(op, at),
            get,
            |c, h, (value, tag), at| c.complete_read(h, value, tag, at),
        );
    }

    fn judge<T, E>(
        &self,
        kidx: usize,
        begin: impl FnOnce(&mut WindowedChecker, Instant) -> WinHandle,
        attempt: impl FnMut() -> Result<T, E>,
        complete: impl FnOnce(&mut WindowedChecker, WinHandle, T, Instant),
    ) {
        self.attempted.fetch_add(1, Ordering::Relaxed);
        let h = begin(
            &mut self.lock(kidx),
            self.clock.fetch_add(1, Ordering::Relaxed),
        );
        let out = retry(self.attempts, RETRY_PAUSE, attempt);
        let mut c = self.lock(kidx);
        let at = self.clock.fetch_add(1, Ordering::Relaxed);
        match out {
            Some(v) => {
                complete(&mut c, h, v, at);
                self.completed.fetch_add(1, Ordering::Relaxed);
            }
            None => {
                c.abandon(h);
                self.failures.fetch_add(1, Ordering::Relaxed);
            }
        }
        c.prune();
    }

    fn lock(&self, kidx: usize) -> MutexGuard<'_, WindowedChecker> {
        self.checkers[kidx].lock().expect("checker lock")
    }

    /// Logical operations begun so far.
    pub fn attempted(&self) -> u64 {
        self.attempted.load(Ordering::Relaxed)
    }

    /// Logical operations completed so far.
    pub fn completed(&self) -> u64 {
        self.completed.load(Ordering::Relaxed)
    }

    /// Logical operations abandoned after every attempt failed.
    pub fn failures(&self) -> u64 {
        self.failures.load(Ordering::Relaxed)
    }

    /// Prunes every checker and collects the verdicts.
    pub fn close(&self) -> Judged {
        let mut judged = Judged {
            violations: Vec::new(),
            reads_checked: 0,
            peak_window: 0,
            pruned: 0,
        };
        for kidx in 0..self.checkers.len() {
            let mut c = self.lock(kidx);
            c.prune();
            judged.violations.extend(c.take_violations());
            judged.reads_checked += c.reads_checked();
            judged.peak_window = judged.peak_window.max(c.peak_window());
            judged.pruned += c.pruned();
        }
        judged
    }
}
