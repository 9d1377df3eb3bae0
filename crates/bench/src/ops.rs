//! What the deployed-stack scenarios run with: the one transport policy
//! and the per-key checker bookkeeping that judges every op the
//! [`Executor`](crate::schedule::Executor) runs.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

use safereg_checker::{Violation, WinHandle, WindowedChecker};
use safereg_common::config::TransportConfig;
use safereg_common::history::Instant;
use safereg_common::msg::OpId;
use safereg_common::tag::Tag;
use safereg_common::value::Value;

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

/// Pause between the attempts of one checked operation.
const RETRY_PAUSE: Duration = Duration::from_millis(10);

/// One [`WindowedChecker`] per key and one logical clock,
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
        }
    }

    /// Logical write `op` of `value` to key `kidx`, attempted through
    /// `put`; the written tag, or `None` when every attempt failed.
    pub fn write<E>(
        &self,
        kidx: usize,
        op: OpId,
        value: &Value,
        put: impl FnMut() -> Result<Tag, E>,
    ) -> Option<Tag> {
        self.judge(
            kidx,
            |c, at| c.begin_write(op, value.clone(), at),
            put,
            |c, h, tag, at| {
                c.complete_write(h, tag, at);
                tag
            },
        )
    }

    /// Logical read `op` of key `kidx`, attempted through `get`; the read
    /// tag, or `None` when every attempt failed.
    pub fn read<E>(
        &self,
        kidx: usize,
        op: OpId,
        get: impl FnMut() -> Result<(Value, Tag), E>,
    ) -> Option<Tag> {
        self.judge(
            kidx,
            |c, at| c.begin_read(op, at),
            get,
            |c, h, (value, tag), at| {
                c.complete_read(h, value, tag, at);
                tag
            },
        )
    }

    fn judge<T, E>(
        &self,
        kidx: usize,
        begin: impl FnOnce(&mut WindowedChecker, Instant) -> WinHandle,
        mut attempt: impl FnMut() -> Result<T, E>,
        complete: impl FnOnce(&mut WindowedChecker, WinHandle, T, Instant) -> Tag,
    ) -> Option<Tag> {
        let h = begin(
            &mut self.lock(kidx),
            self.clock.fetch_add(1, Ordering::Relaxed),
        );
        let mut out = None;
        for tries in 0..self.attempts {
            if tries > 0 {
                std::thread::sleep(RETRY_PAUSE);
            }
            if let Ok(v) = attempt() {
                out = Some(v);
                break;
            }
        }
        let mut c = self.lock(kidx);
        let at = self.clock.fetch_add(1, Ordering::Relaxed);
        let tag = match out {
            Some(v) => Some(complete(&mut c, h, v, at)),
            None => {
                c.abandon(h);
                None
            }
        };
        c.prune();
        tag
    }

    fn lock(&self, kidx: usize) -> MutexGuard<'_, WindowedChecker> {
        self.checkers[kidx].lock().expect("checker lock")
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
