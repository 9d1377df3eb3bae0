//! Thin synchronization wrappers over `std::sync`.
//!
//! The std locks are entirely sufficient for the workspace's
//! coarse-grained use (one lock per register group), so these wrappers
//! keep the dependency graph hermetic.
//!
//! The one behavioral decision lives here: **lock poisoning is recovered,
//! not propagated**. A panicking thread must not wedge the whole
//! server — the protocol state machines are sans-io and keep their
//! invariants by construction, so the data behind a poisoned lock is still
//! consistent and the remaining threads continue serving.
//!
//! # Examples
//!
//! ```
//! use safereg_common::sync::Mutex;
//!
//! let m = Mutex::new(5);
//! *m.lock() += 1;
//! assert_eq!(*m.lock(), 6);
//! ```

use std::sync::{MutexGuard, PoisonError, RwLockReadGuard, RwLockWriteGuard};

/// A mutual-exclusion lock whose `lock` never fails: poisoning from a
/// panicked holder is recovered by taking the inner guard.
#[derive(Debug, Default)]
pub struct Mutex<T: ?Sized>(std::sync::Mutex<T>);

impl<T> Mutex<T> {
    /// Creates a lock holding `value`.
    pub const fn new(value: T) -> Self {
        Mutex(std::sync::Mutex::new(value))
    }

    /// Consumes the lock, returning the inner value.
    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquires the lock, blocking until it is free.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Mutable access without locking (requires exclusive ownership).
    pub fn get_mut(&mut self) -> &mut T {
        self.0.get_mut().unwrap_or_else(PoisonError::into_inner)
    }
}

/// A readers-writer lock with the same poison-recovery policy as
/// [`Mutex`].
#[derive(Debug, Default)]
pub struct RwLock<T: ?Sized>(std::sync::RwLock<T>);

impl<T> RwLock<T> {
    /// Creates a lock holding `value`.
    pub const fn new(value: T) -> Self {
        RwLock(std::sync::RwLock::new(value))
    }

    /// Consumes the lock, returning the inner value.
    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> RwLock<T> {
    /// Acquires shared read access.
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        self.0.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// Acquires exclusive write access.
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        self.0.write().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Backpressure policy for the wire path's bounded reply outboxes: what
/// a full queue does with the next message ([`channel::ShedPolicy`]) and
/// how its capacity breathes with the shed rate
/// ([`channel::AdaptiveCap`]). The queues themselves live with their one
/// user, the KV host's reactor.
pub mod channel {
    use std::time::{Duration, Instant};

    /// What a full bounded queue does with the next message.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
    pub enum ShedPolicy {
        /// Stop admitting work until space frees up. Backpressure
        /// propagates to the producer; nothing is lost.
        #[default]
        Block,
        /// Drop the message being sent. Cheapest; prefers old queued work.
        DropNewest,
        /// Drop the oldest queued message to admit the new one. Prefers
        /// fresh work — the right default for retried request traffic,
        /// where the oldest frame is the most likely to be stale.
        DropOldest,
    }

    impl ShedPolicy {
        /// Every policy, for exhaustive test sweeps.
        pub const ALL: [ShedPolicy; 3] = [
            ShedPolicy::Block,
            ShedPolicy::DropNewest,
            ShedPolicy::DropOldest,
        ];

        /// Stable lowercase label used in metric names (`chan.shed.<label>`).
        pub fn label(&self) -> &'static str {
            match self {
                ShedPolicy::Block => "block",
                ShedPolicy::DropNewest => "drop_newest",
                ShedPolicy::DropOldest => "drop_oldest",
            }
        }
    }

    /// A capacity change decided by [`AdaptiveCap::record`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum CapChange {
        /// Capacity doubled (value = new capacity).
        Grew(usize),
        /// Capacity halved back toward the base (value = new capacity).
        Shrank(usize),
    }

    /// Windowed grow/shrink policy for adaptive queue capacity.
    ///
    /// The caller reports every enqueue attempt (and whether it shed) with
    /// a timestamp; at each window boundary the policy decides:
    ///
    /// - **grow** — the window shed ≥ 5 % of attempts: capacity doubles,
    ///   capped at `max`;
    /// - **shrink** — [`AdaptiveCap::QUIET_WINDOWS_TO_SHRINK`] consecutive
    ///   windows shed nothing: capacity halves, floored at `base`.
    ///
    /// The policy is a pure function of the reported events and timestamps
    /// — time is injected, so tests are deterministic. It deliberately
    /// knows nothing about queues; the reactor applies the returned
    /// [`CapChange`] to its own outboxes and counts them under
    /// `chan.adaptive.grow` / `chan.adaptive.shrink`.
    #[derive(Debug, Clone)]
    pub struct AdaptiveCap {
        base: usize,
        max: usize,
        cap: usize,
        window: Duration,
        window_start: Option<Instant>,
        attempts: u64,
        shed: u64,
        quiet_windows: u32,
    }

    impl AdaptiveCap {
        /// Shed permille of a window's attempts at which capacity grows.
        pub const GROW_SHED_PERMILLE: u64 = 50;
        /// Consecutive shed-free windows before capacity shrinks one step.
        pub const QUIET_WINDOWS_TO_SHRINK: u32 = 4;
        /// Default evaluation window.
        pub const DEFAULT_WINDOW: Duration = Duration::from_millis(250);

        /// Creates a policy starting at `base` capacity, growing at most to
        /// `max` (both clamped to ≥ 1; `max` to ≥ `base`).
        pub fn new(base: usize, max: usize, window: Duration) -> Self {
            let base = base.max(1);
            AdaptiveCap {
                base,
                max: max.max(base),
                cap: base,
                window: window.max(Duration::from_millis(1)),
                window_start: None,
                attempts: 0,
                shed: 0,
                quiet_windows: 0,
            }
        }

        /// The capacity the policy currently prescribes.
        pub fn capacity(&self) -> usize {
            self.cap
        }

        /// Reports one enqueue attempt at `now` (`shed` = the queue was
        /// full and the message was dropped). Returns a [`CapChange`] when
        /// this attempt closes a window whose shed rate crosses a
        /// threshold.
        pub fn record(&mut self, shed: bool, now: Instant) -> Option<CapChange> {
            let start = *self.window_start.get_or_insert(now);
            self.attempts += 1;
            if shed {
                self.shed += 1;
            }
            if now.duration_since(start) < self.window {
                return None;
            }
            let (attempts, sheds) = (self.attempts, self.shed);
            self.attempts = 0;
            self.shed = 0;
            self.window_start = Some(now);
            if sheds * 1000 >= attempts * Self::GROW_SHED_PERMILLE && sheds > 0 {
                self.quiet_windows = 0;
                if self.cap < self.max {
                    self.cap = (self.cap * 2).min(self.max);
                    return Some(CapChange::Grew(self.cap));
                }
            } else if sheds == 0 {
                self.quiet_windows += 1;
                if self.quiet_windows >= Self::QUIET_WINDOWS_TO_SHRINK {
                    self.quiet_windows = 0;
                    if self.cap > self.base {
                        self.cap = (self.cap / 2).max(self.base);
                        return Some(CapChange::Shrank(self.cap));
                    }
                }
            } else {
                // Some shedding, below the grow threshold: hold steady and
                // restart the quiet streak.
                self.quiet_windows = 0;
            }
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn mutex_recovers_from_poisoning() {
        let m = Arc::new(Mutex::new(0u32));
        let m2 = Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _guard = m2.lock();
            panic!("poison the lock");
        })
        .join();
        // A std Mutex would now return Err(PoisonError); ours recovers.
        *m.lock() += 1;
        assert_eq!(*m.lock(), 1);
    }

    #[test]
    fn rwlock_allows_concurrent_reads_and_recovers() {
        let l = Arc::new(RwLock::new(7u32));
        {
            let a = l.read();
            let b = l.read();
            assert_eq!(*a + *b, 14);
        }
        *l.write() = 8;
        let l2 = Arc::clone(&l);
        let _ = std::thread::spawn(move || {
            let _guard = l2.write();
            panic!("poison the lock");
        })
        .join();
        assert_eq!(*l.read(), 8);
    }

    #[test]
    fn adaptive_cap_grows_on_sustained_sheds_up_to_max() {
        use channel::{AdaptiveCap, CapChange};
        use std::time::{Duration, Instant};
        let w = Duration::from_millis(100);
        let mut pol = AdaptiveCap::new(4, 16, w);
        assert_eq!(pol.capacity(), 4);
        let t0 = Instant::now();
        // Window 1: 50% shed rate → grow to 8.
        for i in 0..9 {
            assert_eq!(pol.record(i % 2 == 0, t0 + w.mul_f64(0.1 * i as f64)), None);
        }
        assert_eq!(pol.record(true, t0 + w), Some(CapChange::Grew(8)));
        // Window 2: all sheds → grow to the 16 ceiling; window 3: capped.
        assert_eq!(pol.record(true, t0 + w * 2), Some(CapChange::Grew(16)));
        assert_eq!(pol.record(true, t0 + w * 3), None);
        assert_eq!(pol.capacity(), 16);
    }

    #[test]
    fn adaptive_cap_shrinks_only_after_consecutive_quiet_windows() {
        use channel::{AdaptiveCap, CapChange};
        use std::time::{Duration, Instant};
        let w = Duration::from_millis(100);
        let mut pol = AdaptiveCap::new(4, 16, w);
        let t0 = Instant::now();
        pol.record(true, t0);
        assert_eq!(pol.record(true, t0 + w), Some(CapChange::Grew(8)));
        // Three quiet windows: no change yet; the fourth shrinks.
        for k in 2..5u32 {
            assert_eq!(pol.record(false, t0 + w * k), None);
        }
        assert_eq!(pol.record(false, t0 + w * 5), Some(CapChange::Shrank(4)));
        // Already at base: further quiet windows do nothing.
        for k in 6..12u32 {
            assert_eq!(pol.record(false, t0 + w * k), None, "window {k}");
        }
        assert_eq!(pol.capacity(), 4);
    }

    #[test]
    fn adaptive_cap_sub_threshold_shedding_holds_steady() {
        use channel::AdaptiveCap;
        use std::time::{Duration, Instant};
        let w = Duration::from_millis(100);
        let mut pol = AdaptiveCap::new(4, 16, w);
        let t0 = Instant::now();
        // 1 shed in 100 attempts = 1% — below the 5% grow threshold, and
        // it also resets the quiet streak so no shrink can sneak in.
        for round in 1..10u32 {
            for i in 0..99 {
                assert_eq!(
                    pol.record(i == 0, t0 + w * (round - 1) + w.mul_f64(0.009 * i as f64)),
                    None
                );
            }
            assert_eq!(pol.record(false, t0 + w * round), None, "round {round}");
        }
        assert_eq!(pol.capacity(), 4);
    }

    #[test]
    fn shed_policy_labels_are_stable() {
        use channel::ShedPolicy;
        let labels: Vec<&str> = ShedPolicy::ALL.iter().map(|p| p.label()).collect();
        assert_eq!(labels, ["block", "drop_newest", "drop_oldest"]);
        assert_eq!(ShedPolicy::default(), ShedPolicy::Block);
    }
}
