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
}
