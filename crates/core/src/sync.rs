//! Poison-tolerant synchronization helpers shared by every locking
//! layer of the campaign engine.
//!
//! A panicking worker thread must never cascade into a poisoned-lock
//! abort of the whole campaign: every guarded structure in this
//! codebase holds either plain data (collections of finished records,
//! fault-log maps, ring buffers) or state whose invariants are re-checked
//! by the reader, so recovering the inner value after a poison is
//! always sound. These helpers are the single place that policy is
//! encoded — `docs/CONCURRENCY.md` defines which locks exist, the
//! order they may be acquired in, and why poison recovery is safe at
//! each site.
//!
//! Historically four copies of this logic existed (`faults`,
//! `obs::metrics`, and two ad-hoc `unwrap_or_else` sites in
//! `campaign`); they are deduplicated here so a reviewer has exactly
//! one poison policy to audit.

use std::sync::{Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Locks a [`Mutex`], recovering the guard from a poisoned lock.
///
/// Lock sites that call this must carry a `lock-order` comment naming
/// their level in the hierarchy of `docs/CONCURRENCY.md`.
pub fn lock_unpoisoned<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Acquires a shared [`RwLock`] read guard, recovering from poison.
pub fn read_unpoisoned<T>(lock: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    lock.read().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Acquires an exclusive [`RwLock`] write guard, recovering from
/// poison.
pub fn write_unpoisoned<T>(lock: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    lock.write().unwrap_or_else(|poisoned| poisoned.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    #[test]
    fn mutex_guard_recovers_after_a_panicking_holder() {
        let m = Mutex::new(7u32);
        let _ = catch_unwind(AssertUnwindSafe(|| {
            let _g = m.lock().unwrap();
            panic!("poison it");
        }));
        assert!(m.is_poisoned());
        *lock_unpoisoned(&m) += 1;
        assert_eq!(*lock_unpoisoned(&m), 8);
    }

    #[test]
    fn rwlock_guards_recover_after_a_panicking_writer() {
        let l = RwLock::new(3u32);
        let _ = catch_unwind(AssertUnwindSafe(|| {
            let _g = l.write().unwrap();
            panic!("poison it");
        }));
        assert!(l.is_poisoned());
        assert_eq!(*read_unpoisoned(&l), 3);
        *write_unpoisoned(&l) = 4;
        assert_eq!(*read_unpoisoned(&l), 4);
    }
}
