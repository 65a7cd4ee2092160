//! Lock acquisition with the pipeline's lock-poisoning policy.
//!
//! Every named lock in the synthesis pipeline (the lock hierarchy in
//! `CONCURRENCY.md`) is taken through [`read()`], [`write()`] or [`lock()`].
//! Poisoned locks are recovered, not propagated: every structure behind
//! these locks (the interner's insert map, the batch result slots) is
//! valid at rest — an insert or a store either completes or does not —
//! so a panic elsewhere cannot leave a half-updated value for a later
//! reader.

use std::sync::{Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Are lock probes compiled in? Always `false`. Kept because synthbench's
/// probe check calls it to refuse timing an instrumented build.
pub const fn enabled() -> bool {
    false
}

/// Shared (read) acquisition of `lock`, recovering a poisoned lock.
#[inline(always)]
pub fn read<T>(lock: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    lock.read().unwrap_or_else(|p| p.into_inner())
}

/// Exclusive (write) acquisition of `lock`, recovering a poisoned lock.
#[inline(always)]
pub fn write<T>(lock: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    lock.write().unwrap_or_else(|p| p.into_inner())
}

/// Acquisition of `mutex`, recovering a poisoned lock.
#[inline(always)]
pub fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(|p| p.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn helpers_return_working_guards() {
        let rw = RwLock::new(1);
        assert_eq!(*read(&rw), 1);
        *write(&rw) = 2;
        assert_eq!(*read(&rw), 2);
        let m = Mutex::new(3);
        assert_eq!(*lock(&m), 3);
    }

    #[test]
    fn poisoned_locks_are_recovered() {
        use std::sync::Arc;
        let m = Arc::new(Mutex::new(7));
        let rw = Arc::new(RwLock::new(8));
        let (m2, rw2) = (Arc::clone(&m), Arc::clone(&rw));
        let _ = std::thread::spawn(move || {
            let _mg = m2.lock().expect("not yet poisoned");
            let _wg = rw2.write().expect("not yet poisoned");
            panic!("poison both on purpose");
        })
        .join();
        assert!(m.is_poisoned() && rw.is_poisoned());
        assert_eq!(*lock(&m), 7);
        assert_eq!(*read(&rw), 8);
        *write(&rw) = 9;
        assert_eq!(*read(&rw), 9);
    }
}
