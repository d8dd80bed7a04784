//! Poison-recovering lock helpers.
//!
//! A `std` lock is *poisoned* when a thread panics while holding it;
//! every later acquisition then returns `Err` forever. In this crate
//! the panic fence already converts in-request panics into typed
//! errors, and every structure guarded by a lock here is valid at
//! all times mid-critical-section from another thread's perspective
//! (map inserts of `Arc`s, the admission counts and pause flag) — so
//! propagating poison would convert one contained failure into a
//! permanently dead server for no integrity gain. These helpers
//! recover the guard instead, and count every recovery so chaos tests
//! (and [`StatsSnapshot`](crate::StatsSnapshot)) can assert that
//! poison was seen and survived rather than silently impossible.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{
    Condvar, Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard,
};

/// Process-wide count of poisoned guards recovered (a lock poisoned
/// once reports a recovery per subsequent acquisition).
static RECOVERIES: AtomicU64 = AtomicU64::new(0);

pub(crate) fn poison_recoveries() -> u64 {
    RECOVERIES.load(Ordering::Relaxed)
}

fn recover<T>(r: Result<T, PoisonError<T>>) -> T {
    r.unwrap_or_else(|e| {
        RECOVERIES.fetch_add(1, Ordering::Relaxed);
        e.into_inner()
    })
}

// The locks this thread took through these helpers, by address.
#[cfg(test)]
thread_local!(pub(crate) static TAKEN: std::cell::RefCell<Vec<usize>> = Default::default());

fn note<T>(lock: &T) -> &T {
    #[cfg(test)]
    TAKEN.with_borrow_mut(|taken| taken.push(lock as *const T as usize));
    lock
}

pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    recover(note(m).lock())
}

pub(crate) fn read<T>(l: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    recover(note(l).read())
}

pub(crate) fn write<T>(l: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    recover(note(l).write())
}

pub(crate) fn wait<'a, T>(cv: &Condvar, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    recover(cv.wait(guard))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisoned_mutex_is_recovered_and_counted() {
        let m = std::sync::Arc::new(Mutex::new(7));
        let m2 = std::sync::Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _g = m2.lock().unwrap();
            panic!("poison it");
        })
        .join();
        assert!(m.is_poisoned());
        let before = poison_recoveries();
        assert_eq!(*lock(&m), 7, "the guarded value is intact");
        assert!(poison_recoveries() > before);
    }
}
