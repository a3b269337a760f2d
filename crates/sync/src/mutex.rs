//! A fair, abortable mutex on top of CQS (paper, Listings 2, 4 and 12).
//!
//! Two flavours are provided:
//!
//! * [`RawMutex`] — the paper-style lock with explicit
//!   `lock`/`try_lock`/`unlock`, useful for benchmarks and for building
//!   other primitives;
//! * [`Mutex<T>`] — the idiomatic Rust wrapper protecting a value and
//!   handing out RAII guards.
//!
//! Both use the *synchronous* resumption mode so that `try_lock` is correct
//! (paper, Appendix B), and *smart* cancellation so that aborted `lock`
//! requests are skipped in O(1).

use std::cell::UnsafeCell;
use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use cqs_core::{
    CancellationMode, Cancelled, Cqs, CqsCallbacks, CqsConfig, CqsFuture, ResumeMode, Suspend,
};
use cqs_stats::CachePadded;

/// Error returned by [`Mutex::lock`] and [`Mutex::lock_timeout`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LockError {
    /// The lock request was aborted (cancelled future or elapsed timeout).
    Cancelled,
    /// A previous holder panicked while holding the lock; the protected
    /// value may be in an inconsistent state. See [`Mutex::clear_poison`].
    Poisoned,
}

impl fmt::Display for LockError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LockError::Cancelled => f.write_str("lock request was cancelled"),
            LockError::Poisoned => f.write_str("mutex was poisoned by a panicking holder"),
        }
    }
}

impl std::error::Error for LockError {}

impl From<Cancelled> for LockError {
    fn from(_: Cancelled) -> Self {
        LockError::Cancelled
    }
}

#[derive(Debug)]
struct MutexCallbacks {
    state: Arc<CachePadded<AtomicI64>>,
}

impl CqsCallbacks<()> for MutexCallbacks {
    fn on_cancellation(&self) -> bool {
        // s < 0: the number of waiters was decremented, still locked.
        // s = 0: the mutex became unlocked; refuse the upcoming resume.
        let s = self.state.fetch_add(1, Ordering::SeqCst);
        s < 0
    }

    fn complete_refused_resume(&self, _permit: ()) {
        // The lock was already returned by the `state` increment.
    }
}

/// A fair mutual-exclusion lock with abortable waiting (paper, Listing 12).
///
/// `state` is `1` when unlocked and `w <= 0` when locked with `-w` waiters.
///
/// # Example
///
/// ```
/// use cqs_sync::RawMutex;
///
/// let mutex = RawMutex::new();
/// mutex.lock().wait().unwrap();
/// assert!(!mutex.try_lock());
/// mutex.unlock();
/// assert!(mutex.try_lock());
/// # mutex.unlock();
/// ```
#[derive(Debug)]
pub struct RawMutex {
    /// Cache-line padded like the semaphore's state word (every lock and
    /// unlock from every thread lands here).
    state: Arc<CachePadded<AtomicI64>>,
    cqs: Cqs<(), MutexCallbacks>,
}

impl RawMutex {
    /// Creates an unlocked mutex.
    pub fn new() -> Self {
        let state = Arc::new(CachePadded::new(AtomicI64::new(1)));
        let config = CqsConfig::new()
            .resume_mode(ResumeMode::Synchronous)
            .cancellation_mode(CancellationMode::Smart)
            .label("mutex.lock");
        let cqs = Cqs::new(
            config,
            MutexCallbacks {
                state: Arc::clone(&state),
            },
        );
        RawMutex { state, cqs }
    }

    /// Whether the mutex is currently locked (a racy snapshot).
    pub fn is_locked(&self) -> bool {
        self.state.load(Ordering::SeqCst) <= 0
    }

    /// Watchdog id keying this mutex's waiter/holder records in cqs-watch
    /// reports. Always `0` when the `watch` feature is off.
    pub fn watch_id(&self) -> u64 {
        self.cqs.watch_id()
    }

    /// Acquires the lock: completes immediately if it is free, otherwise
    /// returns a future completed by [`unlock`](RawMutex::unlock) in FIFO
    /// order. Cancel the future to abort waiting.
    pub fn lock(&self) -> CqsFuture<()> {
        // Linearizability-history seam (cqs-check): the invoke edge covers
        // the whole operation; the response edge is recorded by the
        // harness once the returned future resolves.
        cqs_chaos::record!(self as *const Self as u64, "mutex.lock", Invoke, 0);
        loop {
            let s = self.state.fetch_sub(1, Ordering::SeqCst);
            if s > 0 {
                cqs_stats::bump!(immediate_hits);
                return CqsFuture::immediate(());
            }
            match self.cqs.suspend() {
                Suspend::Future(f) => return f,
                Suspend::Broken => {
                    std::thread::yield_now();
                    continue;
                }
            }
        }
    }

    /// Acquires the lock only if it is free right now.
    pub fn try_lock(&self) -> bool {
        self.state
            .compare_exchange(1, 0, Ordering::SeqCst, Ordering::SeqCst)
            .is_ok()
    }

    /// Releases the lock, resuming the first waiter if any.
    ///
    /// As with most raw locks, unlocking a mutex the caller does not hold is
    /// a logic error; in debug builds it is caught by an assertion.
    pub fn unlock(&self) {
        // Linearizability-history seam (cqs-check): an unlock is a
        // complete operation, so both edges are recorded here.
        cqs_chaos::record!(self as *const Self as u64, "mutex.unlock", Invoke, 0);
        loop {
            let s = self.state.fetch_add(1, Ordering::SeqCst);
            debug_assert!(s <= 0, "unlock of a mutex that is not locked");
            if s == 0 {
                break;
            }
            if self.cqs.resume(()).is_ok() {
                break;
            }
            // The synchronous rendezvous broke; let the suspender run.
            std::thread::yield_now();
        }
        cqs_chaos::record!(self as *const Self as u64, "mutex.unlock", Response, 0);
    }
}

impl Default for RawMutex {
    fn default() -> Self {
        Self::new()
    }
}

/// A fair, abortable mutex protecting a value, in the spirit of
/// [`std::sync::Mutex`] but with FIFO handoff and cancellable waiting.
///
/// # Example
///
/// ```
/// use std::sync::Arc;
/// use cqs_sync::Mutex;
///
/// let counter = Arc::new(Mutex::new(0u64));
/// let handles: Vec<_> = (0..4)
///     .map(|_| {
///         let counter = Arc::clone(&counter);
///         std::thread::spawn(move || {
///             for _ in 0..1000 {
///                 *counter.lock().unwrap() += 1;
///             }
///         })
///     })
///     .collect();
/// for h in handles {
///     h.join().unwrap();
/// }
/// assert_eq!(*counter.lock().unwrap(), 4000);
/// ```
pub struct Mutex<T> {
    raw: RawMutex,
    /// Set when a holder's guard is dropped during a panic. Unlike a
    /// poisoned [`std::sync::Mutex`], the lock itself is always released —
    /// poisoning never deadlocks waiters, it only makes them observe
    /// [`LockError::Poisoned`].
    poison: AtomicBool,
    value: UnsafeCell<T>,
}

// SAFETY: the raw lock guarantees exclusive access to `value`.
unsafe impl<T: Send> Send for Mutex<T> {}
unsafe impl<T: Send> Sync for Mutex<T> {}

impl<T> Mutex<T> {
    /// Creates an unlocked mutex holding `value`.
    pub fn new(value: T) -> Self {
        Mutex {
            raw: RawMutex::new(),
            poison: AtomicBool::new(false),
            value: UnsafeCell::new(value),
        }
    }

    /// Acquires the lock, blocking the calling thread until it is available.
    ///
    /// # Errors
    ///
    /// Returns [`LockError::Poisoned`] if a previous holder panicked while
    /// holding the lock (the lock itself is released again before the error
    /// is returned, so other waiters are not blocked).
    pub fn lock(&self) -> Result<MutexGuard<'_, T>, LockError> {
        self.raw.lock().wait()?;
        self.guard_or_poisoned()
    }

    /// Attempts to acquire the lock without waiting. Returns `None` if the
    /// lock is held — or if the mutex is poisoned.
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        if self.raw.try_lock() {
            self.guard_or_poisoned().ok()
        } else {
            None
        }
    }

    /// Acquires the lock, giving up (and aborting the queued request) after
    /// `timeout`.
    ///
    /// # Errors
    ///
    /// Returns [`LockError::Cancelled`] if the timeout elapsed first, or
    /// [`LockError::Poisoned`] if a previous holder panicked.
    pub fn lock_timeout(&self, timeout: Duration) -> Result<MutexGuard<'_, T>, LockError> {
        self.raw.lock().wait_timeout(timeout)?;
        self.guard_or_poisoned()
    }

    /// Whether a previous holder panicked while holding the lock.
    pub fn is_poisoned(&self) -> bool {
        self.poison.load(Ordering::SeqCst)
    }

    /// Clears the poison flag, declaring the protected value consistent
    /// again; subsequent `lock` calls succeed normally.
    pub fn clear_poison(&self) {
        self.poison.store(false, Ordering::SeqCst);
    }

    /// Watchdog id keying this mutex's waiter/holder records in cqs-watch
    /// reports. Always `0` when the `watch` feature is off.
    pub fn watch_id(&self) -> u64 {
        self.raw.watch_id()
    }

    /// Wraps a freshly acquired raw lock in a guard — unless the mutex is
    /// poisoned, in which case the lock is handed back so that waiters
    /// behind us are not stuck behind an error.
    fn guard_or_poisoned(&self) -> Result<MutexGuard<'_, T>, LockError> {
        if self.poison.load(Ordering::SeqCst) {
            self.raw.unlock();
            return Err(LockError::Poisoned);
        }
        cqs_watch::acquired!(self.raw.watch_id(), "mutex.lock", true);
        Ok(MutexGuard { mutex: self })
    }

    /// Consumes the mutex, returning the protected value.
    pub fn into_inner(self) -> T {
        self.value.into_inner()
    }

    /// Mutable access without locking (statically exclusive).
    pub fn get_mut(&mut self) -> &mut T {
        self.value.get_mut()
    }
}

impl<T: fmt::Debug> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.try_lock() {
            Some(guard) => f.debug_struct("Mutex").field("value", &*guard).finish(),
            None => f.debug_struct("Mutex").field("value", &"<locked>").finish(),
        }
    }
}

/// RAII guard providing access to the value behind a [`Mutex`]; unlocks on
/// drop.
pub struct MutexGuard<'a, T> {
    mutex: &'a Mutex<T>,
}

impl<T> Deref for MutexGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        // SAFETY: the guard proves the lock is held.
        unsafe { &*self.mutex.value.get() }
    }
}

impl<T> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        // SAFETY: the guard proves the lock is held exclusively.
        unsafe { &mut *self.mutex.value.get() }
    }
}

impl<T> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        // Poison on panic — but *always* unlock: a panicking holder must
        // never leave the queue deadlocked.
        if std::thread::panicking() {
            self.mutex.poison.store(true, Ordering::SeqCst);
        }
        cqs_watch::released!(self.mutex.raw.watch_id());
        self.mutex.raw.unlock();
    }
}

impl<T: fmt::Debug> fmt::Debug for MutexGuard<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn lock_unlock_roundtrip() {
        let m = RawMutex::new();
        assert!(!m.is_locked());
        m.lock().wait().unwrap();
        assert!(m.is_locked());
        m.unlock();
        assert!(!m.is_locked());
    }

    #[test]
    fn try_lock_fails_when_held() {
        let m = RawMutex::new();
        assert!(m.try_lock());
        assert!(!m.try_lock());
        m.unlock();
        assert!(m.try_lock());
        m.unlock();
    }

    /// The paper's Figure 9 scenario: a permit must never be stranded inside
    /// the CQS where `try_lock` cannot see it. With synchronous resumption,
    /// an unlock aimed at a waiter that has not suspended yet breaks the
    /// cell, both sides restart, and the lock ends up observable.
    #[test]
    fn try_lock_eventually_sees_freed_lock() {
        for _ in 0..100 {
            let m = Arc::new(RawMutex::new());
            m.lock().wait().unwrap();
            let m2 = Arc::clone(&m);
            // A second locker and the unlocker race.
            let locker = std::thread::spawn(move || {
                m2.lock().wait().unwrap();
                m2.unlock();
            });
            m.unlock();
            locker.join().unwrap();
            // Both lock/unlock pairs completed; the mutex must now be
            // observable as free by try_lock.
            assert!(m.try_lock(), "freed lock invisible to try_lock");
            m.unlock();
        }
    }

    #[test]
    fn guard_protects_value() {
        let m = Arc::new(Mutex::new(Vec::<usize>::new()));
        let mut joins = Vec::new();
        for t in 0..4 {
            let m = Arc::clone(&m);
            joins.push(std::thread::spawn(move || {
                for i in 0..250 {
                    m.lock().unwrap().push(t * 1000 + i);
                }
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
        assert_eq!(m.lock().unwrap().len(), 1000);
    }

    #[test]
    fn lock_timeout_aborts_cleanly() {
        let m = Mutex::new(5);
        let g = m.lock().unwrap();
        assert!(m.lock_timeout(Duration::from_millis(20)).is_err());
        drop(g);
        // The cancelled waiter must not have corrupted the lock state.
        assert_eq!(*m.lock().unwrap(), 5);
    }

    #[test]
    fn cancelled_waiter_is_skipped() {
        let m = Arc::new(RawMutex::new());
        m.lock().wait().unwrap();
        let f1 = m.lock();
        let f2 = m.lock();
        assert!(f1.cancel());
        m.unlock();
        assert_eq!(f2.wait(), Ok(()));
        m.unlock();
    }

    #[test]
    fn mutual_exclusion_stress() {
        const THREADS: usize = 8;
        const OPS: usize = 2_000;
        let m = Arc::new(RawMutex::new());
        let inside = Arc::new(AtomicUsize::new(0));
        let mut joins = Vec::new();
        for t in 0..THREADS {
            let m = Arc::clone(&m);
            let inside = Arc::clone(&inside);
            joins.push(std::thread::spawn(move || {
                for i in 0..OPS {
                    if (i + t) % 7 == 0 {
                        // Mix in try_lock attempts.
                        if !m.try_lock() {
                            continue;
                        }
                    } else {
                        let f = m.lock();
                        if (i + t) % 11 == 0 && f.cancel() {
                            continue;
                        }
                        f.wait().unwrap();
                    }
                    let now = inside.fetch_add(1, Ordering::SeqCst) + 1;
                    assert_eq!(now, 1, "two threads inside the mutex");
                    inside.fetch_sub(1, Ordering::SeqCst);
                    m.unlock();
                }
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
        assert!(!m.is_locked());
    }

    #[test]
    fn panicking_holder_poisons_but_never_deadlocks() {
        let m = Arc::new(Mutex::new(0u32));
        let m2 = Arc::clone(&m);
        let panicker = std::thread::spawn(move || {
            let mut g = m2.lock().unwrap();
            *g = 13;
            panic!("holder dies");
        });
        assert!(panicker.join().is_err());
        // Not deadlocked: the lock was released; but it reports poison.
        assert!(m.is_poisoned());
        assert!(matches!(m.lock(), Err(LockError::Poisoned)));
        assert!(m.try_lock().is_none());
        assert!(matches!(
            m.lock_timeout(Duration::from_millis(50)),
            Err(LockError::Poisoned)
        ));
        // The raw lock is free again after each poisoned rejection.
        assert!(!m.raw.is_locked());
        m.clear_poison();
        assert_eq!(*m.lock().unwrap(), 13);
    }

    #[test]
    fn poisoned_rejection_releases_lock_for_other_waiters() {
        let m = Arc::new(Mutex::new(()));
        let m2 = Arc::clone(&m);
        assert!(std::thread::spawn(move || {
            let _g = m2.lock().unwrap();
            panic!("poison it");
        })
        .join()
        .is_err());
        // Several waiters all observe Poisoned; none hangs.
        let joins: Vec<_> = (0..4)
            .map(|_| {
                let m = Arc::clone(&m);
                std::thread::spawn(move || m.lock().map(|_| ()))
            })
            .collect();
        for j in joins {
            assert_eq!(j.join().unwrap(), Err(LockError::Poisoned));
        }
    }

    #[test]
    fn into_inner_and_get_mut() {
        let mut m = Mutex::new(7);
        *m.get_mut() += 1;
        assert_eq!(m.into_inner(), 8);
    }

    #[test]
    fn debug_impl_shows_value_or_locked() {
        let m = Mutex::new(3);
        assert!(format!("{m:?}").contains('3'));
        let _g = m.try_lock().unwrap();
        assert!(format!("{m:?}").contains("locked"));
    }
}
