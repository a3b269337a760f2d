//! A lock-free, atomically swappable `Option<Arc<T>>` cell.
//!
//! The cell owns one strong reference to the stored value. Loads clone that
//! reference (one atomic increment); stores/swaps/CASes replace the pointer
//! and *retire* the displaced reference through the guard's reclamation
//! backend — as a two-word `Retired` (pointer + monomorphized releaser),
//! the same allocation-free package whichever backend queues it. Retiring
//! is what makes [`AtomicArc::load`] sound: between reading the raw
//! pointer and incrementing the strong count, the cell's own reference
//! cannot be dropped —
//!
//! * under an **epoch** guard, because every thread that could drop it is
//!   excluded by the loader's pin for the guard's whole lifetime;
//! * under a **hazard** guard, because the load publishes the pointer in a
//!   hazard slot and re-validates it, and retire-list scans spare hazarded
//!   pointers;
//! * under an **owned** guard, because the load holds a striped borrow
//!   across the window and retires only proceed (or limbo entries only
//!   drain) when every stripe reads zero.
//!
//! Mixing backends on one cell voids these arguments: all threads
//! operating on a given cell must present guards of the same kind.

use std::marker::PhantomData;
use std::ptr;
use std::sync::atomic::{AtomicPtr, Ordering};
use std::sync::Arc;

use crate::guard::{GuardInner, Retired};
use crate::{owned, Guard};

/// An atomically swappable `Option<Arc<T>>`.
///
/// All operations are lock-free. Operations that can observe concurrent
/// modification require a [`Guard`], obtained from [`crate::pin`] (epoch),
/// [`crate::pin_with`] (any backend) or a [`crate::LocalHandle`]. All
/// collaborating threads must use the **same** backend on a given cell
/// (and, for epoch, the same collector — the free function [`crate::pin`]
/// always uses the default one).
///
/// # Example
///
/// ```
/// use std::sync::Arc;
/// use cqs_reclaim::{pin, AtomicArc};
///
/// let cell: AtomicArc<&str> = AtomicArc::new(None);
/// let guard = pin();
/// assert!(cell
///     .compare_exchange_null(Arc::new("hello"), &guard)
///     .is_ok());
/// assert_eq!(*cell.load(&guard).unwrap(), "hello");
/// ```
pub struct AtomicArc<T> {
    ptr: AtomicPtr<T>,
    _marker: PhantomData<Option<Arc<T>>>,
}

// SAFETY: the cell hands out `Arc<T>` clones across threads, which is what
// `Arc` itself requires `T: Send + Sync` for.
unsafe impl<T: Send + Sync> Send for AtomicArc<T> {}
unsafe impl<T: Send + Sync> Sync for AtomicArc<T> {}

fn into_ptr<T>(value: Option<Arc<T>>) -> *mut T {
    match value {
        Some(arc) => Arc::into_raw(arc) as *mut T,
        None => ptr::null_mut(),
    }
}

/// Reconstructs ownership of the reference held behind `ptr`.
///
/// # Safety
///
/// `ptr` must be null or a pointer produced by [`into_ptr`] whose reference
/// has not yet been released.
unsafe fn from_ptr<T>(ptr: *mut T) -> Option<Arc<T>> {
    if ptr.is_null() {
        None
    } else {
        Some(Arc::from_raw(ptr))
    }
}

impl<T: Send + Sync + 'static> AtomicArc<T> {
    /// Creates a cell holding `value`.
    pub fn new(value: Option<Arc<T>>) -> Self {
        AtomicArc {
            ptr: AtomicPtr::new(into_ptr(value)),
            _marker: PhantomData,
        }
    }

    /// Creates an empty cell.
    pub fn null() -> Self {
        Self::new(None)
    }

    /// Returns the current raw pointer. Useful for pointer-identity checks
    /// (e.g. CAS loops); dereferencing it is not safe in general.
    pub fn load_ptr(&self, _guard: &Guard) -> *const T {
        self.ptr.load(Ordering::Acquire)
    }

    /// Returns a clone of the stored reference, or `None` if empty.
    pub fn load(&self, guard: &Guard) -> Option<Arc<T>> {
        match &guard.inner {
            GuardInner::Epoch(_) => {
                let p = self.ptr.load(Ordering::Acquire);
                if p.is_null() {
                    return None;
                }
                // SAFETY: `p` was produced by `Arc::into_raw` and the
                // reference the cell held at the moment of the load is
                // released only through an epoch-deferred drop, which
                // cannot run while `guard` pins us. The strong count is
                // therefore >= 1 here.
                unsafe {
                    Arc::increment_strong_count(p);
                    Some(Arc::from_raw(p))
                }
            }
            GuardInner::Hazard(h) => h.load_arc(&self.ptr),
            GuardInner::Owned(_) => {
                // The borrow spans the pointer read *and* the strong-count
                // increment; `_borrow` drops only at scope exit, after the
                // Arc below is constructed.
                let _borrow = owned::borrow();
                // SeqCst (invariant): `R_p` of the owned backend's Dekker
                // pairing — see `crate::owned` for the full argument.
                let p = self.ptr.load(Ordering::SeqCst);
                if p.is_null() {
                    return None;
                }
                // SAFETY: the held borrow forces a concurrent retire of the
                // cell's reference into limbo, and limbo cannot drain while
                // any stripe is non-zero. The strong count is >= 1 here.
                unsafe {
                    Arc::increment_strong_count(p);
                    Some(Arc::from_raw(p))
                }
            }
        }
    }

    /// Replaces the stored reference with `value`, releasing the previous
    /// reference once the guard's backend proves no reader can hold it.
    pub fn store(&self, value: Option<Arc<T>>, guard: &Guard) {
        let old = self.ptr.swap(into_ptr(value), write_ordering(guard));
        retire_displaced(old, guard);
    }

    /// Replaces the stored reference with `value` and returns the previous
    /// one.
    pub fn swap(&self, value: Option<Arc<T>>, guard: &Guard) -> Option<Arc<T>> {
        let old = self.ptr.swap(into_ptr(value), write_ordering(guard));
        if old.is_null() {
            return None;
        }
        // SAFETY: we displaced the cell's reference, so until we retire it
        // below *we* own it; incrementing it to mint the caller's return
        // value cannot race its release.
        let result = unsafe {
            Arc::increment_strong_count(old);
            Arc::from_raw(old)
        };
        retire_displaced(old, guard);
        Some(result)
    }

    /// Stores `new` if the current pointer equals `current` (pointer
    /// identity). On failure returns `new` back along with the actual
    /// current value.
    ///
    /// # Errors
    ///
    /// Returns `Err` with the rejected `new` value if the cell did not
    /// contain `current`.
    pub fn compare_exchange(
        &self,
        current: *const T,
        new: Option<Arc<T>>,
        guard: &Guard,
    ) -> Result<(), Option<Arc<T>>> {
        let new_ptr = into_ptr(new);
        match self.ptr.compare_exchange(
            current as *mut T,
            new_ptr,
            write_ordering(guard),
            Ordering::Acquire,
        ) {
            Ok(old) => {
                retire_displaced(old, guard);
                Ok(())
            }
            Err(_) => {
                // SAFETY: `new_ptr` came from `into_ptr(new)` above and was
                // never published.
                Err(unsafe { from_ptr(new_ptr) })
            }
        }
    }

    /// Stores `new` only if the cell is currently empty.
    ///
    /// # Errors
    ///
    /// Returns `Err` with the rejected value if the cell was non-empty.
    pub fn compare_exchange_null(&self, new: Arc<T>, guard: &Guard) -> Result<(), Arc<T>> {
        self.compare_exchange(ptr::null(), Some(new), guard)
            .map_err(|v| v.expect("non-null value was passed in"))
    }

    /// Takes the stored reference out, leaving the cell empty.
    pub fn take(&self, guard: &Guard) -> Option<Arc<T>> {
        self.swap(None, guard)
    }

    /// Empties the cell through exclusive access, releasing the stored
    /// reference immediately.
    ///
    /// Unlike [`AtomicArc::store`] this needs no guard and defers nothing:
    /// `&mut self` proves no concurrent loader can be racing the release.
    /// Segment recycling uses this to reset link cells without feeding the
    /// epoch engine.
    pub fn clear_mut(&mut self) {
        let p = std::mem::replace(self.ptr.get_mut(), ptr::null_mut());
        if !p.is_null() {
            // SAFETY: exclusive access; the cell owns this reference.
            unsafe { drop(Arc::from_raw(p)) }
        }
    }
}

/// Ordering for the pointer write of store/swap/CAS. The owned backend's
/// soundness argument places the displacing write in the SeqCst total
/// order against loader borrows (see `crate::owned`); the epoch and
/// hazard backends need only AcqRel (their pairings go through the pin
/// fence and the hazard publish/scan fences respectively).
fn write_ordering(guard: &Guard) -> Ordering {
    match &guard.inner {
        GuardInner::Owned(_) => Ordering::SeqCst,
        _ => Ordering::AcqRel,
    }
}

/// Monomorphized releaser for a displaced cell reference.
///
/// # Safety
///
/// `p` must be an `Arc<T>::into_raw` pointer whose reference is owned by
/// the caller; called at most once per ownership transfer.
unsafe fn release_arc<T: Send + Sync>(p: *mut ()) {
    // SAFETY: forwarded contract.
    unsafe { drop(Arc::from_raw(p as *const T)) }
}

fn retire_displaced<T: Send + Sync + 'static>(old: *mut T, guard: &Guard) {
    if old.is_null() {
        return;
    }
    // SAFETY: the displaced reference is owned by this retire, and
    // `release_arc::<T>` matches the pointer's true type.
    guard.retire(unsafe { Retired::new(old as *mut (), release_arc::<T>) });
}

impl<T> Drop for AtomicArc<T> {
    fn drop(&mut self) {
        let p = *self.ptr.get_mut();
        if !p.is_null() {
            // SAFETY: we have exclusive access; the cell owns this reference.
            unsafe { drop(Arc::from_raw(p)) }
        }
    }
}

impl<T: Send + Sync + 'static> Default for AtomicArc<T> {
    fn default() -> Self {
        Self::null()
    }
}

impl<T> std::fmt::Debug for AtomicArc<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let p = self.ptr.load(Ordering::Relaxed);
        f.debug_struct("AtomicArc").field("ptr", &p).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{pin, Collector};
    use std::sync::atomic::AtomicUsize;

    struct Tracked {
        value: usize,
        drops: Arc<AtomicUsize>,
    }
    impl Drop for Tracked {
        fn drop(&mut self) {
            self.drops.fetch_add(1, Ordering::SeqCst);
        }
    }

    #[test]
    fn load_of_empty_cell_is_none() {
        let cell: AtomicArc<u32> = AtomicArc::null();
        assert!(cell.load(&pin()).is_none());
        assert!(cell.load_ptr(&pin()).is_null());
    }

    #[test]
    fn store_and_load_round_trip() {
        let cell = AtomicArc::new(Some(Arc::new(7)));
        let guard = pin();
        assert_eq!(*cell.load(&guard).unwrap(), 7);
        cell.store(Some(Arc::new(8)), &guard);
        assert_eq!(*cell.load(&guard).unwrap(), 8);
        cell.store(None, &guard);
        assert!(cell.load(&guard).is_none());
    }

    #[test]
    fn swap_returns_previous() {
        let cell = AtomicArc::new(Some(Arc::new(1)));
        let guard = pin();
        let old = cell.swap(Some(Arc::new(2)), &guard).unwrap();
        assert_eq!(*old, 1);
        let old = cell.take(&guard).unwrap();
        assert_eq!(*old, 2);
        assert!(cell.take(&guard).is_none());
    }

    #[test]
    fn compare_exchange_by_pointer_identity() {
        let first = Arc::new(10);
        let cell = AtomicArc::new(Some(Arc::clone(&first)));
        let guard = pin();
        let p = cell.load_ptr(&guard);
        assert_eq!(p, Arc::as_ptr(&first));

        // Wrong expected pointer: rejected, value handed back.
        let rejected = cell
            .compare_exchange(ptr::null(), Some(Arc::new(11)), &guard)
            .unwrap_err()
            .unwrap();
        assert_eq!(*rejected, 11);

        // Correct expected pointer: accepted.
        cell.compare_exchange(p, Some(Arc::new(12)), &guard)
            .unwrap();
        assert_eq!(*cell.load(&guard).unwrap(), 12);
    }

    #[test]
    fn compare_exchange_null_installs_once() {
        let cell: AtomicArc<u32> = AtomicArc::null();
        let guard = pin();
        cell.compare_exchange_null(Arc::new(5), &guard).unwrap();
        let err = cell.compare_exchange_null(Arc::new(6), &guard).unwrap_err();
        assert_eq!(*err, 6);
        assert_eq!(*cell.load(&guard).unwrap(), 5);
    }

    #[test]
    fn every_reference_is_eventually_dropped() {
        let drops = Arc::new(AtomicUsize::new(0));
        let collector = Collector::new();
        let handle = collector.register();
        {
            let cell = AtomicArc::new(Some(Arc::new(Tracked {
                value: 0,
                drops: Arc::clone(&drops),
            })));
            for i in 1..100usize {
                let guard = handle.pin();
                let loaded = cell.load(&guard).unwrap();
                assert_eq!(loaded.value, i - 1);
                cell.store(
                    Some(Arc::new(Tracked {
                        value: i,
                        drops: Arc::clone(&drops),
                    })),
                    &guard,
                );
            }
            drop(cell);
        }
        assert!(collector.flush());
        assert_eq!(drops.load(Ordering::SeqCst), 100);
    }

    #[test]
    fn all_backends_round_trip_and_reclaim() {
        use crate::{flush_reclaimer, pin_with, ReclaimerKind};
        for kind in ReclaimerKind::ALL {
            let drops = Arc::new(AtomicUsize::new(0));
            {
                let cell = AtomicArc::new(Some(Arc::new(Tracked {
                    value: 0,
                    drops: Arc::clone(&drops),
                })));
                for i in 1..100usize {
                    let guard = pin_with(kind);
                    let loaded = cell.load(&guard).unwrap();
                    assert_eq!(loaded.value, i - 1, "backend {kind}");
                    cell.store(
                        Some(Arc::new(Tracked {
                            value: i,
                            drops: Arc::clone(&drops),
                        })),
                        &guard,
                    );
                    let p = cell.load_ptr(&guard);
                    assert!(cell
                        .compare_exchange(
                            p,
                            Some(Arc::new(Tracked {
                                value: i,
                                drops: Arc::clone(&drops),
                            })),
                            &guard,
                        )
                        .is_ok());
                }
                drop(cell);
            }
            for _ in 0..50 {
                if drops.load(Ordering::SeqCst) == 199 {
                    break;
                }
                let _ = flush_reclaimer(kind); // the drop count is the check
                std::thread::yield_now();
            }
            assert_eq!(
                drops.load(Ordering::SeqCst),
                199,
                "backend {kind} leaked or double-dropped"
            );
        }
    }

    #[test]
    fn concurrent_stress_on_hazard_and_owned_backends() {
        use crate::{flush_reclaimer, pin_with, ReclaimerKind};
        const THREADS: usize = 4;
        const OPS: usize = 2_000;
        for kind in [ReclaimerKind::Hazard, ReclaimerKind::Owned] {
            let drops = Arc::new(AtomicUsize::new(0));
            let created = Arc::new(AtomicUsize::new(0));
            let cell = Arc::new(AtomicArc::new(Some(Arc::new(Tracked {
                value: usize::MAX,
                drops: Arc::clone(&drops),
            }))));
            created.fetch_add(1, Ordering::SeqCst);
            let mut joins = Vec::new();
            for t in 0..THREADS {
                let cell = Arc::clone(&cell);
                let drops = Arc::clone(&drops);
                let created = Arc::clone(&created);
                joins.push(std::thread::spawn(move || {
                    for i in 0..OPS {
                        let guard = pin_with(kind);
                        if (i + t) % 3 == 0 {
                            created.fetch_add(1, Ordering::SeqCst);
                            cell.swap(
                                Some(Arc::new(Tracked {
                                    value: i,
                                    drops: Arc::clone(&drops),
                                })),
                                &guard,
                            );
                        } else {
                            let v = cell.load(&guard).expect("cell never empty");
                            assert!(v.value == usize::MAX || v.value < OPS);
                        }
                    }
                }));
            }
            for j in joins {
                j.join().unwrap();
            }
            drop(cell);
            for _ in 0..100 {
                if drops.load(Ordering::SeqCst) == created.load(Ordering::SeqCst) {
                    break;
                }
                let _ = flush_reclaimer(kind); // the drop count is the check
                std::thread::yield_now();
            }
            assert_eq!(
                drops.load(Ordering::SeqCst),
                created.load(Ordering::SeqCst),
                "backend {kind} leaked or double-dropped references"
            );
        }
    }

    #[test]
    fn concurrent_load_swap_stress() {
        const THREADS: usize = 8;
        const OPS: usize = 5_000;
        let drops = Arc::new(AtomicUsize::new(0));
        let created = Arc::new(AtomicUsize::new(0));
        let collector = Arc::new(Collector::new());
        let cell = Arc::new(AtomicArc::new(Some(Arc::new(Tracked {
            value: usize::MAX,
            drops: Arc::clone(&drops),
        }))));
        created.fetch_add(1, Ordering::SeqCst);

        let mut joins = Vec::new();
        for t in 0..THREADS {
            let cell = Arc::clone(&cell);
            let drops = Arc::clone(&drops);
            let created = Arc::clone(&created);
            let collector = Arc::clone(&collector);
            joins.push(std::thread::spawn(move || {
                let handle = collector.register();
                for i in 0..OPS {
                    let guard = handle.pin();
                    if (i + t) % 3 == 0 {
                        created.fetch_add(1, Ordering::SeqCst);
                        cell.swap(
                            Some(Arc::new(Tracked {
                                value: i,
                                drops: Arc::clone(&drops),
                            })),
                            &guard,
                        );
                    } else {
                        // Loads must always observe a live value.
                        let v = cell.load(&guard).expect("cell never empty");
                        assert!(v.value == usize::MAX || v.value < OPS);
                    }
                }
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
        drop(cell);
        // `cell` was shared via Arc; the inner AtomicArc has been dropped by
        // the last owner above. Flush deferred releases.
        assert!(collector.flush());
        assert_eq!(
            drops.load(Ordering::SeqCst),
            created.load(Ordering::SeqCst),
            "leaked or double-dropped references"
        );
    }
}
