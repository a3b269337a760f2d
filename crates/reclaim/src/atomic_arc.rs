//! A lock-free, atomically swappable `Option<Arc<T>>` cell.
//!
//! The cell owns one strong reference to the stored value.
//! Stores/swaps/CASes replace the pointer and *retire* the displaced
//! reference through the guard's collector — as a two-word `Retired`
//! (pointer + monomorphized releaser), an allocation-free package.
//! Retiring is what makes reading the cell sound: after a reader saw the
//! raw pointer, the cell's own reference cannot be dropped, because its
//! release is an epoch-deferred drop and the reader's pin holds back every
//! such drop for the guard's whole lifetime.
//!
//! [`AtomicArc::load_protected`] and [`Protected::follow`] hand that
//! protection to the caller as a [`Protected`] — a plain borrow, no strong
//! count touched; [`AtomicArc::load`] is the same read followed by
//! [`Protected::into_arc`].
//!
//! Pinning two collectors on one cell voids this argument: all threads
//! operating on a given cell must pin the same collector.

use std::marker::PhantomData;
use std::ptr;
use std::sync::atomic::{AtomicPtr, Ordering};
use std::sync::Arc;

use crate::guard::Retired;
use crate::Guard;

/// An atomically swappable `Option<Arc<T>>`.
///
/// All operations are lock-free. Operations that can observe concurrent
/// modification require a [`Guard`], obtained from [`crate::pin`] or a
/// [`crate::LocalHandle`]. All collaborating threads must pin the **same**
/// collector on a given cell (the free function [`crate::pin`] always uses
/// the default one).
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
        self.read(guard).map(Protected::into_arc)
    }

    /// Reads the stored reference for as long as `guard` **and the cell**
    /// are borrowed, or `None` if empty; see [`Protected`]. Borrowing the
    /// cell keeps the releases that wait for no pin — dropping it,
    /// [`take_mut`](Self::take_mut) — from running under a live
    /// `Protected`:
    ///
    /// ```compile_fail,E0502
    /// use cqs_reclaim::{pin, AtomicArc};
    /// let mut cell = AtomicArc::new(Some(std::sync::Arc::new(7)));
    /// let guard = pin();
    /// let seven = cell.load_protected(&guard).unwrap();
    /// drop(cell.take_mut()); // would free the pointee under `seven`
    /// assert_eq!(*seven, 7);
    /// ```
    pub fn load_protected<'g>(&'g self, guard: &'g Guard) -> Option<Protected<'g, T>> {
        self.read(guard)
    }

    /// The one protected read. The caller vouches that the cell is neither
    /// dropped nor handed out `&mut` for `'g`.
    fn read<'g>(&self, _guard: &'g Guard) -> Option<Protected<'g, T>> {
        let p = self.ptr.load(Ordering::Acquire);
        if p.is_null() {
            return None;
        }
        // The reference the cell held at the moment of the load is released
        // only through an epoch-deferred drop, which cannot run while
        // `_guard` pins us — for all of `'g` — or through `&mut` on the
        // cell, which the caller rules out.
        Some(Protected(ProtectedInner::Pinned(p, PhantomData)))
    }

    /// Replaces the stored reference with `value`, releasing the previous
    /// reference once a grace period proves no reader can hold it.
    pub fn store(&self, value: Option<Arc<T>>, guard: &Guard) {
        // AcqRel on every write: Release publishes `value` to the Acquire
        // loads, Acquire hands the displaced pointee to its releaser. Readers
        // are ordered against the release by the pin fence, not here.
        let old = self.ptr.swap(into_ptr(value), Ordering::AcqRel);
        retire_displaced(old, guard);
    }

    /// Replaces the stored reference with `value` and returns the previous
    /// one.
    pub fn swap(&self, value: Option<Arc<T>>, guard: &Guard) -> Option<Arc<T>> {
        let old = self.ptr.swap(into_ptr(value), Ordering::AcqRel);
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
            Ordering::AcqRel,
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

    /// Takes the stored reference out through exclusive access. Unlike
    /// [`AtomicArc::take`] this needs no guard and defers nothing: `&mut
    /// self` proves no reader can be racing the hand-over. Segment chain
    /// tear-down unhooks `next` links this way.
    pub fn take_mut(&mut self) -> Option<Arc<T>> {
        let p = std::mem::replace(self.ptr.get_mut(), ptr::null_mut());
        // SAFETY: exclusive access; the cell owned this reference.
        unsafe { from_ptr(p) }
    }
}

/// A reference read from an [`AtomicArc`], valid while the guard it was
/// read under stays borrowed (`'g`).
///
/// A read holds nothing but the pointer: the pin keeps the pointee alive
/// for `'g`, so neither the load nor the drop touches a strong count. A
/// `Protected` built [`From`] an `Arc` holds that counted reference
/// instead — a value not yet published in any cell.
pub struct Protected<'g, T>(ProtectedInner<'g, T>);

enum ProtectedInner<'g, T> {
    /// The `Arc::into_raw` pointer a load observed, kept raw so an `Arc`
    /// minted from it has the allocation's provenance; `'g` pins it.
    Pinned(*const T, PhantomData<&'g T>),
    Counted(Arc<T>),
}

impl<T> Protected<'_, T> {
    /// The pointee's address: for identity checks and CAS expectations.
    pub fn as_ptr(&self) -> *const T {
        &**self
    }

    /// Mints an owned reference (one strong-count increment).
    pub fn to_arc(&self) -> Arc<T> {
        cqs_stats::bump!(arc_increments);
        match &self.0 {
            // SAFETY: `p` came from `Arc::into_raw` and the pin keeps the
            // cell's reference — hence a strong count >= 1 — alive.
            ProtectedInner::Pinned(p, _) => unsafe {
                Arc::increment_strong_count(*p);
                Arc::from_raw(*p)
            },
            ProtectedInner::Counted(arc) => Arc::clone(arc),
        }
    }

    /// Converts into an owned reference, moving the count if one is held.
    pub fn into_arc(self) -> Arc<T> {
        match self.0 {
            ProtectedInner::Counted(arc) => arc,
            ProtectedInner::Pinned(..) => self.to_arc(),
        }
    }
}

impl<'g, T: Send + Sync + 'static> Protected<'g, T> {
    /// Reads the cell `link` picks *inside the pointee* — the step of a
    /// traversal; the result borrows only the guard, so it can replace
    /// `self`. No borrow of that cell is needed: a pinned pointee is kept
    /// alive for `'g` by a reference still in its cell or retired and
    /// unreleased, so nobody can be its sole owner, which every road to
    /// `&mut` on a cell in it (dropping it, `Arc::get_mut`, `try_unwrap`)
    /// requires. A counted parent may be dropped; its links are cloned.
    pub fn follow<U: Send + Sync + 'static>(
        &self,
        link: impl FnOnce(&T) -> &AtomicArc<U>,
        guard: &'g Guard,
    ) -> Option<Protected<'g, U>> {
        match &self.0 {
            ProtectedInner::Pinned(..) => link(self).read(guard),
            ProtectedInner::Counted(arc) => link(arc).load(guard).map(Protected::from),
        }
    }
}

impl<T> std::ops::Deref for Protected<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        match &self.0 {
            // SAFETY: see `AtomicArc::read` — the pointee cannot be
            // released while the guard borrowed for `'g` pins us and the
            // cell it was read from stays put; `self` cannot outlive `'g`.
            ProtectedInner::Pinned(p, _) => unsafe { &**p },
            ProtectedInner::Counted(arc) => arc,
        }
    }
}

impl<T> From<Arc<T>> for Protected<'_, T> {
    fn from(arc: Arc<T>) -> Self {
        Protected(ProtectedInner::Counted(arc))
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
    fn round_trip_and_compare_exchange_reclaim_every_reference() {
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
        assert!(collector.flush());
        assert_eq!(
            drops.load(Ordering::SeqCst),
            199,
            "leaked or double-dropped"
        );
    }

    /// The borrow's safety net: a `Protected` read before the cell is
    /// overwritten keeps dereferencing to the old value, which is released
    /// exactly once and only after the guard it was read under is gone.
    #[test]
    fn protected_outlives_an_overwrite_until_the_guard_drops() {
        let collector = Collector::new();
        let (reader, writer) = (collector.register(), collector.register());
        let drops = Arc::new(AtomicUsize::new(0));
        let filler_drops = Arc::new(AtomicUsize::new(0));
        let old = Arc::new(Tracked {
            value: 7,
            drops: Arc::clone(&drops),
        });
        let cell = AtomicArc::new(Some(Arc::clone(&old)));
        // Enough overwrites to cross several epoch collects.
        let overwrite = |rounds: usize| {
            for value in 0..rounds {
                let filler = Arc::new(Tracked {
                    value,
                    drops: Arc::clone(&filler_drops),
                });
                cell.store(Some(filler), &writer.pin());
            }
        };

        let guard = reader.pin();
        let protected = cell.load_protected(&guard).expect("cell is full");
        assert_eq!(Arc::strong_count(&old), 2, "a read touches no count");
        assert_eq!(protected.as_ptr(), Arc::as_ptr(&old));
        let minted = protected.to_arc();
        assert_eq!(Arc::strong_count(&old), 3);
        drop((minted, old));

        overwrite(200);
        assert_eq!(protected.value, 7);
        assert_eq!(drops.load(Ordering::SeqCst), 0);
        drop(protected);
        // The pin, not the `Protected`, was the protection.
        overwrite(200);
        assert_eq!(drops.load(Ordering::SeqCst), 0, "released under a pin");
        drop(guard);
        assert!(collector.flush());
        assert_eq!(drops.load(Ordering::SeqCst), 1);
        drop(cell);
        assert_eq!(drops.load(Ordering::SeqCst), 1, "released once");
    }

    /// `follow` steps through a link inside the pointee: uncounted from a
    /// pinned parent, whose pointee outlives the step, and as a counted
    /// clone from a counted parent, which may be dropped the next moment —
    /// and with it the link cell, released immediately.
    #[test]
    fn follow_borrows_from_a_pinned_parent_and_clones_from_a_counted_one() {
        struct Node {
            next: AtomicArc<Node>,
        }
        let tail = Arc::new(Node {
            next: AtomicArc::null(),
        });
        let head = Arc::new(Node {
            next: AtomicArc::new(Some(Arc::clone(&tail))),
        });
        let root = AtomicArc::new(Some(Arc::clone(&head)));
        let guard = pin();

        let first = root.load_protected(&guard).unwrap();
        let second = first.follow(|node| &node.next, &guard).unwrap();
        assert_eq!(second.as_ptr(), Arc::as_ptr(&tail));
        assert_eq!(Arc::strong_count(&tail), 2, "an uncounted step");
        assert!(second.follow(|node| &node.next, &guard).is_none());
        drop((first, second));

        let counted: Protected<'_, Node> = head.into();
        let second = counted.follow(|node| &node.next, &guard).unwrap();
        assert_eq!(Arc::strong_count(&tail), 3, "a clone");
        drop((counted, root)); // the last owners of `head` and its link
        assert_eq!(second.as_ptr(), Arc::as_ptr(&tail));
        assert!(second.next.load(&guard).is_none(), "still readable");
        assert_eq!(Arc::strong_count(&tail), 2);
    }

    #[test]
    fn take_mut_hands_over_the_cell_reference() {
        let value = Arc::new(5);
        let mut cell = AtomicArc::new(Some(Arc::clone(&value)));
        let taken = cell.take_mut().expect("cell is full");
        assert!(Arc::ptr_eq(&taken, &value));
        assert_eq!(Arc::strong_count(&value), 2, "moved, not cloned");
        assert!(cell.take_mut().is_none());
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
