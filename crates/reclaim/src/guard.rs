//! The [`Guard`] every [`crate::AtomicArc`] operation demands, and
//! [`Retired`], the type-erased form in which the collector queues what a
//! write displaced.
//!
//! A `Guard` witnesses that the thread is pinned in the epoch collector:
//! no memory retired by a same-epoch thread is freed while the guard
//! lives. Protection spans the guard's whole lifetime, and a stalled guard
//! defers every later reclamation with it.
//!
//! # What a load returns, and how long it lasts
//!
//! An owned `Arc` (`load`, `swap`, `take`), or a
//! [`Protected`](crate::Protected) borrowing the guard it was read under:
//! it may outlive the cell being overwritten or emptied *through a guard*,
//! not the guard's borrow. Until then its pointee is kept alive by the
//! pin: writes retire what they displace, and no deferred drop runs while
//! the guard pins the thread. The immediate releases — dropping the cell,
//! `take_mut` — are **not** covered; the borrow checker keeps them away:
//! `load_protected` borrows the cell, and `follow`, reading a cell
//! *inside* a pinned pointee, need not — `&mut` on that cell takes sole
//! ownership of the pointee, and the reference the pin keeps unreleased
//! (in its cell, or retired) is a second owner. So a segment `cqs-core`
//! unlinks is freed only after every traverser pinned across the unlink
//! has unpinned.
//!
//! Code must not cache a raw pointer from `load_ptr` and dereference it
//! later; `load_ptr` is for identity comparisons only.

use crate::epoch::EpochGuard;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Witness that the current thread is pinned in an epoch [`crate::Collector`]
/// and may operate on [`crate::AtomicArc`] cells (see the module
/// documentation). Obtain one from [`crate::pin`] (the default collector)
/// or a [`crate::LocalHandle`].
///
/// All threads collaborating on one cell must pin the **same** collector:
/// a pin in one collector does not hold back the grace periods of another.
pub struct Guard<'a> {
    inner: EpochGuard<'a>,
}

impl<'a> Guard<'a> {
    pub(crate) fn from_epoch(inner: EpochGuard<'a>) -> Self {
        Guard { inner }
    }

    /// Defers `f` until after a full grace period: it runs once every
    /// thread pinned at the time of this call has unpinned.
    pub fn defer<F: FnOnce() + Send + 'static>(&self, f: F) {
        self.retire(Retired::from_closure(f));
    }

    /// Hands a retired object to the collector this guard pins.
    pub(crate) fn retire(&self, entry: Retired) {
        self.inner.retire(entry);
    }
}

impl std::fmt::Debug for Guard<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Guard").finish_non_exhaustive()
    }
}

/// A type-erased retired object: a thin pointer plus the monomorphized
/// function that releases it. Two machine words, no allocation — the
/// collector's epoch bins queue displaced `Arc` references in this form,
/// so retiring a reference costs the structure nothing beyond the push.
/// Only a [`Guard::defer`] closure allocates: one box to give its captures
/// a thin pointer.
pub(crate) struct Retired {
    ptr: *mut (),
    drop_fn: unsafe fn(*mut ()),
}

// SAFETY: a `Retired` is a closed package of (pointer, releaser) whose
// pointee is always `Send + Sync` (it is either an `Arc` payload that the
// originating `AtomicArc<T: Send + Sync>` owned, or a boxed `FnOnce + Send`
// closure), so shipping it to whichever thread performs the reclamation is
// sound.
unsafe impl Send for Retired {}

impl Retired {
    /// Packages `ptr` with its releaser.
    ///
    /// # Safety
    ///
    /// `drop_fn(ptr)` must be sound to call exactly once, from any thread,
    /// at any later time no protected reader overlaps.
    pub(crate) unsafe fn new(ptr: *mut (), drop_fn: unsafe fn(*mut ())) -> Self {
        Retired { ptr, drop_fn }
    }

    /// Wraps a deferred closure as a retired object (boxed so the erased
    /// pointer is thin; `run::<F>` remembers the concrete type).
    pub(crate) fn from_closure<F: FnOnce() + Send + 'static>(f: F) -> Self {
        unsafe fn run<F: FnOnce()>(p: *mut ()) {
            // SAFETY: `p` came from `Box::<F>::into_raw` below and is
            // consumed exactly once.
            let f = unsafe { Box::from_raw(p as *mut F) };
            f();
        }
        Retired {
            ptr: Box::into_raw(Box::new(f)) as *mut (),
            drop_fn: run::<F>,
        }
    }

    /// Releases the object.
    ///
    /// # Safety
    ///
    /// The collector must have established that no protected reader from
    /// before the object was retired can still dereference `ptr`.
    pub(crate) unsafe fn reclaim(self) {
        // SAFETY: forwarded contract; `new`/`from_closure` guarantee the
        // (ptr, drop_fn) pairing is the original one.
        unsafe { (self.drop_fn)(self.ptr) }
    }
}

/// Subtracts a drain's entry count from the collector's retired gauge when
/// dropped: after the drain released them, or while a panicking destructor
/// unwinds through the drain. The entries behind such a panic are leaked,
/// not re-queued, so they leave the gauge too — otherwise every later
/// flush would wait out its deadline on objects no collect can reach.
pub(crate) struct SettleGauge<'a>(pub(crate) &'a AtomicUsize, pub(crate) usize);

impl Drop for SettleGauge<'_> {
    fn drop(&mut self) {
        // Release: pairs with the Acquire read of a flush, so a zero seen
        // there happens-after every release this drain performed.
        self.0.fetch_sub(self.1, Ordering::Release);
    }
}
