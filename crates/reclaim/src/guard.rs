//! The backend-polymorphic [`Guard`] and [`Retired`], the type-erased
//! retired-object representation both backends queue.
//!
//! A `Guard` is the witness every [`crate::AtomicArc`] operation demands.
//! What the witness actually *means* differs per backend:
//!
//! * **Epoch** — the classic meaning: the thread is pinned, and no memory
//!   retired by a same-epoch thread is freed while the guard lives.
//!   Protection spans the guard's whole lifetime.
//! * **Owned** — the guard is a pure token (its acquisition performs no
//!   atomic operation at all; see `guard_elisions` in `cqs-stats`).
//!   Protection is *per pointer load*, through a striped borrow counter that
//!   is held only for the few instructions between reading the raw pointer
//!   and incrementing the strong count.
//!
//! # What a load returns, and how long it lasts
//!
//! An owned `Arc` (`load`, `swap`, `take`), or a
//! [`Protected`](crate::Protected) borrowing the guard it was read under:
//! it may outlive the cell being overwritten or emptied *through a guard*,
//! not the guard's borrow. Until then its pointee is kept alive by:
//!
//! * **Epoch** — the pin: writes retire what they displace, and no
//!   deferred drop runs while the guard pins the thread. The immediate
//!   releases — dropping the cell, `take_mut`, `clear_mut` — are **not**
//!   covered; the borrow checker keeps them away: `load_protected` borrows
//!   the cell, and `follow`, reading a cell *inside* a pinned pointee,
//!   need not — `&mut` on that cell takes sole ownership of the pointee,
//!   and the reference the pin keeps unreleased (in its cell, or retired)
//!   is a second owner. Segment recycling (`Arc::get_mut` in `cqs-core`)
//!   is vetoed by that same reference.
//! * **Owned** — a strong reference of its own, taken inside the load's
//!   protected window; a stalled guard pins nothing.
//!
//! Code must not cache a raw pointer from `load_ptr` and dereference it
//! later under any backend; `load_ptr` is for identity comparisons only.

use crate::epoch::EpochGuard;
use crate::owned::OwnedGuard;
use crate::reclaimer::ReclaimerKind;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Witness that the current thread may operate on [`crate::AtomicArc`]
/// cells, with backend-specific protection semantics (see the module
/// documentation). Obtain one from [`crate::pin`] (epoch),
/// [`crate::pin_with`] (any backend) or a [`crate::LocalHandle`].
///
/// All threads collaborating on one cell must use guards of the **same**
/// backend (and, for epoch, the same collector): the load protocol of one
/// backend only synchronizes with the retire protocol of the same backend.
pub struct Guard<'a> {
    pub(crate) inner: GuardInner<'a>,
}

pub(crate) enum GuardInner<'a> {
    Epoch(EpochGuard<'a>),
    #[allow(dead_code)] // the token is carried for uniformity; never read
    Owned(OwnedGuard),
}

impl<'a> Guard<'a> {
    pub(crate) fn from_epoch(inner: EpochGuard<'a>) -> Self {
        Guard {
            inner: GuardInner::Epoch(inner),
        }
    }

    /// Which reclamation backend issued this guard.
    pub fn kind(&self) -> ReclaimerKind {
        match &self.inner {
            GuardInner::Epoch(_) => ReclaimerKind::Epoch,
            GuardInner::Owned(_) => ReclaimerKind::Owned,
        }
    }

    /// Defers `f` until the backend can prove no concurrent reader is
    /// still inside a protected window that predates this call.
    ///
    /// * **Epoch**: runs after a full grace period — once every thread
    ///   pinned at the time of this call has unpinned (the historical
    ///   `Guard::defer` contract).
    /// * **Owned**: runs once the striped borrow counters have all been
    ///   observed at zero, i.e. no load is mid-window. Owned guards
    ///   themselves do not delay it — their lifetime carries no
    ///   protection.
    pub fn defer<F: FnOnce() + Send + 'static>(&self, f: F) {
        self.retire(Retired::from_closure(f));
    }

    /// Hands a retired object to the backend that issued this guard.
    pub(crate) fn retire(&self, entry: Retired) {
        match &self.inner {
            GuardInner::Epoch(g) => g.retire(entry),
            GuardInner::Owned(_) => crate::owned::retire(entry),
        }
    }
}

impl std::fmt::Debug for Guard<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Guard").field("kind", &self.kind()).finish()
    }
}

/// A type-erased retired object: a thin pointer plus the monomorphized
/// function that releases it. Two machine words, no allocation — every
/// backend queues displaced `Arc` references in this form (epoch bins,
/// the owned-slot limbo), so retiring a reference costs the structure
/// nothing beyond the push. Only a [`Guard::defer`] closure allocates: one
/// box to give its captures a thin pointer.
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
    /// The backend must have established that no protected reader from
    /// before the object was retired can still dereference `ptr`.
    pub(crate) unsafe fn reclaim(self) {
        // SAFETY: forwarded contract; `new`/`from_closure` guarantee the
        // (ptr, drop_fn) pairing is the original one.
        unsafe { (self.drop_fn)(self.ptr) }
    }
}

/// Subtracts a drain's entry count from a backend's retired gauge when
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
