#![warn(missing_docs)]

//! Pluggable memory reclamation and atomically swappable [`std::sync::Arc`] cells.
//!
//! The CQS paper assumes a garbage-collected runtime (the JVM): segments of
//! the waiter queue are unlinked with plain pointer manipulation and the
//! collector frees them once unreachable. A Rust reproduction must supply the
//! reclamation story itself. This crate provides it behind one seam — a
//! [`ReclaimerKind`] stamped per queue, dispatched by [`pin_with`],
//! [`flush_reclaimer`], [`retired_approx`] and the [`Guard`] it hands out —
//! with two interchangeable backends:
//!
//! * an **epoch-based reclamation engine** ([`Collector`], [`pin`]) in the
//!   style of classic epoch schemes: three logical epochs, per-thread
//!   participants, and deferred destruction that runs only after every
//!   thread pinned in an older epoch has moved on — the default;
//! * a GC-free **owned-slot backend** ([`ReclaimerKind::Owned`]) exploiting
//!   CQS structure: guards are free tokens, loads take a transient striped
//!   borrow, and displaced references are usually dropped on the spot — so
//!   a stalled guard defers nothing.
//!
//! Two because each wins something the other cannot: epoch's loads touch no
//! strong count, owned's garbage stays bounded behind a stalled guard. A
//! third backend was measured and deleted because owned dominated it end to
//! end (EXPERIMENTS.md, "Why there is no hazard backend"). The seam stays
//! so the structure is argued against the guard *contract*, not one
//! implementation of it.
//!
//! On top of whichever backend a [`Guard`] came from sits [`AtomicArc`], a
//! lock-free cell holding an `Option<Arc<T>>` that can be loaded, stored,
//! swapped and compare-exchanged concurrently; displaced references are
//! retired through the guard's backend, so a concurrent [`AtomicArc::load`]
//! can always safely increment the reference count it observed, and a
//! traversal can skip the count: [`AtomicArc::load_protected`] returns a
//! guard-scoped [`Protected`], under an epoch guard a plain borrow.
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use cqs_reclaim::{pin, pin_with, AtomicArc, ReclaimerKind};
//!
//! let cell = AtomicArc::new(Some(Arc::new(1)));
//! let guard = pin(); // epoch, the default backend
//! let old = cell.swap(Some(Arc::new(2)), &guard);
//! assert_eq!(*old.unwrap(), 1);
//! assert_eq!(*cell.load(&guard).unwrap(), 2);
//!
//! // A different cell can use a different backend — all threads touching
//! // one cell must agree on it.
//! let owned_cell = AtomicArc::new(Some(Arc::new(3)));
//! let guard = pin_with(ReclaimerKind::Owned);
//! assert_eq!(*owned_cell.load(&guard).unwrap(), 3);
//! ```

mod atomic_arc;
mod epoch;
mod guard;
mod owned;
mod reclaimer;

pub use atomic_arc::{AtomicArc, Protected};
pub use epoch::{flush, pin, Collector, LocalHandle};
pub use guard::Guard;
pub use reclaimer::{flush_reclaimer, pin_with, retired_approx, ReclaimerKind};

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    #[test]
    fn send_sync_bounds() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<AtomicArc<u32>>();
        assert_send_sync::<Collector>();
    }

    struct DropCounter(Arc<AtomicUsize>);
    impl Drop for DropCounter {
        fn drop(&mut self) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }

    #[test]
    fn deferred_drop_runs_exactly_once() {
        let collector = Collector::new();
        let drops = Arc::new(AtomicUsize::new(0));
        let handle = collector.register();
        {
            let guard = handle.pin();
            let counter = DropCounter(Arc::clone(&drops));
            guard.defer(move || drop(counter));
        }
        // Re-pinning repeatedly advances the epoch and flushes garbage.
        for _ in 0..64 {
            drop(handle.pin());
        }
        assert!(collector.flush());
        assert_eq!(drops.load(Ordering::SeqCst), 1);
    }
}
