#![warn(missing_docs)]

//! Epoch-based memory reclamation and atomically swappable
//! [`std::sync::Arc`] cells.
//!
//! The CQS paper assumes a garbage-collected runtime (the JVM): segments of
//! the waiter queue are unlinked with plain pointer manipulation and the
//! collector frees them once unreachable. A Rust reproduction must supply the
//! reclamation story itself. This crate provides it with one
//! **epoch-based reclamation engine** ([`Collector`], [`pin`]) in the style
//! of classic epoch schemes: three logical epochs, per-thread participants,
//! and deferred destruction that runs only after every thread pinned in an
//! older epoch has moved on. [`flush`] drains the default collector and
//! [`retired_approx`] reads its backlog.
//!
//! One engine, because the two alternatives measured against it never
//! dominated it end to end, and nothing a queue can observe says which one
//! it would need (EXPERIMENTS.md, "Why there is one backend" and "Why there
//! is no hazard backend"). The structure is argued against one guard
//! contract, documented on [`Guard`].
//!
//! On top of the [`Guard`] sits [`AtomicArc`], a lock-free cell holding an
//! `Option<Arc<T>>` that can be loaded, stored, swapped and
//! compare-exchanged concurrently; displaced references are retired through
//! the collector, so a concurrent [`AtomicArc::load`] can always safely
//! increment the reference count it observed, and a traversal can skip the
//! count: [`AtomicArc::load_protected`] returns a guard-scoped
//! [`Protected`], a plain borrow.
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use cqs_reclaim::{pin, AtomicArc};
//!
//! let cell = AtomicArc::new(Some(Arc::new(1)));
//! let guard = pin();
//! let old = cell.swap(Some(Arc::new(2)), &guard);
//! assert_eq!(*old.unwrap(), 1);
//! assert_eq!(*cell.load(&guard).unwrap(), 2);
//! ```

mod atomic_arc;
mod epoch;
mod guard;

pub use atomic_arc::{AtomicArc, Protected};
pub use epoch::{flush, pin, retired_approx, Collector, LocalHandle};
pub use guard::Guard;

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
