#![warn(missing_docs)]

//! # `cqs-core` — the CancellableQueueSynchronizer
//!
//! A from-scratch Rust implementation of the CQS framework from *"CQS: A
//! Formally-Verified Framework for Fair and Abortable Synchronization"*
//! (PLDI 2023): a FIFO queue of waiters with O(1) suspension, resumption
//! and — crucially — cancellation, on top of which fair synchronization
//! primitives (mutexes, semaphores, barriers, latches, pools) are built in a
//! few lines each.
//!
//! The infinite array is emulated by a linked list of fixed-size cell
//! segments; segments whose cells are all cancelled are physically unlinked
//! in O(1), so memory consumption is proportional to the number of *live*
//! waiters. See [`Cqs`] for the entry point and the `cqs-sync` / `cqs-pool`
//! crates for the primitives.
//!
//! ## Choosing modes
//!
//! * [`ResumeMode::Asynchronous`] (default) unless the primitive exposes
//!   non-blocking `try_*` operations, which require
//!   [`ResumeMode::Synchronous`].
//! * [`CancellationMode::Simple`] gives failing resumes; the caller
//!   restarts. [`CancellationMode::Smart`] skips cancelled waiters in O(1)
//!   but requires the primitive to implement [`CqsCallbacks`].
//!
//! ## Example: a tiny fair mutex (paper, Listing 2)
//!
//! ```
//! use std::sync::atomic::{AtomicI64, Ordering};
//! use cqs_core::{Cqs, CqsConfig, SimpleCancellation};
//!
//! struct Mutex {
//!     state: AtomicI64, // 1 => unlocked, w <= 0 => locked with -w waiters
//!     cqs: Cqs<()>,
//! }
//!
//! let mutex = Mutex {
//!     state: AtomicI64::new(1),
//!     cqs: Cqs::new(CqsConfig::new(), SimpleCancellation),
//! };
//!
//! // lock():
//! if mutex.state.fetch_sub(1, Ordering::SeqCst) != 1 {
//!     mutex.cqs.suspend().expect_future().wait().unwrap();
//! }
//! // ... critical section ...
//! // unlock():
//! if mutex.state.fetch_add(1, Ordering::SeqCst) != 0 {
//!     mutex.cqs.resume(()).unwrap();
//! }
//! ```

mod cell;
mod config;
mod cqs;
mod segment;
pub mod shard;

pub use config::{CancellationMode, CqsConfig, ResumeMode};
pub use cqs::{Cqs, CqsCallbacks, SimpleCancellation, Suspend};

// Re-export the future vocabulary so primitives only need one dependency.
pub use cqs_future::{Cancelled, CqsFuture, FutureState, Request};

#[cfg(test)]
mod tests;

/// # Progress guarantees (paper, Appendix E)
///
/// Following the dual-data-structures convention, an operation's progress
/// is judged on the synchronization it performs before returning its
/// future, independent of the logical suspension.
///
/// ## `Cqs::suspend`
///
/// Wait-free: one fetch-and-add, a bounded segment search, and one CAS
/// (plus one `GetAndSet` on the elimination path).
///
/// ## `Cqs::resume`
///
/// | cancellation | resumption | guarantee |
/// |---|---|---|
/// | none in flight | either | wait-free |
/// | simple | either | wait-free (fails fast on cancelled cells) |
/// | smart | asynchronous | lock-free: an unbounded stream of suspend-and-immediately-cancel operations can force repeated skips, but each retry means another operation completed |
/// | smart | synchronous | blocking: the resumer may wait for the cancelling thread's handler to pick `CANCELLED` or `REFUSE` |
///
/// The guarantee additionally degrades to that of the user-supplied
/// [`CqsCallbacks::complete_refused_resume`] when refusals occur.
///
/// ## Cancellation (`CqsFuture::cancel`)
///
/// Lock-free: the segment-removal procedure is lock-free, and in smart
/// asynchronous mode the handler may have to perform a (lock-free)
/// delegated `resume`. With synchronous resumption the handler never calls
/// `resume`, making the cell-side cancellation wait-free.
///
/// ## Primitives
///
/// * Barrier: wait-free (no cancellation, asynchronous resumption).
/// * Count-down latch: `await` wait-free; `count_down` wait-free — the
///   `DONE_BIT` CAS can fail at most once per concurrent `await`.
/// * Semaphore / mutex: wait-free without cancellation in asynchronous
///   mode; obstruction-free in synchronous mode (suspend/resume can break
///   each other's cells and restart); lock-free under cancellation.
/// * Pools: `try_insert`/`try_retrieve` wait-free (queue backend) or
///   lock-free (stack backend); the put/take counter loops are
///   obstruction-free under element races, as in the paper.
pub mod progress {}
