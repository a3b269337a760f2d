#![warn(missing_docs)]

//! # `cqs-sync` — fair, abortable synchronization primitives
//!
//! Implementations of the synchronization primitives from the CQS paper
//! (§4), each a thin layer of counter arithmetic over the
//! [`CancellableQueueSynchronizer`](cqs_core::Cqs):
//!
//! * [`Semaphore`] — fair counting semaphore (paper §4.3, Listing 16), in
//!   asynchronous and synchronous (supporting
//!   [`try_acquire`](Semaphore::try_acquire)) flavours;
//! * [`RawMutex`] / [`Mutex`] — fair mutual exclusion with `try_lock`
//!   (paper Listings 2, 4, 12);
//! * [`Barrier`] / [`CyclicBarrier`] — rendezvous of a fixed party count
//!   (paper §4.1, Listing 6);
//! * [`CountDownLatch`] — waiting for a set of operations to complete
//!   (paper §4.2, Listing 7), plus [`SimpleCancelLatch`] for the
//!   cancellation-mode ablation.
//!
//! All primitives hand waiters their wake-ups in FIFO order and support
//! aborting a waiting request at any time (where semantically possible) in
//! amortized constant time.
//!
//! ## Quickstart
//!
//! ```
//! use std::sync::Arc;
//! use cqs_sync::Semaphore;
//!
//! let semaphore = Arc::new(Semaphore::new(4));
//! let workers: Vec<_> = (0..16)
//!     .map(|_| {
//!         let semaphore = Arc::clone(&semaphore);
//!         std::thread::spawn(move || {
//!             let _permit = semaphore.acquire_blocking().unwrap();
//!             // at most 4 workers run this section concurrently
//!         })
//!     })
//!     .collect();
//! for w in workers {
//!     w.join().unwrap();
//! }
//! ```

mod barrier;
mod latch;
mod mutex;
mod rwlock;
mod semaphore;
mod sharded;

pub use barrier::{Barrier, BarrierFuture, BarrierGuard, CyclicBarrier};
pub use cqs_core::shard::MAX_DEFAULT_SHARDS;
pub use latch::{CountDownGuard, CountDownLatch, SimpleCancelLatch};
pub use mutex::{LockError, Mutex, MutexGuard, RawMutex};
pub use rwlock::{RawRwLock, RwLockFuture};
pub use semaphore::{ExcessRelease, Semaphore, SemaphoreGuard};
pub use sharded::{ShardedSemaphore, ShardedSemaphoreGuard, DEFAULT_REBALANCE_INTERVAL};

// Re-export the future vocabulary users interact with.
pub use cqs_core::{Cancelled, CqsFuture, FutureState};
