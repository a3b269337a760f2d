#![warn(missing_docs)]

//! # CQS — fair and abortable synchronization for Rust
//!
//! A from-scratch Rust implementation of the **CancellableQueueSynchronizer
//! (CQS)** framework from *"CQS: A Formally-Verified Framework for Fair and
//! Abortable Synchronization"* (PLDI 2023), together with every
//! synchronization primitive the paper builds on it:
//!
//! * [`Semaphore`], [`Mutex`] / [`RawMutex`] — fair FIFO handoff,
//!   non-blocking `try_*` siblings, abortable waiting;
//! * [`Barrier`] / [`CyclicBarrier`] and [`CountDownLatch`];
//! * [`QueuePool`] / [`StackPool`] — blocking pools of shared resources;
//! * [`Cqs`] itself, for building new primitives in a few lines each.
//!
//! Waiters are represented as [`CqsFuture`]s, which can be waited on
//! synchronously, awaited as standard Rust futures (see [`exec`] for a
//! coroutine executor that runs them) — and **cancelled** at any time at
//! amortized constant cost, the paper's key contribution.
//!
//! ## Quickstart
//!
//! ```
//! use std::sync::Arc;
//! use cqs::Semaphore;
//!
//! let semaphore = Arc::new(Semaphore::new(2));
//!
//! // Fair, abortable acquisition:
//! let permit = semaphore.acquire();
//! permit.wait().unwrap();
//! semaphore.release();
//!
//! // Abort a waiting acquisition (e.g. on timeout):
//! semaphore.acquire().wait().unwrap();
//! semaphore.acquire().wait().unwrap(); // both permits taken
//! let waiting = semaphore.acquire();
//! assert!(waiting.cancel()); // O(1) amortized, queue stays healthy
//! # semaphore.release(); semaphore.release();
//! ```
//!
//! ## Crate map
//!
//! This facade re-exports the workspace crates:
//! `cqs-core` (the framework), `cqs-sync` (primitives), `cqs-pool`
//! (blocking pools), `cqs-channel` (MPMC channels, see [`channels`]),
//! `cqs-future` (the future model), `cqs-exec`
//! (a coroutine executor), `cqs-reclaim` (epoch-based reclamation +
//! `AtomicArc`)
//! and `cqs-baseline` (AQS, CLH, MCS, blocking queues — the paper's
//! comparison targets, exposed under [`baseline`]).

pub use cqs_core::{
    CancellationMode, Cancelled, Cqs, CqsCallbacks, CqsConfig, CqsFuture, FutureState, Request,
    ResumeMode, SimpleCancellation, Suspend,
};
pub use cqs_pool::{
    BlockingPool, PoolBackend, QueueBackend, QueuePool, ShardedPool, ShardedQueuePool,
    ShardedStackPool, StackBackend, StackPool,
};
pub use cqs_sync::{
    Barrier, BarrierFuture, BarrierGuard, CountDownGuard, CountDownLatch, CyclicBarrier,
    ExcessRelease, LockError, Mutex, MutexGuard, RawMutex, RawRwLock, RwLockFuture, Semaphore,
    SemaphoreGuard, ShardedSemaphore, ShardedSemaphoreGuard, SimpleCancelLatch,
};

pub use cqs_channel::{ChannelRecv, ChannelSend, CqsChannel, RecvError, SendError};

/// Segment-native MPMC channels (rendezvous / bounded / unbounded) built
/// directly on CQS — see `crates/channel`. The flat re-exports
/// [`CqsChannel`], [`ChannelSend`], [`ChannelRecv`], [`SendError`] and
/// [`RecvError`] cover the common surface.
pub mod channels {
    pub use cqs_channel::{ChannelRecv, ChannelSend, CqsChannel, RecvError, SendError};
}

/// The coroutine executor used by the paper's Kotlin-coroutines experiments
/// and by applications that multiplex many waiters over few threads.
pub mod exec {
    pub use cqs_exec::{block_on, yield_now, Executor};
}

/// Epoch-based memory reclamation and atomic `Arc` cells (the GC
/// substitute).
pub mod reclaim {
    pub use cqs_reclaim::{flush, pin, retired_approx, AtomicArc, Collector, Guard, LocalHandle};
}

/// Runtime-health watchdog: stall detection, wait-graph deadlock
/// diagnostics, and abort-based recovery through CQS cancellation. Inert
/// (and every registration site compiles to nothing) unless the `watch`
/// feature is enabled; see `crates/watch`.
pub mod watch {
    pub use cqs_watch::{enabled, next_primitive_id, spawn_from_env, WaiterHandle, Watchdog};

    #[cfg(feature = "watch")]
    pub use cqs_watch::{
        detect_cycles, dropped_registrations, live_waiters, CycleEdge, GaugeInfo, HolderInfo,
        QueueDepth, ReportKind, Scanner, WaiterInfo, WatchConfig, WatchPolicy, WatchReport,
    };
}

/// The baseline synchronizers the paper compares against (AQS port, CLH,
/// MCS, blocking queues, the legacy Kotlin-style mutex).
pub mod baseline {
    pub use cqs_baseline::{
        Aqs, AqsLatch, AqsLock, AqsSemaphore, ArrayBlockingQueue, ClhGuard, ClhLock, Condition,
        LegacyMutex, LinkedBlockingQueue, LockBarrier, McsGuard, McsLock, SpinBarrier,
        Synchronizer,
    };
}
