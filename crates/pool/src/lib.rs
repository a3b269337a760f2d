#![warn(missing_docs)]

//! # `cqs-pool` — blocking pools of shared resources on top of CQS
//!
//! A *blocking pool* maintains a set of expensive, reusable elements
//! (database connections, sockets, buffers): [`BlockingPool::take`]
//! retrieves one or suspends until somebody returns one;
//! [`BlockingPool::put`] hands an element to the first waiting taker or
//! stores it. Waiting takers are served in FIFO order and may abort at any
//! time; elements are never lost (paper, §4.4 and Appendix D,
//! Listings 17/18).
//!
//! Two storage backends are provided:
//!
//! * [`QueueBackend`] (use via [`QueuePool`]) — an infinite-array queue,
//!   fetch-and-add on the contended path, the faster option. It runs on
//!   `cqs-core`'s segment list, the CQS's own, and is re-exported here;
//! * [`StackBackend`] (use via [`StackPool`]) — a Treiber stack returning
//!   the most recently used ("hottest") element.
//!
//! Both pools are *not* linearizable — under races elements can be handed
//! out slightly out of order — which is fine for a pool, whose contents are
//! unordered by contract.
//!
//! # Example
//!
//! ```
//! use cqs_pool::QueuePool;
//!
//! let pool: QueuePool<String> = QueuePool::new();
//! pool.put("conn-a".to_string());
//! pool.put("conn-b".to_string());
//!
//! let conn = pool.take().wait().unwrap();
//! // ... use the connection ...
//! pool.put(conn);
//! ```

mod backend;
mod sharded;

pub use backend::StackBackend;
pub use cqs_core::shard::MAX_DEFAULT_SHARDS;
pub use cqs_core::{PoolBackend, QueueBackend};
pub use sharded::{ShardedPool, ShardedQueuePool, ShardedStackPool};

use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::{Arc, Weak};

use cqs_core::shard::{RefusalHook, Shard};
use cqs_core::{CancellationMode, Cqs, CqsCallbacks, CqsConfig, CqsFuture, Suspend};

/// A pool over the queue backend: elements come back in insertion order.
pub type QueuePool<E> = BlockingPool<E, QueueBackend<E>>;

/// A pool over the stack backend: the most recently returned element is
/// handed out first.
pub type StackPool<E> = BlockingPool<E, StackBackend<E>>;

struct PoolShared<E: Send + 'static, B: PoolBackend<E>> {
    /// `size >= 0`: elements stored; `size < 0`: waiting takers (negated).
    size: AtomicI64,
    backend: B,
    cqs: Cqs<E, PoolCallbacks<E, B>>,
}

/// Smart-cancellation hooks of the abstract pool (paper, Listing 17).
///
/// Holds a weak reference to the pool internals: a strong one would form a
/// permanent `Cqs -> callbacks -> pool -> Cqs` cycle. If a refused
/// resumption arrives after the pool was dropped, the element is dropped
/// with it.
struct PoolCallbacks<E: Send + 'static, B: PoolBackend<E>> {
    shared: Weak<PoolShared<E, B>>,
    /// Invoked after a refusal has fully settled (element back in this
    /// shard's store); see [`RefusalHook`].
    on_refusal: Option<RefusalHook>,
}

impl<E: Send + 'static, B: PoolBackend<E>> CqsCallbacks<E> for PoolCallbacks<E, B> {
    fn on_cancellation(&self) -> bool {
        let Some(shared) = self.shared.upgrade() else {
            // Pool dropped: treat the waiter as plainly removed.
            return true;
        };
        // Identical to the semaphore: deregister the waiter, or refuse the
        // incoming resume if a put() already committed to it.
        let s = shared.size.fetch_add(1, Ordering::SeqCst);
        s < 0
    }

    fn complete_refused_resume(&self, element: E) {
        if let Some(shared) = self.shared.upgrade() {
            // Return the refused element to the pool (paper: `if
            // !tryInsert(e): put(e)`).
            if let Err(element) = shared.backend.try_insert(element) {
                shared.put(element);
            }
            if let Some(hook) = &self.on_refusal {
                hook();
            }
        }
    }
}

/// A blocking pool of shared elements (see the crate docs).
///
/// Cloning is cheap and yields another handle to the same pool.
pub struct BlockingPool<E: Send + 'static, B: PoolBackend<E>> {
    shared: Arc<PoolShared<E, B>>,
}

impl<E: Send + 'static, B: PoolBackend<E>> Clone for BlockingPool<E, B> {
    fn clone(&self) -> Self {
        BlockingPool {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl<E: Send + 'static, B: PoolBackend<E> + Default> BlockingPool<E, B> {
    /// Creates an empty pool with a default-constructed backend.
    pub fn new() -> Self {
        Self::with_backend_config(B::default(), "pool.take", None)
    }
}

impl<E: Send + 'static, B: PoolBackend<E> + Default> Default for BlockingPool<E, B> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E: Send + 'static, B: PoolBackend<E>> BlockingPool<E, B> {
    /// Builds a shard of a sharded pool: the watchdog label distinguishes
    /// shard queues in stall reports; `on_refusal` is what
    /// [`cqs_core::shard::Sharded::new`] hands each shard.
    pub(crate) fn with_backend_config(
        backend: B,
        label: &'static str,
        on_refusal: Option<RefusalHook>,
    ) -> Self {
        let config = CqsConfig::new()
            .cancellation_mode(CancellationMode::Smart)
            .label(label);
        let shared = Arc::new_cyclic(|weak: &Weak<PoolShared<E, B>>| PoolShared {
            size: AtomicI64::new(0),
            backend,
            cqs: Cqs::new(
                config,
                PoolCallbacks {
                    shared: Weak::clone(weak),
                    on_refusal,
                },
            ),
        });
        BlockingPool { shared }
    }

    /// A racy snapshot of the number of stored elements (zero if takers are
    /// waiting).
    pub fn len(&self) -> usize {
        self.shared.size.load(Ordering::SeqCst).max(0) as usize
    }

    /// Whether no elements are currently stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Watchdog id keying this pool's waiter records and its size gauge in
    /// cqs-watch reports. Always `0` when the `watch` feature is off.
    pub fn watch_id(&self) -> u64 {
        self.shared.cqs.watch_id()
    }

    /// Returns `element` to the pool, handing it directly to the first
    /// waiting [`take`](Self::take) if there is one.
    pub fn put(&self, element: E) {
        self.shared.put(element);
    }

    /// Returns a whole batch of elements at once: a single `fetch_add` on
    /// the size word, and every waiting taker the batch covers is served in
    /// **one** batched CQS traversal ([`cqs_core::Cqs::resume_n`]) whose
    /// wake-ups fire only after the sweep. Leftover elements are stored in
    /// the backend. The bulk analogue of calling [`put`](Self::put) per
    /// element — useful when refilling a drained pool (e.g. re-seeding
    /// connections after a reconnect) with many takers parked.
    pub fn put_many(&self, elements: impl IntoIterator<Item = E>) {
        self.shared.put_many(elements.into_iter().collect());
    }

    /// Retrieves an element: immediately if one is stored, otherwise the
    /// returned future completes when a [`put`](Self::put) hands one over
    /// (FIFO among waiting takers). Cancel the future to abort waiting.
    pub fn take(&self) -> CqsFuture<E> {
        let shared = &self.shared;
        loop {
            // Fail fast on a closed pool before touching `size`; past this
            // check a racing `close()` is settled by the CQS itself.
            if shared.cqs.is_closed() {
                return CqsFuture::cancelled();
            }
            let s = shared.size.fetch_sub(1, Ordering::SeqCst);
            cqs_watch::gauge!(shared.cqs.watch_id(), "size", s - 1);
            if s > 0 {
                // An element should be there; a racing put() that announced
                // itself but has not inserted yet makes us restart.
                if let Some(element) = shared.backend.try_retrieve() {
                    cqs_stats::bump!(immediate_hits);
                    return CqsFuture::immediate(element);
                }
            } else {
                match shared.cqs.suspend() {
                    Suspend::Future(f) => return f,
                    Suspend::Broken => {
                        unreachable!("pool uses asynchronous resumption; cells never break")
                    }
                }
            }
        }
    }

    /// A racy snapshot of the number of takers currently queued (zero if
    /// elements are stored).
    pub fn waiting_takers(&self) -> usize {
        (-self.shared.size.load(Ordering::SeqCst)).max(0) as usize
    }

    /// Number of live queue segments backing this pool's taker queue
    /// (diagnostics; the soak scenario tracks it to prove memory stays
    /// proportional to live waiters).
    pub fn live_segments(&self) -> usize {
        self.shared.cqs.live_segments()
    }

    /// Closes the pool: every waiting taker is woken with an error (its
    /// future reports [`cqs_core::Cancelled`]) and every subsequent
    /// [`take`](Self::take) fails fast without queuing. Stored elements
    /// stay in the pool and [`put`](Self::put) keeps working, so owners of
    /// checked-out elements can still return them for orderly teardown.
    /// Closing twice is a no-op.
    pub fn close(&self) {
        self.shared.cqs.close();
    }

    /// Whether [`close`](Self::close) was called.
    pub fn is_closed(&self) -> bool {
        self.shared.cqs.is_closed()
    }
}

/// A pool is a shard whose items are its elements. `bank` / `bank_many`
/// are [`put`](BlockingPool::put) / [`put_many`](BlockingPool::put_many)
/// reporting whether the elements were stored or handed to takers, which
/// the sharding layer runs its migration scan off.
impl<E: Send + 'static, B: PoolBackend<E>> Shard for BlockingPool<E, B> {
    type Item = E;

    /// Weak because an element a racing [`put`](BlockingPool::put) has
    /// announced but not yet inserted is invisible — `None` does not prove
    /// the pool was empty at any single instant. When the CAS wins but the
    /// paired insert broke (the backend's restart protocol), the retry loop
    /// simply runs again: the racing `put` restarts with a fresh size
    /// increment, so the accounting stays balanced.
    fn try_take_weak(&self) -> Option<E> {
        loop {
            let mut s = self.shared.size.load(Ordering::SeqCst);
            loop {
                if s <= 0 {
                    return None;
                }
                match self.shared.size.compare_exchange(
                    s,
                    s - 1,
                    Ordering::SeqCst,
                    Ordering::SeqCst,
                ) {
                    Ok(_) => break,
                    Err(actual) => s = actual,
                }
            }
            cqs_watch::gauge!(self.shared.cqs.watch_id(), "size", s - 1);
            if let Some(element) = self.shared.backend.try_retrieve() {
                return Some(element);
            }
            // The announced element's insert broke; its put() re-increments
            // and re-inserts, so retry from a fresh size read.
        }
    }

    fn park(&self) -> CqsFuture<E> {
        self.take()
    }

    fn bank(&self, element: E) -> bool {
        self.shared.put(element)
    }

    fn bank_many(&self, elements: Vec<E>) -> usize {
        self.shared.put_many(elements)
    }

    fn banked(&self) -> usize {
        self.len()
    }

    fn waiting(&self) -> usize {
        self.waiting_takers()
    }

    fn close(&self) {
        BlockingPool::close(self);
    }

    fn is_closed(&self) -> bool {
        BlockingPool::is_closed(self)
    }

    fn live_segments(&self) -> usize {
        BlockingPool::live_segments(self)
    }

    fn watch_id(&self) -> u64 {
        BlockingPool::watch_id(self)
    }
}

impl<E: Send + 'static, B: PoolBackend<E>> PoolShared<E, B> {
    /// Returns `true` if the element was stored in the backend, `false`
    /// if it was handed to a waiting taker. The decision comes from the
    /// put's own `fetch_add`, never from a `waiting_takers()` snapshot —
    /// a taker counted beforehand may cancel concurrently (its
    /// `on_cancellation` increments the size word first), turning the
    /// would-be handoff into a store. The sharded pool keys its migration
    /// scan off this.
    fn put(&self, mut element: E) -> bool {
        loop {
            let s = self.size.fetch_add(1, Ordering::SeqCst);
            cqs_watch::gauge!(self.cqs.watch_id(), "size", s + 1);
            if s < 0 {
                // Resume the first waiting taker; with smart cancellation
                // and asynchronous resumption this cannot fail.
                self.cqs
                    .resume(element)
                    .unwrap_or_else(|_| unreachable!("smart async resume cannot fail"));
                return false;
            }
            match self.backend.try_insert(element) {
                Ok(()) => return true,
                // A racing take() discovered our increment but broke the
                // slot; its decrement and our increment cancel out, restart.
                Err(e) => element = e,
            }
        }
    }

    /// Returns how many of the elements were stored rather than handed to
    /// waiting takers (see [`put`](PoolShared::put) for why a snapshot
    /// cannot provide this).
    fn put_many(&self, elements: Vec<E>) -> usize {
        let k = elements.len() as i64;
        if k == 0 {
            return 0;
        }
        let s = self.size.fetch_add(k, Ordering::SeqCst);
        cqs_watch::gauge!(self.cqs.watch_id(), "size", s + k);
        // Exactly the increments that landed below zero belong to waiting
        // takers; serve them all in one batched traversal.
        let to_waiters = (-s).clamp(0, k) as usize;
        let mut elements = elements.into_iter();
        if to_waiters > 0 {
            let failed = self
                .cqs
                .resume_n(elements.by_ref().take(to_waiters), to_waiters);
            debug_assert!(failed.is_empty(), "smart async resume cannot fail");
        }
        let mut stored = 0;
        for element in elements {
            // The remaining increments announced stored elements; insert
            // them. A broken slot means a racing take() absorbed this
            // element's increment — `put` restarts with a fresh one.
            match self.backend.try_insert(element) {
                Ok(()) => stored += 1,
                Err(e) => stored += usize::from(self.put(e)),
            }
        }
        stored
    }
}

impl<E: Send + 'static, B: PoolBackend<E>> std::fmt::Debug for BlockingPool<E, B> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BlockingPool")
            .field("size", &self.shared.size.load(Ordering::Relaxed))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::AtomicUsize;

    fn put_take_roundtrip<B: PoolBackend<u64> + Default>() {
        let pool: BlockingPool<u64, B> = BlockingPool::new();
        assert!(pool.is_empty());
        pool.put(1);
        pool.put(2);
        assert_eq!(pool.len(), 2);
        let a = pool.take().wait().unwrap();
        let b = pool.take().wait().unwrap();
        assert_eq!([a, b].iter().collect::<HashSet<_>>().len(), 2);
        assert!(pool.is_empty());
    }

    #[test]
    fn queue_pool_roundtrip() {
        put_take_roundtrip::<QueueBackend<u64>>();
    }

    #[test]
    fn stack_pool_roundtrip() {
        put_take_roundtrip::<StackBackend<u64>>();
    }

    #[test]
    fn take_suspends_until_put() {
        let pool: Arc<QueuePool<u64>> = Arc::new(QueuePool::new());
        let mut f = pool.take();
        assert_eq!(f.try_get(), cqs_core::FutureState::Pending);
        pool.put(42);
        assert_eq!(f.wait(), Ok(42));
    }

    #[test]
    fn waiting_takers_are_fifo() {
        let pool: QueuePool<u64> = QueuePool::new();
        let f1 = pool.take();
        let f2 = pool.take();
        pool.put(1);
        pool.put(2);
        assert_eq!(f1.wait(), Ok(1));
        assert_eq!(f2.wait(), Ok(2));
    }

    #[test]
    fn stack_pool_returns_hottest_element() {
        let pool: StackPool<u64> = StackPool::new();
        pool.put(1);
        pool.put(2);
        assert_eq!(pool.take().wait(), Ok(2), "stack pool must be LIFO");
    }

    #[test]
    fn cancelled_taker_is_skipped() {
        let pool: QueuePool<u64> = QueuePool::new();
        let f1 = pool.take();
        let f2 = pool.take();
        assert!(f1.cancel());
        pool.put(9);
        assert_eq!(f2.wait(), Ok(9));
    }

    #[test]
    fn refused_resume_returns_element_to_pool() {
        for _ in 0..100 {
            let pool: Arc<QueuePool<u64>> = Arc::new(QueuePool::new());
            let f = pool.take();
            let p2 = Arc::clone(&pool);
            let putter = std::thread::spawn(move || p2.put(5));
            if !f.cancel() {
                // The put resumed us first; return the element.
                pool.put(f.wait().unwrap());
            }
            putter.join().unwrap();
            // Whatever the interleaving, the element must be retrievable.
            assert_eq!(pool.take().wait(), Ok(5));
        }
    }

    #[test]
    fn elements_conserved_under_concurrency() {
        const THREADS: usize = 8;
        const ELEMENTS: u64 = 4;
        const OPS: usize = 2_000;
        let pool: Arc<QueuePool<u64>> = Arc::new(QueuePool::new());
        for e in 0..ELEMENTS {
            pool.put(e);
        }
        let held = Arc::new(AtomicUsize::new(0));
        let mut joins = Vec::new();
        for _ in 0..THREADS {
            let pool = Arc::clone(&pool);
            let held = Arc::clone(&held);
            joins.push(std::thread::spawn(move || {
                for _ in 0..OPS {
                    let e = pool.take().wait().unwrap();
                    let now = held.fetch_add(1, Ordering::SeqCst) + 1;
                    assert!(now <= ELEMENTS as usize, "more elements in use than exist");
                    held.fetch_sub(1, Ordering::SeqCst);
                    pool.put(e);
                }
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
        // All elements are back and distinct.
        let mut back = HashSet::new();
        for _ in 0..ELEMENTS {
            back.insert(pool.take().wait().unwrap());
        }
        assert_eq!(back.len(), ELEMENTS as usize, "elements lost or duplicated");
    }

    #[test]
    fn conservation_with_cancellation_storm() {
        const THREADS: usize = 6;
        const ELEMENTS: u64 = 2;
        const OPS: usize = 1_500;
        let pool: Arc<StackPool<u64>> = Arc::new(StackPool::new());
        for e in 0..ELEMENTS {
            pool.put(e);
        }
        let mut joins = Vec::new();
        for t in 0..THREADS {
            let pool = Arc::clone(&pool);
            joins.push(std::thread::spawn(move || {
                for i in 0..OPS {
                    let f = pool.take();
                    if (i + t) % 3 == 0 && f.cancel() {
                        continue;
                    }
                    let e = f.wait().unwrap();
                    pool.put(e);
                }
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
        let mut back = HashSet::new();
        for _ in 0..ELEMENTS {
            back.insert(pool.take().wait().unwrap());
        }
        assert_eq!(back.len(), ELEMENTS as usize, "elements lost or duplicated");
    }

    /// `put_many` serves every parked taker in one batched traversal and
    /// stores the leftovers.
    #[test]
    fn put_many_serves_waiters_and_stores_the_rest() {
        let pool: QueuePool<u64> = QueuePool::new();
        let f1 = pool.take();
        let f2 = pool.take();
        pool.put_many([10, 11, 12, 13]);
        assert_eq!(f1.wait(), Ok(10), "takers are FIFO");
        assert_eq!(f2.wait(), Ok(11));
        assert_eq!(pool.len(), 2, "leftovers are stored");
        let mut rest = HashSet::new();
        rest.insert(pool.take().wait().unwrap());
        rest.insert(pool.take().wait().unwrap());
        assert_eq!(rest, HashSet::from([12, 13]));
        pool.put_many(std::iter::empty()); // no-op
        assert!(pool.is_empty());
    }

    /// Batched refills racing concurrent takers never lose or duplicate an
    /// element.
    #[test]
    fn put_many_conserves_elements_under_concurrency() {
        const TAKERS: usize = 4;
        const ROUNDS: usize = 250;
        const BATCH: usize = 8;
        let pool: Arc<QueuePool<u64>> = Arc::new(QueuePool::new());
        let mut joins = Vec::new();
        for _ in 0..TAKERS {
            let pool = Arc::clone(&pool);
            joins.push(std::thread::spawn(move || {
                let mut sum = 0u64;
                for _ in 0..ROUNDS * BATCH / TAKERS {
                    sum += pool.take().wait().unwrap();
                }
                sum
            }));
        }
        let putter = {
            let pool = Arc::clone(&pool);
            std::thread::spawn(move || {
                for r in 0..ROUNDS as u64 {
                    let base = r * BATCH as u64;
                    pool.put_many(base..base + BATCH as u64);
                }
            })
        };
        putter.join().unwrap();
        let total: u64 = joins.into_iter().map(|j| j.join().unwrap()).sum();
        let n = (ROUNDS * BATCH) as u64;
        assert_eq!(total, n * (n - 1) / 2, "elements lost or duplicated");
        assert!(pool.is_empty());
    }

    #[test]
    fn close_wakes_takers_and_keeps_elements() {
        let pool: QueuePool<u64> = QueuePool::new();
        pool.put(7);
        let _ = pool.take().wait().unwrap();
        let waiter = pool.take();
        assert!(!pool.is_closed());
        pool.close();
        assert!(pool.is_closed());
        assert!(
            waiter.wait().is_err(),
            "queued taker must be woken with an error"
        );
        assert!(
            pool.take().wait().is_err(),
            "take after close must fail fast"
        );
        // A checked-out element can still come home after close.
        pool.put(7);
        assert_eq!(pool.len(), 1);
        pool.close(); // double close is a no-op
    }

    #[test]
    fn dropping_pool_with_waiters_is_safe() {
        let pool: QueuePool<u64> = QueuePool::new();
        let futures: Vec<_> = (0..4).map(|_| pool.take()).collect();
        drop(pool);
        for f in futures {
            let _ = f.cancel();
        }
    }
}
