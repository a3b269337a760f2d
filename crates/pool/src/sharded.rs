//! A sharded blocking pool: N per-shard CQS-backed [`BlockingPool`]s
//! behind one logical element store.
//!
//! [`ShardedPool`] is [`cqs_core::shard::Sharded`] over [`BlockingPool`]
//! shards — the same layer as `cqs-sync`'s `ShardedSemaphore`, with an
//! element attached to each banked unit. The protocol and the fairness
//! contract are stated once, in the [`cqs_core::shard`] module docs. The
//! pool's two parameters there: elements — unlike semaphore credit —
//! cannot be deferred (a pool has no "holder count" telling a put that
//! more puts are coming), so the rebalance interval is 1 — every put that
//! stores locally migrates to starving siblings at once — and the no-idle
//! sweep runs whenever anything is stored. A stored element may therefore
//! be claimed ahead of takers parked on other shards only inside the
//! put-to-migration race window. Pools are unordered by contract, so
//! element identity never depends on routing.

use cqs_core::shard::{Sharded, MAX_DEFAULT_SHARDS};
use cqs_core::{Cancelled, CqsFuture};

use crate::{BlockingPool, PoolBackend, QueueBackend, StackBackend};

/// A sharded pool over the queue backend.
pub type ShardedQueuePool<E> = ShardedPool<E, QueueBackend<E>>;

/// A sharded pool over the stack backend (hottest element first, per
/// shard).
pub type ShardedStackPool<E> = ShardedPool<E, StackBackend<E>>;

/// A blocking pool sharded over N per-shard CQS instances. See the
/// [`cqs_core::shard`] module docs for the protocol and fairness contract.
///
/// # Example
///
/// ```
/// use cqs_pool::ShardedQueuePool;
///
/// let pool: ShardedQueuePool<String> = ShardedQueuePool::with_shards(4);
/// pool.put("conn-a".to_string());
/// let conn = pool.take().wait().unwrap();
/// pool.put(conn);
/// ```
pub struct ShardedPool<E: Send + 'static, B: PoolBackend<E>> {
    sharded: Sharded<BlockingPool<E, B>>,
}

impl<E: Send + 'static, B: PoolBackend<E> + Default> ShardedPool<E, B> {
    /// Creates an empty sharded pool with the default shard count: the
    /// machine's available parallelism, capped at [`MAX_DEFAULT_SHARDS`](crate::MAX_DEFAULT_SHARDS).
    pub fn new() -> Self {
        Self::with_shards(cqs_core::shard::default_shard_count(MAX_DEFAULT_SHARDS))
    }

    /// Creates an empty sharded pool with an explicit shard count.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    pub fn with_shards(shards: usize) -> Self {
        // Interval 1, sweep at 1 stored element: see the module docs.
        let sharded = Sharded::new(shards, 1, 1, |_, on_refusal| {
            BlockingPool::with_backend_config(B::default(), "sharded-pool.take", on_refusal)
        });
        ShardedPool { sharded }
    }
}

impl<E: Send + 'static, B: PoolBackend<E> + Default> Default for ShardedPool<E, B> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E: Send + 'static, B: PoolBackend<E>> ShardedPool<E, B> {
    /// The number of shards.
    pub fn shards(&self) -> usize {
        self.sharded.shards().len()
    }

    /// The calling thread's home shard index.
    pub fn home(&self) -> usize {
        self.sharded.home()
    }

    /// A racy snapshot of the number of stored elements across all shards.
    pub fn len(&self) -> usize {
        self.sharded.banked()
    }

    /// Whether no elements are currently stored on any shard.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A racy snapshot of the takers queued across all shards.
    pub fn waiting_takers(&self) -> usize {
        self.sharded.waiting()
    }

    /// Total live queue segments across all shards (diagnostics).
    pub fn live_segments(&self) -> usize {
        self.sharded.live_segments()
    }

    /// Retrieves an element routed through the calling thread's home shard.
    pub fn take(&self) -> CqsFuture<E> {
        self.take_at(self.home())
    }

    /// Retrieves an element routed through shard `home % shards` — the
    /// deterministic core of [`take`](Self::take), also used by the
    /// model-checking programs to pin routing independently of TLS.
    pub fn take_at(&self, home: usize) -> CqsFuture<E> {
        self.sharded.take_at(home)
    }

    /// Blocking convenience: retrieves an element, waiting if necessary.
    ///
    /// # Errors
    ///
    /// Fails with [`Cancelled`] only if the pool is closed.
    pub fn take_blocking(&self) -> Result<E, Cancelled> {
        self.take().wait()
    }

    /// Returns `element` through the calling thread's home shard.
    pub fn put(&self, element: E) {
        self.put_at(self.home(), element);
    }

    /// Returns `element` through shard `home % shards` — the deterministic
    /// core of [`put`](Self::put).
    ///
    /// Hands it to the home shard's first waiting taker if there is one;
    /// otherwise stores it locally and immediately migrates stored
    /// elements to any starving sibling shards (see the module docs for
    /// why pool migration cannot be deferred).
    pub fn put_at(&self, home: usize, element: E) {
        self.sharded.bank_at(home, element);
    }

    /// Returns a batch of elements through shard `home % shards`: waiting
    /// takers anywhere are served first (home shard, then ring order), one
    /// batched [`BlockingPool::put_many`] traversal per recipient shard,
    /// and the remainder is stored at home (followed by the same migration
    /// scan as [`put_at`](Self::put_at)).
    pub fn put_many_at(&self, home: usize, elements: impl IntoIterator<Item = E>) {
        self.sharded
            .bank_many_at(home, elements.into_iter().collect());
    }

    /// Returns a batch of elements through the calling thread's home shard;
    /// see [`put_many_at`](Self::put_many_at).
    pub fn put_many(&self, elements: impl IntoIterator<Item = E>) {
        self.put_many_at(self.home(), elements);
    }

    /// Runs a migration sweep from every shard's store toward starving
    /// shards. Normally unnecessary (puts migrate on their own); exposed
    /// for tests and operators reacting to a watchdog report.
    pub fn rebalance(&self) -> usize {
        self.sharded.rebalance()
    }

    /// Closes the pool: every waiting taker on every shard is woken with
    /// [`Cancelled`] and subsequent takes fail fast. Stored elements stay,
    /// and [`put`](Self::put) keeps working for orderly teardown.
    pub fn close(&self) {
        self.sharded.close();
    }

    /// Whether [`close`](Self::close) was called.
    pub fn is_closed(&self) -> bool {
        self.sharded.is_closed()
    }

    /// Publishes per-shard depth and live-segment gauges to the watchdog
    /// (`shard_depth`, `live_segments`, keyed by each shard's primitive
    /// id). No-op without the `watch` feature.
    pub fn publish_gauges(&self) {
        self.sharded.publish_gauges();
    }
}

impl<E: Send + 'static, B: PoolBackend<E>> std::fmt::Debug for ShardedPool<E, B> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedPool")
            .field("shards", &self.shards())
            .field("len", &self.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    #[test]
    fn put_take_roundtrip_across_shards() {
        let pool: ShardedQueuePool<u64> = ShardedQueuePool::with_shards(3);
        assert!(pool.is_empty());
        for e in 0..6 {
            pool.put_at(e as usize, e);
        }
        assert_eq!(pool.len(), 6);
        let mut seen = HashSet::new();
        for i in 0..6 {
            let f = pool.take_at(i + 1); // route through a foreign shard
            assert!(f.is_immediate(), "take {i} must hit a store or steal");
            seen.insert(f.wait().unwrap());
        }
        assert_eq!(seen.len(), 6, "elements lost or duplicated");
        assert!(pool.is_empty());
    }

    #[test]
    fn steal_crosses_shards() {
        let pool: ShardedQueuePool<u64> = ShardedQueuePool::with_shards(2);
        pool.put_at(0, 7);
        let f = pool.take_at(1);
        assert!(f.is_immediate(), "steal pass must find shard 0's store");
        assert_eq!(f.wait(), Ok(7));
    }

    #[test]
    fn put_reaches_taker_parked_on_other_shard() {
        let pool: ShardedQueuePool<u64> = ShardedQueuePool::with_shards(2);
        let waiter = pool.take_at(1);
        assert!(!waiter.is_immediate(), "empty pool: taker must park");
        pool.put_at(0, 42);
        assert_eq!(waiter.wait(), Ok(42), "migration must reach the taker");
        assert!(pool.is_empty());
    }

    #[test]
    fn put_many_serves_takers_across_shards_then_stores() {
        let pool: ShardedQueuePool<u64> = ShardedQueuePool::with_shards(2);
        let w0 = pool.take_at(0);
        let w1 = pool.take_at(1);
        assert!(!w0.is_immediate() && !w1.is_immediate());
        pool.put_many_at(0, [1, 2, 3, 4]);
        let got: HashSet<u64> = [w0.wait().unwrap(), w1.wait().unwrap()].into();
        assert_eq!(got.len(), 2);
        assert_eq!(pool.len(), 2, "leftovers are stored");
    }

    #[test]
    fn takers_are_fifo_within_a_shard() {
        let pool: ShardedQueuePool<u64> = ShardedQueuePool::with_shards(2);
        let f1 = pool.take_at(1);
        let f2 = pool.take_at(1);
        pool.put_at(1, 10);
        pool.put_at(1, 11);
        assert_eq!(f1.wait(), Ok(10), "per-shard FIFO violated");
        assert_eq!(f2.wait(), Ok(11));
    }

    #[test]
    fn cancelled_taker_is_skipped() {
        let pool: ShardedStackPool<u64> = ShardedStackPool::with_shards(2);
        let f1 = pool.take_at(0);
        let f2 = pool.take_at(0);
        assert!(f1.cancel());
        pool.put_at(1, 9);
        assert_eq!(f2.wait(), Ok(9));
    }

    #[test]
    fn close_wakes_takers_on_all_shards_and_keeps_elements() {
        let pool: ShardedQueuePool<u64> = ShardedQueuePool::with_shards(3);
        let waiters: Vec<_> = (0..3).map(|i| pool.take_at(i)).collect();
        pool.close();
        assert!(pool.is_closed());
        for w in waiters {
            assert!(w.wait().is_err());
        }
        assert!(
            pool.take_at(0).wait().is_err(),
            "take after close fails fast"
        );
        pool.put_at(0, 5);
        assert_eq!(pool.len(), 1, "elements survive close");
    }

    /// Elements are conserved under threads hammering every path: local
    /// hits, steals, parks, cancellations, migrations, batched puts.
    #[test]
    fn elements_conserved_under_sharded_storm() {
        const THREADS: usize = 8;
        const ELEMENTS: u64 = 3;
        const OPS: usize = 800;
        let pool: Arc<ShardedQueuePool<u64>> = Arc::new(ShardedQueuePool::with_shards(4));
        for e in 0..ELEMENTS {
            pool.put_at(e as usize, e);
        }
        let held = Arc::new(AtomicUsize::new(0));
        let mut joins = Vec::new();
        for t in 0..THREADS {
            let pool = Arc::clone(&pool);
            let held = Arc::clone(&held);
            joins.push(std::thread::spawn(move || {
                for i in 0..OPS {
                    let f = pool.take_at(t + i);
                    if (i + t) % 7 == 0 && f.cancel() {
                        continue;
                    }
                    let e = f.wait().unwrap();
                    let now = held.fetch_add(1, Ordering::SeqCst) + 1;
                    assert!(now <= ELEMENTS as usize, "more elements in use than exist");
                    held.fetch_sub(1, Ordering::SeqCst);
                    if i % 13 == 0 {
                        pool.put_many_at(t + i, [e]);
                    } else {
                        pool.put_at(t + i + 1, e); // return via a foreign shard
                    }
                }
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
        let mut back = HashSet::new();
        for i in 0..ELEMENTS {
            back.insert(pool.take_at(i as usize).wait().unwrap());
        }
        assert_eq!(back.len(), ELEMENTS as usize, "elements lost or duplicated");
        assert!(pool.is_empty());
        assert_eq!(pool.waiting_takers(), 0);
    }
}
