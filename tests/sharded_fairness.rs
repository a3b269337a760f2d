//! The sharding layer's documented fairness bound (`cqs_core::shard`, "Fairness
//! and liveness, precisely"), checked once through both instantiations'
//! public API: a waiter parked on one shard is overtaken by at most
//! `rebalance_interval − 1` barging takes on a sibling shard, and the
//! interval-th banking return serves it. Single-threaded and routed with
//! the `*_at` calls, so every step is deterministic.

use cqs::{FutureState, ShardedQueuePool, ShardedSemaphore};

#[test]
fn parked_waiter_is_served_by_the_interval_th_banking_release() {
    for k in [1u64, 3, 64] {
        // One permit per shard. Shard 1's is held throughout, so the banked
        // total never reaches the permit count and the no-idle sweep never
        // fires: only the rebalance cadence can serve the waiter.
        let sem = ShardedSemaphore::with_shards_and_interval(2, 2, k);
        assert!(sem.acquire_at(1).is_immediate(), "[k={k}] holder");
        assert!(sem.acquire_at(0).is_immediate(), "[k={k}] barger");
        let mut waiter = sem.acquire_at(1);
        assert!(!waiter.is_immediate(), "[k={k}] both banks are empty");

        for overtakes in 0..k - 1 {
            sem.release_at(0);
            assert_eq!(
                waiter.try_get(),
                FutureState::Pending,
                "[k={k}] served after only {} banking releases",
                overtakes + 1
            );
            assert!(
                sem.acquire_at(0).is_immediate(),
                "[k={k}] the barger re-acquires its own shard's banked permit"
            );
        }
        sem.release_at(0);
        assert_eq!(
            waiter.try_get(),
            FutureState::Ready(()),
            "[k={k}] the {k}-th banking release must migrate the permit"
        );
        assert_eq!(sem.available_permits(), 0);
        assert_eq!(sem.waiting(), 0);
    }
}

/// The pool's interval is fixed at 1: a stored element never sits beside a
/// taker parked on a sibling shard, not even for one put.
#[test]
fn stored_element_never_idles_beside_a_taker_parked_on_a_sibling() {
    let pool: ShardedQueuePool<u64> = ShardedQueuePool::with_shards(2);
    let mut takers: Vec<_> = (0..3).map(|_| pool.take_at(1)).collect();
    assert_eq!(pool.waiting_takers(), 3);
    for (served, element) in (10u64..13).enumerate() {
        pool.put_at(0, element);
        assert_eq!(pool.len(), 0, "element {element} was left stored");
        assert_eq!(pool.waiting_takers(), 2 - served);
        // Per-shard FIFO: the oldest parked taker gets it.
        assert_eq!(takers[served].try_get(), FutureState::Ready(element));
    }
}
