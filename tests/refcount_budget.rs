//! Strong-count budget per operation: a traversal reads pointers under its
//! guard, so the only reference counts a hand-off may touch are the ones it
//! *keeps* — the segment reference a suspended request holds as its
//! cancellation handler — plus, once per 16-cell segment, the head-pointer
//! CAS and the links of a fresh tail.
//!
//! The count is `cqs_stats`' `arc_increments`: one per `AtomicArc::load`
//! and per `Protected::to_arc`; `load_protected` counts nothing. The
//! counters are process-global, so this binary holds a single `#[test]`
//! and every case runs on one thread; the counts then repeat exactly, and
//! each case pins its count rather than bounding it.
//!
//! The watchdog's registry is itself built from `AtomicArc` cells and
//! loads them on every registration, so the budget only describes builds
//! without the `watch` feature.
#![cfg(all(feature = "stats", not(feature = "watch")))]

use cqs::{CqsChannel, QueuePool, Semaphore};
use cqs_stats::CqsStats;

const ROUNDS: usize = 4096;

/// Runs `round` a few times unmeasured (first segments, lazy thread-locals),
/// then [`ROUNDS`] times measured — a whole number of 16-cell segments —
/// and asserts the average number of strong-count increments per round is
/// exactly `expected`.
fn assert_count(case: &str, expected: f64, mut round: impl FnMut()) {
    for _ in 0..256 {
        round();
    }
    let before = CqsStats::snapshot();
    for _ in 0..ROUNDS {
        round();
    }
    let minted = CqsStats::snapshot().delta(&before).arc_increments;
    let per_round = minted as f64 / ROUNDS as f64;
    println!("{case}: {per_round:.4} strong-count increments per round (expected {expected})");
    assert_eq!(
        per_round, expected,
        "{case}: {per_round:.4} increments per round, expected exactly {expected}"
    );
}

#[test]
fn handoffs_stay_within_their_strong_count_budget() {
    // Suspended acquire + resuming release: per 16 pairs, 15 handler
    // references (the first waiter of a fresh segment takes over the
    // segment's own count) and 3 where the chain changes — head CASes and
    // the fresh tail's `prev` link: 18/16.
    let semaphore = Semaphore::new(1);
    semaphore.acquire().wait().unwrap(); // every later acquire suspends
    assert_count("semaphore acquire+release", 1.125, || {
        let waiter = semaphore.acquire();
        assert!(!waiter.is_immediate());
        semaphore.release(); // hands the permit to `waiter`
        waiter.wait().unwrap();
    });

    let pool: QueuePool<u64> = QueuePool::new(); // empty: every take suspends
    assert_count("pool take+put, suspended", 1.125, || {
        let taker = pool.take();
        assert!(!taker.is_immediate());
        pool.put(7);
        assert_eq!(taker.wait(), Ok(7));
    });

    // Nobody waits: the element crosses the pool's buffer segments, which
    // mint only at segment boundaries (two head CASes per 16 slots).
    assert_count("pool put+take, no wait", 0.125, || {
        pool.put(7);
        let taker = pool.take();
        assert!(taker.is_immediate());
        assert_eq!(taker.wait(), Ok(7));
    });

    let channel: CqsChannel<u64> = CqsChannel::bounded(4);
    assert_count("channel send+receive, no wait", 0.125, || {
        let send = channel.send(1);
        assert!(send.is_immediate());
        send.wait().unwrap();
        let receive = channel.receive();
        assert!(receive.is_immediate());
        assert_eq!(receive.wait(), Ok(1));
    });
}
