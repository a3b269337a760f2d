//! Strong-count budget per operation: a traversal reads pointers under its
//! guard, so the only reference counts a hand-off may touch are the ones it
//! *keeps* — the segment reference a suspended request holds as its
//! cancellation handler — plus, once per 16-cell segment, the head-pointer
//! CAS and the links of a fresh tail.
//!
//! The count is `cqs_stats`' `arc_increments`: one per `AtomicArc::load`,
//! per owned `load_protected` (whose protection is a counted clone) and
//! per `Protected::to_arc`; an epoch `load_protected` counts nothing.
//! The counters are process-global, so this binary holds a single `#[test]`
//! and every case runs on one thread.
//!
//! The watchdog's registry is itself built from `AtomicArc` cells and
//! loads them on every registration, so the budget only describes builds
//! without the `watch` feature.
#![cfg(all(feature = "stats", not(feature = "watch")))]

use cqs::{CqsChannel, QueuePool, ReclaimerKind, Semaphore};
use cqs_stats::CqsStats;

const ROUNDS: usize = 4096;

/// Runs `round` a few times unmeasured (first segments, lazy thread-locals),
/// then [`ROUNDS`] times measured; asserts the average number of
/// strong-count increments per round stays within `budget`.
fn assert_budget(case: &str, budget: f64, mut round: impl FnMut()) {
    for _ in 0..256 {
        round();
    }
    let before = CqsStats::snapshot();
    for _ in 0..ROUNDS {
        round();
    }
    let minted = CqsStats::snapshot().delta(&before).arc_increments;
    let per_round = minted as f64 / ROUNDS as f64;
    println!("{case}: {per_round:.4} strong-count increments per round (budget {budget})");
    assert!(
        per_round <= budget,
        "{case}: {per_round:.4} increments per round exceeds the budget of {budget}"
    );
}

fn semaphore_handoff(case: &str, budget: f64, semaphore: Semaphore) {
    semaphore.acquire().wait().unwrap(); // every later acquire suspends
    assert_budget(case, budget, || {
        let waiter = semaphore.acquire();
        assert!(!waiter.is_immediate());
        semaphore.release(); // hands the permit to `waiter`
        waiter.wait().unwrap();
    });
}

#[test]
fn handoffs_stay_within_their_strong_count_budget() {
    // Suspended acquire + resuming release: the handler's reference, and
    // per segment two head CASes and one `prev` link (1 + 3/16).
    semaphore_handoff("semaphore acquire+release", 1.5, Semaphore::new(1));
    // Owned loads must clone; five per pair is what the same pair cost on
    // every backend before traversals borrowed (two head loads each side
    // plus the waiter).
    semaphore_handoff(
        "semaphore acquire+release (owned)",
        5.0,
        Semaphore::with_reclaimer(1, ReclaimerKind::Owned),
    );

    let pool: QueuePool<u64> = QueuePool::new(); // empty: every take suspends
    assert_budget("pool take+put, suspended", 1.5, || {
        let taker = pool.take();
        assert!(!taker.is_immediate());
        pool.put(7);
        assert_eq!(taker.wait(), Ok(7));
    });

    // Nobody waits: the element crosses the pool's buffer segments, which
    // mint only at segment boundaries (two head CASes per 16 slots).
    assert_budget("pool put+take, no wait", 0.25, || {
        pool.put(7);
        let taker = pool.take();
        assert!(taker.is_immediate());
        assert_eq!(taker.wait(), Ok(7));
    });

    let channel: CqsChannel<u64> = CqsChannel::bounded(4);
    assert_budget("channel send+receive, no wait", 0.25, || {
        let send = channel.send(1);
        assert!(send.is_immediate());
        send.wait().unwrap();
        let receive = channel.receive();
        assert!(receive.is_immediate());
        assert_eq!(receive.wait(), Ok(1));
    });
}
