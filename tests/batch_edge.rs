//! Edge cases of the batched resumption paths: the `WakeBatch` heap
//! spill past its inline capacity (with FIFO firing order preserved),
//! and the degenerate `resume_n(.., 0)` / empty-queue `resume_all`
//! calls, which must be complete no-ops — no counter movement, no claims,
//! no stray wake-ups.

use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use cqs::{Cqs, CqsConfig, FutureState, SimpleCancellation};
use cqs_future::{wake_batch_spill_count, WAKE_BATCH_INLINE};

fn cqs() -> Cqs<u64, SimpleCancellation> {
    Cqs::new(CqsConfig::new().segment_size(4), SimpleCancellation)
}

/// The spill counter is process-wide: the test that spills and the one
/// that asserts the counter stands still take turns on this lock, so a
/// sibling's spill cannot land between the latter's two reads.
fn spill_counter() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

/// More waiters than the inline wake capacity in a single `resume_n`: the
/// batch must spill to the heap (observable through the process-wide
/// spill counter) and still fire every deferred wake in FIFO order.
#[test]
fn resume_n_past_inline_capacity_spills_and_fires_fifo() {
    const N: usize = WAKE_BATCH_INLINE + 4; // 12 waiters, inline is 8
    let _spills = spill_counter();
    let cqs = cqs();
    let mut futures: Vec<_> = (0..N).map(|_| cqs.suspend().expect_future()).collect();
    let order: Arc<Mutex<Vec<usize>>> = Arc::default();
    for (i, f) in futures.iter().enumerate() {
        let order = Arc::clone(&order);
        f.on_settled(move |_| order.lock().unwrap().push(i));
    }
    let before = wake_batch_spill_count();
    let failed = cqs.resume_n(0..N as u64, N);
    assert!(failed.is_empty(), "no cell was cancelled: {failed:?}");
    assert!(
        wake_batch_spill_count() > before,
        "a {N}-wake batch must spill past the {WAKE_BATCH_INLINE}-slot inline capacity"
    );
    assert_eq!(
        *order.lock().unwrap(),
        (0..N).collect::<Vec<_>>(),
        "deferred wakes must fire in FIFO (cell) order across the spill boundary"
    );
    for (i, f) in futures.iter_mut().enumerate() {
        assert_eq!(f.try_get(), FutureState::Ready(i as u64), "waiter {i}");
    }
}

/// `resume_n(values, 0)` is a no-op: nothing claimed, nothing delivered,
/// no counters advanced, and a parked waiter stays untouched (no stray
/// wake).
#[test]
fn resume_n_zero_is_a_noop() {
    let _spills = spill_counter();
    let cqs = cqs();
    let mut parked = cqs.suspend().expect_future();
    let resumes = cqs.resume_count();
    let completed = cqs.completed_resumes();
    let spills = wake_batch_spill_count();

    let failed = cqs.resume_n(std::iter::empty(), 0);

    assert!(failed.is_empty());
    assert_eq!(cqs.resume_count(), resumes, "resume counter moved");
    assert_eq!(
        cqs.completed_resumes(),
        completed,
        "completion counter moved"
    );
    assert_eq!(wake_batch_spill_count(), spills, "a zero-batch spilled");
    assert_eq!(
        parked.try_get(),
        FutureState::Pending,
        "the parked waiter must not be woken by an empty batch"
    );
    assert!(parked.cancel());
}

/// `resume_all` on a queue with no waiters delivers nothing and claims
/// nothing: the counters stay put and the next suspender finds an empty
/// cell (no value was parked by the broadcast).
#[test]
fn resume_all_on_empty_queue_is_a_noop() {
    let cqs = cqs();
    let resumes = cqs.resume_count();
    let completed = cqs.completed_resumes();

    assert_eq!(cqs.resume_all(42), 0, "nothing to deliver");

    assert_eq!(cqs.resume_count(), resumes, "resume counter moved");
    assert_eq!(
        cqs.completed_resumes(),
        completed,
        "completion counter moved"
    );
    let mut f = cqs.suspend().expect_future();
    assert_eq!(
        f.try_get(),
        FutureState::Pending,
        "an empty broadcast must not park a value for future suspenders"
    );
    assert!(f.cancel());
}

/// `resume_all` over a span whose waiters all cancelled: zero deliveries,
/// and the broadcast still consumes the span (the next suspender starts
/// on a fresh cell, not a stale cancelled one).
#[test]
fn resume_all_over_cancelled_span_delivers_nothing() {
    let cqs = cqs();
    let f1 = cqs.suspend().expect_future();
    let f2 = cqs.suspend().expect_future();
    assert!(f1.cancel());
    assert!(f2.cancel());

    assert_eq!(cqs.resume_all(42), 0, "cancelled waiters get nothing");

    let mut f = cqs.suspend().expect_future();
    assert_eq!(f.try_get(), FutureState::Pending);
    assert!(f.cancel());
}
