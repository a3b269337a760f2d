//! Unit and stress tests for the CQS itself. The synchronization primitives
//! in `cqs-sync`/`cqs-pool` and the integration suite in the workspace root
//! exercise it further.

use std::sync::atomic::{AtomicI64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crate::{
    CancellationMode, Cqs, CqsCallbacks, CqsConfig, FutureState, ResumeMode, SimpleCancellation,
    Suspend,
};

fn simple() -> Cqs<u64> {
    Cqs::new(CqsConfig::new().segment_size(2), SimpleCancellation)
}

/// Callbacks recording their invocations, for smart-mode tests. Mimics the
/// semaphore pattern: a counter that `on_cancellation` rolls back.
struct CountingCallbacks {
    /// Mirrors a primitive's state: incremented by on_cancellation.
    state: AtomicI64,
    refused: AtomicUsize,
}

impl CountingCallbacks {
    fn new() -> Arc<Self> {
        Arc::new(CountingCallbacks {
            state: AtomicI64::new(0),
            refused: AtomicUsize::new(0),
        })
    }
}

impl CqsCallbacks<u64> for Arc<CountingCallbacks> {
    fn on_cancellation(&self) -> bool {
        // Semaphore-style: s < 0 means a waiter was deregistered.
        let s = self.state.fetch_add(1, Ordering::SeqCst);
        s < 0
    }

    fn complete_refused_resume(&self, _value: u64) {
        self.refused.fetch_add(1, Ordering::SeqCst);
    }
}

#[test]
fn suspend_then_resume_fifo() {
    let cqs = simple();
    let futures: Vec<_> = (0..10).map(|_| cqs.suspend().expect_future()).collect();
    for v in 0..10 {
        cqs.resume(v).unwrap();
    }
    for (expected, f) in futures.into_iter().enumerate() {
        assert_eq!(f.wait(), Ok(expected as u64), "FIFO order violated");
    }
}

#[test]
fn resume_before_suspend_eliminates() {
    let cqs = simple();
    cqs.resume(5).unwrap();
    let f = cqs.suspend().expect_future();
    assert!(f.is_immediate(), "racing resume must eliminate");
    assert_eq!(f.wait(), Ok(5));
}

#[test]
fn many_resumes_before_suspends() {
    let cqs = simple();
    for v in 0..20 {
        cqs.resume(v).unwrap();
    }
    for v in 0..20 {
        let f = cqs.suspend().expect_future();
        assert_eq!(f.wait(), Ok(v));
    }
}

#[test]
fn simple_cancellation_fails_resume() {
    let cqs = simple();
    let f = cqs.suspend().expect_future();
    assert!(f.cancel());
    assert_eq!(
        cqs.resume(9),
        Err(9),
        "resume must fail on cancelled waiter"
    );
}

#[test]
fn simple_cancellation_pays_linearly_but_succeeds() {
    let cqs = simple();
    let futures: Vec<_> = (0..16).map(|_| cqs.suspend().expect_future()).collect();
    for f in &futures[..15] {
        assert!(f.cancel());
    }
    // The first 15 resumes fail; a16th succeeds against the live waiter.
    let mut value = 1u64;
    let mut failures = 0;
    loop {
        match cqs.resume(value) {
            Ok(()) => break,
            Err(v) => {
                failures += 1;
                value = v;
            }
        }
    }
    assert_eq!(failures, 15);
    let last = futures.into_iter().next_back().unwrap();
    assert_eq!(last.wait(), Ok(1));
}

#[test]
fn smart_cancellation_skips_cancelled_waiters() {
    let callbacks = CountingCallbacks::new();
    let cqs: Cqs<u64, _> = Cqs::new(
        CqsConfig::new()
            .segment_size(2)
            .cancellation_mode(CancellationMode::Smart),
        Arc::clone(&callbacks),
    );
    // 5 waiters; mark the primitive as having 5 waiters.
    callbacks.state.store(-5, Ordering::SeqCst);
    let futures: Vec<_> = (0..5).map(|_| cqs.suspend().expect_future()).collect();
    for f in &futures[..4] {
        assert!(f.cancel());
    }
    // One resume skips all four cancelled waiters and completes the fifth.
    cqs.resume(7).unwrap();
    assert_eq!(futures.into_iter().next_back().unwrap().wait(), Ok(7));
    assert_eq!(callbacks.refused.load(Ordering::SeqCst), 0);
}

#[test]
fn smart_cancellation_refuses_when_no_waiter_remains() {
    let callbacks = CountingCallbacks::new();
    let cqs: Cqs<u64, _> = Cqs::new(
        CqsConfig::new().cancellation_mode(CancellationMode::Smart),
        Arc::clone(&callbacks),
    );
    // state = 0 => on_cancellation returns false => REFUSE.
    let f = cqs.suspend().expect_future();
    assert!(f.cancel());
    // The resume bound to this waiter is refused and consumed by the
    // callback rather than failing.
    cqs.resume(3).unwrap();
    assert_eq!(callbacks.refused.load(Ordering::SeqCst), 1);
}

#[test]
fn segments_are_removed_after_mass_cancellation() {
    let callbacks = CountingCallbacks::new();
    callbacks.state.store(-1024, Ordering::SeqCst);
    let cqs: Cqs<u64, _> = Cqs::new(
        CqsConfig::new()
            .segment_size(4)
            .cancellation_mode(CancellationMode::Smart),
        Arc::clone(&callbacks),
    );
    let futures: Vec<_> = (0..1024).map(|_| cqs.suspend().expect_future()).collect();
    for f in &futures[..1023] {
        assert!(f.cancel());
    }
    // A single resume must skip over ~256 removed segments in O(removed
    // chain), land on the last waiter, and fast-forward the counter.
    cqs.resume(1).unwrap();
    assert_eq!(futures.into_iter().next_back().unwrap().wait(), Ok(1));
    assert!(
        cqs.resume_count() >= 1024 - 4,
        "resume counter must fast-forward over removed segments, got {}",
        cqs.resume_count()
    );
}

#[test]
fn synchronous_resume_breaks_cell_without_rendezvous() {
    let cqs: Cqs<u64> = Cqs::new(
        CqsConfig::new()
            .resume_mode(ResumeMode::Synchronous)
            .spin_limit(10),
        SimpleCancellation,
    );
    // No suspender will come: the resume must fail and return the value.
    assert_eq!(cqs.resume(8), Err(8));
    // The suspender that eventually arrives observes the broken cell.
    match cqs.suspend() {
        Suspend::Broken => {}
        Suspend::Future(_) => panic!("expected broken cell"),
    }
}

#[test]
fn synchronous_resume_rendezvous_succeeds() {
    let cqs: Arc<Cqs<u64>> = Arc::new(Cqs::new(
        CqsConfig::new()
            .resume_mode(ResumeMode::Synchronous)
            .spin_limit(1_000_000),
        SimpleCancellation,
    ));
    let c2 = Arc::clone(&cqs);
    let resumer = std::thread::spawn(move || c2.resume(11));
    std::thread::sleep(Duration::from_millis(10));
    let f = cqs.suspend().expect_future();
    assert_eq!(f.wait(), Ok(11));
    assert_eq!(resumer.join().unwrap(), Ok(()));
}

#[test]
fn cancel_after_completion_fails() {
    let cqs = simple();
    let f = cqs.suspend().expect_future();
    cqs.resume(1).unwrap();
    assert!(!f.cancel());
    assert_eq!(f.wait(), Ok(1));
}

#[test]
fn counters_advance_monotonically() {
    let cqs = simple();
    assert_eq!(cqs.suspend_count(), 0);
    assert_eq!(cqs.resume_count(), 0);
    let _f = cqs.suspend().expect_future();
    cqs.resume(0).unwrap();
    assert_eq!(cqs.suspend_count(), 1);
    assert_eq!(cqs.resume_count(), 1);
}

#[test]
fn debug_impls_are_nonempty() {
    let cqs = simple();
    assert!(!format!("{cqs:?}").is_empty());
    assert!(!format!("{:?}", CqsConfig::new()).is_empty());
}

// ---------------------------------------------------------------------
// Stress tests
// ---------------------------------------------------------------------

/// Every value resumed is received exactly once, across threads.
#[test]
fn concurrent_value_conservation() {
    const SUSPENDERS: usize = 4;
    const RESUMERS: usize = 4;
    const PER_THREAD: usize = 2_000;

    let cqs: Arc<Cqs<u64>> = Arc::new(Cqs::new(CqsConfig::new(), SimpleCancellation));
    let received_sum = Arc::new(AtomicUsize::new(0));
    let received_count = Arc::new(AtomicUsize::new(0));

    let mut joins = Vec::new();
    for _ in 0..SUSPENDERS {
        let cqs = Arc::clone(&cqs);
        let sum = Arc::clone(&received_sum);
        let count = Arc::clone(&received_count);
        joins.push(std::thread::spawn(move || {
            for _ in 0..PER_THREAD * RESUMERS / SUSPENDERS {
                let v = cqs.suspend().expect_future().wait().unwrap();
                sum.fetch_add(v as usize, Ordering::SeqCst);
                count.fetch_add(1, Ordering::SeqCst);
            }
        }));
    }
    for t in 0..RESUMERS {
        let cqs = Arc::clone(&cqs);
        joins.push(std::thread::spawn(move || {
            for i in 0..PER_THREAD {
                let v = (t * PER_THREAD + i) as u64;
                cqs.resume(v).unwrap();
            }
        }));
    }
    for j in joins {
        j.join().unwrap();
    }
    let n = RESUMERS * PER_THREAD;
    assert_eq!(received_count.load(Ordering::SeqCst), n);
    assert_eq!(
        received_sum.load(Ordering::SeqCst),
        n * (n - 1) / 2,
        "values lost or duplicated"
    );
}

/// Smart cancellation under concurrent aborts: each resume completes exactly
/// one live waiter or is refused; no value is lost.
#[test]
fn concurrent_cancellation_storm_smart() {
    const WAITERS: usize = 2_000;

    let callbacks = CountingCallbacks::new();
    // `state` models "number of live waiters" negated, as in the semaphore.
    callbacks.state.store(-(WAITERS as i64), Ordering::SeqCst);
    let cqs: Arc<Cqs<u64, Arc<CountingCallbacks>>> = Arc::new(Cqs::new(
        CqsConfig::new()
            .segment_size(8)
            .cancellation_mode(CancellationMode::Smart),
        Arc::clone(&callbacks),
    ));

    let futures: Vec<_> = (0..WAITERS)
        .map(|_| cqs.suspend().expect_future())
        .collect();

    // Half the waiters cancel concurrently with resumes of the other half.
    let (cancel_half, keep_half): (Vec<_>, Vec<_>) = futures
        .into_iter()
        .enumerate()
        .partition(|(i, _)| i % 2 == 0);

    let canceller = {
        let mut fs: Vec<_> = cancel_half.into_iter().map(|(_, f)| f).collect();
        std::thread::spawn(move || {
            let mut cancelled = 0usize;
            let mut lost_race = 0usize;
            for f in fs.drain(..) {
                if f.cancel() {
                    cancelled += 1;
                } else {
                    // The resumer reached this cell before the cancel: the
                    // cancel fails and the value is on its way — the
                    // completer may still be inside `complete`, so wait
                    // for it rather than polling once.
                    f.wait().expect("a failed cancel means a resume won");
                    lost_race += 1;
                }
            }
            (cancelled, lost_race)
        })
    };
    let resumer = {
        let cqs = Arc::clone(&cqs);
        std::thread::spawn(move || {
            for v in 0..(WAITERS / 2) as u64 {
                cqs.resume(v).unwrap();
            }
        })
    };
    let (cancelled, lost_race) = canceller.join().unwrap();
    resumer.join().unwrap();

    // All kept waiters that were not raced must eventually complete; count
    // outcomes.
    let mut completed = 0usize;
    for (_, mut f) in keep_half {
        match f.try_get() {
            FutureState::Ready(_) => completed += 1,
            FutureState::Pending => {}
            FutureState::Cancelled => unreachable!("kept futures were never cancelled"),
        }
    }
    let refused = callbacks.refused.load(Ordering::SeqCst);
    // Each of WAITERS/2 resumes either completed a waiter — a kept one, or
    // a doomed one it reached before the cancel (whose cancel then failed)
    // — or was refused after racing a successful cancellation. Nothing may
    // be lost.
    assert_eq!(
        completed + lost_race + refused,
        WAITERS / 2,
        "resumes lost (completed={completed}, lost_race={lost_race}, \
         refused={refused}, cancelled={cancelled})"
    );
    assert_eq!(
        cancelled + lost_race,
        WAITERS / 2,
        "every doomed future either cancelled or completed"
    );
}

/// Mixed suspend/resume/cancel churn with the synchronous mode: operations
/// may fail but must never deadlock or lose permits.
#[test]
fn concurrent_sync_mode_churn() {
    const OPS: usize = 5_000;
    let cqs: Arc<Cqs<u64>> = Arc::new(Cqs::new(
        CqsConfig::new()
            .resume_mode(ResumeMode::Synchronous)
            .segment_size(4)
            .spin_limit(64),
        SimpleCancellation,
    ));
    let delivered = Arc::new(AtomicUsize::new(0));
    let broken = Arc::new(AtomicUsize::new(0));

    let resumer = {
        let cqs = Arc::clone(&cqs);
        let delivered = Arc::clone(&delivered);
        let broken = Arc::clone(&broken);
        std::thread::spawn(move || {
            for v in 0..OPS as u64 {
                match cqs.resume(v) {
                    Ok(()) => {
                        delivered.fetch_add(1, Ordering::SeqCst);
                    }
                    Err(_) => {
                        broken.fetch_add(1, Ordering::SeqCst);
                    }
                }
            }
        })
    };
    let suspender = {
        let cqs = Arc::clone(&cqs);
        std::thread::spawn(move || {
            let mut received = 0usize;
            let mut broken_cells = 0usize;
            for _ in 0..OPS {
                match cqs.suspend() {
                    Suspend::Future(f) => {
                        // Bounded wait: the paired resume may have broken our
                        // cell instead of this one; use a timeout.
                        if f.wait_timeout(Duration::from_millis(200)).is_ok() {
                            received += 1;
                        }
                    }
                    Suspend::Broken => broken_cells += 1,
                }
            }
            (received, broken_cells)
        })
    };
    resumer.join().unwrap();
    let (received, _suspend_broken) = suspender.join().unwrap();
    // Every successful (non-broken) resume delivered to someone; cancelled
    // (timed-out) waiters in simple mode make later resumes fail, which the
    // resumer counts as broken. No hangs = pass; sanity-check counters:
    assert!(received <= delivered.load(Ordering::SeqCst));
    assert_eq!(
        delivered.load(Ordering::SeqCst) + broken.load(Ordering::SeqCst),
        OPS
    );
}

/// Dropping a CQS with pending waiters must not leak or crash. Waiters
/// hold their segment (as cancellation handler) and segments point back at
/// the queue only weakly, so the queue dies with the `Cqs`; cancelling the
/// orphaned futures afterwards finds no queue to notify (the `Weak`
/// upgrade fails) and is a no-op; and once the futures go, the segments —
/// with every cell and request they referenced — are freed too.
#[test]
fn drop_with_pending_waiters() {
    let callbacks = CountingCallbacks::new();
    let cqs = Cqs::new(
        CqsConfig::new()
            .segment_size(2)
            .cancellation_mode(CancellationMode::Smart),
        Arc::clone(&callbacks),
    );
    let futures: Vec<_> = (0..8).map(|_| cqs.suspend().expect_future()).collect();
    let segments = cqs.segment_witnesses();
    drop(cqs);
    assert_eq!(
        Arc::strong_count(&callbacks),
        1,
        "pending waiters must not keep the queue alive"
    );
    for f in &futures {
        assert!(f.cancel(), "the waiter was still pending");
    }
    assert_eq!(
        callbacks.state.load(Ordering::SeqCst),
        0,
        "no handler may run against the dead queue"
    );
    drop(futures);
    // The cell references cleared by `Cqs::drop` were retired.
    assert_eq!(
        first_survivor(&segments),
        None,
        "a segment outlived its queue and every waiter"
    );
}

// ---------------------------------------------------------------------
// Mode-combination tests (Appendix B: sync resumption x smart cancel)
// ---------------------------------------------------------------------

/// Synchronous resumption + smart cancellation: the resumer never leaves a
/// value unattended — it waits for the cancellation handler's verdict.
#[test]
fn sync_smart_resume_waits_for_handler_verdict() {
    let callbacks = CountingCallbacks::new();
    callbacks.state.store(-2, Ordering::SeqCst);
    let cqs: Arc<Cqs<u64, Arc<CountingCallbacks>>> = Arc::new(Cqs::new(
        CqsConfig::new()
            .resume_mode(ResumeMode::Synchronous)
            .cancellation_mode(CancellationMode::Smart)
            .spin_limit(1_000),
        Arc::clone(&callbacks),
    ));
    let doomed = cqs.suspend().expect_future();
    let survivor = cqs.suspend().expect_future();

    // Cancel the first waiter concurrently with a resume that targets it.
    let c2 = Arc::clone(&cqs);
    let resumer = std::thread::spawn(move || c2.resume(5));
    let cancelled = doomed.cancel();
    resumer.join().unwrap().unwrap();
    if cancelled {
        assert_eq!(survivor.wait(), Ok(5), "value must skip to the survivor");
    } else {
        // The resume completed the first waiter before the cancel landed.
        assert_eq!(doomed.wait(), Ok(5));
        let mut survivor = survivor;
        assert_eq!(survivor.try_get(), FutureState::Pending);
    }
}

/// Synchronous resumption + smart cancellation, REFUSE path: the waiting
/// resumer is told the waiter deregistered itself and consumes the value
/// through the callback.
#[test]
fn sync_smart_refused_resume_goes_to_callback() {
    let callbacks = CountingCallbacks::new();
    // state = -1: exactly one waiter; its cancellation observes a resume
    // already committed (state reaches 0 => refuse).
    callbacks.state.store(-1, Ordering::SeqCst);
    let cqs: Cqs<u64, Arc<CountingCallbacks>> = Cqs::new(
        CqsConfig::new()
            .resume_mode(ResumeMode::Synchronous)
            .cancellation_mode(CancellationMode::Smart)
            .spin_limit(100),
        Arc::clone(&callbacks),
    );
    let f = cqs.suspend().expect_future();
    // Simulate the primitive having committed a resume: bump state to 0
    // so on_cancellation refuses.
    callbacks.state.store(0, Ordering::SeqCst);
    assert!(f.cancel());
    cqs.resume(9).unwrap();
    assert_eq!(callbacks.refused.load(Ordering::SeqCst), 1);
}

/// Asynchronous + smart: the delegated-value handoff (resume CASes the
/// value over a cancelled waiter; the handler re-resumes with it).
#[test]
fn async_smart_delegated_value_reaches_next_waiter() {
    for _ in 0..200 {
        let callbacks = CountingCallbacks::new();
        callbacks.state.store(-2, Ordering::SeqCst);
        let cqs: Arc<Cqs<u64, Arc<CountingCallbacks>>> = Arc::new(Cqs::new(
            CqsConfig::new().cancellation_mode(CancellationMode::Smart),
            Arc::clone(&callbacks),
        ));
        let doomed = cqs.suspend().expect_future();
        let survivor = cqs.suspend().expect_future();
        let c2 = Arc::clone(&cqs);
        let resumer = std::thread::spawn(move || c2.resume(3).unwrap());
        let cancelled = doomed.cancel();
        resumer.join().unwrap();
        if cancelled {
            assert_eq!(survivor.wait(), Ok(3));
        } else {
            assert_eq!(doomed.wait(), Ok(3));
            let mut survivor = survivor;
            assert_eq!(survivor.try_get(), FutureState::Pending);
        }
    }
}

/// The elimination path coexists with cancellation traffic.
#[test]
fn elimination_between_cancellations() {
    let callbacks = CountingCallbacks::new();
    callbacks.state.store(-100, Ordering::SeqCst);
    let cqs: Cqs<u64, Arc<CountingCallbacks>> = Cqs::new(
        CqsConfig::new()
            .segment_size(2)
            .cancellation_mode(CancellationMode::Smart),
        Arc::clone(&callbacks),
    );
    // Interleave: suspend+cancel, then resume-first elimination.
    for round in 0..50 {
        let f = cqs.suspend().expect_future();
        assert!(f.cancel());
        cqs.resume(round).unwrap(); // parks in a fresh cell or skips
        let g = cqs.suspend().expect_future();
        assert_eq!(g.wait(), Ok(round), "eliminated value mismatch");
    }
}

/// Segment-size 1 (every cell its own segment) exercises the removal logic
/// maximally.
#[test]
fn segment_size_one_works() {
    let callbacks = CountingCallbacks::new();
    callbacks.state.store(-64, Ordering::SeqCst);
    let cqs: Cqs<u64, Arc<CountingCallbacks>> = Cqs::new(
        CqsConfig::new()
            .segment_size(1)
            .cancellation_mode(CancellationMode::Smart),
        Arc::clone(&callbacks),
    );
    let futures: Vec<_> = (0..64).map(|_| cqs.suspend().expect_future()).collect();
    for (i, f) in futures.iter().enumerate() {
        if i != 63 {
            assert!(f.cancel());
        }
    }
    cqs.resume(42).unwrap();
    assert_eq!(futures.into_iter().next_back().unwrap().wait(), Ok(42));
}

/// The paper's memory-complexity claim (Appendix C): segments full of
/// cancelled cells are physically unlinked, so the chain length tracks
/// *live* waiters, not total suspensions.
#[test]
fn memory_stays_proportional_to_live_waiters() {
    const SEG: usize = 4;
    const WAVES: usize = 20;
    const PER_WAVE: usize = 400;

    let callbacks = CountingCallbacks::new();
    callbacks
        .state
        .store(-((WAVES * PER_WAVE) as i64 + 8), Ordering::SeqCst);
    let cqs: Cqs<u64, Arc<CountingCallbacks>> = Cqs::new(
        CqsConfig::new()
            .segment_size(SEG)
            .cancellation_mode(CancellationMode::Smart),
        Arc::clone(&callbacks),
    );

    // One long-lived waiter pins the front of the queue.
    let long_lived = cqs.suspend().expect_future();

    for _ in 0..WAVES {
        let wave: Vec<_> = (0..PER_WAVE)
            .map(|_| cqs.suspend().expect_future())
            .collect();
        for f in &wave {
            assert!(f.cancel());
        }
        // After each wave, the chain must NOT have grown by the wave's
        // ~PER_WAVE/SEG segments: cancelled segments are unlinked. Only the
        // waves' boundary segments (shared with live cells) may linger,
        // plus the segment pinned by the long-lived waiter and the tail.
        let segments = cqs.live_segments();
        assert!(
            segments <= 6,
            "segment chain grew to {segments}; cancelled segments not reclaimed"
        );
    }
    // Sanity: the pinned waiter is still resumable through it all.
    cqs.resume(1).unwrap();
    assert_eq!(long_lived.wait(), Ok(1));
}

/// A queue whose front is pinned by a long-lived waiter keeps delivering
/// FIFO after 50 waves of whole segments were cancelled and removed behind
/// that waiter.
#[test]
fn fifo_survives_fifty_waves_of_removed_segments() {
    const SEG: usize = 4;
    const WAVES: usize = 50;

    let callbacks = CountingCallbacks::new();
    callbacks.state.store(-10_000, Ordering::SeqCst);
    let cqs: Cqs<u64, Arc<CountingCallbacks>> = Cqs::new(
        CqsConfig::new()
            .segment_size(SEG)
            .cancellation_mode(CancellationMode::Smart),
        Arc::clone(&callbacks),
    );

    let long_lived = cqs.suspend().expect_future();
    for _ in 0..WAVES {
        // Fill a few segments past the pinned one and cancel them all.
        let wave: Vec<_> = (0..3 * SEG)
            .map(|_| cqs.suspend().expect_future())
            .collect();
        for f in &wave {
            assert!(f.cancel());
        }
    }

    // The queue must still be fully functional after all that churn.
    let tail: Vec<_> = (0..2 * SEG)
        .map(|_| cqs.suspend().expect_future())
        .collect();
    cqs.resume(0).unwrap();
    for v in 1..=(2 * SEG as u64) {
        cqs.resume(v).unwrap();
    }
    assert_eq!(long_lived.wait(), Ok(0));
    for (i, f) in tail.into_iter().enumerate() {
        assert_eq!(
            f.wait(),
            Ok(i as u64 + 1),
            "FIFO order violated after segment removals"
        );
    }
}

/// Two threads in real parallelism over one-permit semaphore accounting:
/// an impatient one suspends and cancels whole segments, removing them,
/// while a patient one acquires, audits and releases. Traversals hold
/// guard-scoped borrows, not counted clones, so this is the net under the
/// epoch argument: no pinned traverser may ever see a segment it reached
/// change identity, and the queue must stay exact while segments are
/// removed and freed under it. Once the queue drops, every segment it
/// allocated must be freed: a survivor would keep the witnessed tail
/// alive through its `next` links.
#[test]
fn removal_never_frees_a_segment_from_under_a_pinned_traverser() {
    const ROUNDS: usize = 1_000;
    /// Bounds every wait, so a failure on one side fails the other too
    /// instead of hanging it.
    const PATIENCE: Duration = Duration::from_secs(10);

    struct Sem {
        cqs: Cqs<u64, Arc<CountingCallbacks>>,
        callbacks: Arc<CountingCallbacks>,
        holders: AtomicUsize,
        resumes_issued: AtomicUsize,
        granted_by_resume: AtomicUsize,
    }
    impl Sem {
        /// `None`: the permit was free. `Some`: queued behind the holder.
        fn acquire(&self) -> Option<crate::CqsFuture<u64>> {
            if self.callbacks.state.fetch_sub(1, Ordering::SeqCst) > 0 {
                self.enter();
                return None;
            }
            Some(self.cqs.suspend().expect_future())
        }
        fn enter(&self) {
            assert_eq!(
                self.holders.fetch_add(1, Ordering::SeqCst),
                0,
                "two holders"
            );
        }
        fn release(&self) {
            self.holders.fetch_sub(1, Ordering::SeqCst);
            if self.callbacks.state.fetch_add(1, Ordering::SeqCst) < 0 {
                self.resumes_issued.fetch_add(1, Ordering::SeqCst);
                self.cqs.resume(0).unwrap();
            }
        }
        /// A waiter found its future completed: it holds the permit now.
        fn granted(&self) {
            self.granted_by_resume.fetch_add(1, Ordering::SeqCst);
            self.enter();
        }
    }

    for segment_size in [1usize, 2, 16] {
        let callbacks = CountingCallbacks::new();
        callbacks.state.store(1, Ordering::SeqCst);
        let sem = Sem {
            cqs: Cqs::new(
                CqsConfig::new()
                    .segment_size(segment_size)
                    .cancellation_mode(CancellationMode::Smart),
                Arc::clone(&callbacks),
            ),
            callbacks,
            holders: AtomicUsize::new(0),
            resumes_issued: AtomicUsize::new(0),
            granted_by_resume: AtomicUsize::new(0),
        };
        let waves = AtomicUsize::new(0);
        let rounds = AtomicUsize::new(0);

        // The patient side starts out holding the permit.
        assert!(sem.acquire().is_none());
        std::thread::scope(|scope| {
            // Patient: holds the permit — and a pin over every linked
            // segment — for a whole wave, so the wave queues up behind
            // it, cancels and removes under its eyes;
            // then releases into the next wave and queues up itself.
            scope.spawn(|| loop {
                let wave = waves.load(Ordering::SeqCst);
                if rounds.load(Ordering::SeqCst) == ROUNDS {
                    return sem.release();
                }
                sem.cqs.audit_segment_ids(|| {
                    let deadline = std::time::Instant::now() + PATIENCE;
                    while waves.load(Ordering::SeqCst) == wave {
                        assert!(std::time::Instant::now() < deadline, "no wave came");
                        std::thread::yield_now();
                    }
                });
                sem.release();
                if let Some(waiting) = sem.acquire() {
                    assert_eq!(waiting.wait_timeout(PATIENCE), Ok(0));
                    sem.granted();
                }
                rounds.fetch_add(1, Ordering::SeqCst);
            });
            // Impatient: four segments' worth of waiters per wave, all
            // cancelled in FIFO order; a cancel that loses to a resume
            // holds the permit and hands it on. One wave past the last
            // round, so the patient side is never left waiting for one.
            let mut last = false;
            while !last {
                last = rounds.load(Ordering::SeqCst) == ROUNDS;
                let wave: Vec<_> = (0..4 * segment_size).map(|_| sem.acquire()).collect();
                for waiter in wave {
                    match waiter {
                        None => sem.release(),
                        Some(waiting) if !waiting.cancel() => {
                            // (The resumer may still be mid-`complete`.)
                            assert_eq!(waiting.wait_timeout(PATIENCE), Ok(0));
                            sem.granted();
                            sem.release();
                        }
                        Some(_cancelled) => {}
                    }
                }
                sem.cqs.audit_segment_ids(|| {});
                waves.fetch_add(1, Ordering::SeqCst);
            }
        });
        let tag = format!("segment_size {segment_size}");
        assert_eq!(
            sem.callbacks.state.load(Ordering::SeqCst),
            1,
            "permit lost: {tag}"
        );
        assert_eq!(sem.holders.load(Ordering::SeqCst), 0, "{tag}");
        assert_eq!(
            sem.resumes_issued.load(Ordering::SeqCst),
            sem.granted_by_resume.load(Ordering::SeqCst)
                + sem.callbacks.refused.load(Ordering::SeqCst),
            "a resume was lost or delivered twice: {tag}"
        );
        let segments = sem.cqs.live_segments();
        assert!(segments <= 3, "{segments} segments linked at rest: {tag}");
        let witnesses = sem.cqs.segment_witnesses();
        drop(sem);
        let survivor = first_survivor(&witnesses);
        assert_eq!(survivor, None, "a segment outlived its queue: {tag}");
    }
}

/// Waits (at most ten seconds) until every witness is dead and returns
/// the index of one that is not. It only pins: every so many pins, the
/// shared collector tries to advance its epoch and drain a stale bin. A
/// `flush` would also wait out all the garbage that sibling test threads
/// keep retiring, up to its own deadline each time.
pub(crate) fn first_survivor<T>(witnesses: &[std::sync::Weak<T>]) -> Option<usize> {
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        let survivor = witnesses.iter().position(|w| w.strong_count() > 0);
        if survivor.is_none() || std::time::Instant::now() > deadline {
            return survivor;
        }
        (0..1_000).for_each(|_| drop(cqs_reclaim::pin()));
    }
}

/// The schedule that leaked at `segment_size(1)` while `prev` owned its
/// target. One waiter per segment P, X, M; P's is resumed. A canceller
/// removes X and pauses between finding its neighbours (P and M) and
/// linking them, while a resumer skips X and enters M; then the late
/// `M.prev = P` and `P.next = M` land. Once both heads move past M,
/// nothing reaches P or M but each other. Explored up to two preemptions:
/// after the queue drops, P, X and M must be freed.
#[cfg(feature = "chaos")]
#[test]
fn late_link_behind_a_resume_leaks_no_segment() {
    use cqs_check::{Explorer, Program};

    let exploration = Explorer::default().check_exhaustive(|| {
        let callbacks = CountingCallbacks::new();
        callbacks.state.store(-3, Ordering::SeqCst); // three registered waiters
        let cqs = Arc::new(Cqs::new(
            CqsConfig::new()
                .segment_size(1)
                .cancellation_mode(CancellationMode::Smart),
            callbacks,
        ));
        let mut waiters: Vec<_> = (0..3).map(|_| cqs.suspend().expect_future()).collect();
        cqs.resume(0).unwrap();
        let witnesses = cqs.segment_witnesses();
        let x = waiters.remove(1);
        let resumer = Arc::clone(&cqs);
        Program::new()
            .thread(move || {
                let _ = x.cancel();
            })
            .thread(move || resumer.resume(1).unwrap())
            .check(move || {
                // Both heads move past M (segment 2) to a fresh segment 3.
                let last = cqs.suspend().expect_future();
                while cqs.resume_count() < 4 {
                    cqs.resume(2).unwrap();
                }
                drop((cqs, waiters, last));
                match first_survivor(&witnesses) {
                    None => Ok(()),
                    Some(id) => Err(format!("segment {id} outlived its queue")),
                }
            })
    });
    assert!(exploration.runs > 1, "two threads must branch the schedule");
}

// ---------------------------------------------------------------------
// Batched resumption (`resume_n` / `resume_all`)
// ---------------------------------------------------------------------

/// One `resume_n` call delivers to `n` waiters in FIFO order, across
/// segment boundaries (segment_size = 2, 16 waiters = 8 segments).
#[test]
fn resume_n_delivers_fifo_across_segments() {
    let cqs = simple();
    let futures: Vec<_> = (0..16).map(|_| cqs.suspend().expect_future()).collect();
    let failed = cqs.resume_n(0..16u64, 16);
    assert!(failed.is_empty(), "no cancelled cells: nothing may fail");
    for (expected, f) in futures.into_iter().enumerate() {
        assert_eq!(f.wait(), Ok(expected as u64), "FIFO order violated");
    }
    assert_eq!(cqs.resume_count(), 16);
    assert_eq!(cqs.completed_resumes(), 16);
}

/// Simple mode pairs the k-th value with the k-th claimed cell: values
/// aimed at cancelled cells come back in the failed vector.
#[test]
fn resume_n_simple_mode_fails_values_of_cancelled_cells() {
    let cqs = simple();
    let futures: Vec<_> = (0..4).map(|_| cqs.suspend().expect_future()).collect();
    assert!(futures[0].cancel());
    assert!(futures[2].cancel());
    let failed = cqs.resume_n(0..4u64, 4);
    assert_eq!(
        failed,
        vec![0, 2],
        "values paired with cancelled cells fail"
    );
    let mut futures = futures.into_iter();
    let _doomed0 = futures.next().unwrap();
    assert_eq!(futures.next().unwrap().wait(), Ok(1));
    let _doomed2 = futures.next().unwrap();
    assert_eq!(futures.next().unwrap().wait(), Ok(3));
    // Satellite-1 semantics: `resume_count` counts *attempts* (all four
    // claims), `completed_resumes` only the two deliveries.
    assert_eq!(cqs.resume_count(), 4);
    assert_eq!(cqs.completed_resumes(), 2);
}

/// Smart mode conserves values: cancelled cells consume claims but no
/// values, and the batch keeps claiming until every value lands.
#[test]
fn resume_n_smart_mode_skips_cancelled_and_conserves_values() {
    let callbacks = CountingCallbacks::new();
    callbacks.state.store(-6, Ordering::SeqCst);
    let cqs: Cqs<u64, Arc<CountingCallbacks>> = Cqs::new(
        CqsConfig::new()
            .segment_size(2)
            .cancellation_mode(CancellationMode::Smart),
        Arc::clone(&callbacks),
    );
    let futures: Vec<_> = (0..6).map(|_| cqs.suspend().expect_future()).collect();
    for f in &futures[..4] {
        assert!(f.cancel());
    }
    // Two values, two live waiters behind four cancelled cells: one batch.
    let failed = cqs.resume_n([10, 11], 2);
    assert!(failed.is_empty(), "smart mode re-claims instead of failing");
    let mut futures = futures.into_iter().skip(4);
    assert_eq!(futures.next().unwrap().wait(), Ok(10));
    assert_eq!(futures.next().unwrap().wait(), Ok(11));
    assert_eq!(cqs.completed_resumes(), 2);
    assert!(
        cqs.resume_count() >= 2,
        "attempt counter covers the extra claims too"
    );
}

/// `resume_n` past the live waiters parks values for future suspenders
/// (the ordinary resume-before-suspend elimination, batched).
#[test]
fn resume_n_parks_values_for_future_suspenders() {
    let cqs = simple();
    let f = cqs.suspend().expect_future();
    let failed = cqs.resume_n(0..3u64, 3);
    assert!(failed.is_empty());
    assert_eq!(f.wait(), Ok(0));
    for v in 1..3u64 {
        let g = cqs.suspend().expect_future();
        assert!(g.is_immediate(), "parked value must eliminate");
        assert_eq!(g.wait(), Ok(v));
    }
}

/// Synchronous mode: a batched resume aimed at absent suspenders breaks
/// the rendezvous and returns the values instead of blocking forever.
#[test]
fn resume_n_sync_mode_returns_broken_rendezvous_values() {
    let cqs: Cqs<u64> = Cqs::new(
        CqsConfig::new()
            .resume_mode(ResumeMode::Synchronous)
            .spin_limit(10),
        SimpleCancellation,
    );
    let failed = cqs.resume_n([7, 8], 2);
    assert_eq!(failed, vec![7, 8], "no suspender: both rendezvous break");
    assert_eq!(cqs.completed_resumes(), 0);
    // The suspenders that eventually arrive observe the broken cells.
    for _ in 0..2 {
        match cqs.suspend() {
            Suspend::Broken => {}
            Suspend::Future(_) => panic!("expected broken cell"),
        }
    }
}

/// `resume_n` with `n == 0` touches nothing.
#[test]
fn resume_n_zero_is_a_noop() {
    let cqs = simple();
    let _f = cqs.suspend().expect_future();
    assert!(cqs.resume_n(std::iter::empty(), 0).is_empty());
    assert_eq!(cqs.resume_count(), 0);
}

/// A short values iterator is a caller bug: claimed-but-unfulfilled cells
/// would strand waiters, so the call panics loudly instead.
#[test]
#[should_panic(expected = "fewer values")]
fn resume_n_panics_on_short_iterator() {
    let cqs = simple();
    let _f1 = cqs.suspend().expect_future();
    let _f2 = cqs.suspend().expect_future();
    let _ = cqs.resume_n([1u64], 2);
}

/// `resume_all` wakes every currently-suspended waiter with a clone of the
/// value and reports how many it delivered to.
#[test]
fn resume_all_covers_every_live_waiter() {
    let cqs: Cqs<u64> = Cqs::new(CqsConfig::new().segment_size(2), SimpleCancellation);
    let futures: Vec<_> = (0..9).map(|_| cqs.suspend().expect_future()).collect();
    assert_eq!(cqs.resume_all(42), 9);
    for f in futures {
        assert_eq!(f.wait(), Ok(42));
    }
    assert_eq!(cqs.completed_resumes(), 9);
    // The broadcast is spent: a fresh waiter stays pending.
    let mut f = cqs.suspend().expect_future();
    assert_eq!(f.try_get(), FutureState::Pending);
    f.cancel();
}

/// `resume_all` on an empty queue is free — no claims, no counter motion.
#[test]
fn resume_all_without_waiters_is_a_noop() {
    let cqs = simple();
    assert_eq!(cqs.resume_all(1), 0);
    assert_eq!(cqs.resume_count(), 0);
    // ...and a later suspender is NOT eliminated by a stale broadcast.
    let mut f = cqs.suspend().expect_future();
    assert_eq!(f.try_get(), FutureState::Pending);
    f.cancel();
}

/// `resume_all` skips cancelled waiters without spending clones on them
/// (cell-coverage semantics: claims are bounded by the snapshot).
#[test]
fn resume_all_skips_cancelled_waiters() {
    let cqs = simple();
    let futures: Vec<_> = (0..6).map(|_| cqs.suspend().expect_future()).collect();
    assert!(futures[1].cancel());
    assert!(futures[4].cancel());
    assert_eq!(cqs.resume_all(5), 4);
    for (i, f) in futures.into_iter().enumerate() {
        if i != 1 && i != 4 {
            assert_eq!(f.wait(), Ok(5));
        }
    }
}

/// `completed_resumes` tracks deliveries through the sequential path too,
/// and stays behind `resume_count` whenever attempts fail.
#[test]
fn completed_resumes_is_attempts_minus_failures() {
    let cqs = simple();
    let f = cqs.suspend().expect_future();
    assert!(f.cancel());
    assert_eq!(cqs.resume(9), Err(9));
    assert_eq!(cqs.resume_count(), 1, "the failed attempt still counts");
    assert_eq!(cqs.completed_resumes(), 0, "nothing was delivered");
    let g = cqs.suspend().expect_future();
    cqs.resume(1).unwrap();
    assert_eq!(g.wait(), Ok(1));
    assert_eq!(cqs.resume_count(), 2);
    assert_eq!(cqs.completed_resumes(), 1);
}

/// Batched resumes racing concurrent suspenders: every value is received
/// exactly once (the batched analogue of `concurrent_value_conservation`).
#[test]
fn concurrent_batched_value_conservation() {
    const SUSPENDERS: usize = 4;
    const BATCHES: usize = 500;
    const BATCH: usize = 8;

    let cqs: Arc<Cqs<u64>> = Arc::new(Cqs::new(
        CqsConfig::new().segment_size(4),
        SimpleCancellation,
    ));
    let received_sum = Arc::new(AtomicUsize::new(0));
    let received_count = Arc::new(AtomicUsize::new(0));

    let mut joins = Vec::new();
    for _ in 0..SUSPENDERS {
        let cqs = Arc::clone(&cqs);
        let sum = Arc::clone(&received_sum);
        let count = Arc::clone(&received_count);
        joins.push(std::thread::spawn(move || {
            for _ in 0..BATCHES * BATCH / SUSPENDERS {
                let v = cqs.suspend().expect_future().wait().unwrap();
                sum.fetch_add(v as usize, Ordering::SeqCst);
                count.fetch_add(1, Ordering::SeqCst);
            }
        }));
    }
    joins.push({
        let cqs = Arc::clone(&cqs);
        std::thread::spawn(move || {
            for b in 0..BATCHES as u64 {
                let base = b * BATCH as u64;
                let failed = cqs.resume_n(base..base + BATCH as u64, BATCH);
                assert!(failed.is_empty(), "no cancellations in this test");
            }
        })
    });
    for j in joins {
        j.join().unwrap();
    }
    let n = BATCHES * BATCH;
    assert_eq!(received_count.load(Ordering::SeqCst), n);
    assert_eq!(
        received_sum.load(Ordering::SeqCst),
        n * (n - 1) / 2,
        "values lost or duplicated by batched resumption"
    );
}

/// Several `resume_n` batches in flight at once (the semaphore
/// `release_n` shape): claims must partition cleanly between batches.
#[test]
fn concurrent_competing_batch_resumers() {
    const RESUMERS: usize = 4;
    const SUSPENDERS: usize = 4;
    const BATCHES: usize = 250;
    const BATCH: usize = 4;

    let cqs: Arc<Cqs<u64>> = Arc::new(Cqs::new(
        CqsConfig::new().segment_size(4),
        SimpleCancellation,
    ));
    let received_sum = Arc::new(AtomicUsize::new(0));
    let received_count = Arc::new(AtomicUsize::new(0));

    let mut joins = Vec::new();
    for _ in 0..SUSPENDERS {
        let cqs = Arc::clone(&cqs);
        let sum = Arc::clone(&received_sum);
        let count = Arc::clone(&received_count);
        joins.push(std::thread::spawn(move || {
            for _ in 0..RESUMERS * BATCHES * BATCH / SUSPENDERS {
                let v = cqs.suspend().expect_future().wait().unwrap();
                sum.fetch_add(v as usize, Ordering::SeqCst);
                count.fetch_add(1, Ordering::SeqCst);
            }
        }));
    }
    for t in 0..RESUMERS {
        let cqs = Arc::clone(&cqs);
        joins.push(std::thread::spawn(move || {
            for b in 0..BATCHES as u64 {
                let base = (t as u64 * BATCHES as u64 + b) * BATCH as u64;
                let failed = cqs.resume_n(base..base + BATCH as u64, BATCH);
                assert!(failed.is_empty(), "no cancellations in this test");
            }
        }));
    }
    for j in joins {
        j.join().unwrap();
    }
    let n = RESUMERS * BATCHES * BATCH;
    assert_eq!(received_count.load(Ordering::SeqCst), n);
    assert_eq!(
        received_sum.load(Ordering::SeqCst),
        n * (n - 1) / 2,
        "values lost or duplicated across competing batches"
    );
}
