//! Behavioural tests for the spin→yield→park wait ladder.
//!
//! These live in an integration binary so the global `parks`/`unparks`
//! counters (under `--features stats`) are not polluted by the crate's
//! unit tests; within this binary, counter-sensitive tests serialize on
//! [`STATS_LOCK`].

use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

use cqs_future::{CqsFuture, Request, WaitPolicy};
use cqs_stats::CqsStats;

static STATS_LOCK: Mutex<()> = Mutex::new(());

fn stats_guard() -> MutexGuard<'static, ()> {
    // A test that panicked while holding the lock has already failed; the
    // counters it leaked do not matter for the poisoned-lock successor.
    STATS_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// A completion landing inside the spin window must be consumed without
/// registering a thread or parking: the `parks` counter stays untouched.
#[test]
fn resume_during_spin_window_completes_with_zero_parks() {
    let _guard = stats_guard();
    let before = CqsStats::snapshot();

    let request = Arc::new(Request::new());
    let future = CqsFuture::suspended(Arc::clone(&request))
        // The waiter can never leave the spin phase on its own: the only
        // way out is observing the completion, making the test
        // deterministic rather than timing-dependent.
        .with_wait_policy(WaitPolicy::new(u32::MAX, 0));
    let completer = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(20));
        request.complete(7u32).unwrap();
    });
    assert_eq!(future.wait(), Ok(7));
    completer.join().unwrap();

    let delta = CqsStats::snapshot().delta(&before);
    assert_eq!(delta.parks, 0, "spin-window completion must not park");
    assert_eq!(delta.unparks, 0, "nothing parked, nothing to unpark");
}

/// A cancellation landing inside the yield window is observed the same way.
#[test]
fn cancel_during_yield_window_reports_cancelled_with_zero_parks() {
    let _guard = stats_guard();
    let before = CqsStats::snapshot();

    let request: Arc<Request<u32>> = Arc::new(Request::new());
    let future =
        CqsFuture::suspended(Arc::clone(&request)).with_wait_policy(WaitPolicy::new(0, u32::MAX));
    let canceller = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(20));
        assert!(request.cancel());
    });
    assert!(future.wait().is_err());
    canceller.join().unwrap();

    let delta = CqsStats::snapshot().delta(&before);
    assert_eq!(delta.parks, 0, "yield-window cancellation must not park");
}

/// `WaitPolicy::park_only()` preserves the pre-ladder behaviour: the waiter
/// parks and is explicitly unparked by the completer.
#[test]
fn park_only_policy_still_parks_and_completes() {
    let _guard = stats_guard();
    let before = CqsStats::snapshot();

    let request = Arc::new(Request::new());
    let future =
        CqsFuture::suspended(Arc::clone(&request)).with_wait_policy(WaitPolicy::park_only());
    let completer = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(30));
        request.complete(11u32).unwrap();
    });
    assert_eq!(future.wait(), Ok(11));
    completer.join().unwrap();

    let delta = CqsStats::snapshot().delta(&before);
    if cfg!(feature = "stats") {
        assert!(delta.parks >= 1, "park-only waiter must actually park");
        assert!(delta.unparks >= 1, "the completer must unpark it");
    }
}

/// Seed storm over the ladder's chaos labels (`future.wait.spin-phase`,
/// `future.wait.yield-phase`, `future.wait.park-phase`): under every seed,
/// every waiter completes with its value regardless of where in the ladder
/// the perturbation lands. Without `--features chaos` this degrades to a
/// plain multi-waiter smoke test.
#[test]
fn ladder_survives_chaos_seed_storm() {
    let _guard = stats_guard();
    for seed in [1u64, 7, 42, 0xDEAD_BEEF, 1_198_211_584] {
        cqs_chaos::set_seed(seed);
        let mut waiters = Vec::new();
        let mut requests = Vec::new();
        for i in 0..8u32 {
            let request = Arc::new(Request::new());
            requests.push(Arc::clone(&request));
            // Sweep the policy space so each seed exercises all three
            // phases: pure spin, pure yield, mixed, and park-only ladders.
            let policy = match i % 4 {
                0 => WaitPolicy::new(10_000, 0),
                1 => WaitPolicy::new(0, 10_000),
                2 => WaitPolicy::new(64, 16),
                _ => WaitPolicy::park_only(),
            };
            waiters.push(std::thread::spawn(move || {
                CqsFuture::suspended(request)
                    .with_wait_policy(policy)
                    .wait()
            }));
        }
        let completer = std::thread::spawn(move || {
            for (i, request) in requests.into_iter().enumerate() {
                std::thread::yield_now();
                request.complete(i as u32).unwrap();
            }
        });
        for (i, waiter) in waiters.into_iter().enumerate() {
            assert_eq!(waiter.join().unwrap(), Ok(i as u32), "seed {seed}");
        }
        completer.join().unwrap();
    }
    cqs_chaos::disable();
}
