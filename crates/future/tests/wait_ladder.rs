//! Behavioural tests for the spin→yield→park wait ladder.
//!
//! These live in an integration binary so the global `parks`/`unparks`
//! counters (under `--features stats`) are not polluted by the crate's
//! unit tests; within this binary, counter-sensitive tests serialize on
//! [`STATS_LOCK`]. The zero-park assertions need both `chaos` (to land the
//! completion inside a window) and `stats` (to see the parks):
//! `cargo test -p cqs-future --features "chaos stats" --test wait_ladder`.

use std::sync::{Arc, Mutex, MutexGuard};

use cqs_future::{CqsFuture, Request};
use cqs_stats::CqsStats;

static STATS_LOCK: Mutex<()> = Mutex::new(());

fn stats_guard() -> MutexGuard<'static, ()> {
    // A test that panicked while holding the lock has already failed; the
    // counters it leaked do not matter for the poisoned-lock successor.
    STATS_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Settles a request from inside the waiter's own ladder: the first time
/// the waiter reaches `label`, `settle` runs on that thread, so the
/// settlement lands exactly in that window whatever the timing.
#[cfg(feature = "chaos")]
struct SettleAt {
    label: &'static str,
    settle: Mutex<Option<Box<dyn FnOnce() + Send>>>,
}

#[cfg(feature = "chaos")]
impl cqs_chaos::Scheduler for SettleAt {
    fn at_point(&self, label: &'static str) {
        if label == self.label {
            // Taken before running: settling crosses windows of its own.
            let settle = self.settle.lock().unwrap().take();
            if let Some(settle) = settle {
                settle();
            }
        }
    }
}

#[cfg(feature = "chaos")]
fn settle_at(label: &'static str, settle: impl FnOnce() + Send + 'static) -> Arc<SettleAt> {
    Arc::new(SettleAt {
        label,
        settle: Mutex::new(Some(Box::new(settle))),
    })
}

/// A completion landing inside the spin window is consumed without
/// registering a waker or parking: the `parks` counter stays untouched.
#[cfg(feature = "chaos")]
#[test]
fn resume_during_spin_window_completes_with_zero_parks() {
    let _guard = stats_guard();
    let request = Arc::new(Request::new());
    let completer = Arc::clone(&request);
    let _scheduler = cqs_chaos::scoped_scheduler(settle_at("future.wait.spin-phase", move || {
        completer.complete(7u32).unwrap()
    }));
    let before = CqsStats::snapshot();

    assert_eq!(CqsFuture::suspended(request).wait(), Ok(7));

    let delta = CqsStats::snapshot().delta(&before);
    assert_eq!(delta.parks, 0, "spin-window completion must not park");
    assert_eq!(delta.unparks, 0, "nothing parked, nothing to unpark");
}

/// A cancellation landing inside the yield window is observed the same way.
#[cfg(feature = "chaos")]
#[test]
fn cancel_during_yield_window_reports_cancelled_with_zero_parks() {
    let _guard = stats_guard();
    let request: Arc<Request<u32>> = Arc::new(Request::new());
    let canceller = Arc::clone(&request);
    let _scheduler = cqs_chaos::scoped_scheduler(settle_at("future.wait.yield-phase", move || {
        assert!(canceller.cancel())
    }));
    let before = CqsStats::snapshot();

    assert!(CqsFuture::suspended(request).wait().is_err());

    let delta = CqsStats::snapshot().delta(&before);
    assert_eq!(delta.parks, 0, "yield-window cancellation must not park");
    assert_eq!(delta.unparks, 0, "nothing parked, nothing to unpark");
}

/// A completion arriving after the ladder finds the waiter parked, and
/// wakes it through its park waker.
#[test]
fn late_completion_parks_and_wakes_the_waiter() {
    let _guard = stats_guard();
    let before = CqsStats::snapshot();

    let request = Arc::new(Request::new());
    let future = CqsFuture::suspended(Arc::clone(&request));
    let parks_before = before.parks;
    let completer = std::thread::spawn(move || {
        // With the counters on, complete only once the waiter has parked.
        while cqs_stats::enabled() && CqsStats::snapshot().parks == parks_before {
            std::thread::yield_now();
        }
        request.complete(11u32).unwrap();
    });
    assert_eq!(future.wait(), Ok(11));
    completer.join().unwrap();

    let delta = CqsStats::snapshot().delta(&before);
    if cqs_stats::enabled() {
        assert!(delta.parks >= 1, "the waiter must actually park");
        assert!(delta.unparks >= 1, "the completer must unpark it");
    }
}

/// Seed storm over the ladder's chaos labels (`future.wait.spin-phase`,
/// `future.wait.yield-phase`, `future.wait.park-phase`): under every seed,
/// every waiter completes with its value regardless of where in the ladder
/// the perturbation lands. The completer reaches the waiters at staggered
/// delays, so each seed sees completions in every phase. Without
/// `--features chaos` this degrades to a plain multi-waiter smoke test.
#[test]
fn ladder_survives_chaos_seed_storm() {
    let _guard = stats_guard();
    for seed in [1u64, 7, 42, 0xDEAD_BEEF, 1_198_211_584] {
        cqs_chaos::set_seed(seed);
        let mut waiters = Vec::new();
        let mut requests = Vec::new();
        for _ in 0..8u32 {
            let request = Arc::new(Request::new());
            requests.push(Arc::clone(&request));
            waiters.push(std::thread::spawn(move || {
                CqsFuture::suspended(request).wait()
            }));
        }
        let completer = std::thread::spawn(move || {
            for (i, request) in requests.into_iter().enumerate() {
                for _ in 0..i * i {
                    std::thread::yield_now();
                }
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
