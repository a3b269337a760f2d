//! Pins the `WakeBatch` panic-isolation contract (no cargo feature
//! needed): a request wakes two kinds of thing, its settlement hook and
//! its waker, and a panicking one — a hook here, in practice also a task
//! waker — must never prevent the *other* wakes in
//! the batch from firing, on the inline path, on the heap-spill path, and
//! on the unwind path where the batch is dropped rather than fired.
//!
//! Before the hardening, `fire()` ran wakes bare: the first panicking
//! callback unwound out of the loop and every wake after it was lost (its
//! waiter already held a terminal request, so a parked thread would never
//! be unparked — the silent-hang shape the crash-fault injector hunts).

use cqs_future::{CqsFuture, PendingWake, Request, WakeBatch, WAKE_BATCH_INLINE};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// A completed request whose waiter bumps `fired` when woken.
fn counting_wake(fired: &Arc<AtomicUsize>) -> PendingWake {
    let r: Arc<Request<u32>> = Arc::new(Request::new());
    let fired = Arc::clone(fired);
    CqsFuture::suspended(Arc::clone(&r)).on_settled(move |_| {
        fired.fetch_add(1, Ordering::SeqCst);
    });
    r.complete_deferred(0).unwrap()
}

/// A completed request whose waiter bumps `fired` and then panics.
fn panicking_wake(fired: &Arc<AtomicUsize>) -> PendingWake {
    let r: Arc<Request<u32>> = Arc::new(Request::new());
    let fired = Arc::clone(fired);
    CqsFuture::suspended(Arc::clone(&r)).on_settled(move |_| {
        fired.fetch_add(1, Ordering::SeqCst);
        panic!("waker panicked mid-batch");
    });
    r.complete_deferred(0).unwrap()
}

/// Builds a batch of `total` wakes with panicking wakes at `panic_at`,
/// fires it, and returns (fired-count handle, captured panic).
fn run_batch(
    total: usize,
    panic_at: &[usize],
) -> (Arc<AtomicUsize>, Option<Box<dyn std::any::Any + Send>>) {
    let fired = Arc::new(AtomicUsize::new(0));
    let mut batch = WakeBatch::new();
    for i in 0..total {
        if panic_at.contains(&i) {
            batch.push(panicking_wake(&fired));
        } else {
            batch.push(counting_wake(&fired));
        }
    }
    assert_eq!(batch.len(), total);
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| batch.fire()));
    (fired, outcome.err())
}

#[test]
fn inline_path_survives_a_panicking_waker() {
    let total = WAKE_BATCH_INLINE; // all inline, no spill
    let (fired, panic) = run_batch(total, &[1]);
    assert_eq!(
        fired.load(Ordering::SeqCst),
        total,
        "wakes after the panicking waker were lost"
    );
    let panic = panic.expect("the waker's panic must surface to the caller");
    let message = panic.downcast_ref::<&str>().copied().unwrap_or_default();
    assert_eq!(message, "waker panicked mid-batch");
}

#[test]
fn spill_path_survives_panicking_wakers() {
    let total = WAKE_BATCH_INLINE + 6;
    // One panic on the inline segment, one on the heap spill: both
    // segments must keep draining past their panicking entry.
    let (fired, panic) = run_batch(total, &[2, WAKE_BATCH_INLINE + 3]);
    assert_eq!(
        fired.load(Ordering::SeqCst),
        total,
        "wakes after a panicking waker were lost (spill path)"
    );
    assert!(panic.is_some(), "the first panic must surface");
}

#[test]
fn first_of_several_panics_is_the_one_rethrown() {
    let fired = Arc::new(AtomicUsize::new(0));
    let mut batch = WakeBatch::new();
    let r: Arc<Request<u32>> = Arc::new(Request::new());
    CqsFuture::suspended(Arc::clone(&r)).on_settled(|_| panic!("first"));
    batch.push(r.complete_deferred(0).unwrap());
    let r: Arc<Request<u32>> = Arc::new(Request::new());
    CqsFuture::suspended(Arc::clone(&r)).on_settled(|_| panic!("second"));
    batch.push(r.complete_deferred(0).unwrap());
    batch.push(counting_wake(&fired));
    let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| batch.fire()))
        .expect_err("panics must surface");
    assert_eq!(panic.downcast_ref::<&str>(), Some(&"first"));
    assert_eq!(fired.load(Ordering::SeqCst), 1);
}

/// The unwind path: a batch dropped (as during the poison-and-close
/// recovery in `cqs-core`) still fires every wake and *swallows* waker
/// panics — re-raising from the destructor would abort the process when
/// the drop already runs during an unwind.
#[test]
fn dropped_batch_fires_everything_and_swallows_panics() {
    let fired = Arc::new(AtomicUsize::new(0));
    let total = WAKE_BATCH_INLINE + 4;
    let mut batch = WakeBatch::new();
    for i in 0..total {
        if i == 0 || i == WAKE_BATCH_INLINE + 1 {
            batch.push(panicking_wake(&fired));
        } else {
            batch.push(counting_wake(&fired));
        }
    }
    drop(batch); // must not unwind
    assert_eq!(
        fired.load(Ordering::SeqCst),
        total,
        "drop-path firing lost wakes after a panicking waker"
    );
}

/// The must-deliver token contract: a `PendingWake` dropped *unfired*
/// (its holder unwound between extraction and `fire()`, the shape an
/// injected crash fault produces) still delivers its wake-ups — and
/// swallows a panicking waker, since the drop may run mid-unwind.
#[test]
fn dropped_pending_wake_still_delivers() {
    let fired = Arc::new(AtomicUsize::new(0));
    drop(counting_wake(&fired));
    assert_eq!(fired.load(Ordering::SeqCst), 1, "dropped wake was lost");

    let fired = Arc::new(AtomicUsize::new(0));
    drop(panicking_wake(&fired)); // must not unwind
    assert_eq!(fired.load(Ordering::SeqCst), 1);

    // A parked thread behind the dropped token is unparked.
    let r: Arc<Request<u32>> = Arc::new(Request::new());
    let f = CqsFuture::suspended(Arc::clone(&r));
    let waiter = std::thread::spawn(move || f.wait());
    std::thread::sleep(std::time::Duration::from_millis(20));
    drop(r.complete_deferred(5).unwrap());
    assert_eq!(waiter.join().unwrap(), Ok(5), "parked waiter was stranded");
}

/// End-to-end shape: a parked thread behind a panicking waker in the same
/// batch is still unparked.
#[test]
fn parked_waiter_behind_panicking_waker_is_unparked() {
    let fired = Arc::new(AtomicUsize::new(0));
    let mut batch = WakeBatch::new();
    batch.push(panicking_wake(&fired));
    let r: Arc<Request<u32>> = Arc::new(Request::new());
    let f = CqsFuture::suspended(Arc::clone(&r));
    let waiter = std::thread::spawn(move || f.wait());
    std::thread::sleep(std::time::Duration::from_millis(20));
    batch.push(r.complete_deferred(7).unwrap());
    let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| batch.fire()));
    assert_eq!(waiter.join().unwrap(), Ok(7), "parked waiter was stranded");
}
