//! Exhaustive exploration of the inline cancellation handler's
//! install-vs-cancel race (run with `--features chaos`).
//!
//! A waiter's handler is no longer a boxed per-waiter object: the request
//! stores `(Arc<Segment>, cell index)` inline and `suspend()` installs it
//! right after publishing the waiter in its cell. Between those two steps
//! the request is already reachable — `close()` sweeps the cells and
//! cancels whatever it finds — so a cancellation can win the request
//! *before* it has a handler. `Request` resolves that with `handler_due`:
//! the canceller leaves a note, and the installer runs the handler itself.
//!
//! The program below races exactly those two sides, under the
//! `cqs_check::Explorer` at the CI preemption bound: in each interleaving
//! the cell-side handler — observed through
//! the smart-cancellation `on_cancellation` callback it invokes — runs
//! exactly once: never zero times (a cancelled cell left in `REQUEST`
//! forever), never twice (a double deregistration).

#![cfg(feature = "chaos")]

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex as StdMutex};

use cqs::{CancellationMode, Cqs, CqsCallbacks, CqsConfig, CqsFuture, FutureState};
use cqs_check::{Explorer, Program};

/// Counts handler runs: `on_cancellation` is called once per handler run.
struct CountsCancellations(Arc<AtomicUsize>);

impl CqsCallbacks<u64> for CountsCancellations {
    fn on_cancellation(&self) -> bool {
        self.0.fetch_add(1, Ordering::SeqCst);
        true // deregistered: the cell becomes CANCELLED
    }

    fn complete_refused_resume(&self, _value: u64) {
        unreachable!("nothing resumes in this program")
    }
}

#[test]
fn cancel_racing_the_handler_install_runs_the_handler_exactly_once() {
    let exploration = Explorer {
        preemption_bound: 2,
        ..Explorer::default()
    }
    .check_exhaustive(move || {
        let handler_runs = Arc::new(AtomicUsize::new(0));
        let cqs = Arc::new(Cqs::new(
            CqsConfig::new()
                .segment_size(2)
                .cancellation_mode(CancellationMode::Smart),
            CountsCancellations(Arc::clone(&handler_runs)),
        ));
        let slot: Arc<StdMutex<Option<CqsFuture<u64>>>> = Arc::default();
        Program::new()
            .thread({
                let (cqs, slot) = (Arc::clone(&cqs), Arc::clone(&slot));
                move || {
                    // Publishes the waiter, then installs the handler.
                    let f = cqs.suspend().expect_future();
                    *slot.lock().unwrap() = Some(f);
                }
            })
            .thread({
                let cqs = Arc::clone(&cqs);
                // Cancels the waiter wherever the sweep finds it —
                // including inside the install window.
                move || cqs.close()
            })
            .check(move || {
                let mut f = slot
                    .lock()
                    .unwrap()
                    .take()
                    .ok_or("suspender never stored its future")?;
                // Swept by close, or self-cancelled by the suspender's
                // post-install closed check: terminal either way.
                match f.try_get() {
                    FutureState::Cancelled => {}
                    other => return Err(format!("waiter is {other:?}")),
                }
                match handler_runs.load(Ordering::SeqCst) {
                    1 => Ok(()),
                    n => Err(format!("handler ran {n} times, expected once")),
                }
            })
    });
    assert!(
        exploration.runs >= 2,
        "a 2-thread race must need more than one schedule, ran {}",
        exploration.runs
    );
}
