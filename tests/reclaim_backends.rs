//! The two memory-reclamation backends (epoch, owned-slot) are
//! *observationally equivalent*: reclamation is a memory concern, never a
//! semantic one, so the same operation sequence must produce identical
//! outcomes on queues stamped with each backend — and both must agree
//! with the sequential cell-array model.
//!
//! The second half is the memory-bound story: a chaos storm across 72
//! seeds with a deliberately *stalled* guard-holder planted on a side
//! thread. The epoch backend must defer everything behind the stalled pin
//! (its retired backlog grows with the churn), while owned-slot — whose
//! stalled guards protect nothing — keeps reclaiming throughout and ends
//! the storm with a bounded backlog.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex as StdMutex, OnceLock};

use proptest::prelude::*;

use cqs::reclaim::{flush_reclaimer, pin_with, retired_approx};
use cqs::{
    Cqs, CqsChannel, CqsConfig, CqsFuture, FutureState, ReclaimerKind, RecvError,
    SimpleCancellation,
};
use cqs_check::models::CellArrayModel;

/// Backend gauges (`retired_approx`) and chaos seeding are process-global;
/// tests in this binary serialize so one test's churn cannot pollute
/// another's backlog assertions.
fn serial() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: OnceLock<StdMutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| StdMutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

#[derive(Debug, Clone)]
enum Op {
    Suspend,
    Resume(u64),
    Cancel(usize),
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        prop_oneof![
            3 => Just(Op::Suspend),
            3 => (0u64..1000).prop_map(Op::Resume),
            1 => (0usize..64).prop_map(Op::Cancel),
        ],
        0..100,
    )
}

/// Drives one queue through the sequence, checking every outcome against
/// the model; returns an error string naming the first divergence.
fn check_against_model(kind: ReclaimerKind, ops: &[Op]) -> Result<(), String> {
    let cqs: Cqs<u64> = Cqs::new(
        CqsConfig::new().segment_size(2).reclaimer(kind),
        SimpleCancellation,
    );
    assert_eq!(cqs.reclaimer(), kind, "constructor must stamp the backend");
    let plain: Cqs<u64> = Cqs::new(CqsConfig::new(), SimpleCancellation);
    assert_eq!(plain.reclaimer(), ReclaimerKind::default());
    let mut model = CellArrayModel::default();
    let mut pending: Vec<(usize, CqsFuture<u64>)> = Vec::new();

    for (step, op) in ops.iter().enumerate() {
        let fail = |what: &str| Err(format!("[{kind}] step {step} {op:?}: {what}"));
        match op {
            Op::Suspend => {
                let cell = model.suspend_idx;
                let expected = model.suspend();
                let mut f = cqs.suspend().expect_future();
                match expected {
                    Some(v) => {
                        if !f.is_immediate() || f.try_get() != FutureState::Ready(v) {
                            return fail("expected immediate elimination");
                        }
                    }
                    None => {
                        if f.is_immediate() {
                            return fail("expected a parked waiter");
                        }
                        pending.push((cell, f));
                    }
                }
            }
            Op::Resume(v) => {
                let expected = model.resume(*v);
                let real = cqs.resume(*v);
                match expected {
                    Ok(Some(cell)) => {
                        if real.is_err() {
                            return fail("resume unexpectedly failed");
                        }
                        let Some(i) = pending.iter().position(|(c, _)| *c == cell) else {
                            return fail("completed waiter not tracked");
                        };
                        let (_, mut f) = pending.remove(i);
                        if f.try_get() != FutureState::Ready(*v) {
                            return fail("waiter did not observe the value");
                        }
                    }
                    Ok(None) => {
                        if real.is_err() {
                            return fail("parking resume unexpectedly failed");
                        }
                    }
                    Err(()) => {
                        if real.is_ok() {
                            return fail("resume of a cancelled cell must fail");
                        }
                    }
                }
            }
            Op::Cancel(i) => {
                if pending.is_empty() {
                    continue;
                }
                let i = i % pending.len();
                let (cell, f) = pending.remove(i);
                if !f.cancel() {
                    return fail("cancel of a pending waiter must succeed");
                }
                model.cancel(cell);
            }
        }
    }
    // Whatever remains is still pending under every backend.
    for (cell, mut f) in pending {
        if f.try_get() != FutureState::Pending {
            return Err(format!(
                "[{kind}] cell {cell}: untouched waiter is no longer pending"
            ));
        }
    }
    Ok(())
}

/// A channel on a chosen backend: buffered send and receive, a cancelled
/// receive, and a send that skips the cancelled receiver's cell.
fn channel_round(kind: ReclaimerKind) {
    let ch = CqsChannel::bounded_with_reclaimer(1, kind);
    ch.send(1u64).wait().unwrap();
    assert_eq!(ch.receive().wait(), Ok(1), "[{kind}]");
    let parked = ch.receive();
    assert!(!parked.is_immediate(), "[{kind}] the channel is empty");
    assert!(parked.cancel(), "[{kind}] nothing was delivered yet");
    assert_eq!(parked.wait(), Err(RecvError::Cancelled), "[{kind}]");
    ch.send(2).wait().unwrap();
    assert_eq!(ch.receive().wait(), Ok(2), "[{kind}]");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Every backend runs the same sequence and agrees with the model —
    /// hence both are observationally equivalent to each other.
    #[test]
    fn backends_are_observationally_equivalent(ops in ops()) {
        let _serial = serial();
        for kind in ReclaimerKind::ALL {
            if let Err(e) = check_against_model(kind, &ops) {
                prop_assert!(false, "{}", e);
            }
            channel_round(kind);
        }
    }
}

/// 72-seed suspend/resume/cancel storm with a planted stalled
/// guard-holder per backend. The holder takes a guard *of the backend
/// under churn* and sits on it for the whole storm:
///
/// * epoch: the stalled pin blocks the global epoch, so every displaced
///   waiter/segment defers — the backlog must visibly grow;
/// * owned-slot: a stalled guard holds no stripe borrow, so reclamation
///   proceeds and the backlog stays bounded the entire time.
#[test]
fn stalled_guard_storm_defers_epoch_but_not_owned() {
    let _serial = serial();
    const THREADS: usize = 3;
    const OPS: usize = 40;
    // Owned reclaims on the spot (bound 0 held borrows, but a racing
    // borrow can park a handful in limbo).
    const BOUNDED: usize = 512;

    for (i, seed) in (0..72u64).map(|i| (i, 0xC0DE_0000 + i * 7919)) {
        cqs_chaos::set_seed(seed);
        for kind in ReclaimerKind::ALL {
            let before = retired_approx(kind);
            let hold = Arc::new(AtomicBool::new(true));
            let ready = Arc::new(AtomicBool::new(false));
            let holder = {
                let (hold, ready) = (Arc::clone(&hold), Arc::clone(&ready));
                std::thread::spawn(move || {
                    let guard = pin_with(kind);
                    ready.store(true, Ordering::Release);
                    while hold.load(Ordering::Acquire) {
                        std::thread::yield_now();
                    }
                    drop(guard);
                })
            };
            while !ready.load(Ordering::Acquire) {
                std::hint::spin_loop();
            }

            let cqs: Arc<Cqs<u64>> = Arc::new(Cqs::new(
                CqsConfig::new()
                    .segment_size(2)
                    .freelist_slots(0)
                    .reclaimer(kind),
                SimpleCancellation,
            ));
            let joins: Vec<_> = (0..THREADS)
                .map(|t| {
                    let cqs = Arc::clone(&cqs);
                    std::thread::spawn(move || {
                        for op in 0..OPS {
                            let f = cqs.suspend().expect_future();
                            if (op + t) % 3 == 0 && f.cancel() {
                                continue;
                            }
                            // Simple cancellation: a resume landing on a
                            // cancelled cell returns the value; restart.
                            let mut v = (op * THREADS + t) as u64;
                            while let Err(bounced) = cqs.resume(v) {
                                v = bounced;
                            }
                            // The value may land in our cell or a racing
                            // sibling's; either way nobody is stranded:
                            // THREADS resumes cover THREADS non-cancelled
                            // waiters, so this wait must finish.
                            f.wait().unwrap();
                        }
                    })
                })
                .collect();
            for j in joins {
                j.join().unwrap();
            }

            let during = retired_approx(kind).saturating_sub(before);
            match kind {
                // The churn displaced hundreds of waiter records and
                // segments behind the stalled pin; epoch must have
                // deferred a visible share of them.
                ReclaimerKind::Epoch => assert!(
                    during > 0,
                    "seed {seed:#x} round {i}: epoch reclaimed through a stalled pin \
                     (backlog {during})"
                ),
                ReclaimerKind::Owned => assert!(
                    during < BOUNDED,
                    "seed {seed:#x} round {i}: {kind} backlog {during} not bounded \
                     under a stalled guard"
                ),
            }

            hold.store(false, Ordering::Release);
            holder.join().unwrap();
            drop(cqs);
            assert!(
                flush_reclaimer(kind),
                "seed {seed:#x} round {i}: {kind} backlog survived the holder's release"
            );
        }
    }
    cqs_chaos::disable();
}
