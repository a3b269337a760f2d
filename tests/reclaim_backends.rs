//! Reclamation is a memory concern, never a semantic one: any operation
//! sequence on a queue must agree with the sequential cell-array model,
//! and a channel must behave the same around a cancelled receiver,
//! however the collector schedules the frees underneath.
//!
//! The second half is the memory-bound story: a chaos storm across 72
//! seeds with a deliberately *stalled* guard-holder planted on a side
//! thread. The epoch collector must defer everything behind the stalled
//! pin (its retired backlog grows with the churn), and once the stall
//! ends a flush frees the whole backlog.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex as StdMutex, OnceLock};

use proptest::prelude::*;

use cqs::reclaim::{flush, pin, retired_approx};
use cqs::{Cqs, CqsChannel, CqsConfig, CqsFuture, FutureState, RecvError, SimpleCancellation};
use cqs_check::models::CellArrayModel;

/// The collector's gauge (`retired_approx`) and chaos seeding are process-global;
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
fn check_against_model(ops: &[Op]) -> Result<(), String> {
    let cqs: Cqs<u64> = Cqs::new(CqsConfig::new().segment_size(2), SimpleCancellation);
    let mut model = CellArrayModel::default();
    let mut pending: Vec<(usize, CqsFuture<u64>)> = Vec::new();

    for (step, op) in ops.iter().enumerate() {
        let fail = |what: &str| Err(format!("step {step} {op:?}: {what}"));
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
    // Whatever remains is still pending.
    for (cell, mut f) in pending {
        if f.try_get() != FutureState::Pending {
            return Err(format!(
                "cell {cell}: untouched waiter is no longer pending"
            ));
        }
    }
    Ok(())
}

/// A channel: buffered send and receive, a cancelled receive, and a send
/// that skips the cancelled receiver's cell.
fn channel_round() {
    let ch = CqsChannel::bounded(1);
    ch.send(1u64).wait().unwrap();
    assert_eq!(ch.receive().wait(), Ok(1));
    let parked = ch.receive();
    assert!(!parked.is_immediate(), "the channel is empty");
    assert!(parked.cancel(), "nothing was delivered yet");
    assert_eq!(parked.wait(), Err(RecvError::Cancelled));
    ch.send(2).wait().unwrap();
    assert_eq!(ch.receive().wait(), Ok(2));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The queue agrees with the model on every sequence, and the channel
    /// round completes beside it.
    #[test]
    fn queue_agrees_with_the_cell_array_model(ops in ops()) {
        let _serial = serial();
        if let Err(e) = check_against_model(&ops) {
            prop_assert!(false, "{}", e);
        }
        channel_round();
    }
}

/// 72-seed suspend/resume/cancel storm with a planted stalled
/// guard-holder. The holder pins the default collector and sits on the
/// guard for the whole storm, so the global epoch cannot advance and
/// every displaced waiter/segment defers — the backlog must visibly grow.
/// Once the holder unpins, a flush must free all of it.
#[test]
fn stalled_guard_storm_defers_until_the_stall_ends() {
    let _serial = serial();
    const THREADS: usize = 3;
    const OPS: usize = 40;

    for (i, seed) in (0..72u64).map(|i| (i, 0xC0DE_0000 + i * 7919)) {
        cqs_chaos::set_seed(seed);
        let before = retired_approx();
        let hold = Arc::new(AtomicBool::new(true));
        let ready = Arc::new(AtomicBool::new(false));
        let holder = {
            let (hold, ready) = (Arc::clone(&hold), Arc::clone(&ready));
            std::thread::spawn(move || {
                let guard = pin();
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
            CqsConfig::new().segment_size(2),
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

        // The churn displaced hundreds of waiter records and segments
        // behind the stalled pin; a visible share of them must be waiting.
        let during = retired_approx().saturating_sub(before);
        assert!(
            during > 0,
            "seed {seed:#x} round {i}: reclaimed through a stalled pin (backlog {during})"
        );

        hold.store(false, Ordering::Release);
        holder.join().unwrap();
        drop(cqs);
        assert!(
            flush(),
            "seed {seed:#x} round {i}: backlog survived the holder's release"
        );
    }
    cqs_chaos::disable();
}
