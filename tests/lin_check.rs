//! Linearizability checking of chaos storms (run with `--features chaos`).
//!
//! Each test runs a small storm under seeded chaos perturbation while the
//! `cqs_chaos::record!` seam captures a per-thread invoke/response
//! history, then asks the Wing–Gong checker (`cqs_check::lin`) to find a
//! sequential order of the completed operations that a reference model
//! accepts and that respects real time. This is the executable analogue
//! of the paper's Theorem 1 (the primitives built on CQS are
//! linearizable): instead of an Iris proof over all executions, a
//! mechanical search over recorded ones.
//!
//! Invoke edges are recorded inside the primitives (`Semaphore::acquire`,
//! `RawMutex::lock`, `release`/`unlock` record both edges); response
//! edges for suspending operations are recorded here, by the harness,
//! once the returned future resolves — only the caller knows when it
//! stopped waiting or cancelled. The pool has no in-primitive seam (its
//! element type is generic), so both edges are recorded harness-side.
//!
//! The seeds are pinned so the CI `check` job replays the exact same
//! schedules every run.

#![cfg(feature = "chaos")]

use std::sync::{Arc, Mutex as StdMutex, OnceLock};
use std::time::Duration;

use std::sync::atomic::{AtomicUsize, Ordering};

use cqs::{CqsChannel, QueuePool, RawMutex, Semaphore};
use cqs_chaos::{OpEvent, OpPhase};
use cqs_check::{
    check_linearizable, pair_history, ChannelLin, FifoQueueLin, LinError, MutexLin, SemaphoreLin,
    RESP_CANCELLED, RESP_OK,
};

/// Chaos seeding and history recording are process-global; storms must
/// not interleave. (CI additionally runs this suite with
/// `--test-threads=1`.)
fn serial() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: OnceLock<StdMutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| StdMutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

/// Pinned replay seeds for the CI check job.
fn seeds() -> impl Iterator<Item = u64> {
    (0..8u64).map(|i| 0xC0DE_0000 + i * 104_729)
}

/// Far above any chaos-induced delay; a miss means a lost wakeup.
const DEADLINE: Duration = Duration::from_secs(10);

/// Runs `storm` under the given seed with recording on and returns the
/// events of the instance it names.
fn record_storm(seed: u64, instance: u64, storm: impl FnOnce()) -> Vec<OpEvent> {
    cqs_chaos::set_seed(seed);
    cqs_chaos::start_recording();
    storm();
    let events = cqs_chaos::take_history();
    cqs_chaos::disable();
    events
        .into_iter()
        .filter(|e| e.instance == instance)
        .collect()
}

/// 3 threads hammer a 2-permit semaphore, a quarter of the acquisitions
/// aborting; the completed history must linearize against the counting
/// model under every pinned seed.
#[test]
fn semaphore_storm_histories_linearize() {
    let _serial = serial();
    const PERMITS: u64 = 2;
    for seed in seeds() {
        let sem = Arc::new(Semaphore::new(PERMITS as usize));
        let id = Arc::as_ptr(&sem) as u64;
        let events = record_storm(seed, id, || {
            let joins: Vec<_> = (0..3)
                .map(|t: usize| {
                    let sem = Arc::clone(&sem);
                    std::thread::spawn(move || {
                        for round in 0..12 {
                            let f = sem.acquire(); // invoke edge recorded inside
                            if (round + t).is_multiple_of(4) && f.cancel() {
                                cqs_chaos::record(
                                    id,
                                    "sem.acquire",
                                    OpPhase::Response,
                                    RESP_CANCELLED,
                                );
                                continue;
                            }
                            f.wait_timeout(DEADLINE)
                                .unwrap_or_else(|_| panic!("lost wakeup under seed {seed:#x}"));
                            cqs_chaos::record(id, "sem.acquire", OpPhase::Response, RESP_OK);
                            sem.release(); // both edges recorded inside
                        }
                    })
                })
                .collect();
            for j in joins {
                j.join().expect("storm thread panicked");
            }
        });
        let ops = pair_history(&events)
            .unwrap_or_else(|e| panic!("unbalanced history under seed {seed:#x}: {e}"));
        assert!(
            ops.len() >= 36,
            "history too small under seed {seed:#x}: {} ops",
            ops.len()
        );
        check_linearizable(SemaphoreLin::new(PERMITS), &ops).unwrap_or_else(|e| {
            panic!("semaphore history not linearizable under seed {seed:#x}: {e}")
        });
    }
}

/// 3 threads contend on a raw mutex, a third of the lock attempts
/// aborting; the history must linearize against the lock/unlock model.
#[test]
fn mutex_storm_histories_linearize() {
    let _serial = serial();
    for seed in seeds() {
        let m = Arc::new(RawMutex::new());
        let id = Arc::as_ptr(&m) as u64;
        let events = record_storm(seed, id, || {
            let joins: Vec<_> = (0..3)
                .map(|t: usize| {
                    let m = Arc::clone(&m);
                    std::thread::spawn(move || {
                        for round in 0..10 {
                            let f = m.lock(); // invoke edge recorded inside
                            if (round + t).is_multiple_of(3) && f.cancel() {
                                cqs_chaos::record(
                                    id,
                                    "mutex.lock",
                                    OpPhase::Response,
                                    RESP_CANCELLED,
                                );
                                continue;
                            }
                            f.wait_timeout(DEADLINE)
                                .unwrap_or_else(|_| panic!("lost wakeup under seed {seed:#x}"));
                            cqs_chaos::record(id, "mutex.lock", OpPhase::Response, RESP_OK);
                            m.unlock(); // both edges recorded inside
                        }
                    })
                })
                .collect();
            for j in joins {
                j.join().expect("storm thread panicked");
            }
        });
        let ops = pair_history(&events)
            .unwrap_or_else(|e| panic!("unbalanced history under seed {seed:#x}: {e}"));
        assert!(
            ops.len() >= 30,
            "history too small under seed {seed:#x}: {} ops",
            ops.len()
        );
        check_linearizable(MutexLin::default(), &ops)
            .unwrap_or_else(|e| panic!("mutex history not linearizable under seed {seed:#x}: {e}"));
    }
}

/// One producer feeds distinct elements to a queue pool while a single
/// consumer takes; the history must linearize against the strict-FIFO
/// queue model — the fairness order the paper proves.
///
/// The storm stays inside the pool's strict-FIFO core: one taker
/// (concurrent takers are ranked by suspension order, not claim order)
/// and no take cancellation — a cancelled take whose cell
/// already holds a value re-pockets it from the *cancelling* thread,
/// which can land it behind later puts. Conservation under aborts is
/// covered by the pool's own chaos tests; this storm checks the order.
#[test]
fn queue_pool_storm_histories_are_fifo_linearizable() {
    let _serial = serial();
    const TAKERS: usize = 1;
    const PER_TAKER: usize = 18;
    for seed in seeds() {
        let pool: Arc<QueuePool<u64>> = Arc::new(QueuePool::new());
        let id = Arc::as_ptr(&pool) as u64;
        let events = record_storm(seed, id, || {
            let mut joins = Vec::new();
            // The pool's element type is generic, so both edges are
            // recorded here at the harness level.
            joins.push({
                let pool = Arc::clone(&pool);
                std::thread::spawn(move || {
                    for v in 0..(TAKERS * PER_TAKER) as u64 {
                        cqs_chaos::record(id, "pool.put", OpPhase::Invoke, v);
                        pool.put(v);
                        cqs_chaos::record(id, "pool.put", OpPhase::Response, 0);
                    }
                })
            });
            for _ in 0..TAKERS {
                let pool = Arc::clone(&pool);
                joins.push(std::thread::spawn(move || {
                    for _round in 0..PER_TAKER {
                        cqs_chaos::record(id, "pool.take", OpPhase::Invoke, 0);
                        let f = pool.take();
                        let v = f
                            .wait_timeout(DEADLINE)
                            .unwrap_or_else(|_| panic!("lost wakeup under seed {seed:#x}"));
                        cqs_chaos::record(id, "pool.take", OpPhase::Response, v);
                    }
                }));
            }
            for j in joins {
                j.join().expect("storm thread panicked");
            }
        });
        let ops = pair_history(&events)
            .unwrap_or_else(|e| panic!("unbalanced history under seed {seed:#x}: {e}"));
        assert!(
            ops.len() >= TAKERS * PER_TAKER + TAKERS,
            "history too small under seed {seed:#x}: {} ops",
            ops.len()
        );
        check_linearizable(FifoQueueLin::default(), &ops)
            .unwrap_or_else(|e| panic!("pool history not linearizable under seed {seed:#x}: {e}"));
    }
}

/// Two senders feed a capacity-3 `CqsChannel` (a fifth of the sends
/// aborting mid-flight) while two receivers drain it until `close()` winds
/// them down, a seeded quarter of the receives cancelled at once; the
/// history must linearize against the bounded-FIFO channel model: sends
/// respect capacity at their linearization point and receives pop in head
/// order. A cancelled receive either got its element (the cancel lost) or
/// is a no-op. The channel's element type is generic, so both edges are
/// recorded harness-side, like the pool's. The channel closes once the
/// receivers have taken every accepted element: the model has no close.
#[test]
fn channel_storm_histories_are_bounded_fifo_linearizable() {
    let _serial = serial();
    const CAPACITY: u64 = 3;
    const SENDERS: u64 = 2;
    const RECEIVERS: u64 = 2;
    const PER_SENDER: u64 = 12;
    let aborted = Arc::new(AtomicUsize::new(0));
    for seed in seeds() {
        let ch: Arc<CqsChannel<u64>> = Arc::new(CqsChannel::bounded(CAPACITY as usize));
        let id = Arc::as_ptr(&ch) as u64;
        let accepted = Arc::new(AtomicUsize::new(0));
        let consumed = Arc::new(AtomicUsize::new(0));
        let events = record_storm(seed, id, || {
            let mut joins = Vec::new();
            for t in 0..SENDERS {
                let ch = Arc::clone(&ch);
                let accepted = Arc::clone(&accepted);
                joins.push(std::thread::spawn(move || {
                    for i in 0..PER_SENDER {
                        let v = t * PER_SENDER + i + 1;
                        cqs_chaos::record(id, "chan.send", OpPhase::Invoke, v);
                        let f = ch.send(v);
                        if (i + t).is_multiple_of(5) && f.cancel() {
                            // An `Ok` here means a receiver outran the cancel.
                            if f.wait().is_err() {
                                cqs_chaos::record(
                                    id,
                                    "chan.send",
                                    OpPhase::Response,
                                    RESP_CANCELLED,
                                );
                                continue;
                            }
                        } else {
                            f.wait_timeout(DEADLINE)
                                .unwrap_or_else(|_| panic!("lost send under seed {seed:#x}"));
                        }
                        cqs_chaos::record(id, "chan.send", OpPhase::Response, RESP_OK);
                        accepted.fetch_add(1, Ordering::SeqCst);
                    }
                }));
            }
            let send_joins = joins.split_off(0);
            let mut recv_joins = Vec::new();
            for t in 0..RECEIVERS {
                let ch = Arc::clone(&ch);
                let (consumed, aborted) = (Arc::clone(&consumed), Arc::clone(&aborted));
                recv_joins.push(std::thread::spawn(move || {
                    for i in 0.. {
                        cqs_chaos::record(id, "chan.recv", OpPhase::Invoke, 0);
                        let r = ch.receive();
                        let abort =
                            (seed ^ (i * RECEIVERS + t)).wrapping_mul(0x9E37_79B9) >> 30 & 3;
                        if abort == 0 && r.cancel() {
                            cqs_chaos::record(id, "chan.recv", OpPhase::Response, RESP_CANCELLED);
                            aborted.fetch_add(1, Ordering::SeqCst);
                            continue;
                        }
                        match r.wait_timeout(DEADLINE) {
                            Ok(v) => {
                                cqs_chaos::record(id, "chan.recv", OpPhase::Response, v);
                                consumed.fetch_add(1, Ordering::SeqCst);
                            }
                            Err(_) => {
                                // Woken by close() with nothing to hand over.
                                cqs_chaos::record(
                                    id,
                                    "chan.recv",
                                    OpPhase::Response,
                                    RESP_CANCELLED,
                                );
                                assert!(ch.is_closed(), "lost wakeup under seed {seed:#x}");
                                return;
                            }
                        }
                    }
                }));
            }
            for j in send_joins {
                j.join().expect("sender thread panicked");
            }
            while consumed.load(Ordering::SeqCst) < accepted.load(Ordering::SeqCst) {
                std::thread::yield_now();
            }
            let returned = ch.close();
            for j in recv_joins {
                j.join().expect("receiver thread panicked");
            }
            assert!(
                returned.is_empty(),
                "close() swept a quiescent channel under seed {seed:#x}"
            );
            assert_eq!(
                consumed.load(Ordering::SeqCst),
                accepted.load(Ordering::SeqCst),
                "elements lost under seed {seed:#x}"
            );
        });
        let ops = pair_history(&events)
            .unwrap_or_else(|e| panic!("unbalanced history under seed {seed:#x}: {e}"));
        assert!(
            ops.len() >= (SENDERS * PER_SENDER) as usize,
            "history too small under seed {seed:#x}: {} ops",
            ops.len()
        );
        check_linearizable(ChannelLin::new(Some(CAPACITY)), &ops).unwrap_or_else(|e| {
            for op in &ops {
                eprintln!("{op:?}");
            }
            panic!("channel history not linearizable under seed {seed:#x}: {e}")
        });
    }
    assert!(
        aborted.load(Ordering::SeqCst) > 0,
        "no receive cancel won in any seed"
    );
}

/// End-to-end negative control: a hand-crafted history in which two
/// non-overlapping acquisitions both succeed on a 1-permit semaphore with
/// no release in between. The checker must reject it — proving the
/// harness can actually fail, not just vacuously accept storms.
#[test]
fn checker_rejects_an_overdrawn_history() {
    let mk = |seq, thread, phase, value| OpEvent {
        seq,
        thread,
        instance: 1,
        op: "sem.acquire",
        phase,
        value,
    };
    let events = vec![
        mk(0, 1, OpPhase::Invoke, 0),
        mk(1, 1, OpPhase::Response, RESP_OK),
        mk(2, 2, OpPhase::Invoke, 0),
        mk(3, 2, OpPhase::Response, RESP_OK),
    ];
    let ops = pair_history(&events).expect("history is balanced");
    match check_linearizable(SemaphoreLin::new(1), &ops) {
        Err(LinError::NotLinearizable { .. }) => {}
        other => panic!("overdrawn history must be rejected, got {other:?}"),
    }
}
