//! Offline model checking of the cell state machine (run with
//! `--features chaos`).
//!
//! Where `tests/chaos_injection.rs` *samples* the schedule space with 72
//! random seeds, these tests *exhaust* a bounded slice of it: small 2–3
//! thread `suspend`/`resume`/`cancel`/`close`/`resume_n` programs run
//! under the `cqs_check::Explorer`, which serializes execution, treats
//! every `cqs_chaos::inject!` labelled race window as a schedule point,
//! and enumerates all interleavings depth-first up to a CHESS-style
//! preemption bound. A failing schedule is reported as a replayable
//! decision trace (see `Explorer::replay`).
//!
//! Each program encodes one protocol obligation from the paper's Iris
//! specification:
//!
//! * **no lost wakeup** — a suspend racing a resume always hands the value
//!   over (elimination or completion, Figure 5's `EMPTY`/`VALUE` corner);
//! * **exactly-once delivery** — two resumes racing one suspend deliver
//!   each value exactly once;
//! * **cancellation vs. resumption** — the smart-cancellation
//!   `CANCELLED`/`REFUSE` decision conserves the semaphore permit in every
//!   interleaving (Listing 5's cancellation handler);
//! * **close vs. broadcast** — `close()` racing `resume_all` strands
//!   nobody: every waiter settles with the value or a cancellation;
//! * **mid-batch cancellation** — a waiter cancelling while `resume_n`
//!   traverses either gets its value or the batch reports it failed,
//!   never both, and its neighbours are unaffected;
//! * **sharded handoff vs. cancellation** — for both the sharded
//!   semaphore and the sharded pool, a cancellation voiding a same-shard
//!   handoff (deregistering before the release's/put's `fetch_add`, or
//!   refusing its in-flight resume) never strands a waiter parked on a
//!   sibling shard next to the re-banked permit/element;
//! * **synchronous resume vs. cancellation** — with `spin_limit(0)` the
//!   rendezvous race resolves exactly-once: the waiter takes the value or
//!   the resume fails and keeps it, never both, never neither;
//! * **segment retire vs. concurrent traversal** — a cancellation
//!   unlinking (and retiring) a whole segment while a resume traverses
//!   past it never loses the resume's value;
//! * **channel cancel vs. delivery, poison vs. a queued send** — a
//!   rendezvous receive cancelled against a send ends in exactly one of
//!   two outcomes, and a queued send swept by `poison()` reports
//!   `Poisoned`, never `Cancelled`.
//!
//! With `--features "chaos planted-bug"` the permit-conservation program
//! and the two sharded same-shard programs are required to *fail*
//! instead: the planted `REFUSE -> CANCELLED` swap in `cqs-core`
//! manufactures a phantom permit/element, and the tests assert the
//! explorer finds it and that the recorded trace replays to the same
//! violation.

#![cfg(feature = "chaos")]

use std::future::Future;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex as StdMutex};
use std::task::{Context, Poll, Waker};

use cqs::{
    ChannelSend, Cqs, CqsChannel, CqsConfig, CqsFuture, FutureState, ResumeMode, Semaphore,
    SendError, ShardedQueuePool, ShardedSemaphore, SimpleCancellation,
};
use cqs_check::{Explorer, Program};

/// The CI-pinned exploration budget: at most 2 preemptions, the
/// documented bound for these suites.
fn explorer() -> Explorer {
    Explorer {
        preemption_bound: 2,
        ..Explorer::default()
    }
}

type Slot = Arc<StdMutex<Option<CqsFuture<u64>>>>;

fn take(slot: &Slot, who: &str) -> Result<CqsFuture<u64>, String> {
    slot.lock()
        .unwrap_or_else(|e| e.into_inner())
        .take()
        .ok_or_else(|| format!("{who}: future was never stored"))
}

fn expect_ready(f: &mut CqsFuture<u64>, want: u64, who: &str) -> Result<(), String> {
    match f.try_get() {
        FutureState::Ready(v) if v == want => Ok(()),
        other => Err(format!("{who}: expected Ready({want}), got {other:?}")),
    }
}

/// T1 suspends while T2 resumes with a value: in every interleaving the
/// value reaches the waiter — by completion (waiter installed first) or by
/// elimination (value parked first) — and the resume itself succeeds.
#[test]
fn suspend_vs_resume_never_loses_the_wakeup() {
    let exploration = explorer().check_exhaustive(|| {
        let cqs: Arc<Cqs<u64, SimpleCancellation>> = Arc::new(Cqs::new(
            CqsConfig::new().segment_size(2),
            SimpleCancellation,
        ));
        let slot: Slot = Arc::default();
        let resumed = Arc::new(AtomicBool::new(false));
        Program::new()
            .thread({
                let (cqs, slot) = (Arc::clone(&cqs), Arc::clone(&slot));
                move || {
                    let f = cqs.suspend().expect_future();
                    *slot.lock().unwrap() = Some(f);
                }
            })
            .thread({
                let (cqs, resumed) = (Arc::clone(&cqs), Arc::clone(&resumed));
                move || {
                    resumed.store(cqs.resume(7).is_ok(), Ordering::SeqCst);
                }
            })
            .check(move || {
                if !resumed.load(Ordering::SeqCst) {
                    return Err("resume(7) failed although no cell was cancelled".into());
                }
                let mut f = take(&slot, "suspender")?;
                expect_ready(&mut f, 7, "waiter")
            })
    });
    assert!(
        exploration.runs >= 2,
        "a 2-thread race must need more than one schedule, ran {}",
        exploration.runs
    );
}

/// One suspender, two resumers: every interleaving delivers each value
/// exactly once — the waiter gets one of the two values and the other is
/// parked for the *next* suspender (observed via an immediate elimination).
#[test]
fn racing_resumes_deliver_each_value_exactly_once() {
    explorer().check_exhaustive(|| {
        let cqs: Arc<Cqs<u64, SimpleCancellation>> = Arc::new(Cqs::new(
            CqsConfig::new().segment_size(2),
            SimpleCancellation,
        ));
        let slot: Slot = Arc::default();
        let ok = [
            Arc::new(AtomicBool::new(false)),
            Arc::new(AtomicBool::new(false)),
        ];
        let mut program = Program::new().thread({
            let (cqs, slot) = (Arc::clone(&cqs), Arc::clone(&slot));
            move || {
                let f = cqs.suspend().expect_future();
                *slot.lock().unwrap() = Some(f);
            }
        });
        for (i, flag) in ok.iter().enumerate() {
            let (cqs, flag) = (Arc::clone(&cqs), Arc::clone(flag));
            program = program.thread(move || {
                flag.store(cqs.resume(i as u64 + 1).is_ok(), Ordering::SeqCst);
            });
        }
        program.check(move || {
            for (i, flag) in ok.iter().enumerate() {
                if !flag.load(Ordering::SeqCst) {
                    return Err(format!("resume({}) failed with no cancellations", i + 1));
                }
            }
            let mut f = take(&slot, "suspender")?;
            let first = match f.try_get() {
                FutureState::Ready(v @ (1 | 2)) => v,
                other => return Err(format!("waiter: expected Ready(1|2), got {other:?}")),
            };
            // The losing value must be parked in the next cell, ready to
            // eliminate with the next suspender — delivered once, not
            // dropped, not duplicated.
            let mut next = cqs.suspend().expect_future();
            expect_ready(&mut next, 3 - first, "second suspender (parked value)")
        })
    });
}

/// Builds the permit-conservation program checked below (and required to
/// fail under `--features planted-bug`): a 1-permit semaphore whose permit
/// is held, T1 acquires-then-cancels, T2 releases. Afterwards exactly one
/// permit must exist — one fresh acquire succeeds, a second stays pending.
///
/// The dangerous corner is the paper's Listing 5 `REFUSE` transition: when
/// the cancellation loses to an in-flight `release`, `on_cancellation`
/// banks the permit in the state counter and the cell must turn `REFUSE`
/// so the resumer's value dies with it. The planted bug writes `CANCELLED`
/// instead, making the resumer park a *second* (phantom) permit in the
/// next cell — which only a genuinely suspending acquire can observe.
fn permit_conservation_program() -> Program {
    let sem = Arc::new(Semaphore::new(1));
    let held = sem.acquire();
    assert!(held.is_immediate(), "setup: the single permit must be free");
    let slot: Arc<StdMutex<Option<CqsFuture<()>>>> = Arc::default();
    let cancelled = Arc::new(AtomicBool::new(false));
    Program::new()
        .thread({
            let (sem, slot, cancelled) =
                (Arc::clone(&sem), Arc::clone(&slot), Arc::clone(&cancelled));
            move || {
                let f = sem.acquire();
                cancelled.store(f.cancel(), Ordering::SeqCst);
                *slot.lock().unwrap() = Some(f);
            }
        })
        .thread({
            let sem = Arc::clone(&sem);
            move || sem.release()
        })
        .check(move || {
            let mut f = slot
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .take()
                .ok_or("acquirer: future was never stored")?;
            match (cancelled.load(Ordering::SeqCst), f.try_get()) {
                (true, FutureState::Cancelled) => {}
                (false, FutureState::Ready(())) => sem.release(), // waiter got it; put it back
                (c, other) => {
                    return Err(format!("acquirer: cancel()=={c} but future is {other:?}"))
                }
            }
            // Exactly one permit must remain, wherever the race put it.
            let mut g1 = sem.acquire();
            match g1.try_get() {
                FutureState::Ready(()) => {}
                other => return Err(format!("permit lost: first re-acquire got {other:?}")),
            }
            let g2 = sem.acquire();
            if g2.is_immediate() {
                return Err(
                    "phantom permit: a second acquisition succeeded after one release".into(),
                );
            }
            assert!(g2.cancel(), "cleanup: pending waiter must cancel");
            Ok(())
        })
}

/// In every interleaving of cancel vs. release, the semaphore ends up
/// with exactly one permit: the `CANCELLED`/`REFUSE` decision never loses
/// the permit and never mints a second one.
#[cfg(not(feature = "planted-bug"))]
#[test]
fn cancel_vs_release_conserves_the_permit() {
    explorer().check_exhaustive(permit_conservation_program);
}

/// With the planted `REFUSE -> CANCELLED` swap compiled in, the same
/// bounded exploration must *catch* the protocol violation — and the
/// decision trace it reports must replay to the same failure. This is the
/// CI proof that the explorer detects real cell-state-machine bugs rather
/// than vacuously passing.
#[cfg(feature = "planted-bug")]
#[test]
fn explorer_catches_the_planted_refuse_bug() {
    let exploration = explorer().explore(permit_conservation_program);
    let cex = exploration
        .counterexample
        .expect("the planted REFUSE bug must be caught within 2 preemptions");
    assert!(
        !cex.trace.steps.is_empty(),
        "counterexample must carry a replayable decision trace"
    );
    let err = explorer()
        .replay(permit_conservation_program, &cex.trace.choices())
        .expect_err("replaying the recorded schedule must reproduce the failure");
    assert_eq!(err, cex.error, "replay must reproduce the same violation");
}

/// `close()` racing `resume_all(9)` with two parked waiters: nobody is
/// left pending — each waiter observes the broadcast value or a
/// cancellation, and the broadcast's delivered count matches exactly the
/// waiters that got the value.
#[test]
fn close_vs_resume_all_strands_nobody() {
    explorer().check_exhaustive(|| {
        let cqs: Arc<Cqs<u64, SimpleCancellation>> = Arc::new(Cqs::new(
            CqsConfig::new().segment_size(2),
            SimpleCancellation,
        ));
        let mut waiters: Vec<CqsFuture<u64>> = (0..2)
            .map(|_| cqs.suspend().expect_future())
            .collect();
        let delivered = Arc::new(StdMutex::new(0usize));
        Program::new()
            .thread({
                let (cqs, delivered) = (Arc::clone(&cqs), Arc::clone(&delivered));
                move || {
                    *delivered.lock().unwrap() = cqs.resume_all(9);
                }
            })
            .thread({
                let cqs = Arc::clone(&cqs);
                move || cqs.close()
            })
            .check(move || {
                let delivered = *delivered.lock().unwrap_or_else(|e| e.into_inner());
                let mut got_value = 0usize;
                for (i, f) in waiters.iter_mut().enumerate() {
                    match f.try_get() {
                        FutureState::Ready(9) => got_value += 1,
                        FutureState::Cancelled => {}
                        other => {
                            return Err(format!("waiter {i}: stranded with {other:?}"));
                        }
                    }
                }
                if got_value != delivered {
                    return Err(format!(
                        "broadcast claims {delivered} deliveries but {got_value} waiters got the value"
                    ));
                }
                Ok(())
            })
    });
}

/// The channel's smart-cancellation corner, exhaustively: T1 receives and
/// immediately cancels, T2 sends into a capacity-1 `CqsChannel`. In every
/// interleaving the element survives (delivered to the receiver if the
/// cancel lost, re-routed into the buffer if it won) and the capacity
/// ledger balances to exactly one slot — no lost element, no leaked slot,
/// no phantom slot.
#[test]
fn channel_receive_cancel_vs_send_conserves_element_and_slot() {
    explorer().check_exhaustive(|| {
        let ch: Arc<CqsChannel<u64>> = Arc::new(CqsChannel::bounded(1));
        let recv_slot: Arc<StdMutex<Option<cqs::ChannelRecv<u64>>>> = Arc::default();
        let cancel_won = Arc::new(AtomicBool::new(false));
        Program::new()
            .thread({
                let (ch, recv_slot, cancel_won) = (
                    Arc::clone(&ch),
                    Arc::clone(&recv_slot),
                    Arc::clone(&cancel_won),
                );
                move || {
                    let r = ch.receive();
                    cancel_won.store(r.cancel(), Ordering::SeqCst);
                    *recv_slot.lock().unwrap() = Some(r);
                }
            })
            .thread({
                let ch = Arc::clone(&ch);
                move || {
                    // Capacity 1, channel empty: the send is always
                    // immediate (threads must not park under the explorer).
                    assert!(ch.send(5).is_immediate());
                }
            })
            .check(move || {
                let mut r = recv_slot
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .take()
                    .ok_or("receiver: future was never stored")?;
                match (cancel_won.load(Ordering::SeqCst), r.try_get()) {
                    (false, FutureState::Ready(5)) => {}
                    (true, FutureState::Cancelled) => {
                        // The element must have been re-routed into the
                        // buffer (deregistered or refused — either way it
                        // is not lost).
                        let mut r2 = ch.receive();
                        if !r2.is_immediate() {
                            return Err("element lost: cancel won but buffer is empty".into());
                        }
                        match r2.try_get() {
                            FutureState::Ready(5) => {}
                            other => return Err(format!("re-routed element: got {other:?}")),
                        }
                    }
                    (won, other) => {
                        return Err(format!("receiver: cancel()=={won} but future is {other:?}"))
                    }
                }
                // Exactly one capacity slot must exist, wherever the race
                // put it: one send is immediate, a second must block.
                let f1 = ch.send(6);
                if !f1.is_immediate() {
                    return Err("slot lost: a send on an empty channel blocked".into());
                }
                let f2 = ch.send(7);
                if f2.is_immediate() {
                    return Err("phantom slot: two immediate sends at capacity 1".into());
                }
                if !f2.cancel() {
                    return Err("cleanup: the blocked send must cancel".into());
                }
                let mut r3 = ch.receive();
                match r3.try_get() {
                    FutureState::Ready(6) => Ok(()),
                    other => Err(format!("cleanup receive: got {other:?}")),
                }
            })
    });
}

type SendPoll = Poll<Result<(), SendError<u64>>>;

/// Polls `send` once with a waker that does nothing: explorer threads must
/// not park.
fn poll_send_once(send: &mut ChannelSend<u64>) -> SendPoll {
    std::pin::Pin::new(send).poll(&mut Context::from_waker(Waker::noop()))
}

type Shared<T> = Arc<StdMutex<Option<T>>>;

fn taken<T>(shared: &Shared<T>, who: &str) -> Result<T, String> {
    shared
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .take()
        .ok_or_else(|| format!("{who}: outcome was never stored"))
}

/// Rendezvous cancel vs delivery: T1 receives and at once cancels, T2
/// sends 5 and polls its send once. Exactly one of two outcomes is
/// allowed, judged once both threads are done (a send still pending then
/// is polled again): the receiver has 5 and the send is `Ok`, or the
/// receiver is `Cancelled` and the send is still pending or has its
/// element handed back. A cancelled receiver beside an accepted send
/// would mean the element went somewhere neither side can see. `close()`
/// then returns nothing: a rendezvous channel buffers nothing.
#[test]
fn rendezvous_receive_cancel_vs_send_has_one_outcome() {
    let exploration = explorer().check_exhaustive(|| {
        let ch: Arc<CqsChannel<u64>> = Arc::new(CqsChannel::rendezvous());
        let receiver: Shared<cqs::ChannelRecv<u64>> = Arc::default();
        let sender: Shared<(SendPoll, ChannelSend<u64>)> = Arc::default();
        Program::new()
            .thread({
                let (ch, receiver) = (Arc::clone(&ch), Arc::clone(&receiver));
                move || {
                    let r = ch.receive();
                    r.cancel();
                    *receiver.lock().unwrap() = Some(r);
                }
            })
            .thread({
                let (ch, sender) = (Arc::clone(&ch), Arc::clone(&sender));
                move || {
                    let mut s = ch.send(5);
                    let polled = poll_send_once(&mut s);
                    *sender.lock().unwrap() = Some((polled, s));
                }
            })
            .check(move || {
                let mut r = taken(&receiver, "receiver")?;
                let (mut polled, mut s) = taken(&sender, "sender")?;
                if polled.is_pending() {
                    polled = poll_send_once(&mut s);
                }
                let received = r.try_get();
                let pending = match (&received, polled) {
                    (FutureState::Ready(5), Poll::Ready(Ok(()))) => false,
                    (FutureState::Cancelled, Poll::Pending) => true,
                    (
                        FutureState::Cancelled,
                        Poll::Ready(Err(
                            SendError::Cancelled(5) | SendError::Closed(5) | SendError::Poisoned(5),
                        )),
                    ) => false,
                    (received, polled) => {
                        return Err(format!("receiver {received:?} beside send {polled:?}"))
                    }
                };
                let left = ch.close();
                if !left.is_empty() {
                    return Err(format!(
                        "close() returned {left:?} from a rendezvous channel"
                    ));
                }
                if pending {
                    match poll_send_once(&mut s) {
                        Poll::Ready(Err(SendError::Closed(5))) => {}
                        other => return Err(format!("pending send after close: {other:?}")),
                    }
                }
                Ok(())
            })
    });
    assert!(exploration.runs > 1, "the race must branch the schedule");
}

/// Poison vs a queued sender: a filled `bounded(1)` channel with a send
/// queued behind it; T1 poisons, T2 polls the queued send once. If the
/// send has resolved, it resolved with its element in
/// `SendError::Poisoned` — never `Cancelled`, which would say the caller
/// aborted it.
#[test]
fn poison_vs_queued_send_reports_poisoned() {
    let exploration = explorer().check_exhaustive(|| {
        let ch: Arc<CqsChannel<u64>> = Arc::new(CqsChannel::bounded(1));
        assert!(ch.send(1).is_immediate());
        let queued = ch.send(2);
        assert!(!queued.is_immediate());
        let outcome: Shared<SendPoll> = Arc::default();
        Program::new()
            .thread({
                let ch = Arc::clone(&ch);
                move || ch.poison()
            })
            .thread({
                let outcome = Arc::clone(&outcome);
                move || {
                    let mut queued = queued;
                    *outcome.lock().unwrap() = Some(poll_send_once(&mut queued));
                }
            })
            .check(move || match taken(&outcome, "sender")? {
                Poll::Pending | Poll::Ready(Err(SendError::Poisoned(2))) => ch
                    .is_poisoned()
                    .then_some(())
                    .ok_or("poison() did not stick".into()),
                other => Err(format!("queued send beside poison: {other:?}")),
            })
    });
    assert!(exploration.runs > 1, "the race must branch the schedule");
}

/// Sweeps a 1-permit sharded semaphore after a race settled: exactly one
/// permit must exist across both shards — one probe acquire succeeds
/// immediately, a second stays pending (and is cancelled for cleanup).
fn assert_one_sharded_permit(sem: &ShardedSemaphore) -> Result<(), String> {
    let mut p1 = sem.acquire_at(0);
    match p1.try_get() {
        FutureState::Ready(()) => {}
        other => return Err(format!("permit lost: probe acquire got {other:?}")),
    }
    let p2 = sem.acquire_at(0);
    if p2.is_immediate() {
        return Err("phantom permit: two immediate acquires on one permit".into());
    }
    assert!(p2.cancel(), "cleanup: pending probe must cancel");
    Ok(())
}

/// Cross-shard steal racing a local fast path, exhaustively: a 2-shard
/// semaphore whose single permit is banked on shard 1, with T1 acquiring
/// through shard 0 (it must *steal* across the `sharded.steal.window`
/// schedule points) and T2 acquiring locally on shard 1. In every
/// interleaving exactly one of them obtains the permit and the total never
/// leaves 1 — the steal CAS and the local CAS can race but not double-pay.
#[test]
fn sharded_steal_vs_local_acquire_conserves_the_permit() {
    let exploration = explorer().check_exhaustive(|| {
        let sem = Arc::new(ShardedSemaphore::with_shards(1, 2));
        // Move the permit to shard 1: drain shard 0's share, then return
        // it through shard 1 (no waiters anywhere, so it banks there).
        let drained = sem.acquire_at(0);
        assert!(drained.is_immediate(), "setup: shard 0 holds the permit");
        sem.release_at(1);
        let slots: [Slot2; 2] = [Arc::default(), Arc::default()];
        Program::new()
            .thread({
                let (sem, slot) = (Arc::clone(&sem), Arc::clone(&slots[0]));
                move || {
                    *slot.lock().unwrap() = Some(sem.acquire_at(0)); // stealer
                }
            })
            .thread({
                let (sem, slot) = (Arc::clone(&sem), Arc::clone(&slots[1]));
                move || {
                    *slot.lock().unwrap() = Some(sem.acquire_at(1)); // local
                }
            })
            .check(move || {
                // Settle the losers *before* returning any permit: a
                // release would (correctly) migrate to a still-parked
                // waiter via the quiescence sweep and blur the tally.
                let mut winners = Vec::new();
                for (i, slot) in slots.iter().enumerate() {
                    let mut f = slot
                        .lock()
                        .unwrap_or_else(|e| e.into_inner())
                        .take()
                        .ok_or_else(|| format!("acquirer {i}: future never stored"))?;
                    match f.try_get() {
                        FutureState::Ready(()) => winners.push(i),
                        FutureState::Pending => {
                            if !f.cancel() {
                                return Err(format!(
                                    "acquirer {i}: cancel of a pending waiter lost \
                                     with no release in flight"
                                ));
                            }
                        }
                        other => return Err(format!("acquirer {i}: got {other:?}")),
                    }
                }
                let [winner] = winners[..] else {
                    return Err(format!("{} acquirers won a single permit", winners.len()));
                };
                sem.release_at(winner);
                assert_one_sharded_permit(&sem)
            })
    });
    assert!(
        exploration.runs >= 2,
        "the steal window must branch the schedule, ran {}",
        exploration.runs
    );
}

/// The release-time sibling scan racing the waiter's cancellation: the
/// single permit is held through shard 0 while a waiter parks on shard 1;
/// T1 cancels the waiter while T2 releases at shard 0, whose quiescence
/// sweep crosses the `sharded.rebalance.window` to feed shard 1. In every
/// interleaving the cancel and the migrated permit resolve exactly-once:
/// the waiter ends Ready with the permit or Cancelled with the permit
/// banked — never both, never neither (no lost wakeup, no phantom).
#[test]
fn sharded_release_scan_vs_cancel_is_exactly_once() {
    explorer().check_exhaustive(|| {
        let sem = Arc::new(ShardedSemaphore::with_shards(1, 2));
        let held = sem.acquire_at(0);
        assert!(held.is_immediate(), "setup: the permit starts held");
        let waiter = sem.acquire_at(1);
        assert!(!waiter.is_immediate(), "setup: the waiter must park");
        let waiter = Arc::new(StdMutex::new(Some(waiter)));
        let cancelled = Arc::new(AtomicBool::new(false));
        Program::new()
            .thread({
                let (waiter, cancelled) = (Arc::clone(&waiter), Arc::clone(&cancelled));
                move || {
                    let w = waiter.lock().unwrap();
                    cancelled.store(
                        w.as_ref().expect("setup stored it").cancel(),
                        Ordering::SeqCst,
                    );
                }
            })
            .thread({
                let sem = Arc::clone(&sem);
                move || sem.release_at(0)
            })
            .check(move || {
                let mut w = waiter
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .take()
                    .ok_or("waiter: future never stored")?;
                match (cancelled.load(Ordering::SeqCst), w.try_get()) {
                    (true, FutureState::Cancelled) => {} // permit banked somewhere
                    (false, FutureState::Ready(())) => sem.release_at(1), // waiter got it
                    (c, other) => {
                        return Err(format!("waiter: cancel()=={c} but future is {other:?}"))
                    }
                }
                assert_one_sharded_permit(&sem)
            })
    });
}

/// `check_exhaustive` for the programs that reach the smart-cancellation
/// `REFUSE` transition and check what it conserves. With the planted
/// `REFUSE -> CANCELLED` swap compiled in, the resumer parks a second
/// (phantom) permit/element in the next cell, so such a program must
/// instead *fail* — and, as in `explorer_catches_the_planted_refuse_bug`,
/// the reported decision trace must replay to the same error.
fn check_exhaustive_unless_planted<F: Fn() -> Program>(program: F) {
    #[cfg(not(feature = "planted-bug"))]
    explorer().check_exhaustive(program);
    #[cfg(feature = "planted-bug")]
    {
        let cex = explorer()
            .explore(&program)
            .counterexample
            .expect("the planted REFUSE bug must be caught within 2 preemptions");
        assert!(
            !cex.trace.steps.is_empty(),
            "counterexample must carry a replayable decision trace"
        );
        let err = explorer()
            .replay(&program, &cex.trace.choices())
            .expect_err("replaying the recorded schedule must reproduce the failure");
        assert_eq!(err, cex.error, "replay must reproduce the same violation");
    }
}

/// The *same-shard* sibling of the program above — the lost-wakeup corner
/// the `release_at` handoff path owns: the single permit is held through
/// shard 0, one waiter parks on shard 0 (the release's own shard) and a
/// second on shard 1. T1 cancels the shard-0 waiter while T2 releases at
/// shard 0. If the cancel voids the handoff — by deregistering before the
/// release's `fetch_add`, or by refusing the in-flight resume afterwards
/// (which re-banks the permit via `on_cancellation`) — the permit banks
/// at shard 0 with no holder anywhere, and the release must still sweep
/// it to the shard-1 waiter. A `waiting()`-snapshot-guided early return
/// strands that waiter forever; the fix decides banked-vs-served from the
/// release's own `fetch_add` and runs the quiescence sweep on both paths.
#[test]
fn sharded_same_shard_cancel_vs_release_handoff_loses_no_wakeup() {
    check_exhaustive_unless_planted(|| {
        let sem = Arc::new(ShardedSemaphore::with_shards(1, 2));
        let held = sem.acquire_at(0);
        assert!(held.is_immediate(), "setup: the permit starts held");
        let local = sem.acquire_at(0);
        assert!(!local.is_immediate(), "setup: the shard-0 waiter must park");
        let mut remote = sem.acquire_at(1);
        assert!(
            !remote.is_immediate(),
            "setup: the shard-1 waiter must park"
        );
        let local = Arc::new(StdMutex::new(Some(local)));
        let cancelled = Arc::new(AtomicBool::new(false));
        Program::new()
            .thread({
                let (local, cancelled) = (Arc::clone(&local), Arc::clone(&cancelled));
                move || {
                    let w = local.lock().unwrap();
                    cancelled.store(
                        w.as_ref().expect("setup stored it").cancel(),
                        Ordering::SeqCst,
                    );
                }
            })
            .thread({
                let sem = Arc::clone(&sem);
                move || sem.release_at(0)
            })
            .check(move || {
                let mut w = local
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .take()
                    .ok_or("local waiter: future never stored")?;
                match (cancelled.load(Ordering::SeqCst), w.try_get()) {
                    (true, FutureState::Cancelled) => {
                        // The handoff was voided; the permit must have
                        // reached the shard-1 waiter — a banked permit
                        // next to a parked waiter is the lost wakeup this
                        // program exists to rule out.
                        match remote.try_get() {
                            FutureState::Ready(()) => sem.release_at(1),
                            other => {
                                return Err(format!(
                                    "lost wakeup: local waiter cancelled but the \
                                     shard-1 waiter is {other:?}"
                                ))
                            }
                        }
                    }
                    (false, FutureState::Ready(())) => {
                        // The local waiter won the permit; the shard-1
                        // waiter stays parked and must cancel cleanly.
                        if !remote.cancel() {
                            return Err(
                                "shard-1 waiter: cancel lost with no release in flight".into()
                            );
                        }
                        sem.release_at(0);
                    }
                    (c, other) => {
                        return Err(format!(
                            "local waiter: cancel()=={c} but future is {other:?}"
                        ))
                    }
                }
                assert_one_sharded_permit(&sem)
            })
    });
}

/// The pool mirror of the program above: two takers park (one per shard),
/// T1 cancels the shard-0 taker while T2 puts through shard 0. If the
/// cancel voids the handoff the element is *stored* at shard 0 — and
/// unlike semaphore credit, a stored element has no future release coming
/// — so the put must migrate it to the shard-1 taker in every
/// interleaving (including the refusal one, where `complete_refused_resume`
/// re-stores the element after the put's resume already committed).
#[test]
fn sharded_pool_same_shard_cancel_vs_put_loses_no_wakeup() {
    check_exhaustive_unless_planted(|| {
        let pool: Arc<ShardedQueuePool<u64>> = Arc::new(ShardedQueuePool::with_shards(2));
        let local = pool.take_at(0);
        assert!(!local.is_immediate(), "setup: the shard-0 taker must park");
        let mut remote = pool.take_at(1);
        assert!(!remote.is_immediate(), "setup: the shard-1 taker must park");
        let local = Arc::new(StdMutex::new(Some(local)));
        let cancelled = Arc::new(AtomicBool::new(false));
        Program::new()
            .thread({
                let (local, cancelled) = (Arc::clone(&local), Arc::clone(&cancelled));
                move || {
                    let t = local.lock().unwrap();
                    cancelled.store(
                        t.as_ref().expect("setup stored it").cancel(),
                        Ordering::SeqCst,
                    );
                }
            })
            .thread({
                let pool = Arc::clone(&pool);
                move || pool.put_at(0, 42)
            })
            .check(move || {
                let mut t = local
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .take()
                    .ok_or("local taker: future never stored")?;
                match (cancelled.load(Ordering::SeqCst), t.try_get()) {
                    (true, FutureState::Cancelled) => {
                        // The handoff was voided; the element must have
                        // migrated to the shard-1 taker instead of idling
                        // in shard 0's store.
                        match remote.try_get() {
                            FutureState::Ready(42) => pool.put_at(1, 42),
                            other => {
                                return Err(format!(
                                    "lost wakeup: local taker cancelled but the \
                                     shard-1 taker is {other:?}"
                                ))
                            }
                        }
                    }
                    (false, FutureState::Ready(42)) => {
                        if !remote.cancel() {
                            return Err("shard-1 taker: cancel lost with no put in flight".into());
                        }
                        pool.put_at(0, 42);
                    }
                    (c, other) => {
                        return Err(format!(
                            "local taker: cancel()=={c} but future is {other:?}"
                        ))
                    }
                }
                // Exactly one element must exist, wherever the race put it.
                let mut probe = pool.take_at(0);
                match probe.try_get() {
                    FutureState::Ready(42) => {}
                    other => return Err(format!("element lost: probe take got {other:?}")),
                }
                let second = pool.take_at(0);
                if second.is_immediate() {
                    return Err("phantom element: two immediate takes of one element".into());
                }
                assert!(second.cancel(), "cleanup: pending probe must cancel");
                Ok(())
            })
    });
}

type Slot2 = Arc<StdMutex<Option<CqsFuture<()>>>>;

/// A waiter cancelling in the middle of a `resume_n` batch: value 2
/// either reaches waiter 1 or comes back in the batch's failed-value
/// vector — never both, never neither — while waiters 0 and 2 always get
/// their values (simple mode consumes a value per claimed cell).
#[test]
fn mid_batch_cancellation_is_exactly_once() {
    explorer().check_exhaustive(|| {
        let cqs: Arc<Cqs<u64, SimpleCancellation>> = Arc::new(Cqs::new(
            CqsConfig::new().segment_size(2),
            SimpleCancellation,
        ));
        let mut fs: Vec<CqsFuture<u64>> = (0..3)
            .map(|_| cqs.suspend().expect_future())
            .collect();
        let target = fs.remove(1);
        let target = Arc::new(StdMutex::new(Some(target)));
        let won = Arc::new(AtomicBool::new(false));
        let failed = Arc::new(StdMutex::new(Vec::new()));
        Program::new()
            .thread({
                let (cqs, failed) = (Arc::clone(&cqs), Arc::clone(&failed));
                move || {
                    *failed.lock().unwrap() = cqs.resume_n([1u64, 2, 3], 3);
                }
            })
            .thread({
                let (target, won) = (Arc::clone(&target), Arc::clone(&won));
                move || {
                    let t = target.lock().unwrap();
                    won.store(t.as_ref().expect("setup stored it").cancel(), Ordering::SeqCst);
                }
            })
            .check(move || {
                expect_ready(&mut fs[0], 1, "waiter 0")?;
                expect_ready(&mut fs[1], 3, "waiter 2")?;
                let mut t = take(&target, "cancelled waiter")?;
                let failed = failed.lock().unwrap_or_else(|e| e.into_inner()).clone();
                match (won.load(Ordering::SeqCst), t.try_get()) {
                    (true, FutureState::Cancelled) => {
                        if failed != [2] {
                            return Err(format!(
                                "cancel won but batch reported failed values {failed:?}, expected [2]"
                            ));
                        }
                    }
                    (true, other) => {
                        return Err(format!("cancel won but waiter 1 observes {other:?}"))
                    }
                    (false, FutureState::Ready(2)) => {
                        if !failed.is_empty() {
                            return Err(format!(
                                "value 2 both delivered and reported failed: {failed:?}"
                            ));
                        }
                    }
                    (false, other) => {
                        return Err(format!("cancel lost but waiter 1 observes {other:?}"))
                    }
                }
                Ok(())
            })
    });
}

/// The synchronous-resumption rendezvous racing a cancellation,
/// exhaustively. `spin_limit(0)` removes the resumer's wait loop, so the
/// rendezvous is decided purely by the cell state machine — the corner
/// where a stale wakeup or a double-delivery would hide. In every
/// interleaving exactly one side wins and the value is conserved: either
/// the waiter observes `Ready(7)` (and the cancel reports failure), or the
/// cancel succeeds and the resume returns `Err(7)` — the value stays with
/// the resumer, never delivered into a cancelled cell, never dropped.
#[test]
fn sync_mode_resume_vs_cancel_is_exactly_once() {
    let exploration = explorer().check_exhaustive(|| {
        let cqs: Arc<Cqs<u64, SimpleCancellation>> = Arc::new(Cqs::new(
            CqsConfig::new()
                .resume_mode(ResumeMode::Synchronous)
                .spin_limit(0)
                .segment_size(2),
            SimpleCancellation,
        ));
        let waiter = cqs.suspend().expect_future();
        assert!(!waiter.is_immediate(), "setup: the waiter must park");
        let waiter = Arc::new(StdMutex::new(Some(waiter)));
        let cancelled = Arc::new(AtomicBool::new(false));
        let resume_ok = Arc::new(AtomicBool::new(false));
        Program::new()
            .thread({
                let (waiter, cancelled) = (Arc::clone(&waiter), Arc::clone(&cancelled));
                move || {
                    let w = waiter.lock().unwrap();
                    cancelled.store(
                        w.as_ref().expect("setup stored it").cancel(),
                        Ordering::SeqCst,
                    );
                }
            })
            .thread({
                let (cqs, resume_ok) = (Arc::clone(&cqs), Arc::clone(&resume_ok));
                move || {
                    resume_ok.store(cqs.resume(7).is_ok(), Ordering::SeqCst);
                }
            })
            .check(move || {
                let mut w = take(&waiter, "waiter")?;
                let (cancelled, resume_ok) = (
                    cancelled.load(Ordering::SeqCst),
                    resume_ok.load(Ordering::SeqCst),
                );
                match (cancelled, resume_ok, w.try_get()) {
                    // Cancel won; the resume kept its value.
                    (true, false, FutureState::Cancelled) => Ok(()),
                    // Rendezvous completed; the cancel reported failure.
                    (false, true, FutureState::Ready(7)) => Ok(()),
                    (c, r, other) => Err(format!(
                        "exactly-once violated: cancel()=={c}, resume.is_ok()=={r}, \
                         waiter observes {other:?}"
                    )),
                }
            })
    });
    assert!(
        exploration.runs >= 2,
        "the rendezvous race must branch the schedule, ran {}",
        exploration.runs
    );
}

/// Segment retirement racing a resume traversal. With `segment_size(1)`
/// each waiter owns a segment, and an unlinked segment goes through the
/// collector's retire path (`epoch.defer.pre-bin`, a schedule point under
/// the explorer). T1 cancels waiter 0, unlinking its
/// segment mid-race, while T2 resumes 9 and must traverse past that
/// segment: in every interleaving the value lands exactly once — on
/// waiter 0 if the resume beat the cancel, on waiter 1 if the retire won —
/// and the traversal never touches freed memory (the explorer runs every
/// schedule, so a use-after-free on the unlink window would crash the
/// exploration).
#[test]
fn segment_retire_vs_resume_traversal_loses_no_value() {
    explorer().check_exhaustive(move || {
        let cqs: Arc<Cqs<u64, SimpleCancellation>> = Arc::new(Cqs::new(
            CqsConfig::new().segment_size(1),
            SimpleCancellation,
        ));
        let f0 = cqs.suspend().expect_future();
        let mut f1 = cqs.suspend().expect_future();
        assert!(
            !f0.is_immediate() && !f1.is_immediate(),
            "setup: both waiters must park"
        );
        let f0 = Arc::new(StdMutex::new(Some(f0)));
        let cancelled = Arc::new(AtomicBool::new(false));
        Program::new()
            .thread({
                let (f0, cancelled) = (Arc::clone(&f0), Arc::clone(&cancelled));
                move || {
                    let f = f0.lock().unwrap();
                    cancelled.store(
                        f.as_ref().expect("setup stored it").cancel(),
                        Ordering::SeqCst,
                    );
                }
            })
            .thread({
                let cqs = Arc::clone(&cqs);
                move || {
                    // Simple mode: a resume hitting the cancelled cell
                    // bounces the value; retry walks to the next cell.
                    let mut v = 9;
                    while let Err(bounced) = cqs.resume(v) {
                        v = bounced;
                    }
                }
            })
            .check(move || {
                let mut f0 = take(&f0, "waiter 0")?;
                match (cancelled.load(Ordering::SeqCst), f0.try_get()) {
                    (true, FutureState::Cancelled) => {
                        // The retire won; the traversal must have carried
                        // the value past the unlinked segment.
                        expect_ready(&mut f1, 9, "waiter 1")
                    }
                    (false, FutureState::Ready(9)) => {
                        if !f1.cancel() {
                            return Err("waiter 1: cancel of a pending waiter lost".into());
                        }
                        Ok(())
                    }
                    (c, other) => Err(format!("waiter 0: cancel()=={c} but future is {other:?}")),
                }
            })
    });
}
