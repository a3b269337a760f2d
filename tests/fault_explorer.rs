//! Crash placement searched together with thread schedules.
//!
//! The `cqs-check` explorer treats every `cqs_chaos::fault!` window as one
//! more choice of its search: under a crash budget of one, each crossing
//! on a program thread either goes on or panics there, in every explored
//! interleaving. The programs here assert the hardening contract at every
//! such placement: a crash leaves the primitive either **fully
//! operational** (the panic surfaced after the protocol finished, e.g.
//! inside a waker) or **cleanly poisoned** (every waiter settled with an
//! error, and subsequent operations fail at once) — never a stranded
//! waiter, never a lost or duplicated value.
//!
//! The programs are non-blocking: waiters are suspended in the setup, and
//! the `check` reads every future with `try_get` or `poll`. A future still
//! pending once every thread has finished is stranded, since nothing is
//! left to settle it.
//!
//! Built with the TEST-ONLY `planted-unguarded` feature, the poison
//! recovery around the batched resume traversals is compiled out and the
//! explorer must *find* the stranded waiter — CI runs that build to prove
//! the search reaches real unguarded windows.

use std::collections::BTreeSet;
use std::sync::{Arc, Mutex};

use cqs_check::explorer::fault_point;
use cqs_check::{Explorer, Program};

/// Without any chaos window, an explicit `fault_point` is the crash
/// choice: one crash per run explores both of its outcomes.
#[test]
fn explicit_fault_point_explores_both_outcomes() {
    let outcomes: Arc<Mutex<BTreeSet<bool>>> = Arc::default();
    let explorer = Explorer {
        crash_budget: 1,
        ..Explorer::default()
    };
    let exploration = explorer.check_exhaustive(|| {
        let crashed = Arc::new(Mutex::new(false));
        let outcomes = Arc::clone(&outcomes);
        Program::new()
            .thread({
                let crashed = Arc::clone(&crashed);
                move || {
                    let outcome = std::panic::catch_unwind(|| fault_point("toy.crash-window"));
                    *crashed.lock().unwrap() = outcome.is_err();
                }
            })
            .check(move || {
                outcomes.lock().unwrap().insert(*crashed.lock().unwrap());
                Ok(())
            })
    });
    assert_eq!(exploration.runs, 2);
    assert_eq!(*outcomes.lock().unwrap(), BTreeSet::from([false, true]));
}

#[cfg(feature = "chaos")]
mod enabled {
    use std::any::Any;
    use std::collections::BTreeSet;
    use std::future::Future;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::pin::Pin;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::{Arc, Mutex, MutexGuard, Once, PoisonError};
    use std::task::{Context, Waker};

    use cqs::{Cqs, CqsConfig, CqsFuture, FutureState, SimpleCancellation};
    use cqs_check::{Explorer, Program};

    /// Waiters per program.
    const W: usize = 4;

    /// One crash per run, on top of the CI-pinned 2 preemptions.
    fn explorer() -> Explorer {
        Explorer {
            preemption_bound: 2,
            crash_budget: 1,
            ..Explorer::default()
        }
    }

    /// The crash windows an injected panic fired in, as its message names
    /// them. The panic hook fills this, so it also sees crashes that the
    /// code under test catches and swallows.
    static CRASHED: Mutex<BTreeSet<String>> = Mutex::new(BTreeSet::new());

    fn payload_message(payload: &(dyn Any + Send)) -> String {
        payload
            .downcast_ref::<&str>()
            .map(|s| (*s).to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_default()
    }

    /// Installs, once per process, a panic hook that records injected
    /// crashes in [`CRASHED`] instead of printing them; every other panic
    /// prints as usual.
    fn record_injected_crashes() {
        static HOOK: Once = Once::new();
        HOOK.call_once(|| {
            let print = std::panic::take_hook();
            std::panic::set_hook(Box::new(move |info| {
                let message = payload_message(info.payload());
                match message.split("injected crash fault at `").nth(1) {
                    Some(label) => {
                        lock(&CRASHED).insert(label.trim_end_matches('`').to_string());
                    }
                    None => print(info),
                }
            }));
        });
    }

    fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
        m.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Runs a call that may cross a crash window. An injected crash that
    /// unwinds out of it comes back as `Err` with the panic's message; any
    /// other panic propagates and fails the run.
    fn survive<R>(call: impl FnOnce() -> R) -> Result<R, String> {
        catch_unwind(AssertUnwindSafe(call)).map_err(|p| {
            let message = payload_message(p.as_ref());
            if !message.contains("injected crash fault") {
                std::panic::resume_unwind(p);
            }
            message
        })
    }

    type Queue = Arc<Cqs<u64, SimpleCancellation>>;
    type Waiters = Arc<Vec<Mutex<CqsFuture<u64>>>>;

    /// A queue with `W` waiters suspended in FIFO order, each polled once
    /// with a waker so that waking it crosses `future.wake.fault.pre-fire`.
    fn queue_with_waiters() -> (Queue, Waiters) {
        let cqs = Arc::new(Cqs::new(
            CqsConfig::new().segment_size(2),
            SimpleCancellation,
        ));
        let waiters = (0..W)
            .map(|_| {
                let mut f = cqs.suspend().expect_future();
                let mut cx = Context::from_waker(Waker::noop());
                assert!(Pin::new(&mut f).poll(&mut cx).is_pending());
                Mutex::new(f)
            })
            .collect();
        (cqs, Arc::new(waiters))
    }

    /// Reads every waiter without blocking. Returns the delivered values
    /// and the number cancelled, or names the first one still pending.
    fn settle(waiters: &Waiters) -> Result<(Vec<u64>, usize), String> {
        let mut got = Vec::new();
        let mut cancelled = 0;
        for (i, w) in waiters.iter().enumerate() {
            match lock(w).try_get() {
                FutureState::Ready(v) => got.push(v),
                FutureState::Cancelled => cancelled += 1,
                FutureState::Pending => {
                    return Err(format!(
                        "waiter {i} is stranded: still pending after the run"
                    ))
                }
            }
        }
        Ok((got, cancelled))
    }

    /// The aftermath contract of a batched resume: every waiter settled,
    /// and the queue either fully operational (the only cancelled waiters
    /// are the `cancels_won` the program cancelled itself) or cleanly
    /// poisoned, in which case a new suspend fails at once. Without a
    /// crash the queue must not be poisoned. Returns the delivered values.
    fn check_aftermath(
        cqs: &Queue,
        waiters: &Waiters,
        crashed: bool,
        cancels_won: usize,
    ) -> Result<Vec<u64>, String> {
        let (got, cancelled) = settle(waiters)?;
        if !cqs.is_poisoned() && cancelled != cancels_won {
            return Err(format!(
                "unpoisoned queue cancelled {cancelled} waiters, the program {cancels_won} \
                 (crashed={crashed})"
            ));
        }
        if !crashed && cqs.is_poisoned() {
            return Err("no crash, but the queue reports poisoned".to_string());
        }
        if cqs.is_poisoned() {
            let mut late = cqs.suspend().expect_future();
            if late.try_get() != FutureState::Cancelled {
                return Err("post-poison suspend did not fail at once".to_string());
            }
        }
        Ok(got)
    }

    /// `resume_n` over the waiters while a second thread cancels one of
    /// them: the crash choice and the thread switches are searched
    /// together.
    fn resume_n_program() -> Program {
        let (cqs, waiters) = queue_with_waiters();
        let crashed = Arc::new(AtomicBool::new(false));
        let cancels_won = Arc::new(AtomicUsize::new(0));
        Program::new()
            .thread({
                let (cqs, crashed) = (Arc::clone(&cqs), Arc::clone(&crashed));
                move || {
                    if survive(|| cqs.resume_n(0..W as u64, W)).is_err() {
                        crashed.store(true, Ordering::SeqCst);
                    }
                }
            })
            .thread({
                let (waiters, crashed) = (Arc::clone(&waiters), Arc::clone(&crashed));
                let cancels_won = Arc::clone(&cancels_won);
                move || match survive(|| lock(&waiters[1]).cancel()) {
                    Ok(won) => cancels_won.store(usize::from(won), Ordering::SeqCst),
                    Err(_) => crashed.store(true, Ordering::SeqCst),
                }
            })
            .check(move || {
                let crashed = crashed.load(Ordering::SeqCst);
                let got =
                    check_aftermath(&cqs, &waiters, crashed, cancels_won.load(Ordering::SeqCst))?;
                let distinct: BTreeSet<_> = got.iter().collect();
                if distinct.len() != got.len() {
                    return Err(format!("duplicate delivery: {got:?}"));
                }
                Ok(())
            })
    }

    #[cfg(not(feature = "planted-unguarded"))]
    fn resume_all_program() -> Program {
        let (cqs, waiters) = queue_with_waiters();
        let crashed = Arc::new(AtomicBool::new(false));
        Program::new()
            .thread({
                let (cqs, crashed) = (Arc::clone(&cqs), Arc::clone(&crashed));
                move || {
                    if survive(|| cqs.resume_all(7)).is_err() {
                        crashed.store(true, Ordering::SeqCst);
                    }
                }
            })
            .check(move || {
                let got = check_aftermath(&cqs, &waiters, crashed.load(Ordering::SeqCst), 0)?;
                match got.iter().find(|&&v| v != 7) {
                    Some(v) => Err(format!("a waiter got {v}, expected the broadcast 7")),
                    None => Ok(()),
                }
            })
    }

    /// A crash in the sweep must poison; one in a waker fired after it
    /// finds every waiter already cancelled.
    #[cfg(not(feature = "planted-unguarded"))]
    fn close_program() -> Program {
        let (cqs, waiters) = queue_with_waiters();
        let crash = Arc::new(Mutex::new(None));
        Program::new()
            .thread({
                let (cqs, crash) = (Arc::clone(&cqs), Arc::clone(&crash));
                move || *lock(&crash) = survive(|| cqs.close()).err()
            })
            .check(move || {
                let (got, _) = settle(&waiters)?;
                if !got.is_empty() {
                    return Err(format!("waiters got values {got:?} from a pure close"));
                }
                if !cqs.is_closed() {
                    return Err("close returned but the queue is not closed".to_string());
                }
                let crash = lock(&crash).take().unwrap_or_default();
                if crash.contains("cqs.close.fault.mid-sweep") && !cqs.is_poisoned() {
                    return Err("a crash interrupted the close sweep without poisoning".to_string());
                }
                Ok(())
            })
    }

    #[cfg(not(feature = "planted-unguarded"))]
    fn channel_deliver_program() -> Program {
        use cqs::{CqsChannel, SendError};
        let ch: CqsChannel<u64> = CqsChannel::unbounded();
        let crashed = Arc::new(AtomicBool::new(false));
        let returned = Arc::new(AtomicUsize::new(0));
        Program::new()
            .thread({
                let (ch, crashed, returned) =
                    (ch.clone(), Arc::clone(&crashed), Arc::clone(&returned));
                move || {
                    for v in [1u64, 2] {
                        match survive(|| ch.send(v).wait()) {
                            Ok(Ok(())) => {}
                            Ok(Err(SendError::Poisoned(_))) if crashed.load(Ordering::SeqCst) => {
                                returned.fetch_add(1, Ordering::SeqCst);
                            }
                            Ok(Err(e)) => panic!("send {v} failed unexpectedly: {e}"),
                            Err(_) => crashed.store(true, Ordering::SeqCst),
                        }
                    }
                }
            })
            .check(move || {
                if !crashed.load(Ordering::SeqCst) {
                    let (mut first, mut second) = (ch.receive(), ch.receive());
                    if (first.try_get(), second.try_get())
                        != (FutureState::Ready(1), FutureState::Ready(2))
                    {
                        return Err("FIFO broken without a crash".to_string());
                    }
                    return Ok(());
                }
                if !ch.is_poisoned() {
                    return Err("crash in deliver left the channel unpoisoned".to_string());
                }
                if ch.receive().try_get() != FutureState::Cancelled {
                    return Err("post-poison receive did not fail at once".to_string());
                }
                // Conservation: the crashed delivery's element is in the
                // orphan list, accepted ones come back from the sweep.
                let drained = ch.drain().len();
                let returned = returned.load(Ordering::SeqCst);
                if drained + returned != 2 {
                    return Err(format!(
                        "conservation violated: drained {drained} + returned {returned} != 2"
                    ));
                }
                Ok(())
            })
    }

    /// The shape of `panic_storm`'s `channel_fault_storm`, small enough to
    /// search: a `bounded(1)` channel, two producers sending two distinct
    /// elements each, a consumer that receives twice and gives up each
    /// receive still waiting, and a closer. The check closes and drains
    /// the channel, then reads every send and receive: none may still be
    /// pending, and each element must be in exactly one place.
    #[cfg(not(feature = "planted-unguarded"))]
    fn channel_storm_program() -> Program {
        use cqs::{ChannelRecv, ChannelSend, CqsChannel};
        use std::task::Poll;
        let ch: CqsChannel<u64> = CqsChannel::bounded(1);
        let sends: Arc<Mutex<Vec<ChannelSend<u64>>>> = Arc::default();
        let recvs: Arc<Mutex<Vec<ChannelRecv<u64>>>> = Arc::default();
        let closed: Arc<Mutex<Vec<u64>>> = Arc::default();
        let mut program = Program::new();
        for first in [1u64, 3] {
            let (ch, sends) = (ch.clone(), Arc::clone(&sends));
            program = program.thread(move || {
                for v in [first, first + 1] {
                    if let Ok(send) = survive(|| ch.send(v)) {
                        lock(&sends).push(send);
                    }
                }
            });
        }
        program = program.thread({
            let (ch, recvs) = (ch.clone(), Arc::clone(&recvs));
            move || {
                for _ in 0..2 {
                    if let Ok(recv) = survive(|| ch.receive()) {
                        let _ = survive(|| recv.cancel());
                        lock(&recvs).push(recv);
                    }
                }
            }
        });
        program
            .thread({
                let (ch, closed) = (ch.clone(), Arc::clone(&closed));
                move || {
                    if let Ok(buffered) = survive(|| ch.close()) {
                        lock(&closed).extend(buffered);
                    }
                }
            })
            .check(move || {
                let mut seen = std::mem::take(&mut *lock(&closed));
                seen.extend(ch.close());
                seen.extend(ch.drain());
                for mut recv in lock(&recvs).drain(..) {
                    match recv.try_get() {
                        FutureState::Ready(v) => seen.push(v),
                        FutureState::Cancelled => {}
                        FutureState::Pending => {
                            return Err("a receive still pending after close".to_string())
                        }
                    }
                }
                let mut pending = 0;
                let mut cx = Context::from_waker(Waker::noop());
                for mut send in lock(&sends).drain(..) {
                    match Pin::new(&mut send).poll(&mut cx) {
                        Poll::Pending => pending += 1,
                        Poll::Ready(Ok(())) => {}
                        Poll::Ready(Err(e)) => seen.push(e.into_inner()),
                    }
                }
                if pending > 0 {
                    return Err(format!(
                        "{pending} send{} still pending after close",
                        if pending == 1 { "" } else { "s" }
                    ));
                }
                seen.sort_unstable();
                if seen != [1, 2, 3, 4] {
                    return Err(format!("elements not conserved: {seen:?}"));
                }
                Ok(())
            })
    }

    /// `Trace::choices()` of the first failing schedule the search below
    /// finds (schedule 769 of the storm program, 62 decisions).
    #[cfg(not(feature = "planted-unguarded"))]
    const STORM_HANG: &[usize] = &[
        0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1,
        2, 2, 2, 2, 2, 2, 2, 2, 2, 0, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 3, 3, 3, 3, 0, 3, 3, 3, 3, 3,
        2, 1,
    ];

    /// `channel_fault_storm`'s hang as a replayable trace. In
    /// [`STORM_HANG`] (t0, t1 producers, t2 the consumer, t3 the closer):
    /// both producers fill the slot and queue their remaining sends
    /// (#0–#29); the consumer's receives free the slot and resume a queued
    /// send's grant (#30–#49), and the closer's sweep cancels a waiter
    /// (#50–#59) while the consumer's second resume is in flight (#60).
    /// A delivery then runs on the closer's thread and crashes at
    /// `channel.deliver.fault.pre-count` (#61), and one send is left
    /// pending after `close`: the send whose `wait()` parks forever in the
    /// storm. All 50 of 50 replays fail the same way; with a crash budget
    /// of 0 the same program runs all 90 360 schedules clean.
    ///
    /// The test asserts the correct contract (no send pending after
    /// `close`, every element in exactly one place), so it fails until the
    /// channel is rebuilt; run it with `-- --ignored`.
    #[cfg(not(feature = "planted-unguarded"))]
    #[test]
    #[ignore = "channel_fault_storm hang; fixed by the channel rewrite"]
    fn channel_storm_strands_no_send() {
        record_injected_crashes();
        let explorer = explorer();
        if let Err(error) = explorer.replay(channel_storm_program, STORM_HANG) {
            panic!("the committed storm trace fails: {error}");
        }
        explorer.check_exhaustive(channel_storm_program);
    }

    /// The hardening proof: with the recovery paths compiled in, a crash
    /// in any fault-eligible window, in any explored schedule, leaves the
    /// primitive operational or cleanly poisoned — and every window is
    /// crashed in at least one schedule.
    #[cfg(not(feature = "planted-unguarded"))]
    #[test]
    fn every_crash_placement_recovers_or_poisons() {
        record_injected_crashes();
        let programs = [
            ("resume_n", resume_n_program as fn() -> Program),
            ("resume_all", resume_all_program),
            ("close", close_program),
            ("channel_deliver", channel_deliver_program),
        ];
        let mut crashed = BTreeSet::new();
        for (name, program) in programs {
            let started = std::time::Instant::now();
            let exploration = explorer().explore(program);
            if let Some(cx) = &exploration.counterexample {
                panic!("[{name}] failed after {} runs\n{cx}", exploration.runs);
            }
            assert!(exploration.exhausted, "[{name}] stopped early");
            let labels = std::mem::take(&mut *lock(&CRASHED));
            println!(
                "{name}: {} schedules in {:?}, crashed at {labels:?}",
                exploration.runs,
                started.elapsed()
            );
            crashed.extend(labels);
        }
        for label in cqs_chaos::FAULT_LABELS {
            assert!(
                crashed.contains(*label),
                "no schedule crashed at {label}; crashed: {crashed:?}"
            );
        }
    }

    /// The detector proof: with the poison recovery compiled out
    /// (TEST-ONLY `planted-unguarded`), the explorer must find a stranded
    /// waiter, name the crash in its trace, and replay it.
    #[cfg(feature = "planted-unguarded")]
    #[test]
    fn explorer_detects_the_planted_unguarded_window() {
        record_injected_crashes();
        let explorer = explorer();
        let cx = explorer
            .explore(resume_n_program)
            .counterexample
            .expect("the planted unguarded window must produce a counterexample");
        assert!(cx.error.contains("stranded"), "unexpected shape: {cx}");
        assert!(
            format!("{cx}").contains("crashes at"),
            "no crash in the trace: {cx}"
        );
        assert_eq!(
            explorer.replay(resume_n_program, &cx.trace.choices()),
            Err(cx.error)
        );
    }
}
