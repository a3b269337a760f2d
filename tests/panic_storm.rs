//! Seeded crash-fault storms (run with `--features chaos -- --test-threads=1`).
//!
//! Where `tests/fault_explorer.rs` *exhausts* panic placement one label at
//! a time, these storms *sample* it under real concurrency: 72 pinned
//! seeds drive the shared decision stream and a budgeted fault stream
//! (`cqs_chaos::set_faults`) so that injected panics land at
//! schedule-dependent crossings of the labelled windows while producers,
//! consumers, resumers and closers race. Every seed asserts the same
//! contract the ISSUE's tentpole demands:
//!
//! * **no silent hang** — every parked waiter settles well before its
//!   timeout, crash or no crash;
//! * **conservation** — every element ends in exactly one sink
//!   (consumed, returned inside an error, or recovered by `drain`);
//! * **fail-fast aftermath** — once a fault poisons a primitive, every
//!   subsequent operation errors promptly instead of parking.
//!
//! Replay any failure with the seed/budget printed in the assertion
//! message (`CQS_CHAOS_FAULTS=<seed>:<budget>` uses the same stream).

#[cfg(feature = "chaos")]
mod enabled {
    use cqs::{Cancelled, Cqs, CqsChannel, CqsConfig, RecvError, SimpleCancellation};
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::{Arc, Mutex as StdMutex, OnceLock};
    use std::time::{Duration, Instant};

    /// Hard ceiling: a waiter still parked after this long is hung.
    const DEADLINE: Duration = Duration::from_secs(10);
    /// Settling slower than this (while still beating `DEADLINE`) already
    /// counts as a strand — generous margin for loaded CI machines.
    const STRANDED: Duration = Duration::from_secs(8);
    /// Post-fault operations must error within this window.
    const FAIL_FAST: Duration = Duration::from_secs(2);

    /// 72 pinned seeds, disjoint from the `chaos_injection.rs` family.
    fn seeds() -> impl Iterator<Item = (usize, u64)> {
        (0..72u64).map(|i| (i as usize, 0xFA17_0000 + i * 7919))
    }

    /// Fault budget cycles 1..=3 so storms cover single and repeated
    /// crashes.
    fn budget_for(i: usize) -> u64 {
        1 + (i as u64 % 3)
    }

    /// Chaos state (decision stream, fault stream, panic hook) is
    /// process-global; storms must not overlap.
    fn storm_lock() -> &'static StdMutex<()> {
        static LOCK: OnceLock<StdMutex<()>> = OnceLock::new();
        LOCK.get_or_init(|| StdMutex::new(()))
    }

    fn with_quiet_panics<R>(f: impl FnOnce() -> R) -> R {
        let prev = std::panic::take_hook();
        // Silence the storm of injected panics but keep real failures
        // (assertion messages, unexpected panics) visible.
        std::panic::set_hook(Box::new(|info| {
            let quiet = info
                .payload()
                .downcast_ref::<&str>()
                .map(|s| s.contains("injected crash fault"))
                .or_else(|| {
                    info.payload()
                        .downcast_ref::<String>()
                        .map(|s| s.contains("injected crash fault"))
                })
                .unwrap_or(false);
            if !quiet {
                eprintln!("panic: {info}");
            }
        }));
        let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f));
        std::panic::set_hook(prev);
        match out {
            Ok(r) => r,
            Err(p) => std::panic::resume_unwind(p),
        }
    }

    /// `true` if the panic payload came from the injector (anything else
    /// is a real bug and must fail the storm).
    fn is_injected(payload: &(dyn std::any::Any + Send)) -> bool {
        payload
            .downcast_ref::<&str>()
            .map(|s| s.contains("injected crash fault"))
            .or_else(|| {
                payload
                    .downcast_ref::<String>()
                    .map(|s| s.contains("injected crash fault"))
            })
            .unwrap_or(false)
    }

    /// Mixed resume/broadcast/close storm over a raw queue: crosses the
    /// `cqs.resume-n.fault.mid-batch`, `cqs.resume-all.fault.pre-clone`,
    /// `future.wake.fault.pre-fire` and `cqs.close.fault.mid-sweep`
    /// windows while six waiters are parked on their own threads.
    #[test]
    fn resume_close_fault_storm() {
        let _serial = storm_lock()
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        with_quiet_panics(|| {
            let baseline = cqs_chaos::faults_injected();
            for (i, seed) in seeds() {
                let budget = budget_for(i);
                let replay = format!(
                    "seed {seed:#x} (budget {budget}; replay with \
                     CQS_CHAOS_FAULTS={seed}:{budget} and CQS_CHAOS_SEED={seed})"
                );
                cqs_chaos::set_seed(seed);
                cqs_chaos::set_faults(seed, budget);

                const W: usize = 6;
                let cqs: Arc<Cqs<u64, SimpleCancellation>> = Arc::new(Cqs::new(
                    CqsConfig::new().segment_size(2),
                    SimpleCancellation,
                ));
                let waiters: Vec<_> = (0..W)
                    .map(|_| {
                        let f = cqs.suspend().expect_future();
                        std::thread::spawn(move || {
                            let start = Instant::now();
                            (f.wait_timeout(DEADLINE), start.elapsed())
                        })
                    })
                    .collect();

                let operator = {
                    let cqs = Arc::clone(&cqs);
                    std::thread::spawn(move || {
                        let mut crashes = 0usize;
                        for op in 0..3usize {
                            let r =
                                std::panic::catch_unwind(std::panic::AssertUnwindSafe(
                                    || match op {
                                        0 => drop(cqs.resume_n(0..3u64, 3)),
                                        1 => drop(cqs.resume_all(99)),
                                        _ => cqs.close(),
                                    },
                                ));
                            if let Err(p) = r {
                                assert!(is_injected(p.as_ref()), "non-injected panic in op {op}");
                                crashes += 1;
                            }
                        }
                        crashes
                    })
                };
                let crashes = operator.join().expect("operator thread died");

                let mut delivered = Vec::new();
                for (w, j) in waiters.into_iter().enumerate() {
                    let (r, elapsed) = j.join().expect("waiter thread died");
                    assert!(
                        elapsed < STRANDED,
                        "waiter {w} hung for {elapsed:?} — {replay}"
                    );
                    if let Ok(v) = r {
                        delivered.push(v);
                    }
                }
                // Conservation: each resume_n value delivered at most once,
                // nothing outside the operator's value set.
                for v in [0u64, 1, 2] {
                    assert!(
                        delivered.iter().filter(|&&d| d == v).count() <= 1,
                        "value {v} duplicated: {delivered:?} — {replay}"
                    );
                }
                assert!(
                    delivered.iter().all(|v| *v == 99 || *v < 3),
                    "unexpected values {delivered:?} — {replay}"
                );
                if crashes == 0 {
                    assert_eq!(delivered.len(), W, "lost wakeups crash-free — {replay}");
                }
                // Aftermath: closed or poisoned, a fresh waiter must fail
                // fast either way.
                let start = Instant::now();
                let r = cqs.suspend().expect_future().wait_timeout(FAIL_FAST);
                assert!(
                    r == Err(Cancelled) && start.elapsed() < FAIL_FAST,
                    "post-storm suspend did not fail fast — {replay}"
                );

                cqs_chaos::clear_faults();
                cqs_chaos::disable();
            }
            assert!(
                cqs_chaos::faults_injected() > baseline,
                "72 seeds crossed the fault windows without a single injection"
            );
        });
    }

    /// One producer/consumer round over a small bounded channel: crosses
    /// the `channel.send.fault.buffered` window (plus the wake window of
    /// the close sweep) and checks element conservation through crashes and
    /// the fail-fast aftermath. A send still pending after `DEADLINE`
    /// fails the round (the stranded-sender hang). Fault arming is the
    /// caller's business.
    fn channel_round(replay: &str) {
        const PRODUCERS: u64 = 3;
        const PER_PRODUCER: u64 = 8;
        const CONSUMERS: usize = 2;
        let ch: Arc<CqsChannel<u64>> = Arc::new(CqsChannel::bounded(4));
        let attempted = Arc::new(AtomicUsize::new(0));
        let returned = Arc::new(AtomicUsize::new(0));
        let consumed = Arc::new(AtomicUsize::new(0));
        let done = Arc::new(AtomicBool::new(false));

        let consumers: Vec<_> = (0..CONSUMERS)
            .map(|_| {
                let ch = Arc::clone(&ch);
                let consumed = Arc::clone(&consumed);
                let done = Arc::clone(&done);
                std::thread::spawn(move || {
                    let start = Instant::now();
                    while start.elapsed() < DEADLINE {
                        // A crash the injector places on this thread (a
                        // waker of the close sweep, say) models a dead
                        // consumer.
                        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                            ch.receive().wait_timeout(Duration::from_millis(50))
                        }));
                        match r {
                            Ok(Ok(_)) => {
                                consumed.fetch_add(1, Ordering::SeqCst);
                            }
                            Ok(Err(RecvError::Closed) | Err(RecvError::Poisoned)) => {
                                return true;
                            }
                            Ok(Err(RecvError::Cancelled)) => {
                                if done.load(Ordering::SeqCst) {
                                    return true;
                                }
                            }
                            Err(p) => {
                                assert!(is_injected(p.as_ref()));
                                return true;
                            }
                        }
                    }
                    false // hit the deadline: hung
                })
            })
            .collect();

        // A send still pending at the deadline is the stranded-sender
        // hang: the round fails then rather than holding the binary.
        let deadline = Instant::now() + DEADLINE;
        let producers: Vec<_> = (0..PRODUCERS)
            .map(|p| {
                let ch = Arc::clone(&ch);
                let attempted = Arc::clone(&attempted);
                let returned = Arc::clone(&returned);
                std::thread::spawn(move || {
                    for k in 0..PER_PRODUCER {
                        let v = p * PER_PRODUCER + k;
                        attempted.fetch_add(1, Ordering::SeqCst);
                        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                            ch.send(v).wait()
                        }));
                        match r {
                            Ok(Ok(())) => {}
                            Ok(Err(_)) => {
                                // Element came back inside the error.
                                returned.fetch_add(1, Ordering::SeqCst);
                            }
                            Err(p) => {
                                // The injector crashed this thread after
                                // its element was buffered; the element
                                // stays in its cell. Model a dead thread.
                                assert!(is_injected(p.as_ref()));
                                return true;
                            }
                        }
                    }
                    false
                })
            })
            .collect();

        let mut crashed_producers = 0usize;
        for (p, j) in producers.into_iter().enumerate() {
            while !j.is_finished() {
                assert!(
                    Instant::now() < deadline,
                    "producer {p} stranded past the deadline — {replay}"
                );
                std::thread::sleep(Duration::from_millis(1));
            }
            if j.join().expect("producer thread died") {
                crashed_producers += 1;
            }
        }
        // close() sweeps the cells and fires the waiters' wakes, so it
        // crosses the wake fault window; a crash here models the closing
        // thread dying. Every wake still fires, and the channel ends
        // closed (and poisoned) with the buffered elements left in their
        // cells for drain().
        let mut crashed_close = false;
        let leftovers = match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| ch.close()))
        {
            Ok(v) => v,
            Err(p) => {
                assert!(is_injected(p.as_ref()));
                crashed_close = true;
                Vec::new()
            }
        };
        done.store(true, Ordering::SeqCst);
        for (c, j) in consumers.into_iter().enumerate() {
            assert!(
                j.join().expect("consumer thread died"),
                "consumer {c} hung past the deadline — {replay}"
            );
        }
        let drained = ch.drain();

        // Conservation: every attempted element is in exactly one
        // sink. A crashed send's element stays in its cell and is
        // received or recovered by close()/drain().
        let accounted = consumed.load(Ordering::SeqCst)
            + returned.load(Ordering::SeqCst)
            + leftovers.len()
            + drained.len();
        assert_eq!(
            accounted,
            attempted.load(Ordering::SeqCst),
            "conservation violated (consumed {} + returned {} + \
                     leftovers {} + drained {}, {crashed_producers} crashed \
                     producers, crashed_close={crashed_close}, stats {:?}) — {replay}",
            consumed.load(Ordering::SeqCst),
            returned.load(Ordering::SeqCst),
            leftovers.len(),
            drained.len(),
            cqs_stats::CqsStats::snapshot()
        );
        if crashed_producers > 0 || crashed_close {
            assert!(ch.is_poisoned(), "crash without poison — {replay}");
        }

        // Aftermath: closed or poisoned, both directions must
        // error fast.
        let start = Instant::now();
        assert!(
            ch.send(999).wait_timeout(FAIL_FAST).is_err() && start.elapsed() < FAIL_FAST,
            "post-storm send did not fail fast — {replay}"
        );
        let start = Instant::now();
        assert!(
            ch.receive().wait_timeout(FAIL_FAST).is_err() && start.elapsed() < FAIL_FAST,
            "post-storm receive did not fail fast — {replay}"
        );
    }

    /// 72-seed producer/consumer storm over the channel round above.
    #[test]
    fn channel_fault_storm() {
        let _serial = storm_lock()
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        with_quiet_panics(|| {
            for (i, seed) in seeds() {
                let budget = budget_for(i);
                let replay = format!(
                    "seed {seed:#x} (budget {budget}; replay with \
                     CQS_CHAOS_FAULTS={seed}:{budget} and CQS_CHAOS_SEED={seed})"
                );
                cqs_chaos::set_seed(seed);
                cqs_chaos::set_faults(seed, budget);
                channel_round(&replay);
                cqs_chaos::clear_faults();
                cqs_chaos::disable();
            }
        });
    }

    /// CI arms `CQS_CHAOS_FAULTS=<seed>:<budget>` in the environment and
    /// runs exactly this test (filter `env_armed` — the sibling storms
    /// call `clear_faults` and would zero an env-armed budget): the budget
    /// must be visible without any in-process `set_faults` call and get
    /// spent inside ordinary storm rounds, which keep the conservation and
    /// fail-fast contract throughout. Without the variable this is a
    /// no-op, so the plain chaos sweep stays deterministic.
    #[test]
    fn env_armed_fault_budget_is_honored() {
        let _serial = storm_lock()
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let _ = cqs_chaos::is_enabled(); // force the env spec parse
        if cqs_chaos::faults_remaining() == 0 {
            return;
        }
        let before = cqs_chaos::faults_injected();
        with_quiet_panics(|| {
            // ~24 window crossings per round at 1-in-8 odds: twenty rounds
            // make a never-spent budget astronomically unlikely.
            for round in 0..20 {
                channel_round(&format!("env-armed round {round}"));
                if cqs_chaos::faults_remaining() == 0 && cqs_chaos::faults_injected() > before {
                    break;
                }
            }
        });
        assert!(
            cqs_chaos::faults_injected() > before,
            "environment-armed fault budget never produced an injection"
        );
    }
}

#[cfg(not(feature = "chaos"))]
mod disabled {
    use cqs::CqsChannel;

    /// Without `--features chaos` the fault machinery is an inert mirror:
    /// arming it must change nothing and inject nothing.
    #[test]
    fn fault_machinery_is_inert_without_chaos() {
        cqs_chaos::set_faults(0xFA17, 1_000);
        let ch: CqsChannel<u32> = CqsChannel::unbounded();
        for v in 0..32 {
            ch.send(v).wait().unwrap();
        }
        for v in 0..32 {
            assert_eq!(ch.receive().wait(), Ok(v));
        }
        assert_eq!(cqs_chaos::faults_injected(), 0);
        assert_eq!(cqs_chaos::faults_remaining(), 0);
        assert_eq!(cqs_chaos::fault_point_count(), 0);
        cqs_chaos::clear_faults();
    }
}
