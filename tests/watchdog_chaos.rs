//! Watchdog-under-chaos: run with `--features "watch chaos"`.
//!
//! A pinned-seed chaos storm stretches every labelled race window in the
//! stack while the deadlock scanner watches. The storm is deadlock-free by
//! construction (no thread ever holds two locks at once), so any
//! [`ReportKind::Deadlock`] would be a false positive born from a racy
//! wait-graph snapshot — the confirmation pass must filter them all. A
//! genuinely stuck waiter (a permit that is never released), by contrast,
//! must still be caught and named while the storm rages on.

#![cfg(all(feature = "watch", feature = "chaos"))]

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use cqs::watch::{ReportKind, Scanner, WatchConfig};
use cqs::{Mutex, Semaphore};

/// Pinned seed: the same schedule CI uses (`CQS_CHAOS_SEED` in ci.yml).
const SEED: u64 = 1_198_211_584;

#[test]
fn watchdog_no_false_deadlocks_under_chaos_but_catches_real_stall() {
    cqs_chaos::set_seed(SEED);

    // A real stall, planted before the storm: the only permit is taken and
    // never released, so the waiter below can never proceed.
    let stuck_sem = Arc::new(Semaphore::new(1));
    stuck_sem.acquire().wait().unwrap();
    let mut scanner = Scanner::new(WatchConfig::new().stall_threshold(Duration::from_millis(200)));
    let stuck2 = Arc::clone(&stuck_sem);
    let stuck_waiter = std::thread::spawn(move || stuck2.acquire().wait());

    // The storm: every thread interleaves two mutexes and a semaphore but
    // always releases one primitive before touching the next, so the
    // wait-for graph cannot contain a cycle no matter the schedule.
    const THREADS: usize = 4;
    const OPS: usize = 150;
    let lock_a = Arc::new(Mutex::new(0u64));
    let lock_b = Arc::new(Mutex::new(0u64));
    let sem = Arc::new(Semaphore::new(2));
    let storm: Vec<_> = (0..THREADS)
        .map(|t| {
            let lock_a = Arc::clone(&lock_a);
            let lock_b = Arc::clone(&lock_b);
            let sem = Arc::clone(&sem);
            std::thread::spawn(move || {
                for i in 0..OPS {
                    match (t + i) % 3 {
                        0 => *lock_a.lock().unwrap() += 1,
                        1 => *lock_b.lock().unwrap() += 1,
                        _ => {
                            sem.acquire().wait().unwrap();
                            std::hint::black_box(i);
                            sem.release();
                        }
                    }
                }
            })
        })
        .collect();

    // Scan continuously while the storm runs and until the stall surfaces.
    let storm_alive = Arc::new(AtomicBool::new(true));
    let mut deadlock_reports = 0usize;
    let mut stall_named_stuck_sem = false;
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        for report in scanner.scan() {
            match report.kind {
                ReportKind::Deadlock => deadlock_reports += 1,
                ReportKind::Stall => {
                    if report
                        .stalled
                        .iter()
                        .any(|w| w.primitive == stuck_sem.watch_id())
                    {
                        stall_named_stuck_sem = true;
                    }
                }
            }
        }
        if !storm_alive.load(Ordering::SeqCst) && stall_named_stuck_sem {
            break;
        }
        if storm_alive.load(Ordering::SeqCst) && storm.iter().all(|j| j.is_finished()) {
            storm_alive.store(false, Ordering::SeqCst);
        }
        assert!(
            Instant::now() < deadline,
            "storm or stall detection did not finish in time \
             (seed {SEED}, stall seen: {stall_named_stuck_sem})"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    for j in storm {
        j.join().unwrap();
    }

    assert_eq!(
        deadlock_reports, 0,
        "chaos snapshots must never be confirmed into deadlocks (seed {SEED})"
    );
    assert!(stall_named_stuck_sem);

    // Sanity: the storm actually ran under chaos and nothing was lost.
    assert!(cqs_chaos::fired_count() > 0, "chaos never fired");
    let mutations = *lock_a.lock().unwrap() + *lock_b.lock().unwrap();
    assert_eq!(mutations as usize, {
        // Each (t, i) pair with (t + i) % 3 != 2 increments one counter.
        (0..THREADS)
            .flat_map(|t| (0..OPS).map(move |i| (t + i) % 3))
            .filter(|r| *r != 2)
            .count()
    });

    // Unstick the planted waiter and restore quiet for other tests.
    stuck_sem.release();
    stuck_waiter.join().unwrap().unwrap();
    cqs_chaos::disable();
}
