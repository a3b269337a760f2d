//! The paper's memory bound (Appendix C): a segment whose cells were all
//! cancelled is unlinked in O(1), and once nothing reaches it any more it
//! is freed — so the segments in memory stay O(live waiters / segment
//! size) however many waiters cancelled, and none outlives its queue.
//!
//! Two abort-storm-shaped churns on a smart-cancellation queue (a
//! `Semaphore`), each two threads in lockstep waves of whole segments:
//!
//! * **anchored** — a long-lived waiter parked in segment 0 keeps the resume
//!   head there, so every cancelled segment behind it must go by removal.
//!   Both threads fill each wave's segments together and then cancel their
//!   halves at once, so neighbouring segments are removed from two threads
//!   concurrently;
//! * **resumed** — the permit holder releases into each wave while the
//!   other thread cancels it, so removals race a resumer's head moves,
//!   cancelled-cell skips and refusals. (A resumer cannot run past a parked
//!   waiter, so this churn has no anchor.)
//!
//! After each churn's 8th and 64th wave, with the collector flushed, the
//! segments allocated and not yet freed must stay flat between the two
//! readings and small; after the queue is dropped, exactly zero. The last
//! check also catches a `next`/`prev` reference cycle between removed
//! segments, which nothing would ever free.
//!
//! The `segments_*` counters are process-global, so this binary holds a
//! single test.
#![cfg(feature = "stats")]

use std::sync::Barrier;
use std::time::Duration;

use cqs::{CqsConfig, Semaphore};
use cqs_stats::CqsStats;

/// Cells per segment of a semaphore's queue.
const SEG: usize = CqsConfig::DEFAULT_SEGMENT_SIZE;
/// Whole segments each wave fills and cancels.
const WAVE_SEGMENTS: usize = 8;
/// The two readings: after this many waves...
const EARLY: usize = 8;
/// ...and after this many.
const LATE: usize = 64;
/// Segments in use at either reading may not exceed this: a few per
/// queue, nothing proportional to the waves.
const SMALL: u64 = 12;
/// Bounds every wait, so a lost permit fails the test instead of hanging it.
const PATIENCE: Duration = Duration::from_secs(10);

/// Segments allocated since `since` and not yet freed, once the epoch
/// collector has released everything retired so far.
fn segments_in_use(since: &CqsStats) -> u64 {
    assert!(cqs::reclaim::flush(), "retired garbage still pending");
    let delta = CqsStats::snapshot().delta(since);
    delta.segments_allocated - delta.segments_reclaimed
}

/// Runs [`LATE`] waves of `wave(thread, barrier)` on threads 0 and 1 in
/// lockstep and returns the segments in use after [`EARLY`] and [`LATE`]
/// waves. `barrier` is the wave's own two-party rendezvous.
fn churn(since: &CqsStats, wave: impl Fn(usize, &Barrier) + Sync) -> [u64; 2] {
    let inside = Barrier::new(2);
    let between = Barrier::new(2);
    let mut readings = [0; 2];
    std::thread::scope(|scope| {
        scope.spawn(|| {
            for _ in 0..LATE {
                wave(1, &inside);
                between.wait();
                between.wait();
            }
        });
        for done in 1..=LATE {
            wave(0, &inside);
            between.wait(); // thread 1 is idle and unpinned until released
            if done == EARLY {
                readings[0] = segments_in_use(since);
            }
            if done == LATE {
                readings[1] = segments_in_use(since);
            }
            between.wait();
        }
    });
    readings
}

/// Both threads fill half of every wave segment behind a long-lived
/// waiter, then cancel their halves concurrently. Nothing releases, so
/// every cancel wins.
fn anchored(sem: &Semaphore, _thread: usize, barrier: &Barrier) {
    let waiters: Vec<_> = (0..WAVE_SEGMENTS * SEG / 2)
        .map(|_| sem.acquire())
        .collect();
    barrier.wait();
    for waiter in &waiters {
        assert!(waiter.cancel(), "nothing released, so a cancel must win");
    }
}

/// Thread 0 holds the permit while thread 1 fills the wave's segments,
/// then releases into the wave while thread 1 cancels it in FIFO order. A
/// waiter whose cancel loses holds the permit and hands it on; thread 0
/// queues up again and ends the wave holding the permit.
fn resumed(sem: &Semaphore, thread: usize, barrier: &Barrier) {
    if thread == 0 {
        barrier.wait(); // the wave is queued behind us
        sem.release();
        sem.acquire()
            .wait_timeout(PATIENCE)
            .expect("the holder gets the permit back");
        return;
    }
    let waiters: Vec<_> = (0..WAVE_SEGMENTS * SEG).map(|_| sem.acquire()).collect();
    barrier.wait();
    for waiter in waiters {
        if !waiter.cancel() {
            waiter
                .wait_timeout(PATIENCE)
                .expect("a waiter that lost its cancel was granted");
            sem.release();
        }
    }
}

/// Checks one churn's two readings, then that dropping its queue frees
/// every segment it allocated.
fn assert_flat_then_freed(name: &str, since: &CqsStats, [early, late]: [u64; 2], queue: Semaphore) {
    println!("{name}: {early} segments in use after {EARLY} waves, {late} after {LATE}");
    assert!(
        late <= 2 * early.max(1) && late <= SMALL,
        "{name} churn: {early} segments in use after {EARLY} waves, {late} after {LATE}"
    );
    assert_eq!(queue.available_permits(), 1, "{name} churn lost the permit");
    drop(queue);
    assert_eq!(
        segments_in_use(since),
        0,
        "{name} churn: segments outlived the queue that allocated them"
    );
}

#[test]
fn removed_segments_are_freed_and_memory_stays_flat() {
    let since = CqsStats::snapshot();

    let sem = Semaphore::new(1);
    sem.acquire().wait().unwrap();
    let long_lived = sem.acquire();
    let readings = churn(&since, |thread, barrier| anchored(&sem, thread, barrier));
    sem.release(); // to the long-lived waiter
    long_lived.wait_timeout(PATIENCE).unwrap();
    sem.release();
    assert_flat_then_freed("anchored", &since, readings, sem);

    let sem = Semaphore::new(1);
    sem.acquire().wait().unwrap(); // thread 0 starts as the holder
    let readings = churn(&since, |thread, barrier| resumed(&sem, thread, barrier));
    sem.release();
    assert_flat_then_freed("resumed", &since, readings, sem);
}
