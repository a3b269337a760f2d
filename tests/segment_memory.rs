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
//! Both churns run twice: on the semaphore, and on a raw simple-mode `Cqs`
//! with one cell per segment, so every wave removes each of its segments
//! alone. There a resume that meets a cancelled waiter fails instead of
//! skipping it.
//!
//! After each churn's 8th and 64th wave, with the collector flushed, the
//! segments allocated and not yet freed must stay flat between the two
//! readings and small; after the queue is dropped, exactly zero. The last
//! check also catches a `next`/`prev` reference cycle between removed
//! segments, which nothing would ever free.
//!
//! The `segments_*` counters are process-global (and count the queue
//! pool's slot segments too, so no churn here creates a pool or a
//! channel); this binary holds a single test.
#![cfg(feature = "stats")]

use std::sync::Barrier;
use std::time::Duration;

use cqs::{Cqs, CqsConfig, Semaphore, SimpleCancellation};
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

/// [`anchored`] on a raw queue of one-cell segments: each thread suspends
/// half of the wave's waiters behind a long-lived one and cancels them.
fn raw_anchored(cqs: &Cqs<u64>, _thread: usize, barrier: &Barrier) {
    let waiters: Vec<_> = (0..WAVE_SEGMENTS / 2)
        .map(|_| cqs.suspend().expect_future())
        .collect();
    barrier.wait();
    for waiter in &waiters {
        assert!(waiter.cancel(), "nothing resumed, so a cancel must win");
    }
}

/// [`resumed`] on a raw queue of one-cell segments: thread 0 resumes once
/// per waiter of the wave while thread 1 cancels it in FIFO order. A
/// resume that meets a cancelled waiter fails; a waiter whose cancel loses
/// was resumed.
fn raw_resumed(cqs: &Cqs<u64>, thread: usize, barrier: &Barrier) {
    if thread == 0 {
        barrier.wait(); // the wave is queued
        for _ in 0..WAVE_SEGMENTS {
            let _ = cqs.resume(0);
        }
        return;
    }
    let waiters: Vec<_> = (0..WAVE_SEGMENTS)
        .map(|_| cqs.suspend().expect_future())
        .collect();
    barrier.wait();
    for waiter in waiters {
        if !waiter.cancel() {
            waiter
                .wait_timeout(PATIENCE)
                .expect("a waiter that lost its cancel was resumed");
        }
    }
}

/// A simple-mode queue with one cell per segment.
fn raw_queue() -> Cqs<u64> {
    Cqs::new(CqsConfig::new().segment_size(1), SimpleCancellation)
}

/// Checks one churn's two readings, then that dropping its queue frees
/// every segment it allocated.
fn assert_flat_then_freed(
    name: &str,
    since: &CqsStats,
    [early, late]: [u64; 2],
    queue: impl Sized,
) {
    println!("{name}: {early} segments in use after {EARLY} waves, {late} after {LATE}");
    assert!(
        late <= 2 * early.max(1) && late <= SMALL,
        "{name} churn: {early} segments in use after {EARLY} waves, {late} after {LATE}"
    );
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
    assert_eq!(sem.available_permits(), 1, "anchored churn lost the permit");
    assert_flat_then_freed("anchored", &since, readings, sem);

    let sem = Semaphore::new(1);
    sem.acquire().wait().unwrap(); // thread 0 starts as the holder
    let readings = churn(&since, |thread, barrier| resumed(&sem, thread, barrier));
    sem.release();
    assert_eq!(sem.available_permits(), 1, "resumed churn lost the permit");
    assert_flat_then_freed("resumed", &since, readings, sem);

    let cqs = raw_queue();
    let long_lived = cqs.suspend().expect_future();
    let readings = churn(&since, |thread, barrier| {
        raw_anchored(&cqs, thread, barrier)
    });
    cqs.resume(1).unwrap();
    assert_eq!(long_lived.wait_timeout(PATIENCE), Ok(1));
    assert_flat_then_freed("raw anchored", &since, readings, cqs);

    let cqs = raw_queue();
    let readings = churn(&since, |thread, barrier| raw_resumed(&cqs, thread, barrier));
    assert_eq!(
        cqs.resume_count(),
        cqs.suspend_count(),
        "a wave was left open"
    );
    assert_flat_then_freed("raw resumed", &since, readings, cqs);
}
