//! Design-choice ablations called out in `DESIGN.md` (not figures of the
//! paper, but direct measurements of the §3 trade-off discussion):
//!
//! * **A1 — cancellation mode**: the Θ(N)-per-wakeup cost of simple
//!   cancellation versus the O(live) cost of smart cancellation, measured
//!   on the latch variants under a mass-abort workload (paper §3.1
//!   "Limitations" / §4.2).
//! * **A2 — segment size**: suspension/resumption throughput as a function
//!   of `SEGM_SIZE`.
//! * **A3 — batched resumption**: a multi-waiter wake as a loop of
//!   `Cqs::resume()` calls versus one `Cqs::resume_n` traversal, as a
//!   function of waiters-per-wake.

use std::time::Instant;

use cqs_core::{Cqs, CqsConfig, SimpleCancellation};
use cqs_harness::{CqsStats, PointStats, Repeats, Series};
use cqs_sync::{CountDownLatch, SimpleCancelLatch};

use crate::Scale;

/// Repeats a manually timed closure per the schedule and summarizes the
/// samples, with the counter delta spanning the timed runs. The closure
/// rebuilds its own state, so warmup runs are real runs that get dropped.
fn timed_repeats(repeats: Repeats, run: impl FnMut() -> f64) -> PointStats {
    let mut run = run;
    for _ in 0..repeats.warmup {
        run();
    }
    let before = CqsStats::snapshot();
    let samples: Vec<f64> = (0..repeats.timed.max(1)).map(|_| run()).collect();
    let counters = CqsStats::snapshot().delta(&before);
    PointStats::from_samples(samples, counters)
}

/// A1: time for the final `count_down()` to wake the single live waiter
/// when `cancelled` other waiters aborted first, per cancellation mode.
pub fn cancellation_mode(scale: Scale, repeats: Repeats) -> Vec<Series> {
    let sweep: &[u64] = match scale {
        Scale::Quick => &[100, 1_000, 10_000],
        Scale::Full => &[100, 1_000, 10_000, 100_000],
    };
    let mut smart = Series::new("smart cancellation");
    let mut simple = Series::new("simple cancellation");

    for &cancelled in sweep {
        smart.push(
            cancelled,
            timed_repeats(repeats, || {
                let latch = CountDownLatch::new(1);
                let futures: Vec<_> = (0..cancelled + 1).map(|_| latch.await_ready()).collect();
                for f in futures.iter().take(cancelled as usize) {
                    assert!(f.cancel());
                }
                let begin = Instant::now();
                latch.count_down();
                let nanos = begin.elapsed().as_nanos() as f64;
                assert_eq!(
                    futures.into_iter().next_back().unwrap().wait(),
                    Ok(()),
                    "live waiter must be resumed"
                );
                nanos
            }),
        );

        simple.push(
            cancelled,
            timed_repeats(repeats, || {
                let latch = SimpleCancelLatch::new(1);
                let futures: Vec<_> = (0..cancelled + 1).map(|_| latch.await_ready()).collect();
                for f in futures.iter().take(cancelled as usize) {
                    assert!(f.cancel());
                }
                let begin = Instant::now();
                latch.count_down();
                let nanos = begin.elapsed().as_nanos() as f64;
                assert_eq!(futures.into_iter().next_back().unwrap().wait(), Ok(()));
                nanos
            }),
        );
    }
    vec![smart, simple]
}

/// A3: cost of waking `x` suspended waiters, as a loop of sequential
/// `resume()` calls versus a single batched `resume_n` traversal. The
/// waiters are un-parked futures (no thread blocked), so the series
/// isolates the queue-side cost the batch removes: per-waiter resume
/// counter claims and `AtomicArc` head re-reads.
pub fn batch_resume(scale: Scale, repeats: Repeats) -> Vec<Series> {
    let rounds = match scale {
        Scale::Quick => 2_000u64,
        Scale::Full => 20_000,
    };
    let mut looped = Series::new("looped resume");
    let mut batched = Series::new("batched resume_n");

    for x in [1u64, 4, 8, 16] {
        looped.push(
            x,
            timed_repeats(repeats, || {
                let cqs: Cqs<u64> = Cqs::new(CqsConfig::new(), SimpleCancellation);
                let mut total = 0f64;
                for _ in 0..rounds {
                    let futures: Vec<_> = (0..x).map(|_| cqs.suspend().expect_future()).collect();
                    let begin = Instant::now();
                    for v in 0..x {
                        cqs.resume(v).unwrap();
                    }
                    total += begin.elapsed().as_nanos() as f64;
                    for (v, f) in futures.into_iter().enumerate() {
                        assert_eq!(f.wait(), Ok(v as u64));
                    }
                }
                total / rounds as f64
            }),
        );

        batched.push(
            x,
            timed_repeats(repeats, || {
                let cqs: Cqs<u64> = Cqs::new(CqsConfig::new(), SimpleCancellation);
                let mut total = 0f64;
                for _ in 0..rounds {
                    let futures: Vec<_> = (0..x).map(|_| cqs.suspend().expect_future()).collect();
                    let begin = Instant::now();
                    let failed = cqs.resume_n(0..x, x as usize);
                    total += begin.elapsed().as_nanos() as f64;
                    assert!(failed.is_empty());
                    for (v, f) in futures.into_iter().enumerate() {
                        assert_eq!(f.wait(), Ok(v as u64));
                    }
                }
                total / rounds as f64
            }),
        );
    }
    vec![looped, batched]
}

/// A2: uncontended suspend+resume round-trip cost per segment size.
pub fn segment_size(scale: Scale, repeats: Repeats) -> Vec<Series> {
    let ops = scale.ops();
    let mut series = Series::new("suspend+resume round-trip");
    for seg_size in [2u64, 8, 32, 128] {
        series.push(
            seg_size,
            timed_repeats(repeats, || {
                let cqs: Cqs<u64> = Cqs::new(
                    CqsConfig::new().segment_size(seg_size as usize),
                    SimpleCancellation,
                );
                let begin = Instant::now();
                for i in 0..ops {
                    let f = cqs.suspend().expect_future();
                    cqs.resume(i).unwrap();
                    assert_eq!(f.wait(), Ok(i));
                }
                begin.elapsed().as_nanos() as f64 / ops as f64
            }),
        );
    }
    vec![series]
}
