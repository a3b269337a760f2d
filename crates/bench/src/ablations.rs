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
//! * **A4 — memory reclamation**: the epoch and owned-slot backends
//!   compared on the uncontended round-trip, the batched-resume workload,
//!   and a churn soak with a deliberately stalled guard-holder (the
//!   memory-bound story: epoch's garbage grows behind the stalled pin,
//!   owned stays flat).

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

use cqs_core::{pin_with, Cqs, CqsConfig, ReclaimerKind, SimpleCancellation};
use cqs_harness::report::ResourceSample;
use cqs_harness::{rss_bytes, CqsStats, PointStats, Repeats, Series};
use cqs_sync::{CountDownLatch, SimpleCancelLatch};

use crate::scenarios::ScenarioResult;
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

/// A4a: suspend+resume round-trip cost per reclamation backend. Each of
/// `x` threads drives its own queue stamped with the backend under test,
/// so the sweep isolates backend overhead (guard acquisition, load
/// protection, displaced-reference retirement) from queue contention —
/// at `x = 1` this is the headline uncontended round-trip.
pub fn reclaim_round_trip(scale: Scale, repeats: Repeats) -> Vec<Series> {
    let ops = scale.ops();
    ReclaimerKind::ALL
        .iter()
        .map(|&kind| {
            let mut series = Series::new(kind.name());
            for threads in [1u64, 2, 4] {
                let per_thread = ops / threads;
                series.push(
                    threads,
                    timed_repeats(repeats, || {
                        let begin = Instant::now();
                        std::thread::scope(|scope| {
                            for _ in 0..threads {
                                scope.spawn(move || {
                                    let cqs: Cqs<u64> = Cqs::new(
                                        CqsConfig::new().reclaimer(kind),
                                        SimpleCancellation,
                                    );
                                    for i in 0..per_thread {
                                        let f = cqs.suspend().expect_future();
                                        cqs.resume(i).unwrap();
                                        assert_eq!(f.wait(), Ok(i));
                                    }
                                });
                            }
                        });
                        begin.elapsed().as_nanos() as f64 / (per_thread * threads) as f64
                    }),
                );
            }
            series
        })
        .collect()
}

/// A4b: the A3 batched `resume_n` wake per reclamation backend. The batch
/// traversal holds one guard across the whole wake, so a backend with
/// cheaper guard acquisition but costlier per-cell protection (owned)
/// shows its traversal-side cost here.
pub fn reclaim_batch_resume(scale: Scale, repeats: Repeats) -> Vec<Series> {
    let rounds = match scale {
        Scale::Quick => 2_000u64,
        Scale::Full => 20_000,
    };
    ReclaimerKind::ALL
        .iter()
        .map(|&kind| {
            let mut series = Series::new(kind.name());
            for x in [1u64, 8, 16] {
                series.push(
                    x,
                    timed_repeats(repeats, || {
                        let cqs: Cqs<u64> =
                            Cqs::new(CqsConfig::new().reclaimer(kind), SimpleCancellation);
                        let mut total = 0f64;
                        for _ in 0..rounds {
                            let futures: Vec<_> =
                                (0..x).map(|_| cqs.suspend().expect_future()).collect();
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
            series
        })
        .collect()
}

/// A4c: churn soak with a deliberately stalled guard-holder, one run per
/// backend. A planted thread takes a guard from the backend under test
/// and sits on it for the whole run while the main thread burns through
/// suspend+resume round-trips, retiring a queue segment every
/// `SEGM_SIZE` operations. The resource snapshots tell the memory-bound
/// story: under the epoch backend the stalled pin blocks *all*
/// reclamation and `live_segments` grows linearly with the churn; under
/// owned the stalled guard protects nothing, so the curve stays flat. The final snapshot is taken after the holder releases its guard
/// and the backend is flushed — epoch's backlog collapses there, proving
/// the growth was the stalled guard and not a leak.
pub fn reclaim_stalled_soak(scale: Scale, kind: ReclaimerKind) -> ScenarioResult {
    let rounds: u64 = match scale {
        Scale::Quick => 8_000,
        Scale::Full => 80_000,
    };
    let cadence = rounds / 8;
    let cqs: Cqs<u64> = Cqs::new(CqsConfig::new().reclaimer(kind), SimpleCancellation);

    let hold = AtomicBool::new(true);
    let ready = AtomicBool::new(false);
    let mut series = Series::new(kind.name());
    // Unreclaimed-object backlog over time: the deterministic counterpart
    // of the (noisy, process-wide) RSS snapshots. Epoch's line climbs
    // while the guard is stalled; owned stays bounded.
    let mut backlog = Series::new("retired backlog (objects)");
    let mut samples = Vec::new();
    std::thread::scope(|scope| {
        scope.spawn(|| {
            let guard = pin_with(kind);
            ready.store(true, Ordering::Release);
            while hold.load(Ordering::Acquire) {
                std::thread::yield_now();
            }
            drop(guard);
        });
        while !ready.load(Ordering::Acquire) {
            std::hint::spin_loop();
        }

        let begin = Instant::now();
        for i in 0..rounds {
            let f = cqs.suspend().expect_future();
            cqs.resume(i).unwrap();
            assert_eq!(f.wait(), Ok(i));
            if i % cadence == cadence - 1 {
                samples.push(ResourceSample {
                    x: i + 1,
                    rss_bytes: rss_bytes(),
                    live_segments: cqs.live_segments() as u64,
                });
                backlog.push_scalar(i + 1, cqs_core::retired_approx(kind) as f64);
            }
        }
        series.push_scalar(rounds, begin.elapsed().as_nanos() as f64 / rounds as f64);
        hold.store(false, Ordering::Release);
    });

    // Holder released: flush deferred garbage and snapshot the recovery —
    // epoch's backlog collapses here, proving the growth was the stalled
    // guard and not a leak.
    assert!(
        cqs_core::flush_reclaimer(kind),
        "{kind} backlog still stuck after the holder released"
    );
    samples.push(ResourceSample {
        x: rounds + 1,
        rss_bytes: rss_bytes(),
        live_segments: cqs.live_segments() as u64,
    });
    backlog.push_scalar(rounds + 1, cqs_core::retired_approx(kind) as f64);
    (vec![series, backlog], samples)
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
