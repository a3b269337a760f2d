//! Figure 13: mutex for coroutines.
//!
//! C coroutines (1 000 / 10 000 — far more than carrier threads) run on an
//! N-thread executor; each repeatedly performs uncontended work, locks a
//! shared mutex, works under the lock, and unlocks. Series: the CQS-based
//! mutex (semaphore with one permit) in asynchronous and synchronous
//! resumption modes against the pre-CQS legacy mutex. The paper reports
//! speedups of the CQS versions over the legacy one; the `figures` binary
//! prints both raw per-operation times and the derived speedup.

use std::future::Future;
use std::sync::Arc;
use std::time::Instant;

use cqs_baseline::LegacyMutex;
use cqs_exec::Executor;
use cqs_future::CqsFuture;
use cqs_harness::{CqsStats, PointStats, Repeats, Series, Workload};
use cqs_sync::Semaphore;

use crate::Scale;

/// A lock usable from coroutines: acquisition returns a future.
pub trait CoroLock: Send + Sync + 'static {
    /// Begins acquisition.
    fn lock(&self) -> CqsFuture<()>;
    /// Releases the lock.
    fn unlock(&self);
}

impl CoroLock for Semaphore {
    fn lock(&self) -> CqsFuture<()> {
        self.acquire()
    }
    fn unlock(&self) {
        self.release()
    }
}

impl CoroLock for LegacyMutex {
    fn lock(&self) -> CqsFuture<()> {
        LegacyMutex::lock(self)
    }
    fn unlock(&self) {
        LegacyMutex::unlock(self)
    }
}

/// The benchmark coroutine: `iterations` rounds of work + lock + work +
/// unlock, suspending (not blocking the carrier) whenever the lock is
/// contended.
///
/// The RNG is seeded here, by the spawner, and moved into the block. As an
/// `async fn` seeding it in its first poll, the state machine keeps the
/// arguments beside the locals and is 136 bytes instead of 112: past
/// glibc's 128-byte fastbin limit, so every carrier-side free takes the
/// arena lock the spawning thread allocates under, and a spawn costs 2.5×
/// (EXPERIMENTS.md, "One task model (PR 23)").
fn mutex_coroutine<L: CoroLock>(
    lock: Arc<L>,
    iterations: u64,
    work: Workload,
    seed: u64,
) -> impl Future<Output = ()> + Send {
    let mut rng = work.rng(seed);
    async move {
        for _ in 0..iterations {
            // Work before taking the lock.
            work.run(&mut rng);
            lock.lock().await.expect("benchmark never cancels");
            work.run(&mut rng);
            lock.unlock();
        }
    }
}

fn bench<L: CoroLock>(
    lock: Arc<L>,
    coroutines: usize,
    threads: usize,
    iterations: u64,
    work: Workload,
) -> f64 {
    let executor = Executor::new(threads);
    let begin = Instant::now();
    for c in 0..coroutines {
        executor.spawn(mutex_coroutine(
            Arc::clone(&lock),
            iterations,
            work,
            c as u64,
        ));
    }
    executor.wait_idle();
    let elapsed = begin.elapsed();
    elapsed.as_nanos() as f64 / (coroutines as u64 * iterations) as f64
}

/// [`bench`] under a repeat schedule: warmup runs discarded, timed runs
/// summarized, operation counters sampled around the timed block. Each run
/// spins up a fresh executor; only the lock is shared between runs.
fn bench_repeated<L: CoroLock>(
    lock: Arc<L>,
    coroutines: usize,
    threads: usize,
    iterations: u64,
    work: Workload,
    repeats: Repeats,
) -> PointStats {
    for _ in 0..repeats.warmup {
        bench(Arc::clone(&lock), coroutines, threads, iterations, work);
    }
    let before = CqsStats::snapshot();
    let mut samples = Vec::with_capacity(repeats.timed.max(1));
    for _ in 0..repeats.timed.max(1) {
        samples.push(bench(
            Arc::clone(&lock),
            coroutines,
            threads,
            iterations,
            work,
        ));
    }
    let counters = CqsStats::snapshot().delta(&before);
    PointStats::from_samples(samples, counters)
}

/// Runs the Fig. 13 sweep for one coroutine count. Series order:
/// `[CQS async, CQS sync, legacy]`, all in ns/op; speedups are derived by
/// the caller as `legacy / cqs`.
pub fn run(scale: Scale, coroutines: usize, threads: &[usize], repeats: Repeats) -> Vec<Series> {
    let work = Workload::new(100);
    let total_ops = match scale {
        Scale::Quick => 40_000u64,
        Scale::Full => 400_000u64,
    };
    let iterations = (total_ops / coroutines as u64).max(4);

    let mut cqs_async = Series::new("CQS async mutex");
    let mut cqs_sync = Series::new("CQS sync mutex");
    let mut legacy = Series::new("Legacy Kotlin-style mutex");

    for &n in threads {
        cqs_async.push(
            n as u64,
            bench_repeated(
                Arc::new(Semaphore::new(1)),
                coroutines,
                n,
                iterations,
                work,
                repeats,
            ),
        );
        cqs_sync.push(
            n as u64,
            bench_repeated(
                Arc::new(Semaphore::new_sync(1)),
                coroutines,
                n,
                iterations,
                work,
                repeats,
            ),
        );
        legacy.push(
            n as u64,
            bench_repeated(
                Arc::new(LegacyMutex::new()),
                coroutines,
                n,
                iterations,
                work,
                repeats,
            ),
        );
    }
    vec![cqs_async, cqs_sync, legacy]
}

/// Derives the paper's speedup series (`legacy / cqs`, higher is better)
/// from the raw output of [`run`].
pub fn speedups(raw: &[Series]) -> Vec<Series> {
    let legacy = &raw[2];
    raw[..2]
        .iter()
        .map(|s| {
            let mut speedup = Series::new(format!("{} speedup", s.name));
            for (x, cqs) in &s.points {
                let Some(leg) = legacy.at(*x) else { continue };
                // Medians of both sides; stored scaled by 1000 to keep the
                // integer-ish table printable (2.34x -> 2340).
                speedup.push_scalar(*x, leg.median / cqs.median * 1000.0);
            }
            speedup
        })
        .collect()
}
