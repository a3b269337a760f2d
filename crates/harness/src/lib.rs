#![warn(missing_docs)]

//! # `cqs-harness` — the benchmark harness
//!
//! Reimplements the paper's experimental methodology (§6, "Experimental
//! Setup") in Rust, standing in for JMH:
//!
//! * [`Workload`] — uncontended busy-work whose size is geometrically
//!   distributed with a configurable mean, exactly as the paper inserts
//!   between synchronization operations;
//! * [`measure`] / [`measure_per_op`] — runs a closure on N threads with a
//!   synchronized start and reports wall time (per operation);
//! * [`Repeats`] / [`measure_per_op_repeated`] — JMH-style warmup plus
//!   repeated timed runs, summarized as a [`PointStats`] (median, min, max,
//!   p95, relative IQR noise flag, and a [`CqsStats`] counter delta);
//! * [`Series`] and [`print_figure`] — collects per-algorithm measurements
//!   and prints the paper-style table for a figure;
//! * [`thread_sweep`] — the thread counts to plot against;
//! * [`report`] — the machine-readable `BENCH_figures.json` report and
//!   its schema validator (hand-rolled JSON; the container has no serde).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

pub use cqs_stats::CqsStats;

pub mod report;

/// Geometrically distributed uncontended busy-work.
///
/// # Example
///
/// ```
/// use cqs_harness::Workload;
///
/// let work = Workload::new(100);
/// let mut rng = work.rng(0);
/// work.run(&mut rng); // ~100 loop iterations on average
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    mean: u64,
}

impl Workload {
    /// Work with the given mean number of loop iterations. A mean of zero
    /// disables the work entirely.
    pub fn new(mean: u64) -> Self {
        Workload { mean }
    }

    /// The configured mean.
    pub fn mean(&self) -> u64 {
        self.mean
    }

    /// A deterministic per-thread RNG.
    pub fn rng(&self, thread: u64) -> SmallRng {
        SmallRng::seed_from_u64(0x9E37_79B9_7F4A_7C15 ^ thread)
    }

    /// Samples a geometrically distributed iteration count with mean
    /// `self.mean` (success probability `1/mean`).
    pub fn sample(&self, rng: &mut SmallRng) -> u64 {
        if self.mean == 0 {
            return 0;
        }
        // Inverse-transform sampling: ceil(ln U / ln (1 - 1/mean)).
        let u: f64 = rng.gen_range(f64::EPSILON..1.0);
        let p = 1.0 / self.mean as f64;
        (u.ln() / (1.0 - p).ln()).ceil().max(1.0) as u64
    }

    /// Performs one sampled unit of uncontended work.
    pub fn run(&self, rng: &mut SmallRng) {
        let iterations = self.sample(rng);
        let mut acc = 0u64;
        for i in 0..iterations {
            acc = acc.wrapping_add(std::hint::black_box(i));
        }
        std::hint::black_box(acc);
    }
}

/// Runs `body(thread_index)` on `threads` threads with a synchronized
/// start, returning the wall-clock time from release to the last exit.
pub fn measure<F>(threads: usize, body: F) -> Duration
where
    F: Fn(usize) + Send + Sync,
{
    std::thread::scope(|scope| {
        let start = Arc::new(AtomicBool::new(false));
        let body = &body;
        let mut handles = Vec::with_capacity(threads);
        for t in 0..threads {
            let start = Arc::clone(&start);
            handles.push(scope.spawn(move || {
                while !start.load(Ordering::Acquire) {
                    std::hint::spin_loop();
                }
                body(t);
            }));
        }
        let begin = Instant::now();
        start.store(true, Ordering::Release);
        for h in handles {
            h.join().expect("benchmark thread panicked");
        }
        begin.elapsed()
    })
}

/// Like [`measure`], but divides by `total_ops` and returns nanoseconds per
/// operation — the y-axis of every figure in the paper.
pub fn measure_per_op<F>(threads: usize, total_ops: u64, body: F) -> f64
where
    F: Fn(usize) + Send + Sync,
{
    let elapsed = measure(threads, body);
    elapsed.as_nanos() as f64 / total_ops as f64
}

/// Repetition schedule for one benchmark point: `warmup` untimed runs to
/// reach steady state, then `timed` measured runs summarized by
/// [`PointStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Repeats {
    /// Untimed runs discarded before measurement starts.
    pub warmup: usize,
    /// Timed runs; each contributes one sample.
    pub timed: usize,
}

impl Repeats {
    /// A custom schedule. `timed` is clamped to at least one run.
    pub fn new(warmup: usize, timed: usize) -> Self {
        Repeats {
            warmup,
            timed: timed.max(1),
        }
    }

    /// A fast schedule for smoke tests: no warmup, one timed run.
    pub fn once() -> Self {
        Repeats::new(0, 1)
    }
}

impl Default for Repeats {
    /// One warmup run and five timed repeats — enough for a stable median
    /// on a quiet machine without stretching `--quick` runs unreasonably.
    fn default() -> Self {
        Repeats::new(1, 5)
    }
}

/// Relative-IQR threshold above which a point is flagged noisy: the middle
/// half of the samples spans more than this fraction of the median.
pub const NOISE_REL_IQR: f64 = 0.25;

/// Summary statistics for one benchmark point, over the timed repeats of a
/// [`Repeats`] schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct PointStats {
    /// Raw samples (nanoseconds per operation), in measurement order.
    pub samples: Vec<f64>,
    /// Median of the samples — the headline number.
    pub median: f64,
    /// Fastest sample.
    pub min: f64,
    /// Slowest sample.
    pub max: f64,
    /// 95th percentile (nearest-rank).
    pub p95: f64,
    /// Interquartile range divided by the median; a scale-free noise
    /// measure. Zero when fewer than four samples were taken.
    pub rel_iqr: f64,
    /// Whether `rel_iqr` exceeds [`NOISE_REL_IQR`] — the run was too noisy
    /// for small regressions to be meaningful.
    pub noisy: bool,
    /// CQS operation counters incremented during the timed runs (all zeros
    /// unless the workspace `stats` feature is enabled).
    pub counters: CqsStats,
}

impl PointStats {
    /// Summarizes a non-empty sample set.
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty.
    pub fn from_samples(samples: Vec<f64>, counters: CqsStats) -> Self {
        assert!(!samples.is_empty(), "PointStats needs at least one sample");
        let mut sorted = samples.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN benchmark sample"));
        let median = percentile(&sorted, 50.0);
        let rel_iqr = if sorted.len() >= 4 && median > 0.0 {
            (percentile(&sorted, 75.0) - percentile(&sorted, 25.0)) / median
        } else {
            0.0
        };
        PointStats {
            median,
            min: sorted[0],
            max: sorted[sorted.len() - 1],
            p95: percentile(&sorted, 95.0),
            rel_iqr,
            noisy: rel_iqr > NOISE_REL_IQR,
            counters,
            samples,
        }
    }

    /// Wraps a single derived value (a speedup ratio, a count) where the
    /// repeat machinery does not apply: one sample, zero spread.
    pub fn scalar(value: f64) -> Self {
        PointStats::from_samples(vec![value], CqsStats::default())
    }
}

/// Nearest-rank percentile (`p` in 0..=100) over an ascending slice; the
/// median of an even-length slice averages the two central elements.
fn percentile(sorted: &[f64], p: f64) -> f64 {
    let n = sorted.len();
    if (p - 50.0).abs() < f64::EPSILON && n.is_multiple_of(2) {
        return (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0;
    }
    let rank = ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n);
    sorted[rank - 1]
}

/// Runs the workload per the schedule — `repeats.warmup` discarded runs,
/// then `repeats.timed` measured runs — and summarizes nanoseconds per
/// operation. The [`CqsStats`] delta spans exactly the timed runs.
pub fn measure_per_op_repeated<F>(
    threads: usize,
    total_ops: u64,
    repeats: Repeats,
    body: F,
) -> PointStats
where
    F: Fn(usize) + Send + Sync,
{
    for _ in 0..repeats.warmup {
        measure(threads, &body);
    }
    let before = CqsStats::snapshot();
    let mut samples = Vec::with_capacity(repeats.timed.max(1));
    for _ in 0..repeats.timed.max(1) {
        samples.push(measure(threads, &body).as_nanos() as f64 / total_ops as f64);
    }
    let counters = CqsStats::snapshot().delta(&before);
    PointStats::from_samples(samples, counters)
}

/// One plotted line: an algorithm's measurements across the sweep variable.
#[derive(Debug, Clone)]
pub struct Series {
    /// Algorithm name as it appears in the figure legend.
    pub name: String,
    /// `(x, statistics)` points.
    pub points: Vec<(u64, PointStats)>,
}

impl Series {
    /// Creates an empty series.
    pub fn new(name: impl Into<String>) -> Self {
        Series {
            name: name.into(),
            points: Vec::new(),
        }
    }

    /// Appends a measured point.
    pub fn push(&mut self, x: u64, stats: PointStats) {
        self.points.push((x, stats));
    }

    /// Appends a derived single-value point (see [`PointStats::scalar`]).
    pub fn push_scalar(&mut self, x: u64, value: f64) {
        self.points.push((x, PointStats::scalar(value)));
    }

    /// The point at sweep value `x`, if measured.
    pub fn at(&self, x: u64) -> Option<&PointStats> {
        self.points.iter().find(|(px, _)| *px == x).map(|(_, s)| s)
    }
}

/// Prints a paper-style table for one figure: rows are the sweep variable,
/// columns the algorithms. Rows cover the sorted union of every series'
/// x-values — a series without a measurement at some x shows `-`, and a
/// noisy point (relative IQR above [`NOISE_REL_IQR`]) is marked with `~`.
pub fn print_figure(title: &str, x_label: &str, series: &[Series]) {
    println!("\n=== {title} ===");
    print!("{x_label:>12}");
    for s in series {
        print!(" | {:>22}", s.name);
    }
    println!();
    let mut xs: Vec<u64> = series
        .iter()
        .flat_map(|s| s.points.iter().map(|(x, _)| *x))
        .collect();
    xs.sort_unstable();
    xs.dedup();
    for x in xs {
        print!("{x:>12}");
        for s in series {
            match s.at(x) {
                Some(p) => {
                    let flag = if p.noisy { "~" } else { " " };
                    print!(" | {:>18.0} ns{flag}", p.median);
                }
                None => print!(" | {:>22}", "-"),
            }
        }
        println!();
    }
}

/// The process's current resident set size in bytes, read from
/// `/proc/self/status` (`VmRSS`). Returns `None` where the probe is
/// unavailable (non-Linux, procfs not mounted, or an unparsable entry), so
/// downstream tooling can *omit* the figure instead of reporting a
/// misleading zero.
///
/// Scenario benches sample this alongside live-segment counts to bound
/// memory growth under waiter ramps and soak runs.
pub fn rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmRSS:") {
            let kb: u64 = rest.trim().trim_end_matches("kB").trim().parse().ok()?;
            return Some(kb * 1024);
        }
    }
    None
}

/// The default thread counts to sweep: powers of two up to twice the
/// available parallelism, always including the upper bound itself.
pub fn thread_sweep() -> Vec<usize> {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);
    thread_sweep_for(cores)
}

/// [`thread_sweep`] for an explicit core count (testable without caring
/// what machine the tests run on).
pub fn thread_sweep_for(cores: usize) -> Vec<usize> {
    // Sweep past the core count, as the paper does (its x-axes extend to
    // and beyond the 144 hardware threads of its testbed); on small
    // machines still cover oversubscription up to at least 8 threads.
    let top = (cores.max(1) * 2).max(8);
    let mut sweep = Vec::new();
    let mut n = 1;
    while n <= top {
        sweep.push(n);
        n *= 2;
    }
    // When `top` is not a power of two the doubling loop overshoots it and
    // the sweep would silently stop short of the intended upper bound
    // (e.g. 6 cores -> top = 12, loop ends at 8). Always measure at `top`.
    if sweep.last() != Some(&top) {
        sweep.push(top);
    }
    sweep
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometric_mean_is_roughly_right() {
        let work = Workload::new(100);
        let mut rng = work.rng(1);
        let samples: u64 = (0..20_000).map(|_| work.sample(&mut rng)).sum();
        let mean = samples as f64 / 20_000.0;
        assert!(
            (70.0..130.0).contains(&mean),
            "geometric sample mean {mean} too far from 100"
        );
    }

    #[test]
    fn zero_work_is_free() {
        let work = Workload::new(0);
        let mut rng = work.rng(0);
        assert_eq!(work.sample(&mut rng), 0);
        work.run(&mut rng);
    }

    #[test]
    fn measure_runs_every_thread() {
        use std::sync::atomic::AtomicUsize;
        let count = AtomicUsize::new(0);
        let elapsed = measure(4, |_| {
            count.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(count.load(Ordering::SeqCst), 4);
        assert!(elapsed.as_nanos() > 0);
    }

    #[test]
    fn per_op_scales_by_total() {
        let a = measure_per_op(2, 1, |_| {});
        let b = measure_per_op(2, 1_000, |_| {});
        // Same (trivial) work, a thousand times more ops: per-op time must
        // shrink drastically.
        assert!(b < a);
    }

    #[test]
    fn point_stats_summarize_correctly() {
        let p = PointStats::from_samples(vec![5.0, 1.0, 3.0, 2.0, 4.0], CqsStats::default());
        assert_eq!(p.median, 3.0);
        assert_eq!(p.min, 1.0);
        assert_eq!(p.max, 5.0);
        assert_eq!(p.p95, 5.0);
        assert!(p.rel_iqr > 0.0);
    }

    #[test]
    fn even_sample_count_averages_central_pair() {
        let p = PointStats::from_samples(vec![1.0, 2.0, 3.0, 4.0], CqsStats::default());
        assert_eq!(p.median, 2.5);
    }

    #[test]
    fn scalar_point_has_no_spread() {
        let p = PointStats::scalar(42.0);
        assert_eq!(p.median, 42.0);
        assert_eq!(p.min, p.max);
        assert_eq!(p.rel_iqr, 0.0);
        assert!(!p.noisy);
    }

    #[test]
    fn tight_samples_are_not_noisy_but_wild_ones_are() {
        let tight =
            PointStats::from_samples(vec![100.0, 101.0, 99.0, 100.5, 99.5], CqsStats::default());
        assert!(!tight.noisy, "rel_iqr = {}", tight.rel_iqr);
        let wild =
            PointStats::from_samples(vec![100.0, 400.0, 50.0, 300.0, 10.0], CqsStats::default());
        assert!(wild.noisy, "rel_iqr = {}", wild.rel_iqr);
    }

    #[test]
    fn repeated_measurement_collects_every_sample() {
        use std::sync::atomic::AtomicUsize;
        let runs = AtomicUsize::new(0);
        let stats = measure_per_op_repeated(2, 10, Repeats::new(2, 4), |_| {
            runs.fetch_add(1, Ordering::SeqCst);
        });
        // (2 warmup + 4 timed) runs x 2 threads.
        assert_eq!(runs.load(Ordering::SeqCst), 12);
        assert_eq!(stats.samples.len(), 4);
        assert!(stats.min <= stats.median && stats.median <= stats.max);
        assert!(stats.max <= stats.p95 || stats.p95 <= stats.max);
    }

    #[test]
    fn thread_sweep_is_nonempty_and_increasing() {
        let sweep = thread_sweep();
        assert!(!sweep.is_empty());
        assert!(sweep.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn thread_sweep_reaches_twice_the_cores() {
        // Regression test: with a non-power-of-two core count the doubling
        // loop used to stop below the upper bound (6 cores -> top = 12 but
        // the sweep ended at 8), so the oversubscribed point was never
        // measured.
        for cores in 1..=96 {
            let sweep = thread_sweep_for(cores);
            let top = (cores * 2).max(8);
            assert_eq!(
                sweep.last().copied(),
                Some(top),
                "sweep for {cores} cores must end at {top}, got {sweep:?}"
            );
            assert_eq!(sweep[0], 1);
            assert!(
                sweep.windows(2).all(|w| w[0] < w[1]),
                "sweep for {cores} cores not strictly increasing: {sweep:?}"
            );
        }
    }

    #[test]
    fn thread_sweep_power_of_two_cores_unchanged() {
        assert_eq!(thread_sweep_for(4), vec![1, 2, 4, 8]);
        assert_eq!(thread_sweep_for(8), vec![1, 2, 4, 8, 16]);
        assert_eq!(thread_sweep_for(6), vec![1, 2, 4, 8, 12]);
        assert_eq!(thread_sweep_for(1), vec![1, 2, 4, 8]);
    }

    #[test]
    fn rss_is_positive_on_linux() {
        let rss = rss_bytes();
        if cfg!(target_os = "linux") {
            assert!(
                rss.is_some_and(|r| r > 0),
                "a running process has resident memory"
            );
        }
        // Allocating visibly moves the needle only under allocator luck;
        // just check the probe is stable enough to call twice: available
        // on both reads or on neither.
        assert_eq!(rss_bytes().is_some(), rss.is_some());
    }

    #[test]
    fn series_lookup_is_by_x_not_row() {
        let mut s = Series::new("test");
        s.push_scalar(2, 200.0);
        s.push_scalar(8, 800.0);
        assert_eq!(s.at(8).map(|p| p.median), Some(800.0));
        assert_eq!(s.at(4).map(|p| p.median), None);
    }

    #[test]
    fn print_figure_handles_ragged_series() {
        // Regression test: print_figure used to take row indices from the
        // FIRST series and compare other series positionally, so a series
        // measured at a different x-grid printed `-` for values it had
        // (and rows beyond the first series' length vanished entirely).
        let mut a = Series::new("a");
        a.push_scalar(1, 100.0);
        a.push_scalar(2, 200.0);
        let mut b = Series::new("b");
        b.push_scalar(2, 250.0);
        b.push_scalar(4, 450.0);
        // The union grid must expose every point of every series.
        let mut xs: Vec<u64> = [&a, &b]
            .iter()
            .flat_map(|s| s.points.iter().map(|(x, _)| *x))
            .collect();
        xs.sort_unstable();
        xs.dedup();
        assert_eq!(xs, vec![1, 2, 4]);
        assert_eq!(b.at(2).map(|p| p.median), Some(250.0));
        assert_eq!(b.at(4).map(|p| p.median), Some(450.0));
        // And the printer itself must not panic on the ragged input.
        print_figure("Fig X (ragged)", "threads", &[a, b]);
    }

    #[test]
    fn print_figure_does_not_panic() {
        let mut s = Series::new("test");
        s.push_scalar(1, 100.0);
        s.push_scalar(2, 200.0);
        print_figure("Fig X", "threads", &[s]);
    }
}
