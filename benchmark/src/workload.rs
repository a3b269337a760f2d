//! What every workload shares: parameters in, windows and counts out, the
//! seeded generator, and the quiet-quartile estimator.

use std::time::Instant;

use crate::alloc;
use crate::hist::{quartiles, Hist};
use crate::trace::Tracer;

/// Windows whose allocation count and heap high-water mark make up
/// `allocs_per_op` and `mem_peak_mib`. A fixed count, so both are a pure
/// function of the seed however long the timed part of the run lasts.
pub const COUNT_WINDOWS: usize = 8;

pub const WORKLOADS: [&str; 4] = ["uncontended", "handoff", "abort-storm", "pipeline"];

pub struct Params {
    pub seed: u64,
    /// Keep measuring windows until this much time has passed …
    pub seconds: f64,
    /// … and at least this many windows are done. Zero with `seconds == 0`
    /// is a set-up-only run: construct, spawn, warm up, tear down.
    pub min_windows: usize,
    pub traced: bool,
}

impl Params {
    pub fn max_windows(&self) -> usize {
        // Windows take 0.15–0.25 s; leave room for a host three times faster.
        self.min_windows.max((self.seconds * 16.0) as usize) + 1
    }
}

/// One fixed-op-count measurement window, as its quiet slices saw it.
pub struct Window {
    pub ops: u64,
    /// Operations per second over the window's quiet slices.
    pub ops_per_s: f64,
    pub quiet_share: f64,
    /// The floor its slices were judged against.
    floor_ns: u64,
    /// The latency samples kept in it.
    latency: Hist,
}

/// Numbers only some workloads produce; they feed per-layer metrics.
#[derive(Default, Clone, Copy)]
pub struct Extras {
    /// Calls that returned a suspended (not immediate) future, over calls
    /// (`pipeline`).
    pub suspend_share: f64,
    /// p99 / p50 of semaphore wait time over the whole run (`handoff`).
    pub fairness: f64,
    /// Most segments linked into the semaphore's queue (`abort-storm`).
    pub live_segments_peak: usize,
    /// Most heap bytes a mass abort left allocated beyond what was live
    /// right before it (`abort-storm`): retired but not yet freed.
    pub retired_peak: i64,
    /// Generator lateness p99 and request p50 of the open-loop pass, ns.
    pub open_late_p99_ns: f64,
    pub open_p50_ns: f64,
}

pub struct Run {
    pub setup_s: f64,
    /// The windows that count (see `Meter::finish`) …
    pub windows: Vec<Window>,
    /// … and the latency samples the meter kept in them.
    pub latency: Hist,
    /// Operations in the measured windows plus the output checks made.
    pub attempted: u64,
    /// Operations or checks with a wrong outcome.
    pub failed: u64,
    /// Waits that ended in a successful `cancel()`: outcomes, not failures.
    pub aborted: u64,
    pub allocs_per_op: f64,
    pub mem_peak_bytes: i64,
    pub extras: Extras,
    pub tracers: Vec<Tracer>,
}

/// Tracks the counted prefix of a run: allocations per op and the heap
/// high-water mark above the pre-construction baseline.
pub struct Counts {
    base_live: i64,
    /// Live bytes the benchmark itself allocated after the baseline (task
    /// frames); constant while measuring, so subtracted from the peak.
    pub owned: i64,
    start: alloc::Snapshot,
    start_ops: u64,
    pub allocs_per_op: f64,
    pub mem_peak_bytes: i64,
}

impl Counts {
    /// Call after the benchmark's own buffers exist and before the first
    /// library object is constructed.
    pub fn baseline() -> Self {
        Counts {
            base_live: alloc::reset_peak(),
            owned: 0,
            start: alloc::Snapshot::default(),
            start_ops: 0,
            allocs_per_op: 0.0,
            mem_peak_bytes: 0,
        }
    }

    /// Call when warm-up ends.
    pub fn start(&mut self, ops: u64) {
        self.start = alloc::snapshot();
        self.start_ops = ops;
    }

    /// Call at the end of every window; freezes both counts once the
    /// counted prefix is complete.
    pub fn window_done(&mut self, windows: usize, ops: u64) {
        if windows == COUNT_WINDOWS {
            let now = alloc::snapshot();
            self.allocs_per_op =
                (now.allocs - self.start.allocs) as f64 / (ops - self.start_ops).max(1) as f64;
            self.mem_peak_bytes = alloc::peak() - self.base_live - self.owned;
        }
    }
}

/// Times a workload in *slices* — 64 operations, some 50 µs (512 requests
/// on `pipeline`) — and keeps only the quiet ones.
///
/// On this box the hypervisor takes the vCPU away for 5–15 ms at a time,
/// many times a second and for minutes on end (a busy loop loses half its
/// wall clock to such gaps), and between the gaps the same code runs at
/// several distinct speeds — 1×, 1.3×, 1.7×, 1.9× the floor — that last a
/// millisecond or two each, as whatever shares the core comes and goes.
/// Both are far coarser than a slice, so a slice is either clean or not.
/// The code itself has one speed, the *floor*: the lowest decile of a
/// window's slice durations, median over the windows so far. At the end of
/// each window the meter keeps the slices within a tenth of the floor and
/// drops the rest, operations and time alike.
///
/// A latency sample counts only if it began and ended in kept slices — its
/// own length has no say in that — and each dropped slice in between is
/// charged at the mean duration of the window's kept slices: the wait as it
/// would have been had those slices run undisturbed too.
///
/// What is left is the speed of the code on an undisturbed core, which is
/// what a change to the library can move; the share of slices kept is
/// reported beside it.
pub struct Meter {
    t0: Instant,
    /// Lowest decile of slice durations of every window so far; the floor
    /// is their median.
    deciles: Vec<u64>,
    floor_ns: u64,
    slice_began: u64,
    /// The window in progress, all times in ns since `t0`.
    slices: Vec<Slice>,
    /// (start, end, value) of each latency sample.
    samples: Vec<(u64, u64, u64)>,
    /// Scratch space of `close`: sorted durations, then per slice the time
    /// dropped slices before it took beyond the mean kept slice.
    scratch: Vec<u64>,
    /// Histograms for the windows to come, so that closing one allocates
    /// nothing.
    spare: Vec<Hist>,
    pub done: Vec<Window>,
    began: Instant,
    seconds: f64,
    min_windows: usize,
}

struct Slice {
    began: u64,
    ended: u64,
    ops: u64,
    kept: bool,
}

impl Meter {
    /// `slices` and `samples` bound what one window may record.
    pub fn new(p: &Params, t0: Instant, slices: usize, samples: usize) -> Self {
        Meter {
            t0,
            deciles: Vec::with_capacity(p.max_windows() + 1),
            floor_ns: u64::MAX,
            slice_began: 0,
            slices: Vec::with_capacity(slices),
            samples: Vec::with_capacity(samples),
            scratch: Vec::with_capacity(slices + 1),
            spare: (0..p.max_windows() + 1).map(|_| Hist::new()).collect(),
            done: Vec::with_capacity(p.max_windows()),
            began: t0,
            seconds: p.seconds,
            min_windows: p.min_windows,
        }
    }

    pub fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Starts the clock of the next slice (after untimed work).
    pub fn begin_slice(&mut self) {
        self.slice_began = self.now();
    }

    /// A latency sample of `value_ns` taken from `start_ns` to `end_ns`.
    pub fn sample(&mut self, start_ns: u64, end_ns: u64, value_ns: u64) {
        if self.samples.len() < self.samples.capacity() {
            self.samples.push((start_ns, end_ns, value_ns));
        }
    }

    /// Ends a slice of `ops` operations and starts the next.
    pub fn end_slice(&mut self, ops: u64) {
        let now = self.now();
        if self.slices.len() < self.slices.capacity() {
            self.slices.push(Slice {
                began: self.slice_began,
                ended: now,
                ops,
                kept: false,
            });
        }
        self.slice_began = now;
    }

    /// The slice `at` falls in, if it falls in one.
    fn slice_at(&self, at: u64) -> Option<usize> {
        let i = self.slices.partition_point(|s| s.ended < at);
        (self.slices.get(i)?.began <= at).then_some(i)
    }

    /// Closes the window: moves the floor, marks the clean slices, and keeps
    /// the samples that began and ended in one.
    fn close(&mut self) -> Window {
        self.scratch.clear();
        self.scratch
            .extend(self.slices.iter().map(|s| s.ended - s.began));
        self.scratch.sort_unstable();
        let quantile = |tenths: usize| self.scratch.get(self.scratch.len() * tenths / 10).copied();
        self.deciles.push(quantile(1).unwrap_or(u64::MAX));
        self.deciles.sort_unstable();
        self.floor_ns = self.deciles[(self.deciles.len() - 1) / 2];
        let limit = self.floor_ns.saturating_add(self.floor_ns / 10);

        let (mut ops, mut kept_ops, mut kept_ns, mut kept) = (0, 0, 0, 0u64);
        for slice in &mut self.slices {
            ops += slice.ops;
            slice.kept = slice.ended - slice.began <= limit;
            if slice.kept {
                kept_ops += slice.ops;
                kept_ns += slice.ended - slice.began;
                kept += 1;
            }
        }
        // scratch[i]: what the dropped slices before slice i took beyond
        // the mean kept slice.
        let mean = kept_ns / kept.max(1);
        self.scratch.clear();
        let mut excess = 0;
        for slice in &self.slices {
            self.scratch.push(excess);
            if !slice.kept {
                excess += (slice.ended - slice.began).saturating_sub(mean);
            }
        }
        let mut latency = self.spare.pop().expect("a histogram per window");
        for &(start, end, value) in &self.samples {
            let (Some(first), Some(last)) = (self.slice_at(start), self.slice_at(end)) else {
                continue;
            };
            if self.slices[first].kept && self.slices[last].kept {
                let dropped_between = self.scratch[last] - self.scratch[first];
                latency.record(value.saturating_sub(dropped_between));
            }
        }
        let window = Window {
            ops,
            ops_per_s: kept_ops as f64 / (kept_ns.max(1) as f64 / 1e9),
            quiet_share: kept as f64 / self.slices.len().max(1) as f64,
            floor_ns: self.floor_ns,
            latency,
        };
        self.slices.clear();
        self.samples.clear();
        window
    }

    /// Ends warm-up, which is timed like a window: returns how long its
    /// operations take at its quiet rate, and starts the clock of the
    /// measured part.
    pub fn warmed_up(&mut self) -> f64 {
        let warmup = self.close();
        self.began = Instant::now();
        warmup.ops as f64 / warmup.ops_per_s
    }

    pub fn end_window(&mut self) {
        let window = self.close();
        self.done.push(window);
    }

    /// The windows judged against (within 2 % of) the final floor, and the
    /// latency samples kept in them. The floor settles within a few
    /// windows; the ones before that are set aside.
    pub fn finish(mut self) -> (Vec<Window>, Hist) {
        let floor = self.floor_ns;
        let settled = |w: &Window| w.floor_ns.abs_diff(floor) <= floor / 50;
        if self.done.iter().any(settled) {
            self.done.retain(settled);
        }
        let mut latency = Hist::new();
        for window in &self.done {
            latency.merge(&window.latency);
        }
        (self.done, latency)
    }

    pub fn more(&self) -> bool {
        self.done.len() < self.done.capacity()
            && (self.done.len() < self.min_windows
                || self.began.elapsed().as_secs_f64() < self.seconds)
    }
}

/// SplitMix64: the only source of workload inputs, seeded from `--seed`.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        rng.next();
        rng
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// A window in which the meter kept fewer slices than this has nothing to
/// say about throughput.
const MIN_QUIET_SHARE: f64 = 0.05;

/// The end-to-end timing metrics of one run.
///
/// Interference only ever slows a window down, never speeds it up, so on
/// top of the per-slice filter throughput is read from the quiet quartile
/// of the windows — the upper quartile of per-window throughput — never
/// from a whole-run mean. The latency quantiles are those of every sample
/// the meter kept.
pub struct Timing {
    pub throughput_ops_s: f64,
    pub latency_p50_us: f64,
    pub latency_p99_us: f64,
    pub samples: u64,
    /// Median share of slices the meter kept per window.
    pub quiet_share: f64,
}

pub fn timing(run: &Run) -> Timing {
    let usable = |w: &&Window| w.quiet_share >= MIN_QUIET_SHARE;
    let mut rates: Vec<f64> = run
        .windows
        .iter()
        .filter(usable)
        .map(|w| w.ops_per_s)
        .collect();
    if rates.is_empty() {
        rates = run.windows.iter().map(|w| w.ops_per_s).collect();
    }
    let shares: Vec<f64> = run.windows.iter().map(|w| w.quiet_share).collect();
    Timing {
        throughput_ops_s: quartiles(&rates)[2],
        latency_p50_us: run.latency.quantile(0.5) / 1e3,
        latency_p99_us: run.latency.quantile(0.99) / 1e3,
        samples: run.latency.total(),
        quiet_share: quartiles(&shares)[1],
    }
}
