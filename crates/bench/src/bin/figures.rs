//! Regenerates the paper's figures as textual tables and, optionally, as a
//! machine-readable report (the committed one is `BENCH_figures.json`).
//!
//! ```text
//! figures [--quick] [--threads a,b,c] [--warmup N] [--repeats N] [--json out.json]
//!         (--all | --fig 5|6|7|8|13|14|15|ch|sh|a1|a2|a3 | --ablation cancellation|segment|batch-resume)
//! ```
//!
//! All numbers are nanoseconds per operation (lower is better) except the
//! Fig. 13 speedup tables (scaled ×1000, higher is better). With `--json`
//! every series point is written out with full statistics (median, min,
//! max, p95, relative IQR, raw samples) plus the CQS operation counters
//! (all zeros unless built with `--features stats`) and run metadata.
//! An unknown figure id or ablation name is a usage error: the process
//! exits with status 2 before anything is measured.

use cqs_bench::report::{BenchReport, FigureReport, RunMeta};
use cqs_bench::{
    ablations, fig13_coroutine_mutex, fig5_barrier, fig6_latch, fig7_semaphore, fig8_pools,
    fig_channel, fig_sharded, print_figure, thread_sweep, Repeats, Scale, Series,
};

/// Every figure id, in `--all` order; `--fig` accepts exactly these.
const FIGURES: [&str; 12] = [
    "5", "6", "7", "8", "13", "14", "15", "ch", "sh", "a1", "a2", "a3",
];

/// `--ablation` names and the figure ids they select.
const ABLATIONS: [(&str, &str); 3] = [
    ("cancellation", "a1"),
    ("segment", "a2"),
    ("batch-resume", "a3"),
];

#[derive(Debug)]
struct Options {
    scale: Scale,
    threads: Vec<usize>,
    figures: Vec<String>,
    repeats: Repeats,
    json: Option<String>,
}

const HELP: &str = "\
figures — regenerate the paper's benchmark figures

USAGE:
    figures [OPTIONS] (--all | --fig N ... | --ablation NAME ...)

FIGURE SELECTION:
    --all                 every figure and ablation
    --fig N               one of 5|6|7|8|13|14|15|ch|sh|a1|a2|a3 (repeatable;
                          ch = channel producer-consumer extension,
                          sh = contended acquire, single-queue vs sharded)
    --ablation NAME       cancellation (a1), segment (a2) or batch-resume (a3)

MEASUREMENT:
    --quick               reduced operation counts for smoke runs
    --threads a,b,c       thread sweep (default: machine-derived)
    --warmup N            warmup repetitions per point
    --repeats N           timed repetitions per point (median reported)

REPORTING:
    --json PATH           write a cqs-bench/v1 JSON report
";

/// Reports a command-line mistake and exits with status 2.
fn usage_error(message: String) -> ! {
    eprintln!("figures: {message} (try --help)");
    std::process::exit(2);
}

fn parse_args() -> Options {
    let mut scale = Scale::Full;
    let mut threads = thread_sweep();
    let mut figures = Vec::new();
    let mut repeats = Repeats::default();
    let mut json = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => scale = Scale::Quick,
            "--threads" => {
                let list = args.next().expect("--threads needs a value");
                threads = list
                    .split(',')
                    .map(|s| s.trim().parse().expect("bad thread count"))
                    .collect();
            }
            "--warmup" => {
                repeats.warmup = args
                    .next()
                    .expect("--warmup needs a count")
                    .parse()
                    .expect("bad warmup count");
            }
            "--repeats" => {
                repeats.timed = args
                    .next()
                    .expect("--repeats needs a count")
                    .parse::<usize>()
                    .expect("bad repeat count")
                    .max(1);
            }
            "--json" => json = Some(args.next().expect("--json needs a path")),
            "--all" => figures = FIGURES.map(String::from).to_vec(),
            "--fig" => {
                let id = args.next().expect("--fig needs a number");
                if !FIGURES.contains(&id.as_str()) {
                    usage_error(format!("unknown figure {id}"));
                }
                figures.push(id);
            }
            "--ablation" => {
                let which = args.next().expect("--ablation needs a name");
                match ABLATIONS.iter().find(|(name, _)| *name == which) {
                    Some((_, id)) => figures.push(id.to_string()),
                    None => usage_error(format!("unknown ablation {which}")),
                }
            }
            "--help" | "-h" => {
                print!("{}", HELP);
                std::process::exit(0);
            }
            other => usage_error(format!("unknown argument {other}")),
        }
    }
    if figures.is_empty() {
        figures.push("5".to_string());
    }
    Options {
        scale,
        threads,
        figures,
        repeats,
        json,
    }
}

/// Runs a figure's measurement closure, reporting how long the whole
/// figure took wall-clock (warmup and drains included, so it measures the
/// cost of *producing* the figure, not the per-op medians inside it).
fn timed(run: impl FnOnce() -> Vec<Series>) -> (Vec<Series>, f64) {
    let begin = std::time::Instant::now();
    let series = run();
    (series, begin.elapsed().as_secs_f64() * 1e3)
}

/// Prints a figure's table and records it for the JSON report under a
/// stable name (parameterized variants get distinct names: `fig5_work100`,
/// `fig7_permits4`, ...).
fn emit(
    report: &mut Vec<FigureReport>,
    name: String,
    title: String,
    x_label: &str,
    (series, wall_clock_ms): (Vec<Series>, f64),
) {
    print_figure(&title, x_label, &series);
    report.push(FigureReport {
        name,
        title,
        x_label: x_label.to_string(),
        wall_clock_ms,
        series,
    });
}

fn main() {
    // With `--features watch` and CQS_WATCH_STALL_MS set, a background
    // watchdog reports stalled waiters / deadlocks of a wedged benchmark
    // run as JSON lines (to CQS_WATCH_REPORT or stderr) instead of leaving
    // a silent hang; see EXPERIMENTS.md. No-op otherwise.
    let _watchdog = cqs_watch::spawn_from_env();
    let options = parse_args();
    let scale = options.scale;
    let threads = &options.threads;
    let repeats = options.repeats;
    println!(
        "running {:?} at {:?} scale on threads {:?} ({} warmup + {} timed runs per point)",
        options.figures, scale, threads, repeats.warmup, repeats.timed
    );

    let mut figures = Vec::new();
    for figure in &options.figures {
        match figure.as_str() {
            "5" => {
                for work in [100, 1000] {
                    emit(
                        &mut figures,
                        format!("fig5_work{work}"),
                        format!("Figure 5: barrier, work = {work}"),
                        "threads",
                        timed(|| fig5_barrier::run(scale, work, threads, repeats)),
                    );
                }
            }
            "6" => {
                for work in [50, 200] {
                    emit(
                        &mut figures,
                        format!("fig6_work{work}"),
                        format!("Figure 6: count-down latch, work = {work}"),
                        "threads",
                        timed(|| fig6_latch::run(scale, work, threads, repeats)),
                    );
                }
            }
            "7" => {
                for permits in [1usize, 4, 16] {
                    emit(
                        &mut figures,
                        format!("fig7_permits{permits}"),
                        format!("Figure 7: semaphore, permits = {permits}"),
                        "threads",
                        timed(|| fig7_semaphore::run(scale, permits, threads, repeats)),
                    );
                }
            }
            "8" => {
                for elements in [1usize, 4, 16] {
                    emit(
                        &mut figures,
                        format!("fig8_elements{elements}"),
                        format!("Figure 8: blocking pools, elements = {elements}"),
                        "threads",
                        timed(|| fig8_pools::run(scale, elements, threads, repeats)),
                    );
                }
            }
            "ch" => {
                for capacity in [4usize, 16] {
                    emit(
                        &mut figures,
                        format!("fig_channel_cap{capacity}"),
                        format!("Channels: producer-consumer, bounded capacity = {capacity}"),
                        "pairs",
                        timed(|| fig_channel::run(scale, capacity, threads, repeats)),
                    );
                }
            }
            "13" => {
                for coroutines in [1_000usize, 10_000] {
                    let (raw, raw_ms) =
                        timed(|| fig13_coroutine_mutex::run(scale, coroutines, threads, repeats));
                    let (speedups, speedup_ms) = timed(|| fig13_coroutine_mutex::speedups(&raw));
                    emit(
                        &mut figures,
                        format!("fig13_coroutines{coroutines}"),
                        format!("Figure 13: coroutine mutex, {coroutines} coroutines (ns/op)"),
                        "threads",
                        (raw, raw_ms),
                    );
                    emit(
                        &mut figures,
                        format!("fig13_speedup_coroutines{coroutines}"),
                        format!(
                            "Figure 13: speedup vs legacy mutex, {coroutines} coroutines (x1000)"
                        ),
                        "threads",
                        (speedups, speedup_ms),
                    );
                }
            }
            "14" => {
                for permits in [2usize, 8, 32, 64] {
                    emit(
                        &mut figures,
                        format!("fig14_permits{permits}"),
                        format!("Figure 14: semaphore (extended), permits = {permits}"),
                        "threads",
                        timed(|| fig7_semaphore::run(scale, permits, threads, repeats)),
                    );
                }
            }
            "15" => {
                for elements in [2usize, 8, 32, 64] {
                    emit(
                        &mut figures,
                        format!("fig15_elements{elements}"),
                        format!("Figure 15: blocking pools (extended), elements = {elements}"),
                        "threads",
                        timed(|| fig8_pools::run(scale, elements, threads, repeats)),
                    );
                }
            }
            "sh" => {
                emit(
                    &mut figures,
                    "sh_contended".to_string(),
                    "Sharded: contended acquire, single-queue vs sharded (P = ceil(T/2))"
                        .to_string(),
                    "threads",
                    timed(|| fig_sharded::run(scale, threads, repeats)),
                );
            }
            "a1" => {
                emit(
                    &mut figures,
                    "a1_cancellation".to_string(),
                    "Ablation A1: final wake-up cost after N cancelled waiters (total ns)"
                        .to_string(),
                    "cancelled",
                    timed(|| ablations::cancellation_mode(scale, repeats)),
                );
            }
            "a2" => {
                emit(
                    &mut figures,
                    "a2_segment_size".to_string(),
                    "Ablation A2: uncontended suspend+resume vs segment size (ns/op)".to_string(),
                    "SEGM_SIZE",
                    timed(|| ablations::segment_size(scale, repeats)),
                );
            }
            "a3" => {
                emit(
                    &mut figures,
                    "a3_batch_resume".to_string(),
                    "Ablation A3: wake of N waiters, looped resume vs batched resume_n (ns/wake)"
                        .to_string(),
                    "waiters per wake",
                    timed(|| ablations::batch_resume(scale, repeats)),
                );
            }
            other => unreachable!("parse_args admits only known figure ids, got {other}"),
        }
    }

    let mut report = BenchReport {
        meta: RunMeta::current(scale.label(), threads, repeats),
        figures,
    };
    // The harness crate does not depend on cqs-future, so the spill count
    // is filled in here, once every figure has run.
    report.meta.wake_batch_spills = cqs_future::wake_batch_spill_count();

    if let Some(path) = &options.json {
        let json = report.to_json();
        std::fs::write(path, &json).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
        println!(
            "\nwrote {} figures to {path} ({} bytes)",
            report.figures.len(),
            json.len()
        );
    }
}
