//! Regenerates the paper's figures as textual tables and, optionally, as a
//! machine-readable `BENCH_*.json` report.
//!
//! ```text
//! figures [--quick] [--threads a,b,c] [--warmup N] [--repeats N]
//!         [--json out.json] [--baseline old.json] [--regression-pct X]
//!         (--all | --fig 5|6|7|8|13|14|15 | --ablation cancellation|segment|batch-resume)
//! ```
//!
//! All numbers are nanoseconds per operation (lower is better) except the
//! Fig. 13 speedup tables (scaled ×1000, higher is better). With `--json`
//! every series point is written out with full statistics (median, min,
//! max, p95, relative IQR, raw samples) plus the CQS operation counters
//! (all zeros unless built with `--features stats`) and run metadata.
//! With `--baseline` the freshly measured medians are compared against a
//! previous report and the process exits non-zero if any non-noisy point
//! slowed down by more than `--regression-pct` percent (default 25).

use cqs_bench::report::{
    compare_to_baseline, BenchReport, FigureReport, Json, ResourceSample, RunMeta,
};
use cqs_bench::{
    ablations, fig13_coroutine_mutex, fig5_barrier, fig6_latch, fig7_semaphore, fig8_pools,
    fig_channel, print_figure, scenarios, thread_sweep, Repeats, Scale, Series,
};

#[derive(Debug)]
struct Options {
    scale: Scale,
    threads: Vec<usize>,
    figures: Vec<String>,
    repeats: Repeats,
    json: Option<String>,
    baseline: Option<String>,
    regression_pct: f64,
}

const HELP: &str = "\
figures — regenerate the paper's benchmark figures

USAGE:
    figures [OPTIONS] (--all | --fig N ... | --ablation NAME ... | --scenario NAME ...)

FIGURE SELECTION:
    --all                 every figure and ablation
    --fig N               one of 5|6|7|8|13|14|15|ch|a1|a2|a3 (repeatable;
                          ch = channel producer-consumer extension)
    --ablation NAME       cancellation (a1), segment (a2) or batch-resume (a3)
    --scenario NAME       production-traffic scenario (not part of --all):
                          contended   closed-loop contended acquire,
                                      single-queue vs sharded
                          open-loop   timed arrivals with load shedding
                          burst       bursty fan-out suspend+wake cycles
                          ramp        live-waiter ramp with RSS/segment
                                      snapshots, then mass cancellation
                          soak        steady-state soak with periodic
                                      resource snapshots

MEASUREMENT:
    --quick               reduced operation counts for smoke runs
    --threads a,b,c       thread sweep (default: machine-derived)
    --warmup N            warmup repetitions per point
    --repeats N           timed repetitions per point (median reported)

REPORTING:
    --json PATH           write a cqs-bench/v1 JSON report
    --baseline PATH       compare medians against a previous report;
                          exit non-zero on regression
    --regression-pct X    slowdown tolerance for --baseline (default 25)
";

fn parse_args() -> Options {
    let mut scale = Scale::Full;
    let mut threads = thread_sweep();
    let mut figures = Vec::new();
    let mut repeats = Repeats::default();
    let mut json = None;
    let mut baseline = None;
    let mut regression_pct = 25.0;
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
            "--baseline" => baseline = Some(args.next().expect("--baseline needs a path")),
            "--regression-pct" => {
                regression_pct = args
                    .next()
                    .expect("--regression-pct needs a value")
                    .parse()
                    .expect("bad percentage");
            }
            "--all" => {
                figures = ["5", "6", "7", "8", "13", "14", "15", "ch", "a1", "a2", "a3"]
                    .map(String::from)
                    .to_vec();
            }
            "--fig" => figures.push(args.next().expect("--fig needs a number")),
            "--ablation" => {
                let which = args.next().expect("--ablation needs a name");
                figures.push(match which.as_str() {
                    "cancellation" => "a1".to_string(),
                    "segment" => "a2".to_string(),
                    "batch-resume" => "a3".to_string(),
                    other => panic!("unknown ablation {other}"),
                });
            }
            "--scenario" => {
                let which = args.next().expect("--scenario needs a name");
                figures.push(match which.as_str() {
                    "contended" => "s1".to_string(),
                    "open-loop" => "s2".to_string(),
                    "burst" => "s3".to_string(),
                    "ramp" => "s4".to_string(),
                    "soak" => "s5".to_string(),
                    other => panic!("unknown scenario {other}"),
                });
            }
            "--help" | "-h" => {
                print!("{}", HELP);
                std::process::exit(0);
            }
            other => panic!("unknown argument {other} (try --help)"),
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
        baseline,
        regression_pct,
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
/// stable name (the baseline-comparison key, so parameterized variants get
/// distinct names: `fig5_work100`, `fig7_permits4`, ...).
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
        samples: Vec::new(),
    });
}

/// [`timed`] for scenario benches, which return resource snapshots
/// alongside their series.
fn timed_scenario(
    run: impl FnOnce() -> scenarios::ScenarioResult,
) -> (Vec<Series>, Vec<ResourceSample>, f64) {
    let begin = std::time::Instant::now();
    let (series, samples) = run();
    (series, samples, begin.elapsed().as_secs_f64() * 1e3)
}

/// [`emit`] for scenario benches: also prints the resource snapshots and
/// records them on the figure.
fn emit_scenario(
    report: &mut Vec<FigureReport>,
    name: &str,
    title: &str,
    x_label: &str,
    (series, samples, wall_clock_ms): (Vec<Series>, Vec<ResourceSample>, f64),
) {
    print_figure(title, x_label, &series);
    if !samples.is_empty() {
        println!("{:>12} | {:>14} | {:>13}", x_label, "rss", "live segments");
        for s in &samples {
            let rss = match s.rss_bytes {
                Some(b) => format!("{} kB", b / 1024),
                None => "-".to_string(),
            };
            println!("{:>12} | {:>14} | {:>13}", s.x, rss, s.live_segments);
        }
    }
    report.push(FigureReport {
        name: name.to_string(),
        title: title.to_string(),
        x_label: x_label.to_string(),
        wall_clock_ms,
        series,
        samples,
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
            "s1" => emit_scenario(
                &mut figures,
                "scn_contended",
                "Scenario: contended acquire, single-queue vs sharded (P = ceil(T/2))",
                "threads",
                timed_scenario(|| scenarios::contended(scale, threads, repeats)),
            ),
            "s2" => emit_scenario(
                &mut figures,
                "scn_open_loop",
                "Scenario: open-loop arrivals with load shedding (ns/arrival incl. idle)",
                "threads",
                timed_scenario(|| scenarios::open_loop(scale, threads, repeats)),
            ),
            "s3" => emit_scenario(
                &mut figures,
                "scn_burst",
                "Scenario: bursty fan-out, suspend+wake cycle (ns/waiter)",
                "burst size",
                timed_scenario(|| scenarios::burst(scale, repeats)),
            ),
            "s4" => emit_scenario(
                &mut figures,
                "scn_ramp",
                "Scenario: live-waiter ramp with RSS/segment snapshots (x=0: after cancel)",
                "live waiters",
                timed_scenario(|| scenarios::ramp(scale)),
            ),
            "s5" => emit_scenario(
                &mut figures,
                "scn_soak",
                "Scenario: steady-state soak with periodic resource snapshots",
                "ms elapsed",
                timed_scenario(|| scenarios::soak(scale, threads)),
            ),
            other => eprintln!("unknown figure {other}"),
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

    if let Some(path) = &options.baseline {
        let text =
            std::fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"));
        let baseline =
            Json::parse(&text).unwrap_or_else(|e| panic!("{path} is not valid JSON: {e}"));
        let current = Json::parse(&report.to_json()).expect("self-emitted JSON must parse");
        let regressions = compare_to_baseline(&current, &baseline, options.regression_pct);
        if regressions.is_empty() {
            println!(
                "no median regressions above {:.1}% against {path}",
                options.regression_pct
            );
        } else {
            eprintln!(
                "\n{} median regression(s) above {:.1}% against {path}:",
                regressions.len(),
                options.regression_pct
            );
            for r in &regressions {
                eprintln!(
                    "  {} / {} @ x={}: {:.0} ns -> {:.0} ns (+{:.1}%)",
                    r.figure, r.series, r.x, r.baseline_ns, r.current_ns, r.pct
                );
            }
            std::process::exit(1);
        }
    }
}
