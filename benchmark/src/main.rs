//! The repo's benchmark: four deterministic workloads, six end-to-end
//! metrics, a per-layer ladder and span trace, and a noise self-check.
//! README.md has the definitions; BENCHMARK.json the contract.

mod alloc;
mod exec;
mod hist;
mod ladder;
mod noise;
mod pipeline;
mod tasks;
mod trace;
mod uncontended;
mod workload;

use std::time::Instant;

use hist::median;
use trace::{Name, Report};
use workload::{timing, Params, Run, COUNT_WINDOWS, WORKLOADS};

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// The end-to-end metrics: name, unit, direction, and the share of the
/// parent's median by which a change may worsen it (BENCHMARK.json carries
/// the same table; `tests/contract.rs` keeps the two in step).
///
/// `mem_peak_mib` is measured and printed with them but not gated: see
/// README, "Why memory is not an end-to-end metric yet".
pub const END_TO_END: [(&str, &str, &str, f64); 5] = [
    ("setup_s", "s", "lower", 0.10),
    ("throughput_ops_s", "ops/s", "higher", 0.10),
    ("latency_p50_us", "us", "lower", 0.10),
    ("latency_p99_us", "us", "lower", 0.10),
    ("allocs_per_op", "count", "lower", 0.05),
];

const MIB: f64 = 1024.0 * 1024.0;

/// Set-ups per end-to-end run; `setup_s` is their median.
const SETUPS: usize = 5;

const USAGE: &str =
    "usage: cqs-benchmark [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]] [--noise K]
  --workload  uncontended | handoff | abort-storm | pipeline (default: all four)
  --seed      seeds the generated inputs (default 1)
  --seconds   measured time per workload (default 15)
  --trace     1: the per-layer run (ladder + span trace, writes out/trace.json)
  --noise     run the whole benchmark 2*K times, alternating sets A and B,
              and print how far the two sets disagree next to each bound";

struct Args {
    workloads: Vec<&'static str>,
    seed: u64,
    seconds: f64,
    trace: bool,
    noise: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workloads: WORKLOADS.to_vec(),
        seed: 1,
        seconds: 15.0,
        trace: false,
        noise: None,
    };
    let mut argv = std::env::args().skip(1).peekable();
    while let Some(flag) = argv.next() {
        let mut value = |what: &str| argv.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                let known = WORKLOADS.iter().find(|w| **w == name);
                args.workloads = vec![known.ok_or(format!("unknown workload {name}"))?];
            }
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 120.0) {
                    return Err("--seconds must be in (0, 120]".into());
                }
            }
            "--trace" => {
                // A bare `--trace` means on; the driver passes 0 or 1.
                args.trace = match argv.next_if(|v| v == "0" || v == "1") {
                    Some(v) => v == "1",
                    None => true,
                };
            }
            "--noise" => {
                let k: usize = value("a count")?
                    .parse()
                    .map_err(|e| format!("--noise: {e}"))?;
                if !(2..=50).contains(&k) {
                    return Err("--noise must be in 2..=50".into());
                }
                args.noise = Some(k);
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

/// Address space (not memory) reserved for the stack of the thread a
/// workload runs on. Dropping a queue frees its segment chain recursively,
/// and after a long `abort-storm` that chain is the ≈10⁵ segments its leak
/// has kept alive (README, "Why memory is not an end-to-end metric yet"):
/// tear-down overflows the default 8 MiB.
const WORKLOAD_STACK: usize = 1 << 30;

fn run_workload(name: &str, p: &Params, t0: Instant) -> Run {
    let workload = || match name {
        "uncontended" => uncontended::run(p, t0),
        "handoff" => tasks::run(p, false, t0),
        "abort-storm" => tasks::run(p, true, t0),
        "pipeline" => pipeline::run(p, pipeline::CLOSED_LOOP, t0),
        _ => unreachable!("workload names are validated at parse time"),
    };
    std::thread::scope(|scope| {
        std::thread::Builder::new()
            .stack_size(WORKLOAD_STACK)
            .spawn_scoped(scope, workload)
            .expect("the workload thread starts")
            .join()
            .expect("the workload panicked")
    })
}

/// One result line: the JSON object the driver reads.
fn result_line(attempted: u64, failed: u64, metrics: &[(String, f64, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        body.join(", ")
    )
}

/// The untraced run of one workload: every end-to-end metric.
fn end_to_end(name: &str, args: &Args) -> (String, bool) {
    let t0 = Instant::now();
    // The measured run comes first, on a heap nothing else has touched;
    // the remaining set-ups only contribute their duration.
    let run = run_workload(
        name,
        &Params {
            seed: args.seed,
            seconds: args.seconds,
            min_windows: COUNT_WINDOWS,
            traced: false,
        },
        t0,
    );
    let mut setups = vec![run.setup_s];
    let mut failed = run.failed;
    for _ in 1..SETUPS {
        let setup_only = Params {
            seed: args.seed,
            seconds: 0.0,
            min_windows: 0,
            traced: false,
        };
        let again = run_workload(name, &setup_only, t0);
        setups.push(again.setup_s);
        failed += again.failed;
    }
    let t = timing(&run);
    let values = [
        median(&setups),
        t.throughput_ops_s,
        t.latency_p50_us,
        t.latency_p99_us,
        run.allocs_per_op,
    ];

    println!(
        "== {name} (seed {}, {} windows, {} latency samples, {:.0}% of slices quiet)",
        args.seed,
        run.windows.len(),
        t.samples,
        t.quiet_share * 100.0
    );
    for ((metric, unit, better, bound), value) in END_TO_END.iter().zip(values) {
        println!(
            "  {metric:<18} {value:>16.6} {unit:<6} ({better} is better, bound {:.0}%)",
            bound * 100.0
        );
    }
    println!(
        "  {:<18} {:>16.6} {:<6} (not gated)",
        "mem_peak_mib",
        run.mem_peak_bytes as f64 / MIB,
        "MiB"
    );
    println!(
        "  operations: {} attempted, {failed} failed, {} aborted (an outcome, not a failure)",
        run.attempted, run.aborted
    );
    let metrics: Vec<(String, f64, &str)> = END_TO_END
        .iter()
        .zip(values)
        .map(|((metric, unit, ..), value)| (metric.to_string(), value, *unit))
        .collect();
    (result_line(run.attempted, failed, &metrics), failed == 0)
}

/// The traced run: ladder, then every workload once untraced and once
/// traced, then the open-loop diagnostic. Per-layer numbers only — the
/// end-to-end metrics never come from here.
fn traced(args: &Args) -> bool {
    let t0 = Instant::now();
    let rungs: Vec<(String, f64, &str)> = ladder::run(args.seed)
        .into_iter()
        .map(|r| (r.name.to_string(), r.value, r.unit))
        .collect();
    println!("== ladder: median of 41 batches of 1000 calls, one thread");
    for (name, value, unit) in &rungs {
        println!("  {name:<32} {value:>12.3} {unit}");
    }

    // Each workload gets an eighth of the time untraced and an eighth
    // traced; the untraced half also completes the counted prefix.
    let params = |traced| Params {
        seed: args.seed,
        seconds: args.seconds / 8.0,
        min_windows: if traced { 2 } else { COUNT_WINDOWS },
        traced,
    };
    let (mut attempted, mut failed) = (0, 0);
    let mut layers: Vec<(String, f64, &str)> = Vec::new();
    let mut overhead = Vec::new();
    let mut quiet = Vec::new();
    let mut reports = Vec::new();
    for name in WORKLOADS {
        let plain = run_workload(name, &params(false), t0);
        let spans = run_workload(name, &params(true), t0);
        attempted += plain.attempted + spans.attempted;
        failed += plain.failed + spans.failed;
        let plain_timing = timing(&plain);
        let plain_rate = plain_timing.throughput_ops_s;
        overhead.push((name, 1.0 - timing(&spans).throughput_ops_s / plain_rate));
        quiet.push(plain_timing.quiet_share);
        let report = Report::build(spans.tracers);
        report.print(name);

        let x = plain.extras;
        layers.push((
            format!("mem.peak_mib.{name}"),
            plain.mem_peak_bytes as f64 / MIB,
            "MiB",
        ));
        match name {
            "handoff" => layers.push(("fairness.p99_over_p50".into(), x.fairness, "ratio")),
            "abort-storm" => {
                layers.push((
                    "reclaim.retired_peak".into(),
                    x.retired_peak as f64,
                    "bytes",
                ));
                layers.push((
                    "core.live_segments_peak".into(),
                    x.live_segments_peak as f64,
                    "count",
                ));
            }
            "pipeline" => {
                layers.push(("sync.suspend_share".into(), x.suspend_share, "ratio"));
                for (metric, span) in [
                    ("pipeline.admission_us", Name::Admission),
                    ("pipeline.checkout_us", Name::Checkout),
                    ("pipeline.send_us", Name::Send),
                    ("pipeline.service_us", Name::Service),
                    ("pipeline.return_us", Name::Return),
                ] {
                    let p50 = report.row(span).map_or(0.0, |r| r.p50_ns);
                    layers.push((metric.into(), p50 / 1e3, "us"));
                }
                // The request's self time: queued in the channel behind
                // the requests B has yet to serve.
                let own = report.row(Name::Request).map_or(0.0, |r| r.self_p50_ns);
                layers.push(("pipeline.queue_wake_us".into(), own / 1e3, "us"));

                // Open loop at half the closed-loop rate, one second's worth.
                let rate = plain_rate / 2.0;
                let shape = pipeline::Shape {
                    warmup_slices: 4,
                    window_slices: rate as u64 / 512,
                    period_ns: Some((1e9 / rate) as u64),
                };
                let once = Params {
                    seed: args.seed,
                    seconds: 0.0,
                    min_windows: 1,
                    traced: false,
                };
                let open = pipeline::run(&once, shape, t0);
                attempted += open.attempted;
                failed += open.failed;
                layers.push((
                    "pipeline.openloop_p50_us".into(),
                    open.extras.open_p50_ns / 1e3,
                    "us",
                ));
                layers.push((
                    "pipeline.openloop_late_p99_us".into(),
                    open.extras.open_late_p99_ns / 1e3,
                    "us",
                ));
            }
            _ => {}
        }
        reports.push((name, report));
    }
    layers.push(("host.quiet_share".into(), median(&quiet), "ratio"));

    let dir =
        std::env::var("CARGO_MANIFEST_DIR").unwrap_or_else(|_| env!("CARGO_MANIFEST_DIR").into());
    let path = std::path::Path::new(&dir).join("out").join("trace.json");
    let runs: Vec<(&str, &Report)> = reports.iter().map(|(n, r)| (*n, r)).collect();
    match trace::write_json(&path, &runs) {
        Ok(()) => println!("trace written to {}", path.display()),
        Err(e) => {
            eprintln!("cannot write {}: {e}", path.display());
            return false;
        }
    }

    println!("== per-layer metrics from the workloads");
    for (name, value, unit) in &layers {
        println!("  {name:<32} {value:>12.3} {unit}");
    }
    println!("== tracing overhead: 1 - traced / untraced throughput_ops_s");
    for (name, share) in &overhead {
        println!("  trace.overhead_share on {name:<11} {share:>9.4} ratio");
    }
    println!("  operations: {attempted} attempted, {failed} failed");
    for name in &args.workloads {
        let share = overhead
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0.0, |(_, s)| *s);
        let mut line = rungs.clone();
        line.extend(layers.iter().cloned());
        line.push(("trace.overhead_share".into(), share, "ratio"));
        println!("== {name} (per-layer)");
        println!("{}", result_line(attempted, failed, &line));
    }
    failed == 0
}

fn main() -> std::process::ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}\n{USAGE}");
            return std::process::ExitCode::from(2);
        }
    };
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "cqs-benchmark: {cores} vCPUs available; pipeline runs 2 threads, every other workload 1"
    );
    let ok = if let Some(k) = args.noise {
        noise::run(k, &args.workloads, args.seed, args.seconds)
    } else if args.trace {
        traced(&args)
    } else {
        let mut ok = true;
        for name in &args.workloads {
            let (line, correct) = end_to_end(name, &args);
            println!("{line}");
            ok &= correct;
        }
        ok
    };
    if ok {
        std::process::ExitCode::SUCCESS
    } else {
        std::process::ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::END_TO_END;

    /// BENCHMARK.json carries the end-to-end table a second time; the two
    /// must not drift apart.
    #[test]
    fn benchmark_json_lists_the_same_end_to_end_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json: String = std::fs::read_to_string(path)
            .expect("BENCHMARK.json")
            .split_whitespace()
            .collect();
        let from = json.find("\"end_to_end\"").expect("end_to_end");
        let section = &json[from..from + json[from..].find(']').expect("array end")];
        assert_eq!(section.matches("\"name\"").count(), END_TO_END.len());
        for (name, unit, better, bound) in END_TO_END {
            let entry = format!(
                "{{\"name\":\"{name}\",\"unit\":\"{unit}\",\"better\":\"{better}\",\"bound\":{bound}}}"
            );
            assert!(section.contains(&entry), "{entry} not in {section}");
        }
    }
}
