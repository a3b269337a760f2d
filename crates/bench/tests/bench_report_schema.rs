//! End-to-end schema check: a report assembled from *real* (tiny)
//! measurements — the same pipeline `figures --json` drives — must
//! round-trip through the hand-rolled JSON writer/parser and satisfy
//! `validate_report`: required fields present, thread counts strictly
//! increasing, every statistic a non-negative number of nanoseconds. The
//! committed `BENCH_figures.json` must satisfy the same validator and hold
//! every figure `figures --all` emits.

use cqs_bench::report::{validate_report, BenchReport, FigureReport, Json, RunMeta};
use cqs_bench::{measure_per_op_repeated, Repeats, Series};

/// A small but genuine benchmark run: two thread counts, a handful of
/// atomic increments per op, one warmup + two timed repeats per point.
fn fresh_report() -> BenchReport {
    use std::sync::atomic::{AtomicU64, Ordering};
    let threads = [1usize, 2];
    let repeats = Repeats::new(1, 2);
    let mut series = Series::new("atomic increments");
    for &n in &threads {
        let counter = AtomicU64::new(0);
        let per_thread = 200u64;
        let total = per_thread * n as u64;
        series.push(
            n as u64,
            measure_per_op_repeated(n, total, repeats, |_| {
                for _ in 0..per_thread {
                    counter.fetch_add(1, Ordering::Relaxed);
                }
            }),
        );
    }
    BenchReport {
        meta: RunMeta::current("quick", &threads, repeats),
        figures: vec![FigureReport {
            name: "schema_smoke".to_string(),
            title: "schema smoke figure".to_string(),
            x_label: "threads".to_string(),
            wall_clock_ms: 0.0,
            series: vec![series],
        }],
    }
}

#[test]
fn fresh_report_round_trips_and_validates() {
    let report = fresh_report();
    let text = report.to_json();
    let doc = Json::parse(&text).expect("self-emitted JSON must parse");
    let problems = validate_report(&doc);
    assert!(
        problems.is_empty(),
        "fresh report failed schema validation:\n{}",
        problems.join("\n")
    );
}

#[test]
fn fresh_report_has_required_fields_and_sane_numbers() {
    let report = fresh_report();
    let doc = Json::parse(&report.to_json()).unwrap();

    assert_eq!(
        doc.get("schema").and_then(Json::as_str),
        Some("cqs-bench/v1")
    );
    let meta = doc.get("meta").expect("meta object");
    for key in [
        "scale", "threads", "vcpus", "git_rev", "chaos", "stats", "warmup", "timed",
    ] {
        assert!(meta.get(key).is_some(), "meta.{key} missing");
    }
    assert_eq!(meta.get("scale").and_then(Json::as_str), Some("quick"));

    // Thread counts must come out strictly increasing.
    let threads: Vec<f64> = meta
        .get("threads")
        .and_then(Json::as_arr)
        .expect("meta.threads array")
        .iter()
        .map(|t| t.as_f64().expect("thread counts are numbers"))
        .collect();
    assert!(
        threads.windows(2).all(|w| w[0] < w[1]),
        "thread counts not strictly increasing: {threads:?}"
    );

    let figures = doc.get("figures").and_then(Json::as_arr).expect("figures");
    assert_eq!(figures.len(), 1);
    let points = figures[0]
        .get("series")
        .and_then(Json::as_arr)
        .expect("series")[0]
        .get("points")
        .and_then(Json::as_arr)
        .expect("points");
    assert_eq!(points.len(), 2, "one point per thread count");
    for point in points {
        for key in ["median_ns", "min_ns", "max_ns", "p95_ns"] {
            let v = point
                .get(key)
                .and_then(Json::as_f64)
                .unwrap_or_else(|| panic!("point.{key} missing or non-numeric"));
            assert!(
                v.is_finite() && v >= 0.0,
                "point.{key} = {v} is not a non-negative nanosecond count"
            );
        }
        let samples = point
            .get("samples_ns")
            .and_then(Json::as_arr)
            .expect("samples_ns array");
        assert_eq!(samples.len(), 2, "two timed repeats recorded");
        assert!(
            point.get("counters").is_some(),
            "per-point CqsStats block missing"
        );
    }
}

/// Every figure name `figures --all` writes, in order.
const ALL_FIGURES: [&str; 28] = [
    "fig5_work100",
    "fig5_work1000",
    "fig6_work50",
    "fig6_work200",
    "fig7_permits1",
    "fig7_permits4",
    "fig7_permits16",
    "fig8_elements1",
    "fig8_elements4",
    "fig8_elements16",
    "fig13_coroutines1000",
    "fig13_speedup_coroutines1000",
    "fig13_coroutines10000",
    "fig13_speedup_coroutines10000",
    "fig14_permits2",
    "fig14_permits8",
    "fig14_permits32",
    "fig14_permits64",
    "fig15_elements2",
    "fig15_elements8",
    "fig15_elements32",
    "fig15_elements64",
    "fig_channel_cap4",
    "fig_channel_cap16",
    "sh_contended",
    "a1_cancellation",
    "a2_segment_size",
    "a3_batch_resume",
];

#[test]
fn committed_report_validates_and_holds_every_figure() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_figures.json");
    let text = std::fs::read_to_string(path).expect("BENCH_figures.json is committed");
    let doc = Json::parse(&text).expect("BENCH_figures.json is valid JSON");
    let problems = validate_report(&doc);
    assert!(problems.is_empty(), "{}", problems.join("\n"));

    let meta = doc.get("meta").expect("meta object");
    assert_eq!(meta.get("scale").and_then(Json::as_str), Some("full"));
    assert_eq!(meta.get("stats").and_then(Json::as_bool), Some(false));
    assert_eq!(meta.get("chaos").and_then(Json::as_bool), Some(false));
    let names: Vec<&str> = doc
        .get("figures")
        .and_then(Json::as_arr)
        .expect("figures")
        .iter()
        .map(|f| f.get("name").and_then(Json::as_str).expect("figure name"))
        .collect();
    assert_eq!(names, ALL_FIGURES);
}
