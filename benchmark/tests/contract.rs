//! Runs the built benchmark and checks what BENCHMARK.json and the README
//! promise about it: same seed ⇒ same counts, a different seed ⇒ different
//! inputs, and runs that report exactly the metrics BENCHMARK.json lists.
//! Only counts and names are checked, never a time, so the tests may share
//! the machine with each other.

use std::path::Path;
use std::process::Command;

/// Standard output of one successful, correct run.
fn run(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_cqs-benchmark"))
        .args(args)
        .output()
        .expect("the benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(out.status.success(), "{args:?} failed:\n{stdout}");
    let result = stdout.lines().last().expect("a result line");
    assert!(result.contains("\"correct\": true, "), "{result}");
    stdout
}

/// `"name": {"value": X` from the result line, as text so that comparisons
/// are bit-exact.
fn metric<'a>(stdout: &'a str, name: &str) -> &'a str {
    let line = stdout.lines().last().expect("a result line");
    let key = format!("\"{name}\": {{\"value\": ");
    let at = line
        .find(&key)
        .unwrap_or_else(|| panic!("{name} missing in {line}"));
    let rest = &line[at + key.len()..];
    &rest[..rest.find(',').expect("a unit follows the value")]
}

/// `allocs_per_op` from the result line and `mem_peak_mib` from the report
/// above it (measured, but not a gated metric).
fn counts(workload: &str, seed: &str) -> (String, String) {
    let stdout = run(&["--workload", workload, "--seed", seed, "--seconds", "1"]);
    let mem_peak = stdout
        .lines()
        .find_map(|l| l.trim_start().strip_prefix("mem_peak_mib"))
        .and_then(|rest| rest.split_whitespace().next())
        .expect("a mem_peak_mib line");
    (
        metric(&stdout, "allocs_per_op").to_string(),
        mem_peak.to_string(),
    )
}

#[test]
fn same_seed_gives_bit_identical_counts_on_the_single_carrier_workloads() {
    for workload in ["uncontended", "handoff", "abort-storm"] {
        assert_eq!(counts(workload, "1"), counts(workload, "1"), "{workload}");
    }
}

#[test]
fn the_seed_drives_the_inputs() {
    let (allocs_1, mem_1) = counts("abort-storm", "1");
    let (allocs_2, mem_2) = counts("abort-storm", "2");
    assert_ne!(allocs_1, allocs_2);
    assert_ne!(mem_1, mem_2);
}

/// Every `"name": "…"` inside the `key` array of BENCHMARK.json.
fn listed(key: &str) -> Vec<String> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json");
    let from = json.find(&format!("\"{key}\"")).expect(key);
    let section = &json[from..from + json[from..].find(']').expect("array end")];
    section
        .split("\"name\": \"")
        .skip(1)
        .map(|rest| rest[..rest.find('"').expect("closing quote")].to_string())
        .collect()
}

/// The result line carries every listed metric, finite, and no other.
fn reports_exactly(stdout: &str, wanted: &[String]) {
    for name in wanted {
        let value: f64 = metric(stdout, name).parse().expect("a number");
        assert!(value.is_finite(), "{name} = {value}");
    }
    let reported = stdout
        .lines()
        .last()
        .unwrap()
        .matches("{\"value\": ")
        .count();
    assert_eq!(reported, wanted.len());
}

#[test]
fn an_end_to_end_run_reports_exactly_the_end_to_end_metrics() {
    let stdout = run(&[
        "--workload",
        "pipeline",
        "--seed",
        "3",
        "--seconds",
        "1",
        "--trace",
        "0",
    ]);
    let wanted = listed("end_to_end");
    assert_eq!(wanted.len(), 5);
    reports_exactly(&stdout, &wanted);
    for name in &wanted {
        assert!(
            metric(&stdout, name).parse::<f64>().unwrap() > 0.0,
            "{name} must never be 0"
        );
    }
}

#[test]
fn a_traced_run_reports_exactly_the_per_layer_metrics_and_writes_the_trace() {
    let stdout = run(&[
        "--workload",
        "handoff",
        "--seed",
        "1",
        "--seconds",
        "2",
        "--trace",
        "1",
    ]);
    let wanted = listed("per_layer");
    assert!(wanted.len() > 30, "per_layer list looks truncated");
    reports_exactly(&stdout, &wanted);
    let trace = Path::new(env!("CARGO_MANIFEST_DIR")).join("out/trace.json");
    let trace = std::fs::read_to_string(trace).expect("out/trace.json");
    for span in ["Semaphore::acquire", "pipeline.request", "mass_abort"] {
        assert!(trace.contains(&format!("\"name\": \"{span}\"")), "{span}");
    }
}
