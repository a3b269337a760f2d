//! `--noise K`: the benchmark's self-check. Runs every workload 2·K times
//! as child processes — sets A and B alternating, a fresh seed each run, as
//! the driver does — and prints per workload × metric the two set medians,
//! their quartile spreads, the spread of all 2·K values pooled, and the gap
//! between the sets, next to the metric's bound. The same code measured
//! twice must agree with itself before it can gate anything else.

use std::process::Command;

use crate::hist::quartiles;
use crate::END_TO_END;

/// Pulls `"name": {"value": X` out of a result line.
fn metric(line: &str, name: &str) -> Option<f64> {
    let key = format!("\"{name}\": {{\"value\": ");
    let rest = &line[line.find(&key)? + key.len()..];
    rest[..rest.find(',')?].parse().ok()
}

/// One end-to-end run of one workload in a child process.
fn child(workload: &str, seed: u64, seconds: f64) -> Option<Vec<f64>> {
    let exe = std::env::current_exe().ok()?;
    let out = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .output()
        .ok()?;
    let stdout = String::from_utf8(out.stdout).ok()?;
    let line = stdout.lines().last()?;
    if !out.status.success() || !line.contains("\"correct\": true") {
        let stderr = String::from_utf8_lossy(&out.stderr);
        eprintln!("{workload} seed {seed} failed:\n{stdout}\n{stderr}");
        return None;
    }
    END_TO_END
        .iter()
        .map(|(name, ..)| metric(line, name))
        .collect()
}

pub fn run(k: usize, workloads: &[&str], seed: u64, seconds: f64) -> bool {
    // sets[set][workload][metric] -> the K values
    let mut sets = vec![vec![vec![Vec::new(); END_TO_END.len()]; workloads.len()]; 2];
    for round in 0..k {
        for set in 0..2 {
            for (w, workload) in workloads.iter().enumerate() {
                let seed = seed + (2 * round + set) as u64;
                eprintln!(
                    "noise: round {}/{k} set {} {workload} seed {seed}",
                    round + 1,
                    ["A", "B"][set]
                );
                let Some(values) = child(workload, seed, seconds) else {
                    return false;
                };
                for (m, value) in values.into_iter().enumerate() {
                    sets[set][w][m].push(value);
                }
            }
        }
    }

    println!(
        "# Noise self-check: K = {k} runs per set, {seconds} s measured per run, seeds from {seed}"
    );
    println!();
    println!("Sets A and B are the same code, run alternately. `spread` is (q3 − q1) / median");
    println!("of a set's K values, `pooled` the same over all 2·K values — the ten runs the");
    println!("driver takes when K = 5 — and `gap` how much worse B's median is than A's");
    println!("(negative: better). A cell is `ok` if the pooled spread and the gap stay within");
    println!("half the bound, `over half` if within the bound, `OUTSIDE` otherwise; `setup_s`");
    println!("is judged on its gap alone.");
    println!();
    println!("| workload | metric | A median [q1, q3] | B median [q1, q3] | spread A | spread B | pooled | gap | bound | verdict |");
    println!("|---|---|---|---|---|---|---|---|---|---|");
    let mut ok = true;
    for (w, workload) in workloads.iter().enumerate() {
        for (m, (name, _, better, bound)) in END_TO_END.iter().enumerate() {
            let [a, b] = [0, 1].map(|set| quartiles(&sets[set][w][m]));
            let both = quartiles(&[sets[0][w][m].as_slice(), sets[1][w][m].as_slice()].concat());
            let spread = |q: [f64; 3]| (q[2] - q[0]) / q[1];
            let worse = if *better == "lower" {
                b[1] - a[1]
            } else {
                a[1] - b[1]
            };
            let gap = worse / a[1];
            let pooled = if *name == "setup_s" {
                0.0
            } else {
                spread(both)
            };
            let verdict = if gap > *bound || pooled > *bound {
                ok = false;
                "OUTSIDE"
            } else if gap.abs() > bound / 2.0 || pooled > bound / 2.0 {
                "over half"
            } else {
                "ok"
            };
            println!(
                "| {workload} | {name} | {:.5} [{:.5}, {:.5}] | {:.5} [{:.5}, {:.5}] | {:.2}% | {:.2}% | {:.2}% | {:+.2}% | {:.0}% | {verdict} |",
                a[1], a[0], a[2], b[1], b[0], b[2],
                spread(a) * 100.0, spread(b) * 100.0, spread(both) * 100.0, gap * 100.0, bound * 100.0,
            );
        }
    }
    ok
}
