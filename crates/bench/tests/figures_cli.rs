//! The `figures` binary rejects what it cannot measure: an unknown figure
//! id or ablation name exits non-zero before any figure runs, and no report
//! is written.

use std::process::Command;

fn rejects(selection: [&str; 2], message: &str) {
    let json = std::env::temp_dir().join(format!("figures_cli_{}.json", selection[1]));
    let _ = std::fs::remove_file(&json);
    let out = Command::new(env!("CARGO_BIN_EXE_figures"))
        .args(["--quick", "--threads", "1"])
        .args(selection)
        .arg("--json")
        .arg(&json)
        .output()
        .expect("figures runs");
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains(message),
        "{out:?}"
    );
    assert!(out.stdout.is_empty(), "nothing may be measured: {out:?}");
    assert!(!json.exists(), "no report may be written");
}

#[test]
fn unknown_figure_exits_non_zero() {
    rejects(["--fig", "99"], "unknown figure 99");
}

#[test]
fn unknown_ablation_exits_non_zero() {
    rejects(["--ablation", "reclaim"], "unknown ablation reclaim");
}
