//! The chaos label registry and the failing-seed decision trace (run
//! with `--features chaos`).
//!
//! `cqs_chaos::KNOWN_LABELS` is the frozen inventory of every labelled
//! race window in the workspace — the explorer's schedule points and the
//! storms' perturbation sites. These tests pin the registry's contract:
//! the table stays sorted and duplicate-free (so labels are stable
//! identifiers for traces and docs), every label that actually fires at
//! runtime is in the table, and a representative workload lights up
//! windows across the whole stack. The trace test covers the
//! failing-seed replay satellite: with a trace path configured (or
//! `CQS_CHAOS_TRACE` set), the per-label scheduling decisions are dumped
//! for post-mortem replay.

#![cfg(feature = "chaos")]

use std::collections::HashSet;
use std::sync::{Arc, Mutex as StdMutex, OnceLock};

use cqs::{Cqs, CqsChannel, CqsConfig, Semaphore, SimpleCancellation};

/// Chaos state is process-global; serialize (CI also uses
/// `--test-threads=1`).
fn serial() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: OnceLock<StdMutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| StdMutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

/// A workload touching every subsystem with labelled windows: suspension,
/// resumption, elimination, cancellation, batching, closing, segments.
fn representative_workload() {
    let s = Arc::new(Semaphore::new(1));
    s.acquire().wait().unwrap();
    let waiter = s.acquire();
    let aborted = s.acquire();
    assert!(aborted.cancel());
    s.release();
    waiter.wait().unwrap();
    s.release();

    let cqs: Cqs<u64, SimpleCancellation> =
        Cqs::new(CqsConfig::new().segment_size(2), SimpleCancellation);
    let fs: Vec<_> = (0..4).map(|_| cqs.suspend().expect_future()).collect();
    assert!(fs[1].cancel());
    let _failed = cqs.resume_n(0..3, 3);
    cqs.resume_all(9);
    cqs.close();
    drop(fs);

    // Channel windows: buffered send, waiting send admitted by the
    // buffer end, direct handoff to a waiting receiver, close sweep.
    let ch = CqsChannel::bounded(1);
    ch.send(1u64).wait().unwrap();
    let blocked = ch.send(2);
    assert!(!blocked.is_immediate());
    assert_eq!(ch.receive().wait(), Ok(1));
    blocked.wait().unwrap();
    assert_eq!(ch.receive().wait(), Ok(2));
    let pending = ch.receive();
    ch.send(3).wait().unwrap();
    assert_eq!(pending.wait(), Ok(3));
    ch.send(4).wait().unwrap();
    assert_eq!(ch.close(), vec![4]);
}

/// The frozen label table is sorted and duplicate-free — labels are
/// stable identifiers, so the table doubles as the documentation index
/// of every race window in the stack.
#[test]
fn known_label_table_is_sorted_and_unique() {
    let table = cqs_chaos::KNOWN_LABELS;
    assert!(!table.is_empty());
    for pair in table.windows(2) {
        assert!(
            pair[0] < pair[1],
            "KNOWN_LABELS must stay sorted and unique: {:?} >= {:?}",
            pair[0],
            pair[1]
        );
    }
}

/// Every label that fires at runtime is registered in `KNOWN_LABELS` —
/// adding an `inject!` site without extending the table is an error this
/// test catches — and the representative workload lights up windows in
/// several subsystems.
#[test]
fn fired_labels_are_known_and_span_the_stack() {
    let _serial = serial();
    cqs_chaos::set_seed(7);
    representative_workload();
    let fired = cqs_chaos::labels();
    cqs_chaos::disable();

    assert!(!fired.is_empty(), "the workload must hit labelled windows");
    let known: HashSet<&str> = cqs_chaos::KNOWN_LABELS.iter().copied().collect();
    for label in &fired {
        assert!(
            known.contains(label),
            "label {label:?} fired at runtime but is missing from KNOWN_LABELS \
             (crates/chaos/src/lib.rs)"
        );
    }
    for prefix in ["cqs.", "cell.", "channel.", "future."] {
        assert!(
            fired.iter().any(|l| l.starts_with(prefix)),
            "no {prefix}* window fired; got {fired:?}"
        );
    }
}

/// The failing-seed replay satellite: with a trace path configured the
/// per-label scheduling decisions (pass/spin/yield/sleep and scheduler
/// handoffs) are recorded and can be dumped for post-mortem analysis.
/// `CQS_CHAOS_TRACE=<path>` wires the same mechanism through the
/// environment and a panic hook dumps automatically on failure.
#[test]
fn trace_path_records_and_dumps_decisions() {
    let _serial = serial();
    // Keep the artifact inside the workspace (tests run with the package
    // root as the working directory).
    let path = std::path::PathBuf::from("target/chaos-trace-test.log");
    let _ = std::fs::remove_file(&path);

    cqs_chaos::set_trace_path(Some(path.clone()));
    cqs_chaos::set_seed(11);
    representative_workload();
    let decisions = cqs_chaos::trace_decision_count();
    assert!(decisions > 0, "a seeded workload must record decisions");

    let dumped = cqs_chaos::dump_trace().expect("a trace path is configured");
    assert_eq!(dumped, path);
    cqs_chaos::set_trace_path(None);
    cqs_chaos::disable();

    let text = std::fs::read_to_string(&path).expect("trace file must exist");
    // Data lines are `t<thread> <label> <action>[(param)]`; `#` lines are
    // the header.
    let data: Vec<&str> = text.lines().filter(|l| !l.starts_with('#')).collect();
    assert!(
        !data.is_empty() && data.len() as u64 <= decisions,
        "trace dump must hold the recorded decisions (ring-capped): \
         {} lines for {decisions} decisions",
        data.len()
    );
    let known: HashSet<&str> = cqs_chaos::KNOWN_LABELS.iter().copied().collect();
    for line in data.iter().take(50) {
        let label = line.split_whitespace().nth(1).unwrap_or("");
        assert!(
            known.contains(label),
            "trace line does not name a known label: {line:?}"
        );
    }
    let _ = std::fs::remove_file(&path);
}
