//! End-to-end tests for the `watch` runtime-health subsystem (run with
//! `--features watch`): real primitives publish waiter/holder records, the
//! watchdog detects a genuine ABBA deadlock through wait-graph cycle
//! analysis, reports it as structured JSON, and — under the eviction
//! policy — recovers by cancelling exactly one waiter through the ordinary
//! CQS cancellation path while the surviving thread proceeds.

#![cfg(feature = "watch")]

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier as StdBarrier, Mutex as StdMutex};
use std::time::{Duration, Instant};

use cqs::watch::{ReportKind, Scanner, WatchConfig, WatchPolicy, Watchdog};
use cqs::{CqsChannel, LockError, Mutex, Semaphore};
use cqs_harness::report::Json;

/// What the sink keeps of each report: kind, evicted generations, JSON.
type SunkReport = (ReportKind, Vec<u64>, String);

/// The flagship recovery scenario: two mutexes, two threads, opposite
/// acquisition order. The watchdog must (1) see the wait-for cycle, (2)
/// report it as JSON naming both edges, and (3) evict exactly one waiter —
/// which observes `LockError::Cancelled`, releases its first lock, and
/// thereby lets the other thread finish normally.
#[test]
fn watchdog_recovers_deadlock() {
    let a = Arc::new(Mutex::new(0u32));
    let b = Arc::new(Mutex::new(0u32));
    let a_id = a.watch_id();
    let b_id = b.watch_id();

    let reports: Arc<StdMutex<Vec<SunkReport>>> = Arc::new(StdMutex::new(Vec::new()));
    let sink_reports = Arc::clone(&reports);
    let watchdog = Watchdog::spawn(
        WatchConfig::new()
            // High stall threshold / deadline so the only trigger in this
            // test is the confirmed cycle, not age-based eviction (and so
            // waiters of concurrently running tests are never touched).
            .stall_threshold(Duration::from_secs(30))
            .scan_interval(Duration::from_millis(10))
            .policy(WatchPolicy::Evict {
                deadline: Duration::from_secs(120),
            }),
        move |report| {
            sink_reports.lock().unwrap().push((
                report.kind,
                report.evicted.clone(),
                report.to_json(),
            ));
        },
    );

    // Classic ABBA: both threads take their first lock, rendezvous, then
    // block forever on each other's lock — until the watchdog intervenes.
    let rendezvous = Arc::new(StdBarrier::new(2));
    let spawn_party = |first: Arc<Mutex<u32>>, second: Arc<Mutex<u32>>| {
        let rendezvous = Arc::clone(&rendezvous);
        std::thread::spawn(move || {
            let outer = first.lock().unwrap();
            rendezvous.wait();
            match second.lock() {
                Ok(inner) => {
                    drop(inner);
                    drop(outer);
                    "completed"
                }
                Err(LockError::Cancelled) => {
                    // Evicted by the watchdog: back out so the peer can go.
                    drop(outer);
                    "evicted"
                }
                Err(e) => panic!("unexpected lock failure: {e:?}"),
            }
        })
    };
    let t1 = spawn_party(Arc::clone(&a), Arc::clone(&b));
    let t2 = spawn_party(Arc::clone(&b), Arc::clone(&a));

    let mut outcomes = vec![t1.join().unwrap(), t2.join().unwrap()];
    outcomes.sort_unstable();
    assert_eq!(
        outcomes,
        ["completed", "evicted"],
        "exactly one waiter must be sacrificed and the other must proceed"
    );
    watchdog.stop();

    // Both locks must be healthy after recovery.
    drop(a.lock().unwrap());
    drop(b.lock().unwrap());

    let reports = reports.lock().unwrap();
    let deadlocks: Vec<_> = reports
        .iter()
        .filter(|(kind, _, _)| *kind == ReportKind::Deadlock)
        .collect();
    assert!(
        !deadlocks.is_empty(),
        "the cycle must be reported before it is resolved"
    );
    let evicted: Vec<u64> = deadlocks
        .iter()
        .flat_map(|(_, evicted, _)| evicted.iter().copied())
        .collect();
    assert_eq!(
        evicted.len(),
        1,
        "a two-thread cycle is broken by evicting exactly one waiter: {reports:?}"
    );

    // The structured report names both edges of the cycle.
    let (_, _, json) = deadlocks[0];
    let doc = Json::parse(json).expect("report must be valid JSON");
    assert_eq!(
        doc.get("schema").and_then(Json::as_str),
        Some("cqs-watch/v1")
    );
    assert_eq!(doc.get("kind").and_then(Json::as_str), Some("deadlock"));
    let cycle = doc
        .get("cycle")
        .and_then(Json::as_arr)
        .expect("deadlock report carries the cycle");
    assert_eq!(cycle.len(), 2, "an ABBA cycle has two edges: {json}");
    let mut wanted: Vec<u64> = cycle
        .iter()
        .map(|edge| edge.get("wants").and_then(Json::as_f64).unwrap() as u64)
        .collect();
    wanted.sort_unstable();
    let mut expected = vec![a_id, b_id];
    expected.sort_unstable();
    assert_eq!(wanted, expected, "cycle must name both mutexes: {json}");
    for edge in cycle {
        assert_eq!(
            edge.get("wants_label").and_then(Json::as_str),
            Some("mutex.lock")
        );
    }
}

/// Observe-only stall detection: a semaphore waiter that can never get a
/// permit is flagged past the threshold, with queue depth and the permit
/// gauge in the report — and the primitive recovers once the permit is
/// finally released.
#[test]
fn scanner_reports_semaphore_stall_and_recovers() {
    let sem = Arc::new(Semaphore::new(1));
    sem.acquire().wait().unwrap(); // hold the only permit

    // Create the scanner before the waiter exists so its generation filter
    // includes the waiter but excludes unrelated tests' earlier waiters.
    let mut scanner = Scanner::new(WatchConfig::new().stall_threshold(Duration::from_millis(50)));

    let sem2 = Arc::clone(&sem);
    let done = Arc::new(AtomicUsize::new(0));
    let done2 = Arc::clone(&done);
    let waiter = std::thread::spawn(move || {
        sem2.acquire().wait().unwrap();
        done2.store(1, Ordering::SeqCst);
        sem2.release();
    });

    let deadline = Instant::now() + Duration::from_secs(5);
    let stall = loop {
        assert!(Instant::now() < deadline, "stall never reported");
        std::thread::sleep(Duration::from_millis(20));
        let report = scanner
            .scan()
            .into_iter()
            .find(|r| r.kind == ReportKind::Stall);
        if let Some(report) = report {
            break report;
        }
    };

    assert!(
        stall.stalled.iter().any(|w| w.primitive == sem.watch_id()),
        "stall must name the semaphore's waiter: {stall:?}"
    );
    assert!(
        stall
            .queues
            .iter()
            .any(|q| q.primitive == sem.watch_id() && q.depth >= 1),
        "queue depth for the semaphore must be visible: {stall:?}"
    );
    assert!(
        stall
            .gauges
            .iter()
            .any(|g| g.primitive == sem.watch_id() && g.name == "state" && g.value == -1),
        "permit accounting gauge must show one waiter in debt: {stall:?}"
    );
    let doc = Json::parse(&stall.to_json()).expect("stall report must be valid JSON");
    assert_eq!(doc.get("kind").and_then(Json::as_str), Some("stall"));

    assert_eq!(done.load(Ordering::SeqCst), 0, "waiter must still be stuck");
    sem.release();
    waiter.join().unwrap();
    assert_eq!(done.load(Ordering::SeqCst), 1);
}

/// Deadline-based eviction end-to-end: a waiter stalled past the deadline
/// is cancelled through the CQS cancellation path — its blocking `wait`
/// returns `Cancelled` — and the semaphore's accounting stays intact.
#[test]
fn scanner_deadline_evicts_stalled_waiter() {
    let sem = Arc::new(Semaphore::new(1));
    sem.acquire().wait().unwrap();

    let mut scanner = Scanner::new(
        WatchConfig::new()
            .stall_threshold(Duration::from_millis(30))
            .policy(WatchPolicy::Evict {
                deadline: Duration::from_millis(80),
            }),
    );

    let sem2 = Arc::clone(&sem);
    let waiter = std::thread::spawn(move || sem2.acquire().wait());

    let deadline = Instant::now() + Duration::from_secs(5);
    let mut evicted = Vec::new();
    while evicted.is_empty() {
        assert!(Instant::now() < deadline, "waiter never evicted");
        std::thread::sleep(Duration::from_millis(20));
        for report in scanner.scan() {
            evicted.extend(report.evicted.iter().copied());
        }
    }
    assert_eq!(evicted.len(), 1, "exactly one waiter to evict");
    assert_eq!(
        waiter.join().unwrap(),
        Err(cqs::Cancelled),
        "the evicted waiter observes a plain cancellation"
    );

    // The permit held all along is still the only one: accounting survived.
    sem.release();
    sem.acquire().wait().unwrap();
    sem.release();
}

/// Channel waiters register under their channel's `watch_id`: a receive
/// waiting on an empty channel and a send waiting on a full one are live
/// waiters of their own channel until they are cancelled.
#[test]
fn channel_waiters_register_under_the_channel_id() {
    let empty: CqsChannel<u32> = CqsChannel::rendezvous();
    let full: CqsChannel<u32> = CqsChannel::bounded(1);
    full.send(1).wait().unwrap();
    let receive = empty.receive();
    let send = full.send(2);
    assert!(!receive.is_immediate() && !send.is_immediate());
    let waiting = |id: u64| {
        cqs::watch::live_waiters(0)
            .iter()
            .filter(|w| w.primitive == id && w.label == "channel")
            .count()
    };
    assert_eq!(waiting(empty.watch_id()), 1, "the waiting receive");
    assert_eq!(waiting(full.watch_id()), 1, "the waiting send");
    assert!(receive.cancel() && send.cancel());
    assert_eq!(waiting(empty.watch_id()) + waiting(full.watch_id()), 0);
}
