//! Memory-reclamation behaviour: values stored in the queue are dropped
//! exactly once, pools and queues do not leak elements under churn, and
//! dropping primitives with live waiters breaks all reference cycles.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use cqs::reclaim::{pin, AtomicArc, Collector};
use cqs::{Cqs, CqsConfig, QueuePool, Semaphore, SimpleCancellation, StackPool};

/// A value whose drops are counted.
#[derive(Debug)]
struct Tracked {
    drops: Arc<AtomicUsize>,
}

impl Tracked {
    fn new(drops: &Arc<AtomicUsize>) -> Self {
        Tracked {
            drops: Arc::clone(drops),
        }
    }
}

impl Drop for Tracked {
    fn drop(&mut self) {
        self.drops.fetch_add(1, Ordering::SeqCst);
    }
}

#[test]
fn values_passed_through_cqs_drop_exactly_once() {
    let drops = Arc::new(AtomicUsize::new(0));
    const N: usize = 100;
    {
        let cqs: Cqs<Tracked> = Cqs::new(CqsConfig::new().segment_size(4), SimpleCancellation);
        // Half delivered to waiters, half taken by elimination.
        let futures: Vec<_> = (0..N / 2).map(|_| cqs.suspend().expect_future()).collect();
        for _ in 0..N {
            cqs.resume(Tracked::new(&drops)).unwrap();
        }
        for f in futures {
            drop(f.wait().unwrap());
        }
        for _ in 0..N / 2 {
            drop(cqs.suspend().expect_future().wait().unwrap());
        }
    }
    assert_eq!(drops.load(Ordering::SeqCst), N);
}

#[test]
fn values_parked_in_cells_drop_with_the_queue() {
    let drops = Arc::new(AtomicUsize::new(0));
    {
        let cqs: Cqs<Tracked> = Cqs::new(CqsConfig::new().segment_size(4), SimpleCancellation);
        // Park values in cells with no suspender ever coming.
        for _ in 0..10 {
            cqs.resume(Tracked::new(&drops)).unwrap();
        }
        assert_eq!(drops.load(Ordering::SeqCst), 0, "values still parked");
    }
    // Link references displaced during teardown are epoch-deferred; drain
    // them to make the drops observable.
    assert!(cqs::reclaim::flush(), "epoch backlog stuck behind a pin");
    assert_eq!(
        drops.load(Ordering::SeqCst),
        10,
        "parked values must drop with the queue"
    );
}

#[test]
fn pool_elements_drop_exactly_once() {
    let drops = Arc::new(AtomicUsize::new(0));
    {
        let pool: QueuePool<Tracked> = QueuePool::new();
        for _ in 0..20 {
            pool.put(Tracked::new(&drops));
        }
        for _ in 0..10 {
            drop(pool.take().wait().unwrap());
        }
        // 10 taken and dropped; 10 still stored.
        assert_eq!(drops.load(Ordering::SeqCst), 10);
    }
    assert!(cqs::reclaim::flush(), "epoch backlog stuck behind a pin");
    assert_eq!(drops.load(Ordering::SeqCst), 20);
}

#[test]
fn stack_pool_elements_drop_exactly_once() {
    let drops = Arc::new(AtomicUsize::new(0));
    {
        let pool: StackPool<Tracked> = StackPool::new();
        for _ in 0..20 {
            pool.put(Tracked::new(&drops));
        }
        for _ in 0..7 {
            drop(pool.take().wait().unwrap());
        }
        assert_eq!(drops.load(Ordering::SeqCst), 7);
    }
    assert!(cqs::reclaim::flush(), "epoch backlog stuck behind a pin");
    assert_eq!(drops.load(Ordering::SeqCst), 20);
}

/// Dropping a CQS with pending waiters must break the
/// `segment -> request -> handler -> segment` cycles: the requests
/// themselves become the only owners and die with their futures.
#[test]
fn dropping_queue_with_waiters_releases_requests() {
    let cqs: Cqs<u64> = Cqs::new(CqsConfig::new().segment_size(2), SimpleCancellation);
    let futures: Vec<_> = (0..16).map(|_| cqs.suspend().expect_future()).collect();
    drop(cqs);
    for f in futures {
        // Cancelling against the dead queue is safe and the futures free
        // their segments when dropped here.
        let _ = f.cancel();
    }
}

/// Segment churn through a semaphore: millions of cells worth of segments
/// are created and released without exhausting memory (smoke test: RSS is
/// not measured, but the epoch collector must keep up without panicking).
#[test]
fn segment_churn_smoke() {
    let s = Arc::new(Semaphore::new(1));
    s.acquire().wait().unwrap();
    for _ in 0..50 {
        let futures: Vec<_> = (0..1_000).map(|_| s.acquire()).collect();
        for f in &futures {
            assert!(f.cancel());
        }
    }
    s.release();
    assert_eq!(s.available_permits(), 1);
}

/// The raw AtomicArc cell releases every displaced reference (already unit
/// tested in cqs-reclaim; this exercises it through the public facade).
#[test]
fn atomic_arc_roundtrip_via_facade() {
    let collector = Collector::new();
    let drops = Arc::new(AtomicUsize::new(0));
    {
        let handle = collector.register();
        let cell = AtomicArc::new(Some(Arc::new(Tracked::new(&drops))));
        for _ in 0..100 {
            let guard = handle.pin();
            cell.store(Some(Arc::new(Tracked::new(&drops))), &guard);
        }
        drop(cell);
    }
    assert!(collector.flush());
    assert_eq!(drops.load(Ordering::SeqCst), 101);
}

/// The default `pin()` guard works through the facade as well.
#[test]
fn default_pin_via_facade() {
    let guard = pin();
    guard.defer(|| {});
}
