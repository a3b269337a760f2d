//! Allocation budget per wait: a suspended wait should cost one heap
//! allocation — the `Arc<Request>` — plus amortized segment churn.
//!
//! This binary installs a counting `#[global_allocator]` and holds a single
//! `#[test]`, so nothing else allocates while a case is being measured.
//! Every case runs on one thread: a wait suspends (the resource is taken),
//! the matching release resumes it, and the completed future is consumed.
//! Budgets are averages over [`WAITS`] waits and leave room for the
//! per-segment allocations (one 16-cell segment per 16 waits per queue).
//!
//! The watchdog registers a heap record per suspension by design, so the
//! budget only describes builds without the `watch` feature.
#![cfg(not(feature = "watch"))]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use cqs::{CqsChannel, QueuePool, Semaphore};

struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call forwards to `System` unchanged; the counter is a plain
// atomic, so the hook neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A regrown buffer is an allocation the steady state should not pay.
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const WAITS: usize = 4096;

/// Runs `wait` a few times unmeasured (lazy thread-locals, first segments,
/// bin growth), then [`WAITS`] times measured; asserts the average number
/// of allocations per wait stays within `budget`.
fn assert_budget(case: &str, budget: f64, mut wait: impl FnMut()) {
    for _ in 0..256 {
        wait();
    }
    let before = ALLOCS.load(Ordering::Relaxed);
    for _ in 0..WAITS {
        wait();
    }
    let per_wait = (ALLOCS.load(Ordering::Relaxed) - before) as f64 / WAITS as f64;
    println!("{case}: {per_wait:.3} allocs per wait (budget {budget})");
    assert!(
        per_wait <= budget,
        "{case}: {per_wait:.3} allocations per wait exceeds the budget of {budget}"
    );
}

#[test]
fn suspended_waits_stay_within_their_allocation_budget() {
    let semaphore = Semaphore::new(1);
    semaphore.acquire().wait().unwrap(); // every later acquire suspends
    assert_budget("semaphore acquire+release", 1.5, || {
        let waiter = semaphore.acquire();
        assert!(!waiter.is_immediate());
        semaphore.release(); // hands the permit to `waiter`
        waiter.wait().unwrap();
    });

    let pool: QueuePool<u64> = QueuePool::new(); // empty: every take suspends
    assert_budget("pool take+put", 1.5, || {
        let taker = pool.take();
        assert!(!taker.is_immediate());
        pool.put(7);
        assert_eq!(taker.wait(), Ok(7));
    });

    // Neither side waits: only the buffer's segments may allocate.
    let channel: CqsChannel<u64> = CqsChannel::bounded(4);
    assert_budget("channel send+receive, no wait", 0.5, || {
        let send = channel.send(1);
        assert!(send.is_immediate());
        send.wait().unwrap();
        let receive = channel.receive();
        assert!(receive.is_immediate());
        assert_eq!(receive.wait(), Ok(1));
    });

    // Empty channel: the receive suspends, the send delivers to it.
    assert_budget("channel blocked receive + send", 2.5, || {
        let receive = channel.receive();
        assert!(!receive.is_immediate());
        channel.send(2).wait().unwrap();
        assert_eq!(receive.wait(), Ok(2));
    });

    // Full channel: the send suspends, the receive grants it a slot.
    for v in 0..4 {
        channel.send(v).wait().unwrap();
    }
    assert_budget("channel blocked send + receive", 3.75, || {
        let send = channel.send(3);
        assert!(!send.is_immediate());
        channel.receive().wait().unwrap();
        send.wait().unwrap();
    });

    // Failing fast against a closed primitive touches no allocator at all.
    let closed = Semaphore::new(1);
    closed.close();
    channel.close();
    assert_budget("closed primitives fail fast", 0.0, || {
        assert!(closed.acquire().wait().is_err());
        assert!(channel.receive().wait().is_err());
        assert!(channel.send(9).wait().is_err());
    });
}
