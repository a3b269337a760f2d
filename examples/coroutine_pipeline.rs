//! Thousands of coroutines on a small thread pool — the paper's primary
//! motivation: suspension must not block a carrier thread, and fair
//! synchronization is cheap when "threads" are lightweight.
//!
//! A three-stage pipeline: producers put items into a bounded hand-off
//! (modelled by a pool), transformers move them to a second stage, and a
//! latch reports completion. 2 000 coroutines run on 4 threads.
//!
//! Run with: `cargo run --release --example coroutine_pipeline`

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use cqs::exec::{yield_now, Executor};
use cqs::{CountDownLatch, QueuePool};

const PRODUCERS: usize = 1_000;
const TRANSFORMERS: usize = 1_000;
const ITEMS_PER_PRODUCER: u64 = 20;

/// Stage 1: produces items into the raw pool.
async fn producer(raw: Arc<QueuePool<u64>>, seed: u64) {
    for remaining in (0..ITEMS_PER_PRODUCER).rev() {
        raw.put(seed * 1_000 + remaining);
        // Yield between items so carriers interleave thousands of tasks.
        yield_now().await;
    }
}

/// Stage 2: takes raw items (suspending, without blocking the carrier
/// thread, when none are ready), transforms them, and accumulates a
/// checksum.
async fn transformer(raw: Arc<QueuePool<u64>>, checksum: Arc<AtomicU64>, quota: u64) {
    for _ in 0..quota {
        let item = raw.take().await.expect("pipeline never cancels");
        checksum.fetch_add(item, Ordering::Relaxed);
    }
}

fn main() {
    let executor = Executor::new(4);
    let raw: Arc<QueuePool<u64>> = Arc::new(QueuePool::new());
    let checksum = Arc::new(AtomicU64::new(0));
    let done = Arc::new(CountDownLatch::new(1));

    let total_items = PRODUCERS as u64 * ITEMS_PER_PRODUCER;
    assert_eq!(total_items % TRANSFORMERS as u64, 0);

    for seed in 0..PRODUCERS as u64 {
        executor.spawn(producer(Arc::clone(&raw), seed));
    }
    for _ in 0..TRANSFORMERS {
        executor.spawn(transformer(
            Arc::clone(&raw),
            Arc::clone(&checksum),
            total_items / TRANSFORMERS as u64,
        ));
    }

    executor.wait_idle();
    done.count_down();
    done.wait().unwrap();

    let expected: u64 = (0..PRODUCERS as u64)
        .flat_map(|s| (0..ITEMS_PER_PRODUCER).map(move |i| s * 1_000 + i))
        .sum();
    let got = checksum.load(Ordering::Relaxed);
    println!(
        "{} coroutines moved {total_items} items; checksum {got} (expected {expected})",
        PRODUCERS + TRANSFORMERS
    );
    assert_eq!(got, expected, "items lost or duplicated");
}
