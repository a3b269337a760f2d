//! Integration tests for the extension primitives built beyond the paper's
//! listings: the fair readers–writer lock (§7 future work) and the bounded
//! segment-native channel.

use std::sync::atomic::{AtomicI64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use cqs::exec::block_on;
use cqs::{CqsChannel, RawRwLock};

#[test]
fn rwlock_phase_fair_alternation() {
    // Writers and readers alternate: with a continuous stream of readers, a
    // writer still gets in (no writer starvation), and vice versa.
    let lock = Arc::new(RawRwLock::new());
    let writer_ran = Arc::new(AtomicUsize::new(0));
    let stop = Arc::new(AtomicUsize::new(0));

    let readers: Vec<_> = (0..3)
        .map(|_| {
            let lock = Arc::clone(&lock);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                while stop.load(Ordering::SeqCst) == 0 {
                    lock.read().wait().unwrap();
                    std::hint::black_box(0u64);
                    lock.read_unlock();
                }
            })
        })
        .collect();

    let writer = {
        let lock = Arc::clone(&lock);
        let writer_ran = Arc::clone(&writer_ran);
        std::thread::spawn(move || {
            for _ in 0..50 {
                lock.write().wait().unwrap();
                writer_ran.fetch_add(1, Ordering::SeqCst);
                lock.write_unlock();
            }
        })
    };

    writer.join().unwrap();
    assert_eq!(
        writer_ran.load(Ordering::SeqCst),
        50,
        "writer starved by readers"
    );
    stop.store(1, Ordering::SeqCst);
    for r in readers {
        r.join().unwrap();
    }
}

#[test]
fn rwlock_mixed_invariant_long() {
    const THREADS: usize = 6;
    const OPS: usize = 2_000;
    let lock = Arc::new(RawRwLock::new());
    let occupancy = Arc::new(AtomicI64::new(0)); // readers > 0, writer = -1
    let mut joins = Vec::new();
    for t in 0..THREADS {
        let lock = Arc::clone(&lock);
        let occupancy = Arc::clone(&occupancy);
        joins.push(std::thread::spawn(move || {
            for i in 0..OPS {
                if (t * 31 + i) % 5 == 0 {
                    lock.write().wait().unwrap();
                    assert_eq!(occupancy.swap(-1, Ordering::SeqCst), 0);
                    occupancy.store(0, Ordering::SeqCst);
                    lock.write_unlock();
                } else {
                    lock.read().wait().unwrap();
                    assert!(occupancy.fetch_add(1, Ordering::SeqCst) >= 0);
                    occupancy.fetch_sub(1, Ordering::SeqCst);
                    lock.read_unlock();
                }
            }
        }));
    }
    for j in joins {
        j.join().unwrap();
    }
    assert_eq!(lock.observed_state(), (0, false));
}

#[test]
fn channel_backpressure_bounds_buffer() {
    let ch = CqsChannel::bounded(2);
    ch.send(1u32).wait().unwrap();
    ch.send(2).wait().unwrap();
    let blocked = ch.send(3);
    assert!(!blocked.is_immediate(), "capacity must be enforced");
    assert!(ch.len() <= 2);
    assert_eq!(ch.receive().wait(), Ok(1));
    blocked.wait().unwrap();
    assert_eq!(ch.receive().wait(), Ok(2));
    assert_eq!(ch.receive().wait(), Ok(3));
}

#[test]
fn channel_pipeline_through_threads() {
    const STAGES: usize = 3;
    const ITEMS: u64 = 2_000;
    let channels: Vec<CqsChannel<u64>> = (0..=STAGES).map(|_| CqsChannel::bounded(4)).collect();

    let mut joins = Vec::new();
    for stage in 0..STAGES {
        let input = channels[stage].clone();
        let output = channels[stage + 1].clone();
        joins.push(std::thread::spawn(move || {
            for _ in 0..ITEMS {
                let v = input.receive().wait().unwrap();
                output.send(v + 1).wait().unwrap();
            }
        }));
    }
    let first = channels[0].clone();
    let feeder = std::thread::spawn(move || {
        for v in 0..ITEMS {
            first.send(v).wait().unwrap();
        }
    });

    let last = &channels[STAGES];
    let mut sum = 0u64;
    for _ in 0..ITEMS {
        sum += last.receive().wait().unwrap();
    }
    feeder.join().unwrap();
    for j in joins {
        j.join().unwrap();
    }
    // Each item passed through 3 incrementing stages.
    assert_eq!(sum, (0..ITEMS).map(|v| v + STAGES as u64).sum::<u64>());
}

#[test]
fn channel_receive_timeout_leaves_channel_intact() {
    let ch: CqsChannel<u32> = CqsChannel::bounded(4);
    for _ in 0..5 {
        assert!(ch.receive().wait_timeout(Duration::from_millis(5)).is_err());
    }
    ch.send(7).wait().unwrap();
    assert_eq!(ch.receive().wait(), Ok(7));
    assert!(ch.is_empty());
}

#[test]
fn rwlock_async_integration() {
    let lock = Arc::new(RawRwLock::new());
    lock.write().wait().unwrap();
    let l2 = Arc::clone(&lock);
    let unlocker = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(20));
        l2.write_unlock();
    });
    block_on(async {
        lock.read().await.unwrap();
    });
    unlocker.join().unwrap();
    lock.read_unlock();
}
