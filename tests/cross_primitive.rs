//! Integration tests spanning multiple crates: primitives composed with
//! each other, with the executor, and with real thread workloads.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use cqs::exec::Executor;
use cqs::{
    Barrier, CountDownLatch, CyclicBarrier, Mutex, QueuePool, RawMutex, Semaphore, StackPool,
};

/// A work-crew pattern: a latch gates the start, a barrier synchronizes
/// phases, a semaphore bounds a "scarce" phase, and a mutex protects the
/// shared log.
#[test]
fn work_crew_composition() {
    const WORKERS: usize = 6;
    const PHASES: usize = 20;

    let start = Arc::new(CountDownLatch::new(1));
    let phase_barrier = Arc::new(CyclicBarrier::new(WORKERS));
    let scarce = Arc::new(Semaphore::new(2));
    let log = Arc::new(Mutex::new(Vec::<(usize, usize)>::new()));
    let in_scarce = Arc::new(AtomicUsize::new(0));

    let handles: Vec<_> = (0..WORKERS)
        .map(|w| {
            let start = Arc::clone(&start);
            let phase_barrier = Arc::clone(&phase_barrier);
            let scarce = Arc::clone(&scarce);
            let log = Arc::clone(&log);
            let in_scarce = Arc::clone(&in_scarce);
            std::thread::spawn(move || {
                start.wait().unwrap();
                for phase in 0..PHASES {
                    {
                        let _permit = scarce.acquire_blocking().unwrap();
                        let now = in_scarce.fetch_add(1, Ordering::SeqCst) + 1;
                        assert!(now <= 2, "semaphore admitted {now} > 2");
                        in_scarce.fetch_sub(1, Ordering::SeqCst);
                    }
                    log.lock().unwrap().push((phase, w));
                    phase_barrier.arrive().wait().unwrap();
                }
            })
        })
        .collect();

    start.count_down();
    for h in handles {
        h.join().unwrap();
    }

    let log = log.lock().unwrap();
    assert_eq!(log.len(), WORKERS * PHASES);
    // Thanks to the barrier, entries are grouped by phase.
    for (i, (phase, _)) in log.iter().enumerate() {
        assert_eq!(*phase, i / WORKERS, "barrier failed to separate phases");
    }
}

/// A pool feeding coroutines on the executor, closed out by a latch.
#[test]
fn executor_pool_latch_composition() {
    const TASKS: usize = 300;
    let executor = Executor::new(3);
    let pool: Arc<QueuePool<u64>> = Arc::new(QueuePool::new());
    let done = Arc::new(CountDownLatch::new(TASKS));
    let sum = Arc::new(AtomicU64::new(0));

    for _ in 0..TASKS {
        let pool = Arc::clone(&pool);
        let done = Arc::clone(&done);
        let sum = Arc::clone(&sum);
        executor.spawn(async move {
            let v = pool.take().await.expect("never cancelled");
            sum.fetch_add(v, Ordering::SeqCst);
            done.count_down();
        });
    }

    // Feed the pool from the main thread while coroutines wait.
    for v in 0..TASKS as u64 {
        pool.put(v);
    }
    done.wait().unwrap();
    executor.wait_idle();
    assert_eq!(
        sum.load(Ordering::SeqCst),
        (TASKS as u64 - 1) * TASKS as u64 / 2
    );
}

/// Producer/consumer across two pools with a stack pool as the free-list.
#[test]
fn two_pool_recycling() {
    const BUFFERS: u64 = 4;
    const MESSAGES: usize = 2_000;

    let free: Arc<StackPool<u64>> = Arc::new(StackPool::new());
    let full: Arc<QueuePool<u64>> = Arc::new(QueuePool::new());
    for b in 0..BUFFERS {
        free.put(b);
    }

    let producer = {
        let free = Arc::clone(&free);
        let full = Arc::clone(&full);
        std::thread::spawn(move || {
            for _ in 0..MESSAGES {
                let buffer = free.take().wait().unwrap();
                full.put(buffer);
            }
        })
    };
    let consumer = {
        let free = Arc::clone(&free);
        let full = Arc::clone(&full);
        std::thread::spawn(move || {
            for _ in 0..MESSAGES {
                let buffer = full.take().wait().unwrap();
                free.put(buffer);
            }
        })
    };
    producer.join().unwrap();
    consumer.join().unwrap();

    // All buffers are back in the free list.
    let mut recovered: Vec<u64> = (0..BUFFERS).map(|_| free.take().wait().unwrap()).collect();
    recovered.sort_unstable();
    assert_eq!(recovered, (0..BUFFERS).collect::<Vec<_>>());
}

/// The raw mutex interoperates with scoped threads and try_lock under load.
#[test]
fn raw_mutex_with_scoped_threads() {
    let mutex = RawMutex::new();
    let counter = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..4 {
            scope.spawn(|| {
                for _ in 0..1_000 {
                    if mutex.try_lock() {
                        counter.fetch_add(1, Ordering::SeqCst);
                        mutex.unlock();
                    } else {
                        mutex.lock().wait().unwrap();
                        counter.fetch_add(1, Ordering::SeqCst);
                        mutex.unlock();
                    }
                }
            });
        }
    });
    assert_eq!(counter.load(Ordering::SeqCst), 4_000);
    assert!(!mutex.is_locked());
}

/// Single-use barrier completes exactly once per party even when waits and
/// arrivals interleave with semaphore traffic.
#[test]
fn barrier_with_semaphore_preamble() {
    const PARTIES: usize = 5;
    let barrier = Arc::new(Barrier::new(PARTIES));
    let semaphore = Arc::new(Semaphore::new(2));
    let past = Arc::new(AtomicUsize::new(0));
    let handles: Vec<_> = (0..PARTIES)
        .map(|_| {
            let barrier = Arc::clone(&barrier);
            let semaphore = Arc::clone(&semaphore);
            let past = Arc::clone(&past);
            std::thread::spawn(move || {
                let _permit = semaphore.acquire_blocking().unwrap();
                drop(_permit);
                barrier.arrive().wait().unwrap();
                past.fetch_add(1, Ordering::SeqCst);
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(past.load(Ordering::SeqCst), PARTIES);
}
