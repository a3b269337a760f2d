//! The per-layer ladder of the traced run: each rung times batches of 1000
//! calls of one public function on one thread and reports the median batch,
//! so a regression seen end to end can be pinned on a layer. Two rungs need
//! a second thread (`future.park_wake_us`, `channel.cross_thread_us`).

use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::{AtomicU64, Ordering::SeqCst};
use std::sync::Arc;
use std::task::{Context, Wake, Waker};
use std::time::{Duration, Instant};

use cqs::reclaim::{self, AtomicArc};
use cqs::{
    Cqs, CqsChannel, CqsConfig, CqsFuture, QueuePool, RawMutex, Semaphore, ShardedQueuePool,
    ShardedSemaphore, SimpleCancellation,
};

use crate::alloc;
use crate::hist::median;
use crate::workload::Rng;

const BATCH: usize = 1000;
const BATCHES: usize = 41;

pub struct Rung {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

/// Median over `BATCHES` batches of the per-call time of `batch`, which
/// returns the nanoseconds its 1000 timed calls took.
fn per_call_ns(mut batch: impl FnMut() -> u64) -> f64 {
    let samples: Vec<f64> = (0..BATCHES)
        .map(|_| batch() as f64 / BATCH as f64)
        .collect();
    median(&samples)
}

/// Per-call time of `call`, for the rungs that are nothing but a loop.
fn per_call(mut call: impl FnMut()) -> f64 {
    per_call_ns(|| {
        timed(|| {
            for _ in 0..BATCH {
                call();
            }
        })
    })
}

fn timed(f: impl FnOnce()) -> u64 {
    let began = Instant::now();
    f();
    began.elapsed().as_nanos() as u64
}

struct CountingWaker(AtomicU64);

impl Wake for CountingWaker {
    fn wake(self: Arc<Self>) {
        self.0.fetch_add(1, SeqCst);
    }
}

fn queue() -> Cqs<u64> {
    Cqs::new(CqsConfig::new(), SimpleCancellation)
}

fn suspend_batch(queue: &Cqs<u64>, into: &mut Vec<CqsFuture<u64>>) -> u64 {
    timed(|| {
        for _ in 0..BATCH {
            into.push(queue.suspend().expect_future());
        }
    })
}

pub fn run(seed: u64) -> Vec<Rung> {
    let mut rungs = Vec::new();
    let mut rung = |name, unit, value| rungs.push(Rung { name, unit, value });
    let mut futures: Vec<CqsFuture<u64>> = Vec::with_capacity(2 * BATCH.max(2048));

    // cqs-reclaim
    rung(
        "reclaim.pin_ns",
        "ns",
        per_call(|| {
            std::hint::black_box(reclaim::pin());
        }),
    );
    let cell = AtomicArc::new(Some(Arc::new(7u64)));
    rung(
        "reclaim.load_ns",
        "ns",
        per_call_ns(|| {
            let guard = reclaim::pin();
            timed(|| {
                for _ in 0..BATCH {
                    std::hint::black_box(cell.load(&guard));
                }
            })
        }),
    );

    // cqs-core: suspend, resume and cancel on a bare queue.
    let q = queue();
    let mut resume_ns = Vec::new();
    let (mut request_allocs, mut request_bytes) = (Vec::new(), Vec::new());
    rung(
        "core.suspend_ns",
        "ns",
        per_call_ns(|| {
            let before = alloc::snapshot();
            let ns = suspend_batch(&q, &mut futures);
            let after = alloc::snapshot();
            request_allocs.push((after.allocs - before.allocs) as f64 / BATCH as f64);
            request_bytes.push((after.bytes - before.bytes) as f64 / BATCH as f64);
            resume_ns.push(
                timed(|| {
                    for i in 0..BATCH {
                        q.resume(i as u64).expect("a waiter is queued");
                    }
                }) as f64
                    / BATCH as f64,
            );
            futures.clear();
            ns
        }),
    );
    rung("core.resume_ns", "ns", median(&resume_ns));
    // A queue of its own: with simple cancellation a later resume would
    // fail on the cancelled cells instead of skipping them.
    let cancelled = queue();
    rung(
        "core.cancel_ns",
        "ns",
        per_call_ns(|| {
            suspend_batch(&cancelled, &mut futures);
            let ns = timed(|| {
                for f in &futures {
                    f.cancel();
                }
            });
            futures.clear();
            ns
        }),
    );
    // Whole segments cancelled in seeded order: removal and retire paths.
    let held = Semaphore::new(1);
    held.acquire().wait().expect("first permit is free");
    let mut rng = Rng::new(seed, 1);
    let mut order: Vec<usize> = (0..2048).collect();
    let mut waiters: Vec<CqsFuture<()>> = Vec::with_capacity(order.len());
    let mass: Vec<f64> = (0..BATCHES)
        .map(|_| {
            waiters.extend((0..order.len()).map(|_| held.acquire()));
            for i in (1..order.len()).rev() {
                order.swap(i, rng.below(i + 1));
            }
            let ns = timed(|| {
                for &i in &order {
                    waiters[i].cancel();
                }
            });
            waiters.clear();
            ns as f64 / order.len() as f64
        })
        .collect();
    rung("core.mass_cancel_ns_per_waiter", "ns", median(&mass));

    // cqs-future: what one suspended request costs to create, register
    // with and wake.
    rung("future.request_allocs", "count", median(&request_allocs));
    rung("future.request_bytes", "bytes", median(&request_bytes));
    let counting = Arc::new(CountingWaker(AtomicU64::new(0)));
    let waker = Waker::from(Arc::clone(&counting));
    let mut wake_ns = Vec::new();
    rung(
        "future.poll_register_ns",
        "ns",
        per_call_ns(|| {
            suspend_batch(&q, &mut futures);
            let mut cx = Context::from_waker(&waker);
            let ns = timed(|| {
                for f in &mut futures {
                    let _ = Pin::new(f).poll(&mut cx);
                }
            });
            wake_ns.push(
                timed(|| {
                    for i in 0..BATCH {
                        q.resume(i as u64).expect("a waiter is queued");
                    }
                }) as f64
                    / BATCH as f64,
            );
            futures.clear();
            ns
        }),
    );
    assert_eq!(counting.0.load(SeqCst), (BATCH * BATCHES) as u64);
    rung("future.wake_ns", "ns", median(&wake_ns));
    rung("future.park_wake_us", "us", park_wake_us());

    // cqs-sync, cqs-pool, cqs-channel: the uncontended pair and the
    // suspended hand-off (acquire suspends, release resumes it) of each.
    let semaphore = Semaphore::new(1);
    rung(
        "sync.sem_pair_ns",
        "ns",
        per_call(|| {
            semaphore.acquire().wait().expect("uncontended");
            semaphore.release();
        }),
    );
    let mutex = RawMutex::new();
    rung(
        "sync.mutex_pair_ns",
        "ns",
        per_call(|| {
            mutex.lock().wait().expect("uncontended");
            mutex.unlock();
        }),
    );
    semaphore.acquire().wait().expect("uncontended");
    rung(
        "sync.sem_handoff_ns",
        "ns",
        per_call(|| {
            let next = semaphore.acquire();
            semaphore.release();
            next.wait().expect("handed the permit");
        }),
    );
    let sharded = ShardedSemaphore::with_shards(8, 2);
    rung(
        "sync.sharded_pair_ns",
        "ns",
        per_call(|| {
            sharded.acquire().wait().expect("uncontended");
            sharded.release();
        }),
    );

    let pool: QueuePool<u64> = QueuePool::new();
    pool.put(1);
    rung(
        "pool.pair_ns",
        "ns",
        per_call(|| {
            let element = pool.take().wait().expect("uncontended");
            pool.put(element);
        }),
    );
    let mut element = pool.take().wait().expect("uncontended");
    rung(
        "pool.handoff_ns",
        "ns",
        per_call(|| {
            let next = pool.take();
            pool.put(element);
            element = next.wait().expect("handed the element");
        }),
    );
    let sharded_pool: ShardedQueuePool<u64> = ShardedQueuePool::with_shards(2);
    sharded_pool.put(1);
    rung(
        "pool.sharded_pair_ns",
        "ns",
        per_call(|| {
            let element = sharded_pool.take().wait().expect("uncontended");
            sharded_pool.put(element);
        }),
    );

    let channel: CqsChannel<u64> = CqsChannel::bounded(4);
    rung(
        "channel.pair_ns",
        "ns",
        per_call_ns(|| {
            timed(|| {
                for i in 0..BATCH {
                    channel.send(i as u64).wait().expect("uncontended");
                    channel.receive().wait().expect("uncontended");
                }
            })
        }),
    );
    rung(
        "channel.handoff_ns",
        "ns",
        per_call_ns(|| {
            timed(|| {
                for i in 0..BATCH {
                    let next = channel.receive();
                    channel.send(i as u64).wait().expect("a receiver waits");
                    next.wait().expect("handed the element");
                }
            })
        }),
    );
    rung("channel.cross_thread_us", "us", cross_thread_us());
    rungs
}

/// Resume → woken latency of a thread parked in `CqsFuture::wait`.
fn park_wake_us() -> f64 {
    const ROUNDS: usize = 200;
    let q = queue();
    let origin = Instant::now();
    let (hand_over, waiters) = std::sync::mpsc::channel::<CqsFuture<u64>>();
    let samples: Vec<f64> = std::thread::scope(|scope| {
        let parked = scope.spawn(move || {
            waiters
                .into_iter()
                .map(|waiter| {
                    let resumed_at = waiter.wait().expect("resumed, never cancelled");
                    (origin.elapsed().as_nanos() as u64 - resumed_at) as f64 / 1e3
                })
                .collect::<Vec<f64>>()
        });
        for _ in 0..ROUNDS {
            hand_over
                .send(q.suspend().expect_future())
                .expect("the waiter thread is alive");
            // Long enough for the waiter to climb the spin and yield rungs
            // of its ladder and park.
            std::thread::sleep(Duration::from_micros(300));
            q.resume(origin.elapsed().as_nanos() as u64)
                .expect("a waiter is queued");
        }
        drop(hand_over);
        parked.join().expect("waiter thread panicked")
    });
    median(&samples)
}

/// One-way latency of a channel hand-off between two threads: half the
/// round trip of a ping-pong over two bounded channels.
fn cross_thread_us() -> f64 {
    const ROUNDS: usize = 2000;
    let ping: CqsChannel<u64> = CqsChannel::bounded(1);
    let pong: CqsChannel<u64> = CqsChannel::bounded(1);
    std::thread::scope(|scope| {
        scope.spawn(|| {
            for _ in 0..ROUNDS {
                let v = ping.receive().wait().expect("open");
                pong.send(v).wait().expect("open");
            }
        });
        let samples: Vec<f64> = (0..ROUNDS)
            .map(|i| {
                let began = Instant::now();
                ping.send(i as u64).wait().expect("open");
                pong.receive().wait().expect("open");
                began.elapsed().as_nanos() as f64 / 2e3
            })
            .collect();
        median(&samples)
    })
}
