//! `CqsFuture` as a standard Rust `Future`: primitives awaited from async
//! code with a hand-rolled `block_on` (no external runtime needed).

use std::pin::Pin;
use std::sync::Arc;
use std::task::{Context, Poll, Wake};
use std::thread::Thread;

use std::future::Future;
use std::sync::atomic::{AtomicU64, Ordering};

use cqs::exec::{CoroStep, CoroWaker, Coroutine, Executor};
use cqs::{ChannelRecv, ChannelSend, CountDownLatch, CqsChannel, QueuePool, RawMutex, Semaphore};

struct ThreadWaker(Thread);

impl Wake for ThreadWaker {
    fn wake(self: Arc<Self>) {
        self.0.unpark();
    }
}

fn block_on<F: std::future::Future>(mut future: F) -> F::Output {
    let waker = Arc::new(ThreadWaker(std::thread::current())).into();
    let mut cx = Context::from_waker(&waker);
    // SAFETY: `future` is stack-pinned and never moved afterwards.
    let mut future = unsafe { Pin::new_unchecked(&mut future) };
    loop {
        match future.as_mut().poll(&mut cx) {
            Poll::Ready(v) => return v,
            Poll::Pending => std::thread::park(),
        }
    }
}

#[test]
fn await_semaphore_acquire() {
    let s = Arc::new(Semaphore::new(1));
    s.acquire().wait().unwrap();
    let s2 = Arc::clone(&s);
    let releaser = std::thread::spawn(move || {
        std::thread::sleep(std::time::Duration::from_millis(20));
        s2.release();
    });
    block_on(async {
        s.acquire().await.unwrap();
    });
    releaser.join().unwrap();
    s.release();
}

#[test]
fn await_mutex_lock() {
    let m = Arc::new(RawMutex::new());
    m.lock().wait().unwrap();
    let m2 = Arc::clone(&m);
    let unlocker = std::thread::spawn(move || {
        std::thread::sleep(std::time::Duration::from_millis(20));
        m2.unlock();
    });
    block_on(async {
        m.lock().await.unwrap();
    });
    unlocker.join().unwrap();
    m.unlock();
}

#[test]
fn await_pool_take() {
    let pool: Arc<QueuePool<u64>> = Arc::new(QueuePool::new());
    let p2 = Arc::clone(&pool);
    let putter = std::thread::spawn(move || {
        std::thread::sleep(std::time::Duration::from_millis(20));
        p2.put(5);
    });
    let got = block_on(async { pool.take().await.unwrap() });
    assert_eq!(got, 5);
    putter.join().unwrap();
}

#[test]
fn await_latch() {
    let latch = Arc::new(CountDownLatch::new(2));
    let l2 = Arc::clone(&latch);
    let counter = std::thread::spawn(move || {
        l2.count_down();
        l2.count_down();
    });
    block_on(async {
        latch.await_ready().await.unwrap();
    });
    counter.join().unwrap();
}

#[test]
fn await_already_ready_future() {
    let s = Semaphore::new(1);
    block_on(async {
        s.acquire().await.unwrap();
    });
    s.release();
}

#[test]
fn awaited_future_can_be_cancelled_first() {
    let s = Semaphore::new(1);
    s.acquire().wait().unwrap();
    let f = s.acquire();
    assert!(f.cancel());
    let result = block_on(f);
    assert!(result.is_err());
}

/// Bridges the executor's [`CoroWaker`] into a `std::task::Waker`, so
/// coroutines can drive `std::future::Future`s directly.
struct CoroStdWaker(CoroWaker);

impl Wake for CoroStdWaker {
    fn wake(self: Arc<Self>) {
        self.0.wake();
    }
}

/// Drives the channel's `ChannelSend` through its `Future` impl.
struct ChannelSender {
    ch: CqsChannel<u64>,
    next: u64,
    end: u64,
    pending: Option<ChannelSend<u64>>,
}

impl Coroutine for ChannelSender {
    fn step(&mut self, waker: &CoroWaker) -> CoroStep {
        let std_waker = Arc::new(CoroStdWaker(waker.clone())).into();
        let mut cx = Context::from_waker(&std_waker);
        loop {
            let mut f = match self.pending.take() {
                Some(f) => f,
                None => {
                    if self.next == self.end {
                        return CoroStep::Done;
                    }
                    let v = self.next;
                    self.next += 1;
                    self.ch.send(v)
                }
            };
            match Pin::new(&mut f).poll(&mut cx) {
                Poll::Ready(Ok(())) => {}
                Poll::Ready(Err(e)) => panic!("send rejected: {e:?}"),
                Poll::Pending => {
                    self.pending = Some(f);
                    return CoroStep::Pending;
                }
            }
        }
    }
}

/// Drives the channel's `ChannelRecv` through its `Future` impl — the
/// await path whose settlement hook must release the capacity slot.
struct ChannelReceiver {
    ch: CqsChannel<u64>,
    left: u64,
    sum: Arc<AtomicU64>,
    pending: Option<ChannelRecv<u64>>,
}

impl Coroutine for ChannelReceiver {
    fn step(&mut self, waker: &CoroWaker) -> CoroStep {
        let std_waker = Arc::new(CoroStdWaker(waker.clone())).into();
        let mut cx = Context::from_waker(&std_waker);
        loop {
            if self.left == 0 {
                return CoroStep::Done;
            }
            let mut f = match self.pending.take() {
                Some(f) => f,
                None => self.ch.receive(),
            };
            match Pin::new(&mut f).poll(&mut cx) {
                Poll::Ready(Ok(v)) => {
                    self.sum.fetch_add(v, Ordering::SeqCst);
                    self.left -= 1;
                }
                Poll::Ready(Err(e)) => panic!("receive cancelled: {e:?}"),
                Poll::Pending => {
                    self.pending = Some(f);
                    return CoroStep::Pending;
                }
            }
        }
    }
}

/// Round-trips 50 elements through a capacity-2 bounded channel on the
/// coroutine executor, with both sides suspending through their
/// `std::future::Future` impls, then proves the await path leaked no
/// capacity slot: exactly `CAPACITY` immediate sends fit afterwards.
#[test]
fn executor_channel_round_trip_releases_every_permit() {
    const CAPACITY: usize = 2;
    const SENDERS: u64 = 2;
    const PER_SENDER: u64 = 25;
    let ch: CqsChannel<u64> = CqsChannel::bounded(CAPACITY);
    let executor = Executor::new(2);
    let sum = Arc::new(AtomicU64::new(0));
    for t in 0..SENDERS {
        executor.spawn(ChannelSender {
            ch: ch.clone(),
            next: t * PER_SENDER + 1,
            end: (t + 1) * PER_SENDER + 1,
            pending: None,
        });
    }
    for _ in 0..2 {
        executor.spawn(ChannelReceiver {
            ch: ch.clone(),
            left: SENDERS * PER_SENDER / 2,
            sum: Arc::clone(&sum),
            pending: None,
        });
    }
    executor.wait_idle();
    let total = SENDERS * PER_SENDER;
    assert_eq!(sum.load(Ordering::SeqCst), total * (total + 1) / 2);
    // Exactly CAPACITY permits are free: no leak, no over-release.
    let refill: Vec<_> = (0..CAPACITY as u64).map(|v| ch.send(v)).collect();
    for f in &refill {
        assert!(f.is_immediate(), "await path leaked a capacity permit");
    }
    let probe = ch.send(99);
    assert!(!probe.is_immediate(), "await path over-released a permit");
    for v in 0..CAPACITY as u64 {
        assert_eq!(ch.receive().wait(), Ok(v));
    }
    assert!(probe.wait().is_ok());
    assert_eq!(ch.receive().wait(), Ok(99));
}

/// Chained awaits: a small async "program" over several primitives.
#[test]
fn async_pipeline() {
    let pool: Arc<QueuePool<u64>> = Arc::new(QueuePool::new());
    let sem = Arc::new(Semaphore::new(1));
    let done = Arc::new(CountDownLatch::new(1));

    let p2 = Arc::clone(&pool);
    let d2 = Arc::clone(&done);
    let producer = std::thread::spawn(move || {
        for v in 0..10 {
            p2.put(v);
        }
        d2.count_down();
    });

    let total = block_on(async {
        done.await_ready().await.unwrap();
        let mut total = 0u64;
        for _ in 0..10 {
            sem.acquire().await.unwrap();
            total += pool.take().await.unwrap();
            sem.release();
        }
        total
    });
    assert_eq!(total, 45);
    producer.join().unwrap();
}
