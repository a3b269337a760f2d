//! `CqsFuture` as a standard Rust `Future`: primitives awaited from async
//! code, on the calling thread through `block_on` and as tasks on the
//! coroutine executor.

use std::future::{poll_fn, Future};
use std::pin::Pin;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};

use cqs::exec::{block_on, yield_now, Executor};
use cqs::{
    Cancelled, CountDownLatch, CqsChannel, CqsFuture, QueuePool, RawMutex, Request, Semaphore,
};

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

/// Round-trips 50 elements through a capacity-2 bounded channel on the
/// coroutine executor, with both sides suspending in `.await`, then proves
/// the await path leaked no capacity slot: exactly `CAPACITY` immediate
/// sends fit afterwards.
#[test]
fn executor_channel_round_trip_releases_every_permit() {
    const CAPACITY: usize = 2;
    const SENDERS: u64 = 2;
    const PER_SENDER: u64 = 25;
    let ch: CqsChannel<u64> = CqsChannel::bounded(CAPACITY);
    let executor = Executor::new(2);
    let sum = Arc::new(AtomicU64::new(0));
    for t in 0..SENDERS {
        let ch = ch.clone();
        executor.spawn(async move {
            for v in t * PER_SENDER + 1..=(t + 1) * PER_SENDER {
                ch.send(v).await.expect("send rejected");
            }
        });
    }
    for _ in 0..2 {
        let ch = ch.clone();
        let sum = Arc::clone(&sum);
        executor.spawn(async move {
            for _ in 0..SENDERS * PER_SENDER / 2 {
                // The await path whose settlement hook must release the
                // capacity slot.
                let v = ch.receive().await.expect("receive cancelled");
                sum.fetch_add(v, Ordering::SeqCst);
            }
        });
    }
    executor.wait_idle_checked().unwrap();
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

/// A request whose cancel handle stays with the test, a count of its
/// cancellation handler's runs, and the future a task awaits it through.
fn cancellable() -> (Arc<Request<u32>>, Arc<AtomicUsize>, CqsFuture<u32>) {
    let request = Arc::new(Request::new());
    let handler_runs = Arc::new(AtomicUsize::new(0));
    let runs = Arc::clone(&handler_runs);
    request.set_cancellation_handler(
        Arc::new(move || {
            runs.fetch_add(1, Ordering::SeqCst);
        }),
        0,
    );
    let future = CqsFuture::suspended(Arc::clone(&request));
    (request, handler_runs, future)
}

/// Awaits `future`, reporting each poll that leaves the task suspended.
async fn observed(
    mut future: CqsFuture<u32>,
    suspended: mpsc::Sender<()>,
) -> Result<u32, Cancelled> {
    poll_fn(|cx| {
        let poll = Pin::new(&mut future).poll(cx);
        if poll.is_pending() {
            suspended.send(()).unwrap();
        }
        poll
    })
    .await
}

/// *run-yield*: `b` is cancelled while the task sits in a yield. The yield
/// returns normally; the cancellation shows only when the task awaits `b`.
#[test]
fn cancel_during_yield_is_seen_at_the_next_await() {
    for carriers in [1, 2] {
        let executor = Executor::new(carriers);
        let (b, b_handler_runs, b_future) = cancellable();
        let log = Arc::new(Mutex::new(Vec::new()));
        let cancelled = Arc::new(AtomicBool::new(false));
        let (yielding_tx, yielding_rx) = mpsc::channel();

        let (l, c) = (Arc::clone(&log), Arc::clone(&cancelled));
        executor.spawn(async move {
            yielding_tx.send(()).unwrap();
            // Holds the task in the yield until the cancel has landed.
            while !c.load(Ordering::SeqCst) {
                yield_now().await;
            }
            l.lock().unwrap().push("yielded".to_string());
            let got = b_future.await;
            l.lock().unwrap().push(format!("b = {got:?}"));
        });

        yielding_rx.recv().unwrap();
        assert!(b.cancel());
        assert_eq!(b_handler_runs.load(Ordering::SeqCst), 1, "at cancel time");
        assert!(
            log.lock().unwrap().is_empty(),
            "the task left its yield early"
        );
        cancelled.store(true, Ordering::SeqCst);

        executor.wait_idle_checked().unwrap();
        assert_eq!(*log.lock().unwrap(), ["yielded", "b = Err(Cancelled)"]);
        assert_eq!(b_handler_runs.load(Ordering::SeqCst), 1);
    }
}

/// *run-suspend*: `b` is cancelled while the task is suspended on `a`. The
/// task stays suspended until a sibling task completes `a`, reads `a`'s
/// value, and only then sees `b`'s cancellation. The sibling's own late
/// `cancel()` of `a` loses to its `complete()`.
#[test]
fn cancel_during_suspension_is_seen_at_the_next_await() {
    for carriers in [1, 2] {
        let executor = Executor::new(carriers);
        let (a, a_handler_runs, a_future) = cancellable();
        let (b, b_handler_runs, b_future) = cancellable();
        let log = Arc::new(Mutex::new(Vec::new()));
        let (suspended_tx, suspended_rx) = mpsc::channel();

        let l = Arc::clone(&log);
        executor.spawn(async move {
            let got = observed(a_future, suspended_tx).await;
            l.lock().unwrap().push(format!("a = {got:?}"));
            let got = b_future.await;
            l.lock().unwrap().push(format!("b = {got:?}"));
        });

        suspended_rx.recv().unwrap();
        assert!(b.cancel());
        assert_eq!(b_handler_runs.load(Ordering::SeqCst), 1, "at cancel time");

        let l = Arc::clone(&log);
        executor.spawn(async move {
            assert!(l.lock().unwrap().is_empty(), "woken before `a` completed");
            a.complete(1).unwrap();
            assert!(!a.cancel(), "cancel lost to complete");
        });

        executor.wait_idle_checked().unwrap();
        assert_eq!(*log.lock().unwrap(), ["a = Ok(1)", "b = Err(Cancelled)"]);
        assert!(
            suspended_rx.try_recv().is_err(),
            "`a` was polled without a wake"
        );
        assert_eq!(a_handler_runs.load(Ordering::SeqCst), 0);
        assert_eq!(b_handler_runs.load(Ordering::SeqCst), 1);
    }
}
