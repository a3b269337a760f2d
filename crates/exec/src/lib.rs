#![warn(missing_docs)]

//! # `cqs-exec` — a lightweight coroutine executor
//!
//! The CQS paper's practical motivation is synchronization for *coroutines*:
//! lightweight tasks multiplexed over a small thread pool, where suspension
//! must not block the carrier thread and where cancellations are frequent.
//! This crate supplies the minimal executor needed to reproduce those
//! experiments (Fig. 13: thousands of coroutines contending on a mutex over
//! a fixed-size scheduler) — and to let library users actually consume
//! `CqsFuture`s without parking threads.
//!
//! A task is any `Future<Output = ()> + Send + 'static`, in practice an
//! `async` block awaiting `CqsFuture`s. [`Executor::spawn`] puts it at the
//! back of one FIFO run queue; a carrier thread polls it with a
//! [`std::task::Waker`] that re-enqueues the task. When the poll returns
//! `Pending` the carrier immediately picks up another task; a task that
//! only wants to let the others run awaits [`yield_now`]. [`block_on`]
//! drives a single future on the calling thread instead.
//!
//! # Example
//!
//! ```
//! use cqs_exec::{yield_now, Executor};
//!
//! let executor = Executor::new(2);
//! for i in 0..8 {
//!     executor.spawn(async move {
//!         // ... do some work for task i ...
//!         let _ = i;
//!         yield_now().await;
//!     });
//! }
//! executor.wait_idle();
//! ```

use std::collections::VecDeque;
use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::{AtomicBool, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::task::{Context, Poll, Wake, Waker};
use std::thread::JoinHandle;

/// Suspended: not in the run queue; the next wake enqueues it.
const IDLE: u8 = 0;
/// In the run queue (or about to be pushed); further wakes are no-ops.
const QUEUED: u8 = 1;
/// Being polled by a carrier.
const RUNNING: u8 = 2;
/// Being polled, and woken since the poll began: the carrier re-enqueues
/// it when the poll returns `Pending`.
const NOTIFIED: u8 = 3;
/// Finished or panicked; wakes are no-ops.
const DONE: u8 = 4;

type TaskFuture = Pin<Box<dyn Future<Output = ()> + Send>>;

/// One spawned future. The task is its own waker: `Arc<Task>` converts into
/// a [`Waker`], so scheduling allocates once per task, not per poll.
struct Task {
    /// `None` once the future finished or panicked. The lock is never
    /// contended — `state` admits one poller at a time — it only makes the
    /// exclusive access safe to express.
    future: Mutex<Option<TaskFuture>>,
    state: AtomicU8,
    shared: Arc<ExecShared>,
}

// Every access to `state` is `SeqCst`. A waker publishes its news, then
// reads `state`; a carrier writes `RUNNING`, then polls for news. With
// anything weaker both could read the old value — the wake a no-op on
// `QUEUED`, the poll `Pending` — and the task would sleep on news it has.
impl Wake for Task {
    fn wake(self: Arc<Self>) {
        self.wake_by_ref();
    }

    fn wake_by_ref(self: &Arc<Self>) {
        let woken =
            self.state
                .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |state| match state {
                    IDLE => Some(QUEUED),
                    RUNNING => Some(NOTIFIED),
                    _ => None,
                });
        if woken == Ok(IDLE) {
            self.shared.enqueue(Runnable::Woken(Arc::clone(self)));
        }
    }
}

/// Sends the calling task to the back of the run queue: the returned future
/// resolves on its second poll, after every task that was already runnable
/// has had its turn.
pub fn yield_now() -> impl Future<Output = ()> {
    let mut yielded = false;
    std::future::poll_fn(move |cx| {
        if yielded {
            return Poll::Ready(());
        }
        yielded = true;
        cx.waker().wake_by_ref();
        Poll::Pending
    })
}

pub use cqs_future::block_on;

/// One or more coroutines panicked since the last check.
///
/// Returned by [`Executor::wait_idle_checked`]; carries the panic payloads
/// (rendered to strings) so the failure is attributable instead of silent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoroutinePanics {
    /// The captured panic payloads, oldest first.
    pub payloads: Vec<String>,
}

impl std::fmt::Display for CoroutinePanics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} coroutine(s) panicked", self.payloads.len())?;
        if let Some(first) = self.payloads.first() {
            write!(f, "; first payload: {first}")?;
        }
        Ok(())
    }
}

impl std::error::Error for CoroutinePanics {}

/// Renders a `catch_unwind` payload the way the default panic hook does.
fn describe_panic(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "Box<dyn Any>".to_string()
    }
}

/// An entry of the run queue.
enum Runnable {
    /// Not polled yet. The carrier that first polls it makes the [`Task`]:
    /// made by the spawner, the task's allocation and its count on `shared`
    /// are released on another thread than took them, which costs a
    /// one-carrier fig. 13 some 10 % at 10 000 coroutines (EXPERIMENTS.md,
    /// "One task model (PR 23)").
    Spawned(TaskFuture),
    Woken(Arc<Task>),
}

struct ExecShared {
    queue: Mutex<VecDeque<Runnable>>,
    work_available: Condvar,
    /// Coroutines spawned and not yet Done.
    live: AtomicUsize,
    idle: Condvar,
    idle_lock: Mutex<()>,
    shutdown: AtomicBool,
    /// Total coroutine panics over the executor's lifetime.
    panic_count: AtomicUsize,
    /// Panic payloads not yet drained by `wait_idle_checked`.
    panics: Mutex<Vec<String>>,
    /// Watchdog id for this executor's gauges; 0 when `watch` is off.
    #[cfg_attr(not(feature = "watch"), allow(dead_code))]
    watch_id: u64,
}

impl ExecShared {
    /// Puts `task` at the back of the run queue.
    fn enqueue(&self, task: Runnable) {
        let mut queue = self.queue.lock().unwrap();
        // Nobody drains the queue after shutdown, and a task left in it
        // would keep `self` alive through its own reference. Returning
        // releases the lock before `task`: dropping a future may wake.
        if self.shutdown.load(Ordering::SeqCst) {
            return;
        }
        queue.push_back(task);
        drop(queue);
        self.work_available.notify_one();
    }

    fn finish_one(&self) {
        let previous = self.live.fetch_sub(1, Ordering::SeqCst);
        cqs_watch::gauge!(self.watch_id, "live", previous as i64 - 1);
        if previous == 1 {
            let _g = self.idle_lock.lock().unwrap();
            self.idle.notify_all();
        }
    }

    fn record_panic(&self, payload: &(dyn std::any::Any + Send)) {
        let message = describe_panic(payload);
        let _total = self.panic_count.fetch_add(1, Ordering::SeqCst) + 1;
        eprintln!("cqs-exec: coroutine panicked: {message}");
        cqs_watch::gauge!(self.watch_id, "panics", _total as i64);
        self.panics.lock().unwrap().push(message);
    }
}

/// A fixed-size thread pool running futures as coroutines (see crate docs).
pub struct Executor {
    shared: Arc<ExecShared>,
    workers: Vec<JoinHandle<()>>,
}

impl Executor {
    /// Starts an executor with `threads` carrier threads.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero.
    pub fn new(threads: usize) -> Self {
        assert!(threads > 0, "an executor needs at least one thread");
        let shared = Arc::new(ExecShared {
            queue: Mutex::new(VecDeque::new()),
            work_available: Condvar::new(),
            live: AtomicUsize::new(0),
            idle: Condvar::new(),
            idle_lock: Mutex::new(()),
            shutdown: AtomicBool::new(false),
            panic_count: AtomicUsize::new(0),
            panics: Mutex::new(Vec::new()),
            watch_id: cqs_watch::next_primitive_id("exec"),
        });
        let workers = (0..threads)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("cqs-exec-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("failed to spawn executor worker")
            })
            .collect();
        Executor { shared, workers }
    }

    /// Submits a coroutine for execution, at the back of the run queue.
    pub fn spawn(&self, future: impl Future<Output = ()> + Send + 'static) {
        let _previous = self.shared.live.fetch_add(1, Ordering::SeqCst);
        cqs_watch::gauge!(self.shared.watch_id, "live", _previous as i64 + 1);
        self.shared.enqueue(Runnable::Spawned(Box::pin(future)));
    }

    /// Blocks until every spawned coroutine has finished. A coroutine's panic
    /// does not fail this call (matching historical behaviour) but is never
    /// silent: each is logged to stderr when caught and counted in the
    /// executor's lifetime panic count (the `panics` watch gauge); use
    /// [`wait_idle_checked`](Self::wait_idle_checked) to surface them as an
    /// error.
    pub fn wait_idle(&self) {
        let mut g = self.shared.idle_lock.lock().unwrap();
        while self.shared.live.load(Ordering::SeqCst) != 0 {
            g = self.shared.idle.wait(g).unwrap();
        }
    }

    /// Like [`wait_idle`](Self::wait_idle), but returns an error carrying
    /// the captured payloads if any coroutine panicked since the last
    /// `wait_idle_checked` call. Draining is destructive: a returned
    /// [`CoroutinePanics`] will not be reported again (the lifetime panic
    /// count is unaffected).
    ///
    /// # Errors
    ///
    /// Returns [`CoroutinePanics`] with the undrained panic payloads.
    pub fn wait_idle_checked(&self) -> Result<(), CoroutinePanics> {
        self.wait_idle();
        let payloads: Vec<String> = self.shared.panics.lock().unwrap().drain(..).collect();
        if payloads.is_empty() {
            Ok(())
        } else {
            Err(CoroutinePanics { payloads })
        }
    }

    /// The number of coroutines not yet finished.
    fn live_count(&self) -> usize {
        self.shared.live.load(Ordering::SeqCst)
    }

    /// Total coroutine panics caught over this executor's lifetime.
    #[cfg(test)]
    fn panic_count(&self) -> usize {
        self.shared.panic_count.load(Ordering::SeqCst)
    }
}

fn worker_loop(shared: &Arc<ExecShared>) {
    loop {
        let runnable = {
            let mut queue = shared.queue.lock().unwrap();
            loop {
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                if let Some(runnable) = queue.pop_front() {
                    break runnable;
                }
                queue = shared.work_available.wait(queue).unwrap();
            }
        };
        let task = match runnable {
            Runnable::Woken(task) => task,
            Runnable::Spawned(future) => Arc::new(Task {
                future: Mutex::new(Some(future)),
                state: AtomicU8::new(QUEUED),
                shared: Arc::clone(shared),
            }),
        };
        run_one(shared, task);
    }
}

/// Polls `task` once. It was popped from the queue, so no other carrier
/// holds it: `QUEUED` is left only here.
fn run_one(shared: &ExecShared, task: Arc<Task>) {
    task.state.store(RUNNING, Ordering::SeqCst);
    let waker = Waker::from(Arc::clone(&task));
    let mut slot = task.future.lock().unwrap();
    let future = slot.as_mut().expect("a queued task holds its future");
    let polled = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        future.as_mut().poll(&mut Context::from_waker(&waker))
    }));
    if let Ok(Poll::Pending) = polled {
        drop(slot);
        // A wake that landed during the poll found `RUNNING`, left
        // `NOTIFIED` and enqueued nothing: the task is still ours to
        // re-enqueue, at the back.
        if task
            .state
            .compare_exchange(RUNNING, IDLE, Ordering::SeqCst, Ordering::SeqCst)
            .is_err()
        {
            task.state.store(QUEUED, Ordering::SeqCst);
            shared.enqueue(Runnable::Woken(task));
        }
        return;
    }
    task.state.store(DONE, Ordering::SeqCst);
    // The future's captures are released before `wait_idle` can return.
    *slot = None;
    drop(slot);
    if let Err(payload) = polled {
        // A panicking coroutine counts as finished; the carrier thread
        // survives and keeps serving other coroutines. The payload is
        // logged and kept for `wait_idle_checked`.
        shared.record_panic(payload.as_ref());
    }
    shared.finish_one();
}

impl Drop for Executor {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        // Wake all workers so they observe the flag.
        {
            let _q = self.shared.queue.lock().unwrap();
            self.shared.work_available.notify_all();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        // Tasks still queued refer back to `shared`; release them, outside
        // the lock (see `enqueue`).
        let abandoned = std::mem::take(&mut *self.shared.queue.lock().unwrap());
        drop(abandoned);
    }
}

impl std::fmt::Debug for Executor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Executor")
            .field("threads", &self.workers.len())
            .field("live", &self.live_count())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqs_future::{CqsFuture, Request};
    use std::future::poll_fn;
    use std::sync::mpsc;
    use std::time::Duration;

    #[test]
    fn runs_simple_tasks() {
        let executor = Executor::new(4);
        let counter = Arc::new(AtomicUsize::new(0));
        for _ in 0..100 {
            let counter = Arc::clone(&counter);
            executor.spawn(async move {
                counter.fetch_add(1, Ordering::SeqCst);
            });
        }
        executor.wait_idle();
        assert_eq!(counter.load(Ordering::SeqCst), 100);
    }

    #[test]
    fn yielding_coroutine_runs_repeatedly() {
        let executor = Executor::new(2);
        let counter = Arc::new(AtomicUsize::new(0));
        let c2 = Arc::clone(&counter);
        executor.spawn(async move {
            for _ in 0..10 {
                c2.fetch_add(1, Ordering::SeqCst);
                yield_now().await;
            }
        });
        executor.wait_idle();
        assert_eq!(counter.load(Ordering::SeqCst), 10);
    }

    #[test]
    fn suspension_and_wakeup() {
        let executor = Executor::new(2);
        let request: Arc<Request<u64>> = Arc::new(Request::new());
        let result = Arc::new(AtomicUsize::new(0));
        let (polled_tx, polled_rx) = mpsc::channel();

        let r2 = Arc::clone(&request);
        let res2 = Arc::clone(&result);
        executor.spawn(async move {
            let mut polls = 0;
            let v = poll_fn(|cx| {
                let poll = r2.poll(cx);
                polls += 1;
                polled_tx.send(polls).unwrap();
                poll
            })
            .await
            .expect("never cancelled");
            res2.store(v as usize, Ordering::SeqCst);
        });

        // The first poll registered the task's waker and returned `Pending`.
        assert_eq!(polled_rx.recv(), Ok(1));
        assert_eq!(executor.live_count(), 1, "coroutine must be suspended");
        request.complete(55).unwrap();
        executor.wait_idle();
        assert_eq!(polled_rx.try_iter().last(), Some(2), "one wake, one poll");
        assert_eq!(result.load(Ordering::SeqCst), 55);
    }

    #[test]
    fn wake_before_park_is_not_lost() {
        // One carrier, so the interleaving is fixed. The first task's wake
        // fires from inside its own poll, which still returns `Pending`;
        // the second is woken by a sibling while suspended.
        let executor = Executor::new(1);
        let done = Arc::new(AtomicUsize::new(0));

        let own: Arc<Request<u32>> = Arc::new(Request::new());
        let d = Arc::clone(&done);
        executor.spawn(async move {
            let mut first = true;
            let v = poll_fn(|cx| {
                if first {
                    first = false;
                    assert!(own.poll(cx).is_pending());
                    own.complete(7).unwrap();
                    return Poll::Pending;
                }
                own.poll(cx)
            })
            .await;
            assert_eq!(v, Ok(7));
            d.fetch_add(1, Ordering::SeqCst);
        });

        let handed: Arc<Request<u32>> = Arc::new(Request::new());
        let waiting = CqsFuture::suspended(Arc::clone(&handed));
        let d = Arc::clone(&done);
        executor.spawn(async move {
            assert_eq!(waiting.await, Ok(9));
            d.fetch_add(1, Ordering::SeqCst);
        });
        executor.spawn(async move { handed.complete(9).unwrap() });

        executor.wait_idle_checked().unwrap();
        assert_eq!(done.load(Ordering::SeqCst), 2);
    }

    /// 10 000 rounds in which a task hands its waker to another thread and
    /// keeps polling: the wake lands during the poll or just after it. A
    /// wake that enqueued a running task would have the second carrier poll
    /// it too (concurrently, or once more than it was woken); a wake
    /// dropped on the floor would strand it.
    #[test]
    fn wake_during_poll_neither_doubles_nor_strands() {
        const TASKS: usize = 4;
        const ROUNDS: usize = 2_500;
        let executor = Executor::new(2);
        let (waker_tx, waker_rx) = mpsc::channel::<Waker>();
        let remote = std::thread::spawn(move || waker_rx.iter().for_each(Waker::wake));
        let (done_tx, done_rx) = mpsc::channel();
        let polls = Arc::new(AtomicUsize::new(0));

        for _ in 0..TASKS {
            let waker_tx = waker_tx.clone();
            let done_tx = done_tx.clone();
            let polls = Arc::clone(&polls);
            let in_poll = AtomicBool::new(false);
            executor.spawn(async move {
                for round in 0..ROUNDS {
                    let mut handed_off = false;
                    poll_fn(|cx| {
                        assert!(
                            !in_poll.swap(true, Ordering::SeqCst),
                            "polled twice at once"
                        );
                        polls.fetch_add(1, Ordering::Relaxed);
                        let poll = if handed_off {
                            Poll::Ready(())
                        } else {
                            handed_off = true;
                            waker_tx.send(cx.waker().clone()).unwrap();
                            if round % 2 == 0 {
                                // Give the remote wake time to land mid-poll.
                                std::thread::yield_now();
                            }
                            Poll::Pending
                        };
                        in_poll.store(false, Ordering::SeqCst);
                        poll
                    })
                    .await;
                }
                done_tx.send(()).unwrap();
            });
        }
        drop((waker_tx, done_tx));

        // A panicked task drops its sender, so this ends early, not late.
        let finished = (0..TASKS)
            .map_while(|_| done_rx.recv_timeout(Duration::from_secs(60)).ok())
            .count();
        assert_eq!(executor.panic_count(), 0);
        assert_eq!(finished, TASKS, "a task was stranded");
        executor.wait_idle();
        assert_eq!(
            polls.load(Ordering::Relaxed),
            2 * TASKS * ROUNDS,
            "one poll per wake"
        );
        remote.join().unwrap();
    }

    #[test]
    fn many_coroutines_many_threads() {
        let executor = Executor::new(4);
        let counter = Arc::new(AtomicUsize::new(0));
        for _ in 0..1000 {
            let counter = Arc::clone(&counter);
            executor.spawn(async move {
                for step in 0..3 {
                    if step > 0 {
                        yield_now().await;
                    }
                    counter.fetch_add(1, Ordering::SeqCst);
                }
            });
        }
        executor.wait_idle();
        assert_eq!(counter.load(Ordering::SeqCst), 3000);
    }

    #[test]
    fn drop_shuts_down_workers() {
        let executor = Executor::new(3);
        executor.spawn(async {});
        executor.wait_idle();
        drop(executor); // must not hang
    }
}

#[cfg(test)]
mod panic_tests {
    use super::*;

    #[test]
    fn panicking_coroutine_does_not_kill_the_executor() {
        let executor = Executor::new(1);
        executor.spawn(async { panic!("boom") });
        executor.wait_idle();
        // The single worker must still be alive and able to run tasks.
        let ran = Arc::new(AtomicUsize::new(0));
        let r2 = Arc::clone(&ran);
        executor.spawn(async move {
            r2.fetch_add(1, Ordering::SeqCst);
        });
        executor.wait_idle();
        assert_eq!(ran.load(Ordering::SeqCst), 1);
        assert_eq!(executor.panic_count(), 1);
    }

    #[test]
    fn wait_idle_checked_surfaces_payloads_once() {
        let executor = Executor::new(2);
        executor.spawn(async { panic!("first failure") });
        executor.spawn(async {
            panic!("code {}", 42); // formatted payload → String
        });
        let err = executor.wait_idle_checked().unwrap_err();
        assert_eq!(err.payloads.len(), 2);
        assert!(err.payloads.contains(&"first failure".to_string()));
        assert!(err.payloads.contains(&"code 42".to_string()));
        assert!(err.to_string().contains("2 coroutine(s) panicked"));
        assert_eq!(executor.panic_count(), 2);
        // Drained: a second check is clean, the lifetime counter is not.
        executor.wait_idle_checked().unwrap();
        assert_eq!(executor.panic_count(), 2);
    }

    #[test]
    fn wait_idle_checked_ok_when_nothing_panicked() {
        let executor = Executor::new(1);
        executor.spawn(async {});
        executor.wait_idle_checked().unwrap();
        assert_eq!(executor.panic_count(), 0);
    }
}

#[cfg(test)]
mod order_tests {
    use super::*;

    /// A single-threaded executor runs ready coroutines in FIFO spawn order.
    #[test]
    fn single_worker_runs_fifo() {
        let executor = Executor::new(1);
        let log = Arc::new(Mutex::new(Vec::new()));
        // Occupy the worker so spawns below queue up deterministically.
        let gate = Arc::new(AtomicUsize::new(0));
        let g2 = Arc::clone(&gate);
        executor.spawn(async move {
            while g2.load(Ordering::SeqCst) == 0 {
                std::thread::yield_now();
                yield_now().await;
            }
        });
        for i in 0..5 {
            let log = Arc::clone(&log);
            executor.spawn(async move { log.lock().unwrap().push(i) });
        }
        gate.store(1, Ordering::SeqCst);
        executor.wait_idle();
        // The gate coroutine yields between each, so the five tasks ran in
        // spawn order interleaved with it.
        assert_eq!(*log.lock().unwrap(), vec![0, 1, 2, 3, 4]);
    }

    /// `wait_idle` returns immediately when nothing was spawned.
    #[test]
    fn wait_idle_on_empty_executor() {
        let executor = Executor::new(2);
        executor.wait_idle();
        assert_eq!(executor.live_count(), 0);
    }

    /// Coroutines outlive bursts of idleness: spawn, drain, spawn again.
    #[test]
    fn multiple_idle_cycles() {
        let executor = Executor::new(2);
        let count = Arc::new(AtomicUsize::new(0));
        for _round in 0..5 {
            for _ in 0..20 {
                let count = Arc::clone(&count);
                executor.spawn(async move {
                    count.fetch_add(1, Ordering::SeqCst);
                });
            }
            executor.wait_idle();
        }
        assert_eq!(count.load(Ordering::SeqCst), 100);
    }
}
