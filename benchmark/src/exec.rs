//! The benchmark's own single-carrier executor: a FIFO run queue of tasks
//! polled on the calling thread. It exists so the async workloads depend on
//! nothing but the `std::future::Future` impls of the library's futures.
//!
//! FIFO matters: a waker fired by `release()` appends its task, so tasks
//! observe their grants in the order the library resumed them — which is
//! what the FIFO output check compares against enqueue tickets.

use std::collections::VecDeque;
use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::{AtomicBool, Ordering::Relaxed};
use std::sync::{Arc, Mutex};
use std::task::{Context, Poll, Wake, Waker};

struct RunQueue {
    ready: Mutex<VecDeque<usize>>,
    /// Per task: already in `ready`, so a second wake is a no-op.
    queued: Vec<AtomicBool>,
}

struct TaskWaker {
    id: usize,
    queue: Arc<RunQueue>,
}

impl Wake for TaskWaker {
    fn wake(self: Arc<Self>) {
        self.wake_by_ref();
    }

    fn wake_by_ref(self: &Arc<Self>) {
        if !self.queue.queued[self.id].swap(true, Relaxed) {
            self.queue.ready.lock().unwrap().push_back(self.id);
        }
    }
}

type Task = Pin<Box<dyn Future<Output = ()>>>;

pub struct Executor {
    tasks: Vec<Option<Task>>,
    wakers: Vec<Waker>,
    queue: Arc<RunQueue>,
    live: usize,
}

impl Executor {
    /// An executor for at most `capacity` tasks; the run queue is sized up
    /// front so scheduling never allocates.
    pub fn new(capacity: usize) -> Self {
        Executor {
            tasks: Vec::with_capacity(capacity),
            wakers: Vec::with_capacity(capacity),
            queue: Arc::new(RunQueue {
                ready: Mutex::new(VecDeque::with_capacity(capacity)),
                queued: (0..capacity).map(|_| AtomicBool::new(false)).collect(),
            }),
            live: 0,
        }
    }

    /// Adds a task at the back of the run queue.
    pub fn spawn(&mut self, task: impl Future<Output = ()> + 'static) {
        let id = self.tasks.len();
        assert!(id < self.queue.queued.len(), "executor capacity exceeded");
        let waker = Waker::from(Arc::new(TaskWaker {
            id,
            queue: Arc::clone(&self.queue),
        }));
        waker.wake_by_ref();
        self.tasks.push(Some(Box::pin(task)));
        self.wakers.push(waker);
        self.live += 1;
    }

    /// Tasks that have not run to completion.
    pub fn live(&self) -> usize {
        self.live
    }

    /// Polls ready tasks in FIFO order until `done()` holds (checked before
    /// every poll) or no task is runnable. Returns whether `done()` held.
    pub fn run_until(&mut self, mut done: impl FnMut() -> bool) -> bool {
        loop {
            if done() {
                return true;
            }
            let Some(id) = self.queue.ready.lock().unwrap().pop_front() else {
                return false;
            };
            // Cleared before the poll so a wake during it re-queues the task.
            self.queue.queued[id].store(false, Relaxed);
            if let Some(task) = &mut self.tasks[id] {
                let mut cx = Context::from_waker(&self.wakers[id]);
                if task.as_mut().poll(&mut cx).is_ready() {
                    self.tasks[id] = None;
                    self.live -= 1;
                }
            }
        }
    }
}

/// Resolves on its second poll, after every task that was already runnable
/// has had its turn: one scheduling round.
pub struct YieldNow(bool);

pub fn yield_now() -> YieldNow {
    YieldNow(false)
}

impl Future for YieldNow {
    type Output = ();

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        if self.0 {
            return Poll::Ready(());
        }
        self.0 = true;
        cx.waker().wake_by_ref();
        Poll::Pending
    }
}
