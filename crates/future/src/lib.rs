#![warn(missing_docs)]

//! The future model the CQS framework suspends on (paper, Appendix A).
//!
//! A blocking operation such as `Mutex::lock()` is split at its suspension
//! point: instead of blocking the thread, it returns a [`CqsFuture`]. If the
//! operation completed without suspending, the future is an *immediate
//! result*; otherwise it wraps a [`Request`] registered in the waiter queue,
//! completed later by a `resume(..)` and cancellable via
//! [`CqsFuture::cancel`].
//!
//! The same object serves threads and async code (coroutines included):
//!
//! * [`CqsFuture::wait`] parks the calling thread until completion;
//! * [`CqsFuture`] implements [`std::future::Future`], which is how
//!   `cqs-exec` tasks await it.
//!
//! A request wakes one thing when it settles: its [`std::task::Waker`]. A
//! blocked thread is a waker too: `wait` registers the thread's cached park
//! waker through the same path a poll takes, and [`block_on`] drives any
//! future with it.
//!
//! # Example
//!
//! ```
//! use cqs_future::{CqsFuture, Request};
//! use std::sync::Arc;
//!
//! // An operation that completed without suspension:
//! let fut = CqsFuture::immediate(42);
//! assert_eq!(fut.wait(), Ok(42));
//!
//! // An operation that suspended; someone completes it later:
//! let request = Arc::new(Request::<u32>::new());
//! let fut = CqsFuture::suspended(Arc::clone(&request));
//! request.complete(7).unwrap();
//! assert_eq!(fut.wait(), Ok(7));
//! ```

use std::cell::UnsafeCell;
use std::error::Error;
use std::fmt;
use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::task::{Context, Poll, Wake, Waker};
use std::thread::Thread;
use std::time::{Duration, Instant};

/// How many times [`Request::wait`] spins on the state word before it
/// starts yielding: catches completions a few cache misses away.
const SPIN: u32 = 64;
/// How many times [`Request::wait`] yields before it parks: on an
/// oversubscribed machine this donates the timeslice to the resumer instead
/// of paying a park/unpark round trip.
const YIELDS: u32 = 16;

/// Wakes a thread blocked in [`park_loop`].
struct ThreadWaker(Thread);

impl Wake for ThreadWaker {
    fn wake(self: Arc<Self>) {
        cqs_stats::bump!(unparks);
        self.0.unpark();
    }
}

fn park_waker() -> Waker {
    Waker::from(Arc::new(ThreadWaker(std::thread::current())))
}

thread_local! {
    /// The thread's park waker, made once so that a wait allocates nothing.
    static PARK_WAKER: Waker = park_waker();
}

/// The one thread-park loop: polls with the calling thread's park waker and
/// parks between polls until `poll` is ready, or returns `None` once
/// `deadline` has passed. A wake that lands before the park makes it return
/// at once, and a spurious return only costs one more poll.
fn park_loop<R>(
    deadline: Option<Instant>,
    mut poll: impl FnMut(&mut Context<'_>) -> Poll<R>,
) -> Option<R> {
    let mut run = |waker: &Waker| {
        let mut cx = Context::from_waker(waker);
        loop {
            if let Poll::Ready(output) = poll(&mut cx) {
                return Some(output);
            }
            let left = deadline.map(|deadline| deadline.saturating_duration_since(Instant::now()));
            if left == Some(Duration::ZERO) {
                return None;
            }
            cqs_stats::bump!(parks);
            match left {
                None => std::thread::park(),
                Some(left) => std::thread::park_timeout(left),
            }
        }
    };
    // A wait from a thread-local destructor may find the cached waker gone.
    PARK_WAKER
        .try_with(|waker| run(waker))
        .unwrap_or_else(|_| run(&park_waker()))
}

/// Drives `future` to completion on the calling thread, parking it between
/// polls. For code outside an executor that needs one result.
pub fn block_on<F: Future>(future: F) -> F::Output {
    let mut future = std::pin::pin!(future);
    park_loop(None, |cx| future.as_mut().poll(cx)).expect("only a deadline ends the park loop")
}

/// The operation was aborted by [`CqsFuture::cancel`] before completion.
///
/// Corresponds to the paper's `⊥` result of `Future.get()`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Cancelled;

impl fmt::Display for Cancelled {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("operation was cancelled before completion")
    }
}

impl Error for Cancelled {}

/// Non-blocking observation of a future's state.
#[derive(Debug, PartialEq, Eq)]
pub enum FutureState<T> {
    /// Not completed yet (`get()` returns `null` in the paper's model).
    Pending,
    /// Completed with a value.
    Ready(T),
    /// Cancelled (`get()` returns `⊥`).
    Cancelled,
}

/// Invoked exactly once when a pending [`Request`] is successfully
/// cancelled. In the CQS this is where the cell transitions to `CANCELLED`
/// or `REFUSE` (paper, Listing 5 `cancellationHandler`).
///
/// A handler is shared, not owned, by the requests it serves: installing
/// it stores an `Arc` clone plus a `slot` telling it *which* of its
/// waiters was cancelled (a CQS segment is the handler of every cell it
/// holds; `slot` is the cell index). Installing is therefore a
/// reference-count bump, never an allocation.
pub trait CancellationHandler: Send + Sync {
    /// Reacts to the cancellation of the request installed with `slot`.
    fn on_cancel(self: Arc<Self>, slot: usize);
}

impl<F: Fn() + Send + Sync> CancellationHandler for F {
    fn on_cancel(self: Arc<Self>, _slot: usize) {
        self()
    }
}

const PENDING: u8 = 0;
const COMPLETING: u8 = 1;
const COMPLETED: u8 = 2;
const CANCELLED: u8 = 3;
const TAKEN: u8 = 4;

/// A wake-up extracted from a completed (or cancelled) [`Request`] but not
/// fired yet.
///
/// The batched resumption path in `cqs-core` completes many requests in one
/// segment traversal; running wakers inline there would execute arbitrary
/// user code (and `unpark` syscalls) while the resumer still holds an
/// epoch pin. Instead, [`Request::complete_deferred`] /
/// [`Request::cancel_deferred`] return the extracted handles as a
/// `PendingWake`, collected into a [`WakeBatch`] and fired after the
/// traversal ends.
///
/// The request itself is already in its terminal state by the time a
/// `PendingWake` exists — only the *notification* is deferred. A waiter
/// that polls (or re-checks after registering) observes the completion
/// immediately; deferral can never turn a completed request back into a
/// pending one.
#[derive(Default)]
pub struct PendingWake {
    waker: Option<Waker>,
}

impl PendingWake {
    /// Whether there is nothing to wake (no waker registered at extraction
    /// time).
    pub fn is_empty(&self) -> bool {
        self.waker.is_none()
    }

    /// Wakes the waiter, if one was registered.
    pub fn fire(mut self) {
        self.fire_remaining();
    }

    /// Takes the waker out before waking it, so that an unwound (panicking)
    /// wake is not retried by [`Drop`].
    fn fire_remaining(&mut self) {
        if let Some(waker) = self.waker.take() {
            waker.wake();
        }
    }
}

impl Drop for PendingWake {
    /// A `PendingWake` is a must-deliver token: its request is already
    /// terminal, so an extracted-but-unfired wake is a stranded waiter. If
    /// the holder unwinds (a panic between extraction and `fire`, e.g. an
    /// injected crash fault), deliver here — swallowing waker panics, since
    /// this drop may itself run during an unwind.
    fn drop(&mut self) {
        if self.is_empty() {
            return;
        }
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| self.fire_remaining()));
    }
}

impl fmt::Debug for PendingWake {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PendingWake")
            .field("waker", &self.waker.is_some())
            .finish()
    }
}

/// Inline capacity of a [`WakeBatch`]; batches beyond this many non-empty
/// wakes spill to the heap (counted by [`wake_batch_spill_count`]).
pub const WAKE_BATCH_INLINE: usize = 8;

/// Count of `WakeBatch`es that outgrew their inline capacity and allocated.
/// Always compiled (independent of the `stats` feature): the benchmark
/// report uses it to flag runs whose batches overflow to heap.
static WAKE_BATCH_SPILLS: AtomicU64 = AtomicU64::new(0);

/// Number of [`WakeBatch`]es that spilled past [`WAKE_BATCH_INLINE`] onto
/// the heap since the process started (one increment per batch, however far
/// it spilled).
pub fn wake_batch_spill_count() -> u64 {
    WAKE_BATCH_SPILLS.load(Ordering::Relaxed)
}

/// An on-stack collection of [`PendingWake`]s, fired together after a batch
/// traversal completes.
///
/// Holds up to [`WAKE_BATCH_INLINE`] wakes without allocating; larger
/// batches spill into a `Vec` (counted once per batch by
/// [`wake_batch_spill_count`]). Dropping a non-empty batch fires the
/// remaining wakes — a panic mid-traversal must not strand waiters whose
/// requests were already completed.
#[derive(Default, Debug)]
pub struct WakeBatch {
    inline: [Option<PendingWake>; WAKE_BATCH_INLINE],
    inline_len: usize,
    spill: Vec<PendingWake>,
}

impl WakeBatch {
    /// Creates an empty batch.
    pub fn new() -> Self {
        WakeBatch::default()
    }

    /// Adds a wake to the batch. Empty wakes (nobody registered yet — the
    /// waiter will observe the terminal state on its next poll) are dropped
    /// instead of occupying a slot.
    pub fn push(&mut self, wake: PendingWake) {
        if wake.is_empty() {
            return;
        }
        if self.inline_len < WAKE_BATCH_INLINE {
            self.inline[self.inline_len] = Some(wake);
            self.inline_len += 1;
        } else {
            if self.spill.is_empty() {
                WAKE_BATCH_SPILLS.fetch_add(1, Ordering::Relaxed);
            }
            self.spill.push(wake);
        }
    }

    /// Number of pending wakes held.
    pub fn len(&self) -> usize {
        self.inline_len + self.spill.len()
    }

    /// Whether no wakes are held.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Fires every held wake, in insertion order, leaving the batch empty.
    ///
    /// Each wake fires inside a panic-isolation boundary: a panicking waker
    /// cannot prevent the remaining wakes from firing. Once every wake has
    /// fired, the *first* captured panic is re-raised for the caller.
    pub fn fire(&mut self) {
        if let Some(panic) = self.fire_collect() {
            std::panic::resume_unwind(panic);
        }
    }

    /// Fires every held wake (panic-isolated, insertion order) and returns
    /// the first captured panic payload instead of re-raising it.
    fn fire_collect(&mut self) -> Option<Box<dyn std::any::Any + Send>> {
        fn fire_one(wake: PendingWake, first: &mut Option<Box<dyn std::any::Any + Send>>) {
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                cqs_chaos::fault!("future.wake.fault.pre-fire");
                wake.fire();
            }));
            if let Err(panic) = outcome {
                if first.is_none() {
                    *first = Some(panic);
                }
            }
        }

        let mut first = None;
        for slot in self.inline.iter_mut().take(self.inline_len) {
            if let Some(wake) = slot.take() {
                fire_one(wake, &mut first);
            }
        }
        self.inline_len = 0;
        for wake in self.spill.drain(..) {
            fire_one(wake, &mut first);
        }
        first
    }
}

impl Drop for WakeBatch {
    fn drop(&mut self) {
        // Every remaining wake still fires, but captured panic payloads are
        // swallowed: the drop may already be running during an unwind (the
        // batched-resume recovery paths rely on exactly that), and
        // re-raising from a destructor would abort the process.
        let _ = self.fire_collect();
    }
}

/// A suspended request: the waiter object stored in a CQS cell (paper,
/// Listing 9 `Request<R>`).
///
/// Exactly one party may successfully [`complete`](Request::complete) it and
/// exactly one party may successfully [`cancel`](Request::cancel) it; the two
/// race and atomically resolve in favour of one side.
pub struct Request<T> {
    state: AtomicU8,
    value: UnsafeCell<Option<T>>,
    /// A task's waker or a blocked thread's park waker; the latest
    /// registration wins.
    waker: Mutex<Option<Waker>>,
    /// The shared handler and this request's slot in it, stored inline.
    handler: OnceLock<(Arc<dyn CancellationHandler>, usize)>,
    /// Set when `cancel()` won the race before a handler was installed;
    /// the installer then runs the handler itself.
    handler_due: AtomicBool,
    handler_ran: AtomicBool,
}

// SAFETY: the value slot is written by the (unique) completer before the
// `COMPLETED` release-store and read by the (unique) taker after an acquire
// load, so `T: Send` suffices for cross-thread handoff.
unsafe impl<T: Send> Send for Request<T> {}
unsafe impl<T: Send> Sync for Request<T> {}

impl<T> Request<T> {
    /// Creates a pending request with no cancellation handler.
    pub fn new() -> Self {
        Request {
            state: AtomicU8::new(PENDING),
            value: UnsafeCell::new(None),
            waker: Mutex::new(None),
            handler: OnceLock::new(),
            handler_due: AtomicBool::new(false),
            handler_ran: AtomicBool::new(false),
        }
    }

    /// Installs the cancellation handler. May be called at most once, before
    /// the request is handed to user code (paper: the handler is a
    /// constructor argument; here it is installed right after the request is
    /// placed into its cell, when the segment and index are known). `slot`
    /// is handed back to [`CancellationHandler::on_cancel`].
    ///
    /// If a racing [`cancel`](Request::cancel) already succeeded, the handler
    /// runs immediately on this thread.
    ///
    /// # Panics
    ///
    /// Panics if a handler was already installed.
    pub fn set_cancellation_handler(&self, handler: Arc<dyn CancellationHandler>, slot: usize) {
        cqs_chaos::inject!("future.handler.install-window");
        if self.handler.set((handler, slot)).is_err() {
            panic!("cancellation handler installed twice");
        }
        cqs_chaos::inject!("future.handler.installed.pre-due-check");
        if self.handler_due.load(Ordering::Acquire) {
            self.run_handler_once();
        }
    }

    fn run_handler_once(&self) {
        if let Some((handler, slot)) = self.handler.get() {
            if !self.handler_ran.swap(true, Ordering::AcqRel) {
                cqs_chaos::inject!("future.handler.pre-run");
                Arc::clone(handler).on_cancel(*slot);
            }
        } else {
            self.handler_due.store(true, Ordering::Release);
        }
    }

    /// Completes the request with `value`, waking any waiter.
    ///
    /// # Errors
    ///
    /// Returns the value back if the request was already cancelled (or, in
    /// violation of the single-completer contract, already completed).
    pub fn complete(&self, value: T) -> Result<(), T> {
        self.publish(value)?;
        self.wake();
        Ok(())
    }

    /// Like [`complete`](Request::complete), but instead of waking the
    /// waiter inline, returns its extracted wake handles as a
    /// [`PendingWake`] for the caller to [`fire`](PendingWake::fire) later
    /// (typically via a [`WakeBatch`]).
    ///
    /// The request is fully `COMPLETED` when this returns — a polling
    /// waiter can take the value immediately; only the notification is
    /// deferred.
    ///
    /// # Errors
    ///
    /// Returns the value back if the request was already cancelled or
    /// completed.
    pub fn complete_deferred(&self, value: T) -> Result<PendingWake, T> {
        self.publish(value)?;
        cqs_chaos::inject!("future.complete.pre-extract-wake");
        Ok(self.extract_wake())
    }

    /// The body `complete` and `complete_deferred` share: wins the state
    /// CAS and publishes `value`, or hands it back.
    fn publish(&self, value: T) -> Result<(), T> {
        cqs_chaos::inject!("future.complete.pre-cas");
        if self
            .state
            .compare_exchange(PENDING, COMPLETING, Ordering::AcqRel, Ordering::Acquire)
            .is_err()
        {
            return Err(value);
        }
        cqs_chaos::inject!("future.complete.completing-window");
        // SAFETY: the CAS above made us the unique completer; no one reads
        // the slot until they observe COMPLETED.
        unsafe { *self.value.get() = Some(value) };
        self.state.store(COMPLETED, Ordering::Release);
        Ok(())
    }

    /// Atomically aborts the request if it is still pending. On success the
    /// cancellation handler (if any) is invoked on the calling thread.
    ///
    /// Returns `true` if this call cancelled the request, `false` if it was
    /// already completed (or cancelled).
    pub fn cancel(&self) -> bool {
        let won = self.abort();
        if won {
            self.wake();
        }
        won
    }

    /// Like [`cancel`](Request::cancel), but defers the waiter wake-up: on
    /// success the cancellation handler still runs inline (its cell-state
    /// bookkeeping must happen before anyone else traverses the queue), and
    /// the extracted wake handles come back as a [`PendingWake`].
    ///
    /// Used by the batched `Cqs::close()` sweep, which cancels every queued
    /// waiter in one traversal and fires the wakes afterwards.
    pub fn cancel_deferred(&self) -> Option<PendingWake> {
        self.abort().then(|| self.extract_wake())
    }

    /// The body `cancel` and `cancel_deferred` share: wins the state CAS
    /// and runs the cancellation handler.
    fn abort(&self) -> bool {
        cqs_chaos::inject!("future.cancel.pre-cas");
        if self
            .state
            .compare_exchange(PENDING, CANCELLED, Ordering::AcqRel, Ordering::Acquire)
            .is_err()
        {
            return false;
        }
        cqs_chaos::inject!("future.cancel.pre-handler");
        self.run_handler_once();
        true
    }

    /// Whether the request reached a terminal state.
    pub fn is_terminated(&self) -> bool {
        matches!(
            self.state.load(Ordering::Acquire),
            COMPLETED | CANCELLED | TAKEN
        )
    }

    /// Whether the request was cancelled.
    pub fn is_cancelled(&self) -> bool {
        self.state.load(Ordering::Acquire) == CANCELLED
    }

    /// Attempts to take the completion value. At most one call ever returns
    /// `Ready`.
    fn try_take(&self) -> FutureState<T> {
        match self.state.load(Ordering::Acquire) {
            PENDING | COMPLETING => FutureState::Pending,
            CANCELLED => FutureState::Cancelled,
            TAKEN => panic!("completion value taken twice"),
            _ => {
                match self.state.compare_exchange(
                    COMPLETED,
                    TAKEN,
                    Ordering::AcqRel,
                    Ordering::Acquire,
                ) {
                    // SAFETY: the CAS made us the unique taker; the completer
                    // published the value before storing COMPLETED.
                    Ok(_) => FutureState::Ready(
                        unsafe { (*self.value.get()).take() }
                            .expect("completed request must hold a value"),
                    ),
                    Err(CANCELLED) => FutureState::Cancelled,
                    Err(_) => panic!("completion value taken twice"),
                }
            }
        }
    }

    fn try_settled(&self) -> Option<Result<T, Cancelled>> {
        match self.try_take() {
            FutureState::Ready(v) => Some(Ok(v)),
            FutureState::Cancelled => Some(Err(Cancelled)),
            FutureState::Pending => None,
        }
    }

    /// Blocks until the request is completed or cancelled and takes the
    /// value: the waiter's half of the protocol, behind [`CqsFuture::wait`]
    /// and open to holders that embed the request in a larger allocation.
    /// Single-consumer, like the future.
    ///
    /// Parking is a syscall on both sides (a futex wait here, a futex wake
    /// for the resumer), so when completions arrive within the latency of a
    /// hand-off it is cheaper to poll the state word first: 64 spins, then
    /// 16 yields. A completion landing in that window is taken without ever
    /// registering a waker. Only then does the thread register its park
    /// waker through [`poll`](Self::poll) and park until woken.
    pub fn wait(&self) -> Result<T, Cancelled> {
        if let Some(settled) = self.try_settled() {
            return settled;
        }
        cqs_chaos::inject!("future.wait.spin-phase");
        for _ in 0..SPIN {
            std::hint::spin_loop();
            if let Some(settled) = self.try_settled() {
                return settled;
            }
        }
        cqs_chaos::inject!("future.wait.yield-phase");
        for _ in 0..YIELDS {
            std::thread::yield_now();
            if let Some(settled) = self.try_settled() {
                return settled;
            }
        }
        cqs_chaos::inject!("future.wait.park-phase");
        park_loop(None, |cx| self.poll(cx)).expect("only a deadline ends the park loop")
    }

    /// Like [`wait`](Self::wait) but cancels the request after `timeout`,
    /// and parks at once instead of spinning first.
    pub fn wait_timeout(&self, timeout: Duration) -> Result<T, Cancelled> {
        let deadline = Instant::now() + timeout;
        loop {
            if let Some(settled) = park_loop(Some(deadline), |cx| self.poll(cx)) {
                return settled;
            }
            if self.cancel() {
                return Err(Cancelled);
            }
            // A completion raced the timeout; take it.
        }
    }

    /// The waiter's half of `Future::poll`: takes the value if the request
    /// is terminal, otherwise registers `cx`'s waker and re-checks.
    pub fn poll(&self, cx: &mut Context<'_>) -> Poll<Result<T, Cancelled>> {
        if let Some(settled) = self.try_settled() {
            return Poll::Ready(settled);
        }
        *self.waker.lock().unwrap() = Some(cx.waker().clone());
        match self.try_settled() {
            Some(settled) => Poll::Ready(settled),
            None => Poll::Pending,
        }
    }

    fn wake(&self) {
        self.extract_wake().fire();
    }

    /// Empties the waker slot into a [`PendingWake`]. A waiter registering
    /// *after* this extraction re-checks the (already terminal) state before
    /// parking, so an empty extraction can never strand it.
    fn extract_wake(&self) -> PendingWake {
        PendingWake {
            waker: self.waker.lock().unwrap().take(),
        }
    }
}

impl<T> Default for Request<T> {
    fn default() -> Self {
        Self::new()
    }
}

// Lets the watchdog registry observe and (under an eviction policy) abort a
// suspended request without knowing `T`. The impl is unconditional — with
// the `watch` feature off no registration site exists, so it is dead code.
impl<T: Send + 'static> cqs_watch::WaiterHandle for Request<T> {
    fn is_terminated(&self) -> bool {
        Request::is_terminated(self)
    }

    fn cancel(&self) -> bool {
        Request::cancel(self)
    }
}

impl<T> fmt::Debug for Request<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let state = match self.state.load(Ordering::Relaxed) {
            PENDING => "pending",
            COMPLETING => "completing",
            COMPLETED => "completed",
            CANCELLED => "cancelled",
            _ => "taken",
        };
        f.debug_struct("Request").field("state", &state).finish()
    }
}

enum Inner<T> {
    /// Operation completed without suspension (paper: `ImmediateResult`).
    /// The option is emptied by the first take.
    Immediate(Option<T>),
    /// Operation suspended; the request lives in a CQS cell too.
    Suspended(Arc<Request<T>>),
    /// Operation refused up front (a closed primitive): terminal from
    /// birth, so there is no request to allocate, cancel or wake.
    Cancelled,
}

/// The result of a potentially blocking operation (paper, Appendix A).
///
/// `CqsFuture` is an owned, single-consumer handle: taking the value
/// requires `&mut self` or consumes the future. It can be observed without
/// blocking ([`try_get`](Self::try_get)), waited on synchronously
/// ([`wait`](Self::wait)) or awaited as a [`std::future::Future`].
pub struct CqsFuture<T> {
    inner: Inner<T>,
}

impl<T> CqsFuture<T> {
    /// Wraps a value produced without suspension.
    pub fn immediate(value: T) -> Self {
        CqsFuture {
            inner: Inner::Immediate(Some(value)),
        }
    }

    /// Wraps a suspended request.
    pub fn suspended(request: Arc<Request<T>>) -> Self {
        CqsFuture {
            inner: Inner::Suspended(request),
        }
    }

    /// An already-cancelled future: every observation reports
    /// [`Cancelled`]. Used by primitives to fail an operation fast — e.g.
    /// an `acquire()` against a closed semaphore — without touching the
    /// waiter queue, the allocator or a waker mutex.
    pub fn cancelled() -> Self {
        CqsFuture {
            inner: Inner::Cancelled,
        }
    }

    /// Whether the operation completed without suspending. Mirrors the
    /// practical optimization mentioned in the paper: real implementations
    /// return the raw value instead of an `ImmediateResult` wrapper.
    pub fn is_immediate(&self) -> bool {
        matches!(self.inner, Inner::Immediate(_))
    }

    /// Non-blocking check; takes the value if ready.
    ///
    /// # Panics
    ///
    /// Panics if a previous call already returned the value.
    pub fn try_get(&mut self) -> FutureState<T> {
        match &mut self.inner {
            Inner::Immediate(v) => match v.take() {
                Some(v) => FutureState::Ready(v),
                None => panic!("completion value taken twice"),
            },
            Inner::Suspended(r) => r.try_take(),
            Inner::Cancelled => FutureState::Cancelled,
        }
    }

    /// Cancels the operation if it has not completed yet. Returns `true` if
    /// this call aborted it. Immediate results can never be cancelled.
    pub fn cancel(&self) -> bool {
        match &self.inner {
            Inner::Suspended(r) => r.cancel(),
            Inner::Immediate(_) | Inner::Cancelled => false,
        }
    }

    /// Blocks the calling thread until the operation completes or is
    /// cancelled.
    ///
    /// # Errors
    ///
    /// Returns [`Cancelled`] if the request was aborted.
    pub fn wait(self) -> Result<T, Cancelled> {
        match self.inner {
            Inner::Immediate(v) => Ok(v.expect("completion value taken twice")),
            Inner::Suspended(r) => r.wait(),
            Inner::Cancelled => Err(Cancelled),
        }
    }

    /// Like [`wait`](Self::wait) but cancels the request after `timeout`.
    pub fn wait_timeout(self, timeout: Duration) -> Result<T, Cancelled> {
        match self.inner {
            Inner::Immediate(v) => Ok(v.expect("completion value taken twice")),
            Inner::Suspended(r) => r.wait_timeout(timeout),
            Inner::Cancelled => Err(Cancelled),
        }
    }
}

// The future never holds self-referential state: `T` is only ever moved out
// whole, so pinning imposes no obligations.
impl<T> Unpin for CqsFuture<T> {}

impl<T> Future for CqsFuture<T> {
    type Output = Result<T, Cancelled>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        match &mut self.get_mut().inner {
            Inner::Immediate(v) => Poll::Ready(Ok(v.take().expect("completion value taken twice"))),
            Inner::Suspended(r) => r.poll(cx),
            Inner::Cancelled => Poll::Ready(Err(Cancelled)),
        }
    }
}

impl<T> fmt::Debug for CqsFuture<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.inner {
            Inner::Immediate(_) => f.write_str("CqsFuture::Immediate"),
            Inner::Suspended(r) => f.debug_tuple("CqsFuture::Suspended").field(r).finish(),
            Inner::Cancelled => f.write_str("CqsFuture::Cancelled"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    /// Registers a task waker on the pending `request` the way an executor
    /// does, through a poll, and returns that waker's wake count.
    pub(super) fn register_waker<T>(request: &Request<T>) -> Arc<AtomicUsize> {
        struct Counting(Arc<AtomicUsize>);
        impl Wake for Counting {
            fn wake(self: Arc<Self>) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }
        let wakes = Arc::new(AtomicUsize::new(0));
        let waker = Waker::from(Arc::new(Counting(Arc::clone(&wakes))));
        assert!(request.poll(&mut Context::from_waker(&waker)).is_pending());
        wakes
    }

    #[test]
    fn immediate_future_is_ready() {
        let mut f = CqsFuture::immediate(3);
        assert!(f.is_immediate());
        assert!(!f.cancel());
        assert_eq!(f.try_get(), FutureState::Ready(3));
    }

    #[test]
    fn cancelled_future_fails_fast() {
        let mut f: CqsFuture<u32> = CqsFuture::cancelled();
        assert!(!f.is_immediate());
        assert_eq!(f.try_get(), FutureState::Cancelled);
        assert_eq!(CqsFuture::<u32>::cancelled().wait(), Err(Cancelled));
    }

    #[test]
    fn complete_then_wait() {
        let r = Arc::new(Request::new());
        r.complete(10).unwrap();
        let f = CqsFuture::suspended(r);
        assert_eq!(f.wait(), Ok(10));
    }

    #[test]
    fn complete_wins_over_second_complete() {
        let r: Request<u32> = Request::new();
        r.complete(1).unwrap();
        assert_eq!(r.complete(2), Err(2));
    }

    #[test]
    fn cancel_beats_complete() {
        let r: Arc<Request<u32>> = Arc::new(Request::new());
        assert!(r.cancel());
        assert!(!r.cancel());
        assert_eq!(r.complete(5), Err(5));
        let f = CqsFuture::suspended(r);
        assert_eq!(f.wait(), Err(Cancelled));
    }

    #[test]
    fn complete_beats_cancel() {
        let r: Arc<Request<u32>> = Arc::new(Request::new());
        r.complete(5).unwrap();
        assert!(!r.cancel());
        assert_eq!(CqsFuture::suspended(r).wait(), Ok(5));
    }

    #[test]
    fn cancellation_handler_runs_once() {
        let runs = Arc::new(AtomicUsize::new(0));
        let r: Request<u32> = Request::new();
        let runs2 = Arc::clone(&runs);
        r.set_cancellation_handler(
            Arc::new(move || {
                runs2.fetch_add(1, Ordering::SeqCst);
            }),
            0,
        );
        assert!(r.cancel());
        assert!(!r.cancel());
        assert_eq!(runs.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn handler_installed_after_cancel_still_runs() {
        let runs = Arc::new(AtomicUsize::new(0));
        let r: Request<u32> = Request::new();
        assert!(r.cancel());
        let runs2 = Arc::clone(&runs);
        r.set_cancellation_handler(
            Arc::new(move || {
                runs2.fetch_add(1, Ordering::SeqCst);
            }),
            0,
        );
        assert_eq!(runs.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn handler_not_run_on_completion() {
        let runs = Arc::new(AtomicUsize::new(0));
        let r: Request<u32> = Request::new();
        let runs2 = Arc::clone(&runs);
        r.set_cancellation_handler(
            Arc::new(move || {
                runs2.fetch_add(1, Ordering::SeqCst);
            }),
            0,
        );
        r.complete(1).unwrap();
        assert_eq!(runs.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn wait_blocks_until_completed() {
        let r = Arc::new(Request::new());
        let f = CqsFuture::suspended(Arc::clone(&r));
        let completer = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            r.complete(99).unwrap();
        });
        assert_eq!(f.wait(), Ok(99));
        completer.join().unwrap();
    }

    #[test]
    fn wait_timeout_cancels() {
        let r: Arc<Request<u32>> = Arc::new(Request::new());
        let f = CqsFuture::suspended(Arc::clone(&r));
        assert_eq!(f.wait_timeout(Duration::from_millis(20)), Err(Cancelled));
        assert!(r.is_cancelled());
    }

    #[test]
    fn wait_timeout_returns_value_if_completed() {
        let r = Arc::new(Request::new());
        let f = CqsFuture::suspended(Arc::clone(&r));
        r.complete(4).unwrap();
        assert_eq!(f.wait_timeout(Duration::from_millis(20)), Ok(4));
    }

    #[test]
    fn task_waker_fires_for_completion() {
        let r = Arc::new(Request::new());
        let wakes = register_waker(&r);
        assert_eq!(wakes.load(Ordering::SeqCst), 0);
        r.complete(1).unwrap();
        assert_eq!(wakes.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn task_waker_fires_on_cancel() {
        let r: Arc<Request<u32>> = Arc::new(Request::new());
        let wakes = register_waker(&r);
        assert!(r.cancel());
        assert_eq!(wakes.load(Ordering::SeqCst), 1);
    }

    /// A request first polled by a task and then waited on by a thread
    /// wakes the thread; the task waker it replaced is not woken.
    #[test]
    fn wait_after_poll_wakes_the_thread_not_the_replaced_task() {
        let r = Arc::new(Request::new());
        let task_wakes = register_waker(&r);
        let f = CqsFuture::suspended(Arc::clone(&r));
        let waiter = std::thread::spawn(move || f.wait());
        // The slot's waker owns the only other count of `task_wakes`, so
        // the count drops when the thread's park waker replaces it.
        let deadline = Instant::now() + Duration::from_secs(10);
        while Arc::strong_count(&task_wakes) > 1 {
            assert!(Instant::now() < deadline, "the thread never registered");
            std::thread::yield_now();
        }
        r.complete(5u32).unwrap();
        assert_eq!(waiter.join().unwrap(), Ok(5));
        assert_eq!(task_wakes.load(Ordering::SeqCst), 0);
    }

    /// A wait from a thread-local destructor completes, though the thread's
    /// cached park waker may already be destroyed.
    #[test]
    fn wait_in_a_thread_local_destructor_completes() {
        type Report = std::sync::mpsc::Sender<Option<Result<u32, Cancelled>>>;
        struct WaitOnDrop(Option<(CqsFuture<u32>, Report)>);
        impl Drop for WaitOnDrop {
            fn drop(&mut self) {
                if let Some((future, report)) = self.0.take() {
                    report.send(None).unwrap();
                    report.send(Some(future.wait())).unwrap();
                }
            }
        }
        thread_local! {
            static WAITER: std::cell::RefCell<WaitOnDrop> =
                const { std::cell::RefCell::new(WaitOnDrop(None)) };
        }

        let r = Arc::new(Request::new());
        let f = CqsFuture::suspended(Arc::clone(&r));
        let (report, reports) = std::sync::mpsc::channel();
        let thread = std::thread::spawn(move || {
            WAITER.with(|waiter| waiter.borrow_mut().0 = Some((f, report)));
            // Made after `WAITER`, so (destructors running in reverse) the
            // park waker is gone by the time `WAITER` waits.
            block_on(async {});
        });
        assert_eq!(reports.recv(), Ok(None), "the destructor waits");
        // Lets the wait reach its park loop; an earlier completion is just
        // as correct, only less of a test.
        std::thread::sleep(Duration::from_millis(20));
        r.complete(8).unwrap();
        assert_eq!(reports.recv(), Ok(Some(Ok(8))));
        thread.join().unwrap();
    }

    #[test]
    fn async_poll_integration() {
        let r = Arc::new(Request::new());
        let f = CqsFuture::suspended(Arc::clone(&r));
        let completer = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            r.complete(123).unwrap();
        });
        assert_eq!(block_on(f), Ok(123));
        completer.join().unwrap();
    }

    #[test]
    fn concurrent_complete_cancel_race() {
        for _ in 0..200 {
            let r: Arc<Request<u32>> = Arc::new(Request::new());
            let completions = Arc::new(AtomicUsize::new(0));
            let cancellations = Arc::new(AtomicUsize::new(0));
            let r1 = Arc::clone(&r);
            let c1 = Arc::clone(&completions);
            let t1 = std::thread::spawn(move || {
                if r1.complete(1).is_ok() {
                    c1.fetch_add(1, Ordering::SeqCst);
                }
            });
            let r2 = Arc::clone(&r);
            let c2 = Arc::clone(&cancellations);
            let t2 = std::thread::spawn(move || {
                if r2.cancel() {
                    c2.fetch_add(1, Ordering::SeqCst);
                }
            });
            t1.join().unwrap();
            t2.join().unwrap();
            assert_eq!(
                completions.load(Ordering::SeqCst) + cancellations.load(Ordering::SeqCst),
                1,
                "exactly one of complete/cancel must win"
            );
        }
    }
}

#[cfg(test)]
mod edge_tests {
    use super::*;

    #[test]
    fn send_sync_bounds() {
        fn assert_send_sync<T: Send + Sync>() {}
        fn assert_send<T: Send>() {}
        assert_send_sync::<Request<u32>>();
        assert_send::<CqsFuture<u32>>();
    }

    /// wait_timeout whose deadline races an in-flight completion must
    /// return exactly one of the two outcomes and never both/neither.
    #[test]
    fn timeout_vs_completion_race() {
        for i in 0..100 {
            let r = Arc::new(Request::new());
            let f = CqsFuture::suspended(Arc::clone(&r));
            let r2 = Arc::clone(&r);
            let completer = std::thread::spawn(move || {
                // Jitter around the deadline.
                if i % 2 == 0 {
                    std::thread::yield_now();
                }
                r2.complete(1u32).is_ok()
            });
            let got = f.wait_timeout(Duration::from_micros(50 * (i % 4)));
            let completed = completer.join().unwrap();
            match got {
                Ok(v) => {
                    assert_eq!(v, 1);
                    assert!(completed, "value received but completion failed");
                }
                Err(Cancelled) => {
                    assert!(!completed, "completion succeeded but waiter saw cancel");
                }
            }
        }
    }

    /// A future dropped while pending leaves the request completable; the
    /// value is then released with the request.
    #[test]
    fn dropping_pending_future_is_safe() {
        let r = Arc::new(Request::new());
        let f: CqsFuture<String> = CqsFuture::suspended(Arc::clone(&r));
        drop(f);
        r.complete("late".to_string()).unwrap();
        assert!(r.is_terminated());
    }
}

#[cfg(test)]
mod batch_tests {
    use super::tests::register_waker;
    use super::*;
    use std::sync::atomic::AtomicUsize;

    /// `complete_deferred` fully completes the request (a poller takes the
    /// value) but does not wake the registered task until `fire()`.
    #[test]
    fn complete_deferred_separates_completion_from_wake() {
        let r = Arc::new(Request::new());
        let f = CqsFuture::suspended(Arc::clone(&r));
        let fired = register_waker(&r);
        let wake = r.complete_deferred(5u32).unwrap();
        assert!(!wake.is_empty());
        assert_eq!(fired.load(Ordering::SeqCst), 0, "wake ran before fire()");
        assert!(r.is_terminated());
        wake.fire();
        assert_eq!(fired.load(Ordering::SeqCst), 1);
        assert_eq!(f.wait(), Ok(5));
    }

    /// `complete_deferred` loses the race against cancel just like
    /// `complete` does.
    #[test]
    fn complete_deferred_respects_cancel() {
        let r: Request<u32> = Request::new();
        assert!(r.cancel());
        assert_eq!(r.complete_deferred(9).unwrap_err(), 9);
    }

    /// `cancel_deferred` runs the cancellation handler inline but defers
    /// the waiter notification.
    #[test]
    fn cancel_deferred_runs_handler_inline() {
        let handler_runs = Arc::new(AtomicUsize::new(0));
        let r: Arc<Request<u32>> = Arc::new(Request::new());
        let h = Arc::clone(&handler_runs);
        r.set_cancellation_handler(
            Arc::new(move || {
                h.fetch_add(1, Ordering::SeqCst);
            }),
            0,
        );
        let fired = register_waker(&r);
        let wake = r.cancel_deferred().expect("first cancel wins");
        assert_eq!(handler_runs.load(Ordering::SeqCst), 1);
        assert_eq!(fired.load(Ordering::SeqCst), 0);
        wake.fire();
        assert_eq!(fired.load(Ordering::SeqCst), 1);
        assert!(r.cancel_deferred().is_none(), "second cancel loses");
    }

    /// A deferred completion never strands a parked waiter: the thread
    /// either sees COMPLETED on its post-registration re-check or is
    /// unparked by the later `fire()`.
    #[test]
    fn deferred_wake_reaches_parked_waiter() {
        let r = Arc::new(Request::new());
        let f = CqsFuture::suspended(Arc::clone(&r));
        let waiter = std::thread::spawn(move || f.wait());
        std::thread::sleep(Duration::from_millis(20));
        let wake = r.complete_deferred(7u32).unwrap();
        wake.fire();
        assert_eq!(waiter.join().unwrap(), Ok(7));
    }

    /// Non-empty wakes past the inline capacity spill to the heap and bump
    /// the global spill counter exactly once per batch.
    #[test]
    fn wake_batch_spills_past_inline_capacity() {
        let before = wake_batch_spill_count();
        let mut batch = WakeBatch::new();
        let mut fired = Vec::new();
        for _ in 0..WAKE_BATCH_INLINE + 3 {
            let r: Arc<Request<u32>> = Arc::new(Request::new());
            fired.push(register_waker(&r));
            batch.push(r.complete_deferred(0).unwrap());
        }
        assert_eq!(batch.len(), WAKE_BATCH_INLINE + 3);
        assert_eq!(wake_batch_spill_count(), before + 1);
        batch.fire();
        assert!(batch.is_empty());
        assert!(fired.iter().all(|wakes| wakes.load(Ordering::SeqCst) == 1));
    }

    /// Empty wakes do not occupy batch slots (and cannot cause spills).
    #[test]
    fn empty_wakes_are_dropped() {
        let mut batch = WakeBatch::new();
        for _ in 0..100 {
            let r: Arc<Request<u32>> = Arc::new(Request::new());
            batch.push(r.complete_deferred(0).unwrap());
        }
        assert!(batch.is_empty(), "nobody registered, nothing to wake");
    }

    /// Dropping a batch fires its remaining wakes (panic-safety net).
    #[test]
    fn dropping_a_batch_fires_it() {
        let mut batch = WakeBatch::new();
        let r: Arc<Request<u32>> = Arc::new(Request::new());
        let fired = register_waker(&r);
        batch.push(r.complete_deferred(0).unwrap());
        assert_eq!(fired.load(Ordering::SeqCst), 0);
        drop(batch);
        assert_eq!(fired.load(Ordering::SeqCst), 1);
    }
}
