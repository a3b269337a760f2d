//! The `CancellableQueueSynchronizer` itself: `suspend()` / `resume(..)`
//! over the infinite array, with all four mode combinations (paper,
//! Listings 1, 5, 11, 13).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Weak};

use cqs_future::{CqsFuture, Request, WakeBatch};
use cqs_reclaim::{pin, AtomicArc, Guard, Protected};
use cqs_stats::CachePadded;

use crate::cell::{self, CancelSwap};
use crate::segment::{find_and_move_forward, find_segment, move_forward, Segment, SegmentOwner};
use crate::{CancellationMode, CqsConfig, ResumeMode};

/// User hooks for the *smart* cancellation mode (paper, Listing 3).
///
/// A primitive built on CQS with smart cancellation implements this trait to
/// (1) logically deregister an aborted waiter and (2) consume a resumption
/// that arrived for a waiter that no longer exists.
///
/// With [`CancellationMode::Simple`] neither hook is invoked; use
/// [`SimpleCancellation`] there.
pub trait CqsCallbacks<T>: Send + Sync + 'static {
    /// Invoked when a waiter is cancelled. Returns `true` if the waiter was
    /// logically removed from the primitive's state (the cell becomes
    /// `CANCELLED` and resumers skip it), or `false` if a concurrent
    /// `resume(..)` is already bound to this waiter and must be *refused*
    /// (the cell becomes `REFUSE`).
    fn on_cancellation(&self) -> bool;

    /// Consumes the value of a refused `resume(..)` — e.g. returns an
    /// element back to a pool. For permit-like values this is often a no-op.
    fn complete_refused_resume(&self, value: T);
}

/// Callbacks for primitives using [`CancellationMode::Simple`], where the
/// smart hooks are never invoked.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimpleCancellation;

impl<T> CqsCallbacks<T> for SimpleCancellation {
    fn on_cancellation(&self) -> bool {
        unreachable!("on_cancellation is never invoked in simple cancellation mode")
    }

    fn complete_refused_resume(&self, _value: T) {
        unreachable!("complete_refused_resume is never invoked in simple cancellation mode")
    }
}

/// Result of [`Cqs::suspend`].
#[derive(Debug)]
pub enum Suspend<T> {
    /// The waiter was enqueued or eliminated; observe the future.
    Future(CqsFuture<T>),
    /// Synchronous mode only: the cell was broken by the rendezvousing
    /// resumer; the caller restarts its logical operation (paper,
    /// Listing 11: `suspend()` returns `null`).
    Broken,
}

impl<T> Suspend<T> {
    /// Unwraps the future.
    ///
    /// # Panics
    ///
    /// Panics if the suspension failed on a broken cell.
    pub fn expect_future(self) -> CqsFuture<T> {
        match self {
            Suspend::Future(f) => f,
            Suspend::Broken => panic!("suspend() failed on a broken cell"),
        }
    }
}

struct CqsInner<T: Send + 'static, C: CqsCallbacks<T>> {
    config: CqsConfig,
    /// Watchdog id of this queue (0 when the `watch` feature is off).
    watch_id: u64,
    /// The suspension/resumption counters and their head pointers are each
    /// cache-line padded: suspenders hammer `suspend_idx`/`suspend_segm`
    /// while resumers hammer the other pair, and without padding all four
    /// words share one or two lines and every counter bump steals the line
    /// the opposite side needs next (classic false sharing).
    suspend_idx: CachePadded<AtomicU64>,
    resume_idx: CachePadded<AtomicU64>,
    suspend_segm: CachePadded<AtomicArc<Segment<T>>>,
    resume_segm: CachePadded<AtomicArc<Segment<T>>>,
    callbacks: C,
    /// Set by [`CqsInner::close`]; suspenders double-check it after
    /// installing their waiter and self-cancel, so no waiter can be parked
    /// past a close.
    closed: AtomicBool,
    /// Set when a panic escaped mid-protocol (a batched traversal, a close
    /// sweep) and the queue was closed in response; see [`Cqs::poison`].
    poisoned: AtomicBool,
    /// Resumption claims that delivered nothing: smart-mode skips over
    /// cancelled cells, fast-forward jumps over removed segments, failed
    /// simple-mode resumptions and broken rendezvous.
    /// [`Cqs::completed_resumes`] is derived as `resume_idx - missed`, so
    /// the *success* path never touches this word — only the (already
    /// expensive) cancellation/breakage paths pay the extra RMW. Kept
    /// independent of the `stats` feature so `completed_resumes` always
    /// works; padded to keep the cold write off the hot counters' lines.
    missed: CachePadded<AtomicU64>,
}

/// A `CancellableQueueSynchronizer`: a FIFO queue of waiters with efficient
/// built-in cancellation (paper, Section 2).
///
/// `Cqs` maintains an (emulated) infinite array with two counters:
/// [`suspend`](Cqs::suspend) enqueues a waiter at the next suspension cell
/// and returns its future; [`resume`](Cqs::resume) visits the next
/// resumption cell and completes the waiter found there with a value —
/// or, if it arrives first, leaves the value for the upcoming `suspend()`.
///
/// `resume(..)` may be invoked before the matching `suspend()` as long as
/// the caller knows the suspension is coming — primitives actively exploit
/// this race for simplicity and speed.
///
/// # Example
///
/// ```
/// use cqs_core::{Cqs, CqsConfig, SimpleCancellation};
///
/// let cqs: Cqs<u32, _> = Cqs::new(CqsConfig::new(), SimpleCancellation);
/// let future = cqs.suspend().expect_future();
/// cqs.resume(7).unwrap();
/// assert_eq!(future.wait(), Ok(7));
/// ```
pub struct Cqs<T: Send + 'static, C: CqsCallbacks<T> = SimpleCancellation> {
    inner: Arc<CqsInner<T, C>>,
}

impl<T: Send + 'static, C: CqsCallbacks<T>> Cqs<T, C> {
    /// Creates a CQS with the given configuration and smart-cancellation
    /// callbacks (use [`SimpleCancellation`] when the simple mode is
    /// configured).
    pub fn new(config: CqsConfig, callbacks: C) -> Self {
        // Segments point back at the queue (weakly) for cancellation, so
        // the first one is built inside the cycle.
        let inner = Arc::new_cyclic(|owner: &Weak<CqsInner<T, C>>| {
            let first = Segment::new(0, config.get_segment_size(), 2, owner.clone());
            CqsInner {
                watch_id: cqs_watch::next_primitive_id(config.get_label()),
                config,
                suspend_idx: CachePadded::new(AtomicU64::new(0)),
                resume_idx: CachePadded::new(AtomicU64::new(0)),
                suspend_segm: CachePadded::new(AtomicArc::new(Some(Arc::clone(&first)))),
                resume_segm: CachePadded::new(AtomicArc::new(Some(first))),
                callbacks,
                closed: AtomicBool::new(false),
                poisoned: AtomicBool::new(false),
                missed: CachePadded::new(AtomicU64::new(0)),
            }
        });
        Cqs { inner }
    }

    /// The configuration this CQS was created with.
    pub fn config(&self) -> &CqsConfig {
        &self.inner.config
    }

    /// The smart-cancellation callbacks.
    pub fn callbacks(&self) -> &C {
        &self.inner.callbacks
    }

    /// Registers the caller as the next waiter and returns a future that
    /// completes when a `resume(..)` reaches it. If a racing `resume(..)`
    /// already deposited a value in the caller's cell, the returned future
    /// is immediate.
    ///
    /// In [`ResumeMode::Synchronous`] the returned value may be
    /// [`Suspend::Broken`], meaning the rendezvous failed and the caller
    /// must restart its logical operation.
    pub fn suspend(&self) -> Suspend<T> {
        self.inner.suspend()
    }

    /// Resumes the next waiter with `value`. If no waiter has arrived at the
    /// target cell yet, the behaviour depends on the resumption mode:
    /// asynchronous resumers leave the value in the cell; synchronous
    /// resumers wait for a bounded rendezvous, then break the cell and fail.
    ///
    /// # Errors
    ///
    /// Hands `value` back if the resumption failed:
    ///
    /// * in [`CancellationMode::Simple`], the waiter at the cell had been
    ///   cancelled;
    /// * in [`ResumeMode::Synchronous`], the rendezvous timed out and the
    ///   cell was broken.
    ///
    /// With smart cancellation and asynchronous resumption, `resume` never
    /// fails.
    pub fn resume(&self, value: T) -> Result<(), T> {
        self.inner.resume(value)
    }

    /// Resumes the next `n` waiters in one batch: the `n` target cells are
    /// claimed with a **single** `fetch_add(n)` on the resumption counter
    /// and visited in a **single** segment-list traversal that follows
    /// `next` links locally instead of re-reading the head pointer per
    /// waiter. Per-cell outcomes (value elimination, cancelled-cell skips,
    /// refusals, broken rendezvous) are handled exactly as `n` sequential
    /// [`resume`](Cqs::resume) calls would.
    ///
    /// **Deferred-wake guarantee:** completed waiters are *not* woken
    /// inline. Their wake-ups (settlement hooks, then wakers — a task's or
    /// a blocked thread's) are collected into an on-stack
    /// [`cqs_future::WakeBatch`] and fired only after the traversal ends and
    /// the resumer has released its segment pin — a woken thread can never
    /// contend with the resumer's own traversal, and no user callback runs
    /// inside it.
    ///
    /// Value accounting follows the cancellation mode:
    ///
    /// * [`CancellationMode::Smart`]: cancelled cells are skipped without
    ///   consuming a value; the batch claims replacement cells until all
    ///   `n` values found a target (mirroring the sequential smart retry
    ///   loop). With asynchronous resumption the returned vector is always
    ///   empty; with [`ResumeMode::Synchronous`] it holds the values of
    ///   rendezvous that timed out and broke.
    /// * [`CancellationMode::Simple`]: exactly `n` cells are claimed and
    ///   the `k`-th value targets the `k`-th cell; values aimed at
    ///   cancelled cells come back in the returned vector, exactly like
    ///   `n` independent `resume` calls returning `Err`.
    ///
    /// Returns the undelivered values (empty in the smart + asynchronous
    /// configuration, where resumption cannot fail).
    ///
    /// # Panics
    ///
    /// Panics if `values` yields fewer values than the batch needs (`n`
    /// in every mode — cells that fail a delivery still consume their
    /// value into the returned vector).
    pub fn resume_n(&self, values: impl IntoIterator<Item = T>, n: usize) -> Vec<T> {
        let mut iter = values.into_iter();
        if n == 1 {
            // A batch of one gains nothing from the batched claim but would
            // still pay its traversal setup (head re-anchor, prev unlink,
            // wake-batch bookkeeping) — measurably slower on the ablation's
            // x=1 point. The sequential path is observationally identical
            // at n = 1, including the wake ordering (one wake fires after
            // the cell settles either way).
            let value = iter
                .next()
                .expect("resume_n: values iterator yielded fewer values than the batch needs");
            return match self.inner.resume(value) {
                Ok(()) => Vec::new(),
                Err(v) => vec![v],
            };
        }
        self.inner.resume_n(&mut || iter.next(), n as u64)
    }

    /// Resumes every waiter currently in the queue with a clone of `value`,
    /// in one batched traversal (see [`resume_n`](Cqs::resume_n) for the
    /// single-claim / single-traversal / deferred-wake mechanics). Returns
    /// the number of deliveries made.
    ///
    /// "Currently" means the span between the suspension and resumption
    /// counters at the moment of the call: every waiter whose `suspend()`
    /// *happened before* this call is covered. Waiters that suspend
    /// concurrently may or may not be included; cells claimed ahead of
    /// their suspender receive a parked clone the incoming `suspend()`
    /// eliminates against (the standard CQS resume-before-suspend
    /// behaviour). Primitives that need exact waiter accounting should
    /// track the count themselves and call `resume_n` (see
    /// `CountDownLatch`); `resume_all` fits terminal sweeps like a latch
    /// whose gate can never close again, or broadcast-style wakeups where
    /// an extra parked clone is harmless.
    pub fn resume_all(&self, value: T) -> usize
    where
        T: Clone,
    {
        self.inner.resume_all(value) as usize
    }

    /// Closes the queue: every currently parked waiter is cancelled (its
    /// future reports [`cqs_future::Cancelled`]) and any `suspend()` that
    /// races with or follows the close self-cancels, so no waiter can park
    /// forever on a closed queue. `resume(..)` is unaffected — in-flight
    /// resumptions still hand their values over (or fail) exactly as
    /// before, which lets primitives drain state counters gracefully.
    ///
    /// Note that `close` only settles the queue; primitives built on CQS
    /// must stop *initiating* suspensions themselves (see
    /// `Semaphore::close`), because the suspension counter of a logical
    /// operation is typically adjusted before `suspend()` is reached.
    pub fn close(&self) {
        self.inner.close();
    }

    /// Whether [`close`](Cqs::close) was called.
    pub fn is_closed(&self) -> bool {
        // Acquire: a caller that observes the close also observes the state
        // the closer settled before it. (The suspend-path double-check is
        // the one that needs SeqCst; see `CqsInner::suspend`.)
        self.inner.closed.load(Ordering::Acquire)
    }

    /// Poisons the queue: marks it poisoned and closes it, cancelling every
    /// parked waiter (see [`close`](Cqs::close)).
    ///
    /// The batched paths invoke this automatically when a panic escapes
    /// mid-protocol — a panicking `T::clone` inside
    /// [`resume_all`](Cqs::resume_all), a `complete_refused_resume` hook
    /// crashing inside a [`resume_n`](Cqs::resume_n) traversal, or an
    /// injected chaos fault: the claimed-but-unvisited cells of the
    /// interrupted batch would otherwise never be revisited and their
    /// waiters stranded forever. Poisoning converts that silent hang into a
    /// prompt, observable failure: every waiter settles (cancelled) and
    /// primitives built on the queue surface a poisoned/cancelled error on
    /// subsequent operations. Exposed publicly so wrapping primitives
    /// (guards, channels) can propagate a panic observed outside the queue.
    pub fn poison(&self) {
        self.inner.poison();
    }

    /// Whether the queue was poisoned — by a panic escaping one of the
    /// batched paths or an explicit [`poison`](Cqs::poison) call. A
    /// poisoned queue is always also [closed](Cqs::is_closed).
    pub fn is_poisoned(&self) -> bool {
        // Acquire: pairs with the poisoner's SeqCst swap, like `is_closed`.
        self.inner.poisoned.load(Ordering::Acquire)
    }

    /// Watchdog id of this queue: keys its waiter records in cqs-watch
    /// stall/deadlock reports. Always `0` when the `watch` feature is off.
    pub fn watch_id(&self) -> u64 {
        self.inner.watch_id
    }

    /// Current value of the suspension counter (diagnostics/tests).
    pub fn suspend_count(&self) -> u64 {
        // Relaxed: a racy diagnostic snapshot, never used for ordering.
        self.inner.suspend_idx.load(Ordering::Relaxed)
    }

    /// Current value of the resumption counter (diagnostics/tests).
    ///
    /// This counts resume *attempts* — every claimed cell — not deliveries:
    /// smart-mode resumptions that skip cancelled cells claim (and count) a
    /// cell per skip, refused resumptions count even though the waiter was
    /// gone, and failed simple-mode or broken-rendezvous resumptions count
    /// too. The counter can therefore run ahead of the number of values
    /// actually handed to waiters; use
    /// [`completed_resumes`](Cqs::completed_resumes) for that.
    pub fn resume_count(&self) -> u64 {
        // Relaxed: a racy diagnostic snapshot, never used for ordering.
        self.inner.resume_idx.load(Ordering::Relaxed)
    }

    /// The number of resumptions that actually delivered their value: the
    /// waiter was completed, the value was parked for an incoming
    /// suspender (elimination), delegated to a concurrent canceller, or
    /// consumed through `complete_refused_resume`. Unlike
    /// [`resume_count`](Cqs::resume_count), this never counts smart-mode
    /// skips over cancelled cells, failed simple-mode resumptions, or
    /// broken rendezvous.
    ///
    /// Backed by a dedicated miss counter (`resume_idx - missed`),
    /// independent of the `stats` feature, so the resume *success* path
    /// pays nothing for it. The difference is exact at quiescence; while
    /// resumptions are in flight it may transiently count a claimed but
    /// not-yet-settled cell as completed (racy diagnostic, like every
    /// counter here).
    pub fn completed_resumes(&self) -> u64 {
        // Relaxed: racy diagnostic snapshots, never used for ordering.
        let attempts = self.inner.resume_idx.load(Ordering::Relaxed);
        let missed = self.inner.missed.load(Ordering::Relaxed);
        attempts.saturating_sub(missed)
    }

    /// The number of segments currently linked into the queue (diagnostics;
    /// a racy snapshot). The paper's memory claim is that this stays
    /// `O(live waiters / SEGM_SIZE)` no matter how many waiters cancelled:
    /// fully-cancelled segments are physically unlinked, and an unlinked
    /// segment is freed once no traversal can reach it.
    pub fn live_segments(&self) -> usize {
        let guard = pin();
        let mut cur = self.inner.first_segment(&guard);
        let mut count = 0;
        while let Some(segment) = cur {
            count += 1;
            cur = Segment::next(&segment, &guard);
        }
        count
    }
}

#[cfg(test)]
impl<T: Send + 'static, C: CqsCallbacks<T>> Cqs<T, C> {
    /// A weak witness of the segment suspenders currently target: dead once
    /// every reference to that segment is gone (leak tests).
    pub(crate) fn suspend_segment_witness(&self) -> Weak<Segment<T>> {
        let segment = self.inner.suspend_segm.load(&pin());
        Arc::downgrade(&segment.expect("head pointers are never null"))
    }

    /// Walks every linked segment under one pin, lets `meanwhile` run, and
    /// checks that each segment still carries the id it was first seen
    /// with: removal must never free a segment a pinned traverser can
    /// still reach.
    pub(crate) fn audit_segment_ids(&self, meanwhile: impl FnOnce()) {
        let guard = pin();
        let mut seen: Vec<(u64, Protected<'_, Segment<T>>)> = Vec::new();
        let mut cur = self.inner.first_segment(&guard);
        while let Some(segment) = cur {
            if let Some((last, _)) = seen.last() {
                assert!(segment.id() > *last, "`next` links only lead forward");
            }
            cur = Segment::next(&segment, &guard);
            seen.push((segment.id(), segment));
        }
        meanwhile();
        for (id, segment) in &seen {
            assert_eq!(segment.id(), *id, "segment freed under a pin");
        }
    }
}

impl<T: Send + 'static, C: CqsCallbacks<T>> Drop for Cqs<T, C> {
    fn drop(&mut self) {
        // Break reference cycles:
        // * `next`/`prev` links between neighbouring segments;
        // * `cell.waiter -> Request -> handler (the Arc<Segment>)` of
        //   waiters never completed nor cancelled.
        let guard = pin();
        let mut cur = self.inner.first_segment(&guard);
        while let Some(segment) = cur {
            for i in 0..segment.len() {
                segment.cell(i).clear_waiter(&guard);
            }
            let next = Segment::next(&segment, &guard);
            segment.clear_links(&guard);
            cur = next;
        }
    }
}

impl<T: Send + 'static, C: CqsCallbacks<T>> std::fmt::Debug for Cqs<T, C> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cqs")
            .field("suspend_idx", &self.suspend_count())
            .field("resume_idx", &self.resume_count())
            .field("config", &self.inner.config)
            .finish()
    }
}

impl<T: Send + 'static, C: CqsCallbacks<T>> CqsInner<T, C> {
    fn segment_size(&self) -> u64 {
        self.config.get_segment_size() as u64
    }

    /// The earlier of the two head segments: every segment still linked
    /// into the queue is reachable from it through `next`.
    fn first_segment<'g>(&'g self, guard: &'g Guard) -> Option<Protected<'g, Segment<T>>> {
        let resume_head = self.resume_segm.load_protected(guard);
        let suspend_head = self.suspend_segm.load_protected(guard);
        match (resume_head, suspend_head) {
            (Some(r), Some(s)) => Some(if r.id() <= s.id() { r } else { s }),
            (r, s) => r.or(s),
        }
    }

    fn suspend(&self) -> Suspend<T> {
        cqs_stats::bump!(suspends);
        let guard = pin();
        let n = self.segment_size();
        // Read the head *before* incrementing the counter (paper, Listing
        // 14): this guarantees the target segment is reachable from `start`.
        let start = self
            .suspend_segm
            .load_protected(&guard)
            .expect("head pointers are never null");
        cqs_chaos::inject!("cqs.suspend.pre-counter");
        // SeqCst (invariant): the paper's SC argument (Listing 14) orders
        // this claim against the *other* atomics of the protocol — the head
        // read above must precede it so the claimed cell stays reachable
        // from `start`, and a concurrent resumer's own SeqCst claim decides
        // unambiguously which side arrives at the cell first.
        let i = self.suspend_idx.fetch_add(1, Ordering::SeqCst);
        let id = i / n;
        cqs_chaos::inject!("cqs.suspend.pre-find");
        let segment = find_and_move_forward(
            &self.suspend_segm,
            start,
            id,
            self.config.get_segment_size(),
            &guard,
        );
        // A segment containing a cell never yet suspended into cannot be
        // fully cancelled, hence cannot have been removed.
        debug_assert_eq!(segment.id(), id, "suspend target segment was removed");
        let index = (i % n) as usize;
        let cell = segment.cell(index);

        let request: Arc<Request<T>> = Arc::new(Request::new());
        if cell.try_install_waiter(Arc::clone(&request), &guard) {
            cqs_chaos::inject!("cqs.suspend.install-to-handler-window");
            request.set_cancellation_handler(segment.into_arc(), index);
            cqs_watch::register_waiter!(
                self.watch_id,
                self.config.get_label(),
                Arc::clone(&request)
            );
            // Double-check after publishing the waiter: if a `close()`
            // stored `closed` before this load, self-cancel (idempotent
            // with the closer's sweep — `Request::cancel` has exactly one
            // winner). If it stored after, the install is ordered before
            // the store, so the closer's sweep observes and cancels this
            // waiter. Either way no waiter parks past a close.
            //
            // SeqCst (invariant): this load and `close`'s SeqCst swap form
            // a Dekker/StoreLoad pair over two variables (waiter install
            // vs. closed flag). With anything weaker, the install could be
            // ordered after the closer's sweep *and* this load could miss
            // the flag — a waiter parked forever on a closed queue.
            cqs_chaos::inject!("cqs.suspend.pre-close-check");
            if self.closed.load(Ordering::SeqCst) {
                request.cancel();
            }
            return Suspend::Future(CqsFuture::suspended(request));
        }
        // A racing resume(..) reached the cell first: eliminate.
        match cell.take_for_elimination() {
            Some(value) => {
                cqs_stats::bump!(elim_hits);
                Suspend::Future(CqsFuture::immediate(value))
            }
            None => {
                cqs_stats::bump!(rendezvous_breaks);
                Suspend::Broken
            }
        }
    }

    fn resume(&self, value: T) -> Result<(), T> {
        match self.resume_value(value) {
            Ok(()) => Ok(()),
            Err(v) => {
                // Miss bookkeeping for `Cqs::completed_resumes`
                // (stats-independent); every `Err` consumed exactly one
                // claim. Relaxed: diagnostic counter.
                self.missed.fetch_add(1, Ordering::Relaxed);
                Err(v)
            }
        }
    }

    fn resume_value(&self, mut value: T) -> Result<(), T> {
        cqs_stats::bump!(resumes);
        let n = self.segment_size();
        let simple = self.config.get_cancellation_mode() == CancellationMode::Simple;
        let sync = self.config.get_resume_mode() == ResumeMode::Synchronous;
        'operation: loop {
            let guard = pin();
            let start = self
                .resume_segm
                .load_protected(&guard)
                .expect("head pointers are never null");
            cqs_chaos::inject!("cqs.resume.pre-counter");
            // SeqCst (invariant): mirror of the suspend-side claim — see
            // the comment there; both counters' RMWs must stay in one SC
            // order with the head reads/moves for cell reachability.
            let i = self.resume_idx.fetch_add(1, Ordering::SeqCst);
            let id = i / n;
            let segment = find_and_move_forward(
                &self.resume_segm,
                start,
                id,
                self.config.get_segment_size(),
                &guard,
            );
            // Links to already-processed segments are not needed any more.
            segment.clear_prev(&guard);
            if segment.id() != id {
                // The whole target segment was removed: its cells were all
                // cancelled.
                if simple {
                    return Err(value);
                }
                // Smart cancellation: fast-forward the counter over the
                // removed segments and retry (paper, Listing 15 line 12).
                // SeqCst (invariant): stays in the resume counter's single
                // SC protocol (see the claim above) — a weaker jump could
                // be ordered around a concurrent claim and double-visit a
                // skipped cell.
                match self.resume_idx.compare_exchange(
                    i + 1,
                    segment.id() * n,
                    Ordering::SeqCst,
                    Ordering::SeqCst,
                ) {
                    // The jump left [i+1, segment.id()*n) forever unclaimed;
                    // together with our abandoned claim `i`, all of those
                    // attempts missed (see `completed_resumes`).
                    Ok(_) => self
                        .missed
                        .fetch_add(segment.id() * n - i, Ordering::Relaxed),
                    // Someone else moved the counter: only our own claim is
                    // abandoned here.
                    Err(_) => self.missed.fetch_add(1, Ordering::Relaxed),
                };
                continue 'operation;
            }
            let cell = segment.cell((i % n) as usize);
            'cell: loop {
                match cell.state() {
                    cell::EMPTY => {
                        cqs_chaos::inject!("cqs.resume.pre-publish");
                        match cell.try_publish_value(value) {
                            Err(v) => {
                                value = v;
                                continue 'cell;
                            }
                            Ok(()) => {
                                if !sync {
                                    return Ok(());
                                }
                                // Synchronous rendezvous: bounded wait for
                                // the value to be taken.
                                for _ in 0..self.config.get_spin_limit() {
                                    if cell.state() == cell::TAKEN {
                                        return Ok(());
                                    }
                                    std::hint::spin_loop();
                                }
                                match cell.try_break() {
                                    Some(v) => return Err(v),
                                    None => return Ok(()), // taken after all
                                }
                            }
                        }
                    }
                    cell::REQUEST => {
                        let Some(request) = cell.peek_waiter(&guard) else {
                            // The cancellation handler removed the waiter
                            // between our state read and the peek.
                            continue 'cell;
                        };
                        cqs_chaos::inject!("cqs.resume.pre-complete");
                        match request.complete(value) {
                            Ok(()) => {
                                cqs_chaos::inject!("cqs.resume.pre-mark-resumed");
                                cell.mark_resumed(&guard);
                                return Ok(());
                            }
                            Err(v) => {
                                value = v;
                                // The waiter was cancelled.
                                if simple {
                                    return Err(value);
                                }
                                if sync {
                                    // Never leave the value unattended: wait
                                    // for the handler to decide CANCELLED or
                                    // REFUSE (paper, Listing 13 line 28).
                                    let mut spins = 0u32;
                                    while cell.state() == cell::REQUEST {
                                        spins += 1;
                                        if spins.is_multiple_of(128) {
                                            std::thread::yield_now();
                                        } else {
                                            std::hint::spin_loop();
                                        }
                                    }
                                    continue 'cell;
                                }
                                // Smart + async: delegate the rest of this
                                // resumption to the cancellation handler.
                                cqs_chaos::inject!("cqs.resume.pre-delegate");
                                match cell.try_delegate_value(value, &guard) {
                                    Ok(()) => return Ok(()),
                                    Err(v) => {
                                        value = v;
                                        continue 'cell;
                                    }
                                }
                            }
                        }
                    }
                    cell::CANCELLED => {
                        if simple {
                            return Err(value);
                        }
                        // Smart: skip this cell and take the next index. The
                        // abandoned claim is a miss (see `completed_resumes`).
                        self.missed.fetch_add(1, Ordering::Relaxed);
                        continue 'operation;
                    }
                    cell::REFUSE => {
                        self.callbacks.complete_refused_resume(value);
                        return Ok(());
                    }
                    other => unreachable!(
                        "resume() observed cell in state {}",
                        cell::state_name(other)
                    ),
                }
            }
        }
    }

    /// Batched resumption entry point: see [`Cqs::resume_n`].
    fn resume_n(&self, next_value: &mut dyn FnMut() -> Option<T>, n: u64) -> Vec<T> {
        if n == 0 {
            return Vec::new();
        }
        cqs_stats::bump!(resumes, n);
        cqs_stats::bump!(batch_resumes);
        // Smart mode conserves values: cancelled-cell skips claim
        // replacement cells until all `n` values land.
        let reclaim = self.config.get_cancellation_mode() == CancellationMode::Smart;
        let mut wakes = WakeBatch::new();
        let batch = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let guard = pin();
            self.resume_batch(next_value, n, reclaim, &mut wakes, &guard)
        }));
        let (delivered, failed) = match batch {
            Ok(result) => result,
            Err(panic) => {
                // A panic escaped the traversal (a `next_value` pull, a
                // `complete_refused_resume` hook, an injected chaos
                // fault). The batch's claimed-but-unvisited cells will
                // never be revisited by a later resumer, so the queue
                // cannot be left open: fire the wakes already collected
                // (the drop fires and swallows), then poison-and-close so
                // every still-parked waiter settles instead of stranding.
                // The panic is re-raised for the caller.
                //
                // PLANTED WINDOW (test-only, feature `planted-unguarded`):
                // compiling the recovery out reproduces the pre-hardening
                // behaviour — the panic unwinds past a half-visited batch
                // and the unclaimed waiters hang silently. Exists solely
                // so CI can prove the cqs-check fault explorer detects an
                // unguarded window (tests/fault_explorer.rs).
                #[cfg(not(feature = "planted-unguarded"))]
                {
                    drop(wakes);
                    self.poison();
                }
                std::panic::resume_unwind(panic);
            }
        };
        // The guard is dropped: fire the collected wake-ups outside the
        // segment pin (the deferred-wake guarantee).
        cqs_stats::bump!(batch_waiters, delivered);
        let _ = delivered; // counted only under the `stats` feature
        cqs_chaos::inject!("cqs.resume-n.pre-fire");
        wakes.fire();
        failed
    }

    /// Batched broadcast: see [`Cqs::resume_all`].
    fn resume_all(&self, value: T) -> u64
    where
        T: Clone,
    {
        // Snapshot the live-waiter span. SeqCst (invariant): both loads
        // must observe any suspend-side claim that happened before this
        // call (the caller's happens-before contract) — with weaker loads
        // a just-installed waiter's claim could be missed and the waiter
        // left out of the sweep.
        let suspended = self.suspend_idx.load(Ordering::SeqCst);
        let resumed = self.resume_idx.load(Ordering::SeqCst);
        let n = suspended.saturating_sub(resumed);
        if n == 0 {
            return 0;
        }
        cqs_stats::bump!(resumes, n);
        cqs_stats::bump!(batch_resumes);
        let mut wakes = WakeBatch::new();
        // Clones are minted by user code (`T::clone`) inside the traversal
        // — the classic fault window this batch is hardened against; the
        // chaos seam injects exactly there.
        let mut mint = || {
            cqs_chaos::fault!("cqs.resume-all.fault.pre-clone");
            Some(value.clone())
        };
        let batch = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let guard = pin();
            // Cell-coverage semantics: exactly `n` claims, clones minted on
            // demand, skipped cells simply don't mint one — never re-claim
            // (`reclaim = false`), or a broadcast racing cancellations
            // would chase the suspension counter forever.
            self.resume_batch(&mut mint, n, false, &mut wakes, &guard)
        }));
        let (delivered, failed) = match batch {
            Ok(result) => result,
            Err(panic) => {
                // A panicking `T::clone` (or injected fault) interrupted
                // the broadcast: poison-and-close so the unvisited span's
                // waiters settle instead of stranding (see `resume_n`).
                #[cfg(not(feature = "planted-unguarded"))]
                {
                    drop(wakes);
                    self.poison();
                }
                std::panic::resume_unwind(panic);
            }
        };
        // Failures only arise from cancelled cells (simple mode) or broken
        // rendezvous (synchronous mode) — and either way they hold clones,
        // which are disposable.
        debug_assert!(
            failed.is_empty()
                || self.config.get_cancellation_mode() == CancellationMode::Simple
                || self.config.get_resume_mode() == ResumeMode::Synchronous
        );
        drop(failed);
        cqs_stats::bump!(batch_waiters, delivered);
        cqs_chaos::inject!("cqs.resume-n.pre-fire");
        wakes.fire();
        delivered
    }

    /// The single-traversal core of [`Cqs::resume_n`] / [`Cqs::resume_all`]:
    /// claims `n` consecutive cells with one `fetch_add(n)` and walks them
    /// with a local segment cursor, deferring every wake-up into `wakes`.
    ///
    /// `next_value` supplies values on demand; a value is pulled only when a
    /// cell can consume one (smart-mode skips pull nothing). With `reclaim`
    /// set, cells skipped without consuming a value are replaced by extra
    /// claims until `n` values have been consumed (delivered or failed).
    ///
    /// Returns `(delivered, failed)`: the number of deliveries made and the
    /// values that consumed a claim but failed (cancelled cells in simple
    /// mode, broken rendezvous in synchronous mode).
    fn resume_batch(
        &self,
        next_value: &mut dyn FnMut() -> Option<T>,
        n: u64,
        reclaim: bool,
        wakes: &mut WakeBatch,
        guard: &Guard,
    ) -> (u64, Vec<T>) {
        /// Pulls the in-flight value (handed back by a failed cell CAS) or
        /// the next one from the source.
        fn take<T>(stash: &mut Option<T>, next: &mut dyn FnMut() -> Option<T>) -> T {
            stash
                .take()
                .or_else(next)
                .expect("resume_n: values iterator yielded fewer values than the batch needs")
        }

        let n_cells = self.segment_size();
        let segment_size = self.config.get_segment_size();
        let simple = self.config.get_cancellation_mode() == CancellationMode::Simple;
        let sync = self.config.get_resume_mode() == ResumeMode::Synchronous;

        let mut delivered: u64 = 0;
        let mut failed: Vec<T> = Vec::new();
        let mut stash: Option<T> = None;

        // Read the head *before* claiming, as the sequential path does: the
        // claimed cells are then guaranteed reachable from `start`.
        let start = self
            .resume_segm
            .load_protected(guard)
            .expect("head pointers are never null");
        cqs_chaos::inject!("cqs.resume-n.pre-counter");
        // SeqCst (invariant): the batch's single claim plays the same role
        // as the sequential per-resume claim (see `resume_value`) — it must
        // stay in one SC order with the head read above and with every
        // concurrent suspend/resume claim, so the n claimed cells are
        // unambiguously owned by this batch.
        let mut first = self.resume_idx.fetch_add(n, Ordering::SeqCst);
        let mut end = first + n;
        // Total claims this batch is responsible for (initial + extras +
        // fast-forward jumps); `claims - delivered` are the misses.
        let mut claims = n;
        // Advance the resume head once, to the batch's first segment; every
        // further segment is reached by walking `next` links locally.
        let mut segment = find_and_move_forward(
            &self.resume_segm,
            start,
            first / n_cells,
            segment_size,
            guard,
        );
        segment.clear_prev(guard);

        'claims: loop {
            let mut i = first;
            while i < end {
                let id = i / n_cells;
                if segment.id() < id {
                    cqs_chaos::inject!("cqs.resume-n.pre-advance");
                    segment = find_segment(segment, id, segment_size, guard);
                    // Links to already-processed segments are not needed
                    // any more (mirrors the sequential path).
                    segment.clear_prev(guard);
                }
                if segment.id() > id {
                    // Every id between the cursor's previous position and
                    // `segment` was removed: those cells were all
                    // cancelled. Simple mode pairs each with (and fails)
                    // its value; smart mode skips them for free.
                    let skip_to = end.min(segment.id() * n_cells);
                    if simple {
                        while i < skip_to {
                            failed.push(take(&mut stash, next_value));
                            i += 1;
                        }
                    } else {
                        i = skip_to;
                    }
                    continue;
                }
                let cell = segment.cell((i % n_cells) as usize);
                // Crash-fault seam: a panic here models any mid-batch crash
                // after cells were claimed — `resume_n`/`resume_all` catch
                // it and poison the queue so the unvisited claims cannot
                // strand their waiters.
                cqs_chaos::fault!("cqs.resume-n.fault.mid-batch");
                'cell: loop {
                    match cell.state() {
                        cell::EMPTY => {
                            cqs_chaos::inject!("cqs.resume-n.pre-publish");
                            let value = take(&mut stash, next_value);
                            match cell.try_publish_value(value) {
                                Err(v) => {
                                    stash = Some(v);
                                    continue 'cell;
                                }
                                Ok(()) => {
                                    if !sync {
                                        delivered += 1;
                                        break 'cell;
                                    }
                                    // Synchronous rendezvous: bounded wait
                                    // for the value to be taken.
                                    let mut taken = false;
                                    for _ in 0..self.config.get_spin_limit() {
                                        if cell.state() == cell::TAKEN {
                                            taken = true;
                                            break;
                                        }
                                        std::hint::spin_loop();
                                    }
                                    if taken {
                                        delivered += 1;
                                    } else {
                                        match cell.try_break() {
                                            Some(v) => failed.push(v),
                                            None => delivered += 1, // taken after all
                                        }
                                    }
                                    break 'cell;
                                }
                            }
                        }
                        cell::REQUEST => {
                            let Some(request) = cell.peek_waiter(guard) else {
                                // The cancellation handler removed the
                                // waiter between our state read and the
                                // peek.
                                continue 'cell;
                            };
                            cqs_chaos::inject!("cqs.resume-n.pre-complete");
                            let value = take(&mut stash, next_value);
                            match request.complete_deferred(value) {
                                Ok(wake) => {
                                    cqs_chaos::inject!("cqs.resume-n.pre-mark-resumed");
                                    cell.mark_resumed(guard);
                                    wakes.push(wake);
                                    delivered += 1;
                                    break 'cell;
                                }
                                Err(v) => {
                                    // The waiter was cancelled.
                                    if simple {
                                        failed.push(v);
                                        break 'cell;
                                    }
                                    stash = Some(v);
                                    if sync {
                                        // Never leave the value unattended:
                                        // wait for the handler to decide
                                        // CANCELLED or REFUSE.
                                        let mut spins = 0u32;
                                        while cell.state() == cell::REQUEST {
                                            spins += 1;
                                            if spins.is_multiple_of(128) {
                                                std::thread::yield_now();
                                            } else {
                                                std::hint::spin_loop();
                                            }
                                        }
                                        continue 'cell;
                                    }
                                    // Smart + async: delegate the rest of
                                    // this resumption to the handler.
                                    cqs_chaos::inject!("cqs.resume-n.pre-delegate");
                                    let value = take(&mut stash, next_value);
                                    match cell.try_delegate_value(value, guard) {
                                        Ok(()) => {
                                            delivered += 1;
                                            break 'cell;
                                        }
                                        Err(v) => {
                                            stash = Some(v);
                                            continue 'cell;
                                        }
                                    }
                                }
                            }
                        }
                        cell::CANCELLED => {
                            cqs_chaos::inject!("cqs.resume-n.pre-skip-cancelled");
                            if simple {
                                failed.push(take(&mut stash, next_value));
                            }
                            // Smart: the skip consumes the claim only; a
                            // replacement cell is claimed below if needed.
                            break 'cell;
                        }
                        cell::REFUSE => {
                            self.callbacks
                                .complete_refused_resume(take(&mut stash, next_value));
                            delivered += 1;
                            break 'cell;
                        }
                        other => unreachable!(
                            "resume_n observed cell in state {}",
                            cell::state_name(other)
                        ),
                    }
                }
                i += 1;
            }
            let consumed = delivered + failed.len() as u64;
            if !reclaim || consumed >= n {
                break 'claims;
            }
            // Smart-mode value conservation: skipped cells consumed claims
            // without values; claim replacements and keep walking from the
            // current cursor.
            if segment.id() * n_cells > end {
                // The remaining prefix is wholly removed: fast-forward the
                // counter over it, as the sequential smart path does.
                // SeqCst (invariant): stays in the resume counter's single
                // SC protocol (see the batch claim above).
                if self
                    .resume_idx
                    .compare_exchange(
                        end,
                        segment.id() * n_cells,
                        Ordering::SeqCst,
                        Ordering::SeqCst,
                    )
                    .is_ok()
                {
                    // The jumped-over span is forever unclaimed: account its
                    // attempts as misses (mirrors the sequential path).
                    claims += segment.id() * n_cells - end;
                }
            }
            let extra = n - consumed;
            claims += extra;
            cqs_chaos::inject!("cqs.resume-n.pre-extra-claim");
            // SeqCst (invariant): same claim protocol as above.
            first = self.resume_idx.fetch_add(extra, Ordering::SeqCst);
            end = first + extra;
        }
        // Publish the cursor as the new resume head so later resumers
        // start where the batch ended instead of re-walking it. (A failure
        // only means the head already moved past — or the cursor got
        // removed — both harmless.)
        let _ = move_forward(&self.resume_segm, &segment, guard);
        // Miss bookkeeping for `Cqs::completed_resumes` (see `resume`):
        // every claim that did not deliver — failed values, cancelled-cell
        // skips, jumped spans — in one cold-path RMW.
        let misses = claims - delivered;
        if misses > 0 {
            self.missed.fetch_add(misses, Ordering::Relaxed);
        }
        (delivered, failed)
    }

    /// Closes the queue and sweeps every linked segment, cancelling each
    /// still-parked waiter. See [`Cqs::close`] for the ordering argument.
    fn close(&self) {
        // SeqCst (invariant): the closer's half of the Dekker pair with the
        // suspend-path double-check (see `suspend`); the swap must be
        // globally ordered against waiter installs so that every install is
        // seen either by this sweep or by its own post-install check.
        if self.closed.swap(true, Ordering::SeqCst) {
            return; // the first closer performs the (single) sweep
        }
        cqs_chaos::inject!("cqs.close.pre-sweep");
        let mut wakes = WakeBatch::new();
        let mut cancelled: u64 = 0;
        // First panic observed during the sweep (a cancellation handler
        // crashing, an injected fault): held back until the sweep visited
        // *every* waiter, then re-raised. Close is the mechanism poisoning
        // relies on to settle waiters — it must itself be total.
        let mut sweep_panic: Option<Box<dyn std::any::Any + Send>> = None;
        {
            let guard = pin();
            // Any waiter installed before the `closed` store above is
            // reachable from the earlier of the two heads (resumers never
            // move their head past a still-pending waiter); one installed
            // after observes `closed` in its post-install double-check and
            // self-cancels.
            let mut cur = self.first_segment(&guard);
            while let Some(segment) = cur {
                for index in 0..segment.len() {
                    if let Some(request) = segment.cell(index).peek_waiter(&guard) {
                        cqs_chaos::inject!("cqs.close.pre-cancel");
                        // Crash window first, *separate* from the
                        // cancellation: an injected fault must never skip
                        // the cancel itself, or this waiter would stay
                        // parked forever on the closed queue.
                        #[cfg(feature = "chaos")]
                        if let Err(panic) = std::panic::catch_unwind(|| {
                            cqs_chaos::fault!("cqs.close.fault.mid-sweep");
                        }) {
                            if sweep_panic.is_none() {
                                sweep_panic = Some(panic);
                            }
                        }
                        // The cancellation handler runs inline (cell
                        // bookkeeping must precede further traversals) but
                        // the wake-up is deferred past the sweep. Each
                        // waiter is panic-isolated: one crashing handler
                        // must not leave the rest of the sweep undone.
                        let one = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                            request.cancel_deferred()
                        }));
                        match one {
                            Ok(Some(wake)) => {
                                wakes.push(wake);
                                cancelled += 1;
                            }
                            Ok(None) => {}
                            Err(panic) => {
                                if sweep_panic.is_none() {
                                    sweep_panic = Some(panic);
                                }
                            }
                        }
                    }
                }
                cur = Segment::next(&segment, &guard);
            }
        }
        // The guard is dropped: the sweep is one batched traversal too —
        // fire every cancellation wake-up outside the segment pin.
        cqs_stats::bump!(batch_resumes);
        cqs_stats::bump!(batch_waiters, cancelled);
        let _ = cancelled; // read only by the stats feature
        cqs_chaos::inject!("cqs.close.pre-fire");
        if let Some(panic) = sweep_panic {
            // The sweep is complete (every waiter cancelled) — fire the
            // wakes through the drop (which swallows nested waker panics),
            // mark the queue poisoned and hand the first panic back.
            drop(wakes);
            self.mark_poisoned();
            std::panic::resume_unwind(panic);
        }
        wakes.fire();
    }

    /// Marks the queue poisoned (idempotently) and publishes the
    /// poisoned-primitive gauge for the watchdog. Does *not* close; use
    /// [`poison`](CqsInner::poison) unless the close already happened.
    fn mark_poisoned(&self) {
        // SeqCst: mirrors the `closed` swap — exactly one marker publishes
        // the gauge, and observers of `poisoned` see the settled queue.
        if !self.poisoned.swap(true, Ordering::SeqCst) {
            cqs_watch::gauge!(self.watch_id, "poisoned", 1);
        }
    }

    /// Poisons the queue: see [`Cqs::poison`].
    fn poison(&self) {
        self.mark_poisoned();
        self.close();
    }
}

impl<T: Send + 'static, C: CqsCallbacks<T>> SegmentOwner<T> for CqsInner<T, C> {
    /// Invoked by `Request::cancel` through the segment the request holds
    /// as its handler (paper, Listing 5).
    fn on_waiter_cancelled(&self, segment: &Arc<Segment<T>>, index: usize) {
        cqs_chaos::inject!("cqs.on-waiter-cancelled.entry");
        let guard = pin();
        let cell = segment.cell(index);
        match self.config.get_cancellation_mode() {
            CancellationMode::Simple => {
                cqs_stats::bump!(cancels_simple);
                match cell.cancel_swap(cell::CANCELLED, &guard) {
                    CancelSwap::WasRequest => {}
                    CancelSwap::WasValue(_) => {
                        unreachable!("simple-mode resumers never delegate values")
                    }
                }
                segment.on_cancelled_cell(&guard);
            }
            CancellationMode::Smart => {
                if self.callbacks.on_cancellation() {
                    // Logically deregistered: the cell becomes CANCELLED and
                    // resumers skip it.
                    cqs_stats::bump!(cancels_smart_skipped);
                    cqs_chaos::inject!("cqs.cancel.pre-cancel-swap");
                    match cell.cancel_swap(cell::CANCELLED, &guard) {
                        CancelSwap::WasRequest => {
                            segment.on_cancelled_cell(&guard);
                        }
                        CancelSwap::WasValue(v) => {
                            // A resumer delegated its value to us: pass it to
                            // the next waiter.
                            segment.on_cancelled_cell(&guard);
                            drop(guard);
                            self.resume(v).unwrap_or_else(|_| {
                                unreachable!("smart asynchronous resume cannot fail")
                            });
                        }
                    }
                } else {
                    // The upcoming resume(..) must be refused.
                    cqs_stats::bump!(cancels_refused);
                    cqs_chaos::inject!("cqs.cancel.pre-refuse-swap");
                    // PLANTED BUG (test-only, feature `planted-bug`):
                    // writing CANCELLED instead of REFUSE tells the
                    // in-flight resumer to skip to a replacement cell even
                    // though `on_cancellation` already banked its value —
                    // the value is delivered twice. Exists solely so CI can
                    // prove the cqs-check explorer catches the violation
                    // (tests/model_check.rs).
                    #[cfg(feature = "planted-bug")]
                    let refuse_state = cell::CANCELLED;
                    #[cfg(not(feature = "planted-bug"))]
                    let refuse_state = cell::REFUSE;
                    match cell.cancel_swap(refuse_state, &guard) {
                        CancelSwap::WasRequest => {}
                        CancelSwap::WasValue(v) => {
                            self.callbacks.complete_refused_resume(v);
                        }
                    }
                }
            }
        }
    }
}
