//! A fair, abortable counting semaphore on top of CQS (paper, §4.3 and
//! Appendix D, Listing 16).
//!
//! The entire algorithm is the `state` counter plus three-line
//! `acquire`/`release` bodies — everything difficult lives in the CQS.

use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Arc;

use cqs_core::shard::{RefusalHook, Shard};
use cqs_core::{
    CancellationMode, Cancelled, Cqs, CqsCallbacks, CqsConfig, CqsFuture, ResumeMode, Suspend,
};
use cqs_stats::CachePadded;

/// Semaphore state shared with the smart-cancellation callbacks:
/// `state >= 0` is the number of available permits, `state < 0` the negated
/// number of waiters.
struct SemaphoreCallbacks {
    state: Arc<CachePadded<AtomicI64>>,
    /// Invoked after a refusal has fully settled (permit re-banked and the
    /// refused value consumed); see [`RefusalHook`].
    on_refusal: Option<RefusalHook>,
}

impl std::fmt::Debug for SemaphoreCallbacks {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SemaphoreCallbacks")
            .field("state", &self.state)
            .field("on_refusal", &self.on_refusal.is_some())
            .finish()
    }
}

impl CqsCallbacks<()> for SemaphoreCallbacks {
    fn on_cancellation(&self) -> bool {
        // Either increment the number of available permits or decrement the
        // number of waiters. If a waiter was deregistered (s < 0) the
        // cancellation completes; otherwise a concurrent release() is bound
        // to resume this waiter and must be refused — the permit is already
        // back in `state`.
        let s = self.state.fetch_add(1, Ordering::SeqCst);
        s < 0
    }

    fn complete_refused_resume(&self, _permit: ()) {
        // The permit was returned to `state` by on_cancellation already,
        // which strictly precedes this call in both refusal paths (the
        // canceller swaps the cell to REFUSE / observes the delegated value
        // only after its re-banking increment).
        if let Some(hook) = &self.on_refusal {
            hook();
        }
    }
}

/// A fair counting semaphore: at most `permits` holders at a time, waiters
/// served in FIFO order, waiting abortable at any time.
///
/// Create it with [`Semaphore::new`] (asynchronous resumption — fastest) or
/// [`Semaphore::new_sync`] (synchronous resumption — enables
/// [`try_acquire`](Semaphore::try_acquire), see the paper's Appendix B for
/// why non-blocking acquisition requires the synchronous mode).
///
/// # Example
///
/// ```
/// use std::sync::Arc;
/// use cqs_sync::Semaphore;
///
/// let semaphore = Arc::new(Semaphore::new(2));
/// semaphore.acquire().wait().unwrap();
/// semaphore.acquire().wait().unwrap();
/// // Third acquirer would wait; release first.
/// semaphore.release();
/// semaphore.acquire().wait().unwrap();
/// # semaphore.release(); semaphore.release();
/// ```
#[derive(Debug)]
pub struct Semaphore {
    /// Cache-line padded: acquirers and releasers from every thread hammer
    /// this one word; padding keeps it from false-sharing with whatever the
    /// allocator places next to it.
    state: Arc<CachePadded<AtomicI64>>,
    cqs: Cqs<(), SemaphoreCallbacks>,
    permits: usize,
    sync_mode: bool,
}

impl Semaphore {
    /// Creates a semaphore with `permits` permits using asynchronous
    /// resumption (the default, fastest mode).
    ///
    /// # Panics
    ///
    /// Panics if `permits` is zero.
    pub fn new(permits: usize) -> Self {
        Self::with_mode(permits, ResumeMode::Asynchronous, None)
    }

    /// Creates a semaphore using synchronous resumption, which additionally
    /// supports [`try_acquire`](Semaphore::try_acquire).
    ///
    /// # Panics
    ///
    /// Panics if `permits` is zero.
    pub fn new_sync(permits: usize) -> Self {
        Self::with_mode(permits, ResumeMode::Synchronous, None)
    }

    /// Like [`new_sync`](Semaphore::new_sync), but with an explicit
    /// rendezvous spin limit: how long a releaser waits for a lagging
    /// acquirer before breaking the cell and retrying (Listing 16's
    /// bounded wait). Low limits make broken rendezvous frequent; tests
    /// use `0` to exercise the retry protocol deterministically.
    ///
    /// # Panics
    ///
    /// Panics if `permits` is zero.
    pub fn new_sync_with_spin(permits: usize, spin_limit: usize) -> Self {
        Self::with_mode(permits, ResumeMode::Synchronous, Some(spin_limit))
    }

    /// Builds a shard of a sharded semaphore: asynchronous resumption with
    /// `initial` of the primitive's `cap` total permits banked here. The
    /// shard's excess-release accounting is capped at the *total* because
    /// rebalancing migrates credit between shards, so any one shard may
    /// transiently bank every permit. `on_refusal` is what
    /// [`cqs_core::shard::Sharded::new`] hands each shard.
    pub(crate) fn with_initial(
        cap: usize,
        initial: usize,
        label: &'static str,
        on_refusal: Option<RefusalHook>,
    ) -> Self {
        assert!(cap > 0, "a semaphore needs at least one permit");
        debug_assert!(initial <= cap, "initial share exceeds the permit cap");
        let state = Arc::new(CachePadded::new(AtomicI64::new(initial as i64)));
        let config = CqsConfig::new()
            .resume_mode(ResumeMode::Asynchronous)
            .cancellation_mode(CancellationMode::Smart)
            .label(label);
        let cqs = Cqs::new(
            config,
            SemaphoreCallbacks {
                state: Arc::clone(&state),
                on_refusal,
            },
        );
        Semaphore {
            state,
            cqs,
            permits: cap,
            sync_mode: false,
        }
    }

    fn with_mode(permits: usize, mode: ResumeMode, spin_limit: Option<usize>) -> Self {
        assert!(permits > 0, "a semaphore needs at least one permit");
        let state = Arc::new(CachePadded::new(AtomicI64::new(permits as i64)));
        let mut config = CqsConfig::new()
            .resume_mode(mode)
            .cancellation_mode(CancellationMode::Smart)
            .label("semaphore.acquire");
        if let Some(limit) = spin_limit {
            config = config.spin_limit(limit);
        }
        let cqs = Cqs::new(
            config,
            SemaphoreCallbacks {
                state: Arc::clone(&state),
                on_refusal: None,
            },
        );
        Semaphore {
            state,
            cqs,
            permits,
            sync_mode: mode == ResumeMode::Synchronous,
        }
    }

    /// The number of permits this semaphore was created with.
    pub fn permits(&self) -> usize {
        self.permits
    }

    /// A snapshot of the number of currently available permits (zero if
    /// there are waiters).
    pub fn available_permits(&self) -> usize {
        self.state.load(Ordering::SeqCst).max(0) as usize
    }

    /// Watchdog id keying this semaphore's waiter records and its permit
    /// gauge in cqs-watch reports. Always `0` when the `watch` feature is
    /// off.
    pub fn watch_id(&self) -> u64 {
        self.cqs.watch_id()
    }

    /// Acquires a permit: completes immediately if one is available,
    /// otherwise returns a future completed by a future
    /// [`release`](Semaphore::release) in FIFO order. Cancel the future to
    /// abort waiting.
    pub fn acquire(&self) -> CqsFuture<()> {
        // Linearizability-history seam (cqs-check): the invoke edge covers
        // the whole operation including retries; the *response* edge is
        // recorded by the harness once the returned future resolves, since
        // only the caller knows when it stops waiting or cancels.
        cqs_chaos::record!(self as *const Self as u64, "sem.acquire", Invoke, 0);
        loop {
            // Fail fast on a closed semaphore *before* touching `state`:
            // past this check a racing `close()` is handled by the CQS
            // itself (the suspension self-cancels and the smart callbacks
            // restore the counter).
            if self.cqs.is_closed() {
                return CqsFuture::cancelled();
            }
            let s = self.state.fetch_sub(1, Ordering::SeqCst);
            cqs_watch::gauge!(self.cqs.watch_id(), "state", s - 1);
            if s > 0 {
                cqs_stats::bump!(immediate_hits);
                return CqsFuture::immediate(());
            }
            match self.cqs.suspend() {
                Suspend::Future(f) => return f,
                // Synchronous mode: the rendezvous failed; restart.
                Suspend::Broken => {
                    std::thread::yield_now();
                    continue;
                }
            }
        }
    }

    /// Blocking convenience: acquires a permit and returns a guard that
    /// releases it on drop.
    ///
    /// # Errors
    ///
    /// Never fails in practice (acquisition is only aborted through a
    /// cancelled future, which this method does not expose); the `Result`
    /// mirrors [`CqsFuture::wait`].
    pub fn acquire_blocking(&self) -> Result<SemaphoreGuard<'_>, Cancelled> {
        self.acquire().wait()?;
        cqs_watch::acquired!(self.cqs.watch_id(), "semaphore.acquire", false);
        Ok(SemaphoreGuard { semaphore: self })
    }

    /// Blocking convenience with a deadline: acquires a permit or aborts
    /// the queued request after `timeout`.
    ///
    /// # Errors
    ///
    /// Returns [`Cancelled`] if the timeout elapsed first.
    pub fn acquire_timeout(
        &self,
        timeout: std::time::Duration,
    ) -> Result<SemaphoreGuard<'_>, Cancelled> {
        self.acquire().wait_timeout(timeout)?;
        cqs_watch::acquired!(self.cqs.watch_id(), "semaphore.acquire", false);
        Ok(SemaphoreGuard { semaphore: self })
    }

    /// Attempts to take a permit without waiting.
    ///
    /// Returns `true` if a permit was acquired. Only available on
    /// semaphores created with [`Semaphore::new_sync`]: with asynchronous
    /// resumption a released permit may transiently live inside the CQS
    /// where `try_acquire` cannot see it, making the operation incorrect
    /// (paper, Appendix B, Figure 9).
    ///
    /// # Panics
    ///
    /// Panics if the semaphore uses asynchronous resumption.
    pub fn try_acquire(&self) -> bool {
        assert!(
            self.sync_mode,
            "try_acquire requires a semaphore created with Semaphore::new_sync"
        );
        let mut s = self.state.load(Ordering::SeqCst);
        while s > 0 {
            match self
                .state
                .compare_exchange(s, s - 1, Ordering::SeqCst, Ordering::SeqCst)
            {
                Ok(_) => return true,
                Err(actual) => s = actual,
            }
        }
        false
    }

    /// Attempts to take a *banked* permit without waiting, in any resume
    /// mode.
    ///
    /// This is the **weak** sibling of [`try_acquire`](Semaphore::try_acquire):
    /// it only CASes the state counter downward while it is positive, so it
    /// never blocks, never queues, and never takes a permit destined for a
    /// FIFO waiter (the counter is non-positive whenever waiters exist).
    /// The weakness is in asynchronous mode: a permit a concurrent
    /// `release` has already committed may transiently live *inside* the
    /// queue where this method cannot see it, so `false` does not prove the
    /// semaphore was exhausted at any single instant (the reason
    /// [`try_acquire`](Semaphore::try_acquire) demands synchronous
    /// resumption — paper, Appendix B, Figure 9). Sequentially the counter
    /// is exact and the weakness is unobservable. Sharded primitives use
    /// this as their local fast path and steal path.
    pub fn try_acquire_weak(&self) -> bool {
        let mut s = self.state.load(Ordering::SeqCst);
        while s > 0 {
            match self
                .state
                .compare_exchange(s, s - 1, Ordering::SeqCst, Ordering::SeqCst)
            {
                Ok(_) => {
                    cqs_watch::gauge!(self.cqs.watch_id(), "state", s - 1);
                    return true;
                }
                Err(actual) => s = actual,
            }
        }
        false
    }

    /// Like [`try_acquire_weak`](Semaphore::try_acquire_weak), but takes up
    /// to `max` banked permits in one CAS and returns how many it got.
    /// Sharded rebalancing uses this to reclaim a batch of credit from one
    /// shard's bank before handing it to another shard's waiters in a
    /// single batched traversal.
    pub fn try_acquire_many_weak(&self, max: usize) -> usize {
        if max == 0 {
            return 0;
        }
        let cap = i64::try_from(max).unwrap_or(i64::MAX);
        let mut s = self.state.load(Ordering::SeqCst);
        while s > 0 {
            let take = s.min(cap);
            match self
                .state
                .compare_exchange(s, s - take, Ordering::SeqCst, Ordering::SeqCst)
            {
                Ok(_) => {
                    cqs_watch::gauge!(self.cqs.watch_id(), "state", s - take);
                    return take as usize;
                }
                Err(actual) => s = actual,
            }
        }
        0
    }

    /// A snapshot of the number of currently queued waiters (zero if
    /// permits are available).
    pub fn waiting(&self) -> usize {
        (-self.state.load(Ordering::SeqCst)).max(0) as usize
    }

    /// Number of live queue segments backing this semaphore's waiter queue
    /// (diagnostics; the soak scenario tracks it to prove memory stays
    /// proportional to live waiters).
    pub fn live_segments(&self) -> usize {
        self.cqs.live_segments()
    }

    /// Closes the semaphore: every queued acquirer is woken with an error
    /// (its future reports [`Cancelled`]) and every subsequent
    /// [`acquire`](Semaphore::acquire) fails fast without queuing. Permits
    /// already handed out stay valid and may still be
    /// [`release`](Semaphore::release)d, so holders can finish their
    /// critical sections gracefully. Closing twice is a no-op.
    pub fn close(&self) {
        self.cqs.close();
    }

    /// Whether [`close`](Semaphore::close) was called.
    pub fn is_closed(&self) -> bool {
        self.cqs.is_closed()
    }

    /// Poisons the semaphore: marks the waiter queue poisoned and closes it
    /// (see [`close`](Semaphore::close)). Use when a permit holder crashed
    /// and the resource the permits guard may be inconsistent.
    pub fn poison(&self) {
        self.cqs.poison();
    }

    /// Whether the semaphore was poisoned — by [`poison`](Semaphore::poison)
    /// or by a panic escaping a batched release traversal. A poisoned
    /// semaphore is always also [closed](Semaphore::is_closed), so pending
    /// and subsequent [`acquire`](Semaphore::acquire)s fail with
    /// [`Cancelled`] rather than hanging.
    pub fn is_poisoned(&self) -> bool {
        self.cqs.is_poisoned()
    }

    /// Like [`release`](Semaphore::release), but refuses to push the number
    /// of available permits above the count the semaphore was created with.
    ///
    /// # Errors
    ///
    /// Returns [`ExcessRelease`] — and leaves the semaphore untouched — if
    /// all permits are already available, which means the caller releases
    /// a permit it never acquired.
    pub fn release_checked(&self) -> Result<(), ExcessRelease> {
        let mut s = self.state.load(Ordering::SeqCst);
        loop {
            if s >= self.permits as i64 {
                return Err(ExcessRelease);
            }
            match self
                .state
                .compare_exchange(s, s + 1, Ordering::SeqCst, Ordering::SeqCst)
            {
                Ok(_) => break,
                Err(actual) => s = actual,
            }
        }
        if s >= 0 {
            return Ok(());
        }
        // There was a waiter when we incremented; resume it, retrying
        // broken synchronous rendezvous like `release()` does: refund the
        // counter first (Listing 16), and resume again only while the
        // refunded value still shows waiters. The refund honours the same
        // cap as the entry increment — an unconditional `fetch_add` here
        // can race a lagging suspender's re-decrement and push `state`
        // permanently above `permits`.
        loop {
            if self.cqs.resume(()).is_ok() {
                return Ok(());
            }
            std::thread::yield_now();
            let mut s = self.state.load(Ordering::SeqCst);
            loop {
                if s >= self.permits as i64 {
                    // Every permit is already accounted for: the one this
                    // call committed was absorbed balancing the broken
                    // rendezvous (its suspender re-acquires via the fast
                    // path), so no waiter remains for us to serve.
                    return Ok(());
                }
                match self
                    .state
                    .compare_exchange(s, s + 1, Ordering::SeqCst, Ordering::SeqCst)
                {
                    Ok(_) => break,
                    Err(actual) => s = actual,
                }
            }
            if s >= 0 {
                return Ok(());
            }
        }
    }

    /// Returns a permit, resuming the first waiter if there is one.
    pub fn release(&self) {
        let _ = self.bank(());
    }

    fn release_permit(&self) -> bool {
        loop {
            let s = self.state.fetch_add(1, Ordering::SeqCst);
            cqs_watch::gauge!(self.cqs.watch_id(), "state", s + 1);
            // In asynchronous mode every increment releases exactly one
            // permit, so overshooting the cap proves an excess release. In
            // synchronous mode this same loop also performs the Listing-16
            // refund increments for broken rendezvous, which race with the
            // lagging suspender's re-decrement — the bound does not hold
            // per-increment there and asserting it fires on correct
            // programs.
            debug_assert!(
                self.sync_mode || s < self.permits as i64,
                "released more permits than were acquired"
            );
            if s >= 0 {
                return true;
            }
            // There is a waiter; try to resume it. With smart cancellation
            // and asynchronous resumption this never fails; in synchronous
            // mode a broken rendezvous makes us restart.
            if self.cqs.resume(()).is_ok() {
                return false;
            }
            // Synchronous mode: the rendezvous broke; give the lagging
            // suspender a chance to run before retrying.
            std::thread::yield_now();
        }
    }

    /// Returns `k` permits at once: one `fetch_add(k)` on the state word,
    /// and the waiters those permits uncover are resumed in a **single
    /// batched traversal** ([`Cqs::resume_n`]) whose wake-ups fire only
    /// after the sweep — the bulk analogue of calling
    /// [`release`](Semaphore::release) `k` times, minus `k − 1` counter
    /// round-trips. Used by `BlockingPool` teardown to hand every parked
    /// worker its shutdown permit at once.
    pub fn release_n(&self, k: usize) {
        let _ = self.bank_many(vec![(); k]);
    }
}

/// A semaphore is a shard whose items are permits. `bank` / `bank_many`
/// are [`release`](Semaphore::release) / [`release_n`](Semaphore::release_n)
/// reporting where the permits went, which the sharding layer keys its
/// rebalance accounting off.
impl Shard for Semaphore {
    type Item = ();

    fn try_take_weak(&self) -> Option<()> {
        self.try_acquire_weak().then_some(())
    }

    fn park(&self) -> CqsFuture<()> {
        self.acquire()
    }

    fn bank(&self, (): ()) -> bool {
        // Linearizability-history seam (cqs-check): a release is a
        // complete operation, so both edges are recorded here.
        cqs_chaos::record!(self as *const Self as u64, "sem.release", Invoke, 0);
        let banked = self.release_permit();
        cqs_chaos::record!(self as *const Self as u64, "sem.release", Response, 0);
        banked
    }

    /// The count is exact in asynchronous mode.
    fn bank_many(&self, permits: Vec<()>) -> usize {
        let k = permits.len() as i64;
        if k == 0 {
            return 0;
        }
        let s = self.state.fetch_add(k, Ordering::SeqCst);
        cqs_watch::gauge!(self.cqs.watch_id(), "state", s + k);
        // See `release_permit` for why the overshoot bound only holds in
        // asynchronous mode.
        debug_assert!(
            self.sync_mode || s + k <= self.permits as i64,
            "released more permits than were acquired"
        );
        // Exactly the increments that landed below zero belong to waiters;
        // the rest are banked as free permits.
        let waiters = (-s).clamp(0, k) as usize;
        let mut banked = k as usize - waiters;
        if waiters == 0 {
            return banked;
        }
        let failed = self.cqs.resume_n(std::iter::repeat_n((), waiters), waiters);
        debug_assert!(
            failed.is_empty() || self.sync_mode,
            "smart async resume cannot fail"
        );
        for _ in failed {
            // Synchronous mode: this token's rendezvous broke. `release`'s
            // own loop performs the Listing-16 refund increment and
            // retries, which is exactly the per-permit recovery we need.
            std::thread::yield_now();
            banked += usize::from(self.bank(()));
        }
        banked
    }

    /// One CAS for the whole batch instead of a take per permit.
    fn migrate(&self, to: &Self, max: usize) -> usize {
        let got = self.try_acquire_many_weak(max);
        to.release_n(got);
        got
    }

    fn banked(&self) -> usize {
        self.available_permits()
    }

    fn waiting(&self) -> usize {
        Semaphore::waiting(self)
    }

    fn close(&self) {
        Semaphore::close(self);
    }

    fn is_closed(&self) -> bool {
        Semaphore::is_closed(self)
    }

    fn live_segments(&self) -> usize {
        Semaphore::live_segments(self)
    }

    fn watch_id(&self) -> u64 {
        Semaphore::watch_id(self)
    }
}

/// RAII guard returned by [`Semaphore::acquire_blocking`]; releases the
/// permit when dropped.
#[derive(Debug)]
pub struct SemaphoreGuard<'a> {
    semaphore: &'a Semaphore,
}

impl Drop for SemaphoreGuard<'_> {
    fn drop(&mut self) {
        cqs_watch::released!(self.semaphore.cqs.watch_id());
        self.semaphore.release();
    }
}

/// Error of [`Semaphore::release_checked`]: the release would have pushed
/// the available-permit count above the configured maximum.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ExcessRelease;

impl std::fmt::Display for ExcessRelease {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("released a permit that was never acquired")
    }
}

impl std::error::Error for ExcessRelease {}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::time::Duration;

    #[test]
    fn permits_are_counted() {
        let s = Semaphore::new(3);
        assert_eq!(s.permits(), 3);
        assert_eq!(s.available_permits(), 3);
        s.acquire().wait().unwrap();
        assert_eq!(s.available_permits(), 2);
        s.release();
        assert_eq!(s.available_permits(), 3);
    }

    #[test]
    #[should_panic(expected = "at least one permit")]
    fn zero_permits_rejected() {
        let _ = Semaphore::new(0);
    }

    /// `release_n` splits its permits between parked waiters (one batched
    /// traversal) and the free-permit bank.
    #[test]
    fn release_n_serves_waiters_then_banks_the_rest() {
        let s = Semaphore::new(8);
        for _ in 0..8 {
            s.acquire().wait().unwrap();
        }
        let parked: Vec<_> = (0..3).map(|_| s.acquire()).collect();
        assert_eq!(s.available_permits(), 0);
        // 5 permits: 3 wake the parked waiters, 2 go to the bank.
        s.release_n(5);
        for f in parked {
            f.wait().unwrap();
        }
        assert_eq!(s.available_permits(), 2);
        s.release_n(0); // no-op
        assert_eq!(s.available_permits(), 2);
    }

    /// `release_n(k)` is observationally the same as `k` single releases,
    /// under concurrent acquirers. Releasers only return permits that were
    /// actually acquired (tracked through a credit counter), honouring the
    /// semaphore's cap contract, so acquirers routinely park and get woken
    /// by batched releases.
    #[test]
    fn release_n_conserves_permits_under_contention() {
        const PERMITS: usize = 8;
        const ACQUIRERS: usize = 4;
        const RELEASERS: usize = 4;
        const BATCH: usize = 4;
        const PER_ACQUIRER: usize = 1_200; // divisible by BATCH * RELEASERS
        let s = Arc::new(Semaphore::new(PERMITS));
        let credits = Arc::new(std::sync::atomic::AtomicI64::new(0));
        let mut joins = Vec::new();
        for _ in 0..ACQUIRERS {
            let s = Arc::clone(&s);
            let credits = Arc::clone(&credits);
            joins.push(std::thread::spawn(move || {
                for _ in 0..PER_ACQUIRER {
                    s.acquire().wait().unwrap();
                    credits.fetch_add(1, Ordering::SeqCst);
                }
            }));
        }
        let total = ACQUIRERS * PER_ACQUIRER;
        for _ in 0..RELEASERS {
            let s = Arc::clone(&s);
            let credits = Arc::clone(&credits);
            joins.push(std::thread::spawn(move || {
                for _ in 0..total / RELEASERS / BATCH {
                    loop {
                        let c = credits.load(Ordering::SeqCst);
                        if c >= BATCH as i64
                            && credits
                                .compare_exchange(
                                    c,
                                    c - BATCH as i64,
                                    Ordering::SeqCst,
                                    Ordering::SeqCst,
                                )
                                .is_ok()
                        {
                            break;
                        }
                        std::thread::yield_now();
                    }
                    s.release_n(BATCH);
                }
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
        // Every acquired permit was batch-released back: the bank is full.
        assert_eq!(s.available_permits(), PERMITS);
    }

    /// Deterministic replay of the synchronous-mode interleaving in which
    /// the Listing-16 refund must honour the permit cap.
    ///
    /// The schedule (permits = 1):
    ///
    /// 1. the only permit is held;
    /// 2. an acquirer applies its `fetch_sub` but lags before reaching
    ///    `cqs.suspend()` (simulated directly — the window is real but a
    ///    preemption there cannot be forced portably);
    /// 3. the holder's `release_checked()` commits its permit (`-1 -> 0`),
    ///    sees the waiter, and enters the synchronous rendezvous: it
    ///    publishes the value and spins for `TAKEN`. A huge `spin_limit`
    ///    parks it in that window for tens of milliseconds, making the
    ///    remaining interleaving deterministic;
    /// 4. an *excess* `release_checked()` arrives during the transient dip.
    ///    The entry cap cannot attribute the in-flight rendezvous, so the
    ///    call sneaks through with `Ok` (`0 -> 1`) — unavoidable in sync
    ///    mode, and harmless *if* the refund below respects the cap;
    /// 5. the spin expires, the rendezvous breaks, and the releaser refunds
    ///    the broken waiter's coming re-decrement. An unconditional
    ///    `fetch_add` here pushes `state` to `permits + 1` permanently: the
    ///    sneaked excess of step 4 and the refund both stack on top of the
    ///    single real permit. The capped refund absorbs the excess instead.
    ///
    /// Before the fix this test fails with `available_permits() == 1` while
    /// the permit is held (and, with the then-unconditional debug
    /// assertion, the innocent holder's `release()` panicked — the spurious
    /// fire this regression test pins down).
    #[test]
    fn sync_mode_refund_honours_permit_cap() {
        // Roughly 50-500 ms of spinning on current hardware: far above the
        // few milliseconds the main thread needs for steps 4-5.
        const SPIN: usize = 50_000_000;
        let s = Arc::new(Semaphore::new_sync_with_spin(1, SPIN));
        assert!(s.try_acquire(), "the single permit must be free");

        // Step 2: the lagging acquirer's decrement, pre-suspension.
        s.state.fetch_sub(1, Ordering::SeqCst);

        // Step 3: release the held permit; the releaser parks inside the
        // rendezvous window.
        let releaser = {
            let s = Arc::clone(&s);
            std::thread::spawn(move || {
                s.release_checked()
                    .expect("releasing a genuinely held permit must succeed");
            })
        };
        // The entry increment (-1 -> 0) is the observable signal that the
        // releaser is about to publish; give it a moment to start spinning.
        while s.state.load(Ordering::SeqCst) < 0 {
            std::thread::yield_now();
        }
        std::thread::sleep(Duration::from_millis(5));

        // Step 4: the excess release that sneaks through the entry cap
        // during the dip. Its result is unspecified mid-rendezvous; the
        // counter invariant below is what matters.
        let _ = s.release_checked();

        // Step 5: the rendezvous breaks and the refund is applied.
        releaser.join().unwrap();

        // The lagging acquirer retries (a broken rendezvous re-runs the
        // acquire loop); it must find exactly one permit.
        let waiter = s.acquire();
        assert_eq!(waiter.wait(), Ok(()));
        assert_eq!(
            s.available_permits(),
            0,
            "permit counter corrupted: a permit is held, none may be free"
        );
        s.release(); // must not trip the excess-release debug assertion
        assert_eq!(s.available_permits(), 1);
        assert_eq!(s.release_checked(), Err(ExcessRelease));
    }

    #[test]
    fn acquire_suspends_when_exhausted() {
        let s = Arc::new(Semaphore::new(1));
        s.acquire().wait().unwrap();
        let mut f = s.acquire();
        assert!(!f.is_immediate());
        assert_eq!(f.try_get(), cqs_core::FutureState::Pending);
        s.release();
        assert_eq!(f.wait(), Ok(()));
    }

    #[test]
    fn fifo_handoff() {
        let s = Arc::new(Semaphore::new(1));
        s.acquire().wait().unwrap();
        let waiters: Vec<_> = (0..4).map(|_| s.acquire()).collect();
        let order = Arc::new(AtomicUsize::new(0));
        let mut joins = Vec::new();
        for (i, f) in waiters.into_iter().enumerate() {
            let order = Arc::clone(&order);
            let s = Arc::clone(&s);
            joins.push(std::thread::spawn(move || {
                f.wait().unwrap();
                let at = order.fetch_add(1, Ordering::SeqCst);
                assert_eq!(at, i, "FIFO violated: waiter {i} resumed {at}th");
                s.release();
            }));
        }
        s.release();
        for j in joins {
            j.join().unwrap();
        }
    }

    #[test]
    fn cancellation_returns_waiter_slot() {
        let s = Arc::new(Semaphore::new(1));
        s.acquire().wait().unwrap();
        let f1 = s.acquire();
        let f2 = s.acquire();
        assert!(f1.cancel());
        // f2 is now first in line.
        s.release();
        assert_eq!(f2.wait(), Ok(()));
        s.release();
        assert_eq!(s.available_permits(), 1);
    }

    #[test]
    fn cancel_last_waiter_refuses_release() {
        let s = Arc::new(Semaphore::new(1));
        s.acquire().wait().unwrap();
        let f = s.acquire();
        // Race-free sequential version: release first (permit destined for
        // f), then cancel. The cancellation must refuse the resume and keep
        // the permit.
        let s2 = Arc::clone(&s);
        let releaser = std::thread::spawn(move || s2.release());
        if !f.cancel() {
            // The release resumed the waiter before the cancellation landed;
            // the future owns the permit, so give it back.
            f.wait().unwrap();
            s.release();
        }
        releaser.join().unwrap();
        // However the race resolves, exactly one permit must exist.
        std::thread::sleep(Duration::from_millis(10));
        assert_eq!(s.available_permits(), 1);
    }

    #[test]
    fn try_acquire_requires_sync_mode() {
        let s = Semaphore::new_sync(2);
        assert!(s.try_acquire());
        assert!(s.try_acquire());
        assert!(!s.try_acquire());
        s.release();
        assert!(s.try_acquire());
    }

    #[test]
    #[should_panic(expected = "try_acquire requires")]
    fn try_acquire_panics_in_async_mode() {
        let s = Semaphore::new(1);
        let _ = s.try_acquire();
    }

    #[test]
    fn sync_mode_acquire_release_roundtrip() {
        let s = Arc::new(Semaphore::new_sync(2));
        let mut joins = Vec::new();
        let inside = Arc::new(AtomicUsize::new(0));
        for _ in 0..8 {
            let s = Arc::clone(&s);
            let inside = Arc::clone(&inside);
            joins.push(std::thread::spawn(move || {
                for _ in 0..500 {
                    s.acquire().wait().unwrap();
                    let now = inside.fetch_add(1, Ordering::SeqCst) + 1;
                    assert!(now <= 2, "semaphore admitted {now} > 2 holders");
                    inside.fetch_sub(1, Ordering::SeqCst);
                    s.release();
                }
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
        assert_eq!(s.available_permits(), 2);
    }

    /// Regression test: `release_checked()`'s retry path used to refund a
    /// broken synchronous rendezvous with an uncapped `fetch_add`, which
    /// could race a lagging suspender's re-decrement and push `state`
    /// permanently above `permits` — after which innocent `release()`
    /// calls tripped their excess-release debug assertion. A spin limit of
    /// zero makes every release that overtakes its suspender break the
    /// rendezvous, so the retry protocol runs constantly.
    #[test]
    fn sync_mode_broken_rendezvous_storm_respects_permit_cap() {
        const PERMITS: usize = 2;
        const THREADS: usize = 4;
        const OPS: usize = 2_000;
        let s = Arc::new(Semaphore::new_sync_with_spin(PERMITS, 0));
        let inside = Arc::new(AtomicUsize::new(0));
        let mut joins = Vec::new();
        for t in 0..THREADS {
            let s = Arc::clone(&s);
            let inside = Arc::clone(&inside);
            joins.push(std::thread::spawn(move || {
                for i in 0..OPS {
                    s.acquire().wait().unwrap();
                    let now = inside.fetch_add(1, Ordering::SeqCst) + 1;
                    assert!(now <= PERMITS, "semaphore admitted {now} > {PERMITS}");
                    inside.fetch_sub(1, Ordering::SeqCst);
                    // Alternate the two release flavours: the corruption
                    // needs release_checked's retry racing other releases.
                    if (i + t) % 2 == 0 {
                        s.release_checked()
                            .expect("a held permit is never an excess release");
                    } else {
                        s.release();
                    }
                }
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
        // Quiescence: exactly the configured permits, never more.
        assert_eq!(
            s.available_permits(),
            PERMITS,
            "permit counter corrupted by broken-rendezvous refunds"
        );
        assert_eq!(s.release_checked(), Err(ExcessRelease));
    }

    /// Same storm on a single permit (mutex degeneration), all releases
    /// through `release_checked()` — the tightest window for the capped
    /// refund, since one broken rendezvous is enough to reach the cap.
    #[test]
    fn sync_mode_release_checked_storm_single_permit() {
        const THREADS: usize = 4;
        const OPS: usize = 2_000;
        let s = Arc::new(Semaphore::new_sync_with_spin(1, 0));
        let inside = Arc::new(AtomicUsize::new(0));
        let mut joins = Vec::new();
        for _ in 0..THREADS {
            let s = Arc::clone(&s);
            let inside = Arc::clone(&inside);
            joins.push(std::thread::spawn(move || {
                for _ in 0..OPS {
                    s.acquire().wait().unwrap();
                    let now = inside.fetch_add(1, Ordering::SeqCst) + 1;
                    assert!(now <= 1, "mutual exclusion violated: {now} holders");
                    inside.fetch_sub(1, Ordering::SeqCst);
                    s.release_checked()
                        .expect("a held permit is never an excess release");
                }
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
        assert_eq!(s.available_permits(), 1);
    }

    #[test]
    fn guard_releases_on_drop() {
        let s = Semaphore::new(1);
        {
            let _g = s.acquire_blocking().unwrap();
            assert_eq!(s.available_permits(), 0);
        }
        assert_eq!(s.available_permits(), 1);
    }

    /// The paper's key invariant: never more than K holders, even under a
    /// storm of cancellations racing with releases.
    #[test]
    fn mutual_exclusion_under_cancellation_storm() {
        const K: usize = 2;
        const THREADS: usize = 8;
        const OPS: usize = 1_000;
        let s = Arc::new(Semaphore::new(K));
        let inside = Arc::new(AtomicUsize::new(0));
        let mut joins = Vec::new();
        for t in 0..THREADS {
            let s = Arc::clone(&s);
            let inside = Arc::clone(&inside);
            joins.push(std::thread::spawn(move || {
                for i in 0..OPS {
                    let f = s.acquire();
                    // Occasionally try to abort the acquisition.
                    if (i + t) % 5 == 0 && f.cancel() {
                        continue;
                    }
                    f.wait().unwrap();
                    let now = inside.fetch_add(1, Ordering::SeqCst) + 1;
                    assert!(now <= K, "semaphore admitted {now} > {K} holders");
                    inside.fetch_sub(1, Ordering::SeqCst);
                    s.release();
                }
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
        // All permits must be back.
        for _ in 0..K {
            assert!(s.acquire().wait().is_ok());
        }
    }
}

#[cfg(test)]
mod close_tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn close_wakes_queued_waiters_with_error() {
        let s = Arc::new(Semaphore::new(1));
        s.acquire().wait().unwrap();
        let waiters: Vec<_> = (0..4).map(|_| s.acquire()).collect();
        let joins: Vec<_> = waiters
            .into_iter()
            .map(|f| std::thread::spawn(move || f.wait()))
            .collect();
        // Give the waiters a moment to park, then close.
        std::thread::sleep(Duration::from_millis(20));
        s.close();
        for j in joins {
            assert_eq!(j.join().unwrap(), Err(Cancelled));
        }
    }

    #[test]
    fn acquire_after_close_fails_fast() {
        let s = Semaphore::new(2);
        assert!(!s.is_closed());
        s.close();
        assert!(s.is_closed());
        assert_eq!(s.acquire().wait(), Err(Cancelled));
        assert!(s.acquire_blocking().is_err());
        // `state` was never touched: closing loses no permits.
        assert_eq!(s.available_permits(), 2);
    }

    #[test]
    fn holders_can_release_after_close() {
        let s = Semaphore::new(2);
        let g = s.acquire_blocking().unwrap();
        s.close();
        drop(g);
        assert_eq!(s.available_permits(), 2);
        s.close(); // double close is a no-op
    }

    #[test]
    fn close_races_with_acquirers() {
        for _ in 0..50 {
            let s = Arc::new(Semaphore::new(1));
            s.acquire().wait().unwrap();
            let mut joins = Vec::new();
            for _ in 0..4 {
                let s = Arc::clone(&s);
                joins.push(std::thread::spawn(move || s.acquire().wait()));
            }
            let closer = {
                let s = Arc::clone(&s);
                std::thread::spawn(move || s.close())
            };
            s.release();
            closer.join().unwrap();
            // Every acquirer either got the released permit or an error;
            // none may park forever (join would hang).
            let granted = joins
                .into_iter()
                .map(|j| j.join().unwrap())
                .filter(|r| r.is_ok())
                .count();
            assert!(granted <= 1, "one permit granted to {granted} acquirers");
        }
    }

    #[test]
    fn release_checked_rejects_excess() {
        let s = Semaphore::new(2);
        assert_eq!(s.release_checked(), Err(ExcessRelease));
        s.acquire().wait().unwrap();
        assert_eq!(s.release_checked(), Ok(()));
        assert_eq!(s.release_checked(), Err(ExcessRelease));
        assert_eq!(s.available_permits(), 2);
    }

    #[test]
    fn release_checked_resumes_waiters() {
        let s = Arc::new(Semaphore::new(1));
        s.acquire().wait().unwrap();
        let f = s.acquire();
        assert_eq!(s.release_checked(), Ok(()));
        assert_eq!(f.wait(), Ok(()));
        s.release();
        assert_eq!(s.available_permits(), 1);
    }
}

#[cfg(test)]
mod timeout_tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn acquire_timeout_expires_and_recovers() {
        let s = Semaphore::new(1);
        let held = s.acquire_blocking().unwrap();
        assert!(s.acquire_timeout(Duration::from_millis(10)).is_err());
        drop(held);
        let g = s.acquire_timeout(Duration::from_millis(100)).unwrap();
        drop(g);
        assert_eq!(s.available_permits(), 1);
    }
}
