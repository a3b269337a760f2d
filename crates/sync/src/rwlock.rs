//! A fair (phase-fair) readers–writer lock on top of CQS — the primitive
//! the paper names first among the designs CQS "could serve as a basis
//! for" (§7), and whose cancellation subtleties motivate smart cancellation
//! in §3.1.
//!
//! Design: one packed atomic state word plus two CQS queues, exploiting the
//! framework's licence to call `resume(..)` before the matching
//! `suspend()`:
//!
//! ```text
//! state = [writer-active:1][waiting-writers:20][waiting-readers:20][active-readers:20]
//! ```
//!
//! * `read()` enters immediately when no writer is active or waiting
//!   (writer preference prevents writer starvation); otherwise it registers
//!   in `waiting-readers` and suspends on the reader queue.
//! * `write()` enters immediately when the lock is completely free;
//!   otherwise it registers in `waiting-writers` and suspends on the
//!   (FIFO) writer queue.
//! * `write_unlock()` prefers to release the entire batch of waiting
//!   readers (phase fairness: readers and writers alternate under
//!   contention); `read_unlock()` by the last reader hands over to the
//!   next writer.
//!
//! Waiting is **abortable** (`wait_timeout`, `cancel`) through smart
//! cancellation with the semaphore's anonymous-grant accounting: a
//! cancelling waiter deregisters by decrementing its waiting counter when
//! its grant has not been issued yet (`on_cancellation` → `true`, the cell
//! is skipped in amortized O(1)), and otherwise *refuses* the in-flight
//! grant, whose value is re-dispatched through the regular unlock logic
//! (`complete_refused_resume`). Grants are anonymous — a cancelling reader
//! may consume a slot logically belonging to a later reader while the
//! in-flight resumption lands on that reader's cell — but the counters
//! stay consistent, exactly as in the paper's semaphore (§4.2).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::time::Duration;

use cqs_core::{CancellationMode, Cancelled, Cqs, CqsCallbacks, CqsConfig, CqsFuture, Suspend};
use cqs_stats::CachePadded;

const READER_BITS: u32 = 20;
const FIELD_MASK: u64 = (1 << READER_BITS) - 1;

const ACTIVE_SHIFT: u32 = 0;
const WAIT_READ_SHIFT: u32 = READER_BITS;
const WAIT_WRITE_SHIFT: u32 = 2 * READER_BITS;
const WRITER_BIT: u64 = 1 << (3 * READER_BITS);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct State {
    active_readers: u64,
    waiting_readers: u64,
    waiting_writers: u64,
    writer_active: bool,
}

impl State {
    fn unpack(word: u64) -> Self {
        State {
            active_readers: (word >> ACTIVE_SHIFT) & FIELD_MASK,
            waiting_readers: (word >> WAIT_READ_SHIFT) & FIELD_MASK,
            waiting_writers: (word >> WAIT_WRITE_SHIFT) & FIELD_MASK,
            writer_active: word & WRITER_BIT != 0,
        }
    }

    fn pack(self) -> u64 {
        debug_assert!(self.active_readers <= FIELD_MASK);
        debug_assert!(self.waiting_readers <= FIELD_MASK);
        debug_assert!(self.waiting_writers <= FIELD_MASK);
        (self.active_readers << ACTIVE_SHIFT)
            | (self.waiting_readers << WAIT_READ_SHIFT)
            | (self.waiting_writers << WAIT_WRITE_SHIFT)
            | if self.writer_active { WRITER_BIT } else { 0 }
    }
}

#[derive(Debug)]
struct RwShared {
    /// Cache-line padded: the packed reader/writer word is the single
    /// hottest atomic of the lock and must not share a line with the two
    /// queue headers below.
    state: CachePadded<AtomicU64>,
    readers: Cqs<(), ReaderCallbacks>,
    writers: Cqs<(), WriterCallbacks>,
}

/// Smart-cancellation hooks for the reader queue.
#[derive(Debug)]
struct ReaderCallbacks {
    shared: Weak<RwShared>,
}

impl CqsCallbacks<()> for ReaderCallbacks {
    fn on_cancellation(&self) -> bool {
        let Some(shared) = self.shared.upgrade() else {
            return true; // the lock is gone; nothing to deregister from
        };
        // Deregister while this waiter's unit is still in `waiting-readers`.
        // If a `write_unlock` already moved the whole batch to
        // `active-readers`, a grant is in flight for this cell: refuse it
        // so `complete_refused_resume` can undo the activation.
        let mut word = shared.state.load(Ordering::SeqCst);
        loop {
            let mut s = State::unpack(word);
            if s.waiting_readers == 0 {
                return false;
            }
            s.waiting_readers -= 1;
            match shared
                .state
                .compare_exchange(word, s.pack(), Ordering::SeqCst, Ordering::SeqCst)
            {
                Ok(_) => return true,
                Err(actual) => word = actual,
            }
        }
    }

    fn complete_refused_resume(&self, _value: ()) {
        // The cancelled reader was already counted active by the batch
        // release; leave as if it entered and immediately left.
        if let Some(shared) = self.shared.upgrade() {
            shared.read_unlock();
        }
    }
}

/// Smart-cancellation hooks for the writer queue.
#[derive(Debug)]
struct WriterCallbacks {
    shared: Weak<RwShared>,
}

impl CqsCallbacks<()> for WriterCallbacks {
    fn on_cancellation(&self) -> bool {
        let Some(shared) = self.shared.upgrade() else {
            return true;
        };
        // Same shape as the reader hook: deregister from
        // `waiting-writers`, or refuse the grant that is already bound to
        // this batch (`writer-active` was set on our behalf).
        let mut word = shared.state.load(Ordering::SeqCst);
        loop {
            let mut s = State::unpack(word);
            if s.waiting_writers == 0 {
                return false;
            }
            s.waiting_writers -= 1;
            match shared
                .state
                .compare_exchange(word, s.pack(), Ordering::SeqCst, Ordering::SeqCst)
            {
                Ok(_) => return true,
                Err(actual) => word = actual,
            }
        }
    }

    fn complete_refused_resume(&self, _value: ()) {
        // The grant made this writer active; release it as if it entered
        // and immediately left, re-dispatching to readers or writers.
        if let Some(shared) = self.shared.upgrade() {
            shared.write_unlock();
        }
    }
}

impl RwShared {
    fn transition(&self, f: impl Fn(State) -> State) -> (State, State) {
        let mut word = self.state.load(Ordering::SeqCst);
        loop {
            let old = State::unpack(word);
            let new = f(old);
            match self
                .state
                .compare_exchange(word, new.pack(), Ordering::SeqCst, Ordering::SeqCst)
            {
                Ok(_) => return (old, new),
                Err(actual) => word = actual,
            }
        }
    }

    fn read_unlock(&self) {
        let (old, new) = self.transition(|mut s| {
            debug_assert!(s.active_readers > 0, "read_unlock without readers");
            debug_assert!(!s.writer_active);
            s.active_readers -= 1;
            if s.active_readers == 0 && s.waiting_writers > 0 {
                s.waiting_writers -= 1;
                s.writer_active = true;
            }
            s
        });
        if old.active_readers == 1 && new.writer_active {
            self.writers
                .resume(())
                .unwrap_or_else(|_| unreachable!("smart async resume cannot fail"));
        }
    }

    fn write_unlock(&self) {
        let (old, new) = self.transition(|mut s| {
            debug_assert!(s.writer_active, "write_unlock without a writer");
            debug_assert_eq!(s.active_readers, 0);
            s.writer_active = false;
            if s.waiting_readers > 0 {
                s.active_readers = s.waiting_readers;
                s.waiting_readers = 0;
            } else if s.waiting_writers > 0 {
                s.waiting_writers -= 1;
                s.writer_active = true;
            }
            s
        });
        if old.waiting_readers > 0 {
            // Batch-grant the whole reader cohort in one traversal; the
            // wake-ups fire only after the sweep, so no freshly-granted
            // reader runs while we hold a segment pin. `resume_n` (not
            // `resume_all`): the grant count is the state word's
            // `waiting_readers`, registered before each reader suspends,
            // so a queue-counter snapshot could undercount.
            let n = old.waiting_readers as usize;
            let failed = self.readers.resume_n(std::iter::repeat_n((), n), n);
            assert!(failed.is_empty(), "smart async resume cannot fail");
        } else if new.writer_active {
            self.writers
                .resume(())
                .unwrap_or_else(|_| unreachable!("smart async resume cannot fail"));
        }
    }
}

/// A fair readers–writer lock: shared `read()` access, exclusive `write()`
/// access, FIFO writers, batch-released readers, starvation-free in both
/// directions under contention (phase-fair), abortable waiting in both
/// queues.
///
/// # Example
///
/// ```
/// use cqs_sync::RawRwLock;
///
/// let lock = RawRwLock::new();
/// lock.read().wait().unwrap();
/// lock.read().wait().unwrap(); // readers share
/// lock.read_unlock();
/// lock.read_unlock();
/// lock.write().wait().unwrap(); // writers exclude
/// lock.write_unlock();
/// ```
#[derive(Debug)]
pub struct RawRwLock {
    shared: Arc<RwShared>,
}

/// The pending side of a [`RawRwLock`] acquisition. Abortable: drop-in
/// `wait`/`wait_timeout`/`cancel` like any [`CqsFuture`].
#[derive(Debug)]
pub struct RwLockFuture {
    inner: CqsFuture<()>,
    #[cfg_attr(not(feature = "watch"), allow(dead_code))]
    watch_id: u64,
    #[cfg_attr(not(feature = "watch"), allow(dead_code))]
    exclusive: bool,
}

impl RwLockFuture {
    #[cfg_attr(not(feature = "watch"), allow(unused_variables))]
    fn record_acquired(watch_id: u64, exclusive: bool) {
        cqs_watch::acquired!(
            watch_id,
            if exclusive {
                "rwlock.write"
            } else {
                "rwlock.read"
            },
            exclusive
        );
    }

    /// Blocks until the lock is granted.
    ///
    /// # Errors
    ///
    /// Returns [`Cancelled`] if the pending acquisition was aborted (via
    /// [`cancel`](Self::cancel) from another thread, or a watchdog
    /// eviction).
    pub fn wait(self) -> Result<(), Cancelled> {
        let RwLockFuture {
            inner,
            watch_id,
            exclusive,
        } = self;
        inner.wait()?;
        Self::record_acquired(watch_id, exclusive);
        Ok(())
    }

    /// Blocks until the lock is granted or `timeout` elapses, aborting the
    /// queued request on expiry.
    ///
    /// # Errors
    ///
    /// Returns [`Cancelled`] if the timeout elapsed (or the acquisition was
    /// aborted) first.
    pub fn wait_timeout(self, timeout: Duration) -> Result<(), Cancelled> {
        let RwLockFuture {
            inner,
            watch_id,
            exclusive,
        } = self;
        inner.wait_timeout(timeout)?;
        Self::record_acquired(watch_id, exclusive);
        Ok(())
    }

    /// Aborts the pending acquisition. Returns `true` if this call
    /// cancelled it (the queue slot is released in amortized O(1)), `false`
    /// if the lock was already granted or the future already cancelled.
    pub fn cancel(&self) -> bool {
        self.inner.cancel()
    }

    /// Whether the lock was granted without suspension.
    pub fn is_immediate(&self) -> bool {
        self.inner.is_immediate()
    }
}

impl std::future::Future for RwLockFuture {
    type Output = Result<(), Cancelled>;

    fn poll(
        mut self: std::pin::Pin<&mut Self>,
        cx: &mut std::task::Context<'_>,
    ) -> std::task::Poll<Result<(), Cancelled>> {
        match std::pin::Pin::new(&mut self.inner).poll(cx) {
            std::task::Poll::Ready(Ok(())) => {
                Self::record_acquired(self.watch_id, self.exclusive);
                std::task::Poll::Ready(Ok(()))
            }
            other => other,
        }
    }
}

impl RawRwLock {
    /// Creates an unlocked lock.
    pub fn new() -> Self {
        let shared = Arc::new_cyclic(|weak: &Weak<RwShared>| RwShared {
            state: CachePadded::new(AtomicU64::new(0)),
            readers: Cqs::new(
                CqsConfig::new()
                    .cancellation_mode(CancellationMode::Smart)
                    .label("rwlock.read"),
                ReaderCallbacks {
                    shared: Weak::clone(weak),
                },
            ),
            writers: Cqs::new(
                CqsConfig::new()
                    .cancellation_mode(CancellationMode::Smart)
                    .label("rwlock.write"),
                WriterCallbacks {
                    shared: Weak::clone(weak),
                },
            ),
        });
        RawRwLock { shared }
    }

    /// Watchdog id keying the *reader* queue's waiter/holder records in
    /// cqs-watch reports. Always `0` when the `watch` feature is off.
    pub fn read_watch_id(&self) -> u64 {
        self.shared.readers.watch_id()
    }

    /// Watchdog id keying the *writer* queue's waiter/holder records in
    /// cqs-watch reports. Always `0` when the `watch` feature is off.
    pub fn write_watch_id(&self) -> u64 {
        self.shared.writers.watch_id()
    }

    /// Acquires shared (read) access. Enters immediately unless a writer is
    /// active or waiting.
    pub fn read(&self) -> RwLockFuture {
        let (old, _) = self.shared.transition(|mut s| {
            if s.writer_active || s.waiting_writers > 0 {
                s.waiting_readers += 1;
            } else {
                s.active_readers += 1;
            }
            s
        });
        let inner = if old.writer_active || old.waiting_writers > 0 {
            match self.shared.readers.suspend() {
                Suspend::Future(f) => f,
                Suspend::Broken => unreachable!("async cells never break"),
            }
        } else {
            CqsFuture::immediate(())
        };
        RwLockFuture {
            inner,
            watch_id: self.read_watch_id(),
            exclusive: false,
        }
    }

    /// Blocking convenience: acquires shared access or aborts the queued
    /// request after `timeout`.
    ///
    /// # Errors
    ///
    /// Returns [`Cancelled`] if the timeout elapsed first; the lock's
    /// counters are restored, so writer handoff is not wedged by the
    /// abandoned request.
    pub fn read_timeout(&self, timeout: Duration) -> Result<(), Cancelled> {
        self.read().wait_timeout(timeout)
    }

    /// Releases shared access. The last leaving reader hands the lock to
    /// the first waiting writer.
    pub fn read_unlock(&self) {
        cqs_watch::released!(self.read_watch_id());
        self.shared.read_unlock();
    }

    /// Acquires exclusive (write) access. Enters immediately only when the
    /// lock is completely free.
    pub fn write(&self) -> RwLockFuture {
        let (old, _) = self.shared.transition(|mut s| {
            if !s.writer_active && s.active_readers == 0 && s.waiting_writers == 0 {
                s.writer_active = true;
            } else {
                s.waiting_writers += 1;
            }
            s
        });
        let immediate = !old.writer_active && old.active_readers == 0 && old.waiting_writers == 0;
        let inner = if immediate {
            CqsFuture::immediate(())
        } else {
            match self.shared.writers.suspend() {
                Suspend::Future(f) => f,
                Suspend::Broken => unreachable!("async cells never break"),
            }
        };
        RwLockFuture {
            inner,
            watch_id: self.write_watch_id(),
            exclusive: true,
        }
    }

    /// Blocking convenience: acquires exclusive access or aborts the queued
    /// request after `timeout`.
    ///
    /// # Errors
    ///
    /// Returns [`Cancelled`] if the timeout elapsed first; the
    /// `waiting-writers` count is restored, so the abandoned request does
    /// not keep blocking new readers through writer preference.
    pub fn write_timeout(&self, timeout: Duration) -> Result<(), Cancelled> {
        self.write().wait_timeout(timeout)
    }

    /// Releases exclusive access, preferring to release the whole waiting
    /// reader batch (phase fairness); with no waiting readers the next
    /// writer takes over.
    pub fn write_unlock(&self) {
        cqs_watch::released!(self.write_watch_id());
        self.shared.write_unlock();
    }

    /// Closes both waiter queues: every parked reader and writer is
    /// cancelled (their futures settle with [`Cancelled`]) and subsequent
    /// queued acquisitions fail fast. Immediate grants on an uncontended
    /// lock are unaffected; this tears down the *waiting*, not the lock
    /// word.
    pub fn close(&self) {
        both_queues_then_rethrow(
            || self.shared.readers.close(),
            || self.shared.writers.close(),
        );
    }

    /// Whether [`close`](Self::close) (or [`poison`](Self::poison)) ran.
    pub fn is_closed(&self) -> bool {
        self.shared.readers.is_closed() || self.shared.writers.is_closed()
    }

    /// Poisons the lock: marks both queues poisoned and closes them. Use
    /// when a lock holder crashed and the protected state may be
    /// inconsistent — parked waiters settle with [`Cancelled`] instead of
    /// waiting for a hand-off that will never come.
    pub fn poison(&self) {
        both_queues_then_rethrow(
            || self.shared.readers.poison(),
            || self.shared.writers.poison(),
        );
    }

    /// Whether either queue was poisoned — by [`poison`](Self::poison) or
    /// by a panic escaping a batched reader release.
    pub fn is_poisoned(&self) -> bool {
        self.shared.readers.is_poisoned() || self.shared.writers.is_poisoned()
    }

    /// Snapshot of `(active_readers, writer_active)`, for diagnostics.
    pub fn observed_state(&self) -> (u64, bool) {
        let s = State::unpack(self.shared.state.load(Ordering::SeqCst));
        (s.active_readers, s.writer_active)
    }
}

/// Runs both queue sweeps even if the first panics (a panicking waker or
/// an injected crash fault can unwind out of a sweep): stopping between
/// the reader and writer queues would strand the second queue's parked
/// waiters. The first panic re-raises once both sweeps ran.
fn both_queues_then_rethrow(first_step: impl FnOnce(), second_step: impl FnOnce()) {
    let a = std::panic::catch_unwind(std::panic::AssertUnwindSafe(first_step));
    let b = std::panic::catch_unwind(std::panic::AssertUnwindSafe(second_step));
    if let Err(panic) = a.and(b) {
        std::panic::resume_unwind(panic);
    }
}

impl Default for RawRwLock {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicI64, AtomicUsize};
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn state_packing_round_trips() {
        for s in [
            State {
                active_readers: 0,
                waiting_readers: 0,
                waiting_writers: 0,
                writer_active: false,
            },
            State {
                active_readers: 3,
                waiting_readers: 7,
                waiting_writers: 2,
                writer_active: true,
            },
            State {
                active_readers: FIELD_MASK,
                waiting_readers: FIELD_MASK,
                waiting_writers: FIELD_MASK,
                writer_active: true,
            },
        ] {
            assert_eq!(State::unpack(s.pack()), s);
        }
    }

    #[test]
    fn readers_share() {
        let lock = RawRwLock::new();
        let r1 = lock.read();
        let r2 = lock.read();
        assert!(r1.is_immediate() && r2.is_immediate());
        lock.read_unlock();
        lock.read_unlock();
    }

    #[test]
    fn writer_excludes_readers() {
        let lock = RawRwLock::new();
        lock.write().wait().unwrap();
        let r = lock.read();
        assert!(!r.is_immediate());
        lock.write_unlock();
        r.wait().unwrap();
        lock.read_unlock();
    }

    #[test]
    fn readers_block_writer_until_all_leave() {
        let lock = RawRwLock::new();
        lock.read().wait().unwrap();
        lock.read().wait().unwrap();
        let w = lock.write();
        assert!(!w.is_immediate());
        lock.read_unlock();
        lock.read_unlock(); // last reader hands over
        w.wait().unwrap();
        lock.write_unlock();
    }

    #[test]
    fn waiting_writer_blocks_new_readers() {
        let lock = RawRwLock::new();
        lock.read().wait().unwrap();
        let w = lock.write();
        // Writer preference: this reader must queue behind the writer.
        let r = lock.read();
        assert!(!r.is_immediate());
        lock.read_unlock();
        w.wait().unwrap();
        lock.write_unlock(); // releases the waiting reader batch
        r.wait().unwrap();
        lock.read_unlock();
    }

    /// The §3.1 scenario, without cancellation: reader, writer queues,
    /// second reader queues behind the writer; handoffs run reader →
    /// writer → reader batch.
    #[test]
    fn paper_scenario_ordering() {
        let lock = RawRwLock::new();
        lock.read().wait().unwrap(); // (1) reader takes the lock
        let writer = lock.write(); // (2) writer suspends
        let reader2 = lock.read(); // (3) second reader suspends behind it
        assert!(!writer.is_immediate() && !reader2.is_immediate());
        lock.read_unlock();
        writer.wait().unwrap(); // writer goes first
        lock.write_unlock();
        reader2.wait().unwrap(); // then the reader batch
        lock.read_unlock();
        assert_eq!(lock.observed_state(), (0, false));
    }

    /// Expire-then-recover: a reader that gives up behind an active writer
    /// deregisters cleanly — the writer's unlock has no phantom reader to
    /// serve and the next read enters immediately.
    #[test]
    fn read_timeout_expires_and_recovers() {
        let lock = RawRwLock::new();
        lock.write().wait().unwrap();
        assert_eq!(lock.read_timeout(Duration::from_millis(20)), Err(Cancelled));
        lock.write_unlock();
        let r = lock.read();
        assert!(r.is_immediate(), "timed-out reader left no trace");
        r.wait().unwrap();
        lock.read_unlock();
        assert_eq!(lock.observed_state(), (0, false));
    }

    /// Expire-then-recover for writer preference: a writer that gives up
    /// must unwedge the readers its queue entry was blocking.
    #[test]
    fn write_timeout_expires_and_recovers() {
        let lock = RawRwLock::new();
        lock.read().wait().unwrap();
        assert_eq!(
            lock.write_timeout(Duration::from_millis(20)),
            Err(Cancelled)
        );
        // The abandoned writer no longer blocks new readers.
        let r = lock.read();
        assert!(r.is_immediate(), "timed-out writer still wedges readers");
        r.wait().unwrap();
        lock.read_unlock();
        lock.read_unlock();
        // And the lock still hands out exclusive access.
        lock.write().wait().unwrap();
        lock.write_unlock();
        assert_eq!(lock.observed_state(), (0, false));
    }

    /// A cancelled reader inside a queued batch is skipped; the rest of the
    /// batch is released intact.
    #[test]
    fn cancelled_reader_is_skipped_in_batch_release() {
        let lock = RawRwLock::new();
        lock.write().wait().unwrap();
        let r1 = lock.read();
        let r2 = lock.read();
        assert!(!r1.is_immediate() && !r2.is_immediate());
        assert!(r2.cancel());
        lock.write_unlock();
        r1.wait().unwrap();
        assert_eq!(lock.observed_state(), (1, false));
        lock.read_unlock();
        assert_eq!(lock.observed_state(), (0, false));
    }

    /// Cancellation storm: mix timed-out and successful acquisitions on
    /// both queues and check the counters come back to rest. Exercises the
    /// deregister path and (under scheduling jitter) the refused-grant
    /// path.
    #[test]
    fn timeout_stress_settles() {
        const THREADS: usize = 4;
        const OPS: usize = 300;
        let lock = Arc::new(RawRwLock::new());
        let mut joins = Vec::new();
        for t in 0..THREADS {
            let lock = Arc::clone(&lock);
            joins.push(std::thread::spawn(move || {
                for i in 0..OPS {
                    match (t + i) % 4 {
                        0 => {
                            if lock.write_timeout(Duration::from_micros(50)).is_ok() {
                                lock.write_unlock();
                            }
                        }
                        1 => {
                            lock.write().wait().unwrap();
                            lock.write_unlock();
                        }
                        2 => {
                            if lock.read_timeout(Duration::from_micros(50)).is_ok() {
                                lock.read_unlock();
                            }
                        }
                        _ => {
                            lock.read().wait().unwrap();
                            lock.read_unlock();
                        }
                    }
                }
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
        assert_eq!(lock.observed_state(), (0, false));
        let s = State::unpack(lock.shared.state.load(Ordering::SeqCst));
        assert_eq!((s.waiting_readers, s.waiting_writers), (0, 0));
    }

    #[test]
    fn invariant_stress() {
        const THREADS: usize = 8;
        const OPS: usize = 1_500;
        let lock = Arc::new(RawRwLock::new());
        // > 0: reader count; -1: writer inside.
        let occupancy = Arc::new(AtomicI64::new(0));
        let writes = Arc::new(AtomicUsize::new(0));
        let mut joins = Vec::new();
        for t in 0..THREADS {
            let lock = Arc::clone(&lock);
            let occupancy = Arc::clone(&occupancy);
            let writes = Arc::clone(&writes);
            joins.push(std::thread::spawn(move || {
                for i in 0..OPS {
                    if (t + i) % 4 == 0 {
                        lock.write().wait().unwrap();
                        let prev = occupancy.swap(-1, Ordering::SeqCst);
                        assert_eq!(prev, 0, "writer entered an occupied lock");
                        writes.fetch_add(1, Ordering::SeqCst);
                        occupancy.store(0, Ordering::SeqCst);
                        lock.write_unlock();
                    } else {
                        lock.read().wait().unwrap();
                        let now = occupancy.fetch_add(1, Ordering::SeqCst);
                        assert!(now >= 0, "reader entered alongside a writer");
                        occupancy.fetch_sub(1, Ordering::SeqCst);
                        lock.read_unlock();
                    }
                }
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
        assert!(writes.load(Ordering::SeqCst) > 0);
        assert_eq!(lock.observed_state(), (0, false));
    }

    /// Poisoning a held lock settles every parked waiter with `Cancelled`
    /// instead of leaving it to wait on a hand-off that will never come.
    #[test]
    fn poison_settles_parked_waiters() {
        let lock = Arc::new(RawRwLock::new());
        lock.write().wait().unwrap(); // holder "crashes" while exclusive
        let mut joins = Vec::new();
        for i in 0..4 {
            let lock = Arc::clone(&lock);
            joins.push(std::thread::spawn(move || {
                if i % 2 == 0 {
                    lock.read().wait_timeout(Duration::from_secs(10))
                } else {
                    lock.write().wait_timeout(Duration::from_secs(10))
                }
            }));
        }
        while lock.shared.readers.suspend_count() < 2 || lock.shared.writers.suspend_count() < 2 {
            std::thread::yield_now();
        }
        lock.poison();
        for j in joins {
            assert_eq!(j.join().unwrap(), Err(Cancelled));
        }
        assert!(lock.is_poisoned());
        assert!(lock.is_closed());
        // A fresh queued request fails fast too (a writer holds the lock,
        // so this read must queue — and the closed queue cancels it).
        assert_eq!(lock.read().wait(), Err(Cancelled));
    }

    #[test]
    fn async_await_works() {
        let lock = RawRwLock::new();
        // Trivial async usage via a poll-once-ready future.
        let fut = lock.read();
        assert!(fut.is_immediate());
        cqs_future::block_on(fut).unwrap();
        lock.read_unlock();
    }
}
