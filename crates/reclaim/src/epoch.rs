//! A from-scratch epoch-based reclamation engine.
//!
//! The design follows the classic three-epoch scheme (Fraser; also used by
//! crossbeam-epoch): a global epoch counter advances only when every pinned
//! participant has observed the current epoch; garbage retired in epoch `e`
//! may be freed once the global epoch reaches `e + 2`, because by then no
//! thread can still be pinned in an epoch that could reference it.
//!
//! The engine favours simplicity and auditability over raw pin throughput:
//! `pin`/`unpin` touch only the participant's own atomic, while retiring
//! garbage takes a single global mutex — and nothing else: the bins hold
//! two-word [`Retired`] entries in vectors that keep their capacity across
//! drains, so a steady-state retire never reaches the allocator.

use crate::guard::{Guard, Retired, SettleGauge};
use cqs_stats::CachePadded;
use std::cell::Cell;
use std::sync::atomic::{fence, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Number of logical epoch bins.
const EPOCH_BINS: usize = 3;

/// Collection is attempted once this many items have been deferred since the
/// last collection.
const COLLECT_THRESHOLD: usize = 64;

/// Participant state: `(epoch << 1) | pinned`.
struct Participant {
    /// Cache-line padded: this word is stored on every `pin`/`unpin` by its
    /// owning thread while `try_advance` scans every participant's word, so
    /// padding keeps one thread's pin traffic from bouncing the line that
    /// holds a neighbouring slot (or this slot's own `active` flag).
    state: CachePadded<AtomicUsize>,
    /// Participants of exited threads stay registered but inactive; they are
    /// ignored when deciding whether the epoch may advance.
    active: AtomicUsize,
}

impl Participant {
    fn new() -> Self {
        Participant {
            state: CachePadded::new(AtomicUsize::new(0)),
            active: AtomicUsize::new(1),
        }
    }
}

/// All garbage state, guarded by one mutex so that binning a new deferred
/// item and draining a stale bin are atomic with respect to the epoch reads
/// they each perform.
struct Bags {
    bins: [Vec<Retired>; EPOCH_BINS],
    since_collect: usize,
}

thread_local! {
    /// The buffer this thread's last drain emptied. The next drain swaps
    /// it with the stale bin, so bins keep their grown capacity instead of
    /// restarting from zero after every collect.
    static SCRATCH: Cell<Vec<Retired>> = const { Cell::new(Vec::new()) };
}

struct Global {
    epoch: AtomicUsize,
    participants: Mutex<Vec<Arc<Participant>>>,
    bags: Mutex<Bags>,
    /// Gauge: deferred destructors not yet executed, mirrored outside the
    /// bags lock for [`retired_approx`].
    retired_count: AtomicUsize,
}

impl Global {
    fn new() -> Self {
        Global {
            epoch: AtomicUsize::new(0),
            participants: Mutex::new(Vec::new()),
            bags: Mutex::new(Bags {
                bins: [Vec::new(), Vec::new(), Vec::new()],
                since_collect: 0,
            }),
            retired_count: AtomicUsize::new(0),
        }
    }

    /// Attempts to advance the global epoch. Succeeds only if every active,
    /// pinned participant has observed the current epoch.
    fn try_advance(&self) -> bool {
        // SeqCst (invariant): this read must be globally ordered before the
        // participant scan below so that a pin we fail to observe has, via
        // its own SeqCst fence, necessarily observed an epoch at least this
        // new — the scan-side half of the Dekker pairing with `pin`.
        let global_epoch = self.epoch.load(Ordering::SeqCst);
        {
            let mut participants = self.participants.lock().unwrap();
            // Compact participants of exited threads while we are here.
            participants.retain(|p| p.active.load(Ordering::Relaxed) == 1);
            for p in participants.iter() {
                // SeqCst (invariant): pairs with the SeqCst fence in
                // `LocalHandle::pin` (StoreLoad). If this scan misses a
                // concurrent pin's publish store, the pin's re-validation
                // load — ordered after its fence — must see our CAS below
                // and re-publish under the new epoch. Weaker orderings let
                // both sides miss each other and free live garbage.
                let state = p.state.load(Ordering::SeqCst);
                let pinned = state & 1 == 1;
                let epoch = state >> 1;
                if pinned && epoch != global_epoch {
                    return false;
                }
            }
        }
        // Multiple threads may race here; CAS ensures a single increment.
        cqs_chaos::inject!("epoch.advance.pre-cas");
        // SeqCst (invariant): the epoch bump must not be reordered before
        // the participant scan above, and it is the very write the pin-side
        // re-validation load races against in the Dekker pairing.
        self.epoch
            .compare_exchange(
                global_epoch,
                global_epoch + 1,
                Ordering::SeqCst,
                Ordering::SeqCst,
            )
            .is_ok()
    }

    /// Tries to advance the epoch and frees garbage that is at least two
    /// epochs old. Destructors run outside the garbage lock.
    fn collect(&self) {
        cqs_chaos::inject!("epoch.collect.pre-drain");
        self.try_advance();
        // Empty, possibly with capacity; fresh while this thread's TLS is
        // being torn down or a destructor below re-enters `collect`.
        let mut garbage = SCRATCH.try_with(Cell::take).unwrap_or_default();
        {
            let mut bags = self.bags.lock().unwrap();
            // Read the epoch *under the lock*: concurrent defers also bin
            // under this lock with a fresh epoch read, so the bin we drain
            // cannot receive same-epoch garbage concurrently. Relaxed is
            // enough: every earlier critical section's epoch read happens-
            // before ours (mutex), so read-read coherence makes our value
            // at least as new as any value used to bin garbage — a stale
            // read only ever drains an *older* (still safe) bin.
            let epoch = self.epoch.load(Ordering::Relaxed);
            // Bins `epoch % 3` and `(epoch - 1) % 3` may still be referenced
            // by pinned threads; bin `(epoch + 1) % 3` holds garbage retired
            // at epochs <= epoch - 2 and is safe to drain.
            let stale_bin = (epoch + 1) % EPOCH_BINS;
            bags.since_collect = 0;
            std::mem::swap(&mut bags.bins[stale_bin], &mut garbage);
        }
        // Settled only after the releases below: a flush on another thread
        // that reads the gauge at zero must find them done, not claimed.
        let _settle = SettleGauge(&self.retired_count, garbage.len());
        for g in garbage.drain(..) {
            cqs_stats::bump!(epoch_collects);
            // SAFETY: the entry sat in a bin at least two epochs stale, so
            // every thread pinned when it was retired has since unpinned.
            unsafe { g.reclaim() };
        }
        let _ = SCRATCH.try_with(|scratch| scratch.set(garbage));
    }

    fn retire(&self, entry: Retired) {
        cqs_stats::bump!(epoch_defers);
        cqs_chaos::inject!("epoch.defer.pre-bin");
        self.retired_count.fetch_add(1, Ordering::Relaxed);
        let collect_now = {
            let mut bags = self.bags.lock().unwrap();
            // Relaxed under the bags lock, mirroring `collect`: coherence
            // bounds how stale this read can be, and binning under an older
            // epoch only delays reclamation by one round, never frees early.
            let epoch = self.epoch.load(Ordering::Relaxed);
            bags.bins[epoch % EPOCH_BINS].push(entry);
            bags.since_collect += 1;
            bags.since_collect >= COLLECT_THRESHOLD
        };
        if collect_now {
            self.collect();
        }
    }
}

/// A reclamation domain. All [`Guard`]s and deferred destructors belong to
/// exactly one collector; the free function [`pin`] uses a process-global
/// default collector.
///
/// # Example
///
/// ```
/// let collector = cqs_reclaim::Collector::new();
/// let handle = collector.register();
/// let guard = handle.pin();
/// guard.defer(|| { /* freed after a grace period */ });
/// ```
pub struct Collector {
    global: Arc<Global>,
}

impl Collector {
    /// Creates a fresh, independent reclamation domain.
    pub fn new() -> Self {
        Collector {
            global: Arc::new(Global::new()),
        }
    }

    /// Registers the calling context, returning a handle that can pin.
    pub fn register(&self) -> LocalHandle {
        let participant = Arc::new(Participant::new());
        self.global
            .participants
            .lock()
            .unwrap()
            .push(Arc::clone(&participant));
        LocalHandle {
            global: Arc::clone(&self.global),
            participant,
            pin_count: Cell::new(0),
            pins_since_collect: Cell::new(0),
        }
    }

    /// Drains this collector's garbage: advances the epoch and frees stale
    /// bins, retrying (with a yield) while concurrently pinned threads veto
    /// the advance, until nothing retired remains. Returns `false` if
    /// garbage is still pending after about two seconds — some thread
    /// stayed pinned, or kept retiring, throughout. The caller must not
    /// hold a [`Guard`] of this collector, or the epoch can never advance
    /// far enough to drain the caller's own bins.
    #[must_use = "false means garbage is still pending"]
    pub fn flush(&self) -> bool {
        flush_until(|| {
            self.global.collect();
            // Acquire: pairs with the Release decrement after a drain, so
            // a zero read here happens-after every release it counted.
            self.global.retired_count.load(Ordering::Acquire) == 0
        })
    }
}

impl Default for Collector {
    fn default() -> Self {
        Collector::new()
    }
}

impl std::fmt::Debug for Collector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Collector")
            .field("epoch", &self.global.epoch.load(Ordering::Relaxed))
            .finish()
    }
}

/// A per-thread (or per-context) handle to a [`Collector`].
///
/// Pinning through a handle is cheap: a store, a fence and a validation
/// loop. Handles are not `Sync`; each thread registers its own.
pub struct LocalHandle {
    global: Arc<Global>,
    participant: Arc<Participant>,
    pin_count: Cell<usize>,
    pins_since_collect: Cell<usize>,
}

/// How often a pin opportunistically attempts collection.
const PINS_BETWEEN_COLLECT: usize = 128;

impl LocalHandle {
    /// Pins the current thread, preventing the global epoch from advancing
    /// more than one step past the epoch observed here. Reentrant: nested
    /// pins share the outermost epoch.
    pub fn pin(&self) -> Guard<'_> {
        let count = self.pin_count.get();
        self.pin_count.set(count + 1);
        if count == 0 {
            // Publish the pin and re-validate the epoch: if the global epoch
            // moved between our read and our store, other threads may not
            // have seen us pinned in the old epoch, so re-publish with the
            // new one until it is stable.
            //
            // Relaxed here and on both sides of the loop: the SeqCst fence
            // between the publish store and the re-validation load is the
            // only ordering this protocol needs, and a stale initial read
            // merely costs one extra loop iteration.
            let mut epoch = self.global.epoch.load(Ordering::Relaxed);
            loop {
                cqs_chaos::inject!("epoch.pin.publish-window");
                self.participant
                    .state
                    .store((epoch << 1) | 1, Ordering::Relaxed);
                // SeqCst fence (invariant): orders the publish store before
                // the re-validation load (StoreLoad, which Release/Acquire
                // cannot provide) and pairs with `try_advance`'s SeqCst
                // participant scan — either the scan observes our pin, or
                // this load observes the advanced epoch and we re-publish.
                fence(Ordering::SeqCst);
                let current = self.global.epoch.load(Ordering::Relaxed);
                if current == epoch {
                    break;
                }
                epoch = current;
            }
            let pins = self.pins_since_collect.get() + 1;
            self.pins_since_collect.set(pins);
            if pins >= PINS_BETWEEN_COLLECT {
                self.pins_since_collect.set(0);
                self.global.collect();
            }
        }
        Guard::from_epoch(EpochGuard { local: self })
    }
}

impl Drop for LocalHandle {
    fn drop(&mut self) {
        // If this handle is the one cached by the free `pin()` fast path,
        // drop the cached pointer before the handle goes away. `try_with`
        // tolerates running during TLS destruction.
        let _ = LOCAL_PTR.try_with(|cached| {
            if std::ptr::eq(cached.get(), self) {
                cached.set(std::ptr::null());
            }
        });
        // Release so a scan that observes us inactive also observes our
        // final unpin; a delayed read merely keeps the dead slot one extra
        // round, which is harmless.
        self.participant.active.store(0, Ordering::Release);
    }
}

impl std::fmt::Debug for LocalHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LocalHandle")
            .field("pin_count", &self.pin_count.get())
            .finish()
    }
}

/// Witness that the current thread is pinned. While any epoch guard is
/// alive, memory retired by threads in the same epoch is guaranteed not to
/// be freed. The public face of this type is [`Guard`], which wraps it.
pub(crate) struct EpochGuard<'a> {
    local: &'a LocalHandle,
}

impl EpochGuard<'_> {
    /// Retires `entry` until after a grace period: it is released only once
    /// every thread pinned at the time of this call has since unpinned.
    pub(crate) fn retire(&self, entry: Retired) {
        self.local.global.retire(entry);
    }
}

impl Drop for EpochGuard<'_> {
    fn drop(&mut self) {
        let count = self.local.pin_count.get();
        self.local.pin_count.set(count - 1);
        if count == 1 {
            // Unpin with a plain release store instead of the former
            // `fetch_and(!1, SeqCst)`: only the owning thread ever writes
            // its own state word (reentrancy is tracked in the non-atomic
            // `pin_count`), so no read-modify-write atomicity is needed —
            // we re-read our own last store and clear the pinned bit.
            // Release (invariant): everything this thread read while
            // pinned happens-before a `try_advance` scan that observes the
            // unpin, and therefore before any reclamation it unlocks.
            let state = self.local.participant.state.load(Ordering::Relaxed);
            self.local
                .participant
                .state
                .store(state & !1, Ordering::Release);
        }
    }
}

fn default_collector() -> &'static Collector {
    static DEFAULT: OnceLock<Collector> = OnceLock::new();
    DEFAULT.get_or_init(Collector::new)
}

thread_local! {
    static LOCAL: LocalHandle = default_collector().register();

    /// Participant-pointer cache for the free [`pin`] fast path: a
    /// const-initialized slot is a plain TLS read with no lazy-init branch
    /// and no `OnceLock` round-trip, so a hot re-pin skips straight to the
    /// handle. Cleared by `LocalHandle::drop` so it can never dangle.
    static LOCAL_PTR: Cell<*const LocalHandle> = const { Cell::new(std::ptr::null()) };
}

/// Drains the default collector's garbage. See [`Collector::flush`]; the
/// caller must not hold a live [`Guard`].
#[must_use = "false means garbage is still pending"]
pub fn flush() -> bool {
    default_collector().flush()
}

/// How long a flush keeps retrying before it reports the backlog as stuck.
const FLUSH_DEADLINE: Duration = Duration::from_secs(2);

/// The quiescence barrier behind [`Collector::flush`]: runs `round` (one
/// reclamation attempt, reporting whether the backlog is gone), yielding
/// between rounds, until it succeeds or [`FLUSH_DEADLINE`] passes. One
/// round is rarely enough on shared state — any thread pinned at that
/// instant vetoes the advance — so a flush that must be observable (a test
/// asserting drop counts) has to retry.
fn flush_until(mut round: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + FLUSH_DEADLINE;
    loop {
        if round() {
            return true;
        }
        if Instant::now() >= deadline {
            return false;
        }
        std::thread::yield_now();
    }
}

/// Approximate number of retired-but-unreclaimed objects in the default
/// collector's bags. This is the gauge `cqs-watch` publishes so garbage
/// growth under a stalled pin is observable.
pub fn retired_approx() -> usize {
    default_collector()
        .global
        .retired_count
        .load(Ordering::Relaxed)
}

/// Pins the current thread in the default (process-global) collector.
///
/// The first pin on a thread registers it with the default collector and
/// caches the participant pointer in a const-initialized thread-local;
/// every later pin is a single TLS read plus [`LocalHandle::pin`].
///
/// # Panics
///
/// Panics if called while the thread's TLS is being destroyed.
pub fn pin() -> Guard<'static> {
    let cached = LOCAL_PTR.try_with(Cell::get).unwrap_or(std::ptr::null());
    if !cached.is_null() {
        // SAFETY: `LOCAL_PTR` only ever holds a pointer to this thread's
        // live `LOCAL` handle — `LocalHandle::drop` nulls it out before the
        // handle is destroyed — so the pointee is valid here. The 'static
        // extension is sound for the same reason as in `pin_slow`.
        let local: &'static LocalHandle = unsafe { &*cached };
        return local.pin();
    }
    pin_slow()
}

/// Registration path for the first [`pin`] on a thread (and for pins during
/// TLS destruction, where the cache is unavailable).
#[cold]
fn pin_slow() -> Guard<'static> {
    LOCAL.with(|local| {
        let ptr = local as *const LocalHandle;
        let _ = LOCAL_PTR.try_with(|cached| cached.set(ptr));
        // SAFETY: the thread-local lives until thread exit, strictly longer
        // than any guard created on this thread's stack. Guards are neither
        // `Send` nor storable beyond the stack of the creating thread, so
        // extending the borrow to 'static is sound.
        let local: &'static LocalHandle = unsafe { &*ptr };
        local.pin()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;

    #[test]
    fn pin_is_reentrant() {
        let c = Collector::new();
        let h = c.register();
        let g1 = h.pin();
        let g2 = h.pin();
        drop(g1);
        drop(g2);
        assert_eq!(h.pin_count.get(), 0);
    }

    #[test]
    fn garbage_not_freed_while_pinned() {
        let c = Collector::new();
        let h1 = c.register();
        let h2 = c.register();
        let freed = Arc::new(AtomicBool::new(false));

        let _blocker = h1.pin(); // h1 stays pinned in the current epoch
        {
            let g = h2.pin();
            let freed = Arc::clone(&freed);
            g.defer(move || freed.store(true, Ordering::SeqCst));
        }
        // h2 pins repeatedly; the epoch can advance at most once past the
        // blocker, never far enough to free same-epoch garbage.
        for _ in 0..1024 {
            drop(h2.pin());
        }
        c.global.collect();
        c.global.collect();
        assert!(
            !freed.load(Ordering::SeqCst),
            "garbage freed while a same-epoch pin was live"
        );
    }

    /// Both kinds of bin entry — a displaced `AtomicArc` reference and a
    /// `Guard::defer` closure — stay unreleased while a guard pinned in
    /// their epoch lives, and are released exactly once after it unpins.
    #[test]
    fn retired_entries_wait_for_same_epoch_guard_then_release_once() {
        struct CountsDrop(Arc<AtomicUsize>);
        impl Drop for CountsDrop {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }
        const N: usize = 3 * COLLECT_THRESHOLD; // crosses several collects
        let c = Collector::new();
        let (blocker, worker) = (c.register(), c.register());
        let arc_drops = Arc::new(AtomicUsize::new(0));
        let closure_runs = Arc::new(AtomicUsize::new(0));
        let cell = crate::AtomicArc::new(Some(Arc::new(CountsDrop(Arc::clone(&arc_drops)))));

        let pinned = blocker.pin();
        for _ in 0..N {
            let g = worker.pin();
            cell.store(Some(Arc::new(CountsDrop(Arc::clone(&arc_drops)))), &g);
            let runs = Arc::clone(&closure_runs);
            g.defer(move || {
                runs.fetch_add(1, Ordering::SeqCst);
            });
        }
        for _ in 0..8 {
            c.global.collect();
        }
        assert_eq!(arc_drops.load(Ordering::SeqCst), 0, "released under a pin");
        assert_eq!(closure_runs.load(Ordering::SeqCst), 0, "ran under a pin");
        assert_eq!(c.global.retired_count.load(Ordering::Relaxed), 2 * N);

        drop(pinned);
        assert!(c.flush(), "nothing is pinned any more");
        assert_eq!(arc_drops.load(Ordering::SeqCst), N, "one release each");
        assert_eq!(closure_runs.load(Ordering::SeqCst), N, "one run each");
        drop(cell); // the value still stored drops with the cell
        assert_eq!(arc_drops.load(Ordering::SeqCst), N + 1);
    }

    #[test]
    fn garbage_freed_after_unpin() {
        let c = Collector::new();
        let h = c.register();
        let freed = Arc::new(AtomicBool::new(false));
        {
            let g = h.pin();
            let freed = Arc::clone(&freed);
            g.defer(move || freed.store(true, Ordering::SeqCst));
        }
        assert!(c.flush());
        assert!(freed.load(Ordering::SeqCst));
    }

    /// A destructor panicking inside `collect` must not strand the gauge:
    /// what was drained with it has left the collector (released or
    /// leaked), so later flushes reach zero instead of waiting out their
    /// deadline.
    #[test]
    fn panicking_deferred_closure_still_settles_the_gauge() {
        let c = Collector::new();
        let h = c.register();
        {
            let g = h.pin();
            g.defer(|| panic!("deferred closure panics"));
            g.defer(|| {}); // drained in the same round, behind the panic
        }
        assert_eq!(c.global.retired_count.load(Ordering::Relaxed), 2);
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| c.flush()));
        assert!(
            unwound.is_err(),
            "the closure's panic reaches the collector"
        );
        assert_eq!(c.global.retired_count.load(Ordering::Relaxed), 0);
        let start = std::time::Instant::now();
        assert!(c.flush(), "nothing retired remains");
        assert!(start.elapsed() < std::time::Duration::from_secs(1));
    }

    #[test]
    fn epoch_advances_without_participants_pinned() {
        let c = Collector::new();
        let before = c.global.epoch.load(Ordering::SeqCst);
        assert!(c.global.try_advance());
        assert_eq!(c.global.epoch.load(Ordering::SeqCst), before + 1);
    }

    #[test]
    fn dead_participants_do_not_block_advance() {
        let c = Collector::new();
        let h = c.register();
        let _pinned = h.pin();
        // Simulate thread death with an outstanding pin (cannot normally
        // happen, but inactive participants must be ignored regardless).
        h.participant.active.store(0, Ordering::SeqCst);
        assert!(c.global.try_advance());
    }

    #[test]
    fn default_collector_pin_works() {
        let g = pin();
        g.defer(|| {});
        drop(g);
        let g2 = pin();
        drop(g2);
    }

    #[test]
    fn unpin_release_store_tracks_reentrancy_depth() {
        let c = Collector::new();
        // Move the epoch off zero so the state word has live epoch bits the
        // unpin store must preserve.
        assert!(c.global.try_advance());
        assert!(c.global.try_advance());
        let h = c.register();

        let outer = h.pin();
        let published = h.participant.state.load(Ordering::Relaxed);
        assert_eq!(published & 1, 1, "outermost pin must publish");
        let epoch_bits = published >> 1;
        assert_eq!(epoch_bits, c.global.epoch.load(Ordering::Relaxed));

        let middle = h.pin();
        let inner = h.pin();
        assert_eq!(h.pin_count.get(), 3);
        // Dropping inner guards only decrements the depth; the published
        // word must stay pinned (nested pins share the outermost epoch).
        drop(middle);
        assert_eq!(h.pin_count.get(), 2);
        assert_eq!(h.participant.state.load(Ordering::Relaxed), published);
        drop(inner);
        assert_eq!(h.pin_count.get(), 1);
        assert_eq!(h.participant.state.load(Ordering::Relaxed), published);

        // The outermost drop takes the single-release-store fast path: the
        // pinned bit clears, the epoch bits survive.
        drop(outer);
        assert_eq!(h.pin_count.get(), 0);
        let state = h.participant.state.load(Ordering::Relaxed);
        assert_eq!(state & 1, 0, "pinned bit must clear on outermost drop");
        assert_eq!(state >> 1, epoch_bits, "unpin must not disturb epoch bits");

        // And the fast path must round-trip: a fresh pin republishes.
        let again = h.pin();
        assert_eq!(h.participant.state.load(Ordering::Relaxed) & 1, 1);
        drop(again);
    }

    #[test]
    fn cached_participant_pointer_is_reused_and_survives_thread_churn() {
        // The free `pin()` caches the participant pointer after the first
        // call; later pins on the same thread must reuse the same handle.
        let first = LOCAL_PTR.with(Cell::get);
        let g = pin();
        drop(g);
        let cached = LOCAL_PTR.with(Cell::get);
        assert!(!cached.is_null(), "first pin must populate the cache");
        if !first.is_null() {
            assert_eq!(first, cached, "cache must be stable across pins");
        }
        let g2 = pin();
        assert_eq!(
            LOCAL_PTR.with(Cell::get),
            cached,
            "re-pin must not re-register"
        );
        drop(g2);

        // Short-lived threads register, cache, pin and exit; their handle
        // drop clears the cache without disturbing other threads.
        for _ in 0..8 {
            std::thread::spawn(|| {
                let g = pin();
                g.defer(|| {});
                drop(g);
                assert!(!LOCAL_PTR.with(Cell::get).is_null());
            })
            .join()
            .unwrap();
        }
        assert_eq!(LOCAL_PTR.with(Cell::get), cached);
    }

    #[test]
    fn threshold_triggers_collection() {
        let c = Collector::new();
        let h = c.register();
        let count = Arc::new(AtomicUsize::new(0));
        for _ in 0..COLLECT_THRESHOLD * 4 {
            let g = h.pin();
            let count = Arc::clone(&count);
            g.defer(move || {
                count.fetch_add(1, Ordering::SeqCst);
            });
        }
        // Threshold collections must have freed a large portion already.
        assert!(count.load(Ordering::SeqCst) > 0);
        assert!(c.flush());
        assert_eq!(count.load(Ordering::SeqCst), COLLECT_THRESHOLD * 4);
    }

    #[test]
    fn concurrent_defer_stress() {
        let c = Arc::new(Collector::new());
        let freed = Arc::new(AtomicUsize::new(0));
        const THREADS: usize = 8;
        const OPS: usize = 2_000;
        let mut joins = Vec::new();
        for _ in 0..THREADS {
            let c = Arc::clone(&c);
            let freed = Arc::clone(&freed);
            joins.push(std::thread::spawn(move || {
                let h = c.register();
                for _ in 0..OPS {
                    let g = h.pin();
                    let freed = Arc::clone(&freed);
                    g.defer(move || {
                        freed.fetch_add(1, Ordering::SeqCst);
                    });
                }
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
        let _h = c.register();
        assert!(c.flush());
        assert_eq!(freed.load(Ordering::SeqCst), THREADS * OPS);
    }
}
