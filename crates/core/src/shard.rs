//! The sharding layer: thread-to-shard routing and the one protocol that
//! turns N per-shard CQS primitives into one logical primitive.
//!
//! `cqs-sync`'s `ShardedSemaphore` and `cqs-pool`'s `ShardedPool` are both
//! [`Sharded<S>`] over a different [`Shard`]: the paper's blocking pool
//! (§4.4) is the semaphore's signed-counter protocol (§4.3) with an element
//! attached, so one layer serves both — a permit is an item of type `()`.
//!
//! # Routing
//!
//! Each OS thread draws a process-wide ordinal from a global counter the
//! first time it asks, caches it in a `thread_local`, and its *home* shard
//! is `ordinal % shards`. Drawing the ordinal once per thread (instead of
//! hashing `ThreadId` per operation) keeps the fast path to a single TLS
//! read, and consecutive ordinals spread a pool of worker threads evenly
//! across any shard count.
//!
//! # The protocol
//!
//! A single-queue primitive funnels every contended operation through one
//! `fetch_add` pair and hands each returned item *irrevocably* to the
//! parked FIFO head, so under oversubscription throughput degenerates to
//! the scheduler's wake-up latency (a lock convoy). Sharding splits the
//! bank across N shards, each a full CQS-backed primitive:
//!
//! * **local fast path** — a take first CASes the home shard's bank
//!   ([`Shard::try_take_weak`]), touching no shared hot word and no queue;
//! * **bounded steal** — on a local miss, one ring pass over the sibling
//!   banks;
//! * **per-shard FIFO suspension** — on a global miss the taker parks in
//!   its home shard's CQS ([`Shard::park`]), with cancellation, timeouts,
//!   close and poisoning flowing through the ordinary per-shard paths, and
//!   then re-scans the sibling banks once (aborting the parked request if
//!   the re-scan wins);
//! * **banking by sign** — a returned item serves the home shard's FIFO
//!   head or banks there; which of the two is decided by the bank's own
//!   `fetch_add` ([`Shard::bank`]), never by a `waiting()` snapshot, which
//!   a concurrent cancellation can invalidate;
//! * **batched rebalance** — every `rebalance_interval`-th banking return
//!   of a shard migrates banked items to starving siblings, one batched
//!   traversal per recipient ([`Shard::migrate`]);
//! * **no-idle sweep** — every return ends by checking whether the banked
//!   total reached the `sweep_at` threshold while takers are parked, and
//!   if so migrates from *every* bank until the system stops moving.
//!
//! The two constructor parameters are the whole difference between the
//! instantiations. A semaphore knows how many permits are outstanding, so
//! it may defer migration (`rebalance_interval` is its
//! `with_shards_and_interval` argument, default 64) and needs the sweep
//! only when *no holder is left* to release later (`sweep_at` = its permit
//! count). A pool has no holder count telling a put that more puts are
//! coming, so a stored element beside a parked remote taker would be a
//! lost wake-up: its interval is 1 and its sweep runs whenever anything is
//! stored (`sweep_at` = 1).
//!
//! # Fairness and liveness, precisely
//!
//! Global FIFO is deliberately relaxed — that relaxation *is* the
//! throughput win:
//!
//! * waiters are FIFO **within a shard**, not across shards;
//! * a banked item may be claimed by any barging taker (local hit or
//!   steal) ahead of waiters parked on *other* shards, for at most
//!   `rebalance_interval` consecutive banking returns per shard — the
//!   `rebalance_interval`-th migrates banked items to starving shards. At
//!   interval 1 the barging window is only the bank-to-migration race;
//! * **no item idles while a waiter is parked** once the banked total is
//!   at `sweep_at`. The bank-vs-park race is closed from both sides: a
//!   return writes its bank and *then* reads the waiter counts (the
//!   sweep); a parking taker registers in its queue and *then* re-reads
//!   the sibling banks (the re-scan). All four accesses are `SeqCst`, so
//!   this is the store-buffering shape and at least one side observes the
//!   other's write. The sweep also runs after a *served* hand-off, because
//!   the recipient's cancellation can refuse the in-flight resume and
//!   re-bank the item. A refusal can even settle on the *cancelling*
//!   thread after the returning thread swept and left (the resume
//!   delegated its item to a mid-flight canceller), so each shard reports
//!   settled refusals through a [`RefusalHook`] that re-runs the sweep
//!   from the only thread that knows.
//!
//! Under a steady stream of returns a parked waiter is therefore served
//! after at most `rebalance_interval` overtakes; at quiescence it is
//! served as soon as the banked total reaches `sweep_at`. What is given up
//! relative to the single-queue primitive is only *short-term ordering*:
//! a taker that arrived later may complete first.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Weak};

use cqs_future::CqsFuture;
use cqs_stats::CachePadded;

/// Process-wide source of thread ordinals. Monotonically increasing; never
/// recycled on thread exit — a stale ordinal only skews shard balance, it
/// cannot alias two live threads onto "the same thread".
static NEXT_ORDINAL: AtomicUsize = AtomicUsize::new(0);

const UNASSIGNED: usize = usize::MAX;

thread_local! {
    static ORDINAL: std::cell::Cell<usize> = const { std::cell::Cell::new(UNASSIGNED) };
}

/// This thread's process-wide ordinal, assigned on first call and stable
/// for the thread's lifetime.
///
/// # Example
///
/// ```
/// let a = cqs_core::shard::thread_ordinal();
/// assert_eq!(a, cqs_core::shard::thread_ordinal());
/// let b = std::thread::spawn(cqs_core::shard::thread_ordinal)
///     .join()
///     .unwrap();
/// assert_ne!(a, b);
/// ```
pub fn thread_ordinal() -> usize {
    ORDINAL.with(|cell| {
        let mut ordinal = cell.get();
        if ordinal == UNASSIGNED {
            ordinal = NEXT_ORDINAL.fetch_add(1, Ordering::Relaxed);
            cell.set(ordinal);
        }
        ordinal
    })
}

/// The home shard for the calling thread in a primitive with `shards`
/// shards: `thread_ordinal() % shards`.
///
/// # Panics
///
/// Panics if `shards` is zero.
fn home_shard(shards: usize) -> usize {
    thread_ordinal() % shards
}

/// The default shard count for a sharded primitive: the machine's available
/// parallelism, clamped to `[1, cap]`. More shards than cores cannot add
/// throughput but still multiplies idle segments, so the cap keeps the
/// memory envelope tight on large machines while a knob on the primitive
/// (`with_shards`) overrides it for experiments.
pub fn default_shard_count(cap: usize) -> usize {
    let cores = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    cores.clamp(1, cap.max(1))
}

/// Default cap on a sharded primitive's shard count; see
/// [`default_shard_count`].
pub const MAX_DEFAULT_SHARDS: usize = 8;

/// Hook a shard invokes after a cancellation refused an in-flight resume
/// and the refused item is back in that shard's bank. [`Sharded::new`]
/// hands one to every shard it builds (when there are siblings to strand a
/// waiter on); the shard's `complete_refused_resume` must call it.
pub type RefusalHook = Box<dyn Fn() + Send + Sync>;

/// What one shard of a [`Sharded`] primitive is: a signed-counter CQS
/// primitive whose positive state is a bank of items and whose negative
/// state is a FIFO queue of parked takers.
pub trait Shard: Send + Sync + Sized + 'static {
    /// What the shard banks and hands out: `()` for a permit, `E` for a
    /// pool element.
    type Item: Send + 'static;

    /// Takes a *banked* item without queueing: CASes the state word
    /// downward only while it is positive, so it never claims an item
    /// destined for a FIFO waiter.
    fn try_take_weak(&self) -> Option<Self::Item>;

    /// The primitive's ordinary take: completes immediately on a banked
    /// item, otherwise parks in the shard's FIFO queue (or fails fast when
    /// closed).
    fn park(&self) -> CqsFuture<Self::Item>;

    /// Returns one item: `true` if it was banked, `false` if it was handed
    /// to the FIFO head. The answer must come from the return's own
    /// `fetch_add` — a waiter counted by an earlier `waiting()` snapshot
    /// can cancel concurrently (its `on_cancellation` increments the state
    /// word first), turning the would-be hand-off into a bank. `false` only
    /// means the resume *committed*: a cancellation refusing it re-banks
    /// the item, possibly on the cancelling thread after this returned,
    /// and is reported through the [`RefusalHook`] instead.
    fn bank(&self, item: Self::Item) -> bool;

    /// Returns a batch in one `fetch_add` and one batched resume
    /// traversal; reports how many of the items were banked rather than
    /// handed to waiters (refusals excluded, as for [`bank`](Self::bank)).
    fn bank_many(&self, items: Vec<Self::Item>) -> usize;

    /// Moves up to `max` banked items from this shard's bank to `to`
    /// (serving `to`'s waiters in one batched traversal) and returns how
    /// many moved. Racing local takers may drain the bank first — then the
    /// items went to completed operations instead, which is equally
    /// conservative.
    fn migrate(&self, to: &Self, max: usize) -> usize {
        let batch: Vec<Self::Item> = (0..max).map_while(|_| self.try_take_weak()).collect();
        let moved = batch.len();
        if moved > 0 {
            to.bank_many(batch);
        }
        moved
    }

    /// A snapshot of the banked items (zero if takers are parked).
    fn banked(&self) -> usize;

    /// A snapshot of the parked takers (zero if items are banked).
    fn waiting(&self) -> usize;

    /// Closes the shard's queue: parked takers are woken with an error and
    /// later takes fail fast.
    fn close(&self);

    /// Whether [`close`](Self::close) was called.
    fn is_closed(&self) -> bool;

    /// Live queue segments backing the shard (diagnostics).
    fn live_segments(&self) -> usize;

    /// Watchdog id keying the shard's records (`0` without `watch`).
    fn watch_id(&self) -> u64;
}

/// N shards behind one logical primitive; see the module docs for the
/// protocol and the fairness contract.
#[derive(Debug)]
pub struct Sharded<S: Shard> {
    /// Behind an `Arc` so each shard's refusal hook can hold a `Weak`
    /// back-reference to the whole: the cancelling thread a refusal
    /// settles on may be the only one that can still run the sweep.
    inner: Arc<Inner<S>>,
}

#[derive(Debug)]
struct Inner<S> {
    shards: Box<[S]>,
    /// Per-shard count of consecutive banking returns since that shard's
    /// last rebalance pulse (padded: each is hammered by the return path of
    /// one shard's threads). Untouched when the interval is 1.
    bank_streak: Box<[CachePadded<AtomicU64>]>,
    rebalance_interval: u64,
    sweep_at: usize,
}

impl<S: Shard> Inner<S> {
    fn banked(&self) -> usize {
        self.shards.iter().map(S::banked).sum()
    }

    fn waiting(&self) -> usize {
        self.shards.iter().map(S::waiting).sum()
    }

    /// Migrates banked items from `home`'s bank to starving sibling
    /// shards, a batch per recipient, until the bank runs dry or no sibling
    /// is starving. Returns the number of items migrated.
    fn rebalance_from(&self, home: usize) -> usize {
        let n = self.shards.len();
        let mut moved = 0;
        for d in 1..n {
            let victim = &self.shards[(home + d) % n];
            let starving = victim.waiting();
            if starving == 0 {
                continue;
            }
            cqs_chaos::inject!("sharded.rebalance.window");
            let got = self.shards[home].migrate(victim, starving);
            if got == 0 {
                break;
            }
            cqs_stats::bump!(shard_rebalances, got);
            moved += got;
        }
        moved
    }

    fn rebalance(&self) -> usize {
        (0..self.shards.len())
            .map(|home| self.rebalance_from(home))
            .sum()
    }

    /// A rebalance pulse from `idx` outside the streak cadence.
    fn pulse_from(&self, idx: usize) {
        if self.rebalance_interval > 1 {
            self.bank_streak[idx].store(0, Ordering::Relaxed);
        }
        self.rebalance_from(idx);
    }

    /// The no-idle guarantee: while the banked total is at `sweep_at` and
    /// takers are parked, they may have no future return to serve them —
    /// migrate toward them now, from *every* shard's bank, until the
    /// system stops moving. The loop matters: a migration batch can itself
    /// be outrun by a cancelling recipient (whose refusal re-banks the
    /// items at the recipient shard), so a single pass is not enough. An
    /// item and a taker never coexist on the *same* shard (the signed
    /// state word is one or the other), so `rebalance` makes progress
    /// while the condition holds; away from it this is a handful of loads.
    ///
    /// For a semaphore `sweep_at` is its permit count: the positive states
    /// sum to it exactly when no holder is left (each holder subtracts one
    /// from the signed total, waiters' negative contributions are excluded
    /// from the sum).
    fn sweep(&self) {
        while self.banked() >= self.sweep_at && self.waiting() > 0 && self.rebalance() > 0 {}
    }
}

impl<S: Shard> Sharded<S> {
    /// Builds `shards` shards with `make(index, on_refusal)`.
    /// `rebalance_interval` is how many consecutive banking returns one
    /// shard may absorb before its next one migrates banked items to
    /// starving siblings; `sweep_at` is the banked total at which the
    /// no-idle sweep runs (module docs, "The protocol").
    ///
    /// # Panics
    ///
    /// Panics if `shards` or `rebalance_interval` is zero.
    pub fn new(
        shards: usize,
        rebalance_interval: u64,
        sweep_at: usize,
        mut make: impl FnMut(usize, Option<RefusalHook>) -> S,
    ) -> Self {
        assert!(shards > 0, "a sharded primitive needs at least one shard");
        assert!(
            rebalance_interval > 0,
            "the rebalance interval must be positive"
        );
        let inner = Arc::new_cyclic(|weak: &Weak<Inner<S>>| Inner {
            shards: (0..shards)
                .map(|i| {
                    // With siblings to strand a waiter on, each shard
                    // reports settled refusals back so the sweep re-runs
                    // from the cancelling thread (the weak upgrade only
                    // fails when the whole primitive is already gone —
                    // nothing left to serve).
                    let on_refusal = (shards > 1).then(|| {
                        let weak = Weak::clone(weak);
                        Box::new(move || {
                            if let Some(inner) = weak.upgrade() {
                                inner.sweep();
                            }
                        }) as RefusalHook
                    });
                    make(i, on_refusal)
                })
                .collect(),
            bank_streak: (0..shards)
                .map(|_| CachePadded::new(AtomicU64::new(0)))
                .collect(),
            rebalance_interval,
            sweep_at,
        });
        Sharded { inner }
    }

    /// The shards, in ring order.
    pub fn shards(&self) -> &[S] {
        &self.inner.shards
    }

    /// The calling thread's home shard index.
    pub fn home(&self) -> usize {
        home_shard(self.inner.shards.len())
    }

    /// A snapshot of the items banked across all shards.
    pub fn banked(&self) -> usize {
        self.inner.banked()
    }

    /// A snapshot of the takers parked across all shards.
    pub fn waiting(&self) -> usize {
        self.inner.waiting()
    }

    /// Total live queue segments across all shards (diagnostics).
    pub fn live_segments(&self) -> usize {
        self.inner.shards.iter().map(S::live_segments).sum()
    }

    /// Takes an item routed through shard `home % shards`: the home bank,
    /// then one steal pass over the siblings, then the home shard's FIFO
    /// queue followed by one re-scan of the sibling banks.
    pub fn take_at(&self, home: usize) -> CqsFuture<S::Item> {
        let shards = &self.inner.shards;
        let n = shards.len();
        let home = home % n;
        if shards[home].is_closed() {
            return CqsFuture::cancelled();
        }
        if let Some(item) = shards[home].try_take_weak() {
            cqs_stats::bump!(shard_local_hits);
            return CqsFuture::immediate(item);
        }
        for d in 1..n {
            cqs_chaos::inject!("sharded.steal.window");
            if let Some(item) = shards[(home + d) % n].try_take_weak() {
                cqs_stats::bump!(shard_steals);
                return CqsFuture::immediate(item);
            }
        }
        // Global miss: park in the home shard's FIFO queue...
        let f = shards[home].park();
        if f.is_immediate() {
            return f;
        }
        // ...then re-scan the sibling banks: a return that banked its item
        // between our steal pass and our registration cannot have seen us
        // waiting, and this is our side of that race (module docs). On a
        // hit we abort the queued request; if the abort loses to an
        // in-flight grant we hold one item too many and return it.
        for d in 1..n {
            cqs_chaos::inject!("sharded.steal.window");
            let idx = (home + d) % n;
            if let Some(item) = shards[idx].try_take_weak() {
                if f.cancel() {
                    cqs_stats::bump!(shard_steals);
                    return CqsFuture::immediate(item);
                }
                self.bank_at(idx, item);
                return f;
            }
        }
        f
    }

    /// Returns an item through shard `home % shards`: serves the home
    /// shard's FIFO head if it has one; otherwise banks locally and runs a
    /// rebalance pulse if this shard's banking streak reached the
    /// interval. Either way ends with the no-idle sweep check.
    pub fn bank_at(&self, home: usize, item: S::Item) {
        let inner = &*self.inner;
        let n = inner.shards.len();
        let home = home % n;
        let banked = inner.shards[home].bank(item);
        if n == 1 {
            // Single shard: the bank serves its own FIFO queue directly.
            return;
        }
        if banked {
            // At interval 1 every banking return is due; skip the streak's
            // read-modify-write altogether.
            let due = inner.rebalance_interval == 1 || {
                let streak = inner.bank_streak[home].fetch_add(1, Ordering::Relaxed) + 1;
                streak >= inner.rebalance_interval
            };
            if due {
                inner.pulse_from(home);
            }
        }
        // On *both* paths: even a committed hand-off can be voided by the
        // waiter's cancellation refusing the in-flight resume, which
        // re-banks the item. When the refusal settles before this call
        // returns, this sweep catches it; otherwise that shard's refusal
        // hook re-runs the sweep from the cancelling thread.
        inner.sweep();
    }

    /// Returns a batch through shard `home % shards`: parked takers
    /// anywhere are served first (home shard, then ring order), one
    /// batched [`Shard::bank_many`] traversal per recipient shard, and the
    /// remainder is banked at home, followed by a pulse from home and the
    /// sweep check.
    pub fn bank_many_at(&self, home: usize, mut items: Vec<S::Item>) {
        if items.is_empty() {
            return;
        }
        let inner = &*self.inner;
        let n = inner.shards.len();
        let home = home % n;
        for d in 0..n {
            if items.is_empty() {
                break;
            }
            let idx = (home + d) % n;
            let shard = &inner.shards[idx];
            let waiters = shard.waiting().min(items.len());
            if waiters > 0 {
                if d > 0 {
                    cqs_chaos::inject!("sharded.rebalance.window");
                    cqs_stats::bump!(shard_rebalances, waiters);
                }
                let banked = shard.bank_many(items.drain(..waiters).collect());
                if banked > 0 && d > 0 {
                    // Waiters counted by the snapshot cancelled under us:
                    // part of the batch landed in this *foreign* shard's
                    // bank. Pulse from it right away so the items reach
                    // waiters parked elsewhere instead of stranding.
                    inner.pulse_from(idx);
                }
            }
        }
        // No early return above: every batched return ends with the home
        // pulse and the sweep check, even when the waiter counts it served
        // against consumed the whole batch — those counts were snapshots
        // and may have over-promised.
        if !items.is_empty() {
            inner.shards[home].bank_many(items);
        }
        inner.pulse_from(home);
        inner.sweep();
    }

    /// Runs a rebalance pass from every shard's bank toward starving
    /// shards; returns the number of items migrated.
    pub fn rebalance(&self) -> usize {
        self.inner.rebalance()
    }

    /// Closes every shard.
    pub fn close(&self) {
        for shard in self.inner.shards.iter() {
            shard.close();
        }
    }

    /// Whether [`close`](Self::close) was called.
    pub fn is_closed(&self) -> bool {
        self.inner.shards[0].is_closed()
    }

    /// Publishes per-shard depth and live-segment gauges to the watchdog
    /// (`shard_depth`, `live_segments`, keyed by each shard's watch id).
    /// No-op without the `watch` feature.
    pub fn publish_gauges(&self) {
        for shard in self.inner.shards.iter() {
            cqs_watch::gauge!(shard.watch_id(), "shard_depth", shard.waiting() as i64);
            cqs_watch::gauge!(
                shard.watch_id(),
                "live_segments",
                shard.live_segments() as i64
            );
            let _ = shard;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordinal_is_stable_and_distinct_across_threads() {
        let mine = thread_ordinal();
        assert_eq!(mine, thread_ordinal());
        let handles: Vec<_> = (0..4).map(|_| std::thread::spawn(thread_ordinal)).collect();
        let mut seen: Vec<usize> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        seen.push(mine);
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), 5, "ordinals must be unique per thread");
    }

    #[test]
    fn home_shard_is_in_range() {
        for shards in 1..8 {
            assert!(home_shard(shards) < shards);
        }
    }

    #[test]
    fn default_shard_count_is_clamped() {
        assert!(default_shard_count(8) >= 1);
        assert!(default_shard_count(8) <= 8);
        assert_eq!(default_shard_count(1), 1);
        // A zero cap is treated as one, never zero shards.
        assert_eq!(default_shard_count(0), 1);
    }
}
