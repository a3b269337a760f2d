//! A sharded counting semaphore: N per-shard CQS instances behind one
//! logical permit pool.
//!
//! [`ShardedSemaphore`] is [`cqs_core::shard::Sharded`] over [`Semaphore`]
//! shards — a permit is the layer's item of type `()`. The protocol (local
//! fast path, bounded steal, per-shard FIFO suspension, batched rebalance,
//! no-idle sweep) and the precise fairness and liveness contract are
//! stated once, in the [`cqs_core::shard`] module docs. The semaphore's
//! two parameters there: the rebalance interval is
//! [`with_shards_and_interval`](ShardedSemaphore::with_shards_and_interval)'s
//! argument (a banked permit may be barged past waiters parked on other
//! shards for at most that many consecutive banking releases per shard),
//! and the no-idle sweep runs when every permit is banked — no holder is
//! left whose later release could serve a parked waiter.

use cqs_core::shard::{Sharded, MAX_DEFAULT_SHARDS};
use cqs_core::{Cancelled, CqsFuture};

use crate::semaphore::Semaphore;

/// Default number of consecutive banking releases a shard may absorb before
/// its next release runs a rebalance pulse.
pub const DEFAULT_REBALANCE_INTERVAL: u64 = 64;

/// A fair-enough, abortable counting semaphore sharded over N per-shard
/// CQS instances. See the [`cqs_core::shard`] module docs for the protocol
/// and the precise fairness contract.
///
/// # Example
///
/// ```
/// use cqs_sync::ShardedSemaphore;
///
/// let semaphore = ShardedSemaphore::with_shards(2, 4);
/// let a = semaphore.acquire_blocking().unwrap();
/// let b = semaphore.acquire_blocking().unwrap();
/// assert_eq!(semaphore.available_permits(), 0);
/// drop((a, b));
/// assert_eq!(semaphore.available_permits(), 2);
/// ```
#[derive(Debug)]
pub struct ShardedSemaphore {
    sharded: Sharded<Semaphore>,
    permits: usize,
}

impl ShardedSemaphore {
    /// Creates a sharded semaphore with `permits` total permits and the
    /// default shard count: the machine's available parallelism, capped at
    /// [`MAX_DEFAULT_SHARDS`].
    ///
    /// # Panics
    ///
    /// Panics if `permits` is zero.
    pub fn new(permits: usize) -> Self {
        Self::with_shards(
            permits,
            cqs_core::shard::default_shard_count(MAX_DEFAULT_SHARDS),
        )
    }

    /// Creates a sharded semaphore with an explicit shard count.
    ///
    /// # Panics
    ///
    /// Panics if `permits` or `shards` is zero.
    pub fn with_shards(permits: usize, shards: usize) -> Self {
        Self::with_shards_and_interval(permits, shards, DEFAULT_REBALANCE_INTERVAL)
    }

    /// Creates a sharded semaphore with an explicit shard count and
    /// rebalance interval: how many consecutive banking releases one shard
    /// may absorb before its next release migrates banked credit to
    /// starving siblings. `1` rebalances on every banking release
    /// (tightest fairness, no barging window); larger values trade
    /// short-term fairness for throughput.
    ///
    /// # Panics
    ///
    /// Panics if `permits`, `shards` or `interval` is zero.
    pub fn with_shards_and_interval(permits: usize, shards: usize, interval: u64) -> Self {
        assert!(permits > 0, "a semaphore needs at least one permit");
        // Sweep when every permit is banked: no holder is left to release.
        let sharded = Sharded::new(shards, interval, permits, |i, on_refusal| {
            let share = permits / shards + usize::from(i < permits % shards);
            Semaphore::with_initial(permits, share, "sharded-semaphore.shard", on_refusal)
        });
        ShardedSemaphore { sharded, permits }
    }

    /// The number of permits this semaphore was created with.
    pub fn permits(&self) -> usize {
        self.permits
    }

    /// The number of shards.
    pub fn shards(&self) -> usize {
        self.sharded.shards().len()
    }

    /// The calling thread's home shard index.
    pub fn home(&self) -> usize {
        self.sharded.home()
    }

    /// A snapshot of the permits currently banked across all shards (zero
    /// does not imply waiters exist; see [`waiting`](Self::waiting)).
    pub fn available_permits(&self) -> usize {
        self.sharded.banked()
    }

    /// A snapshot of the waiters currently queued across all shards.
    pub fn waiting(&self) -> usize {
        self.sharded.waiting()
    }

    /// Total live queue segments across all shards (diagnostics; the soak
    /// scenario tracks this to prove memory stays bounded).
    pub fn live_segments(&self) -> usize {
        self.sharded.live_segments()
    }

    /// Acquires a permit routed through the calling thread's home shard.
    pub fn acquire(&self) -> CqsFuture<()> {
        self.acquire_at(self.home())
    }

    /// Acquires a permit routed through shard `home % shards` — the
    /// deterministic core of [`acquire`](Self::acquire), also used by the
    /// model-checking programs to pin shard routing independently of TLS.
    ///
    /// Completes immediately on a banked permit (home shard first, then one
    /// steal pass over the siblings); otherwise parks in the home shard's
    /// FIFO queue. Cancel the returned future to abort waiting.
    pub fn acquire_at(&self, home: usize) -> CqsFuture<()> {
        self.sharded.take_at(home)
    }

    /// Blocking convenience: acquires a permit and returns a guard that
    /// releases it (through the acquiring thread's home shard) on drop.
    ///
    /// # Errors
    ///
    /// Fails with [`Cancelled`] only if the semaphore is closed.
    pub fn acquire_blocking(&self) -> Result<ShardedSemaphoreGuard<'_>, Cancelled> {
        let home = self.home();
        self.acquire_at(home).wait()?;
        Ok(ShardedSemaphoreGuard {
            semaphore: self,
            home,
        })
    }

    /// Blocking convenience with a deadline: acquires a permit or aborts
    /// the queued request after `timeout`.
    ///
    /// # Errors
    ///
    /// Returns [`Cancelled`] if the timeout elapsed first (or the
    /// semaphore is closed).
    pub fn acquire_timeout(
        &self,
        timeout: std::time::Duration,
    ) -> Result<ShardedSemaphoreGuard<'_>, Cancelled> {
        let home = self.home();
        self.acquire_at(home).wait_timeout(timeout)?;
        Ok(ShardedSemaphoreGuard {
            semaphore: self,
            home,
        })
    }

    /// Returns a permit through the calling thread's home shard.
    pub fn release(&self) {
        self.release_at(self.home());
    }

    /// Returns a permit through shard `home % shards` — the deterministic
    /// core of [`release`](Self::release).
    ///
    /// Serves the home shard's FIFO queue if it has waiters; otherwise
    /// banks the permit locally and then (a) runs a rebalance pulse if this
    /// shard's banking streak reached the interval, or (b) runs a full
    /// sweep if no permit is held anywhere — the no-idle-permit guarantee.
    pub fn release_at(&self, home: usize) {
        self.sharded.bank_at(home, ());
    }

    /// Returns `k` permits through shard `home % shards`: suspended waiters
    /// anywhere are served first (home shard, then ring order), one batched
    /// [`Semaphore::release_n`] traversal per recipient shard, and the
    /// remainder is banked at home (followed by the same quiescence sweep
    /// as [`release_at`](Self::release_at)).
    pub fn release_n_at(&self, home: usize, k: usize) {
        // A `Vec<()>` never allocates: its length is the whole batch.
        self.sharded.bank_many_at(home, vec![(); k]);
    }

    /// Returns `k` permits through the calling thread's home shard; see
    /// [`release_n_at`](Self::release_n_at).
    pub fn release_n(&self, k: usize) {
        self.release_n_at(self.home(), k);
    }

    /// Runs a rebalance sweep from every shard's bank toward starving
    /// shards. Normally unnecessary (releases rebalance on their own
    /// cadence); exposed for tests, drains, and operators reacting to a
    /// watchdog report.
    pub fn rebalance(&self) -> usize {
        self.sharded.rebalance()
    }

    /// Closes the semaphore: every queued acquirer on every shard is woken
    /// with [`Cancelled`] and subsequent acquires fail fast. Permits
    /// already handed out stay valid and may still be released.
    pub fn close(&self) {
        self.sharded.close();
    }

    /// Whether [`close`](Self::close) was called.
    pub fn is_closed(&self) -> bool {
        self.sharded.is_closed()
    }

    /// Poisons every shard: marks the queues poisoned and closes them. Use
    /// when a permit holder crashed and the guarded resource may be
    /// inconsistent.
    pub fn poison(&self) {
        for shard in self.sharded.shards() {
            shard.poison();
        }
    }

    /// Whether any shard was poisoned.
    pub fn is_poisoned(&self) -> bool {
        self.sharded.shards().iter().any(Semaphore::is_poisoned)
    }

    /// Publishes per-shard depth and live-segment gauges to the watchdog
    /// (`shard_depth`, `live_segments`, keyed by each shard's primitive
    /// id). No-op without the `watch` feature.
    pub fn publish_gauges(&self) {
        self.sharded.publish_gauges();
    }
}

/// RAII guard returned by [`ShardedSemaphore::acquire_blocking`]; releases
/// the permit through the acquiring thread's home shard when dropped.
#[derive(Debug)]
pub struct ShardedSemaphoreGuard<'a> {
    semaphore: &'a ShardedSemaphore,
    home: usize,
}

impl Drop for ShardedSemaphoreGuard<'_> {
    fn drop(&mut self) {
        self.semaphore.release_at(self.home);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn permits_are_distributed_and_conserved() {
        let s = ShardedSemaphore::with_shards(5, 3);
        assert_eq!(s.permits(), 5);
        assert_eq!(s.shards(), 3);
        assert_eq!(s.available_permits(), 5);
        let mut futures = Vec::new();
        for i in 0..5 {
            let f = s.acquire_at(i);
            assert!(f.is_immediate(), "acquire {i} must hit a bank");
            futures.push(f);
        }
        assert_eq!(s.available_permits(), 0);
        for i in 0..5 {
            s.release_at(i);
        }
        assert_eq!(s.available_permits(), 5);
    }

    #[test]
    #[should_panic(expected = "at least one permit")]
    fn zero_permits_rejected() {
        let _ = ShardedSemaphore::with_shards(0, 2);
    }

    #[test]
    fn steal_crosses_shards() {
        // One permit, two shards: the permit banks at shard 0, the acquire
        // routed at shard 1 must steal it.
        let s = ShardedSemaphore::with_shards(1, 2);
        let f = s.acquire_at(1);
        assert!(f.is_immediate(), "steal pass must find shard 0's bank");
        s.release_at(1);
        // The permit is now banked at shard 1; shard 0 steals it back.
        let f = s.acquire_at(0);
        assert!(f.is_immediate());
        s.release_at(0);
    }

    #[test]
    fn release_serves_parked_waiter_on_other_shard() {
        // The quiescence guard: the last holder's release must reach a
        // waiter parked on a different shard even though the rebalance
        // interval is far away.
        let s = Arc::new(ShardedSemaphore::with_shards(1, 2));
        let f = s.acquire_at(0);
        assert!(f.is_immediate());
        let waiter = s.acquire_at(1);
        assert!(!waiter.is_immediate(), "no permit is banked; must park");
        s.release_at(0);
        assert_eq!(waiter.wait(), Ok(()));
        s.release_at(1);
        assert_eq!(s.available_permits(), 1);
    }

    #[test]
    fn release_n_serves_waiters_across_shards_then_banks() {
        let s = ShardedSemaphore::with_shards(4, 2);
        let _held: Vec<_> = (0..4).map(|i| s.acquire_at(i)).collect();
        let w0 = s.acquire_at(0);
        let w1 = s.acquire_at(1);
        assert!(!w0.is_immediate() && !w1.is_immediate());
        // 4 permits from shard 0: two wake the waiters (one per shard, the
        // cross-shard one through a batched release_n), two bank.
        s.release_n_at(0, 4);
        assert_eq!(w0.wait(), Ok(()));
        assert_eq!(w1.wait(), Ok(()));
        assert_eq!(s.available_permits(), 2);
    }

    #[test]
    fn fifo_is_preserved_within_a_shard() {
        let s = Arc::new(ShardedSemaphore::with_shards(1, 2));
        let _hold = s.acquire_at(0);
        let waiters: Vec<_> = (0..4).map(|_| s.acquire_at(1)).collect();
        let order = Arc::new(AtomicUsize::new(0));
        let mut joins = Vec::new();
        for (i, f) in waiters.into_iter().enumerate() {
            let order = Arc::clone(&order);
            let s = Arc::clone(&s);
            joins.push(std::thread::spawn(move || {
                f.wait().unwrap();
                let at = order.fetch_add(1, Ordering::SeqCst);
                assert_eq!(at, i, "per-shard FIFO violated: waiter {i} ran {at}th");
                s.release_at(1);
            }));
        }
        s.release_at(0);
        for j in joins {
            j.join().unwrap();
        }
    }

    #[test]
    fn cancellation_flows_through_the_shard_queue() {
        let s = ShardedSemaphore::with_shards(1, 2);
        let _hold = s.acquire_at(0);
        let f1 = s.acquire_at(1);
        let f2 = s.acquire_at(1);
        assert!(f1.cancel());
        s.release_at(0);
        assert_eq!(f2.wait(), Ok(()));
        s.release_at(1);
        assert_eq!(s.available_permits(), 1);
        assert_eq!(s.waiting(), 0);
    }

    #[test]
    fn close_wakes_all_shards() {
        let s = Arc::new(ShardedSemaphore::with_shards(1, 3));
        let _hold = s.acquire_at(0);
        let waiters: Vec<_> = (0..3).map(|i| s.acquire_at(i)).collect();
        s.close();
        assert!(s.is_closed());
        for w in waiters {
            assert_eq!(w.wait(), Err(Cancelled));
        }
        assert_eq!(s.acquire_at(1).wait(), Err(Cancelled));
        assert!(s.acquire_blocking().is_err());
        // Closing loses no permits: the held one can still come back.
        s.release_at(0);
        assert_eq!(s.available_permits(), 1);
    }

    #[test]
    fn poison_marks_every_shard() {
        let s = ShardedSemaphore::with_shards(2, 2);
        assert!(!s.is_poisoned());
        s.poison();
        assert!(s.is_poisoned() && s.is_closed());
        assert_eq!(s.acquire_at(0).wait(), Err(Cancelled));
    }

    #[test]
    fn guard_releases_on_drop() {
        let s = ShardedSemaphore::with_shards(1, 2);
        {
            let _g = s.acquire_blocking().unwrap();
            assert_eq!(s.available_permits(), 0);
        }
        assert_eq!(s.available_permits(), 1);
    }

    #[test]
    fn acquire_timeout_expires_and_recovers() {
        let s = ShardedSemaphore::with_shards(1, 2);
        let held = s.acquire_blocking().unwrap();
        assert!(s.acquire_timeout(Duration::from_millis(10)).is_err());
        drop(held);
        let g = s.acquire_timeout(Duration::from_millis(200)).unwrap();
        drop(g);
        assert_eq!(s.available_permits(), 1);
    }

    /// The paper's key invariant lifted to the sharded protocol: never more
    /// than K holders, permits conserved at quiescence, under threads
    /// hammering every path (local hits, steals, parks, cancellations,
    /// rebalance pulses) with a tiny interval to force frequent migration.
    #[test]
    fn mutual_exclusion_under_sharded_storm() {
        const K: usize = 2;
        const THREADS: usize = 8;
        const OPS: usize = 500;
        for interval in [1u64, 3, DEFAULT_REBALANCE_INTERVAL] {
            let s = Arc::new(ShardedSemaphore::with_shards_and_interval(K, 4, interval));
            let inside = Arc::new(AtomicUsize::new(0));
            let mut joins = Vec::new();
            for t in 0..THREADS {
                let s = Arc::clone(&s);
                let inside = Arc::clone(&inside);
                joins.push(std::thread::spawn(move || {
                    for i in 0..OPS {
                        let f = s.acquire_at(t + i);
                        if (i + t) % 7 == 0 && f.cancel() {
                            continue;
                        }
                        f.wait().unwrap();
                        let now = inside.fetch_add(1, Ordering::SeqCst) + 1;
                        assert!(now <= K, "sharded semaphore admitted {now} > {K}");
                        inside.fetch_sub(1, Ordering::SeqCst);
                        if i % 11 == 0 {
                            s.release_n_at(t + i, 1);
                        } else {
                            s.release_at(t + i + 1); // release via a foreign shard
                        }
                    }
                }));
            }
            for j in joins {
                j.join().unwrap();
            }
            assert_eq!(
                s.available_permits(),
                K,
                "permits lost or duplicated (interval {interval})"
            );
            assert_eq!(s.waiting(), 0);
        }
    }

    /// Counter proof that the fast paths actually fire (stats feature on).
    #[cfg(feature = "stats")]
    #[test]
    fn fast_paths_are_counted() {
        let before = cqs_stats::CqsStats::snapshot();
        let s = ShardedSemaphore::with_shards(1, 2);
        assert!(s.acquire_at(0).is_immediate()); // local hit
        s.release_at(0);
        assert!(s.acquire_at(1).is_immediate()); // steal
                                                 // Park a waiter at shard 0, then release at shard 1 until a pulse
                                                 // or the quiescence sweep migrates (single permit: the sweep fires
                                                 // immediately because the release banks the only permit).
        let w = s.acquire_at(0);
        assert!(!w.is_immediate());
        s.release_at(1);
        assert_eq!(w.wait(), Ok(()));
        s.release_at(0);
        let delta = cqs_stats::CqsStats::snapshot().delta(&before);
        assert!(delta.shard_local_hits >= 1, "local hit not counted");
        assert!(delta.shard_steals >= 1, "steal not counted");
        assert!(delta.shard_rebalances >= 1, "rebalance not counted");
    }
}
