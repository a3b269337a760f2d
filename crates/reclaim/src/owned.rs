//! The GC-free **owned-slot** reclamation backend.
//!
//! CQS structure makes almost all reclamation trivial: a segment is
//! physically freed by the unique thread that unlinks it (the refcounted
//! `prev`/`next` unlink already proves exclusivity — `Arc::get_mut` in the
//! segment freelist is the witness), and every displaced `AtomicArc`
//! reference is just one strong-count decrement away from being settled.
//! The only genuinely unsafe window in the whole stack is the handful of
//! instructions inside `AtomicArc::load` between reading the raw pointer
//! and incrementing the strong count: if the cell's own reference is
//! dropped right then, the increment touches freed memory.
//!
//! This backend protects exactly that window and nothing else. Guard
//! acquisition is a no-op (counted as `guard_elisions`); each load instead
//! holds a **striped borrow counter** for the duration of the window. A
//! retirer that displaces a reference scans the stripes once: if all are
//! zero, *no load anywhere in the process is mid-window*, so the displaced
//! reference is dropped immediately — the GC-free fast path that also
//! skips the epoch engine's global mutex.
//! Otherwise the reference parks in a small limbo list that is drained the
//! next time the stripes read zero.
//!
//! # Why the stripe scan is sound (store-buffer / Dekker argument)
//!
//! Loader: `W_b` (stripe `fetch_add`, SeqCst) → `R_p` (pointer load,
//! SeqCst). Retirer: `W_p` (pointer swap, SeqCst) → `R_b` (stripe loads,
//! SeqCst). All four are SeqCst, so they occur in one total order `S`
//! consistent with program order. If the loader read the *old* pointer,
//! then `R_p <S W_p`, hence `W_b <S R_p <S W_p <S R_b`: the scan observes
//! the loader's increment (the stripe is only ever written by SeqCst RMWs,
//! so the SeqCst read returns the running sum including `W_b`). The
//! matching `fetch_sub` happens only after the strong count was taken, so
//! either the scan sees a non-zero stripe (and defers to limbo) or the
//! loader already owns a reference (and dropping the cell's reference is a
//! plain decrement, never a free-under-reader). Loads that enter their
//! window after the scan can only read the *new* pointer — `W_p <S W_b`
//! implies `W_p <S R_p` — so they never see the retired one.
//!
//! An address recycled by the allocator cannot bite either: the limbo/
//! immediate drop only releases the *cell's* reference; memory is freed
//! only when the strong count hits zero, which the scan has just proven no
//! in-window reader can be about to increment.

use crate::guard::{Retired, SettleGauge};
use cqs_stats::CachePadded;
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Number of borrow-counter stripes. Loads pick a per-thread home stripe,
/// so up to this many threads can sit in load windows without contending
/// on one cache line; the retire-side scan reads all of them.
const STRIPES: usize = 8;

/// A retire that finds an active borrow parks the entry in limbo; once the
/// limbo reaches this length, every subsequent retire also attempts a
/// drain (bounding limbo growth to the duration of the overlapping loads,
/// which are nanoseconds — not guard lifetimes).
const LIMBO_DRAIN_THRESHOLD: usize = 32;

struct OwnedDomain {
    stripes: [CachePadded<AtomicUsize>; STRIPES],
    limbo: Mutex<Vec<Retired>>,
    /// Entries parked in `limbo` plus those a drain has taken out but not
    /// yet released, readable without the lock: the cheap "anything to
    /// drain?" check, the watchdog gauge, and what a flush waits on.
    limbo_len: AtomicUsize,
}

#[allow(clippy::declare_interior_mutable_const)]
const STRIPE_ZERO: CachePadded<AtomicUsize> = CachePadded::new(AtomicUsize::new(0));

static DOMAIN: OwnedDomain = OwnedDomain {
    stripes: [STRIPE_ZERO; STRIPES],
    limbo: Mutex::new(Vec::new()),
    limbo_len: AtomicUsize::new(0),
};

/// Round-robin assignment of home stripes to threads.
static NEXT_STRIPE: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// This thread's home stripe; `usize::MAX` until first use.
    static HOME_STRIPE: Cell<usize> = const { Cell::new(usize::MAX) };
}

fn home_stripe() -> usize {
    HOME_STRIPE
        .try_with(|s| {
            let v = s.get();
            if v != usize::MAX {
                v
            } else {
                let v = NEXT_STRIPE.fetch_add(1, Ordering::Relaxed) % STRIPES;
                s.set(v);
                v
            }
        })
        // TLS teardown: stripe 0 still participates in every scan.
        .unwrap_or(0)
}

/// The owned-slot guard: a pure token. Acquisition and drop perform no
/// atomic operation; protection lives in [`borrow`] inside each load.
pub(crate) struct OwnedGuard;

pub(crate) fn protect() -> OwnedGuard {
    cqs_stats::bump!(guard_elisions);
    OwnedGuard
}

/// RAII borrow of the calling thread's home stripe, held across the
/// pointer-load → strong-count-increment window of one `AtomicArc::load`.
pub(crate) struct Borrow {
    stripe: &'static CachePadded<AtomicUsize>,
}

pub(crate) fn borrow() -> Borrow {
    let stripe = &DOMAIN.stripes[home_stripe()];
    // SeqCst (invariant): `W_b` of the Dekker pairing documented on the
    // module — must precede the pointer load in the single total order.
    stripe.fetch_add(1, Ordering::SeqCst);
    Borrow { stripe }
}

impl Drop for Borrow {
    fn drop(&mut self) {
        // SeqCst (invariant): the release must not be observable before
        // the strong-count increment it orders after; see module docs.
        self.stripe.fetch_sub(1, Ordering::SeqCst);
    }
}

/// `R_b` of the Dekker pairing: true only if no load anywhere is
/// currently mid-window (or, for loads racing this scan, provably unable
/// to have observed any pointer retired before the scan).
fn stripes_all_zero() -> bool {
    DOMAIN.stripes.iter().all(|s| s.load(Ordering::SeqCst) == 0)
}

/// Retires a displaced reference (or deferred closure). Fast path: no
/// active borrow → reclaim immediately, allocation-free. Slow path: park
/// in limbo until the stripes read zero.
pub(crate) fn retire(entry: Retired) {
    cqs_chaos::inject!("reclaim.owned.retire.pre-scan");
    if stripes_all_zero() {
        // SAFETY: per the module's Dekker argument, no reader that could
        // still dereference this pointer without owning a reference is in
        // flight; the retire call itself happens after the displacing
        // SeqCst swap in program order.
        unsafe { entry.reclaim() };
        cqs_stats::bump!(retired_reclaimed);
        if DOMAIN.limbo_len.load(Ordering::Relaxed) > 0 {
            try_drain(false);
        }
    } else {
        let mut limbo = DOMAIN.limbo.lock().unwrap();
        limbo.push(entry);
        DOMAIN.limbo_len.fetch_add(1, Ordering::Relaxed);
        let drain_now = limbo.len() >= LIMBO_DRAIN_THRESHOLD;
        drop(limbo);
        if drain_now {
            try_drain(false);
        }
    }
}

/// Attempts to drain the limbo. Entries are taken out under the lock and
/// reclaimed *outside* it: reclamation can cascade (dropping a segment
/// drops a queue's cells, which may retire further references) and the
/// limbo mutex is not reentrant.
///
/// Taking the entries first is what makes the subsequent stripe scan
/// sound for them: an entry in limbo at take time had its displacing swap
/// ordered (via the limbo mutex) before our scan, so the module's Dekker
/// argument applies with the scan playing `R_b`.
fn try_drain(block: bool) {
    let taken = {
        let limbo = if block {
            Some(DOMAIN.limbo.lock().unwrap())
        } else {
            DOMAIN.limbo.try_lock().ok()
        };
        let Some(mut limbo) = limbo else { return };
        if limbo.is_empty() {
            return;
        }
        std::mem::take(&mut *limbo)
    };
    if stripes_all_zero() {
        cqs_stats::bump!(retired_reclaimed, taken.len());
        // Settled after the releases: a flush that reads zero (Acquire)
        // must find these entries released, not merely taken.
        let _settle = SettleGauge(&DOMAIN.limbo_len, taken.len());
        for entry in taken {
            // SAFETY: see the function documentation.
            unsafe { entry.reclaim() };
        }
    } else {
        // A load is mid-window somewhere: put everything back untouched.
        DOMAIN.limbo.lock().unwrap().extend(taken);
    }
}

/// One blocking drain of the limbo; frees everything if no load is
/// concurrently mid-window. The owned-slot counterpart of one epoch
/// `collect` — [`crate::flush_reclaimer`] retries it, since a drain can
/// lose to a transient borrow and reclamation itself may push new entries.
pub(crate) fn flush() {
    try_drain(true);
}

/// Number of retired objects not yet released (parked in limbo or being
/// drained right now).
pub(crate) fn retired_approx() -> usize {
    DOMAIN.limbo_len.load(Ordering::Acquire)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;

    /// The stripes and limbo are process-global, so tests that assert on
    /// limbo occupancy serialize against each other. Unrelated tests in
    /// the same binary only ever take *transient* (nanosecond) borrows,
    /// which the retry loops below absorb.
    static SERIAL: Mutex<()> = Mutex::new(());

    fn count_entry(flag: &Arc<AtomicBool>) -> Retired {
        let flag = Arc::clone(flag);
        Retired::from_closure(Box::new(move || flag.store(true, Ordering::SeqCst)))
    }

    fn drain_until(flag: &AtomicBool) {
        for _ in 0..10_000 {
            if flag.load(Ordering::SeqCst) {
                return;
            }
            flush();
            std::thread::yield_now();
        }
        panic!("entry never reclaimed");
    }

    #[test]
    fn retire_without_borrows_reclaims_immediately() {
        let _serial = SERIAL.lock().unwrap();
        // A transient borrow from a concurrent test can park any single
        // attempt; an immediate free must happen within a few tries.
        for _ in 0..100 {
            let freed = Arc::new(AtomicBool::new(false));
            retire(count_entry(&freed));
            if freed.load(Ordering::SeqCst) {
                return;
            }
            drain_until(&freed);
        }
        panic!("retire never took the immediate-reclaim fast path");
    }

    #[test]
    fn retire_under_borrow_parks_until_release() {
        let _serial = SERIAL.lock().unwrap();
        let freed = Arc::new(AtomicBool::new(false));
        let window = borrow();
        retire(count_entry(&freed));
        assert!(
            !freed.load(Ordering::SeqCst),
            "active borrow must park the entry in limbo"
        );
        assert!(retired_approx() >= 1);
        drop(window);
        drain_until(&freed);
    }

    #[test]
    fn borrow_on_another_thread_blocks_reclaim() {
        let _serial = SERIAL.lock().unwrap();
        let freed = Arc::new(AtomicBool::new(false));
        let hold = Arc::new(AtomicBool::new(true));
        let held = Arc::new(AtomicBool::new(false));
        let t = {
            let hold = Arc::clone(&hold);
            let held = Arc::clone(&held);
            std::thread::spawn(move || {
                let b = borrow();
                held.store(true, Ordering::SeqCst);
                while hold.load(Ordering::SeqCst) {
                    std::hint::spin_loop();
                }
                drop(b);
            })
        };
        while !held.load(Ordering::SeqCst) {
            std::hint::spin_loop();
        }
        retire(count_entry(&freed));
        flush();
        assert!(
            !freed.load(Ordering::SeqCst),
            "remote borrow must block reclamation"
        );
        hold.store(false, Ordering::SeqCst);
        t.join().unwrap();
        drain_until(&freed);
    }

    #[test]
    // Explicit drops of the inert token are the behavior under test.
    #[allow(clippy::drop_non_drop)]
    fn guard_token_is_free_and_stacks() {
        let _serial = SERIAL.lock().unwrap();
        let g1 = protect();
        let g2 = protect();
        drop(g1);
        drop(g2);
        // Tokens carry no protection; a held guard does not park retires.
        let freed = Arc::new(AtomicBool::new(false));
        let _g3 = protect();
        retire(count_entry(&freed));
        drain_until(&freed);
    }
}
