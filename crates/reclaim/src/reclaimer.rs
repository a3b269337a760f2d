//! Backend selection: [`ReclaimerKind`] and the three functions that
//! dispatch on it.
//!
//! `cqs-core` (and through it every primitive crate) stamps one
//! [`ReclaimerKind`] per queue at construction — `CqsConfig::reclaimer`,
//! or [`ReclaimerKind::default`] when the config names none — and there is
//! no other way to choose. [`pin_with`], [`flush_reclaimer`] and
//! [`retired_approx`] are the whole seam: each is a plain `match` on the
//! kind that the optimizer resolves per call site, and a further backend
//! (the adversarial test reclaimer ROADMAP plans) is one more arm in each.

use crate::guard::{Guard, GuardInner};
use crate::owned;
use std::time::{Duration, Instant};

/// Selects one of the two reclamation backends.
///
/// | kind | guard cost | stall tolerance | memory bound |
/// |---|---|---|---|
/// | `Epoch` | TLS pin + fence | a stalled guard blocks **all** reclamation | unbounded under a stall |
/// | `Owned` | none (per-load striped borrow) | a stalled guard pins nothing; only a thread stalled *inside a load* defers | limbo drains as soon as no load is mid-window |
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ReclaimerKind {
    /// The epoch-based collector: guard-lifetime protection, cheapest
    /// loads, garbage deferred through a global grace period.
    #[default]
    Epoch,
    /// The GC-free owned-slot scheme exploiting CQS structure: guards are
    /// free tokens, loads take a transient striped borrow, and displaced
    /// references are usually dropped immediately.
    Owned,
}

impl ReclaimerKind {
    /// All backends, in ablation order.
    pub const ALL: [ReclaimerKind; 2] = [ReclaimerKind::Epoch, ReclaimerKind::Owned];

    /// The canonical lower-case name (`"epoch"`, `"owned"`), as used by
    /// bench series labels and the watchdog's garbage gauges.
    pub fn name(self) -> &'static str {
        match self {
            ReclaimerKind::Epoch => "epoch",
            ReclaimerKind::Owned => "owned",
        }
    }
}

impl std::fmt::Display for ReclaimerKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Acquires a guard from the chosen backend. The epoch arm is exactly the
/// historical [`crate::pin`] fast path (TLS participant cache included);
/// the owned arm is a no-op token.
pub fn pin_with(kind: ReclaimerKind) -> Guard<'static> {
    match kind {
        ReclaimerKind::Epoch => crate::pin(),
        ReclaimerKind::Owned => Guard {
            inner: GuardInner::Owned(owned::protect()),
        },
    }
}

/// How long a flush keeps retrying before it reports the backlog as stuck.
const FLUSH_DEADLINE: Duration = Duration::from_secs(2);

/// The quiescence barrier behind every backend's flush: runs `round`
/// (one reclamation attempt, reporting whether the backlog is gone),
/// yielding between rounds, until it succeeds or [`FLUSH_DEADLINE`]
/// passes. One round is rarely enough on shared state — any thread
/// protected at that instant vetoes the round — so a flush that must be
/// observable (a test asserting drop counts) has to retry.
pub(crate) fn flush_until(mut round: impl FnMut() -> bool) -> bool {
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

/// Reclaims `kind`'s pending garbage, retrying while concurrent
/// protection vetoes a round, and reports whether the whole backlog was
/// reclaimed before the deadline ([`retired_approx`] reads zero). See
/// [`crate::Collector::flush`] for the caveats; the caller must not hold
/// a guard of the flushed backend.
#[must_use = "false means garbage is still pending"]
pub fn flush_reclaimer(kind: ReclaimerKind) -> bool {
    match kind {
        ReclaimerKind::Epoch => crate::flush(),
        ReclaimerKind::Owned => flush_until(|| {
            owned::flush();
            owned::retired_approx() == 0
        }),
    }
}

/// Approximate number of retired-but-unreclaimed objects held by `kind`
/// (the default epoch collector's bags or the owned-slot limbo). This is
/// the gauge `cqs-watch` publishes per backend so garbage growth under a
/// stalled pin is observable.
pub fn retired_approx(kind: ReclaimerKind) -> usize {
    match kind {
        ReclaimerKind::Epoch => crate::epoch::default_retired_approx(),
        ReclaimerKind::Owned => owned::retired_approx(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn guards_report_their_kind() {
        for kind in ReclaimerKind::ALL {
            assert_eq!(pin_with(kind).kind(), kind);
        }
    }

    #[test]
    fn defer_runs_on_every_backend() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;
        for kind in ReclaimerKind::ALL {
            let freed = Arc::new(AtomicBool::new(false));
            {
                let guard = pin_with(kind);
                let freed = Arc::clone(&freed);
                guard.defer(move || freed.store(true, Ordering::SeqCst));
            }
            for _ in 0..200 {
                if freed.load(Ordering::SeqCst) {
                    break;
                }
                let _ = flush_reclaimer(kind); // `freed` is the check
                std::thread::yield_now();
            }
            assert!(freed.load(Ordering::SeqCst), "defer never ran on {kind}");
        }
    }
}
