//! The [`Reclaimer`] trait and backend selection.
//!
//! `cqs-core` (and through it every primitive crate) chooses a
//! reclamation backend per queue via `CqsConfig::reclaimer`, falling back
//! to the process-wide default set with [`set_default_reclaimer`]. The
//! hot path dispatches through [`pin_with`] — a plain `match` on a
//! two-bit kind that the optimizer resolves per call site — while the
//! trait objects returned by [`reclaimer`] serve the cold paths: the
//! watchdog's per-backend garbage gauges, tests and tooling.

use crate::guard::{Guard, GuardInner};
use crate::{hazard, owned};
use std::sync::atomic::{AtomicU8, Ordering};
use std::time::{Duration, Instant};

/// Selects one of the three reclamation backends.
///
/// | kind | guard cost | stall tolerance | memory bound |
/// |---|---|---|---|
/// | `Epoch` | TLS pin + fence | a stalled guard blocks **all** reclamation | unbounded under a stall |
/// | `Hazard` | none (per-load publish+validate) | a stall pins at most [`ReclaimerKind::HAZARD_SLOTS`] pointers | `threads × (scan threshold + slots)` |
/// | `Owned` | none (per-load striped borrow) | a stalled guard pins nothing; only a thread stalled *inside a load* defers | limbo drains as soon as no load is mid-window |
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ReclaimerKind {
    /// The epoch-based collector: guard-lifetime protection, cheapest
    /// loads, garbage deferred through a global grace period.
    #[default]
    Epoch,
    /// Hazard pointers: per-load publish/validate against per-thread
    /// slots; bounded garbage even when a thread stalls mid-operation.
    Hazard,
    /// The GC-free owned-slot scheme exploiting CQS structure: guards are
    /// free tokens, loads take a transient striped borrow, and displaced
    /// references are usually dropped immediately.
    Owned,
}

impl ReclaimerKind {
    /// All backends, in ablation order.
    pub const ALL: [ReclaimerKind; 3] = [
        ReclaimerKind::Epoch,
        ReclaimerKind::Hazard,
        ReclaimerKind::Owned,
    ];

    /// Hazard slots per thread (the per-stall pinning bound of the
    /// hazard backend).
    pub const HAZARD_SLOTS: usize = 4;

    /// The canonical lower-case name (`"epoch"`, `"hazard"`, `"owned"`),
    /// as used by `figures --reclaimer` and bench series labels.
    pub fn name(self) -> &'static str {
        match self {
            ReclaimerKind::Epoch => "epoch",
            ReclaimerKind::Hazard => "hazard",
            ReclaimerKind::Owned => "owned",
        }
    }

    /// Parses a backend name as accepted by the `--reclaimer` CLI flag.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "epoch" => Some(ReclaimerKind::Epoch),
            "hazard" | "hp" | "hazard-pointer" => Some(ReclaimerKind::Hazard),
            "owned" | "owned-slot" => Some(ReclaimerKind::Owned),
            _ => None,
        }
    }
}

impl std::fmt::Display for ReclaimerKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Process-wide default backend, encoded as the `ReclaimerKind` variant
/// index. Queues constructed without an explicit `CqsConfig::reclaimer`
/// resolve this at construction time (never per operation).
static DEFAULT_KIND: AtomicU8 = AtomicU8::new(0);

/// Sets the process-wide default backend for queues that do not pick one
/// explicitly. Takes effect for queues constructed *after* the call;
/// existing queues keep the backend they resolved at construction.
pub fn set_default_reclaimer(kind: ReclaimerKind) {
    let encoded = match kind {
        ReclaimerKind::Epoch => 0,
        ReclaimerKind::Hazard => 1,
        ReclaimerKind::Owned => 2,
    };
    DEFAULT_KIND.store(encoded, Ordering::Relaxed);
}

/// The current process-wide default backend.
pub fn default_reclaimer() -> ReclaimerKind {
    match DEFAULT_KIND.load(Ordering::Relaxed) {
        1 => ReclaimerKind::Hazard,
        2 => ReclaimerKind::Owned,
        _ => ReclaimerKind::Epoch,
    }
}

/// Acquires a guard from the chosen backend. The epoch arm is exactly the
/// historical [`crate::pin`] fast path (TLS participant cache included);
/// the hazard arm resolves the thread's record from a TLS cache; the
/// owned arm is a no-op token.
pub fn pin_with(kind: ReclaimerKind) -> Guard<'static> {
    match kind {
        ReclaimerKind::Epoch => crate::pin(),
        ReclaimerKind::Hazard => Guard {
            inner: GuardInner::Hazard(hazard::protect()),
        },
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
/// protection vetoes a round, and reports whether everything the flush
/// can reach was reclaimed before the deadline: the whole backlog for
/// epoch and owned ([`retired_approx`] reads zero); for hazard the
/// caller's own retire list plus the lists of exited threads — another
/// *live* thread's private list (bounded by the scan threshold) stays
/// that thread's to scan. See [`crate::Collector::flush`] for the
/// caveats; the caller must not hold a guard of the flushed backend.
#[must_use = "false means garbage is still pending"]
pub fn flush_reclaimer(kind: ReclaimerKind) -> bool {
    match kind {
        ReclaimerKind::Epoch => crate::flush(),
        ReclaimerKind::Hazard => flush_until(hazard::flush),
        ReclaimerKind::Owned => flush_until(|| {
            owned::flush();
            owned::retired_approx() == 0
        }),
    }
}

/// Approximate number of retired-but-unreclaimed objects held by `kind`
/// (the default epoch collector's bags, the hazard retire lists, or the
/// owned-slot limbo). This is the gauge `cqs-watch` publishes per
/// backend so garbage growth under a stalled pin is observable.
pub fn retired_approx(kind: ReclaimerKind) -> usize {
    match kind {
        ReclaimerKind::Epoch => crate::epoch::default_retired_approx(),
        ReclaimerKind::Hazard => hazard::retired_approx(),
        ReclaimerKind::Owned => owned::retired_approx(),
    }
}

/// A pluggable reclamation backend: guard acquisition, deferred retire
/// (through [`Guard::defer`] and `AtomicArc`'s displacement paths),
/// advance/flush, and a garbage gauge.
///
/// The hot path does not go through this trait — queues stamp a
/// [`ReclaimerKind`] and call [`pin_with`], which compiles to a direct
/// match — but the trait is the seam tooling programs against.
pub trait Reclaimer: Send + Sync {
    /// The kind this backend implements.
    fn kind(&self) -> ReclaimerKind;

    /// Acquires a guard; equivalent to [`pin_with`]`(self.kind())`.
    fn protect(&self) -> Guard<'static>;

    /// Reclaims pending garbage and reports whether everything in reach
    /// went (for hazard that is less than [`Self::retired_approx`] counts);
    /// equivalent to [`flush_reclaimer`]`(self.kind())`.
    #[must_use = "false means garbage is still pending"]
    fn flush(&self) -> bool;

    /// Approximate retired-but-unreclaimed object count; equivalent to
    /// [`retired_approx`]`(self.kind())`.
    fn retired_approx(&self) -> usize;
}

macro_rules! unit_reclaimer {
    ($(#[doc = $doc:expr])+ $name:ident, $kind:expr) => {
        $(#[doc = $doc])+
        #[derive(Debug, Default, Clone, Copy)]
        pub struct $name;

        impl Reclaimer for $name {
            fn kind(&self) -> ReclaimerKind {
                $kind
            }
            fn protect(&self) -> Guard<'static> {
                pin_with($kind)
            }
            fn flush(&self) -> bool {
                flush_reclaimer($kind)
            }
            fn retired_approx(&self) -> usize {
                retired_approx($kind)
            }
        }
    };
}

unit_reclaimer! {
    /// The epoch backend as a [`Reclaimer`] (the default collector).
    EpochReclaimer, ReclaimerKind::Epoch
}
unit_reclaimer! {
    /// The hazard-pointer backend as a [`Reclaimer`].
    HazardReclaimer, ReclaimerKind::Hazard
}
unit_reclaimer! {
    /// The owned-slot backend as a [`Reclaimer`].
    OwnedReclaimer, ReclaimerKind::Owned
}

/// The `'static` [`Reclaimer`] implementing `kind`.
pub fn reclaimer(kind: ReclaimerKind) -> &'static dyn Reclaimer {
    match kind {
        ReclaimerKind::Epoch => &EpochReclaimer,
        ReclaimerKind::Hazard => &HazardReclaimer,
        ReclaimerKind::Owned => &OwnedReclaimer,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_round_trips_through_parse_and_name() {
        for kind in ReclaimerKind::ALL {
            assert_eq!(ReclaimerKind::parse(kind.name()), Some(kind));
            assert_eq!(kind.to_string(), kind.name());
        }
        assert_eq!(ReclaimerKind::parse("hp"), Some(ReclaimerKind::Hazard));
        assert_eq!(
            ReclaimerKind::parse("owned-slot"),
            Some(ReclaimerKind::Owned)
        );
        assert_eq!(ReclaimerKind::parse("tracing-gc"), None);
    }

    #[test]
    fn guards_report_their_kind() {
        for kind in ReclaimerKind::ALL {
            assert_eq!(pin_with(kind).kind(), kind);
            assert_eq!(reclaimer(kind).kind(), kind);
            assert_eq!(reclaimer(kind).protect().kind(), kind);
        }
    }

    #[test]
    fn default_kind_is_settable() {
        assert_eq!(default_reclaimer(), ReclaimerKind::Epoch);
        set_default_reclaimer(ReclaimerKind::Owned);
        assert_eq!(default_reclaimer(), ReclaimerKind::Owned);
        set_default_reclaimer(ReclaimerKind::Epoch);
        assert_eq!(default_reclaimer(), ReclaimerKind::Epoch);
    }

    #[test]
    fn defer_runs_on_every_backend() {
        use std::sync::atomic::AtomicBool;
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
