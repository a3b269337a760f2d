#![warn(missing_docs)]

//! Zero-cost operation counters for the CQS stack.
//!
//! Benchmark numbers alone say a configuration is slow; they do not say
//! *why*. This crate gives the runtime crates a shared block of counters —
//! suspensions, resumptions, fast-path hits, cancellation outcomes,
//! rendezvous breaks, segment churn, thread parks — that the benchmark
//! harness snapshots around every measured point and embeds in its
//! `BENCH_*.json` output.
//!
//! Hot paths mark events with [`bump!`]`(counter)`. Without the `stats`
//! cargo feature the macro expands to **nothing** — zero code, zero
//! branches, zero cost, exactly like `cqs_chaos::inject!`. With the feature
//! enabled, each call site performs one relaxed `fetch_add` on a global
//! [`AtomicU64`](std::sync::atomic::AtomicU64).
//!
//! The [`CqsStats`] snapshot type is available unconditionally (all zeros
//! when the feature is off), so consumers such as `cqs-harness` need no
//! `cfg` of their own:
//!
//! ```
//! let before = cqs_stats::CqsStats::snapshot();
//! // ... run a workload ...
//! let delta = cqs_stats::CqsStats::snapshot().delta(&before);
//! assert_eq!(delta.suspends, 0); // feature off: always zero
//! ```

/// Pads and aligns a value to 64 bytes — one cache line on every target we
/// run on — so that two independently updated atomics never share a line
/// and therefore never false-share: a core bumping one counter does not
/// steal the line a different core needs for an unrelated counter.
///
/// The type is a plain transparent-feeling wrapper: `Deref`/`DerefMut`
/// expose the inner value, construction is `const`, and it carries no
/// feature gate — primitives embed their hot state words in it
/// unconditionally (`cqs-core`'s suspension counters, `cqs-sync`'s
/// semaphore/rwlock state words, the epoch participants) while the counter
/// statics below use it only when the `stats` feature compiles them in.
///
/// # Example
///
/// ```
/// use std::sync::atomic::{AtomicU64, Ordering};
/// use cqs_stats::CachePadded;
///
/// static COUNTER: CachePadded<AtomicU64> = CachePadded::new(AtomicU64::new(0));
/// COUNTER.fetch_add(1, Ordering::Relaxed);
/// assert_eq!(COUNTER.load(Ordering::Relaxed), 1);
/// assert_eq!(std::mem::align_of::<CachePadded<AtomicU64>>(), 64);
/// ```
#[derive(Debug, Default)]
#[repr(align(64))]
pub struct CachePadded<T> {
    value: T,
}

impl<T> CachePadded<T> {
    /// Wraps `value`, rounding its size and alignment up to a cache line.
    pub const fn new(value: T) -> Self {
        CachePadded { value }
    }

    /// Consumes the wrapper, returning the inner value.
    pub fn into_inner(self) -> T {
        self.value
    }
}

impl<T> std::ops::Deref for CachePadded<T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.value
    }
}

impl<T> std::ops::DerefMut for CachePadded<T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.value
    }
}

impl<T> From<T> for CachePadded<T> {
    fn from(value: T) -> Self {
        CachePadded::new(value)
    }
}

/// Defines the counter set exactly once; both the live statics and the
/// [`CqsStats`] snapshot struct are generated from this list so they cannot
/// drift apart.
macro_rules! define_counters {
    ($($(#[doc = $doc:expr])+ $name:ident,)+) => {
        /// The live counters behind [`bump!`]; present only with the
        /// `stats` feature.
        ///
        /// Each counter is individually [`CachePadded`](super::CachePadded)
        /// so that two threads bumping *different* counters never contend
        /// on the same cache line ([`bump!`] call sites are unchanged:
        /// `Deref` forwards `fetch_add`/`load` to the inner `AtomicU64`).
        #[cfg(feature = "stats")]
        #[allow(non_upper_case_globals)]
        pub mod counters {
            use super::CachePadded;
            use std::sync::atomic::AtomicU64;
            $(
                $(#[doc = $doc])+
                pub static $name: CachePadded<AtomicU64> =
                    CachePadded::new(AtomicU64::new(0));
            )+
        }

        /// A point-in-time snapshot of every counter, taken with
        /// [`CqsStats::snapshot`]. All fields are zero when the `stats`
        /// feature is disabled.
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct CqsStats {
            $(
                $(#[doc = $doc])+
                pub $name: u64,
            )+
        }

        impl CqsStats {
            /// Number of counters in the block.
            pub const LEN: usize = [$(stringify!($name)),+].len();

            /// Reads every counter. With the `stats` feature disabled this
            /// returns all zeros.
            pub fn snapshot() -> Self {
                #[cfg(feature = "stats")]
                {
                    use std::sync::atomic::Ordering;
                    CqsStats {
                        $($name: counters::$name.load(Ordering::Relaxed),)+
                    }
                }
                #[cfg(not(feature = "stats"))]
                {
                    CqsStats::default()
                }
            }

            /// Counter increments since `earlier` (saturating, so a
            /// snapshot pair taken out of order degrades to zeros instead
            /// of wrapping).
            pub fn delta(&self, earlier: &CqsStats) -> CqsStats {
                CqsStats {
                    $($name: self.$name.saturating_sub(earlier.$name),)+
                }
            }

            /// `(name, value)` view in declaration order, for generic
            /// serialization.
            pub fn fields(&self) -> [(&'static str, u64); Self::LEN] {
                [$((stringify!($name), self.$name),)+]
            }

            /// Whether every counter is zero.
            pub fn is_zero(&self) -> bool {
                self.fields().iter().all(|(_, v)| *v == 0)
            }
        }
    };
}

define_counters! {
    /// `Cqs::suspend` calls that registered or eliminated a waiter.
    suspends,
    /// `Cqs::resume` logical operations started.
    resumes,
    /// Suspensions eliminated by a racing resume that had already
    /// deposited its value in the cell (asynchronous fast path).
    elim_hits,
    /// Primitive-level fast-path completions that never reached the CQS
    /// (e.g. a semaphore acquire with a free permit, a pool take with a
    /// stored element).
    immediate_hits,
    /// Cancellations processed in `CancellationMode::Simple`.
    cancels_simple,
    /// Smart-mode cancellations that logically deregistered the waiter,
    /// letting resumers skip the cell in O(1).
    cancels_smart_skipped,
    /// Smart-mode cancellations that raced an in-flight resume and refused
    /// it (the value went through `complete_refused_resume`).
    cancels_refused,
    /// Synchronous-mode rendezvous that timed out and broke the cell,
    /// forcing both sides to restart.
    rendezvous_breaks,
    /// Segments of the infinite array allocated: a CQS's, a channel's, and
    /// the slot segments of a queue pool.
    segments_allocated,
    /// Segments deallocated, of every kind: a CQS or channel segment once
    /// unlinked or its owner drops, any segment once every head has left
    /// it.
    segments_reclaimed,
    /// Threads parked while waiting on a `CqsFuture`.
    parks,
    /// Parked threads woken by a completion or cancellation.
    unparks,
    /// Destructors deferred to the epoch reclamation engine.
    epoch_defers,
    /// Deferred destructors actually executed by the epoch engine.
    epoch_collects,
    /// Strong-count increments minted by reading an `AtomicArc`: one per
    /// `load` and per `Protected::to_arc`; `load_protected` counts nothing.
    arc_increments,
    /// Batched resumption traversals (`Cqs::resume_n` / `resume_all` /
    /// the batched `close()` sweep) — one per traversal, however many
    /// cells it visited.
    batch_resumes,
    /// Waiters completed (or close-cancelled) by batched traversals; the
    /// ratio to `batch_resumes` is the realized batch width.
    batch_waiters,
    /// `CqsChannel::send` operations started.
    channel_sends,
    /// `CqsChannel::receive` operations started.
    channel_recvs,
    /// Sends that found no room and no waiting receiver, and waited in
    /// their cell.
    channel_blocked_sends,
    /// Elements handed directly to a waiting receiver (no buffer trip).
    channel_direct_handoffs,
    /// Elements buffered in their cell for a receiver to come.
    channel_buffered_handoffs,
    /// Sharded acquires/takes satisfied by the caller's home shard without
    /// touching any sibling (the coordination-free fast path).
    shard_local_hits,
    /// Sharded acquires/takes that missed the home shard and claimed a
    /// permit/element from a sibling shard instead.
    shard_steals,
    /// Releases that moved banked credit (or an element) to a sibling shard
    /// with suspended waiters — one per credit migrated.
    shard_rebalances,
}

/// Increments a named counter from the block above.
///
/// Expands to a single relaxed `fetch_add` when the `stats` feature is
/// enabled, and to **nothing** otherwise.
#[cfg(feature = "stats")]
#[macro_export]
macro_rules! bump {
    ($name:ident) => {
        $crate::counters::$name.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    };
    ($name:ident, $n:expr) => {
        $crate::counters::$name.fetch_add($n as u64, std::sync::atomic::Ordering::Relaxed);
    };
}

/// Increments a named counter from the block above.
///
/// The `stats` feature is disabled, so this expands to nothing: no load,
/// no branch, no code at the call site.
#[cfg(not(feature = "stats"))]
#[macro_export]
macro_rules! bump {
    ($name:ident) => {};
    ($name:ident, $n:expr) => {};
}

/// Whether the `stats` feature was compiled in (i.e. whether [`bump!`]
/// call sites actually count).
pub const fn enabled() -> bool {
    cfg!(feature = "stats")
}

#[cfg(test)]
mod padding_tests {
    use super::CachePadded;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn padded_value_is_cache_line_aligned() {
        assert_eq!(std::mem::align_of::<CachePadded<AtomicU64>>(), 64);
        assert_eq!(std::mem::size_of::<CachePadded<AtomicU64>>(), 64);
        // Alignment must hold for wider payloads too (packed state words).
        assert_eq!(std::mem::align_of::<CachePadded<[AtomicU64; 4]>>(), 64);
    }

    #[test]
    fn padded_value_derefs_to_inner() {
        static PADDED: CachePadded<AtomicU64> = CachePadded::new(AtomicU64::new(7));
        PADDED.fetch_add(1, Ordering::Relaxed);
        assert_eq!(PADDED.load(Ordering::Relaxed), 8);
        let mut owned = CachePadded::new(41u64);
        *owned += 1;
        assert_eq!(owned.into_inner(), 42);
    }

    #[cfg(feature = "stats")]
    #[test]
    fn live_counters_do_not_share_cache_lines() {
        // Adjacent statics from the `define_counters!` block must sit at
        // least a cache line apart now that each is padded.
        let a = &super::counters::suspends as *const _ as usize;
        let b = &super::counters::resumes as *const _ as usize;
        assert!(
            a.abs_diff(b) >= 64,
            "counters {a:#x} and {b:#x} share a line"
        );
    }
}

#[cfg(all(test, feature = "stats"))]
mod tests {
    use super::CqsStats;

    #[test]
    fn bump_moves_the_snapshot() {
        let before = CqsStats::snapshot();
        crate::bump!(suspends);
        crate::bump!(suspends);
        crate::bump!(parks);
        let delta = CqsStats::snapshot().delta(&before);
        assert!(delta.suspends >= 2);
        assert!(delta.parks >= 1);
        assert!(super::enabled());
    }

    #[test]
    fn fields_cover_every_counter() {
        let snapshot = CqsStats::snapshot();
        assert_eq!(snapshot.fields().len(), CqsStats::LEN);
    }
}

#[cfg(all(test, not(feature = "stats")))]
mod tests {
    use super::CqsStats;

    #[test]
    fn disabled_macro_counts_nothing() {
        crate::bump!(suspends);
        let snapshot = CqsStats::snapshot();
        assert!(snapshot.is_zero());
        assert!(!super::enabled());
    }

    #[test]
    fn disabled_macro_is_independent_of_the_padded_backing_type() {
        // With the feature off there is no `counters` module at all — the
        // padded statics are compiled out entirely, so `bump!` cannot even
        // name them. This expansion proves the macro emits no expression.
        #[allow(clippy::let_unit_value)]
        let nothing: () = {
            crate::bump!(segments_reclaimed);
            crate::bump!(shard_local_hits);
            crate::bump!(shard_steals, 3);
            crate::bump!(shard_rebalances);
        };
        nothing
    }

    #[test]
    fn delta_of_zeros_is_zero() {
        let a = CqsStats::snapshot();
        crate::bump!(resumes);
        let b = CqsStats::snapshot();
        assert!(b.delta(&a).is_zero());
    }
}
