//! Deterministic fault injection and schedule control for the CQS stack.
//!
//! Concurrency bugs in CQS live in tiny windows: a cancellation handler
//! installing itself while a resumer publishes a value, a segment being
//! unlinked while a traversal walks over it, an epoch advancing between a
//! retire and a collect. Wall-clock stress tests hit those windows by luck;
//! this crate hits them on purpose.
//!
//! Hot paths mark their race windows with [`inject!`]`("label")`. Without
//! the `chaos` cargo feature the macro expands to **nothing** — zero code,
//! zero branches, zero cost. With the feature enabled, each call site
//! reports to the currently installed [`Scheduler`]:
//!
//! * the built-in [`RandomScheduler`] (the default) consults a thread-local
//!   seeded `SmallRng` schedule and may spin, `yield_now`, or briefly
//!   sleep, stretching the window so a conflicting thread can land inside
//!   it;
//! * an external scheduler installed with [`set_scheduler`] takes full
//!   control of the calling thread at every labelled point — this is the
//!   seam the `cqs-check` deterministic interleaving explorer plugs into.
//!
//! Random schedules are seeded: [`set_seed`] fixes the global seed (each
//! thread derives its own stream from it), so a failing stress run can be
//! replayed by re-running with the same seed. The `CQS_CHAOS_SEED`
//! environment variable seeds and enables chaos without code changes, and
//! `CQS_CHAOS_TRACE=<path>` records every schedule decision into a bounded
//! ring buffer that is dumped to `<path>` when a test panics, so a failing
//! storm reproduces without re-running the whole seed sweep.
//!
//! Synchronization primitives additionally mark operation boundaries with
//! [`record!`]`(instance, "op", Invoke|Response, value)`; when recording is
//! switched on ([`start_recording`]) these append to a global, sequence-
//! stamped history that the `cqs-check` Wing–Gong linearizability checker
//! replays against sequential reference models.
//!
//! Beyond timing perturbation, a small set of windows is additionally
//! *fault-eligible*: [`fault!`]`("label")` marks a point where a panic may
//! be injected, simulating user code (a `Clone`, a waker, a callback)
//! crashing mid-protocol. Crash faults are off by default even under
//! `--features chaos`; they are armed by [`set_faults`]`(seed, budget)` or
//! the `CQS_CHAOS_FAULTS=<seed>:<budget>` environment variable, which
//! injects at most `budget` seeded panics across the fault-eligible
//! windows. An external [`Scheduler`] can instead decide each crossing by
//! overriding [`Scheduler::at_fault`] — the seam through which the
//! `cqs-check` explorer makes every crash window a choice of its search.
//! Injected faults are recorded in the same decision-trace ring as
//! schedule decisions, so a failing storm replays from its seed.
//!
//! ```ignore
//! cqs_chaos::inject!("cell.try_install_waiter.pre-cas");
//! cqs_chaos::fault!("cqs.resume-n.fault.mid-batch");
//! cqs_chaos::record!(self as *const _ as u64, "sem.acquire", Invoke, 0);
//! ```

use std::sync::Arc;

/// A pluggable schedule hook: called at every labelled race window on the
/// thread that reached it.
///
/// Implementations decide how the calling thread behaves inside the window
/// — do nothing, perturb its timing ([`RandomScheduler`]), or block it
/// until a deterministic explorer decides it may continue (`cqs-check`).
/// The trait is defined unconditionally so schedulers can be written
/// without the `chaos` feature; without the feature no labelled window
/// exists and `at_point` is simply never called.
pub trait Scheduler: Send + Sync {
    /// Called on the thread that reached the labelled window.
    fn at_point(&self, label: &'static str);

    /// Called on the thread that reached a labelled *crash-fault* window
    /// ([`fault!`]). Returning `true` makes the window panic on the spot,
    /// simulating user code crashing mid-protocol; the default declines
    /// every injection, so existing schedulers are unaffected. The
    /// `cqs-check` explorer overrides this to branch, on each crossing by
    /// one of its program threads, on going on or panicking there.
    fn at_fault(&self, _label: &'static str) -> bool {
        false
    }
}

/// Phase of a recorded operation event (see [`record!`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpPhase {
    /// The operation was invoked; the interval it occupies begins here.
    Invoke,
    /// The operation's result became visible to the caller.
    Response,
}

/// One entry in a recorded operation history.
///
/// `seq` is a process-global sequence number: event A happened before
/// event B in real time iff `A.seq < B.seq`, which is the only ordering
/// the linearizability checker needs. `instance` identifies the primitive
/// (by convention its address), `value` is an op-specific payload (the
/// acquired value, the released amount, ...).
#[derive(Debug, Clone)]
pub struct OpEvent {
    /// Global happens-before stamp (unique per event).
    pub seq: u64,
    /// Ordinal of the recording thread.
    pub thread: u64,
    /// Identity of the primitive instance the operation targets.
    pub instance: u64,
    /// Operation name, e.g. `"sem.acquire"`.
    pub op: &'static str,
    /// Whether this is the invoke or the response edge.
    pub phase: OpPhase,
    /// Op-specific payload value.
    pub value: u64,
}

/// Every labelled race window in the workspace, sorted asciibetically.
///
/// The explorer keys its decision traces on these labels and the chaos
/// label-registry test asserts that (a) this table is sorted and free of
/// duplicates and (b) every label observed firing at runtime appears here —
/// so renaming or adding a window without updating this table fails CI,
/// keeping replay traces stable across the codebase's history.
pub const KNOWN_LABELS: &[&str] = &[
    "cell.break.pre-cas",
    "cell.cancel.pre-swap",
    "cell.delegate.pre-cas",
    "cell.eliminate.pre-swap",
    "cell.install.pre-cas",
    "cell.mark-resumed.pre-swap",
    "cell.publish.pre-cas",
    "channel.close.pre-sweep",
    "channel.deliver.fault.pre-count",
    "channel.deliver.pre-count",
    "channel.deliver.pre-resume",
    "channel.grant.pre-deliver",
    "channel.recv.pre-claim",
    "channel.recv.pre-retrieve",
    "channel.recv.timeout-window",
    "channel.send.post-deliver",
    "channel.send.pre-gate",
    "channel.slot.pre-release",
    "cqs.cancel.pre-cancel-swap",
    "cqs.cancel.pre-refuse-swap",
    "cqs.close.fault.mid-sweep",
    "cqs.close.pre-cancel",
    "cqs.close.pre-fire",
    "cqs.close.pre-sweep",
    "cqs.on-waiter-cancelled.entry",
    "cqs.resume-all.fault.pre-clone",
    "cqs.resume-n.fault.mid-batch",
    "cqs.resume-n.pre-advance",
    "cqs.resume-n.pre-complete",
    "cqs.resume-n.pre-counter",
    "cqs.resume-n.pre-delegate",
    "cqs.resume-n.pre-extra-claim",
    "cqs.resume-n.pre-fire",
    "cqs.resume-n.pre-mark-resumed",
    "cqs.resume-n.pre-publish",
    "cqs.resume-n.pre-skip-cancelled",
    "cqs.resume.pre-complete",
    "cqs.resume.pre-counter",
    "cqs.resume.pre-delegate",
    "cqs.resume.pre-mark-resumed",
    "cqs.resume.pre-publish",
    "cqs.suspend.install-to-handler-window",
    "cqs.suspend.pre-close-check",
    "cqs.suspend.pre-counter",
    "cqs.suspend.pre-find",
    "epoch.advance.pre-cas",
    "epoch.collect.pre-drain",
    "epoch.defer.pre-bin",
    "epoch.pin.publish-window",
    "future.cancel.pre-cas",
    "future.cancel.pre-handler",
    "future.complete.completing-window",
    "future.complete.pre-cas",
    "future.complete.pre-extract-wake",
    "future.handler.install-window",
    "future.handler.installed.pre-due-check",
    "future.handler.pre-run",
    "future.wait.park-phase",
    "future.wait.spin-phase",
    "future.wait.yield-phase",
    "future.wake.fault.pre-fire",
    "segment.append.pre-cas",
    "segment.move-forward.pre-cas",
    "segment.on-cancelled-cell.pre-count",
    "segment.remove.pre-link",
    "sharded.rebalance.window",
    "sharded.steal.window",
];

/// The fault-eligible subset of [`KNOWN_LABELS`]: windows where a
/// [`fault!`] call site may inject a crash (panic). Every entry also
/// appears in [`KNOWN_LABELS`], so fault decisions share the decision-trace
/// vocabulary. The `cqs-check` crash-recovery programs check that each
/// entry is crashed in at least one explored schedule.
pub const FAULT_LABELS: &[&str] = &[
    "channel.deliver.fault.pre-count",
    "cqs.close.fault.mid-sweep",
    "cqs.resume-all.fault.pre-clone",
    "cqs.resume-n.fault.mid-batch",
    "future.wake.fault.pre-fire",
];

/// Marks a labelled race window for fault injection.
///
/// Expands to nothing unless the `chaos` feature is enabled, in which case
/// it forwards to [`fire`] with the given `&'static str` label.
#[cfg(feature = "chaos")]
#[macro_export]
macro_rules! inject {
    ($label:expr) => {
        $crate::fire($label)
    };
}

/// Marks a labelled race window for fault injection.
///
/// The `chaos` feature is disabled, so this expands to nothing: the label
/// literal is never evaluated and no code is emitted at the call site.
#[cfg(not(feature = "chaos"))]
#[macro_export]
macro_rules! inject {
    ($label:expr) => {};
}

/// Marks a labelled *crash-fault* window: a point where a seeded, budgeted
/// panic may be injected (see [`set_faults`] / `CQS_CHAOS_FAULTS`).
///
/// Expands to nothing unless the `chaos` feature is enabled, in which case
/// it forwards to [`fault_fire`] with the given `&'static str` label. Even
/// with the feature on, the window is inert until faults are armed by
/// [`set_faults`], the `CQS_CHAOS_FAULTS` environment variable, or an
/// external [`Scheduler`] whose [`Scheduler::at_fault`] accepts the label.
#[cfg(feature = "chaos")]
#[macro_export]
macro_rules! fault {
    ($label:expr) => {
        $crate::fault_fire($label)
    };
}

/// Marks a labelled *crash-fault* window.
///
/// The `chaos` feature is disabled, so this expands to nothing: the label
/// literal is never evaluated and no code is emitted at the call site.
#[cfg(not(feature = "chaos"))]
#[macro_export]
macro_rules! fault {
    ($label:expr) => {};
}

/// Records an operation-history event (see [`OpEvent`]).
///
/// `record!(instance, "op", Invoke, value)` forwards to [`record`] with
/// [`OpPhase::Invoke`] or [`OpPhase::Response`]. A no-op (arguments not
/// evaluated) without the `chaos` feature.
#[cfg(feature = "chaos")]
#[macro_export]
macro_rules! record {
    ($instance:expr, $op:expr, $phase:ident, $value:expr) => {
        $crate::record($instance, $op, $crate::OpPhase::$phase, $value)
    };
}

/// Records an operation-history event.
///
/// The `chaos` feature is disabled, so this expands to nothing and the
/// arguments are never evaluated.
#[cfg(not(feature = "chaos"))]
#[macro_export]
macro_rules! record {
    ($instance:expr, $op:expr, $phase:ident, $value:expr) => {};
}

#[cfg(feature = "chaos")]
mod runtime {
    use super::{OpEvent, OpPhase, Scheduler};
    use rand::rngs::SmallRng;
    use rand::{Rng, RngCore, SeedableRng};
    use std::cell::{Cell, RefCell};
    use std::collections::{BTreeSet, HashSet, VecDeque};
    use std::io::Write;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::sync::{Arc, Mutex, Once, RwLock};
    use std::time::Duration;

    static ENABLED: AtomicBool = AtomicBool::new(false);
    static SEED: AtomicU64 = AtomicU64::new(0);
    /// Bumped on every (re)seed so live threads drop their stale schedule.
    static GENERATION: AtomicU64 = AtomicU64::new(0);
    /// Hands each participating thread a distinct stream index.
    static THREAD_ORDINAL: AtomicU64 = AtomicU64::new(0);
    static ENV_INIT: Once = Once::new();
    static FIRED: AtomicU64 = AtomicU64::new(0);

    /// Fast-path flag mirroring `CUSTOM.is_some()`.
    static HAS_CUSTOM: AtomicBool = AtomicBool::new(false);
    static CUSTOM: RwLock<Option<Arc<dyn Scheduler>>> = RwLock::new(None);

    // --- crash-fault injection (fault! / CQS_CHAOS_FAULTS) ----------------

    static FAULTS_ON: AtomicBool = AtomicBool::new(false);
    static FAULT_SEED: AtomicU64 = AtomicU64::new(0);
    /// Bumped on every re-arm so live threads drop their stale fault stream.
    static FAULT_GENERATION: AtomicU64 = AtomicU64::new(0);
    /// Hands each participating thread a distinct fault-stream index
    /// (independent of the perturbation streams, so arming faults never
    /// shifts an existing timing-replay schedule).
    static FAULT_ORDINAL: AtomicU64 = AtomicU64::new(0);
    /// Remaining injections; decremented by CAS so concurrent windows can
    /// never overdraw the budget.
    static FAULT_BUDGET: AtomicU64 = AtomicU64::new(0);
    static FAULTS_INJECTED: AtomicU64 = AtomicU64::new(0);
    static FAULT_POINTS: AtomicU64 = AtomicU64::new(0);

    /// Registry of labels observed firing at least once this process.
    static LABELS: Mutex<BTreeSet<&'static str>> = Mutex::new(BTreeSet::new());

    // --- decision trace (CQS_CHAOS_TRACE) --------------------------------

    static TRACE_ON: AtomicBool = AtomicBool::new(false);
    static TRACE_DECISIONS: AtomicU64 = AtomicU64::new(0);
    static TRACE: Mutex<Option<TraceState>> = Mutex::new(None);
    static PANIC_HOOK: Once = Once::new();
    /// Keep the last this-many decisions; a bound so week-long storms
    /// cannot exhaust memory while still capturing far more history than
    /// any single failing window needs.
    const TRACE_CAP: usize = 1 << 16;

    struct TraceState {
        path: PathBuf,
        ring: VecDeque<TraceEntry>,
    }

    struct TraceEntry {
        thread: u64,
        label: &'static str,
        action: &'static str,
        param: u64,
    }

    // --- operation-history recording (record!) ---------------------------

    static RECORDING: AtomicBool = AtomicBool::new(false);
    static EVENT_SEQ: AtomicU64 = AtomicU64::new(0);
    static HISTORY: Mutex<Vec<OpEvent>> = Mutex::new(Vec::new());
    /// Stable per-thread ordinal for trace and history entries
    /// (independent of the rng stream ordinal, which resets on reseed).
    static STAMP_ORDINAL: AtomicU64 = AtomicU64::new(0);

    struct Local {
        generation: u64,
        rng: SmallRng,
    }

    thread_local! {
        static LOCAL: RefCell<Option<Local>> = const { RefCell::new(None) };
        static FAULT_LOCAL: RefCell<Option<Local>> = const { RefCell::new(None) };
        static SEEN_LABELS: RefCell<HashSet<&'static str>> =
            RefCell::new(HashSet::new());
        static STAMP: Cell<u64> = const { Cell::new(u64::MAX) };
    }

    /// Enables injection with a fixed global seed. Threads derive their own
    /// deterministic streams from it; threads spawned after this call (and
    /// live threads, at their next injection point) use the new schedule.
    pub fn set_seed(seed: u64) {
        SEED.store(seed, Ordering::SeqCst);
        THREAD_ORDINAL.store(0, Ordering::SeqCst);
        GENERATION.fetch_add(1, Ordering::SeqCst);
        ENABLED.store(true, Ordering::SeqCst);
    }

    /// Turns injection off; every `inject!` becomes a cheap load-and-return
    /// (unless an external scheduler is installed, which stays in control).
    pub fn disable() {
        ENABLED.store(false, Ordering::SeqCst);
    }

    /// Whether seeded random injection is currently live.
    pub fn is_enabled() -> bool {
        init_from_env();
        ENABLED.load(Ordering::SeqCst)
    }

    /// Number of injection decisions taken since process start (diagnostic;
    /// used by tests to confirm the hooks actually fired).
    pub fn fired_count() -> u64 {
        FIRED.load(Ordering::Relaxed)
    }

    /// Arms crash-fault injection: at most `budget` seeded panics will be
    /// injected across the [`fault!`][crate::fault] windows, on a
    /// deterministic per-thread stream derived from `seed`. Replays like
    /// [`set_seed`]: the same seed, budget and thread arrival order inject
    /// the same faults. Also reachable via `CQS_CHAOS_FAULTS=<seed>:<budget>`.
    pub fn set_faults(seed: u64, budget: u64) {
        FAULT_SEED.store(seed, Ordering::SeqCst);
        FAULT_ORDINAL.store(0, Ordering::SeqCst);
        FAULT_GENERATION.fetch_add(1, Ordering::SeqCst);
        FAULT_BUDGET.store(budget, Ordering::SeqCst);
        FAULTS_ON.store(true, Ordering::SeqCst);
    }

    /// Disarms crash-fault injection and zeroes the remaining budget; every
    /// `fault!` window becomes a cheap load-and-return again (unless an
    /// external scheduler forces placement through
    /// [`Scheduler::at_fault`][super::Scheduler::at_fault]).
    pub fn clear_faults() {
        FAULTS_ON.store(false, Ordering::SeqCst);
        FAULT_BUDGET.store(0, Ordering::SeqCst);
    }

    /// Remaining injections in the armed fault budget (`0` when disarmed
    /// or exhausted).
    pub fn faults_remaining() -> u64 {
        FAULT_BUDGET.load(Ordering::SeqCst)
    }

    /// Total crash faults injected since process start (diagnostic; storms
    /// use the delta to tell whether a caught panic was an injection).
    pub fn faults_injected() -> u64 {
        FAULTS_INJECTED.load(Ordering::Relaxed)
    }

    /// Number of fault-eligible windows reached while faults were armed or
    /// an external scheduler was installed (diagnostic; confirms the
    /// `fault!` seams are actually on the executed paths).
    pub fn fault_point_count() -> u64 {
        FAULT_POINTS.load(Ordering::Relaxed)
    }

    /// Installs an external scheduler: until [`clear_scheduler`], every
    /// labelled window on every thread calls `scheduler.at_point(label)`
    /// instead of the built-in random perturbation.
    pub fn set_scheduler(scheduler: Arc<dyn Scheduler>) {
        let mut slot = CUSTOM.write().unwrap();
        *slot = Some(scheduler);
        HAS_CUSTOM.store(true, Ordering::SeqCst);
    }

    /// Removes the external scheduler; injection falls back to the seeded
    /// [`RandomScheduler`][super::RandomScheduler] (if enabled).
    pub fn clear_scheduler() {
        let mut slot = CUSTOM.write().unwrap();
        HAS_CUSTOM.store(false, Ordering::SeqCst);
        *slot = None;
    }

    /// Labels observed firing at least once this process, sorted.
    pub fn labels() -> Vec<&'static str> {
        LABELS.lock().unwrap().iter().copied().collect()
    }

    /// Stable ordinal of the calling thread, assigned on first use; stamps
    /// trace and history entries.
    pub fn thread_ordinal() -> u64 {
        STAMP.with(|slot| {
            let mut id = slot.get();
            if id == u64::MAX {
                id = STAMP_ORDINAL.fetch_add(1, Ordering::Relaxed);
                slot.set(id);
            }
            id
        })
    }

    fn init_from_env() {
        ENV_INIT.call_once(|| {
            if let Ok(text) = std::env::var("CQS_CHAOS_SEED") {
                let text = text.trim();
                let parsed = if let Some(hex) = text.strip_prefix("0x") {
                    u64::from_str_radix(hex, 16).ok()
                } else {
                    text.parse().ok()
                };
                match parsed {
                    Some(seed) => set_seed(seed),
                    None => eprintln!("cqs-chaos: ignoring unparsable CQS_CHAOS_SEED=`{text}`"),
                }
            }
            if let Ok(text) = std::env::var("CQS_CHAOS_FAULTS") {
                let text = text.trim();
                match parse_fault_spec(text) {
                    Some((seed, budget)) => set_faults(seed, budget),
                    None => eprintln!(
                        "cqs-chaos: ignoring unparsable CQS_CHAOS_FAULTS=`{text}` \
                         (expected <seed>:<budget>, seed decimal or 0x-hex)"
                    ),
                }
            }
            if let Ok(path) = std::env::var("CQS_CHAOS_TRACE") {
                if !path.trim().is_empty() {
                    set_trace_path(Some(PathBuf::from(path)));
                }
            }
        });
    }

    /// Parses a `CQS_CHAOS_FAULTS` value: `<seed>:<budget>`, seed decimal
    /// or `0x`-prefixed hex (same convention as `CQS_CHAOS_SEED`), budget
    /// decimal.
    pub(crate) fn parse_fault_spec(text: &str) -> Option<(u64, u64)> {
        let (seed, budget) = text.split_once(':')?;
        let seed = seed.trim();
        let seed = if let Some(hex) = seed.strip_prefix("0x") {
            u64::from_str_radix(hex, 16).ok()?
        } else {
            seed.parse().ok()?
        };
        let budget: u64 = budget.trim().parse().ok()?;
        Some((seed, budget))
    }

    /// The injection point behind `inject!`: reports the labelled window to
    /// the active scheduler (external if installed, else the seeded random
    /// perturbation).
    #[inline]
    pub fn fire(label: &'static str) {
        init_from_env();
        let custom = HAS_CUSTOM.load(Ordering::Relaxed);
        if !custom && !ENABLED.load(Ordering::Relaxed) {
            return;
        }
        FIRED.fetch_add(1, Ordering::Relaxed);
        register_label(label);
        if custom {
            // Clone out so the window is not held across `at_point` (an
            // explorer may block the thread here arbitrarily long).
            let scheduler = CUSTOM.read().unwrap().clone();
            if let Some(scheduler) = scheduler {
                trace_decision(label, "sched", 0);
                scheduler.at_point(label);
                return;
            }
        }
        random_perturb(label);
    }

    /// The injection point behind `fault!`: may panic on purpose.
    ///
    /// An external scheduler (if installed) decides placement through
    /// [`Scheduler::at_fault`]; otherwise, with faults armed
    /// ([`set_faults`] / `CQS_CHAOS_FAULTS`), the window rolls on a seeded
    /// per-thread stream and panics while the budget lasts. The injected
    /// panic's message always contains `"injected crash fault"`, so
    /// harnesses can tell injections from organic panics.
    #[inline]
    pub fn fault_fire(label: &'static str) {
        init_from_env();
        let custom = HAS_CUSTOM.load(Ordering::Relaxed);
        if !custom && !FAULTS_ON.load(Ordering::Relaxed) {
            return;
        }
        FAULT_POINTS.fetch_add(1, Ordering::Relaxed);
        register_label(label);
        let inject = if custom {
            // Clone out so the lock is not held across `at_fault` (nor
            // across the panic below).
            match CUSTOM.read().unwrap().clone() {
                Some(scheduler) => scheduler.at_fault(label),
                None => random_fault(label),
            }
        } else {
            random_fault(label)
        };
        if inject {
            FAULTS_INJECTED.fetch_add(1, Ordering::Relaxed);
            trace_decision(label, "fault", FAULT_BUDGET.load(Ordering::Relaxed));
            panic!("cqs-chaos: injected crash fault at `{label}`");
        }
    }

    /// The seeded budgeted fault decision: `true` while the armed budget
    /// lasts and the thread-local stream rolls an injection at this window.
    pub(super) fn random_fault(label: &'static str) -> bool {
        if !FAULTS_ON.load(Ordering::Relaxed) {
            return false;
        }
        let generation = FAULT_GENERATION.load(Ordering::Relaxed);
        let mut roll = false;
        // try_with: a TLS-destructor-time call (thread teardown) is ignored.
        let _ = FAULT_LOCAL.try_with(|slot| {
            let mut slot = slot.borrow_mut();
            let local = match slot.as_mut() {
                Some(local) if local.generation == generation => local,
                _ => {
                    let ordinal = FAULT_ORDINAL.fetch_add(1, Ordering::Relaxed);
                    let seed = FAULT_SEED.load(Ordering::Relaxed)
                        ^ ordinal.wrapping_mul(0x9E37_79B9_7F4A_7C15);
                    *slot = Some(Local {
                        generation,
                        rng: SmallRng::seed_from_u64(seed),
                    });
                    slot.as_mut().unwrap()
                }
            };
            // Mix the label in (as `perturb` does) so one thread stream
            // spreads its injections across different windows; 1-in-8
            // keeps storms crashing often without starving progress.
            roll = (local.rng.next_u64() ^ fxhash(label)).is_multiple_of(8);
        });
        roll && take_fault_budget()
    }

    /// Claims one injection from the budget; `false` once exhausted.
    fn take_fault_budget() -> bool {
        let mut remaining = FAULT_BUDGET.load(Ordering::Relaxed);
        loop {
            if remaining == 0 {
                return false;
            }
            match FAULT_BUDGET.compare_exchange_weak(
                remaining,
                remaining - 1,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return true,
                Err(current) => remaining = current,
            }
        }
    }

    /// Registers `label` in the global registry, with a thread-local cache
    /// so the common path takes no lock.
    fn register_label(label: &'static str) {
        let _ = SEEN_LABELS.try_with(|seen| {
            let mut seen = seen.borrow_mut();
            if seen.insert(label) {
                LABELS.lock().unwrap().insert(label);
            }
        });
    }

    /// The built-in perturbation: thread-local seeded rng stream.
    pub(super) fn random_perturb(label: &'static str) {
        let generation = GENERATION.load(Ordering::Relaxed);
        // try_with: a TLS-destructor-time call (thread teardown) is ignored.
        let _ = LOCAL.try_with(|slot| {
            let mut slot = slot.borrow_mut();
            let local = match slot.as_mut() {
                Some(local) if local.generation == generation => local,
                _ => {
                    let ordinal = THREAD_ORDINAL.fetch_add(1, Ordering::Relaxed);
                    let seed =
                        SEED.load(Ordering::Relaxed) ^ ordinal.wrapping_mul(0x9E37_79B9_7F4A_7C15);
                    *slot = Some(Local {
                        generation,
                        rng: SmallRng::seed_from_u64(seed),
                    });
                    slot.as_mut().unwrap()
                }
            };
            perturb(&mut local.rng, label);
        });
    }

    fn perturb(rng: &mut SmallRng, label: &'static str) {
        // Mix the label in so the same thread stream makes different
        // choices at different windows, keeping schedules diverse.
        let roll = (rng.next_u64() ^ fxhash(label)) % 100;
        match roll {
            // Mostly do nothing: perturbations must stay rare enough that
            // storms still make real progress.
            0..=79 => trace_decision(label, "pass", 0),
            // Stretch the window by a few hundred cycles.
            80..=91 => {
                let spins = 50 + (rng.next_u64() % 500);
                trace_decision(label, "spin", spins);
                for _ in 0..spins {
                    std::hint::spin_loop();
                }
            }
            // Hand the core to a conflicting thread right inside the window.
            92..=98 => {
                trace_decision(label, "yield", 0);
                std::thread::yield_now();
            }
            // Rarely, sleep long enough for whole operations to overtake us.
            _ => {
                let micros = rng.gen_range(10u64..100);
                trace_decision(label, "sleep", micros);
                std::thread::sleep(Duration::from_micros(micros));
            }
        }
    }

    fn fxhash(label: &str) -> u64 {
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for byte in label.bytes() {
            hash = (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
        hash
    }

    // --- decision trace ---------------------------------------------------

    /// Enables (`Some(path)`) or disables (`None`) decision-trace
    /// recording. While enabled, every schedule decision is appended to a
    /// bounded in-memory ring; the ring is written to `path` by
    /// [`dump_trace`] and automatically on panic, so a failing storm can be
    /// replayed from its exact decision history. Also reachable via the
    /// `CQS_CHAOS_TRACE=<path>` environment variable.
    pub fn set_trace_path(path: Option<PathBuf>) {
        match path {
            Some(path) => {
                *TRACE.lock().unwrap() = Some(TraceState {
                    path,
                    ring: VecDeque::new(),
                });
                TRACE_ON.store(true, Ordering::SeqCst);
                PANIC_HOOK.call_once(|| {
                    let previous = std::panic::take_hook();
                    std::panic::set_hook(Box::new(move |info| {
                        if let Some(path) = dump_trace() {
                            eprintln!("cqs-chaos: decision trace written to {}", path.display());
                        }
                        previous(info);
                    }));
                });
            }
            None => {
                TRACE_ON.store(false, Ordering::SeqCst);
                *TRACE.lock().unwrap() = None;
            }
        }
    }

    /// Number of schedule decisions recorded since tracing was enabled.
    pub fn trace_decision_count() -> u64 {
        TRACE_DECISIONS.load(Ordering::Relaxed)
    }

    /// Writes the recorded decision ring to the configured trace path and
    /// returns it, or `None` when tracing is off or the write failed.
    pub fn dump_trace() -> Option<PathBuf> {
        let state = TRACE.lock().ok()?;
        let state = state.as_ref()?;
        let mut out = Vec::with_capacity(state.ring.len() * 48);
        let _ = writeln!(
            out,
            "# cqs-chaos decision trace ({} decisions, last {} kept)",
            TRACE_DECISIONS.load(Ordering::Relaxed),
            state.ring.len(),
        );
        let _ = writeln!(out, "# format: <thread> <label> <action>[(param)]");
        for e in &state.ring {
            match e.action {
                "spin" | "sleep" => {
                    let _ = writeln!(out, "t{} {} {}({})", e.thread, e.label, e.action, e.param);
                }
                _ => {
                    let _ = writeln!(out, "t{} {} {}", e.thread, e.label, e.action);
                }
            }
        }
        std::fs::write(&state.path, &out).ok()?;
        Some(state.path.clone())
    }

    fn trace_decision(label: &'static str, action: &'static str, param: u64) {
        if !TRACE_ON.load(Ordering::Relaxed) {
            return;
        }
        TRACE_DECISIONS.fetch_add(1, Ordering::Relaxed);
        let thread = thread_ordinal();
        if let Ok(mut state) = TRACE.lock() {
            if let Some(state) = state.as_mut() {
                if state.ring.len() == TRACE_CAP {
                    state.ring.pop_front();
                }
                state.ring.push_back(TraceEntry {
                    thread,
                    label,
                    action,
                    param,
                });
            }
        }
    }

    // --- operation-history recording --------------------------------------

    /// Starts a fresh operation-history recording: clears any previous
    /// history and stamps subsequent [`record`] calls.
    pub fn start_recording() {
        let mut history = HISTORY.lock().unwrap();
        history.clear();
        EVENT_SEQ.store(0, Ordering::SeqCst);
        RECORDING.store(true, Ordering::SeqCst);
    }

    /// Stops recording and returns the accumulated history, ordered by
    /// global sequence number.
    pub fn take_history() -> Vec<OpEvent> {
        RECORDING.store(false, Ordering::SeqCst);
        let mut history = HISTORY.lock().unwrap();
        let mut events = std::mem::take(&mut *history);
        events.sort_by_key(|e| e.seq);
        events
    }

    /// Appends one event to the active recording (no-op when recording is
    /// off). The sequence stamp is taken *inside* the history lock so the
    /// stamp order and the real-time order of the lock acquisitions agree.
    pub fn record(instance: u64, op: &'static str, phase: OpPhase, value: u64) {
        if !RECORDING.load(Ordering::Relaxed) {
            return;
        }
        let thread = thread_ordinal();
        let mut history = HISTORY.lock().unwrap();
        let seq = EVENT_SEQ.fetch_add(1, Ordering::Relaxed);
        history.push(OpEvent {
            seq,
            thread,
            instance,
            op,
            phase,
            value,
        });
    }
}

#[cfg(feature = "chaos")]
pub use runtime::{
    clear_faults, clear_scheduler, disable, dump_trace, fault_fire, fault_point_count,
    faults_injected, faults_remaining, fire, fired_count, is_enabled, labels, record, set_faults,
    set_scheduler, set_seed, set_trace_path, start_recording, take_history, thread_ordinal,
    trace_decision_count,
};

/// The built-in seeded perturbation scheduler: at each labelled window the
/// calling thread rolls on its thread-local seeded rng stream and may spin,
/// yield or sleep. This is what `inject!` uses when no external scheduler
/// is installed; it is exported so an explorer can explicitly restore
/// random mode via [`set_scheduler`].
pub struct RandomScheduler;

#[cfg(feature = "chaos")]
impl Scheduler for RandomScheduler {
    fn at_point(&self, label: &'static str) {
        runtime::random_perturb(label);
    }

    fn at_fault(&self, label: &'static str) -> bool {
        // Defer to the armed seeded budget, exactly as if no external
        // scheduler were installed: explicitly restoring random mode via
        // `set_scheduler(Arc::new(RandomScheduler))` keeps fault behaviour
        // identical to the default path.
        runtime::random_fault(label)
    }
}

#[cfg(not(feature = "chaos"))]
impl Scheduler for RandomScheduler {
    fn at_point(&self, _label: &'static str) {}
}

// Inert stand-ins so callers can manage chaos unconditionally; with the
// feature off these compile to nothing and injection never happens.
#[cfg(not(feature = "chaos"))]
mod inert {
    use super::{OpEvent, OpPhase, Scheduler};
    use std::path::PathBuf;
    use std::sync::Arc;

    /// No-op: the `chaos` feature is disabled.
    pub fn set_seed(_seed: u64) {}
    /// No-op: the `chaos` feature is disabled.
    pub fn disable() {}
    /// Always `false`: the `chaos` feature is disabled.
    pub fn is_enabled() -> bool {
        false
    }
    /// Always `0`: the `chaos` feature is disabled.
    pub fn fired_count() -> u64 {
        0
    }
    /// No-op: without the feature no fault window exists to arm.
    pub fn set_faults(_seed: u64, _budget: u64) {}
    /// No-op: the `chaos` feature is disabled.
    pub fn clear_faults() {}
    /// Always `0`: the `chaos` feature is disabled.
    pub fn faults_remaining() -> u64 {
        0
    }
    /// Always `0`: the `chaos` feature is disabled.
    pub fn faults_injected() -> u64 {
        0
    }
    /// Always `0`: the `chaos` feature is disabled.
    pub fn fault_point_count() -> u64 {
        0
    }
    /// No-op: without the feature no labelled window ever fires, so the
    /// scheduler would never be consulted.
    pub fn set_scheduler(_scheduler: Arc<dyn Scheduler>) {}
    /// No-op: the `chaos` feature is disabled.
    pub fn clear_scheduler() {}
    /// Always empty: no label ever fires.
    pub fn labels() -> Vec<&'static str> {
        Vec::new()
    }
    /// Always `0`: the `chaos` feature is disabled.
    pub fn thread_ordinal() -> u64 {
        0
    }
    /// No-op: the `chaos` feature is disabled.
    pub fn set_trace_path(_path: Option<PathBuf>) {}
    /// Always `0`: the `chaos` feature is disabled.
    pub fn trace_decision_count() -> u64 {
        0
    }
    /// Always `None`: the `chaos` feature is disabled.
    pub fn dump_trace() -> Option<PathBuf> {
        None
    }
    /// No-op: the `chaos` feature is disabled.
    pub fn start_recording() {}
    /// Always empty: the `chaos` feature is disabled.
    pub fn take_history() -> Vec<OpEvent> {
        Vec::new()
    }
    /// No-op: the `chaos` feature is disabled.
    pub fn record(_instance: u64, _op: &'static str, _phase: OpPhase, _value: u64) {}
}

#[cfg(not(feature = "chaos"))]
pub use inert::{
    clear_faults, clear_scheduler, disable, dump_trace, fault_point_count, faults_injected,
    faults_remaining, fired_count, is_enabled, labels, record, set_faults, set_scheduler, set_seed,
    set_trace_path, start_recording, take_history, thread_ordinal, trace_decision_count,
};

/// Convenience: installs `scheduler` for the duration of the returned
/// guard, restoring the default random scheduler on drop. Keeps explorer
/// code panic-safe: a failing run still uninstalls its scheduler.
pub fn scoped_scheduler(scheduler: Arc<dyn Scheduler>) -> SchedulerGuard {
    set_scheduler(scheduler);
    SchedulerGuard { _private: () }
}

/// Guard returned by [`scoped_scheduler`]; clears the external scheduler
/// when dropped.
pub struct SchedulerGuard {
    _private: (),
}

impl Drop for SchedulerGuard {
    fn drop(&mut self) {
        clear_scheduler();
    }
}

#[cfg(all(test, feature = "chaos"))]
mod tests {
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::{Arc, Mutex, MutexGuard};

    /// Chaos state is process-global; these tests must not interleave.
    fn serial() -> MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn fire_is_safe_and_counts() {
        let _serial = serial();
        super::set_seed(42);
        let before = super::fired_count();
        for _ in 0..100 {
            crate::inject!("test.window");
        }
        assert!(super::fired_count() >= before + 100);
        super::disable();
        assert!(!super::is_enabled());
        super::set_seed(42);
        assert!(super::is_enabled());
        super::disable();
    }

    #[test]
    fn custom_scheduler_takes_over_and_clears() {
        struct Counting(AtomicU64);
        impl super::Scheduler for Counting {
            fn at_point(&self, label: &'static str) {
                assert_eq!(label, "test.custom-window");
                self.0.fetch_add(1, Ordering::Relaxed);
            }
        }
        let _serial = serial();
        let sched = Arc::new(Counting(AtomicU64::new(0)));
        {
            let _guard = super::scoped_scheduler(sched.clone());
            // Fires even with random chaos disabled: the external
            // scheduler is in full control.
            super::disable();
            crate::inject!("test.custom-window");
            crate::inject!("test.custom-window");
            assert_eq!(sched.0.load(Ordering::Relaxed), 2);
        }
        // Guard dropped: the external scheduler no longer sees points.
        crate::inject!("test.custom-window");
        assert_eq!(sched.0.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn labels_are_registered_and_known_table_is_sorted_unique() {
        let _serial = serial();
        super::set_seed(7);
        crate::inject!("cell.publish.pre-cas");
        super::disable();
        assert!(super::labels().contains(&"cell.publish.pre-cas"));
        let known = super::KNOWN_LABELS;
        for pair in known.windows(2) {
            assert!(pair[0] < pair[1], "KNOWN_LABELS unsorted at {pair:?}");
        }
    }

    #[test]
    fn recording_captures_invoke_response_pairs() {
        let _serial = serial();
        super::start_recording();
        crate::record!(7, "test.op", Invoke, 0);
        crate::record!(7, "test.op", Response, 42);
        let history = super::take_history();
        assert_eq!(history.len(), 2);
        assert!(history[0].seq < history[1].seq);
        assert_eq!(history[0].phase, super::OpPhase::Invoke);
        assert_eq!(history[1].value, 42);
        // Recording stopped: further events are dropped.
        crate::record!(7, "test.op", Invoke, 0);
        assert!(super::take_history().is_empty());
    }

    /// Runs `body` with a silent panic hook (injected faults would
    /// otherwise spray backtraces over the test output), restoring the
    /// previous hook afterwards.
    fn with_quiet_panics<R>(body: impl FnOnce() -> R) -> R {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let result = body();
        std::panic::set_hook(previous);
        result
    }

    #[test]
    fn faults_are_off_by_default_and_respect_budget() {
        let _serial = serial();
        super::clear_faults();
        // Disarmed: the window is inert however often it is crossed.
        for _ in 0..1000 {
            crate::fault!("test.fault-window");
        }
        assert_eq!(super::faults_remaining(), 0);

        let injected_before = super::faults_injected();
        super::set_faults(0xFA17, 2);
        let caught = with_quiet_panics(|| {
            let mut caught = 0;
            for _ in 0..10_000 {
                if std::panic::catch_unwind(|| crate::fault!("test.fault-window")).is_err() {
                    caught += 1;
                }
            }
            caught
        });
        assert_eq!(caught, 2, "exactly the armed budget must inject");
        assert_eq!(super::faults_remaining(), 0);
        assert_eq!(super::faults_injected(), injected_before + 2);
        super::clear_faults();
        crate::fault!("test.fault-window");
    }

    #[test]
    fn scheduler_at_fault_forces_exact_placement() {
        struct NthFault(AtomicU64);
        impl super::Scheduler for NthFault {
            fn at_point(&self, _label: &'static str) {}
            fn at_fault(&self, label: &'static str) -> bool {
                assert_eq!(label, "test.forced-fault");
                self.0.fetch_add(1, Ordering::Relaxed) == 2
            }
        }
        let _serial = serial();
        super::clear_faults();
        let sched = Arc::new(NthFault(AtomicU64::new(0)));
        let _guard = super::scoped_scheduler(sched);
        let outcomes: Vec<bool> = with_quiet_panics(|| {
            (0..5)
                .map(|_| std::panic::catch_unwind(|| crate::fault!("test.forced-fault")).is_err())
                .collect()
        });
        // Only the third crossing panics: external schedulers pick exact
        // placements, no seed or budget involved.
        assert_eq!(outcomes, vec![false, false, true, false, false]);
    }

    #[test]
    fn fault_labels_are_known_and_sorted() {
        for pair in super::FAULT_LABELS.windows(2) {
            assert!(pair[0] < pair[1], "FAULT_LABELS unsorted at {pair:?}");
        }
        for label in super::FAULT_LABELS {
            assert!(
                super::KNOWN_LABELS.binary_search(label).is_ok(),
                "fault label {label} missing from KNOWN_LABELS"
            );
        }
    }

    #[test]
    fn fault_spec_parses_decimal_hex_and_rejects_garbage() {
        use crate::runtime::parse_fault_spec;
        assert_eq!(parse_fault_spec("7:3"), Some((7, 3)));
        assert_eq!(parse_fault_spec("0x476A0000:2"), Some((0x476A_0000, 2)));
        assert_eq!(parse_fault_spec(" 12 : 1 "), Some((12, 1)));
        assert_eq!(parse_fault_spec("12"), None);
        assert_eq!(parse_fault_spec("x:1"), None);
        assert_eq!(parse_fault_spec("1:y"), None);
        assert_eq!(parse_fault_spec(""), None);
    }

    #[test]
    fn trace_records_and_dumps_decisions() {
        let _serial = serial();
        let path = std::env::temp_dir().join("cqs-chaos-trace-test.txt");
        super::set_trace_path(Some(path.clone()));
        super::set_seed(3);
        let before = super::trace_decision_count();
        for _ in 0..50 {
            crate::inject!("test.trace-window");
        }
        super::disable();
        assert!(super::trace_decision_count() >= before + 50);
        let written = super::dump_trace().expect("trace dump must succeed");
        let text = std::fs::read_to_string(&written).unwrap();
        assert!(text.contains("test.trace-window"));
        super::set_trace_path(None);
        let _ = std::fs::remove_file(&path);
    }
}

#[cfg(all(test, not(feature = "chaos")))]
mod tests {
    #[test]
    fn disabled_macro_expands_to_nothing() {
        // Compiles because the expansion is empty — the label is not even
        // evaluated, and the inert API reports chaos off.
        crate::inject!("never.evaluated");
        crate::record!(0, "never.evaluated", Invoke, 0);
        crate::fault!("never.evaluated");
        assert!(!crate::is_enabled());
        assert_eq!(crate::fired_count(), 0);
        assert!(crate::labels().is_empty());
        assert!(crate::take_history().is_empty());
        // Arming faults without the feature is inert too: no window exists,
        // so nothing can ever panic and the counters stay zero.
        crate::set_faults(0xFA17, 100);
        crate::fault!("never.evaluated");
        assert_eq!(crate::faults_remaining(), 0);
        assert_eq!(crate::faults_injected(), 0);
        assert_eq!(crate::fault_point_count(), 0);
        crate::clear_faults();
    }
}
