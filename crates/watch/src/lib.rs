#![warn(missing_docs)]

//! # `cqs-watch` — runtime health for the CQS stack
//!
//! The paper's headline property is *abortable* synchronization: CQS
//! cancellation removes a waiter from the queue at any time without
//! breaking fairness. This crate turns that abortability into a *recovery*
//! primitive. When the `watch` feature is enabled:
//!
//! * every CQS suspension registers a **waiter record** (primitive id +
//!   static label, owning thread, enqueue timestamp, generation) in a
//!   lock-free registry ([`register_waiter!`]);
//! * primitives publish **holder records** (who holds which mutex or write
//!   lock — [`acquired!`] / [`released!`]) and **gauges** (permit counts,
//!   pool sizes — [`gauge!`]);
//! * a `Scanner` (or its background-thread wrapper, [`Watchdog`]) flags
//!   waiters stalled past a threshold, runs cycle detection over the
//!   wait-for graph to report deadlocks with the full cycle, and — under
//!   the opt-in `WatchPolicy::Evict` — recovers by cancelling stuck
//!   waiters through the ordinary CQS cancellation path, so the victims
//!   observe a regular `Cancelled` error rather than a wedged process.
//!
//! Without the feature the registration macros expand to **nothing** (the
//! same literal-no-op pattern as `cqs_chaos::inject!` and
//! `cqs_stats::bump!`): zero code, zero branches, arguments never
//! evaluated.
//!
//! Reports serialize to single-line JSON (`"schema": "cqs-watch/v1"`)
//! through the hand-rolled `cqs_harness::report::JsonWriter`, so a wedged
//! run can be diagnosed by machines; see `WatchReport::to_json`.

/// Type-erased view of a suspended waiter, implemented by
/// `cqs_future::Request<T>`. The registry stores these so the watchdog can
/// observe liveness and — under `WatchPolicy::Evict` — abort a stuck
/// waiter through the normal CQS cancellation path.
pub trait WaiterHandle: Send + Sync {
    /// Whether the request reached a terminal state (completed, cancelled,
    /// or consumed). Terminated records are pruned lazily.
    fn is_terminated(&self) -> bool;

    /// Atomically aborts the request if it is still pending, running its
    /// CQS cancellation handler. Returns `true` if this call cancelled it.
    fn cancel(&self) -> bool;
}

/// Registers a waiter record for the suspension `$handle` on primitive
/// `$primitive` (a [`next_primitive_id`] id) labelled `$label`.
///
/// Expands to nothing unless the `watch` feature is enabled.
#[cfg(feature = "watch")]
#[macro_export]
macro_rules! register_waiter {
    ($primitive:expr, $label:expr, $handle:expr) => {
        $crate::runtime_register_waiter($primitive, $label, {
            // Unsize `Arc<ConcreteWaiter>` to the trait object here so call
            // sites can pass `Arc::clone(&request)` directly. Two bindings:
            // the first fixes the concrete type (keeping it out of the
            // caller's inference), the second is the coercion site.
            let handle = $handle;
            let handle: ::std::sync::Arc<dyn $crate::WaiterHandle> = handle;
            handle
        })
    };
}

/// Registers a waiter record for a suspension.
///
/// The `watch` feature is disabled, so this expands to nothing: the
/// arguments are never evaluated and no code is emitted at the call site.
#[cfg(not(feature = "watch"))]
#[macro_export]
macro_rules! register_waiter {
    ($primitive:expr, $label:expr, $handle:expr) => {};
}

/// Publishes the calling thread as a holder of primitive `$primitive`
/// (`$exclusive` = `true` for mutexes and write locks, which makes the
/// record an edge of the wait-for graph used by deadlock detection).
///
/// Expands to nothing unless the `watch` feature is enabled.
#[cfg(feature = "watch")]
#[macro_export]
macro_rules! acquired {
    ($primitive:expr, $label:expr, $exclusive:expr) => {
        $crate::runtime_acquired($primitive, $label, $exclusive)
    };
}

/// Publishes the calling thread as a holder of a primitive.
///
/// The `watch` feature is disabled, so this expands to nothing.
#[cfg(not(feature = "watch"))]
#[macro_export]
macro_rules! acquired {
    ($primitive:expr, $label:expr, $exclusive:expr) => {};
}

/// Withdraws a holder record previously published with [`acquired!`].
///
/// Expands to nothing unless the `watch` feature is enabled.
#[cfg(feature = "watch")]
#[macro_export]
macro_rules! released {
    ($primitive:expr) => {
        $crate::runtime_released($primitive)
    };
}

/// Withdraws a holder record.
///
/// The `watch` feature is disabled, so this expands to nothing.
#[cfg(not(feature = "watch"))]
#[macro_export]
macro_rules! released {
    ($primitive:expr) => {};
}

/// Publishes the latest value of a named per-primitive gauge (permit
/// counts, pool sizes, live coroutine counts); gauges are embedded in every
/// stall/deadlock report.
///
/// Expands to nothing unless the `watch` feature is enabled.
#[cfg(feature = "watch")]
#[macro_export]
macro_rules! gauge {
    ($primitive:expr, $name:expr, $value:expr) => {
        $crate::runtime_gauge($primitive, $name, $value)
    };
}

/// Publishes the latest value of a named per-primitive gauge.
///
/// The `watch` feature is disabled, so this expands to nothing.
#[cfg(not(feature = "watch"))]
#[macro_export]
macro_rules! gauge {
    ($primitive:expr, $name:expr, $value:expr) => {};
}

#[cfg(feature = "watch")]
mod runtime {
    use super::WaiterHandle;
    use cqs_harness::report::JsonWriter;
    use cqs_reclaim::{pin, AtomicArc};
    use std::collections::{HashMap, HashSet};
    use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
    use std::sync::{Arc, Condvar, Mutex, OnceLock, Weak};
    use std::thread::ThreadId;
    use std::time::{Duration, Instant};

    /// Whether the watch runtime is compiled in.
    pub const fn enabled() -> bool {
        true
    }

    // -----------------------------------------------------------------------
    // Waiter registry (lock-free slab)
    // -----------------------------------------------------------------------

    /// Slab capacity. Registration scans for a free or terminated slot from
    /// a rotating cursor; a full slab drops the record (counted, never
    /// blocking the hot path).
    const SLOTS: usize = 1024;

    struct WaiterRecord {
        generation: u64,
        primitive: u64,
        label: &'static str,
        thread: ThreadId,
        thread_name: String,
        since: Instant,
        /// Weak: the registry observes a waiter, it must not keep a
        /// finished request — and through its inline handler its segment —
        /// alive until a later registration happens to claim the slot.
        handle: Weak<dyn WaiterHandle>,
    }

    impl WaiterRecord {
        /// The waiter if it is still pending; a dropped request counts as
        /// terminated.
        fn live_handle(&self) -> Option<Arc<dyn WaiterHandle>> {
            self.handle.upgrade().filter(|h| !h.is_terminated())
        }
    }

    struct Registry {
        slots: Vec<AtomicArc<WaiterRecord>>,
        cursor: AtomicUsize,
        dropped: AtomicU64,
    }

    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    static NEXT_GENERATION: AtomicU64 = AtomicU64::new(0);
    static NEXT_PRIMITIVE: AtomicU64 = AtomicU64::new(0);

    fn registry() -> &'static Registry {
        REGISTRY.get_or_init(|| Registry {
            slots: (0..SLOTS).map(|_| AtomicArc::null()).collect(),
            cursor: AtomicUsize::new(0),
            dropped: AtomicU64::new(0),
        })
    }

    fn directory() -> &'static Mutex<HashMap<u64, &'static str>> {
        static DIRECTORY: OnceLock<Mutex<HashMap<u64, &'static str>>> = OnceLock::new();
        DIRECTORY.get_or_init(|| Mutex::new(HashMap::new()))
    }

    /// Allocates a process-unique id for a primitive instance and records
    /// its label; ids start at 1 (0 means "watch disabled"). Called once
    /// per primitive construction — a cold path.
    pub fn next_primitive_id(label: &'static str) -> u64 {
        let id = NEXT_PRIMITIVE.fetch_add(1, Ordering::Relaxed) + 1;
        directory().lock().unwrap().insert(id, label);
        id
    }

    fn thread_label(t: &std::thread::Thread) -> String {
        match t.name() {
            Some(n) => format!("{n} ({:?})", t.id()),
            None => format!("{:?}", t.id()),
        }
    }

    /// Registers a waiter record; the macro-facing entry point behind
    /// [`crate::register_waiter!`].
    ///
    /// Lock-free: claims an empty or terminated slot with a CAS. There is
    /// no explicit deregistration — records whose handle terminated (or
    /// was dropped; the registry holds it weakly) are reclaimed by later
    /// registrations and skipped by scans.
    // Public only because the macros expand to `$crate::` calls in other crates.
    #[doc(hidden)]
    pub fn runtime_register_waiter(
        primitive: u64,
        label: &'static str,
        handle: Arc<dyn WaiterHandle>,
    ) {
        let reg = registry();
        let generation = NEXT_GENERATION.fetch_add(1, Ordering::SeqCst) + 1;
        let current = std::thread::current();
        let record = Arc::new(WaiterRecord {
            generation,
            primitive,
            label,
            thread: current.id(),
            thread_name: thread_label(&current),
            since: Instant::now(),
            handle: Arc::downgrade(&handle),
        });
        let guard = pin();
        let start = reg.cursor.fetch_add(1, Ordering::Relaxed);
        for i in 0..SLOTS {
            let slot = &reg.slots[(start + i) % SLOTS];
            match slot.load(&guard) {
                None => {
                    if slot
                        .compare_exchange_null(Arc::clone(&record), &guard)
                        .is_ok()
                    {
                        return;
                    }
                }
                Some(old) if old.live_handle().is_none() => {
                    if slot
                        .compare_exchange(Arc::as_ptr(&old), Some(Arc::clone(&record)), &guard)
                        .is_ok()
                    {
                        return;
                    }
                }
                Some(_) => {}
            }
        }
        reg.dropped.fetch_add(1, Ordering::Relaxed);
    }

    /// Registrations dropped because the slab was full of live waiters
    /// (diagnostic; reports are incomplete past this point, never wrong).
    pub fn dropped_registrations() -> u64 {
        registry().dropped.load(Ordering::Relaxed)
    }

    /// A live (not yet terminated) waiter, as observed by a scan.
    #[derive(Debug, Clone)]
    pub struct WaiterInfo {
        /// Process-wide registration order; unique per suspension.
        pub generation: u64,
        /// Primitive instance id from [`next_primitive_id`].
        pub primitive: u64,
        /// Static label of the suspension site (e.g. `"mutex.lock"`).
        pub label: &'static str,
        /// The suspending thread.
        pub thread: ThreadId,
        /// Human-readable thread name (falls back to the debug id).
        pub thread_name: String,
        /// How long the waiter had been enqueued when the scan ran.
        pub waited: Duration,
    }

    fn collect_live(min_generation: u64, now: Instant) -> Vec<(WaiterInfo, Arc<dyn WaiterHandle>)> {
        let reg = registry();
        let guard = pin();
        let mut out = Vec::new();
        for slot in &reg.slots {
            if let Some(record) = slot.load(&guard) {
                let Some(handle) = record.live_handle() else {
                    continue;
                };
                if record.generation > min_generation {
                    out.push((
                        WaiterInfo {
                            generation: record.generation,
                            primitive: record.primitive,
                            label: record.label,
                            thread: record.thread,
                            thread_name: record.thread_name.clone(),
                            waited: now.saturating_duration_since(record.since),
                        },
                        handle,
                    ));
                }
            }
        }
        out.sort_by_key(|(w, _)| w.generation);
        out
    }

    /// Snapshot of every live waiter registered after `min_generation`
    /// (pass 0 for all).
    pub fn live_waiters(min_generation: u64) -> Vec<WaiterInfo> {
        collect_live(min_generation, Instant::now())
            .into_iter()
            .map(|(w, _)| w)
            .collect()
    }

    // -----------------------------------------------------------------------
    // Holders and gauges
    // -----------------------------------------------------------------------

    struct HolderEntry {
        label: &'static str,
        thread_name: String,
        exclusive: bool,
        count: u64,
        since: Instant,
    }

    fn holders() -> &'static Mutex<HashMap<(u64, ThreadId), HolderEntry>> {
        static HOLDERS: OnceLock<Mutex<HashMap<(u64, ThreadId), HolderEntry>>> = OnceLock::new();
        HOLDERS.get_or_init(|| Mutex::new(HashMap::new()))
    }

    fn gauges() -> &'static Mutex<HashMap<(u64, &'static str), i64>> {
        static GAUGES: OnceLock<Mutex<HashMap<(u64, &'static str), i64>>> = OnceLock::new();
        GAUGES.get_or_init(|| Mutex::new(HashMap::new()))
    }

    /// Publishes the calling thread as a holder; the entry point behind
    /// [`crate::acquired!`].
    // Public only because the macros expand to `$crate::` calls in other crates.
    #[doc(hidden)]
    pub fn runtime_acquired(primitive: u64, label: &'static str, exclusive: bool) {
        let current = std::thread::current();
        let mut map = holders().lock().unwrap();
        let entry = map
            .entry((primitive, current.id()))
            .or_insert_with(|| HolderEntry {
                label,
                thread_name: thread_label(&current),
                exclusive,
                count: 0,
                since: Instant::now(),
            });
        entry.count += 1;
    }

    /// Withdraws a holder record; the entry point behind
    /// [`crate::released!`]. Prefers the calling thread's record; if a
    /// guard migrated threads, any one record of the primitive is
    /// decremented instead, keeping the aggregate count honest.
    // Public only because the macros expand to `$crate::` calls in other crates.
    #[doc(hidden)]
    pub fn runtime_released(primitive: u64) {
        let id = std::thread::current().id();
        let mut map = holders().lock().unwrap();
        let key = if map.contains_key(&(primitive, id)) {
            (primitive, id)
        } else {
            match map.keys().find(|(p, _)| *p == primitive).copied() {
                Some(k) => k,
                None => return, // released without a visible acquire; ignore
            }
        };
        let entry = map.get_mut(&key).expect("key was just found");
        entry.count -= 1;
        if entry.count == 0 {
            map.remove(&key);
        }
    }

    /// Publishes a gauge value; the entry point behind [`crate::gauge!`].
    // Public only because the macros expand to `$crate::` calls in other crates.
    #[doc(hidden)]
    pub fn runtime_gauge(primitive: u64, name: &'static str, value: i64) {
        gauges().lock().unwrap().insert((primitive, name), value);
    }

    /// A holder record, as observed by a scan.
    #[derive(Debug, Clone)]
    pub struct HolderInfo {
        /// Primitive instance id.
        pub primitive: u64,
        /// Static label of the acquisition site.
        pub label: &'static str,
        /// The holding thread.
        pub thread: ThreadId,
        /// Human-readable thread name.
        pub thread_name: String,
        /// Whether the hold is exclusive (an edge for deadlock detection).
        pub exclusive: bool,
        /// Reentrant hold count.
        pub count: u64,
        /// How long the oldest hold of this entry has been live.
        pub held: Duration,
    }

    fn holders_snapshot(now: Instant) -> Vec<HolderInfo> {
        let map = holders().lock().unwrap();
        let mut out: Vec<HolderInfo> = map
            .iter()
            .map(|((primitive, thread), e)| HolderInfo {
                primitive: *primitive,
                label: e.label,
                thread: *thread,
                thread_name: e.thread_name.clone(),
                exclusive: e.exclusive,
                count: e.count,
                held: now.saturating_duration_since(e.since),
            })
            .collect();
        out.sort_by(|a, b| (a.primitive, &a.thread_name).cmp(&(b.primitive, &b.thread_name)));
        out
    }

    /// A gauge value, as observed by a scan.
    #[derive(Debug, Clone)]
    pub struct GaugeInfo {
        /// Primitive instance id.
        pub primitive: u64,
        /// The primitive's label from [`next_primitive_id`], if known.
        pub primitive_label: Option<&'static str>,
        /// Gauge name (e.g. `"available_permits"`).
        pub name: &'static str,
        /// Latest published value.
        pub value: i64,
    }

    fn gauges_snapshot() -> Vec<GaugeInfo> {
        let dir = directory().lock().unwrap();
        let map = gauges().lock().unwrap();
        let mut out: Vec<GaugeInfo> = map
            .iter()
            .map(|((primitive, name), value)| GaugeInfo {
                primitive: *primitive,
                primitive_label: dir.get(primitive).copied(),
                name,
                value: *value,
            })
            .collect();
        out.sort_by_key(|g| (g.primitive, g.name));
        out
    }

    // -----------------------------------------------------------------------
    // Wait-for graph
    // -----------------------------------------------------------------------

    /// One edge of a detected deadlock cycle: `thread` waits for
    /// `primitive`, which is exclusively held by `holder`.
    #[derive(Debug, Clone)]
    pub struct CycleEdge {
        /// The waiting thread.
        pub thread: ThreadId,
        /// Human-readable name of the waiting thread.
        pub thread_name: String,
        /// Generation of the waiter record forming this edge.
        pub waiter_generation: u64,
        /// The wanted primitive.
        pub primitive: u64,
        /// Label of the wanted primitive's suspension site.
        pub label: &'static str,
        /// The thread exclusively holding the wanted primitive.
        pub holder: ThreadId,
        /// Human-readable name of the holding thread.
        pub holder_name: String,
    }

    /// Runs cycle detection over the bipartite wait-for graph: threads
    /// *want* primitives (waiter records) and exclusively *hold* primitives
    /// (holder records with `exclusive = true`; shared holds such as
    /// semaphore permits or read locks never form edges, which keeps
    /// semaphore contention from producing false deadlocks). Returns each
    /// distinct cycle as its list of edges.
    pub fn detect_cycles(waiters: &[WaiterInfo], holders: &[HolderInfo]) -> Vec<Vec<CycleEdge>> {
        let mut wants: HashMap<ThreadId, Vec<&WaiterInfo>> = HashMap::new();
        for w in waiters {
            wants.entry(w.thread).or_default().push(w);
        }
        let mut held: HashMap<u64, Vec<&HolderInfo>> = HashMap::new();
        for h in holders.iter().filter(|h| h.exclusive) {
            held.entry(h.primitive).or_default().push(h);
        }

        let mut cycles = Vec::new();
        let mut seen: HashSet<Vec<u64>> = HashSet::new();
        let mut color: HashMap<ThreadId, u8> = HashMap::new();
        let mut threads: Vec<ThreadId> = wants.keys().copied().collect();
        threads.sort_by_key(|t| format!("{t:?}"));
        for t in threads {
            if !color.contains_key(&t) {
                dfs(
                    t,
                    &wants,
                    &held,
                    &mut color,
                    &mut Vec::new(),
                    &mut cycles,
                    &mut seen,
                );
            }
        }
        cycles
    }

    #[allow(clippy::too_many_arguments)]
    fn dfs(
        t: ThreadId,
        wants: &HashMap<ThreadId, Vec<&WaiterInfo>>,
        held: &HashMap<u64, Vec<&HolderInfo>>,
        color: &mut HashMap<ThreadId, u8>,
        path: &mut Vec<CycleEdge>,
        cycles: &mut Vec<Vec<CycleEdge>>,
        seen: &mut HashSet<Vec<u64>>,
    ) {
        color.insert(t, 1);
        if let Some(ws) = wants.get(&t) {
            for w in ws {
                let Some(hs) = held.get(&w.primitive) else {
                    continue;
                };
                for h in hs {
                    let edge = CycleEdge {
                        thread: t,
                        thread_name: w.thread_name.clone(),
                        waiter_generation: w.generation,
                        primitive: w.primitive,
                        label: w.label,
                        holder: h.thread,
                        holder_name: h.thread_name.clone(),
                    };
                    match color.get(&h.thread).copied().unwrap_or(0) {
                        1 => {
                            // Back edge: the cycle is the path suffix
                            // starting at the holder's first edge.
                            path.push(edge);
                            let start = path
                                .iter()
                                .position(|e| e.thread == h.thread)
                                .unwrap_or(path.len() - 1);
                            let cycle: Vec<CycleEdge> = path[start..].to_vec();
                            let mut key: Vec<u64> =
                                cycle.iter().map(|e| e.waiter_generation).collect();
                            key.sort_unstable();
                            if seen.insert(key) {
                                cycles.push(cycle);
                            }
                            path.pop();
                        }
                        0 => {
                            path.push(edge);
                            dfs(h.thread, wants, held, color, path, cycles, seen);
                            path.pop();
                        }
                        _ => {}
                    }
                }
            }
        }
        color.insert(t, 2);
    }

    // -----------------------------------------------------------------------
    // Policy, scanner, watchdog
    // -----------------------------------------------------------------------

    /// What the scanner does about stuck waiters.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum WatchPolicy {
        /// Report only; never interferes with the workload.
        Observe,
        /// Recover by cancelling stuck waiters through CQS cancellation:
        /// one waiter of every confirmed deadlock cycle is evicted
        /// immediately (cycles never resolve on their own), and any waiter
        /// stalled past `deadline` is evicted on sight.
        Evict {
            /// Stall age past which a waiter is forcibly cancelled.
            deadline: Duration,
        },
    }

    /// Consecutive scans a cycle must survive before it is reported (and,
    /// under [`WatchPolicy::Evict`], acted on). Snapshots of the wait-for
    /// graph are racy; a real deadlock is permanent, so requiring two
    /// sightings filters out in-flight hand-offs.
    const CONFIRM_CYCLE_SCANS: u32 = 2;

    /// Scanner/watchdog tuning knobs.
    #[derive(Debug, Clone, Copy)]
    pub struct WatchConfig {
        /// Wait age past which a waiter is reported as stalled.
        pub stall_threshold: Duration,
        /// [`Watchdog`] scan period.
        pub scan_interval: Duration,
        /// What to do about stuck waiters.
        pub policy: WatchPolicy,
    }

    impl WatchConfig {
        /// Defaults: 1 s stall threshold, 100 ms scan interval,
        /// observe-only policy.
        pub fn new() -> Self {
            WatchConfig {
                stall_threshold: Duration::from_secs(1),
                scan_interval: Duration::from_millis(100),
                policy: WatchPolicy::Observe,
            }
        }

        /// Sets the stall threshold.
        #[must_use]
        pub fn stall_threshold(mut self, threshold: Duration) -> Self {
            self.stall_threshold = threshold;
            self
        }

        /// Sets the watchdog scan interval.
        #[must_use]
        pub fn scan_interval(mut self, interval: Duration) -> Self {
            self.scan_interval = interval;
            self
        }

        /// Sets the eviction policy.
        #[must_use]
        pub fn policy(mut self, policy: WatchPolicy) -> Self {
            self.policy = policy;
            self
        }
    }

    impl Default for WatchConfig {
        fn default() -> Self {
            Self::new()
        }
    }

    /// What a [`WatchReport`] is about.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum ReportKind {
        /// Waiters stalled past the threshold (and/or deadline evictions).
        Stall,
        /// A confirmed wait-for-graph cycle.
        Deadlock,
    }

    /// Queue depth of one primitive: its count of live waiter records.
    #[derive(Debug, Clone)]
    pub struct QueueDepth {
        /// Primitive instance id.
        pub primitive: u64,
        /// Label of the primitive's suspension site.
        pub label: &'static str,
        /// Live waiter records observed.
        pub depth: u64,
    }

    /// A structured stall or deadlock report. Produced by [`Scanner::scan`]
    /// and serialized by [`to_json`](WatchReport::to_json) for machines.
    #[derive(Debug, Clone)]
    pub struct WatchReport {
        /// Stall or deadlock.
        pub kind: ReportKind,
        /// Waiters newly past the stall threshold ([`ReportKind::Stall`]).
        pub stalled: Vec<WaiterInfo>,
        /// The deadlock cycle's edges ([`ReportKind::Deadlock`]).
        pub cycle: Vec<CycleEdge>,
        /// Generations of waiters this scan evicted (cancelled).
        pub evicted: Vec<u64>,
        /// Every live waiter at scan time.
        pub waiters: Vec<WaiterInfo>,
        /// Every holder record at scan time.
        pub holders: Vec<HolderInfo>,
        /// Live waiter count per primitive.
        pub queues: Vec<QueueDepth>,
        /// Latest published gauges (permit accounting, pool sizes, ...).
        pub gauges: Vec<GaugeInfo>,
        /// Number of primitives whose `poisoned` gauge is nonzero at scan
        /// time — queues a panic escaped from (or that were explicitly
        /// poisoned), now closed and failing operations fast.
        pub poisoned_primitives: u64,
        /// Process resident set size in bytes at scan time; `None` where
        /// the probe is unavailable (see `cqs_harness::rss_bytes`) — the
        /// JSON then omits the key rather than reporting a misleading
        /// zero. A stalled-waiter pile-up that also inflates this is a
        /// leak, not just a liveness problem.
        pub rss_bytes: Option<u64>,
        /// Objects retired to the epoch collector but not yet physically
        /// reclaimed (see `cqs_reclaim::retired_approx`). A growing figure
        /// alongside stalled waiters usually means a guard is pinned
        /// somewhere in the stall.
        pub retired: u64,
        /// Sum of every `live_segments` gauge at scan time — the queue
        /// segments currently allocated across primitives that publish
        /// the gauge (sharded structures do per shard).
        pub live_segments: u64,
        /// Operation-counter snapshot (all zeros unless the `stats`
        /// feature is also enabled).
        pub counters: cqs_stats::CqsStats,
    }

    fn duration_ms(d: Duration) -> f64 {
        d.as_secs_f64() * 1e3
    }

    fn write_waiter(w: &JsonWriterWaiter<'_>, out: &mut JsonWriter) {
        out.begin_object();
        out.field_u64("generation", w.0.generation);
        out.field_u64("primitive", w.0.primitive);
        out.field_str("label", w.0.label);
        out.field_str("thread", &w.0.thread_name);
        out.field_f64("waited_ms", duration_ms(w.0.waited));
        out.end_object();
    }

    struct JsonWriterWaiter<'a>(&'a WaiterInfo);

    impl WatchReport {
        /// Serializes the report to single-line JSON
        /// (`"schema": "cqs-watch/v1"`), reusing the bench pipeline's
        /// hand-rolled writer.
        pub fn to_json(&self) -> String {
            let mut out = JsonWriter::new();
            out.begin_object();
            out.field_str("schema", "cqs-watch/v1");
            out.field_str(
                "kind",
                match self.kind {
                    ReportKind::Stall => "stall",
                    ReportKind::Deadlock => "deadlock",
                },
            );
            out.key("stalled");
            out.begin_array();
            for w in &self.stalled {
                write_waiter(&JsonWriterWaiter(w), &mut out);
            }
            out.end_array();
            out.key("cycle");
            out.begin_array();
            for e in &self.cycle {
                out.begin_object();
                out.field_str("thread", &e.thread_name);
                out.field_u64("waiter_generation", e.waiter_generation);
                out.field_u64("wants", e.primitive);
                out.field_str("wants_label", e.label);
                out.field_str("held_by", &e.holder_name);
                out.end_object();
            }
            out.end_array();
            out.key("evicted");
            out.begin_array();
            for g in &self.evicted {
                out.unsigned(*g);
            }
            out.end_array();
            out.key("waiters");
            out.begin_array();
            for w in &self.waiters {
                write_waiter(&JsonWriterWaiter(w), &mut out);
            }
            out.end_array();
            out.key("holders");
            out.begin_array();
            for h in &self.holders {
                out.begin_object();
                out.field_u64("primitive", h.primitive);
                out.field_str("label", h.label);
                out.field_str("thread", &h.thread_name);
                out.field_bool("exclusive", h.exclusive);
                out.field_u64("count", h.count);
                out.field_f64("held_ms", duration_ms(h.held));
                out.end_object();
            }
            out.end_array();
            out.key("queues");
            out.begin_array();
            for q in &self.queues {
                out.begin_object();
                out.field_u64("primitive", q.primitive);
                out.field_str("label", q.label);
                out.field_u64("depth", q.depth);
                out.end_object();
            }
            out.end_array();
            out.key("gauges");
            out.begin_array();
            for g in &self.gauges {
                out.begin_object();
                out.field_u64("primitive", g.primitive);
                if let Some(label) = g.primitive_label {
                    out.field_str("primitive_label", label);
                }
                out.field_str("name", g.name);
                out.field_i64("value", g.value);
                out.end_object();
            }
            out.end_array();
            out.field_u64("poisoned_primitives", self.poisoned_primitives);
            if let Some(rss) = self.rss_bytes {
                out.field_u64("rss_bytes", rss);
            }
            out.field_u64("live_segments", self.live_segments);
            out.field_u64("retired", self.retired);
            out.key("counters");
            out.begin_object();
            for (name, value) in self.counters.fields() {
                out.field_u64(name, value);
            }
            out.end_object();
            out.end_object();
            out.finish()
        }
    }

    /// Threadless scan engine: call [`scan`](Scanner::scan) whenever you
    /// like (tests drive it deterministically); [`Watchdog`] wraps it in a
    /// background thread.
    ///
    /// A fresh scanner only observes waiters registered *after* its
    /// creation, so concurrently running tests (or earlier phases of a
    /// process) do not leak into each other's reports. The [`Watchdog`]
    /// thread widens its scanner to the whole registry.
    #[derive(Debug)]
    pub struct Scanner {
        config: WatchConfig,
        min_generation: u64,
        reported_stalls: HashSet<u64>,
        reported_cycles: HashSet<Vec<u64>>,
        pending_cycles: HashMap<Vec<u64>, u32>,
    }

    impl Scanner {
        /// Creates a scanner observing waiters registered from now on.
        pub fn new(config: WatchConfig) -> Self {
            Scanner {
                config,
                min_generation: NEXT_GENERATION.load(Ordering::SeqCst),
                reported_stalls: HashSet::new(),
                reported_cycles: HashSet::new(),
                pending_cycles: HashMap::new(),
            }
        }

        /// Widens the scanner to every waiter in the registry, including
        /// those registered before it was created.
        #[must_use]
        fn including_preexisting(mut self) -> Self {
            self.min_generation = 0;
            self
        }

        /// Takes a racy snapshot of waiters/holders/gauges, detects
        /// confirmed deadlock cycles and newly stalled waiters, applies the
        /// eviction policy, and returns the resulting reports (empty when
        /// everything is healthy).
        pub fn scan(&mut self) -> Vec<WatchReport> {
            let now = Instant::now();
            let live = collect_live(self.min_generation, now);
            let waiters: Vec<WaiterInfo> = live.iter().map(|(w, _)| w.clone()).collect();
            let handles: HashMap<u64, &Arc<dyn WaiterHandle>> =
                live.iter().map(|(w, h)| (w.generation, h)).collect();
            let holders = holders_snapshot(now);
            let gauges = gauges_snapshot();
            let mut queue_map: HashMap<(u64, &'static str), u64> = HashMap::new();
            for w in &waiters {
                *queue_map.entry((w.primitive, w.label)).or_insert(0) += 1;
            }
            let mut queues: Vec<QueueDepth> = queue_map
                .into_iter()
                .map(|((primitive, label), depth)| QueueDepth {
                    primitive,
                    label,
                    depth,
                })
                .collect();
            queues.sort_by_key(|q| q.primitive);
            let counters = cqs_stats::CqsStats::snapshot();
            // Poison is published as a `poisoned` gauge by the owning
            // primitive (see cqs-core); surface the count so report
            // consumers can distinguish "stuck" from "already failed fast".
            let poisoned_primitives = gauges
                .iter()
                .filter(|g| g.name == "poisoned" && g.value != 0)
                .count() as u64;
            let rss_bytes = cqs_harness::rss_bytes();
            let retired = cqs_reclaim::retired_approx() as u64;
            let live_segments = gauges
                .iter()
                .filter(|g| g.name == "live_segments")
                .map(|g| g.value.max(0) as u64)
                .sum();
            let mut reports = Vec::new();

            // Deadlocks: confirm a cycle across consecutive scans before
            // reporting (snapshots are racy, real cycles are permanent).
            let cycles = detect_cycles(&waiters, &holders);
            let mut seen_this_scan: HashSet<Vec<u64>> = HashSet::new();
            for cycle in cycles {
                let mut key: Vec<u64> = cycle.iter().map(|e| e.waiter_generation).collect();
                key.sort_unstable();
                seen_this_scan.insert(key.clone());
                if self.reported_cycles.contains(&key) {
                    continue;
                }
                let sightings = self.pending_cycles.entry(key.clone()).or_insert(0);
                *sightings += 1;
                if *sightings < CONFIRM_CYCLE_SCANS {
                    continue;
                }
                self.pending_cycles.remove(&key);
                self.reported_cycles.insert(key);
                let mut evicted = Vec::new();
                if matches!(self.config.policy, WatchPolicy::Evict { .. }) {
                    // Evict exactly one waiter: the youngest in the cycle
                    // (falling back along the cycle if it terminated in the
                    // meantime), so the longest-waiting party proceeds.
                    let mut victims: Vec<u64> = cycle.iter().map(|e| e.waiter_generation).collect();
                    victims.sort_unstable_by(|a, b| b.cmp(a));
                    for generation in victims {
                        if let Some(handle) = handles.get(&generation) {
                            if handle.cancel() {
                                evicted.push(generation);
                                break;
                            }
                        }
                    }
                }
                reports.push(WatchReport {
                    kind: ReportKind::Deadlock,
                    stalled: Vec::new(),
                    cycle,
                    evicted,
                    waiters: waiters.clone(),
                    holders: holders.clone(),
                    queues: queues.clone(),
                    gauges: gauges.clone(),
                    poisoned_primitives,
                    rss_bytes,
                    retired,
                    live_segments,
                    counters,
                });
            }
            // A cycle that vanished from the snapshot was a transient
            // hand-off, not a deadlock: reset its confirmation count.
            self.pending_cycles
                .retain(|key, _| seen_this_scan.contains(key));

            // Stalls: report each stalled waiter once; under Evict, cancel
            // anything past the deadline.
            let newly_stalled: Vec<WaiterInfo> = waiters
                .iter()
                .filter(|w| {
                    w.waited >= self.config.stall_threshold
                        && !self.reported_stalls.contains(&w.generation)
                })
                .cloned()
                .collect();
            let mut evicted = Vec::new();
            if let WatchPolicy::Evict { deadline } = self.config.policy {
                for w in &waiters {
                    if w.waited >= deadline {
                        if let Some(handle) = handles.get(&w.generation) {
                            if handle.cancel() {
                                evicted.push(w.generation);
                            }
                        }
                    }
                }
            }
            if !newly_stalled.is_empty() || !evicted.is_empty() {
                for w in &newly_stalled {
                    self.reported_stalls.insert(w.generation);
                }
                reports.push(WatchReport {
                    kind: ReportKind::Stall,
                    stalled: newly_stalled,
                    cycle: Vec::new(),
                    evicted,
                    waiters,
                    holders,
                    queues,
                    gauges,
                    poisoned_primitives,
                    rss_bytes,
                    retired,
                    live_segments,
                    counters,
                });
            }
            reports
        }
    }

    /// Background watchdog thread: runs a [`Scanner`] (over the whole
    /// registry) every [`WatchConfig::scan_interval`] and hands each
    /// report to the sink. Stopped by [`stop`](Watchdog::stop) or by drop.
    pub struct Watchdog {
        stop: Arc<(Mutex<bool>, Condvar)>,
        thread: Option<std::thread::JoinHandle<()>>,
    }

    impl Watchdog {
        /// Spawns the watchdog thread.
        pub fn spawn<F>(config: WatchConfig, sink: F) -> Self
        where
            F: Fn(&WatchReport) + Send + 'static,
        {
            let stop = Arc::new((Mutex::new(false), Condvar::new()));
            let stop2 = Arc::clone(&stop);
            let thread = std::thread::Builder::new()
                .name("cqs-watch".to_string())
                .spawn(move || {
                    let mut scanner = Scanner::new(config).including_preexisting();
                    let (lock, cv) = &*stop2;
                    loop {
                        {
                            let stopped = lock.lock().unwrap();
                            let (stopped, _) =
                                cv.wait_timeout(stopped, config.scan_interval).unwrap();
                            if *stopped {
                                return;
                            }
                        }
                        for report in scanner.scan() {
                            sink(&report);
                        }
                    }
                })
                .expect("failed to spawn the cqs-watch thread");
            Watchdog {
                stop,
                thread: Some(thread),
            }
        }

        /// Stops the watchdog and joins its thread.
        pub fn stop(mut self) {
            self.shutdown();
        }

        fn shutdown(&mut self) {
            if let Some(thread) = self.thread.take() {
                *self.stop.0.lock().unwrap() = true;
                self.stop.1.notify_all();
                let _ = thread.join();
            }
        }
    }

    impl Drop for Watchdog {
        fn drop(&mut self) {
            self.shutdown();
        }
    }

    impl std::fmt::Debug for Watchdog {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.debug_struct("Watchdog")
                .field("running", &self.thread.is_some())
                .finish()
        }
    }

    /// Spawns a watchdog configured from the environment, or returns
    /// `None` when `CQS_WATCH_STALL_MS` is unset. Intended for binaries
    /// (the bench `figures` runner uses it) so a wedged run can be
    /// diagnosed without code changes:
    ///
    /// * `CQS_WATCH_STALL_MS` — stall threshold in milliseconds (enables
    ///   the watchdog);
    /// * `CQS_WATCH_EVICT_MS` — optional eviction deadline in
    ///   milliseconds (switches the policy to [`WatchPolicy::Evict`]);
    /// * `CQS_WATCH_REPORT` — optional path; reports are appended there
    ///   as JSON lines instead of being printed to stderr.
    pub fn spawn_from_env() -> Option<Watchdog> {
        let stall_ms: u64 = std::env::var("CQS_WATCH_STALL_MS")
            .ok()?
            .trim()
            .parse()
            .ok()?;
        let stall = Duration::from_millis(stall_ms.max(1));
        let mut config = WatchConfig::new()
            .stall_threshold(stall)
            .scan_interval(Duration::from_millis((stall_ms / 2).clamp(10, 250)));
        if let Some(evict_ms) = std::env::var("CQS_WATCH_EVICT_MS")
            .ok()
            .and_then(|v| v.trim().parse::<u64>().ok())
        {
            config = config.policy(WatchPolicy::Evict {
                deadline: Duration::from_millis(evict_ms.max(1)),
            });
        }
        let path = std::env::var("CQS_WATCH_REPORT").ok();
        Some(Watchdog::spawn(config, move |report| {
            let json = report.to_json();
            match &path {
                Some(p) => {
                    use std::io::Write as _;
                    let written = std::fs::OpenOptions::new()
                        .create(true)
                        .append(true)
                        .open(p)
                        .and_then(|mut f| writeln!(f, "{json}"));
                    if let Err(e) = written {
                        eprintln!("cqs-watch: cannot append to {p}: {e}; report: {json}");
                    }
                }
                None => eprintln!("{json}"),
            }
        }))
    }
}

#[cfg(feature = "watch")]
pub use runtime::{
    detect_cycles, dropped_registrations, enabled, live_waiters, next_primitive_id,
    runtime_acquired, runtime_gauge, runtime_register_waiter, runtime_released, spawn_from_env,
    CycleEdge, GaugeInfo, HolderInfo, QueueDepth, ReportKind, Scanner, WaiterInfo, WatchConfig,
    WatchPolicy, WatchReport, Watchdog,
};

// Inert stand-ins so callers can manage the watchdog unconditionally; with
// the feature off these compile to nothing and no record is ever kept.
#[cfg(not(feature = "watch"))]
mod inert {
    /// Always `false`: the `watch` feature is disabled.
    pub const fn enabled() -> bool {
        false
    }

    /// Always `0`: the `watch` feature is disabled, no ids are allocated.
    pub fn next_primitive_id(_label: &'static str) -> u64 {
        0
    }

    /// Inert stand-in for the watchdog; cannot be constructed into
    /// anything that runs.
    #[derive(Debug)]
    pub struct Watchdog(());

    /// Always `None`: the `watch` feature is disabled.
    pub fn spawn_from_env() -> Option<Watchdog> {
        None
    }
}

#[cfg(not(feature = "watch"))]
pub use inert::{enabled, next_primitive_id, spawn_from_env, Watchdog};

#[cfg(all(test, feature = "watch"))]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;
    use std::time::Duration;

    /// A registry-only stand-in for `Request<T>`.
    struct FakeWaiter {
        terminated: AtomicBool,
        cancelled: AtomicBool,
    }

    impl FakeWaiter {
        fn new() -> Arc<Self> {
            Arc::new(FakeWaiter {
                terminated: AtomicBool::new(false),
                cancelled: AtomicBool::new(false),
            })
        }

        fn complete(&self) {
            self.terminated.store(true, Ordering::SeqCst);
        }
    }

    impl WaiterHandle for FakeWaiter {
        fn is_terminated(&self) -> bool {
            self.terminated.load(Ordering::SeqCst)
        }

        fn cancel(&self) -> bool {
            if self.terminated.swap(true, Ordering::SeqCst) {
                return false;
            }
            self.cancelled.store(true, Ordering::SeqCst);
            true
        }
    }

    fn scanner(config: WatchConfig) -> Scanner {
        Scanner::new(config)
    }

    #[test]
    fn registry_tracks_live_waiters_and_prunes_terminated() {
        let id = next_primitive_id("test.registry");
        let scan_floor = Scanner::new(WatchConfig::new());
        let w1 = FakeWaiter::new();
        let w2 = FakeWaiter::new();
        register_waiter!(id, "test.registry", w1.clone());
        register_waiter!(id, "test.registry", w2.clone());
        let mine = |ws: Vec<WaiterInfo>| {
            ws.into_iter()
                .filter(|w| w.primitive == id)
                .collect::<Vec<_>>()
        };
        drop(scan_floor);
        assert_eq!(mine(live_waiters(0)).len(), 2);
        w1.complete();
        let live = mine(live_waiters(0));
        assert_eq!(live.len(), 1);
        assert_eq!(live[0].label, "test.registry");
        w2.complete();
        assert!(mine(live_waiters(0)).is_empty());
    }

    /// The registry observes waiters, it does not own them: a finished
    /// request is freed when its owner lets go, with no later registration
    /// needed to turn its slot over, and a request dropped while pending
    /// reads as terminated.
    #[test]
    fn registry_holds_waiters_weakly() {
        /// Refuses `cancel`, so a sibling test's evicting scan cannot
        /// terminate it behind this test's back.
        struct Unevictable(AtomicBool);
        impl WaiterHandle for Unevictable {
            fn is_terminated(&self) -> bool {
                self.0.load(Ordering::SeqCst)
            }
            fn cancel(&self) -> bool {
                false
            }
        }
        let id = next_primitive_id("test.weak");
        let live = || {
            live_waiters(0)
                .into_iter()
                .filter(|w| w.primitive == id)
                .count()
        };
        let finished = Arc::new(Unevictable(AtomicBool::new(false)));
        let abandoned = Arc::new(Unevictable(AtomicBool::new(false)));
        // A sibling test's scan may hold a handle upgraded for the length
        // of one `is_terminated` call; nothing holds it longer.
        let freed = |waiter: Arc<Unevictable>| {
            let probe = Arc::downgrade(&waiter);
            drop(waiter);
            let patience = std::time::Instant::now() + Duration::from_secs(10);
            while probe.strong_count() > 0 {
                assert!(
                    std::time::Instant::now() < patience,
                    "the registry kept a dropped waiter alive"
                );
                std::thread::yield_now();
            }
        };
        register_waiter!(id, "test.weak", finished.clone());
        register_waiter!(id, "test.weak", abandoned.clone());
        assert_eq!(live(), 2);
        finished.0.store(true, Ordering::SeqCst);
        freed(finished);
        assert_eq!(live(), 1);
        freed(abandoned);
        assert_eq!(live(), 0, "a dropped waiter must count as terminated");
    }

    #[test]
    fn scanner_reports_stall_once_and_deadline_evicts() {
        let id = next_primitive_id("test.stall");
        let mut s = scanner(
            WatchConfig::new()
                .stall_threshold(Duration::from_millis(0))
                .policy(WatchPolicy::Observe),
        );
        let w = FakeWaiter::new();
        register_waiter!(id, "test.stall", w.clone());
        let reports = s.scan();
        let stall = reports
            .iter()
            .find(|r| r.kind == ReportKind::Stall)
            .expect("zero-threshold scan must report the stall");
        assert!(stall.stalled.iter().any(|x| x.primitive == id));
        assert!(stall
            .queues
            .iter()
            .any(|q| q.primitive == id && q.depth == 1));
        // The same waiter is not re-reported.
        assert!(s
            .scan()
            .iter()
            .all(|r| r.stalled.iter().all(|x| x.primitive != id)));

        // Deadline eviction cancels through the handle.
        let mut evicting = scanner(
            WatchConfig::new()
                .stall_threshold(Duration::from_millis(0))
                .policy(WatchPolicy::Evict {
                    deadline: Duration::from_millis(0),
                }),
        );
        let victim = FakeWaiter::new();
        register_waiter!(id, "test.stall", victim.clone());
        let reports = evicting.scan();
        assert!(victim.cancelled.load(Ordering::SeqCst));
        assert!(reports.iter().any(|r| !r.evicted.is_empty()));
        w.complete();
    }

    #[test]
    fn cycle_detection_finds_abba_and_ignores_shared_holds() {
        // Two threads, two primitives: T1 holds A wants B, T2 holds B
        // wants A. Thread ids must be real, so borrow them from spawned
        // threads.
        let (t1, t2) = {
            let a = std::thread::spawn(|| std::thread::current().id())
                .join()
                .unwrap();
            let b = std::thread::spawn(|| std::thread::current().id())
                .join()
                .unwrap();
            (a, b)
        };
        let waiter = |generation, primitive, thread| WaiterInfo {
            generation,
            primitive,
            label: "test.cycle",
            thread,
            thread_name: format!("{thread:?}"),
            waited: Duration::from_millis(5),
        };
        let holder = |primitive, thread, exclusive| HolderInfo {
            primitive,
            label: "test.cycle",
            thread,
            thread_name: format!("{thread:?}"),
            exclusive,
            count: 1,
            held: Duration::from_millis(5),
        };
        let waiters = [waiter(1, 102, t1), waiter(2, 101, t2)];
        let holders = [holder(101, t1, true), holder(102, t2, true)];
        let cycles = detect_cycles(&waiters, &holders);
        assert_eq!(cycles.len(), 1, "exactly one ABBA cycle");
        assert_eq!(cycles[0].len(), 2, "the cycle has both edges");
        let prims: Vec<u64> = cycles[0].iter().map(|e| e.primitive).collect();
        assert!(prims.contains(&101) && prims.contains(&102));

        // Shared (non-exclusive) holds never form edges: no false
        // deadlock from semaphore-style contention.
        let shared = [holder(101, t1, false), holder(102, t2, false)];
        assert!(detect_cycles(&waiters, &shared).is_empty());
    }

    #[test]
    fn cycle_requires_confirmation_scans() {
        let a = next_primitive_id("test.confirm.a");
        let b = next_primitive_id("test.confirm.b");
        let mut s = scanner(WatchConfig::new().stall_threshold(Duration::from_secs(3600)));
        let (w1, w2) = (FakeWaiter::new(), FakeWaiter::new());
        let j1 = {
            let (w1, w2) = (w1.clone(), w2.clone());
            std::thread::spawn(move || {
                acquired!(a, "test.confirm.a", true);
                register_waiter!(b, "test.confirm.b", w1.clone());
                while !w1.is_terminated() && !w2.is_terminated() {
                    std::thread::sleep(Duration::from_millis(1));
                }
                released!(a);
            })
        };
        let j2 = {
            let (w1, w2) = (w1.clone(), w2.clone());
            std::thread::spawn(move || {
                acquired!(b, "test.confirm.b", true);
                register_waiter!(a, "test.confirm.a", w2.clone());
                while !w1.is_terminated() && !w2.is_terminated() {
                    std::thread::sleep(Duration::from_millis(1));
                }
                released!(b);
            })
        };
        // Wait for both edges to be published.
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        loop {
            let live = live_waiters(0)
                .into_iter()
                .filter(|w| w.primitive == a || w.primitive == b)
                .count();
            if live == 2 {
                break;
            }
            assert!(std::time::Instant::now() < deadline, "edges never appeared");
            std::thread::yield_now();
        }
        let first = s.scan();
        assert!(
            first.iter().all(|r| r.kind != ReportKind::Deadlock),
            "cycle must not be reported on first sighting"
        );
        let second = s.scan();
        let deadlock = second
            .iter()
            .find(|r| r.kind == ReportKind::Deadlock)
            .expect("second sighting confirms the cycle");
        assert_eq!(deadlock.cycle.len(), 2);
        // Parse the JSON and check both edges are named.
        let doc = cqs_harness::report::Json::parse(&deadlock.to_json()).unwrap();
        let edges = doc
            .get("cycle")
            .and_then(cqs_harness::report::Json::as_arr)
            .unwrap();
        let wanted: Vec<f64> = edges
            .iter()
            .filter_map(|e| e.get("wants").and_then(cqs_harness::report::Json::as_f64))
            .collect();
        assert!(wanted.contains(&(a as f64)) && wanted.contains(&(b as f64)));
        w1.complete();
        w2.complete();
        j1.join().unwrap();
        j2.join().unwrap();
    }

    #[test]
    fn watchdog_thread_delivers_reports_and_stops() {
        let id = next_primitive_id("test.watchdog");
        let w = FakeWaiter::new();
        register_waiter!(id, "test.watchdog", w.clone());
        let hits = Arc::new(std::sync::Mutex::new(Vec::new()));
        let hits2 = Arc::clone(&hits);
        let dog = Watchdog::spawn(
            WatchConfig::new()
                .stall_threshold(Duration::from_millis(1))
                .scan_interval(Duration::from_millis(5)),
            move |r| {
                hits2.lock().unwrap().push(r.kind);
            },
        );
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while hits.lock().unwrap().is_empty() {
            assert!(std::time::Instant::now() < deadline, "watchdog never fired");
            std::thread::sleep(Duration::from_millis(5));
        }
        dog.stop();
        w.complete();
    }

    #[test]
    fn gauges_and_holders_round_trip_into_reports() {
        let id = next_primitive_id("test.gauge");
        gauge!(id, "available_permits", 3);
        acquired!(id, "test.gauge", true);
        let mut s = scanner(WatchConfig::new().stall_threshold(Duration::from_millis(0)));
        let w = FakeWaiter::new();
        register_waiter!(id, "test.gauge", w.clone());
        let reports = s.scan();
        let report = reports.first().expect("stall report expected");
        assert!(report
            .gauges
            .iter()
            .any(|g| g.primitive == id && g.name == "available_permits" && g.value == 3));
        assert!(report
            .holders
            .iter()
            .any(|h| h.primitive == id && h.exclusive && h.count == 1));
        released!(id);
        let mut s2 = scanner(WatchConfig::new().stall_threshold(Duration::from_millis(0)));
        let w2 = FakeWaiter::new();
        register_waiter!(id, "test.gauge", w2.clone());
        let reports = s2.scan();
        assert!(reports
            .first()
            .expect("stall report expected")
            .holders
            .iter()
            .all(|h| h.primitive != id));
        w.complete();
        w2.complete();
    }

    #[test]
    fn reports_carry_rss_and_live_segment_totals() {
        let a = next_primitive_id("test.segments.a");
        let b = next_primitive_id("test.segments.b");
        gauge!(a, "live_segments", 3);
        gauge!(b, "live_segments", 4);
        // A negative gauge (transient publish race) must not wrap the sum.
        let c = next_primitive_id("test.segments.c");
        gauge!(c, "live_segments", -1);
        let mut s = scanner(WatchConfig::new().stall_threshold(Duration::from_millis(0)));
        let w = FakeWaiter::new();
        register_waiter!(a, "test.segments.a", w.clone());
        let reports = s.scan();
        let report = reports.first().expect("stall report expected");
        assert!(report.live_segments >= 7, "gauge sum lost: {report:?}");
        if cfg!(target_os = "linux") {
            assert!(
                report.rss_bytes.is_some_and(|r| r > 0),
                "RSS probe must work on Linux"
            );
        }
        let doc = cqs_harness::report::Json::parse(&report.to_json()).unwrap();
        assert!(
            doc.get("live_segments")
                .and_then(cqs_harness::report::Json::as_f64)
                .is_some_and(|v| v >= 7.0),
            "live_segments missing from serialized report"
        );
        // The key is present exactly when the probe worked.
        assert_eq!(
            doc.get("rss_bytes")
                .and_then(cqs_harness::report::Json::as_f64)
                .is_some(),
            report.rss_bytes.is_some()
        );
        assert!(
            doc.get("retired")
                .and_then(cqs_harness::report::Json::as_f64)
                .is_some(),
            "retired gauge missing from serialized report"
        );
        w.complete();
    }
}

#[cfg(all(test, not(feature = "watch")))]
mod tests {
    #[test]
    fn disabled_macros_expand_to_nothing() {
        // Compiles because every expansion is empty — the arguments are
        // never evaluated (an `unreachable!` in evaluated position would
        // abort the test), and the inert API reports watch off.
        crate::register_waiter!(unreachable!(), unreachable!(), unreachable!());
        crate::acquired!(unreachable!(), unreachable!(), unreachable!());
        crate::released!(unreachable!());
        crate::gauge!(unreachable!(), unreachable!(), unreachable!());
        assert!(!crate::enabled());
        assert_eq!(crate::next_primitive_id("never.recorded"), 0);
        assert!(crate::spawn_from_env().is_none());
    }

    #[test]
    fn disabled_macros_are_independent_of_the_padded_counter_type() {
        // The stats crate's counters moved to a cache-line-padded backing
        // type; an off-feature `gauge!`/`register_waiter!` call whose
        // argument expressions read such a counter must still expand to
        // nothing — the padded load below is never evaluated.
        use cqs_stats::CachePadded;
        use std::sync::atomic::{AtomicU64, Ordering};
        static PADDED: CachePadded<AtomicU64> = CachePadded::new(AtomicU64::new(0));
        crate::gauge!(0u64, "padded", PADDED.load(Ordering::Relaxed));
        crate::register_waiter!(
            PADDED.load(Ordering::Relaxed),
            "padded",
            unreachable!("never evaluated")
        );
        // Deref still forwards to the inner atomic for real (evaluated)
        // reads, so macro call sites need no `.0` adjustments either way.
        assert_eq!(PADDED.load(Ordering::Relaxed), 0);
    }
}
