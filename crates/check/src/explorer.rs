//! A deterministic interleaving explorer over the chaos-labelled race
//! windows (a loom-style, CHESS-style schedule searcher).
//!
//! The explorer runs a small multi-threaded [`Program`] under **serialized
//! execution**: exactly one program thread runs at a time, and every
//! nondeterministic choice the run makes is one decision of a single
//! depth-first search. There are two kinds of choice:
//!
//! - **Which thread runs next.** Control is handed over only at *schedule
//!   points*: the `cqs_chaos::inject!` labelled race windows (bridged in
//!   via the [`cqs_chaos::Scheduler`] trait), or explicit
//!   [`schedule_point`] calls in unit tests. Involuntary switches are
//!   bounded by [`Explorer::preemption_bound`] (CHESS-style preemption
//!   bounding: most concurrency bugs need very few preemptions, and the
//!   schedule space shrinks from exponential to polynomial).
//! - **Whether a thread crashes.** At a `cqs_chaos::fault!` window (or an
//!   explicit [`fault_point`]) a program thread either goes on (explored
//!   first) or panics on the spot, while the run has crashes left of its
//!   [`Explorer::crash_budget`]. A crash is not a preemption. The budget
//!   defaults to 0, which makes every crash window inert. Threads outside
//!   the program (its setup and `check`) never crash.
//!
//! Across repeated runs the explorer backtracks through the recorded
//! decisions until the bounded space is exhausted. On failure it returns
//! the exact decision [`Trace`]; feeding it to [`Explorer::replay`]
//! re-executes that one schedule, crashes included, deterministically.
//!
//! Programs must only perform **non-blocking** operations on their
//! controlled threads (`suspend`/`resume`/`cancel`/`close`/`resume_n`,
//! `try_get`): a thread that parks outside a schedule point would stall the
//! serialized run. Assertions on final state belong in the program's
//! `check` closure, which runs after every thread has finished.

use std::cell::RefCell;
use std::fmt;
use std::panic::AssertUnwindSafe;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Label shown for a thread that has not yet taken its first step.
const SPAWN_LABEL: &str = "<spawn>";

// ---------------------------------------------------------------------
// Program under test
// ---------------------------------------------------------------------

/// A small concurrent program for the explorer: two or three thread
/// bodies plus a final check over the shared state they leave behind.
pub struct Program {
    threads: Vec<Box<dyn FnOnce() + Send>>,
    check: Box<dyn FnOnce() -> Result<(), String>>,
}

impl Program {
    /// Creates an empty program (add threads with [`Program::thread`]).
    pub fn new() -> Self {
        Program {
            threads: Vec::new(),
            check: Box::new(|| Ok(())),
        }
    }

    /// Adds a controlled thread. Thread ordinals follow insertion order.
    pub fn thread(mut self, body: impl FnOnce() + Send + 'static) -> Self {
        self.threads.push(Box::new(body));
        self
    }

    /// Sets the final-state check, run on the explorer's own thread after
    /// all program threads have finished. Returning `Err` (or a panic in
    /// any thread body) makes the current schedule a counterexample.
    pub fn check(mut self, check: impl FnOnce() -> Result<(), String> + 'static) -> Self {
        self.check = Box::new(check);
        self
    }
}

impl Default for Program {
    fn default() -> Self {
        Self::new()
    }
}

// ---------------------------------------------------------------------
// Traces
// ---------------------------------------------------------------------

/// What a recorded decision chose between.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepKind {
    /// Which thread runs next: `chosen` is its ordinal.
    Switch,
    /// Whether `thread` crashes at a crash window: `chosen` is 1 if it
    /// panicked there, 0 if it went on.
    Crash {
        /// Ordinal of the thread at the crash window.
        thread: usize,
    },
}

/// One recorded decision (only points with a real choice are recorded;
/// forced continuations are not decisions).
#[derive(Debug, Clone)]
pub struct TraceStep {
    /// The decision taken (see [`StepKind`]); [`Trace::choices`] lists it.
    pub chosen: usize,
    /// Which kind of choice this was.
    pub kind: StepKind,
    /// For a switch, the label the chosen thread was parked at when it was
    /// picked (`"<spawn>"` before its first step); for a crash, the crash
    /// window.
    pub label: &'static str,
    /// How many other options the decision had (for a switch, the other
    /// threads that could have been scheduled instead).
    pub alternatives: usize,
    /// Whether this decision preempted a thread that could have continued.
    pub preemption: bool,
}

/// A replayable schedule: the sequence of decisions taken at every
/// branching schedule point and crash window of one run.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// The recorded decisions, in schedule order.
    pub steps: Vec<TraceStep>,
}

impl Trace {
    /// The raw decision list, suitable for [`Explorer::replay`].
    pub fn choices(&self) -> Vec<usize> {
        self.steps.iter().map(|s| s.chosen).collect()
    }
}

impl fmt::Display for Trace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "schedule trace ({} decisions):", self.steps.len())?;
        for (i, step) in self.steps.iter().enumerate() {
            match step.kind {
                StepKind::Crash { thread } => writeln!(
                    f,
                    "  #{i:<3} t{thread} {} {}",
                    ["goes on past", "crashes at"][step.chosen],
                    step.label
                )?,
                StepKind::Switch => writeln!(
                    f,
                    "  #{i:<3} run t{} from {}{}  [{} alternative{}]",
                    step.chosen,
                    step.label,
                    if step.preemption {
                        "  (preemption)"
                    } else {
                        ""
                    },
                    step.alternatives,
                    if step.alternatives == 1 { "" } else { "s" },
                )?,
            }
        }
        Ok(())
    }
}

/// A failing schedule: the check error (or thread panic) plus the decision
/// trace that reproduces it via [`Explorer::replay`].
#[derive(Debug)]
pub struct CounterExample {
    /// The check failure or panic message.
    pub error: String,
    /// The schedule that produced it.
    pub trace: Trace,
}

impl fmt::Display for CounterExample {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "counterexample: {}", self.error)?;
        write!(f, "{}", self.trace)
    }
}

/// Summary of a bounded exploration.
#[derive(Debug)]
pub struct Exploration {
    /// Number of schedules executed.
    pub runs: usize,
    /// Whether the bounded schedule space was fully enumerated (false when
    /// `max_runs` or `time_budget` stopped the search early).
    pub exhausted: bool,
    /// Runs cut short by `max_steps` (their tails ran unbranched).
    pub truncated_runs: usize,
    /// Forced decisions that no longer matched a runnable thread on
    /// replay; nonzero values mean the program has schedule-independent
    /// nondeterminism and coverage is best-effort for those prefixes.
    pub divergences: usize,
    /// The first failing schedule found, if any.
    pub counterexample: Option<CounterExample>,
}

// ---------------------------------------------------------------------
// Scheduler internals
// ---------------------------------------------------------------------

#[derive(Clone, Copy, PartialEq, Eq)]
enum Slot {
    Waiting,
    Running,
    Done,
}

/// A decision point with the not-yet-explored alternatives (the DFS
/// stack's element).
struct StepRecord {
    chosen: usize,
    untried: Vec<usize>,
}

#[derive(Default)]
struct RunState {
    slots: Vec<Slot>,
    /// Per thread: the label it is currently parked at.
    labels: Vec<&'static str>,
    registered: usize,
    current: Option<usize>,
    /// Decision prefix to follow (from the DFS stack).
    forced: Vec<usize>,
    /// Index of the next branching decision (into `forced` while
    /// replaying, beyond it while exploring).
    cursor: usize,
    /// Decisions taken beyond the forced prefix this run.
    new_steps: Vec<StepRecord>,
    /// Printable record of every branching decision this run.
    trace: Vec<TraceStep>,
    preemptions: usize,
    crashes: usize,
    steps: u64,
    truncated: bool,
    divergences: usize,
    /// Abandon serialization: all threads run freely to completion (set on
    /// participant panic or stall so the run can be joined and reported).
    free_run: bool,
    failure: Option<String>,
}

struct Shared {
    state: Mutex<RunState>,
    cv: Condvar,
    bounds: Explorer,
}

impl Shared {
    fn new(n: usize, forced: Vec<usize>, explorer: &Explorer) -> Self {
        Shared {
            state: Mutex::new(RunState {
                slots: vec![Slot::Waiting; n],
                labels: vec![SPAWN_LABEL; n],
                forced,
                ..RunState::default()
            }),
            cv: Condvar::new(),
            bounds: explorer.clone(),
        }
    }

    fn all_done(state: &RunState) -> bool {
        state.slots.iter().all(|s| *s == Slot::Done)
    }

    /// Picks the next thread to run. `prev` is the thread that just
    /// yielded at a schedule point (`None` when a thread finished or at
    /// run start, where switching costs no preemption).
    fn pick_next(&self, st: &mut RunState, prev: Option<usize>) {
        if st.free_run {
            self.cv.notify_all();
            return;
        }
        // Candidate order: continue the previous thread first (the
        // fewest-context-switches schedule is explored first), then the
        // remaining runnable threads by ordinal.
        let mut candidates: Vec<usize> = Vec::new();
        if let Some(p) = prev {
            candidates.push(p);
        }
        for (t, slot) in st.slots.iter().enumerate() {
            if *slot == Slot::Waiting && Some(t) != prev {
                candidates.push(t);
            }
        }
        if candidates.is_empty() {
            // All threads done: wake the driver.
            st.current = None;
            self.cv.notify_all();
            return;
        }
        // Preemption bounding: once the budget is spent, a thread that can
        // continue must continue. Step truncation stops branching too.
        if prev.is_some() && st.preemptions >= self.bounds.preemption_bound {
            candidates.truncate(1);
        }
        if st.steps > self.bounds.max_steps {
            st.truncated = true;
            candidates.truncate(1);
        }

        let chosen = Self::decide(st, &candidates);
        if candidates.len() > 1 {
            st.trace.push(TraceStep {
                chosen,
                kind: StepKind::Switch,
                label: st.labels[chosen],
                alternatives: candidates.len() - 1,
                preemption: prev.is_some_and(|p| p != chosen),
            });
        }
        if prev.is_some_and(|p| p != chosen) {
            st.preemptions += 1;
        }
        st.current = Some(chosen);
        self.cv.notify_all();
    }

    /// Takes one decision among `options`, the default first: the forced
    /// prefix's entry while replaying, otherwise the default, with the
    /// rest left on the DFS stack as untried alternatives.
    fn decide(st: &mut RunState, options: &[usize]) -> usize {
        if options.len() == 1 {
            return options[0];
        }
        let chosen = match st.forced.get(st.cursor) {
            Some(want) if options.contains(want) => *want,
            Some(_) => {
                // The program behaved differently than when this prefix
                // was recorded (schedule-independent nondeterminism, e.g.
                // a global allocator or collector threshold). Fall back
                // deterministically and count it.
                st.divergences += 1;
                options[0]
            }
            None => {
                st.new_steps.push(StepRecord {
                    chosen: options[0],
                    untried: options[1..].to_vec(),
                });
                options[0]
            }
        };
        st.cursor += 1;
        chosen
    }

    /// A controlled thread reached the labelled schedule point: yield the
    /// schedule and block until picked again.
    fn point(&self, me: usize, label: &'static str) {
        if self
            .bounds
            .ignored_prefixes
            .iter()
            .any(|p| label.starts_with(p.as_str()))
        {
            return;
        }
        let mut st = self.state.lock().unwrap();
        if st.free_run {
            return;
        }
        st.steps += 1;
        st.slots[me] = Slot::Waiting;
        st.labels[me] = label;
        self.pick_next(&mut st, Some(me));
        while !st.free_run && st.current != Some(me) {
            st = self.cv.wait(st).unwrap();
        }
        if !st.free_run {
            st.slots[me] = Slot::Running;
        }
    }

    /// A controlled thread reached a crash window: while the run has
    /// crashes left, branch on going on (the default) or crashing here.
    /// Returns whether the thread must crash.
    fn crash_choice(&self, me: usize, label: &'static str) -> bool {
        let mut st = self.state.lock().unwrap();
        if st.free_run || st.crashes >= self.bounds.crash_budget {
            return false;
        }
        if st.steps > self.bounds.max_steps {
            st.truncated = true;
            return false;
        }
        let chosen = Self::decide(&mut st, &[0, 1]);
        st.trace.push(TraceStep {
            chosen,
            kind: StepKind::Crash { thread: me },
            label,
            alternatives: 1,
            preemption: false,
        });
        st.crashes += chosen;
        chosen == 1
    }

    /// Registration gate: announce readiness, then block until scheduled
    /// for the first time.
    fn register_and_wait(&self, me: usize) {
        let mut st = self.state.lock().unwrap();
        st.registered += 1;
        self.cv.notify_all();
        while !st.free_run && st.current != Some(me) {
            st = self.cv.wait(st).unwrap();
        }
        if !st.free_run {
            st.slots[me] = Slot::Running;
        }
    }

    fn finish(&self, me: usize, panic_message: Option<String>) {
        let mut st = self.state.lock().unwrap();
        st.slots[me] = Slot::Done;
        if let Some(message) = panic_message {
            if st.failure.is_none() {
                st.failure = Some(message);
            }
            // Let every other thread run to completion unserialized so the
            // run can be joined and the trace reported.
            st.free_run = true;
            self.cv.notify_all();
            return;
        }
        self.pick_next(&mut st, None);
    }
}

thread_local! {
    /// The explorer this thread belongs to (participants only).
    static PARTICIPANT: RefCell<Option<(Arc<Shared>, usize)>> = const { RefCell::new(None) };
}

fn participant() -> Option<(Arc<Shared>, usize)> {
    PARTICIPANT.try_with(|p| p.borrow().clone()).ok().flatten()
}

/// Explicit schedule point for programs driven without the `chaos`
/// feature (unit tests of the explorer itself). On a thread not owned by
/// a running exploration this is a no-op, so it is always safe to call.
pub fn schedule_point(label: &'static str) {
    if let Some((shared, me)) = participant() {
        shared.point(me, label);
    }
}

/// Explicit crash window, the [`schedule_point`] of `cqs_chaos::fault!`:
/// panics with an `"injected crash fault"` message when the exploration
/// chooses to crash this thread here. A no-op on a thread not owned by a
/// running exploration, or when the run's crash budget is spent.
pub fn fault_point(label: &'static str) {
    if crashes_at(label) {
        panic!("injected crash fault at `{label}`");
    }
}

fn crashes_at(label: &'static str) -> bool {
    participant().is_some_and(|(shared, me)| shared.crash_choice(me, label))
}

/// Routes the `cqs_chaos` windows into the explorer: installed as the
/// global chaos scheduler for the duration of a run, it turns every
/// `inject!` window on a participant thread into a [`schedule_point`] and
/// every `fault!` window into a crash choice.
struct ChaosBridge;

impl cqs_chaos::Scheduler for ChaosBridge {
    fn at_point(&self, label: &'static str) {
        schedule_point(label);
    }

    fn at_fault(&self, label: &'static str) -> bool {
        crashes_at(label)
    }
}

/// The chaos scheduler slot is process-wide, so explorations take turns:
/// [`Explorer::explore`] and [`Explorer::replay`] hold this lock while
/// their runs have [`ChaosBridge`] installed. A panicking check leaves no
/// state behind the lock, so a poisoned one is simply taken over.
fn scheduler_slot() -> MutexGuard<'static, ()> {
    static SLOT: Mutex<()> = Mutex::new(());
    SLOT.lock().unwrap_or_else(PoisonError::into_inner)
}

// ---------------------------------------------------------------------
// Explorer
// ---------------------------------------------------------------------

/// Bounded depth-first schedule explorer (see module docs).
#[derive(Debug, Clone)]
pub struct Explorer {
    /// Maximum involuntary context switches per schedule (CHESS bound).
    pub preemption_bound: usize,
    /// Maximum crashes per schedule: the number of crash windows at which
    /// one run may panic (see the module docs). 0 leaves them inert.
    pub crash_budget: usize,
    /// Maximum schedule points per run; beyond it the run finishes on a
    /// single deterministic tail (counted in `truncated_runs`).
    pub max_steps: u64,
    /// Hard cap on the number of schedules to execute.
    pub max_runs: usize,
    /// Wall-clock budget for the whole exploration.
    pub time_budget: Duration,
    /// How long a single run may go without completing before it is
    /// declared stalled (a program thread blocked outside a schedule
    /// point) and failed.
    pub stall_timeout: Duration,
    /// Label prefixes that are *not* schedule points. The epoch
    /// collector's windows are excluded by default: its amortized,
    /// process-global triggers would make runs nondeterministic across an
    /// exploration, and PAPERS.md's reclamation-decoupling argument is
    /// exactly that the model seam should not include the collector.
    pub ignored_prefixes: Vec<String>,
}

impl Default for Explorer {
    fn default() -> Self {
        Explorer {
            preemption_bound: 2,
            crash_budget: 0,
            max_steps: 5_000,
            max_runs: 200_000,
            time_budget: Duration::from_secs(120),
            stall_timeout: Duration::from_secs(30),
            ignored_prefixes: vec!["epoch.".to_string()],
        }
    }
}

impl Explorer {
    /// Explores the schedule space of `setup`'s program depth-first up to
    /// the configured bounds. `setup` is called once per run and must
    /// build a fresh, equivalent program each time.
    pub fn explore(&self, mut setup: impl FnMut() -> Program) -> Exploration {
        let _slot = scheduler_slot();
        let started = Instant::now();
        let mut stack: Vec<StepRecord> = Vec::new();
        let mut runs = 0;
        let mut truncated_runs = 0;
        let mut divergences = 0;
        loop {
            let forced: Vec<usize> = stack.iter().map(|s| s.chosen).collect();
            let (result, run) = self.run_once(setup(), forced);
            runs += 1;
            truncated_runs += usize::from(run.truncated);
            divergences += run.divergences;
            let counterexample = result.err().map(|error| CounterExample {
                error,
                trace: Trace { steps: run.trace },
            });
            stack.extend(run.new_steps);
            // Depth-first backtrack: redirect the deepest decision that
            // still has an unexplored alternative.
            let exhausted = counterexample.is_none()
                && loop {
                    match stack.last_mut() {
                        None => break true,
                        Some(last) if last.untried.is_empty() => {
                            stack.pop();
                        }
                        Some(last) => {
                            last.chosen = last.untried.remove(0);
                            break false;
                        }
                    }
                };
            if exhausted
                || counterexample.is_some()
                || runs >= self.max_runs
                || started.elapsed() > self.time_budget
            {
                return Exploration {
                    runs,
                    exhausted,
                    truncated_runs,
                    divergences,
                    counterexample,
                };
            }
        }
    }

    /// Re-executes one schedule from a recorded decision list (see
    /// [`Trace::choices`]) and returns the program check's verdict.
    pub fn replay(&self, setup: impl FnOnce() -> Program, choices: &[usize]) -> Result<(), String> {
        let _slot = scheduler_slot();
        self.run_once(setup(), choices.to_vec()).0
    }

    /// Runs one schedule; returns the verdict and the run's final state.
    fn run_once(&self, program: Program, forced: Vec<usize>) -> (Result<(), String>, RunState) {
        let n = program.threads.len();
        assert!(n > 0, "explorer programs need at least one thread");
        let shared = Arc::new(Shared::new(n, forced, self));
        // Take over the chaos-labelled windows for the duration of the
        // run. Without the `chaos` feature this guard is inert and only
        // explicit `schedule_point` calls are controlled.
        let _guard = cqs_chaos::scoped_scheduler(Arc::new(ChaosBridge));

        let handles: Vec<_> = program
            .threads
            .into_iter()
            .enumerate()
            .map(|(ordinal, body)| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || {
                    PARTICIPANT.with(|p| *p.borrow_mut() = Some((Arc::clone(&shared), ordinal)));
                    shared.register_and_wait(ordinal);
                    let outcome = std::panic::catch_unwind(AssertUnwindSafe(body));
                    PARTICIPANT.with(|p| *p.borrow_mut() = None);
                    shared.finish(ordinal, outcome.err().map(panic_text));
                })
            })
            .collect();

        // Drive the run: wait for the registration gate, make the first
        // decision, then wait for completion (or a stall).
        {
            let mut st = shared.state.lock().unwrap();
            while st.registered < n {
                st = shared.cv.wait(st).unwrap();
            }
            shared.pick_next(&mut st, None);
            let (mut st, timeout) = shared
                .cv
                .wait_timeout_while(st, self.stall_timeout, |st| !Shared::all_done(st))
                .unwrap();
            if timeout.timed_out() && !Shared::all_done(&st) {
                st.free_run = true;
                if st.failure.is_none() {
                    st.failure = Some(format!(
                        "run stalled for {:?}: a program thread blocked outside a schedule point",
                        self.stall_timeout
                    ));
                }
                shared.cv.notify_all();
            }
        }
        for handle in handles {
            let _ = handle.join();
        }

        let mut run = std::mem::take(&mut *shared.state.lock().unwrap());
        let result = match run.failure.take() {
            Some(message) => Err(message),
            None => (program.check)(),
        };
        (result, run)
    }

    /// Convenience wrapper asserting the bounded space is clean: panics
    /// with the printable counterexample if one is found, or if the
    /// bounds stopped the search before it was exhaustive.
    pub fn check_exhaustive(&self, setup: impl FnMut() -> Program) -> Exploration {
        let exploration = self.explore(setup);
        if let Some(cx) = &exploration.counterexample {
            panic!("model check failed after {} runs\n{cx}", exploration.runs);
        }
        assert!(
            exploration.exhausted,
            "exploration stopped early after {} runs (raise max_runs/time_budget)",
            exploration.runs
        );
        exploration
    }
}

fn panic_text(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        format!("thread panicked: {s}")
    } else if let Some(s) = payload.downcast_ref::<String>() {
        format!("thread panicked: {s}")
    } else {
        "thread panicked (non-string payload)".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex as StdMutex;

    /// Two threads, two schedule points each, appending to a shared log:
    /// unbounded exploration must enumerate exactly C(4,2) = 6 distinct
    /// orders.
    #[test]
    fn enumerates_all_interleavings_of_two_threads() {
        let orders = Arc::new(StdMutex::new(HashSet::new()));
        let explorer = Explorer {
            preemption_bound: 8,
            ..Explorer::default()
        };
        let exploration = explorer.check_exhaustive(|| {
            let log = Arc::new(StdMutex::new(Vec::new()));
            let orders = Arc::clone(&orders);
            let mut program = Program::new();
            for id in 0..2usize {
                let log = Arc::clone(&log);
                program = program.thread(move || {
                    schedule_point("toy.first");
                    log.lock().unwrap().push(id);
                    schedule_point("toy.second");
                    log.lock().unwrap().push(id);
                });
            }
            program.check(move || {
                orders.lock().unwrap().insert(log.lock().unwrap().clone());
                Ok(())
            })
        });
        assert!(exploration.exhausted);
        assert_eq!(
            orders.lock().unwrap().len(),
            6,
            "expected all interleavings"
        );
    }

    /// A classic check-then-act race: both threads can pass the flag test
    /// before either sets it. The explorer must find it, produce a trace,
    /// and the trace must replay to the same failure.
    #[test]
    fn finds_check_then_act_race_and_replays_it() {
        let explorer = Explorer::default();
        let make = || {
            let flag = Arc::new(AtomicUsize::new(0));
            let inside = Arc::new(AtomicUsize::new(0));
            let mut program = Program::new();
            for _ in 0..2 {
                let flag = Arc::clone(&flag);
                let inside = Arc::clone(&inside);
                program = program.thread(move || {
                    if flag.load(Ordering::SeqCst) == 0 {
                        schedule_point("toy.race-window");
                        flag.store(1, Ordering::SeqCst);
                        inside.fetch_add(1, Ordering::SeqCst);
                    }
                });
            }
            program.check(move || {
                if inside.load(Ordering::SeqCst) > 1 {
                    Err("two threads entered the critical section".into())
                } else {
                    Ok(())
                }
            })
        };
        let exploration = explorer.explore(make);
        let cx = exploration
            .counterexample
            .expect("the race must be found within the bound");
        assert!(!cx.trace.steps.is_empty());
        let verdict = explorer.replay(make, &cx.trace.choices());
        assert_eq!(
            verdict,
            Err("two threads entered the critical section".to_string()),
            "replaying the counterexample trace must reproduce the failure"
        );
        // The full decision trace prints (smoke-check the Display path).
        assert!(format!("{cx}").contains("schedule trace"));
    }

    /// Preemption bounding prunes: bound 0 explores only voluntary
    /// switches (each thread runs to completion once scheduled).
    #[test]
    fn preemption_bound_zero_prunes_to_thread_orderings() {
        let explorer = Explorer {
            preemption_bound: 0,
            ..Explorer::default()
        };
        let exploration = explorer.check_exhaustive(|| {
            let mut program = Program::new();
            for _ in 0..2 {
                program = program.thread(|| {
                    schedule_point("toy.a");
                    schedule_point("toy.b");
                });
            }
            program
        });
        // With no preemptions the only choices are which thread starts
        // first and which continues when one finishes: 2 schedules.
        assert!(exploration.exhausted);
        assert_eq!(exploration.runs, 2);
    }

    /// Panics in program threads are captured as counterexamples instead
    /// of tearing down the harness.
    #[test]
    fn thread_panic_becomes_counterexample() {
        let explorer = Explorer::default();
        let exploration = explorer.explore(|| {
            Program::new()
                .thread(|| {
                    schedule_point("toy.pre-panic");
                    panic!("boom");
                })
                .thread(|| schedule_point("toy.bystander"))
        });
        let cx = exploration.counterexample.expect("panic must surface");
        assert!(cx.error.contains("boom"), "got: {}", cx.error);
    }

    /// Ignored label prefixes are not schedule points.
    #[test]
    fn ignored_prefixes_are_transparent() {
        let explorer = Explorer {
            ignored_prefixes: vec!["noise.".to_string()],
            preemption_bound: 8,
            ..Explorer::default()
        };
        let exploration = explorer.check_exhaustive(|| {
            let mut program = Program::new();
            for _ in 0..2 {
                program = program.thread(|| {
                    for _ in 0..50 {
                        schedule_point("noise.window");
                    }
                });
            }
            program
        });
        // Only the start decision branches: 2 schedules, not 2^100.
        assert_eq!(exploration.runs, 2);
    }

    /// Two threads, each a schedule point then a crash window whose panic
    /// it catches, appending what it did to a shared log.
    fn switch_then_fault(
        with_fault: bool,
        logs: &Arc<StdMutex<HashSet<Vec<&'static str>>>>,
    ) -> Program {
        let log = Arc::new(StdMutex::new(Vec::new()));
        let mut program = Program::new();
        for names in [["t0", "t0 crashed"], ["t1", "t1 crashed"]] {
            let log = Arc::clone(&log);
            program = program.thread(move || {
                schedule_point("toy.switch");
                let crashed = std::panic::catch_unwind(|| {
                    if with_fault {
                        fault_point("toy.crash");
                    }
                })
                .is_err();
                log.lock().unwrap().push(names[usize::from(crashed)]);
            });
        }
        let logs = Arc::clone(logs);
        program.check(move || {
            logs.lock().unwrap().insert(log.lock().unwrap().clone());
            Ok(())
        })
    }

    /// Worked by hand: the two threads' segments (start to the switch
    /// point, the switch point to the end) interleave in C(4,2) = 6 ways,
    /// all within the default bound of 2 preemptions. In each, the first
    /// crash window crossed goes on or crashes; if it went on, so does the
    /// second. One crash per run therefore gives 6 × 3 = 18 schedules,
    /// and every run logs a different outcome per thread order.
    #[test]
    fn one_crash_multiplies_each_interleaving_by_three() {
        let logs = Arc::default();
        let explorer = Explorer {
            crash_budget: 1,
            ..Explorer::default()
        };
        let exploration = explorer.check_exhaustive(|| switch_then_fault(true, &logs));
        assert_eq!(exploration.runs, 18);
        // Finishing orders t0,t1 and t1,t0, each with no crash or one.
        assert_eq!(logs.lock().unwrap().len(), 6, "{logs:?}");
    }

    /// With no crash budget a crash window is inert: the same runs, and
    /// the same outcomes, as the program without it.
    #[test]
    fn zero_crash_budget_explores_as_if_no_fault_point() {
        let explore = |with_fault| {
            let logs = Arc::default();
            let runs = Explorer::default()
                .check_exhaustive(|| switch_then_fault(with_fault, &logs))
                .runs;
            let logs = logs.lock().unwrap().clone();
            (runs, logs)
        };
        let (runs, logs) = explore(true);
        assert_eq!(runs, 6);
        assert_eq!((runs, logs), explore(false));
    }

    /// A crash between two stores tears the state the check reads: the
    /// explorer must find it, the trace must name the crash, and replay
    /// must reproduce it.
    #[test]
    fn finds_a_crash_and_replays_it() {
        let explorer = Explorer {
            crash_budget: 1,
            ..Explorer::default()
        };
        let make = || {
            let halves = Arc::new([AtomicUsize::new(0), AtomicUsize::new(0)]);
            let writer = Arc::clone(&halves);
            Program::new()
                .thread(move || {
                    let _ = std::panic::catch_unwind(|| {
                        writer[0].store(1, Ordering::SeqCst);
                        fault_point("toy.between-halves");
                        writer[1].store(1, Ordering::SeqCst);
                    });
                })
                .thread(|| schedule_point("toy.bystander"))
                .check(move || {
                    let [a, b] = halves.each_ref().map(|h| h.load(Ordering::SeqCst));
                    (a == b).then_some(()).ok_or_else(|| "torn update".into())
                })
        };
        let cx = explorer
            .explore(make)
            .counterexample
            .expect("the crash must be found");
        assert!(format!("{cx}").contains("t0 crashes at toy.between-halves"));
        assert_eq!(
            explorer.replay(make, &cx.trace.choices()),
            Err("torn update".to_string())
        );
        assert!(Explorer::default().explore(make).counterexample.is_none());
    }
}
