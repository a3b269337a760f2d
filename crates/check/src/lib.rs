//! `cqs-check`: offline model checking for the CQS stack.
//!
//! The paper this workspace reproduces proves CQS correct in Iris; this
//! crate is the executable stand-in for that proof effort. It provides
//! two independent verification tools, both free of crates.io
//! dependencies (consistent with the workspace's offline-shim policy):
//!
//! 1. [`explorer`] — a deterministic interleaving explorer. Small 2–4
//!    thread `suspend`/`resume`/`cancel`/`close`/`resume_n` programs run
//!    under serialized execution, with every `cqs_chaos::inject!` labelled
//!    race window acting as a schedule point and, under a crash budget,
//!    every `cqs_chaos::fault!` window as a choice to panic there; the
//!    explorer enumerates all schedules depth-first up to a CHESS-style
//!    preemption bound, and failures come with a replayable decision
//!    trace. Where the seeded chaos storms *sample* thread schedules and
//!    crash placements, the explorer *exhausts* a bounded slice of both,
//!    together.
//!
//! 2. [`lin`] — a Wing–Gong linearizability checker. Chaos storms record
//!    per-thread invoke/response histories through the
//!    `cqs_chaos::record!` seam; the checker searches for a sequential
//!    order of those operations that a reference model ([`models`])
//!    accepts and that respects real time.
//!
//! The crate deliberately avoids the `chaos` cargo feature: the explorer
//! plugs into the labelled windows through the unconditional
//! [`cqs_chaos::Scheduler`] trait, and only takes control of the real
//! windows when the *final test binary* is built with `--features chaos`.
//! Unit tests drive the explorer through explicit
//! [`explorer::schedule_point`] and [`explorer::fault_point`] calls
//! instead, so `cargo test -p cqs-check` is meaningful without any feature
//! flags.

#![warn(missing_docs)]

pub mod explorer;
pub mod lin;
pub mod models;

pub use explorer::{CounterExample, Exploration, Explorer, Program, StepKind, Trace, TraceStep};
pub use lin::{check_linearizable, pair_history, LinError, LinModel, Operation};
pub use models::{
    CellArrayModel, ChannelLin, FifoQueueLin, ModelCell, MutexLin, SemaphoreLin, RESP_CANCELLED,
    RESP_OK,
};
