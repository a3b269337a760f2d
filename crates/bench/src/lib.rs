#![warn(missing_docs)]

//! # `cqs-bench` — reproduction of every figure in the CQS paper
//!
//! Each `figures::figN_*` module regenerates one figure of the evaluation
//! (§6 and Appendix F): it sweeps the same parameters, runs the same
//! workload shape, and prints the same series the paper plots. The
//! `figures` binary drives the sweeps and writes the committed
//! `BENCH_figures.json`; gating changes is the repository benchmark's job
//! (`benchmark/`), not this crate's.
//!
//! Absolute numbers will differ from the paper's 144-thread Xeon testbed;
//! the comparisons (which algorithm wins, by roughly what factor, where the
//! crossovers sit) are the reproduction target. See `EXPERIMENTS.md`.

pub mod ablations;
pub mod fig13_coroutine_mutex;
pub mod fig5_barrier;
pub mod fig6_latch;
pub mod fig7_semaphore;
pub mod fig8_pools;
pub mod fig_channel;
pub mod fig_sharded;

pub use cqs_harness::{
    measure, measure_per_op, measure_per_op_repeated, print_figure, report, thread_sweep, CqsStats,
    PointStats, Repeats, Series, Workload,
};

/// Scale of a benchmark run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Small op counts: smoke-testing and CI.
    Quick,
    /// Paper-scale op counts.
    Full,
}

impl Scale {
    /// Total operations per measured configuration.
    pub fn ops(self) -> u64 {
        match self {
            Scale::Quick => 20_000,
            Scale::Full => 200_000,
        }
    }

    /// Lowercase label for run metadata.
    pub fn label(self) -> &'static str {
        match self {
            Scale::Quick => "quick",
            Scale::Full => "full",
        }
    }

    /// Barrier rounds per measured configuration.
    pub fn rounds(self) -> u64 {
        match self {
            Scale::Quick => 2_000,
            Scale::Full => 20_000,
        }
    }
}
