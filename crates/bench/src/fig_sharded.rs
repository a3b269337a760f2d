//! Sharded extension (figure id `sh`): the single-queue [`Semaphore`]
//! against [`ShardedSemaphore`] under permit starvation, where strict
//! global FIFO costs a parked-thread handoff per operation and shard-local
//! banking avoids it. Not a figure of the paper; it is the only
//! single-vs-sharded comparison in the repository.

use std::sync::Arc;

use cqs_harness::{measure_per_op_repeated, Repeats, Series};
use cqs_sync::{Semaphore, ShardedSemaphore};

use crate::Scale;

/// Shard count pinned explicitly: the sharded structures default to the
/// machine's parallelism, which on a small CI box is 1 and would silently
/// benchmark a sharded semaphore against itself.
fn shard_count(threads: usize) -> usize {
    threads.clamp(1, cqs_sync::MAX_DEFAULT_SHARDS)
}

/// Contended-acquire throughput, single-queue vs sharded, at
/// `P = ceil(T/2)` permits so half the threads are always waiting.
///
/// Each operation acquires, yields once while holding (forcing the
/// scheduler's hand: a strictly fair semaphore must now hand the permit to
/// the parked FIFO head, one context switch per operation), and releases.
/// The sharded semaphore banks the release on the home shard and the
/// releasing thread re-acquires it with one CAS; parked waiters elsewhere
/// are fed by the rebalance pulse and the quiescence sweep instead of by
/// every single release.
pub fn run(scale: Scale, threads: &[usize], repeats: Repeats) -> Vec<Series> {
    let total = scale.ops();
    let mut single = Series::new("single-queue");
    let mut sharded = Series::new("sharded");

    for &n in threads {
        let permits = n.div_ceil(2);
        let per_thread = total / n as u64;
        let ops = per_thread * n as u64;

        let s = Arc::new(Semaphore::new(permits));
        single.push(
            n as u64,
            measure_per_op_repeated(n, ops, repeats, |_| {
                for _ in 0..per_thread {
                    s.acquire().wait().expect("benchmark never cancels");
                    std::thread::yield_now();
                    s.release();
                }
            }),
        );

        let s = Arc::new(ShardedSemaphore::with_shards(permits, shard_count(n)));
        sharded.push(
            n as u64,
            measure_per_op_repeated(n, ops, repeats, |_| {
                for _ in 0..per_thread {
                    s.acquire().wait().expect("benchmark never cancels");
                    std::thread::yield_now();
                    s.release();
                }
            }),
        );
    }

    vec![single, sharded]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contended_produces_both_series() {
        let series = run(Scale::Quick, &[1, 2], Repeats::once());
        assert_eq!(series.len(), 2);
        for s in &series {
            assert_eq!(s.points.len(), 2, "{} missing points", s.name);
            assert!(s.points.iter().all(|(_, p)| p.median > 0.0));
        }
    }
}
