//! Sequential reference models of the CQS primitives.
//!
//! [`CellArrayModel`] is the single-threaded model the property tests
//! (`tests/proptest_batch.rs`, `tests/proptest_invariants.rs`) execute in
//! lockstep with the real structure: an infinite array of cells walked by
//! a suspend counter and a resume counter, exactly the abstraction the
//! paper's Iris specification is stated over.
//!
//! The `*Lin` types are the same abstractions packaged as
//! [`LinModel`] state machines for the Wing–Gong
//! linearizability checker: they consume *completed operations* (with
//! their observed results) instead of driving the primitive, and judge
//! whether each observed result is legal in the current sequential state.

use std::collections::VecDeque;

use crate::lin::{LinModel, Operation};

/// Response payload marking an operation that completed by cancellation
/// (the op observed no value; a cancelled acquire/lock/take is a no-op in
/// every sequential model). Real values must stay below this sentinel.
pub const RESP_CANCELLED: u64 = u64::MAX;

/// Response payload for successful unit-valued operations (acquire, lock).
pub const RESP_OK: u64 = 0;

// ---------------------------------------------------------------------
// Cell-array model (CQS in simple cancellation mode)
// ---------------------------------------------------------------------

/// One cell of [`CellArrayModel`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ModelCell {
    /// Untouched by either counter.
    Empty,
    /// A resumer parked a value here before the suspender arrived.
    Value(u64),
    /// A suspender waits here.
    Waiter,
    /// The waiter cancelled; a resume hitting this cell fails over.
    Cancelled,
    /// The rendezvous completed.
    Done,
}

/// Sequential reference model of the simple-cancellation CQS: an infinite
/// array of cells visited in order by two counters.
#[derive(Debug, Default, Clone)]
pub struct CellArrayModel {
    /// The cell array (grown on demand; index = counter value).
    pub cells: Vec<ModelCell>,
    /// Next cell a suspender claims.
    pub suspend_idx: usize,
    /// Next cell a resumer claims.
    pub resume_idx: usize,
}

impl CellArrayModel {
    /// The cell at `i`, growing the array as needed.
    pub fn cell(&mut self, i: usize) -> &mut ModelCell {
        if self.cells.len() <= i {
            self.cells.resize(i + 1, ModelCell::Empty);
        }
        &mut self.cells[i]
    }

    /// Returns `Some(value)` for an immediate result (elimination against
    /// a parked value), `None` for a suspension.
    pub fn suspend(&mut self) -> Option<u64> {
        let i = self.suspend_idx;
        self.suspend_idx += 1;
        match self.cell(i).clone() {
            ModelCell::Empty => {
                *self.cell(i) = ModelCell::Waiter;
                None
            }
            ModelCell::Value(v) => {
                *self.cell(i) = ModelCell::Done;
                Some(v)
            }
            other => unreachable!("suspend hit {other:?}"),
        }
    }

    /// One sequential resume: `Ok(Some(cell))` completed a waiter,
    /// `Ok(None)` parked the value, `Err(())` hit a cancelled cell.
    #[allow(clippy::result_unit_err)]
    pub fn resume(&mut self, v: u64) -> Result<Option<usize>, ()> {
        let i = self.resume_idx;
        self.resume_idx += 1;
        match self.cell(i).clone() {
            ModelCell::Empty => {
                *self.cell(i) = ModelCell::Value(v);
                Ok(None)
            }
            ModelCell::Waiter => {
                *self.cell(i) = ModelCell::Done;
                Ok(Some(i))
            }
            ModelCell::Cancelled => Err(()),
            other => unreachable!("resume hit {other:?}"),
        }
    }

    /// Marks the waiter in `cell` as cancelled (the caller tracks which
    /// pending future sat there).
    pub fn cancel(&mut self, cell: usize) {
        debug_assert_eq!(*self.cell(cell), ModelCell::Waiter);
        *self.cell(cell) = ModelCell::Cancelled;
    }

    /// Number of live waiters a broadcast (`resume_all`) would cover: the
    /// `Waiter` cells not yet reached by the resume counter.
    pub fn live_waiters(&self) -> usize {
        self.cells[self.resume_idx.min(self.cells.len())..]
            .iter()
            .filter(|c| **c == ModelCell::Waiter)
            .count()
    }
}

// ---------------------------------------------------------------------
// Linearizability state machines
// ---------------------------------------------------------------------

/// Counting semaphore: `sem.acquire` (response [`RESP_OK`] or
/// [`RESP_CANCELLED`]) and `sem.release`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SemaphoreLin {
    /// Permits currently available.
    pub available: u64,
    /// Total permits; `available` may never exceed it.
    pub capacity: u64,
}

impl SemaphoreLin {
    /// A semaphore with all `capacity` permits available.
    pub fn new(capacity: u64) -> Self {
        SemaphoreLin {
            available: capacity,
            capacity,
        }
    }
}

impl LinModel for SemaphoreLin {
    fn step(&self, op: &Operation) -> Option<Self> {
        match op.op {
            "sem.acquire" => {
                if op.response_value == RESP_CANCELLED {
                    return Some(self.clone());
                }
                if self.available == 0 {
                    return None;
                }
                Some(SemaphoreLin {
                    available: self.available - 1,
                    capacity: self.capacity,
                })
            }
            "sem.release" => {
                if self.available == self.capacity {
                    return None; // over-release: no legal linearization
                }
                Some(SemaphoreLin {
                    available: self.available + 1,
                    capacity: self.capacity,
                })
            }
            _ => None,
        }
    }
}

/// Mutual-exclusion lock: `mutex.lock` (response [`RESP_OK`] or
/// [`RESP_CANCELLED`]) and `mutex.unlock`.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct MutexLin {
    /// Whether some thread holds the lock.
    pub locked: bool,
}

impl LinModel for MutexLin {
    fn step(&self, op: &Operation) -> Option<Self> {
        match op.op {
            "mutex.lock" => {
                if op.response_value == RESP_CANCELLED {
                    return Some(self.clone());
                }
                if self.locked {
                    return None;
                }
                Some(MutexLin { locked: true })
            }
            "mutex.unlock" => {
                if !self.locked {
                    return None;
                }
                Some(MutexLin { locked: false })
            }
            _ => None,
        }
    }
}

/// FIFO queue (the [`QueuePool`](../../pool) abstraction): `pool.put`
/// carries the element in `invoke_value`; `pool.take`'s `response_value`
/// is the element received (or [`RESP_CANCELLED`]). A successful take
/// must observe the element at the head of the queue — this is the strict
/// FIFO order the paper's fairness theorem promises.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct FifoQueueLin {
    /// Elements in the queue, head first.
    pub queue: VecDeque<u64>,
}

impl LinModel for FifoQueueLin {
    fn step(&self, op: &Operation) -> Option<Self> {
        match op.op {
            "pool.put" => {
                let mut next = self.clone();
                next.queue.push_back(op.invoke_value);
                Some(next)
            }
            "pool.take" => {
                if op.response_value == RESP_CANCELLED {
                    return Some(self.clone());
                }
                if self.queue.front() != Some(&op.response_value) {
                    return None;
                }
                let mut next = self.clone();
                next.queue.pop_front();
                Some(next)
            }
            _ => None,
        }
    }
}

/// Bounded or unbounded FIFO channel (the `cqs-channel` abstraction):
/// `chan.send` carries the element in `invoke_value` and is legal only
/// while the channel has room (a completed send means the element *is* in
/// the channel — blocked sends that resolve later linearize when a
/// receive admits them); `chan.recv`'s `response_value` must be the
/// element at the head. Cancelled ops ([`RESP_CANCELLED`]) are no-ops.
///
/// Not applicable to rendezvous channels: with zero capacity no send is
/// ever sequentially legal, yet every completed rendezvous send is — the
/// rendezvous pairing is checked by the chaos storms and the explorer
/// instead. Any number of senders and receivers, cancelled or not, is in
/// scope; `close` is not an operation of the model.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ChannelLin {
    /// Elements in flight, head first.
    pub queue: VecDeque<u64>,
    /// Buffer capacity; `None` = unbounded. Must be at least 1.
    pub capacity: Option<u64>,
}

impl ChannelLin {
    /// An empty channel with the given capacity (`None` = unbounded).
    ///
    /// # Panics
    ///
    /// Panics on `Some(0)` — see the type docs.
    pub fn new(capacity: Option<u64>) -> Self {
        assert_ne!(capacity, Some(0), "rendezvous channels have no LinModel");
        ChannelLin {
            queue: VecDeque::new(),
            capacity,
        }
    }
}

impl LinModel for ChannelLin {
    fn step(&self, op: &Operation) -> Option<Self> {
        match op.op {
            "chan.send" => {
                if op.response_value == RESP_CANCELLED {
                    return Some(self.clone());
                }
                if let Some(c) = self.capacity {
                    if self.queue.len() as u64 >= c {
                        return None; // a send over capacity cannot linearize here
                    }
                }
                let mut next = self.clone();
                next.queue.push_back(op.invoke_value);
                Some(next)
            }
            "chan.recv" => {
                if op.response_value == RESP_CANCELLED {
                    return Some(self.clone());
                }
                if self.queue.front() != Some(&op.response_value) {
                    return None;
                }
                let mut next = self.clone();
                next.queue.pop_front();
                Some(next)
            }
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cell_array_model_parks_delivers_and_fails_over() {
        let mut m = CellArrayModel::default();
        // Park a value, eliminate it with the next suspend.
        assert_eq!(m.resume(7), Ok(None));
        assert_eq!(m.suspend(), Some(7));
        // Suspend first, deliver to the waiter.
        assert_eq!(m.suspend(), None);
        assert_eq!(m.resume(9), Ok(Some(1)));
        // Cancel a waiter; the resume aimed at it fails.
        assert_eq!(m.suspend(), None);
        m.cancel(2);
        assert_eq!(m.resume(11), Err(()));
        assert_eq!(m.live_waiters(), 0);
    }

    #[test]
    fn semaphore_lin_rejects_overdraw_and_overrelease() {
        let s = SemaphoreLin::new(1);
        let acquire = |resp| Operation {
            thread: 0,
            instance: 0,
            op: "sem.acquire",
            invoke_value: 0,
            response_value: resp,
            invoked: 0,
            responded: 1,
        };
        let release = Operation {
            op: "sem.release",
            ..acquire(RESP_OK)
        };
        let after = s.step(&acquire(RESP_OK)).unwrap();
        assert_eq!(after.available, 0);
        assert!(after.step(&acquire(RESP_OK)).is_none(), "no permit left");
        assert!(after.step(&acquire(RESP_CANCELLED)).is_some());
        assert!(s.step(&release).is_none(), "over-release rejected");
        assert_eq!(after.step(&release).unwrap().available, 1);
    }

    #[test]
    fn channel_lin_enforces_capacity_and_head_order() {
        let ch = ChannelLin::new(Some(2));
        let send = |v| Operation {
            thread: 0,
            instance: 0,
            op: "chan.send",
            invoke_value: v,
            response_value: RESP_OK,
            invoked: 0,
            responded: 1,
        };
        let recv = |v| Operation {
            op: "chan.recv",
            invoke_value: 0,
            response_value: v,
            ..send(0)
        };
        let full = ch.step(&send(1)).unwrap().step(&send(2)).unwrap();
        assert!(full.step(&send(3)).is_none(), "capacity 2 is exhausted");
        assert!(
            full.step(&Operation {
                response_value: RESP_CANCELLED,
                ..send(3)
            })
            .is_some(),
            "a cancelled send is a no-op"
        );
        assert!(full.step(&recv(2)).is_none(), "2 is not at the head");
        let rest = full.step(&recv(1)).unwrap();
        assert_eq!(rest.step(&recv(2)).unwrap().queue.len(), 0);
        let unbounded = ChannelLin::new(None);
        let mut m = unbounded;
        for v in 0..100 {
            m = m.step(&send(v)).unwrap();
        }
    }

    #[test]
    fn fifo_queue_lin_enforces_head_order() {
        let q = FifoQueueLin::default();
        let put = |v| Operation {
            thread: 0,
            instance: 0,
            op: "pool.put",
            invoke_value: v,
            response_value: 0,
            invoked: 0,
            responded: 1,
        };
        let take = |v| Operation {
            op: "pool.take",
            invoke_value: 0,
            response_value: v,
            ..put(0)
        };
        let q = q.step(&put(1)).unwrap().step(&put(2)).unwrap();
        assert!(q.step(&take(2)).is_none(), "2 is not at the head");
        let q = q.step(&take(1)).unwrap();
        assert_eq!(q.step(&take(2)).unwrap().queue.len(), 0);
    }
}
