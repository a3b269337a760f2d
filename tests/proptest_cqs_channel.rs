//! Property-based test for the segment-native `CqsChannel`: random
//! single-threaded send/receive/cancel sequences executed against the
//! real channel while every completed operation is replayed, in lockstep,
//! through the `ChannelLin` sequential model from `cqs-check` — the same
//! model the linearizability storms search against. The model accepting
//! every step proves FIFO pairing equivalence: sends linearize within
//! capacity, receives pop in send order, and cancelled operations are
//! no-ops.

use std::collections::VecDeque;

use proptest::prelude::*;

use cqs::{ChannelRecv, ChannelSend, CqsChannel};
use cqs_check::{ChannelLin, LinModel, Operation, RESP_CANCELLED, RESP_OK};

#[derive(Debug, Clone)]
enum Op {
    Send(u64),
    Receive,
    CancelReceive(usize),
    CancelSend(usize),
}

fn ops() -> impl Strategy<Value = (Option<usize>, Vec<Op>)> {
    let capacity = prop_oneof![3 => (1usize..5).prop_map(Some), 1 => Just(None)];
    capacity.prop_flat_map(|capacity| {
        (
            Just(capacity),
            prop::collection::vec(
                prop_oneof![
                    3 => (1u64..1_000).prop_map(Op::Send),
                    3 => Just(Op::Receive),
                    1 => (0usize..16).prop_map(Op::CancelReceive),
                    1 => (0usize..16).prop_map(Op::CancelSend),
                ],
                0..80,
            ),
        )
    })
}

/// Steps `model` with one completed operation, failing the property if
/// the sequential channel rejects it.
fn step(
    model: &mut ChannelLin,
    op: &'static str,
    invoke: u64,
    response: u64,
) -> Result<(), TestCaseError> {
    let operation = Operation {
        thread: 0,
        instance: 0,
        op,
        invoke_value: invoke,
        response_value: response,
        invoked: 0,
        responded: 1,
    };
    match model.step(&operation) {
        Some(next) => {
            *model = next;
            Ok(())
        }
        None => Err(TestCaseError::fail(format!(
            "ChannelLin rejected {op} invoke={invoke} response={response}"
        ))),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn cqs_channel_matches_channel_lin((capacity, ops) in ops()) {
        let ch: CqsChannel<u64> = match capacity {
            Some(c) => CqsChannel::bounded(c),
            None => CqsChannel::unbounded(),
        };
        let mut model = ChannelLin::new(capacity.map(|c| c as u64));
        // Mirror of the model queue, for predicting receive values.
        let mut in_flight: VecDeque<u64> = VecDeque::new();
        let mut pending_receives: VecDeque<ChannelRecv<u64>> = VecDeque::new();
        let mut blocked_sends: VecDeque<(u64, ChannelSend<u64>)> = VecDeque::new();

        for op in ops {
            match op {
                Op::Send(v) => {
                    let f = ch.send(v);
                    if f.is_immediate() {
                        step(&mut model, "chan.send", v, RESP_OK)?;
                        if let Some(r) = pending_receives.pop_front() {
                            // Direct hand-off to the oldest waiting receiver.
                            prop_assert_eq!(r.wait(), Ok(v));
                            step(&mut model, "chan.recv", 0, v)?;
                        } else {
                            in_flight.push_back(v);
                        }
                        prop_assert!(f.wait().is_ok());
                    } else {
                        // At capacity: the send linearizes later, when a
                        // receive admits it into the buffer.
                        prop_assert!(capacity.is_some_and(|c| in_flight.len() >= c));
                        blocked_sends.push_back((v, f));
                    }
                }
                Op::Receive => {
                    let r = ch.receive();
                    if let Some(v) = in_flight.pop_front() {
                        prop_assert!(r.is_immediate());
                        prop_assert_eq!(r.wait(), Ok(v));
                        step(&mut model, "chan.recv", 0, v)?;
                        // Freeing a slot admits the oldest blocked send,
                        // which linearizes (and buffers its element) now.
                        if let Some((gv, gf)) = blocked_sends.pop_front() {
                            prop_assert!(gf.wait().is_ok());
                            step(&mut model, "chan.send", gv, RESP_OK)?;
                            in_flight.push_back(gv);
                        }
                    } else {
                        prop_assert!(!r.is_immediate());
                        pending_receives.push_back(r);
                    }
                }
                Op::CancelReceive(k) => {
                    if pending_receives.is_empty() {
                        continue;
                    }
                    let r = pending_receives.remove(k % pending_receives.len()).unwrap();
                    // Sequential execution: no delivery can race the cancel.
                    prop_assert!(r.cancel());
                    step(&mut model, "chan.recv", 0, RESP_CANCELLED)?;
                }
                Op::CancelSend(k) => {
                    if blocked_sends.is_empty() {
                        continue;
                    }
                    let (v, f) = blocked_sends.remove(k % blocked_sends.len()).unwrap();
                    prop_assert!(f.cancel());
                    match f.wait() {
                        Err(e) => prop_assert_eq!(e.into_inner(), v),
                        Ok(()) => prop_assert!(false, "cancelled blocked send completed"),
                    }
                    step(&mut model, "chan.send", v, RESP_CANCELLED)?;
                }
            }
        }

        // Wind-down: cancel the leftover waiters, then close and check
        // that exactly the model's in-flight elements come back in order.
        for r in pending_receives {
            prop_assert!(r.cancel());
            step(&mut model, "chan.recv", 0, RESP_CANCELLED)?;
        }
        for (v, f) in blocked_sends {
            prop_assert!(f.cancel());
            match f.wait() {
                Err(e) => prop_assert_eq!(e.into_inner(), v),
                Ok(()) => prop_assert!(false, "cancelled blocked send completed"),
            }
            step(&mut model, "chan.send", v, RESP_CANCELLED)?;
        }
        let returned = ch.close();
        prop_assert_eq!(returned, Vec::from(in_flight));
    }
}
