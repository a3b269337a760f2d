//! `send_timeout` / `receive_timeout` convenience API and the
//! timeout-vs-delivery race they expose.
//!
//! The functional half runs featureless. The `chaos`-gated half replays a
//! pinned-seed family through the rendezvous handoff, where the dangerous
//! window lives: a receiver abandoning its wait (timeout → cancel) racing
//! a sender committing delivery into the same cell. The regression
//! contract is *agreement* — exactly one of {delivered, returned} per
//! element, never both (duplication) and never neither (loss).

use cqs::{CqsChannel, RecvError, SendError};
use std::sync::Arc;
use std::time::{Duration, Instant};

const DEADLINE: Duration = Duration::from_secs(10);

#[test]
fn receive_timeout_expires_then_delivers() {
    let ch: CqsChannel<u32> = CqsChannel::bounded(2);
    let start = Instant::now();
    assert_eq!(
        ch.receive_timeout(Duration::from_millis(30)),
        Err(RecvError::Cancelled),
        "empty channel must time out"
    );
    assert!(start.elapsed() >= Duration::from_millis(30));
    ch.send(7).wait().unwrap();
    assert_eq!(ch.receive_timeout(DEADLINE), Ok(7));
}

#[test]
fn send_timeout_expires_with_the_element_returned() {
    let ch: CqsChannel<u32> = CqsChannel::bounded(1);
    ch.send(1).wait().unwrap(); // fill the buffer
    match ch.send_timeout(2, Duration::from_millis(30)) {
        Err(SendError::Cancelled(v)) => assert_eq!(v, 2, "element must come back"),
        other => panic!("full channel must time out, got {other:?}"),
    }
    // Conservation: the timed-out element is gone from the channel; the
    // buffered one is intact.
    assert_eq!(ch.receive_timeout(DEADLINE), Ok(1));
    assert_eq!(
        ch.receive_timeout(Duration::from_millis(20)),
        Err(RecvError::Cancelled)
    );
    // With the buffer free again the same element goes through.
    ch.send_timeout(2, DEADLINE).unwrap();
    assert_eq!(ch.receive_timeout(DEADLINE), Ok(2));
}

#[test]
fn timeouts_on_a_closed_channel_fail_fast() {
    let ch: CqsChannel<u32> = CqsChannel::bounded(1);
    ch.close();
    let start = Instant::now();
    match ch.send_timeout(1, DEADLINE) {
        Err(SendError::Closed(v)) => assert_eq!(v, 1),
        other => panic!("expected Closed, got {other:?}"),
    }
    assert_eq!(ch.receive_timeout(DEADLINE), Err(RecvError::Closed));
    assert!(
        start.elapsed() < Duration::from_secs(2),
        "closed-channel timeouts must not wait out their deadline"
    );
}

/// The featureless race: a rendezvous receiver abandoning at its deadline
/// vs a sender arriving around the same instant. Either the handoff
/// happened (both sides agree Ok) or it did not (receiver timed out *and*
/// the sender got its element back).
#[test]
fn rendezvous_timeout_vs_delivery_agree() {
    for round in 0..32u64 {
        let ch: Arc<CqsChannel<u64>> = Arc::new(CqsChannel::rendezvous());
        let receiver = {
            let ch = Arc::clone(&ch);
            std::thread::spawn(move || ch.receive_timeout(Duration::from_millis(2)))
        };
        // Four arrivals inside the receive deadline and one well past it,
        // none *on* it: a cancel that loses to a delivery already in flight
        // re-pockets the element (`cqs-channel` docs, "A refused hand-off"),
        // which this test's strict agreement does not admit. The exact
        // coincidence belongs to the seeded `chaos_race` below.
        const ARRIVAL_US: [u64; 5] = [0, 500, 1000, 1500, 4000];
        std::thread::sleep(Duration::from_micros(ARRIVAL_US[(round % 5) as usize]));
        let sent = ch.send_timeout(round, Duration::from_millis(20));
        let received = receiver.join().unwrap();
        match (received, sent) {
            (Ok(v), Ok(())) => assert_eq!(v, round, "handoff delivered the wrong element"),
            (Err(RecvError::Cancelled), Err(SendError::Cancelled(v))) => {
                assert_eq!(v, round, "abandoned handoff must return the element")
            }
            (r, s) => panic!("round {round}: sides disagree — receiver {r:?}, sender {s:?}"),
        }
        assert!(
            ch.close().is_empty(),
            "round {round}: rendezvous buffered an element"
        );
    }
}

/// Pinned-seed regression: the same race under the chaos scheduler's
/// seeded delays, which push the cancel/deliver interleaving through the
/// labelled windows in both orders. Replay a failure with
/// `CQS_CHAOS_SEED=<seed>`.
#[cfg(feature = "chaos")]
mod chaos_race {
    use super::*;

    #[test]
    fn seeded_timeout_vs_delivery_race_conserves_elements() {
        for i in 0..72u64 {
            let seed = 0x71E0_0000 + i * 7919;
            cqs_chaos::set_seed(seed);
            let ch: Arc<CqsChannel<u64>> = Arc::new(CqsChannel::rendezvous());
            let receiver = {
                let ch = Arc::clone(&ch);
                std::thread::spawn(move || ch.receive_timeout(Duration::from_millis(1 + i % 4)))
            };
            let sent = ch.send_timeout(i, Duration::from_millis(25));
            let received = receiver.join().unwrap();
            match (received, sent) {
                (Ok(v), Ok(())) => {
                    assert_eq!(v, i, "seed {seed:#x}: wrong element delivered")
                }
                (Err(RecvError::Cancelled), Err(SendError::Cancelled(v))) => {
                    assert_eq!(v, i, "seed {seed:#x}: element not returned")
                }
                (r, s) => panic!(
                    "seed {seed:#x}: duplication or loss — receiver {r:?}, sender {s:?} \
                     (replay with CQS_CHAOS_SEED={seed})"
                ),
            }
            assert!(
                ch.close().is_empty(),
                "seed {seed:#x}: rendezvous channel buffered an element"
            );
            cqs_chaos::disable();
        }
    }
}
