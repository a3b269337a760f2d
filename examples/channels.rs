//! Drives the `cqs-channel` crate end-to-end: a rendezvous
//! hand-off, bounded backpressure, a cancelled send that hands its element
//! back, a receive timeout, an unbounded fan-in, and `close()` returning
//! the values of every sender it stranded.
//!
//! Run with `--features chaos` (optionally `CQS_CHAOS_SEED=<n>`) to
//! stretch the race windows with the deterministic fault-injection layer.

use cqs::channels::{CqsChannel, RecvError, SendError};
use std::sync::Arc;
use std::time::Duration;

fn main() {
    println!(
        "chaos injection: enabled={} (fired so far: {})",
        cqs_chaos::is_enabled(),
        cqs_chaos::fired_count()
    );

    // --- Rendezvous: a send completes only when a receiver takes it ----
    let ch = Arc::new(CqsChannel::rendezvous());
    let sender = {
        let ch = Arc::clone(&ch);
        std::thread::spawn(move || ch.send(42u64).wait())
    };
    std::thread::sleep(Duration::from_millis(50)); // let the sender park
    assert_eq!(ch.len(), 0, "rendezvous channel buffered an element");
    assert_eq!(ch.receive().wait(), Ok(42));
    sender.join().unwrap().expect("rendezvous send failed");
    println!("rendezvous: element handed off sender -> receiver");

    // --- Bounded(2): the third send suspends until a receive frees a slot
    let ch = Arc::new(CqsChannel::bounded(2));
    assert!(ch.send(1u32).is_immediate());
    assert!(ch.send(2u32).is_immediate());
    let third = ch.send(3u32);
    assert!(
        !third.is_immediate(),
        "send into a full buffer ran immediately"
    );
    let waiter = {
        let ch = Arc::clone(&ch);
        std::thread::spawn(move || ch.receive().wait())
    };
    assert_eq!(waiter.join().unwrap(), Ok(1));
    third.wait().expect("unblocked send failed");
    println!(
        "bounded(2): backpressure held, then released (len now {})",
        ch.len()
    );

    // --- A cancelled send hands its element back --------------------------
    let fourth = ch.send(4u32);
    assert!(!fourth.is_immediate());
    assert!(fourth.cancel(), "queued send refused to cancel");
    match fourth.wait() {
        Err(SendError::Cancelled(v)) => {
            assert_eq!(v, 4);
            println!("cancelled send returned its element: {v}");
        }
        other => panic!("expected Cancelled(4), got {other:?}"),
    }
    assert_eq!(ch.receive().wait(), Ok(2));
    assert_eq!(ch.receive().wait(), Ok(3));

    // --- A receive on an empty channel times out cleanly ------------------
    match ch.receive().wait_timeout(Duration::from_millis(20)) {
        Err(RecvError::Cancelled) => println!("empty-channel receive timed out"),
        other => panic!("expected a timeout, got {other:?}"),
    }

    // --- Unbounded fan-in: every send is immediate, nothing is lost -------
    let ch = Arc::new(CqsChannel::unbounded());
    let producers: Vec<_> = (0..4u64)
        .map(|t| {
            let ch = Arc::clone(&ch);
            std::thread::spawn(move || {
                for v in 0..25u64 {
                    ch.send(t * 25 + v).wait().expect("unbounded send failed");
                }
            })
        })
        .collect();
    for p in producers {
        p.join().unwrap();
    }
    let mut sum = 0;
    for _ in 0..100 {
        sum += ch.receive().wait().expect("drain receive failed");
    }
    assert_eq!(sum, (0..100).sum::<u64>());
    println!("unbounded: 4 producers x 25 elements, all 100 accounted for");

    // --- close() hands stranded senders their elements back and returns
    // --- whatever the buffer still held ------------------------------------
    let ch = Arc::new(CqsChannel::bounded(2));
    assert!(ch.send(10u32).is_immediate());
    assert!(ch.send(11u32).is_immediate()); // buffer now full
    let stranded: Vec<_> = (0..3u32)
        .map(|v| {
            let ch = Arc::clone(&ch);
            std::thread::spawn(move || ch.send(v).wait())
        })
        .collect();
    std::thread::sleep(Duration::from_millis(50)); // let all three park
    let mut buffered = ch.close();
    buffered.sort_unstable();
    assert_eq!(buffered, vec![10, 11], "close() lost a buffered element");
    assert!(ch.is_closed());
    let mut handed_back: Vec<u32> = stranded
        .into_iter()
        .map(|s| match s.join().unwrap() {
            Err(SendError::Closed(v)) => v,
            other => panic!("stranded sender saw {other:?}"),
        })
        .collect();
    handed_back.sort_unstable();
    assert_eq!(
        handed_back,
        vec![0, 1, 2],
        "a stranded element went missing"
    );
    assert_eq!(ch.receive().wait(), Err(RecvError::Closed));
    assert!(
        ch.drain().is_empty(),
        "quiescent close left elements behind"
    );
    println!(
        "close(): buffer {buffered:?} returned by close, stranded {handed_back:?} \
         handed back inside SendError::Closed"
    );

    println!("done (chaos points fired: {})", cqs_chaos::fired_count());
}
