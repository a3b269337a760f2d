//! Seeded chaos storms for the segment-native `CqsChannel` (run with
//! `--features chaos`).
//!
//! The storms drive send/receive/cancel/close traffic across 72 fixed
//! seeds while every labelled `channel.*` race window (claim vs. retrieve,
//! deliver vs. cancel, grant vs. timeout, close vs. in-flight send) is
//! stretched by the seeded scheduler, and assert the channel's
//! conservation contract under each schedule:
//!
//! * **zero lost elements** — every element sent lands in exactly one
//!   sink: a receiver, a `SendError`, or the `close()`/`drain()` sweep;
//! * **exactly-once delivery** — sums and counts of distinct elements
//!   match across the storm (a duplicate or a drop breaks both);
//! * **zero leaked capacity** — after quiescence a bounded channel
//!   accepts exactly `capacity` immediate sends again.
//!
//! Every assertion message carries the active seed: replay with
//! `CQS_CHAOS_SEED=<seed> cargo test --features chaos --test channel_chaos
//! -- --test-threads=1`.

#![cfg(feature = "chaos")]

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex as StdMutex, OnceLock};
use std::time::Duration;

use cqs::{CqsChannel, RecvError};

/// Chaos seeding is process-global; storms must not interleave.
fn storm_lock() -> &'static StdMutex<()> {
    static LOCK: OnceLock<StdMutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| StdMutex::new(()))
}

/// 64+ distinct, reproducible seeds (acceptance floor is 64).
fn seeds() -> impl Iterator<Item = u64> {
    (0..72u64).map(|i| 0x5EED_0000 + i * 7919)
}

/// Far above any chaos-induced delay; a miss means a lost wakeup.
const DEADLINE: Duration = Duration::from_secs(10);

/// One send/receive/cancel storm round on `ch` under the current seed:
/// 2 senders push distinct values (some sends aborting), 2 receivers
/// drain with tiny timeouts until the senders are done and the channel is
/// empty. Returns `(accepted_sum, received_sum, accepted_n, received_n)`.
fn conservation_round(ch: Arc<CqsChannel<u64>>, seed: u64) -> (u64, u64, usize, usize) {
    const SENDERS: u64 = 2;
    const PER_SENDER: u64 = 15;
    let accepted_sum = Arc::new(AtomicU64::new(0));
    let accepted_n = Arc::new(AtomicUsize::new(0));
    let received_sum = Arc::new(AtomicU64::new(0));
    let received_n = Arc::new(AtomicUsize::new(0));
    let done = Arc::new(AtomicBool::new(false));

    let mut joins = Vec::new();
    for t in 0..SENDERS {
        let ch = Arc::clone(&ch);
        let accepted_sum = Arc::clone(&accepted_sum);
        let accepted_n = Arc::clone(&accepted_n);
        joins.push(std::thread::spawn(move || {
            for i in 0..PER_SENDER {
                let v = t * PER_SENDER + i + 1;
                let f = ch.send(v);
                // A fifth of the sends try to abort mid-flight.
                if (i + t) % 5 == 0 && f.cancel() {
                    // An `Ok` here means the grant outran the cancel.
                    if let Err(e) = f.wait() {
                        assert_eq!(
                            e.into_inner(),
                            v,
                            "cancelled send returned the wrong element under seed {seed}: \
                             replay with CQS_CHAOS_SEED={seed}"
                        );
                        continue;
                    }
                } else {
                    f.wait_timeout(DEADLINE).unwrap_or_else(|_| {
                        panic!("send lost under seed {seed}: replay with CQS_CHAOS_SEED={seed}")
                    });
                }
                accepted_sum.fetch_add(v, Ordering::SeqCst);
                accepted_n.fetch_add(1, Ordering::SeqCst);
            }
        }));
    }
    for _ in 0..2 {
        let ch = Arc::clone(&ch);
        let received_sum = Arc::clone(&received_sum);
        let received_n = Arc::clone(&received_n);
        let done = Arc::clone(&done);
        joins.push(std::thread::spawn(move || loop {
            match ch.receive().wait_timeout(Duration::from_millis(2)) {
                Ok(v) => {
                    received_sum.fetch_add(v, Ordering::SeqCst);
                    received_n.fetch_add(1, Ordering::SeqCst);
                }
                Err(_) => {
                    if done.load(Ordering::SeqCst) && ch.is_empty() {
                        return;
                    }
                }
            }
        }));
    }
    // Senders were spawned first: once they are all joined, flip `done`
    // so the receivers can wind down on an empty channel.
    for (i, j) in joins.into_iter().enumerate() {
        if i == SENDERS as usize {
            done.store(true, Ordering::SeqCst);
        }
        j.join().unwrap_or_else(|_| {
            panic!("storm thread panicked under seed {seed}: replay with CQS_CHAOS_SEED={seed}")
        });
    }
    done.store(true, Ordering::SeqCst);
    (
        accepted_sum.load(Ordering::SeqCst),
        received_sum.load(Ordering::SeqCst),
        accepted_n.load(Ordering::SeqCst),
        received_n.load(Ordering::SeqCst),
    )
}

/// Send/receive/cancel storm across seeds on all three channel shapes:
/// exactly-once delivery (matching sums and counts) and, for the bounded
/// shape, full capacity back at quiescence.
#[test]
fn channel_storm_across_seeds_conserves_elements_and_slots() {
    let _serial = storm_lock().lock().unwrap();
    for seed in seeds() {
        for capacity in [Some(2usize), Some(0), None] {
            cqs_chaos::set_seed(seed);
            let ch = Arc::new(match capacity {
                Some(0) => CqsChannel::rendezvous(),
                Some(c) => CqsChannel::bounded(c),
                None => CqsChannel::unbounded(),
            });
            let (accepted_sum, received_sum, accepted_n, received_n) =
                conservation_round(Arc::clone(&ch), seed);
            assert_eq!(
                (received_sum, received_n),
                (accepted_sum, accepted_n),
                "elements lost or duplicated (capacity {capacity:?}) under seed {seed}: \
                 replay with CQS_CHAOS_SEED={seed}"
            );
            // Zero leaked capacity: a bounded channel accepts exactly
            // `capacity` immediate sends again.
            if let Some(c @ 1..) = capacity {
                let fs: Vec<_> = (0..c as u64).map(|v| ch.send(v)).collect();
                for f in &fs {
                    assert!(
                        f.is_immediate(),
                        "capacity slot leaked under seed {seed}: \
                         replay with CQS_CHAOS_SEED={seed}"
                    );
                }
                assert!(
                    !ch.send(99).is_immediate(),
                    "phantom capacity slot under seed {seed}: \
                     replay with CQS_CHAOS_SEED={seed}"
                );
            }
            cqs_chaos::disable();
        }
    }
}

/// Close racing live traffic across seeds: every element sent lands in
/// exactly one sink — a receiver, the sender's own `SendError`, or the
/// `close()`/`drain()` sweep.
#[test]
fn close_storm_across_seeds_loses_nothing() {
    let _serial = storm_lock().lock().unwrap();
    const SENDERS: u64 = 2;
    const PER_SENDER: u64 = 10;
    const TOTAL: u64 = SENDERS * PER_SENDER * (SENDERS * PER_SENDER + 1) / 2;
    for seed in seeds() {
        cqs_chaos::set_seed(seed);
        let ch = Arc::new(CqsChannel::bounded(2));
        let accepted_sum = Arc::new(AtomicU64::new(0));
        let errored_sum = Arc::new(AtomicU64::new(0));
        let delivered_sum = Arc::new(AtomicU64::new(0));
        let mut joins = Vec::new();
        for t in 0..SENDERS {
            let ch = Arc::clone(&ch);
            let accepted_sum = Arc::clone(&accepted_sum);
            let errored_sum = Arc::clone(&errored_sum);
            joins.push(std::thread::spawn(move || {
                for i in 0..PER_SENDER {
                    let v = t * PER_SENDER + i + 1;
                    match ch.send(v).wait_timeout(DEADLINE) {
                        Ok(()) => {
                            accepted_sum.fetch_add(v, Ordering::SeqCst);
                        }
                        Err(e) => {
                            errored_sum.fetch_add(e.into_inner(), Ordering::SeqCst);
                        }
                    }
                }
            }));
        }
        for _ in 0..2 {
            let ch = Arc::clone(&ch);
            let delivered_sum = Arc::clone(&delivered_sum);
            joins.push(std::thread::spawn(move || loop {
                match ch.receive().wait_timeout(Duration::from_millis(2)) {
                    Ok(v) => {
                        delivered_sum.fetch_add(v, Ordering::SeqCst);
                    }
                    Err(RecvError::Closed | RecvError::Poisoned) => return,
                    Err(RecvError::Cancelled) => {}
                }
            }));
        }
        // Close in the thick of it.
        std::thread::yield_now();
        let mut returned: u64 = ch.close().into_iter().sum();
        for j in joins {
            j.join().unwrap_or_else(|_| {
                panic!(
                    "close-storm thread panicked under seed {seed}: \
                     replay with CQS_CHAOS_SEED={seed}"
                )
            });
        }
        // Post-join: racing sends have fully landed; collect stragglers.
        returned += ch.drain().into_iter().sum::<u64>();
        let delivered = delivered_sum.load(Ordering::SeqCst);
        let errored = errored_sum.load(Ordering::SeqCst);
        let accepted = accepted_sum.load(Ordering::SeqCst);
        assert_eq!(
            delivered + returned + errored,
            TOTAL,
            "elements lost across close under seed {seed} \
             (delivered {delivered} + returned {returned} + errored {errored} != {TOTAL}): \
             replay with CQS_CHAOS_SEED={seed}"
        );
        assert_eq!(
            delivered + returned,
            accepted,
            "accepted-element ledger broken under seed {seed}: \
             replay with CQS_CHAOS_SEED={seed}"
        );
        cqs_chaos::disable();
    }
}
