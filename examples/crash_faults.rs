//! Demonstrates the crash-fault injector and the panic-safe hardening it
//! polices: seeded, budgeted panics land inside the labelled fault
//! windows (`cqs.resume-n.fault.mid-batch`, `channel.send.fault.buffered`,
//! `future.wake.fault.pre-fire`, `cqs.close.fault.mid-sweep`, ...) while
//! producers and consumers race, and every round still proves the two
//! contracts of the hardening work:
//!
//! * **conservation** — every element ends in exactly one sink
//!   (consumed, returned inside an error, left over at close, or
//!   recovered by `drain()`), crash or no crash;
//! * **fail-fast aftermath** — a crashed round leaves the channel
//!   poisoned, and both directions error promptly instead of parking.
//!
//! Run with `cargo run --release --features chaos --example crash_faults`.
//! Without `--features chaos` the injector is compiled out and the same
//! rounds run crash-free (the conservation checks still hold).

use cqs::{CqsChannel, RecvError};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const ROUNDS: u64 = 24;
const PRODUCERS: u64 = 3;
const PER_PRODUCER: u64 = 8;
const FAIL_FAST: Duration = Duration::from_secs(2);

fn is_injected(payload: &(dyn std::any::Any + Send)) -> bool {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.contains("injected crash fault"))
        .or_else(|| {
            payload
                .downcast_ref::<String>()
                .map(|s| s.contains("injected crash fault"))
        })
        .unwrap_or(false)
}

/// One producer/consumer round; returns (crashed_anywhere, poisoned).
fn round(seed: u64) -> (bool, bool) {
    cqs_chaos::set_seed(seed);
    cqs_chaos::set_faults(seed, 1 + seed % 3);

    let ch: Arc<CqsChannel<u64>> = Arc::new(CqsChannel::bounded(4));
    let attempted = Arc::new(AtomicUsize::new(0));
    let returned = Arc::new(AtomicUsize::new(0));
    let consumed = Arc::new(AtomicUsize::new(0));

    let consumer = {
        let ch = Arc::clone(&ch);
        let consumed = Arc::clone(&consumed);
        std::thread::spawn(move || loop {
            let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                ch.receive().wait_timeout(Duration::from_millis(50))
            }));
            match r {
                Ok(Ok(_)) => {
                    consumed.fetch_add(1, Ordering::SeqCst);
                }
                Ok(Err(RecvError::Closed) | Err(RecvError::Poisoned)) => return false,
                Ok(Err(RecvError::Cancelled)) => {}
                Err(p) => {
                    assert!(is_injected(p.as_ref()), "non-injected panic in consumer");
                    return true; // injector crashed this consumer
                }
            }
        })
    };

    let producers: Vec<_> = (0..PRODUCERS)
        .map(|p| {
            let ch = Arc::clone(&ch);
            let attempted = Arc::clone(&attempted);
            let returned = Arc::clone(&returned);
            std::thread::spawn(move || {
                for k in 0..PER_PRODUCER {
                    attempted.fetch_add(1, Ordering::SeqCst);
                    let v = p * PER_PRODUCER + k;
                    let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        ch.send(v).wait_timeout(Duration::from_millis(200))
                    }));
                    match r {
                        Ok(Ok(())) => {}
                        Ok(Err(_)) => {
                            returned.fetch_add(1, Ordering::SeqCst);
                        }
                        Err(p) => {
                            assert!(is_injected(p.as_ref()), "non-injected panic in producer");
                            return true; // the element stays in its cell for drain()
                        }
                    }
                }
                false
            })
        })
        .collect();

    let mut crashed = false;
    for j in producers {
        crashed |= j.join().expect("producer thread died");
    }
    let leftovers = match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| ch.close())) {
        Ok(v) => v,
        Err(p) => {
            assert!(is_injected(p.as_ref()), "non-injected panic in close");
            crashed = true;
            Vec::new()
        }
    };
    crashed |= consumer.join().expect("consumer thread died");
    let drained = ch.drain();

    let accounted = consumed.load(Ordering::SeqCst)
        + returned.load(Ordering::SeqCst)
        + leftovers.len()
        + drained.len();
    assert_eq!(
        accounted,
        attempted.load(Ordering::SeqCst),
        "conservation violated at seed {seed:#x}"
    );

    if crashed {
        assert!(ch.is_poisoned(), "crash without poison at seed {seed:#x}");
    }
    // Aftermath: closed or poisoned, both directions error fast.
    let start = Instant::now();
    assert!(ch.send(999).wait_timeout(FAIL_FAST).is_err() && start.elapsed() < FAIL_FAST);
    let start = Instant::now();
    assert!(ch.receive().wait_timeout(FAIL_FAST).is_err() && start.elapsed() < FAIL_FAST);

    let poisoned = ch.is_poisoned();
    cqs_chaos::clear_faults();
    cqs_chaos::disable();
    (crashed, poisoned)
}

fn main() {
    println!(
        "chaos injection: enabled={} (faults armed: {})",
        cqs_chaos::is_enabled(),
        cqs_chaos::faults_remaining()
    );

    // Injected panics are expected by the dozen; keep the output to the
    // summary lines but let any real failure through loudly.
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|info| {
        let quiet = info
            .payload()
            .downcast_ref::<&str>()
            .map(|s| s.contains("injected crash fault"))
            .or_else(|| {
                info.payload()
                    .downcast_ref::<String>()
                    .map(|s| s.contains("injected crash fault"))
            })
            .unwrap_or(false);
        if !quiet {
            eprintln!("panic: {info}");
        }
    }));

    let (mut crashed_rounds, mut poisoned_rounds) = (0u64, 0u64);
    for i in 0..ROUNDS {
        let (crashed, poisoned) = round(0xC4A5_0000 + i * 7919);
        crashed_rounds += crashed as u64;
        poisoned_rounds += poisoned as u64;
    }
    std::panic::set_hook(prev);

    println!(
        "{ROUNDS} rounds of {} sends each: {crashed_rounds} crashed, \
         {poisoned_rounds} left the channel poisoned, conservation held in all",
        PRODUCERS * PER_PRODUCER
    );
    // The fault *stream* is seed-deterministic, but which windows get
    // crossed depends on the OS schedule, so the total varies run to run
    // — what never varies is the contract asserted inside every round.
    println!("crash faults injected: {}", cqs_chaos::faults_injected());
    assert!(
        !cfg!(feature = "chaos") || cqs_chaos::faults_injected() > 0,
        "chaos was compiled in but no fault ever fired"
    );
}
