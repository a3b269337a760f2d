//! Demonstrates the pluggable memory-reclamation seam: every queue picks
//! one of two backends at construction (epoch, or the GC-free owned-slot
//! backend) and behaves identically through the public API — reclamation
//! is a memory concern, never a semantic one. The second half shows the
//! difference that *does* exist: what happens to deferred memory when a
//! thread stalls while holding a guard.
//!
//! Run with `--features chaos` (optionally `CQS_CHAOS_SEED=<n>`) to
//! stretch the race windows with the deterministic fault-injection layer.

use cqs::reclaim::{flush_reclaimer, pin_with, retired_approx};
use cqs::{Cqs, CqsChannel, CqsConfig, ReclaimerKind, Semaphore, SimpleCancellation};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

fn main() {
    println!(
        "chaos injection: enabled={} (fired so far: {})",
        cqs_chaos::is_enabled(),
        cqs_chaos::fired_count()
    );

    // --- Same semantics on every backend ------------------------------
    // A suspend/resume round-trip plus a cancellation, per backend. The
    // outcomes are identical; only the reclamation machinery underneath
    // differs.
    for kind in ReclaimerKind::ALL {
        let cqs: Cqs<u64> = Cqs::new(CqsConfig::new().reclaimer(kind), SimpleCancellation);
        assert_eq!(cqs.reclaimer(), kind);

        let parked = cqs.suspend().expect_future();
        assert!(!parked.is_immediate(), "[{kind}] first suspend must park");
        cqs.resume(7).expect("resume with a parked waiter");
        assert_eq!(parked.wait(), Ok(7));

        let cancelled = cqs.suspend().expect_future();
        assert!(cancelled.cancel(), "[{kind}] cancel of a parked waiter");
        // Simple cancellation: a resume landing on the cancelled cell
        // bounces the value back instead of losing it.
        assert_eq!(cqs.resume(8), Err(8));
        println!("[{kind}] round-trip + cancel-bounce: ok");
    }

    // --- Per-primitive selection --------------------------------------
    // `Semaphore` and `CqsChannel` wrap `CqsConfig::reclaimer`; the knob
    // changes neither contract.
    let sem = Arc::new(Semaphore::with_reclaimer(2, ReclaimerKind::Owned));
    let holders: Vec<_> = (0..4)
        .map(|_| {
            let sem = Arc::clone(&sem);
            std::thread::spawn(move || {
                for _ in 0..100 {
                    sem.acquire().wait().unwrap();
                    sem.release();
                }
            })
        })
        .collect();
    for h in holders {
        h.join().unwrap();
    }
    println!("Semaphore::with_reclaimer(2, Owned): 4x100 acquire/release ok");

    let ch = Arc::new(CqsChannel::bounded_with_reclaimer(1, ReclaimerKind::Owned));
    let recv = {
        let ch = Arc::clone(&ch);
        std::thread::spawn(move || ch.receive().wait())
    };
    ch.send(99u32).wait().unwrap();
    assert_eq!(recv.join().unwrap(), Ok(99));
    println!("CqsChannel::bounded_with_reclaimer(1, Owned): hand-off ok");

    // --- The stalled-guard difference ---------------------------------
    // A side thread takes a guard and sits on it while another thread
    // churns a queue (freelist disabled so displaced segments actually
    // retire). Epoch defers everything behind the stalled pin; the
    // owned-slot backend keeps reclaiming because its guards are free
    // tokens that protect nothing.
    for kind in [ReclaimerKind::Epoch, ReclaimerKind::Owned] {
        let before = retired_approx(kind);
        let hold = Arc::new(AtomicBool::new(true));
        let ready = Arc::new(AtomicBool::new(false));
        let holder = {
            let (hold, ready) = (Arc::clone(&hold), Arc::clone(&ready));
            std::thread::spawn(move || {
                let guard = pin_with(kind);
                ready.store(true, Ordering::Release);
                while hold.load(Ordering::Acquire) {
                    std::thread::yield_now();
                }
                drop(guard);
            })
        };
        while !ready.load(Ordering::Acquire) {
            std::hint::spin_loop();
        }

        let cqs: Cqs<u64> = Cqs::new(
            CqsConfig::new()
                .segment_size(2)
                .freelist_slots(0)
                .reclaimer(kind),
            SimpleCancellation,
        );
        for v in 0..200u64 {
            let f = cqs.suspend().expect_future();
            let mut v = v;
            while let Err(bounced) = cqs.resume(v) {
                v = bounced;
            }
            f.wait().unwrap();
        }

        let during = retired_approx(kind).saturating_sub(before);
        hold.store(false, Ordering::Release);
        holder.join().unwrap();
        drop(cqs);
        assert!(
            flush_reclaimer(kind),
            "[{kind}] backlog stuck after release"
        );
        let after = retired_approx(kind);
        println!("[{kind}] backlog under stalled guard: {during} (after flush: {after})");
        match kind {
            ReclaimerKind::Epoch => assert!(
                during > 0,
                "epoch reclaimed through a stalled pin (backlog {during})"
            ),
            _ => assert!(
                during < 64,
                "{kind} backlog {during} not bounded under a stalled guard"
            ),
        }
    }

    println!("done (chaos points fired: {})", cqs_chaos::fired_count());
}
