//! Counting `#[global_allocator]`: allocation count, allocated bytes and the
//! heap high-water mark, with per-thread-striped counters so that the two
//! `pipeline` threads never share a counter cache line.
//!
//! Each thread owns one [`Stripe`] (claimed on its first allocation) and
//! updates it with plain load/store pairs — no RMW on the hot path. The
//! live-byte total is global by nature; a thread accumulates its net change
//! in `pending` and folds it into [`LIVE`]/[`PEAK`] only once it drifts by
//! [`FLUSH_BYTES`], so the high-water mark is exact to within
//! `FLUSH_BYTES` per thread and still a pure function of the allocation
//! sequence (bit-identical across same-seed single-thread runs).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicI64, AtomicU64, AtomicUsize, Ordering::Relaxed};

const STRIPES: usize = 64;
/// The last stripe is shared by every thread past the first `STRIPES - 1`
/// and therefore updated with RMWs; the benchmark never starts that many.
const SHARED: usize = STRIPES - 1;
const FLUSH_BYTES: i64 = 256;

#[repr(align(128))]
struct Stripe {
    allocs: AtomicU64,
    bytes: AtomicU64,
    pending: AtomicI64,
}

#[repr(align(128))]
struct Padded<T>(T);

#[allow(clippy::declare_interior_mutable_const)]
const EMPTY: Stripe = Stripe {
    allocs: AtomicU64::new(0),
    bytes: AtomicU64::new(0),
    pending: AtomicI64::new(0),
};
static STRIPE: [Stripe; STRIPES] = [EMPTY; STRIPES];
static NEXT_STRIPE: AtomicUsize = AtomicUsize::new(0);
static LIVE: Padded<AtomicI64> = Padded(AtomicI64::new(0));
static PEAK: Padded<AtomicI64> = Padded(AtomicI64::new(0));

thread_local! {
    // Const-initialised and `Drop`-free: touching it never allocates and is
    // valid during thread teardown, which an allocator hook requires.
    static MY_STRIPE: Cell<usize> = const { Cell::new(usize::MAX) };
}

fn my_stripe() -> usize {
    MY_STRIPE.with(|cell| {
        let mut idx = cell.get();
        if idx == usize::MAX {
            idx = NEXT_STRIPE.fetch_add(1, Relaxed).min(SHARED);
            cell.set(idx);
        }
        idx
    })
}

fn fold(delta: i64) {
    let live = LIVE.0.fetch_add(delta, Relaxed) + delta;
    if live > PEAK.0.load(Relaxed) {
        PEAK.0.fetch_max(live, Relaxed);
    }
}

fn note(allocated: bool, delta: i64) {
    let idx = my_stripe();
    let s = &STRIPE[idx];
    if idx == SHARED {
        if allocated {
            s.allocs.fetch_add(1, Relaxed);
            s.bytes.fetch_add(delta as u64, Relaxed);
        }
        if (s.pending.fetch_add(delta, Relaxed) + delta).abs() >= FLUSH_BYTES {
            fold(s.pending.swap(0, Relaxed));
        }
        return;
    }
    // Exclusively owned stripe: plain load + store, readers only sum.
    if allocated {
        s.allocs.store(s.allocs.load(Relaxed) + 1, Relaxed);
        s.bytes.store(s.bytes.load(Relaxed) + delta as u64, Relaxed);
    }
    let pending = s.pending.load(Relaxed) + delta;
    if pending.abs() >= FLUSH_BYTES {
        s.pending.store(0, Relaxed);
        fold(pending);
    } else {
        s.pending.store(pending, Relaxed);
    }
}

pub struct Counting;

// SAFETY: every call forwards to `System` with the caller's layout
// unchanged; the bookkeeping around it touches only atomics and a
// const-initialised thread-local, so it neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            note(true, layout.size() as i64);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            note(true, layout.size() as i64);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        note(false, -(layout.size() as i64));
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            note(false, -(layout.size() as i64));
            note(true, new_size as i64);
        }
        p
    }
}

/// Totals since process start, summed over all stripes.
#[derive(Debug, Clone, Copy, Default)]
pub struct Snapshot {
    pub allocs: u64,
    pub bytes: u64,
    /// Bytes currently allocated (folded total plus every thread's pending).
    pub live: i64,
}

pub fn snapshot() -> Snapshot {
    let mut snap = Snapshot {
        live: LIVE.0.load(Relaxed),
        ..Snapshot::default()
    };
    for s in &STRIPE {
        snap.allocs += s.allocs.load(Relaxed);
        snap.bytes += s.bytes.load(Relaxed);
        snap.live += s.pending.load(Relaxed);
    }
    snap
}

/// Restarts high-water tracking from the current live total and returns it.
/// Call only while no other thread is allocating.
pub fn reset_peak() -> i64 {
    let live = snapshot().live;
    PEAK.0.store(live, Relaxed);
    live
}

/// The high-water mark of live bytes since the last [`reset_peak`].
pub fn peak() -> i64 {
    PEAK.0.load(Relaxed).max(snapshot().live)
}
