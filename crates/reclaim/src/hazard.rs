//! The **hazard-pointer** reclamation backend (Michael, 2004).
//!
//! Each thread owns a registered record with a small array of hazard
//! slots. `AtomicArc::load` publishes the candidate pointer in a free
//! slot, validates that the cell still holds it, takes a strong reference
//! and clears the slot — so a slot is only ever occupied for the few
//! instructions of one load. Retired objects go on the retiring thread's
//! private list; when the list reaches [`SCAN_THRESHOLD`], it is scanned
//! against every published hazard and the non-hazarded entries are freed.
//!
//! The selling point over epochs is the **memory bound**: a thread stalled
//! while holding a guard (or parked mid-operation) pins at most its
//! [`HP_SLOTS`] published pointers, never an unbounded epoch bag — total
//! unreclaimed garbage is bounded by
//! `threads × (SCAN_THRESHOLD + HP_SLOTS)` objects, regardless of stalls.
//! The price is two ordered operations (publish + validate with a full
//! fence between) on every load.
//!
//! Records are never deallocated: a dying thread clears its slots, spills
//! its un-scanned retire list into a global fallback (picked up by the
//! next scan), and marks the record inactive so the next new thread
//! reuses it. The registry therefore grows to the high-water mark of
//! concurrent threads and no further.

use crate::guard::Retired;
use std::cell::{Cell, UnsafeCell};
use std::ptr;
use std::sync::atomic::{fence, AtomicPtr, AtomicUsize, Ordering};
use std::sync::Arc;
use std::sync::Mutex;

/// Hazard slots per thread record. Loads occupy a slot only transiently,
/// so one would do today; the spares keep the protocol robust if a future
/// call path ever needs to protect two pointers at once.
const HP_SLOTS: usize = 4;

/// A thread's private retire list is scanned once it reaches this length.
const SCAN_THRESHOLD: usize = 64;

/// One registered thread's hazard state. Shared fields (`slots`,
/// `active`, `next`) are read by every scanning thread; `retired` is
/// owned by the thread that holds `active == 1` (ownership is handed over
/// through the acquire/release CAS on `active`).
struct HazardRecord {
    slots: [AtomicPtr<()>; HP_SLOTS],
    /// 1 while a live thread owns this record, 0 when it is free for
    /// reuse. Acquire/release on this flag transfers `retired`.
    active: AtomicUsize,
    /// Intrusive registry link; immutable once published.
    next: AtomicPtr<HazardRecord>,
    retired: UnsafeCell<Vec<Retired>>,
}

// SAFETY: the atomic fields are safely shared; `retired` is only touched
// by the unique owner thread (see `active` above), making the record as a
// whole safe to reference from many threads.
unsafe impl Sync for HazardRecord {}
unsafe impl Send for HazardRecord {}

impl HazardRecord {
    fn new() -> Self {
        #[allow(clippy::declare_interior_mutable_const)]
        const NULL_SLOT: AtomicPtr<()> = AtomicPtr::new(ptr::null_mut());
        HazardRecord {
            slots: [NULL_SLOT; HP_SLOTS],
            active: AtomicUsize::new(1),
            next: AtomicPtr::new(ptr::null_mut()),
            retired: UnsafeCell::new(Vec::new()),
        }
    }
}

/// Head of the global record registry (push-front, never unlinked).
static REGISTRY: AtomicPtr<HazardRecord> = AtomicPtr::new(ptr::null_mut());

/// Retired entries orphaned by exited threads; merged into the next scan.
static FALLBACK: Mutex<Vec<Retired>> = Mutex::new(Vec::new());

/// Gauge: retired-but-not-yet-reclaimed entries across all lists.
static RETIRED_APPROX: AtomicUsize = AtomicUsize::new(0);

/// Walks the registry, claiming an inactive record or registering a new
/// one. Called once per thread (plus the rare TLS-teardown path).
fn acquire_record() -> *const HazardRecord {
    let mut cursor = REGISTRY.load(Ordering::Acquire);
    while !cursor.is_null() {
        // SAFETY: records are never deallocated.
        let record = unsafe { &*cursor };
        if record.active.load(Ordering::Relaxed) == 0
            && record
                .active
                .compare_exchange(0, 1, Ordering::Acquire, Ordering::Relaxed)
                .is_ok()
        {
            return cursor;
        }
        cursor = record.next.load(Ordering::Acquire);
    }
    let fresh = Box::into_raw(Box::new(HazardRecord::new()));
    let mut head = REGISTRY.load(Ordering::Relaxed);
    loop {
        // SAFETY: `fresh` is ours until the CAS publishes it.
        unsafe { (*fresh).next.store(head, Ordering::Relaxed) };
        match REGISTRY.compare_exchange_weak(head, fresh, Ordering::Release, Ordering::Relaxed) {
            Ok(_) => return fresh,
            Err(h) => head = h,
        }
    }
}

/// Releases a record back to the registry, spilling any un-scanned
/// retired entries to the global fallback so they are not stranded.
fn release_record(record: *const HazardRecord) {
    // SAFETY: records are never deallocated; we are the unique owner.
    let record = unsafe { &*record };
    for slot in &record.slots {
        slot.store(ptr::null_mut(), Ordering::Release);
    }
    let leftovers = std::mem::take(unsafe { &mut *record.retired.get() });
    if !leftovers.is_empty() {
        FALLBACK.lock().unwrap().extend(leftovers);
    }
    record.active.store(0, Ordering::Release);
}

/// RAII owner installed in TLS by the first hazard guard on a thread.
struct ThreadRecord {
    record: *const HazardRecord,
}

impl Drop for ThreadRecord {
    fn drop(&mut self) {
        let _ = RECORD_PTR.try_with(|cached| {
            if cached.get() == self.record {
                cached.set(ptr::null());
            }
        });
        release_record(self.record);
    }
}

thread_local! {
    static OWNER: ThreadRecord = ThreadRecord { record: acquire_record() };

    /// Record-pointer cache mirroring the epoch backend's `LOCAL_PTR`
    /// fast path: a const-initialized slot makes a hot re-protect one TLS
    /// read with no lazy-init branch.
    static RECORD_PTR: Cell<*const HazardRecord> = const { Cell::new(ptr::null()) };
}

/// A hazard-backend guard: a handle to the thread's record. Acquiring it
/// publishes nothing — protection happens inside each load.
pub(crate) struct HazardGuard {
    record: *const HazardRecord,
    /// Set only on the TLS-teardown path, where the record was acquired
    /// ad hoc and must be released when the guard drops.
    release_on_drop: bool,
}

impl Drop for HazardGuard {
    fn drop(&mut self) {
        if self.release_on_drop {
            release_record(self.record);
        }
    }
}

pub(crate) fn protect() -> HazardGuard {
    let cached = RECORD_PTR.try_with(Cell::get).unwrap_or(ptr::null());
    if !cached.is_null() {
        return HazardGuard {
            record: cached,
            release_on_drop: false,
        };
    }
    protect_slow()
}

#[cold]
fn protect_slow() -> HazardGuard {
    match OWNER.try_with(|owner| {
        let _ = RECORD_PTR.try_with(|cached| cached.set(owner.record));
        owner.record
    }) {
        Ok(record) => HazardGuard {
            record,
            release_on_drop: false,
        },
        // TLS destruction: borrow a record just for this guard.
        Err(_) => HazardGuard {
            record: acquire_record(),
            release_on_drop: true,
        },
    }
}

/// Clears a hazard slot on scope exit, so a panic inside the protected
/// window (e.g. an injected fault) cannot leak a published hazard.
struct SlotClear<'a>(&'a AtomicPtr<()>);

impl Drop for SlotClear<'_> {
    fn drop(&mut self) {
        self.0.store(ptr::null_mut(), Ordering::Release);
    }
}

impl HazardGuard {
    /// The publish–validate–acquire loop: returns an owned `Arc` clone of
    /// the cell's current value, or `None` if the cell is empty.
    pub(crate) fn load_arc<T>(&self, cell: &AtomicPtr<T>) -> Option<Arc<T>> {
        // SAFETY: records are never deallocated.
        let record = unsafe { &*self.record };
        let slot = record
            .slots
            .iter()
            .find(|s| s.load(Ordering::Relaxed).is_null())
            .expect("a thread cannot nest more loads than it has hazard slots");
        let _clear = SlotClear(slot);
        let mut candidate = cell.load(Ordering::Acquire);
        loop {
            if candidate.is_null() {
                return None;
            }
            slot.store(candidate as *mut (), Ordering::SeqCst);
            // SeqCst fence (invariant): orders the hazard publish before
            // the validation load (StoreLoad) and pairs with the fence at
            // the head of `scan` — either the scan sees our hazard, or we
            // see the displacing write and retry with the new pointer.
            fence(Ordering::SeqCst);
            let current = cell.load(Ordering::Acquire);
            if current == candidate {
                // SAFETY: the cell held `candidate` at the validation
                // load, and the reference it held can only be freed by a
                // scan that postdates the displacement — which, by the
                // fence pairing above, must observe our published hazard
                // and spare it. The strong count is therefore >= 1 until
                // we clear the slot, which `_clear` does only after this
                // increment.
                cqs_stats::bump!(arc_increments);
                unsafe {
                    Arc::increment_strong_count(candidate);
                    return Some(Arc::from_raw(candidate));
                }
            }
            candidate = current;
        }
    }
}

/// Retires an entry onto the guard's record-private list, scanning when
/// the threshold is reached.
pub(crate) fn retire(guard: &HazardGuard, entry: Retired) {
    RETIRED_APPROX.fetch_add(1, Ordering::Relaxed);
    // SAFETY: records are never deallocated, and we own `retired` while
    // the guard (and hence `active == 1`) is ours.
    let record = unsafe { &*guard.record };
    let list = unsafe { &mut *record.retired.get() };
    list.push(entry);
    if list.len() >= SCAN_THRESHOLD {
        scan(record, false);
    }
}

/// Scans `record`'s retire list (plus the global fallback) against every
/// published hazard, freeing the entries no slot protects. Returns whether
/// the list came out empty.
fn scan(record: &HazardRecord, block_on_fallback: bool) -> bool {
    cqs_chaos::inject!("reclaim.hazard.retire.pre-scan");
    cqs_stats::bump!(hp_scans);
    // SeqCst fence (invariant): the scan-side half of the Dekker pairing
    // with `load_arc` — every hazard published before a displacement we
    // are about to act on is visible to the slot reads below.
    fence(Ordering::SeqCst);
    let mut hazards: Vec<*mut ()> = Vec::new();
    let mut cursor = REGISTRY.load(Ordering::Acquire);
    while !cursor.is_null() {
        // SAFETY: records are never deallocated.
        let r = unsafe { &*cursor };
        for slot in &r.slots {
            let p = slot.load(Ordering::SeqCst);
            if !p.is_null() {
                hazards.push(p);
            }
        }
        cursor = r.next.load(Ordering::Acquire);
    }
    // SAFETY: we own `retired` (active == 1 is ours via the guard).
    let list = unsafe { &mut *record.retired.get() };
    {
        let fallback = if block_on_fallback {
            Some(FALLBACK.lock().unwrap())
        } else {
            FALLBACK.try_lock().ok()
        };
        if let Some(mut fallback) = fallback {
            list.append(&mut fallback);
        }
    }
    let mut kept = Vec::new();
    let mut reclaimed = 0usize;
    for entry in list.drain(..) {
        if hazards.contains(&entry.ptr()) {
            kept.push(entry);
        } else {
            // SAFETY: no published hazard names this pointer, and the
            // fence pairing above rules out a reader that validated the
            // pointer before its displacement but published after our
            // slot reads.
            unsafe { entry.reclaim() };
            reclaimed += 1;
        }
    }
    *list = kept;
    if reclaimed > 0 {
        cqs_stats::bump!(retired_reclaimed, reclaimed);
        RETIRED_APPROX.fetch_sub(reclaimed, Ordering::Relaxed);
    }
    list.is_empty()
}

/// Forces a scan of the calling thread's retire list and the global
/// fallback — everything a flush can reach; another live thread's private
/// list (at most [`SCAN_THRESHOLD`] entries) stays that thread's to scan.
/// Returns whether every reachable entry was reclaimed. The hazard
/// counterpart of one epoch `collect`.
pub(crate) fn flush() -> bool {
    let guard = protect();
    // SAFETY: records are never deallocated.
    scan(unsafe { &*guard.record }, true)
}

/// Number of retired objects not yet proven reclaimable.
pub(crate) fn retired_approx() -> usize {
    RETIRED_APPROX.load(Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;

    fn count_entry(flag: &Arc<AtomicBool>) -> Retired {
        let flag = Arc::clone(flag);
        Retired::from_closure(Box::new(move || flag.store(true, Ordering::SeqCst)))
    }

    #[test]
    fn retire_is_deferred_until_scan() {
        let guard = protect();
        let freed = Arc::new(AtomicBool::new(false));
        retire(&guard, count_entry(&freed));
        // Below the scan threshold nothing runs until an explicit flush.
        flush();
        assert!(freed.load(Ordering::SeqCst), "flush must scan and free");
    }

    #[test]
    fn threshold_triggers_scan() {
        let guard = protect();
        let freed = Arc::new(AtomicUsize::new(0));
        for _ in 0..SCAN_THRESHOLD + 2 {
            let freed = Arc::clone(&freed);
            retire(
                &guard,
                Retired::from_closure(Box::new(move || {
                    freed.fetch_add(1, Ordering::SeqCst);
                })),
            );
        }
        assert!(
            freed.load(Ordering::SeqCst) >= SCAN_THRESHOLD,
            "crossing the threshold must scan"
        );
    }

    #[test]
    fn hazarded_pointer_survives_scan() {
        let guard = protect();
        // Manually publish a hazard on an address, then retire that
        // address: the scan must spare it until the slot clears.
        let target = Box::into_raw(Box::new(77u64));
        // SAFETY: test-local record, slot 3 unused by `load_arc` here.
        let record = unsafe { &*guard.record };
        record.slots[HP_SLOTS - 1].store(target as *mut (), Ordering::SeqCst);

        static FREED: AtomicBool = AtomicBool::new(false);
        FREED.store(false, Ordering::SeqCst);
        unsafe fn free_box(p: *mut ()) {
            // SAFETY: `p` is the leaked box above, freed exactly once.
            drop(unsafe { Box::from_raw(p as *mut u64) });
            FREED.store(true, Ordering::SeqCst);
        }
        // SAFETY: (ptr, drop_fn) pair is sound and runs once.
        retire(&guard, unsafe { Retired::new(target as *mut (), free_box) });
        flush();
        assert!(
            !FREED.load(Ordering::SeqCst),
            "published hazard must protect the pointer"
        );
        record.slots[HP_SLOTS - 1].store(ptr::null_mut(), Ordering::SeqCst);
        flush();
        assert!(FREED.load(Ordering::SeqCst), "cleared hazard frees it");
    }

    #[test]
    fn dead_thread_retires_spill_to_fallback_and_get_scanned() {
        let freed = Arc::new(AtomicBool::new(false));
        {
            let freed = Arc::clone(&freed);
            std::thread::spawn(move || {
                let guard = protect();
                retire(&guard, count_entry(&freed));
            })
            .join()
            .unwrap();
        }
        flush();
        assert!(
            freed.load(Ordering::SeqCst),
            "fallback entries must be reclaimed by the next scan"
        );
    }

    #[test]
    fn records_are_reused_across_threads() {
        // Run several short-lived threads; the registry must not grow
        // beyond the maximum concurrency (1 here, plus this thread).
        let count_records = || {
            let mut n = 0;
            let mut cursor = REGISTRY.load(Ordering::Acquire);
            while !cursor.is_null() {
                n += 1;
                cursor = unsafe { &*cursor }.next.load(Ordering::Acquire);
            }
            n
        };
        for _ in 0..4 {
            std::thread::spawn(|| drop(protect())).join().unwrap();
        }
        let after_first_batch = count_records();
        for _ in 0..8 {
            std::thread::spawn(|| drop(protect())).join().unwrap();
        }
        // Without reuse the 8 sequential threads would append 8 records;
        // the slack tolerates unrelated tests registering concurrently.
        assert!(
            count_records() < after_first_batch + 8,
            "sequential threads must reuse inactive records"
        );
    }
}
