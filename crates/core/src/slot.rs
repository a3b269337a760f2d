//! The queue pool's storage (paper, Listing 18 left): the segment list of
//! `segment.rs` with slots for cells, its two heads advanced by independent
//! insert and retrieve counters. A slot is not a `CqsCell`: a retriever's
//! EMPTY → BROKEN is not an edge of the paper's cell life-cycle. A slot
//! never cancels, so a slot segment is never removed; it is freed once both
//! heads have left it.

use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Weak};

use cqs_reclaim::{pin, AtomicArc};

use crate::segment::{find_and_move_forward, Segment, SegmentCell};

/// Storage of a blocking pool: a bag of elements with *rendezvous-failure*
/// semantics. The contract mirrors the paper's `tryInsert`/`tryRetrieve`: a
/// failed `try_retrieve` *breaks* the slot (or publishes a failure node) so
/// that the paired `try_insert` — the one whose `size` increment the
/// retriever observed — fails as well, keeping the abstract pool's counter
/// balanced.
pub trait PoolBackend<E>: Send + Sync + 'static {
    /// Attempts to add an element.
    ///
    /// # Errors
    ///
    /// Hands the element back if a paired failed retrieval poisoned the
    /// target slot; the caller restarts its logical operation.
    fn try_insert(&self, element: E) -> Result<(), E>;

    /// Attempts to take some element (order unspecified). `None` means the
    /// racing insert this retrieval was paired with has not landed yet; the
    /// corresponding insert attempt is made to fail as well.
    fn try_retrieve(&self) -> Option<E>;
}

const SLOT_EMPTY: usize = 0;
const SLOT_FULL: usize = 1;
const SLOT_TAKEN: usize = 2;
const SLOT_BROKEN: usize = 3;

pub(crate) struct Slot<E> {
    state: AtomicUsize,
    element: UnsafeCell<Option<E>>,
}

// SAFETY: element handoff is ordered by RMWs on `state`: the inserter writes
// before publishing FULL; the unique retriever (per-slot via fetch-add
// indices) consumes after observing FULL.
unsafe impl<E: Send> Send for Slot<E> {}
unsafe impl<E: Send> Sync for Slot<E> {}

impl<E: Send + 'static> SegmentCell for Slot<E> {
    const CANCELLABLE: bool = false;
    type Owner = ();

    fn new() -> Self {
        Slot {
            state: AtomicUsize::new(SLOT_EMPTY),
            element: UnsafeCell::new(None),
        }
    }
}

impl<E> Slot<E> {
    fn insert(&self, element: E) -> Result<(), E> {
        // SAFETY: per-slot unique inserter (indices are handed out by
        // fetch-add); published by the CAS below.
        unsafe { *self.element.get() = Some(element) };
        match self
            .state
            .compare_exchange(SLOT_EMPTY, SLOT_FULL, Ordering::SeqCst, Ordering::SeqCst)
        {
            Ok(_) => Ok(()),
            // SAFETY: never published; we still own the slot's element.
            Err(_) => Err(unsafe { (*self.element.get()).take() }
                .expect("unpublished element must still be present")),
        }
    }

    fn retrieve(&self) -> Option<E> {
        match self.state.swap(SLOT_BROKEN, Ordering::SeqCst) {
            // SAFETY: the swap observed FULL; the inserter published the
            // element and we are the slot's unique retriever.
            SLOT_FULL => {
                self.state.store(SLOT_TAKEN, Ordering::SeqCst);
                Some(
                    unsafe { (*self.element.get()).take() }
                        .expect("full slot must hold an element"),
                )
            }
            SLOT_EMPTY => None, // slot now broken; the paired insert fails
            other => unreachable!("pool slot retrieved twice (state {other})"),
        }
    }
}

/// The queue-based pool storage: an infinite array with independent insert
/// and retrieve counters advanced by fetch-and-add (paper, Listing 18 left).
/// Faster than the stack under contention because the hot path avoids CAS
/// retry loops.
pub struct QueueBackend<E: Send + 'static> {
    insert_idx: AtomicU64,
    retrieve_idx: AtomicU64,
    insert_segm: AtomicArc<Segment<Slot<E>>>,
    retrieve_segm: AtomicArc<Segment<Slot<E>>>,
}

impl<E: Send + 'static> QueueBackend<E> {
    /// Creates an empty queue backend.
    pub fn new() -> Self {
        Self::with_segment_size(16)
    }

    /// Creates an empty queue backend with the given cells-per-segment.
    fn with_segment_size(segment_size: usize) -> Self {
        assert!(segment_size > 0, "segment size must be positive");
        let first = Segment::new(0, segment_size, 2, Weak::new());
        QueueBackend {
            insert_idx: AtomicU64::new(0),
            retrieve_idx: AtomicU64::new(0),
            insert_segm: AtomicArc::new(Some(Arc::clone(&first))),
            retrieve_segm: AtomicArc::new(Some(first)),
        }
    }

    /// Takes the next index from `idx` and visits its slot, moving `head`
    /// forward to the slot's segment. `head` is read before the fetch-add
    /// (paper, Listing 14), so that segment is reachable forward from it.
    fn claim<R>(
        &self,
        head: &AtomicArc<Segment<Slot<E>>>,
        idx: &AtomicU64,
        visit: impl FnOnce(&Slot<E>) -> R,
    ) -> R {
        let guard = pin();
        let start = head.load_protected(&guard).expect("heads are never null");
        let size = start.len();
        let i = idx.fetch_add(1, Ordering::SeqCst);
        let n = size as u64;
        let segment = find_and_move_forward(head, start, i / n, size, &guard);
        visit(segment.cell((i % n) as usize))
    }
}

impl<E: Send + 'static> Default for QueueBackend<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E: Send + 'static> PoolBackend<E> for QueueBackend<E> {
    fn try_insert(&self, element: E) -> Result<(), E> {
        self.claim(&self.insert_segm, &self.insert_idx, |slot| {
            slot.insert(element)
        })
    }

    fn try_retrieve(&self) -> Option<E> {
        self.claim(&self.retrieve_segm, &self.retrieve_idx, Slot::retrieve)
    }
}

impl<E: Send + 'static> std::fmt::Debug for QueueBackend<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueueBackend")
            .field("insert_idx", &self.insert_idx.load(Ordering::Relaxed))
            .field("retrieve_idx", &self.retrieve_idx.load(Ordering::Relaxed))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::segment::linked_segments;
    use crate::tests::first_survivor;

    /// `Cqs::segment_witnesses` for the slot list.
    fn witnesses(q: &QueueBackend<u64>) -> Vec<Weak<Segment<Slot<u64>>>> {
        let guard = pin();
        let linked = linked_segments([&q.insert_segm, &q.retrieve_segm], &guard);
        linked.map(|segment| segment.downgrade()).collect()
    }

    #[test]
    fn queue_spans_many_segments() {
        let q = QueueBackend::with_segment_size(2);
        for v in 0..100u64 {
            q.try_insert(v).unwrap();
        }
        for v in 0..100u64 {
            assert_eq!(q.try_retrieve(), Some(v));
        }
    }

    /// Slot segments are never removed: the heads leaving a segment is what
    /// frees it. FIFO insert/retrieve pairs span nine segments, with a
    /// broken slot opening segment 4: the retrieve from empty appends that
    /// segment and breaks the slot, and its paired insert fails. Every
    /// segment behind both heads must be freed at rest, and the last one
    /// once the queue drops.
    #[test]
    fn slot_segments_behind_both_heads_are_freed() {
        for size in [1u64, 2, 16] {
            let q = QueueBackend::with_segment_size(size as usize);
            let mut behind = Vec::new();
            for v in 0..8 * size {
                if v == 4 * size {
                    assert_eq!((q.try_retrieve(), q.try_insert(v)), (None, Err(v)));
                }
                behind.extend(witnesses(&q)); // the heads' segment, 0 to 7
                q.try_insert(v).unwrap();
                assert_eq!(q.try_retrieve(), Some(v), "size {size}");
            }
            let last = witnesses(&q);
            let ids: Vec<_> = last.iter().map(|w| w.upgrade().unwrap().id()).collect();
            assert_eq!(ids, [8], "size {size}: both heads on segment 8, the tail");
            let _ = cqs_reclaim::flush();
            assert_eq!(first_survivor(&behind), None, "size {size}: behind heads");
            drop(q);
            assert_eq!(first_survivor(&last), None, "size {size}: after the drop");
        }
    }

    /// One inserter and one retriever, three operations each, one slot per
    /// segment, in every interleaving up to two preemptions: both sides
    /// append segments and move their heads. Every element is retrieved
    /// once or handed back by a failed insert, failed inserts pair with
    /// `None` retrievals, and once the queue drops every segment is freed.
    #[cfg(feature = "chaos")]
    #[test]
    fn slot_queue_hands_every_element_over_once() {
        use cqs_check::{Explorer, Program};
        use std::sync::Mutex;

        let exploration = Explorer::default().check_exhaustive(|| {
            let q = Arc::new(QueueBackend::with_segment_size(1));
            let log = Arc::new(Mutex::new((Vec::new(), Vec::new()))); // (refused, retrieved)
            let (inserter, refused_by) = (Arc::clone(&q), Arc::clone(&log));
            let (retriever, retrieved_by) = (Arc::clone(&q), Arc::clone(&log));
            Program::new()
                .thread(move || {
                    let failed = (0..3).filter_map(|v| inserter.try_insert(v).err());
                    refused_by.lock().unwrap().0 = failed.collect();
                })
                .thread(move || {
                    let got = (0..3).map(|_| retriever.try_retrieve());
                    retrieved_by.lock().unwrap().1 = got.collect();
                })
                .check(move || {
                    let (refused, retrieved) = &*log.lock().unwrap();
                    let mut out: Vec<_> = retrieved.iter().flatten().chain(refused).collect();
                    out.sort_unstable();
                    let misses = retrieved.iter().filter(|got| got.is_none()).count();
                    if out != [&0, &1, &2] || misses != refused.len() {
                        return Err(format!("retrieved {retrieved:?}, refused {refused:?}"));
                    }
                    let last = witnesses(&q);
                    drop(q);
                    let leak = "a slot segment outlived its queue";
                    first_survivor(&last).map_or(Ok(()), |_| Err(leak.to_string()))
                })
        });
        assert!(exploration.runs > 1, "appends and head moves must branch");
    }
}
