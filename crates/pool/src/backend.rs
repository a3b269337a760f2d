//! Pool storage backends: the queue (infinite-array) and stack (Treiber)
//! specializations of the abstract blocking pool (paper, Listing 18).
//!
//! Both implement [`PoolBackend`], whose contract mirrors the paper's
//! `tryInsert`/`tryRetrieve`: a failed `try_retrieve` *breaks* the slot (or
//! publishes a failure node) so that the paired `try_insert` — the one whose
//! `size` increment the retriever observed — fails as well, keeping the
//! abstract pool's counter balanced.

use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use cqs_reclaim::{pin, AtomicArc, Guard, Protected};

/// Storage used by [`crate::BlockingPool`]: a bag of elements with
/// *rendezvous-failure* semantics (see module docs).
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

// ---------------------------------------------------------------------
// Queue backend
// ---------------------------------------------------------------------

const SLOT_EMPTY: usize = 0;
const SLOT_FULL: usize = 1;
const SLOT_TAKEN: usize = 2;
const SLOT_BROKEN: usize = 3;

struct Slot<E> {
    state: AtomicUsize,
    element: UnsafeCell<Option<E>>,
}

// SAFETY: element handoff is ordered by RMWs on `state`: the inserter writes
// before publishing FULL; the unique retriever (per-slot via fetch-add
// indices) consumes after observing FULL.
unsafe impl<E: Send> Send for Slot<E> {}
unsafe impl<E: Send> Sync for Slot<E> {}

struct QueueSegment<E> {
    id: u64,
    next: AtomicArc<QueueSegment<E>>,
    slots: Box<[Slot<E>]>,
}

impl<E: Send + 'static> QueueSegment<E> {
    fn new(id: u64, size: usize) -> Arc<Self> {
        Arc::new(QueueSegment {
            id,
            next: AtomicArc::null(),
            slots: (0..size)
                .map(|_| Slot {
                    state: AtomicUsize::new(SLOT_EMPTY),
                    element: UnsafeCell::new(None),
                })
                .collect(),
        })
    }
}

/// The queue-based pool storage: an infinite array with independent insert
/// and retrieve counters advanced by fetch-and-add (paper, Listing 18 left).
/// Faster than the stack under contention because the hot path avoids CAS
/// retry loops.
pub struct QueueBackend<E: Send + 'static> {
    insert_idx: AtomicU64,
    retrieve_idx: AtomicU64,
    insert_segm: AtomicArc<QueueSegment<E>>,
    retrieve_segm: AtomicArc<QueueSegment<E>>,
    segment_size: usize,
}

impl<E: Send + 'static> QueueBackend<E> {
    /// Creates an empty queue backend.
    pub fn new() -> Self {
        Self::with_segment_size(16)
    }

    /// Creates an empty queue backend with the given cells-per-segment.
    fn with_segment_size(segment_size: usize) -> Self {
        assert!(segment_size > 0, "segment size must be positive");
        let first = QueueSegment::new(0, segment_size);
        QueueBackend {
            insert_idx: AtomicU64::new(0),
            retrieve_idx: AtomicU64::new(0),
            insert_segm: AtomicArc::new(Some(Arc::clone(&first))),
            retrieve_segm: AtomicArc::new(Some(first)),
            segment_size,
        }
    }

    /// Walks (creating as needed) from `start` to the segment with `id`,
    /// advancing `head` so fully processed segments become unreferenced and
    /// are freed. `start` must have been read from `head` *before* the
    /// index fetch-add (paper, Listing 14): that ordering guarantees
    /// `start.id <= id`, i.e. the target segment is reachable forward.
    fn locate<'g>(
        &self,
        head: &AtomicArc<QueueSegment<E>>,
        start: Protected<'g, QueueSegment<E>>,
        id: u64,
        guard: &'g Guard,
    ) -> Protected<'g, QueueSegment<E>> {
        debug_assert!(
            start.id <= id,
            "segment {} not reachable from {}",
            id,
            start.id
        );
        let mut cur = start;
        while cur.id < id {
            let next = match cur.follow(|segment| &segment.next, guard) {
                Some(next) => next,
                None => {
                    let fresh = QueueSegment::new(cur.id + 1, self.segment_size);
                    match cur.next.compare_exchange_null(Arc::clone(&fresh), guard) {
                        Ok(()) => fresh.into(),
                        Err(_) => cur
                            .follow(|segment| &segment.next, guard)
                            .expect("next observed non-null cannot revert"),
                    }
                }
            };
            cur = next;
        }
        // Best-effort head advance (only forward); the common case — the
        // head already is `cur` — is decided on the pointer alone.
        while head.load_ptr(guard) != cur.as_ptr() {
            let h = head
                .load_protected(guard)
                .expect("pool heads are never null");
            if h.id >= cur.id
                || head
                    .compare_exchange(h.as_ptr(), Some(cur.to_arc()), guard)
                    .is_ok()
            {
                break;
            }
        }
        cur
    }
}

impl<E: Send + 'static> Default for QueueBackend<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E: Send + 'static> PoolBackend<E> for QueueBackend<E> {
    fn try_insert(&self, element: E) -> Result<(), E> {
        let guard = pin();
        // Read the head before taking an index (see `locate`).
        let start = self
            .insert_segm
            .load_protected(&guard)
            .expect("pool heads are never null");
        let i = self.insert_idx.fetch_add(1, Ordering::SeqCst);
        let segment = self.locate(
            &self.insert_segm,
            start,
            i / self.segment_size as u64,
            &guard,
        );
        let slot = &segment.slots[(i % self.segment_size as u64) as usize];
        // SAFETY: per-slot unique inserter (indices are handed out by
        // fetch-add); published by the CAS below.
        unsafe { *slot.element.get() = Some(element) };
        match slot
            .state
            .compare_exchange(SLOT_EMPTY, SLOT_FULL, Ordering::SeqCst, Ordering::SeqCst)
        {
            Ok(_) => Ok(()),
            // SAFETY: never published; we still own the slot's element.
            Err(_) => Err(unsafe { (*slot.element.get()).take() }
                .expect("unpublished element must still be present")),
        }
    }

    fn try_retrieve(&self) -> Option<E> {
        let guard = pin();
        // Read the head before taking an index (see `locate`).
        let start = self
            .retrieve_segm
            .load_protected(&guard)
            .expect("pool heads are never null");
        let i = self.retrieve_idx.fetch_add(1, Ordering::SeqCst);
        let segment = self.locate(
            &self.retrieve_segm,
            start,
            i / self.segment_size as u64,
            &guard,
        );
        let slot = &segment.slots[(i % self.segment_size as u64) as usize];
        match slot.state.swap(SLOT_BROKEN, Ordering::SeqCst) {
            // SAFETY: the swap observed FULL; the inserter published the
            // element and we are the slot's unique retriever.
            SLOT_FULL => {
                slot.state.store(SLOT_TAKEN, Ordering::SeqCst);
                Some(
                    unsafe { (*slot.element.get()).take() }
                        .expect("full slot must hold an element"),
                )
            }
            SLOT_EMPTY => None, // slot now broken; the paired insert fails
            other => unreachable!("pool slot retrieved twice (state {other})"),
        }
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

impl<E: Send + 'static> Drop for QueueBackend<E> {
    fn drop(&mut self) {
        // Forward-only chains cannot form cycles, but long chains would
        // recurse on drop; flatten iteratively starting from the earlier
        // head.
        let guard = pin();
        let a = self.insert_segm.take(&guard);
        let b = self.retrieve_segm.take(&guard);
        let mut cur = match (a, b) {
            (Some(a), Some(b)) => Some(if a.id <= b.id { a } else { b }),
            (a, b) => a.or(b),
        };
        while let Some(segment) = cur {
            cur = segment.next.take(&guard);
        }
    }
}

// ---------------------------------------------------------------------
// Stack backend
// ---------------------------------------------------------------------

struct Node<E> {
    /// `None` marks a *failure node* published by an unlucky retrieval.
    element: UnsafeCell<Option<E>>,
    failed: bool,
    next: Option<Arc<Node<E>>>,
}

// SAFETY: `element` is consumed only by the thread whose CAS popped this
// node from the stack, which strictly follows the push that wrote it.
unsafe impl<E: Send> Send for Node<E> {}
unsafe impl<E: Send> Sync for Node<E> {}

/// The stack-based pool storage: a Treiber stack that hands out the most
/// recently inserted ("hottest") element, with failure nodes standing in for
/// broken slots (paper, Listing 18 right).
pub struct StackBackend<E: Send + 'static> {
    top: AtomicArc<Node<E>>,
}

impl<E: Send + 'static> StackBackend<E> {
    /// Creates an empty stack backend.
    pub fn new() -> Self {
        StackBackend {
            top: AtomicArc::null(),
        }
    }
}

impl<E: Send + 'static> Default for StackBackend<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E: Send + 'static> PoolBackend<E> for StackBackend<E> {
    fn try_insert(&self, element: E) -> Result<(), E> {
        let guard = pin();
        let mut element = element;
        loop {
            let top = self.top.load(&guard);
            match &top {
                Some(node) if node.failed => {
                    // Annihilate one failure node and fail this insert: the
                    // retrieval that published it already gave up.
                    let top_ptr = Arc::as_ptr(node);
                    if self
                        .top
                        .compare_exchange(top_ptr, node.next.clone(), &guard)
                        .is_ok()
                    {
                        return Err(element);
                    }
                }
                _ => {
                    let top_ptr = top.as_ref().map_or(std::ptr::null(), Arc::as_ptr);
                    let node = Arc::new(Node {
                        element: UnsafeCell::new(Some(element)),
                        failed: false,
                        next: top,
                    });
                    match self.top.compare_exchange(top_ptr, Some(node), &guard) {
                        Ok(()) => return Ok(()),
                        Err(rejected) => {
                            // Recover the element from the unpublished node
                            // and retry.
                            let node = rejected.expect("a node was passed in");
                            // SAFETY: the node was never published; we are
                            // its only owner.
                            element = unsafe { (*node.element.get()).take() }
                                .expect("unpublished node keeps its element");
                        }
                    }
                }
            }
        }
    }

    fn try_retrieve(&self) -> Option<E> {
        let guard = pin();
        loop {
            let top = self.top.load(&guard);
            match &top {
                None => {
                    // Publish a failure node so the paired insert fails too.
                    let node = Arc::new(Node {
                        element: UnsafeCell::new(None),
                        failed: true,
                        next: None,
                    });
                    if self
                        .top
                        .compare_exchange(std::ptr::null(), Some(node), &guard)
                        .is_ok()
                    {
                        return None;
                    }
                }
                Some(node) if node.failed => {
                    let node = Arc::new(Node {
                        element: UnsafeCell::new(None),
                        failed: true,
                        next: top.clone(),
                    });
                    if self
                        .top
                        .compare_exchange(Arc::as_ptr(top.as_ref().unwrap()), Some(node), &guard)
                        .is_ok()
                    {
                        return None;
                    }
                }
                Some(node) => {
                    let top_ptr = Arc::as_ptr(node);
                    if self
                        .top
                        .compare_exchange(top_ptr, node.next.clone(), &guard)
                        .is_ok()
                    {
                        // SAFETY: our CAS popped this node; the popper is the
                        // unique consumer of its element.
                        return Some(
                            unsafe { (*node.element.get()).take() }
                                .expect("live node must hold an element"),
                        );
                    }
                }
            }
        }
    }
}

impl<E: Send + 'static> std::fmt::Debug for StackBackend<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("StackBackend")
    }
}

impl<E: Send + 'static> Drop for StackBackend<E> {
    fn drop(&mut self) {
        // Flatten the chain iteratively to avoid recursive drops on long
        // stacks.
        let guard = pin();
        let mut cur = self.top.take(&guard);
        while let Some(node) = cur {
            cur = match Arc::try_unwrap(node) {
                Ok(mut node) => node.next.take(),
                Err(_) => None, // shared elsewhere; their drop handles it
            };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<B: PoolBackend<u64>>(backend: &B) {
        backend.try_insert(1).unwrap();
        backend.try_insert(2).unwrap();
        let a = backend.try_retrieve().unwrap();
        let b = backend.try_retrieve().unwrap();
        assert_eq!(
            {
                let mut v = vec![a, b];
                v.sort_unstable();
                v
            },
            vec![1, 2]
        );
    }

    #[test]
    fn queue_round_trip() {
        roundtrip(&QueueBackend::new());
    }

    #[test]
    fn stack_round_trip() {
        roundtrip(&StackBackend::new());
    }

    #[test]
    fn queue_is_fifo() {
        let q = QueueBackend::new();
        for v in 0..10u64 {
            q.try_insert(v).unwrap();
        }
        for v in 0..10u64 {
            assert_eq!(q.try_retrieve(), Some(v));
        }
    }

    #[test]
    fn stack_is_lifo() {
        let s = StackBackend::new();
        for v in 0..10u64 {
            s.try_insert(v).unwrap();
        }
        for v in (0..10u64).rev() {
            assert_eq!(s.try_retrieve(), Some(v));
        }
    }

    #[test]
    fn queue_retrieve_from_empty_breaks_paired_insert() {
        let q = QueueBackend::<u64>::new();
        assert_eq!(q.try_retrieve(), None);
        // The insert paired with that retrieval hits the broken slot.
        assert_eq!(q.try_insert(7), Err(7));
        // Subsequent pairs work.
        q.try_insert(8).unwrap();
        assert_eq!(q.try_retrieve(), Some(8));
    }

    #[test]
    fn stack_retrieve_from_empty_fails_paired_insert() {
        let s = StackBackend::<u64>::new();
        assert_eq!(s.try_retrieve(), None);
        assert_eq!(s.try_insert(7), Err(7));
        s.try_insert(8).unwrap();
        assert_eq!(s.try_retrieve(), Some(8));
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

    fn conservation_stress<B: PoolBackend<u64>>(backend: Arc<B>) {
        use std::sync::atomic::AtomicU64;
        const THREADS: usize = 6;
        const OPS: usize = 3_000;
        let inserted = Arc::new(AtomicU64::new(0));
        let retrieved = Arc::new(AtomicU64::new(0));
        let mut joins = Vec::new();
        for t in 0..THREADS {
            let backend = Arc::clone(&backend);
            let inserted = Arc::clone(&inserted);
            let retrieved = Arc::clone(&retrieved);
            joins.push(std::thread::spawn(move || {
                for i in 0..OPS {
                    let v = (t * OPS + i) as u64;
                    if i % 2 == 0 {
                        if backend.try_insert(v).is_ok() {
                            inserted.fetch_add(v, Ordering::SeqCst);
                        }
                    } else if let Some(got) = backend.try_retrieve() {
                        retrieved.fetch_add(got, Ordering::SeqCst);
                    }
                }
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
        // Drain the remainder.
        while let Some(got) = backend.try_retrieve() {
            retrieved.fetch_add(got, Ordering::SeqCst);
        }
        assert_eq!(
            inserted.load(Ordering::SeqCst),
            retrieved.load(Ordering::SeqCst),
            "elements lost or duplicated"
        );
    }

    #[test]
    fn queue_conservation_stress() {
        conservation_stress(Arc::new(QueueBackend::new()));
    }

    #[test]
    fn stack_conservation_stress() {
        conservation_stress(Arc::new(StackBackend::new()));
    }
}
