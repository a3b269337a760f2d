//! The stack (Treiber) pool storage (paper, Listing 18 right). The queue
//! storage, [`QueueBackend`](cqs_core::QueueBackend), runs on `cqs-core`'s
//! segment list; both implement [`PoolBackend`].

use std::cell::UnsafeCell;
use std::sync::Arc;

use cqs_core::PoolBackend;
use cqs_reclaim::{pin, AtomicArc};

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
    use cqs_core::QueueBackend;
    use std::sync::atomic::Ordering;

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
