//! Segments of the infinite array and the lock-free removal algorithm for
//! segments whose cells are all cancelled (paper, Appendix C, Listing 15).
//!
//! The list is generic over its cell ([`SegmentCell`]): the CQS's
//! [`CqsCell`], the channel's cell (`crate::channel`), and the queue
//! pool's slot (`crate::slot`), which never cancels, so its segments are
//! never removed.
//!
//! Each segment is a fixed-size block of cells with `next`/`prev` links. A
//! segment is *logically removed* once all of its cells are cancelled and no
//! head pointer (`suspend_segm`/`resume_segm`) references it; physical
//! removal links its alive neighbours around it in O(1) absent contention.
//!
//! Reclamation: in the paper the JVM GC frees unreachable segments, cycles
//! included. Here a segment is an `Arc` owned by its left neighbour's
//! `next` link (an [`AtomicArc`]), the head pointers, and the requests
//! that hold it as their cancellation handler; `prev` is an [`AtomicWeak`]
//! and owns nothing. Every `next` store points to a higher id, so the
//! owning links cannot form a cycle, whatever the schedule. A segment is
//! deallocated when its last owner goes (plus a grace period for a
//! displaced link), so a removed segment lives only as long as something
//! still reaches it, which keeps memory at O(live waiters / segment size)
//! however many waiters cancelled.
//!
//! Traversals are not in that list: they walk guard-scoped [`Protected`]
//! references — the paper's pointer reads, kept alive by the epoch pin —
//! and mint a count (`to_arc`) only where a reference is
//! *published or kept*: the head-pointer CAS, the `next` link `remove`
//! writes and the `prev` links it upgrades, a request's handler.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};

use cqs_future::CancellationHandler;
use cqs_reclaim::{AtomicArc, AtomicWeak, Guard, Protected};

use crate::cell::CqsCell;

/// `pointers` (head-pointer references) and `cancelled` (cancelled-cell
/// count) packed into one atomic so they can be inspected and updated
/// together (paper, Listing 15 right, line 58).
const POINTER_UNIT: u64 = 1 << 32;
const CANCELLED_MASK: u64 = POINTER_UNIT - 1;

/// A cell of the infinite array, as the segment list sees it.
pub(crate) trait SegmentCell: Send + Sync + 'static {
    /// Whether a cell can be cancelled. If not, no segment is ever removed,
    /// so the walk (`find_segment`, `move_forward`) skips the work only
    /// removal reads: the `prev` store, the removal checks and the
    /// head-pointer counts. A constant, so those branches fold away.
    const CANCELLABLE: bool;
    /// What a segment reaches back to when one of its cells cancels.
    type Owner: ?Sized + Send + Sync;

    fn new() -> Self;
}

/// A segment of a CQS queue.
pub(crate) type CqsSegment<T> = Segment<CqsCell<T>>;

/// What a segment needs from the queue that owns it. Segments hold it
/// `Weak`ly: once the queue is dropped nothing traverses its cells any
/// more, so the service degrades to a no-op.
pub(crate) trait SegmentOwner<T: Send + 'static>: Send + Sync {
    /// The cell-side part of cancelling the waiter in `segment[index]`.
    fn on_waiter_cancelled(&self, segment: &Arc<CqsSegment<T>>, index: usize);
}

pub(crate) struct Segment<C: SegmentCell> {
    id: u64,
    next: AtomicArc<Segment<C>>,
    /// Non-owning: a hint for `remove`, as in kotlinx.coroutines.
    prev: AtomicWeak<Segment<C>>,
    /// `pointers << 32 | cancelled`.
    ctr: AtomicU64,
    cells: Box<[C]>,
    /// Back-reference to the owning CQS (`Weak` to avoid a cycle; dangling
    /// for detached segments, e.g. in unit tests).
    owner: Weak<C::Owner>,
}

impl<C: SegmentCell> Segment<C> {
    pub(crate) fn new(
        id: u64,
        size: usize,
        initial_pointers: u64,
        owner: Weak<C::Owner>,
    ) -> Arc<Self> {
        cqs_stats::bump!(segments_allocated);
        let cells = (0..size).map(|_| C::new()).collect();
        Arc::new(Segment {
            id,
            next: AtomicArc::null(),
            prev: AtomicWeak::null(),
            ctr: AtomicU64::new(initial_pointers * POINTER_UNIT),
            cells,
            owner,
        })
    }

    pub(crate) fn id(&self) -> u64 {
        self.id
    }

    pub(crate) fn cell(&self, index: usize) -> &C {
        &self.cells[index]
    }

    pub(crate) fn len(&self) -> usize {
        self.cells.len()
    }

    pub(crate) fn next<'g>(
        this: &Protected<'g, Self>,
        guard: &'g Guard,
    ) -> Option<Protected<'g, Self>> {
        this.follow(|segment| &segment.next, guard)
    }

    /// Whether the segment is logically removed: every cell cancelled and no
    /// head pointer referencing it.
    ///
    /// Ordering: SeqCst, here and on every `ctr` update. One segment's
    /// removal verdict ("did *my* update make it removed?") would need only
    /// AcqRel: it is read off an RMW's return value, and the RMWs on one
    /// word form one modification order. The ordering that remains is
    /// across segments: [`remove`](Self::remove) stores its links and then
    /// checks each neighbour's `ctr`, while the neighbour's own remover
    /// updates that `ctr` and then reads the links. At least one of the two
    /// must see the other's write, or a removed neighbour stays linked.
    /// That store-then-load pairing is why SeqCst stays; whether AcqRel
    /// would do is not argued here. On x86-64 both orderings compile to the
    /// same instructions.
    pub(crate) fn removed(&self) -> bool {
        let ctr = self.ctr.load(Ordering::SeqCst);
        (ctr & CANCELLED_MASK) as usize == self.cells.len() && ctr >> 32 == 0
    }

    /// Registers one more cancelled cell; physically removes the segment if
    /// it became logically removed (paper, `onCancelledCell`).
    pub(crate) fn on_cancelled_cell(&self, guard: &Guard) {
        cqs_chaos::inject!("segment.on-cancelled-cell.pre-count");
        // SeqCst: see `removed` — the return value decides removal, and the
        // release half publishes the cancelled cell's terminal state to
        // whoever later observes the count.
        let ctr = self.ctr.fetch_add(1, Ordering::SeqCst) + 1;
        debug_assert!(
            (ctr & CANCELLED_MASK) as usize <= self.cells.len(),
            "more cancellations than cells"
        );
        if (ctr & CANCELLED_MASK) as usize == self.cells.len() && ctr >> 32 == 0 {
            self.remove(guard);
        }
    }

    /// Increments the head-pointer count unless the segment is already
    /// logically removed.
    fn try_inc_pointers(&self) -> bool {
        let mut ctr = self.ctr.load(Ordering::SeqCst);
        loop {
            if (ctr & CANCELLED_MASK) as usize == self.cells.len() && ctr >> 32 == 0 {
                return false; // logically removed
            }
            // SeqCst (see `removed`): the successful increment is what
            // blocks a racing remover (its own RMW then sees pointers != 0);
            // failure merely retries with the freshly observed value.
            match self.ctr.compare_exchange(
                ctr,
                ctr + POINTER_UNIT,
                Ordering::SeqCst,
                Ordering::SeqCst,
            ) {
                Ok(_) => return true,
                Err(actual) => ctr = actual,
            }
        }
    }

    /// Decrements the head-pointer count; returns `true` if the segment
    /// became logically removed.
    fn dec_pointers(&self) -> bool {
        // SeqCst: the return value is the removal verdict (see `removed`).
        let ctr = self.ctr.fetch_sub(POINTER_UNIT, Ordering::SeqCst) - POINTER_UNIT;
        debug_assert!(ctr >> 32 < u32::MAX as u64, "pointer count underflow");
        (ctr & CANCELLED_MASK) as usize == self.cells.len() && ctr >> 32 == 0
    }

    /// Physically removes a logically removed segment by linking its alive
    /// neighbours to each other (paper, Listing 15 `remove`). The tail
    /// segment is never removed; its removal is re-attempted when the tail
    /// moves.
    ///
    /// A store here can land late, after a neighbour moved on, but it cannot
    /// close a cycle: `prev` owns nothing, and the `next` it stores points
    /// from a lower id to a higher one. A late `next` store only keeps its
    /// target alive until the segment holding it is unlinked or freed.
    pub(crate) fn remove(&self, guard: &Guard) {
        loop {
            // The tail segment cannot be removed.
            if self.next.load_ptr(guard).is_null() {
                return;
            }
            let prev = self.alive_segment_left(guard);
            let next = self.alive_segment_right(guard);

            // Link next and prev to each other.
            cqs_chaos::inject!("segment.remove.pre-link");
            next.prev.store(prev.as_ref().map(Arc::downgrade), guard);
            if let Some(prev) = &prev {
                prev.next.store(Some(next.to_arc()), guard);
            }

            // Restart if a neighbour was removed in the meantime (unless it
            // became the tail, which cannot be removed anyway).
            if next.removed() && !next.next.load_ptr(guard).is_null() {
                continue;
            }
            if prev.is_some_and(|prev| prev.removed()) {
                continue;
            }
            return;
        }
    }

    /// First non-removed segment to the left, or `None` if there is none.
    ///
    /// A `prev` link that fails to upgrade names a freed segment, and the
    /// walk ends there, as at an empty link. That is exact for a segment
    /// freed with its owner, as one the heads left behind is: no head
    /// reaches anything left of it either, as `next` links only lead
    /// forward. A segment unlinked by a removal is not freed under this
    /// walk: that removal retired the `next` reference that owned it, and
    /// skipped this segment only once this one was removed (or, for the
    /// old tail, had a successor), both under the pin this walk runs in.
    /// Were that wrong, `remove` would store `None` into its right
    /// neighbour's `prev`, later removals to the right would unlink
    /// nothing, and every segment removed after this one would stay linked
    /// behind the alive one on the left until that one is freed. Traversals
    /// skip removed segments: order would hold, the memory bound would not.
    fn alive_segment_left(&self, guard: &Guard) -> Option<Arc<Segment<C>>> {
        let mut cur = self.prev.upgrade(guard);
        while let Some(segment) = cur {
            if !segment.removed() {
                return Some(segment);
            }
            cur = segment.prev.upgrade(guard);
        }
        None
    }

    /// First non-removed segment to the right, or the tail if all are
    /// removed.
    ///
    /// # Panics
    ///
    /// Must only be called on a segment that is not the tail.
    fn alive_segment_right<'g>(&'g self, guard: &'g Guard) -> Protected<'g, Segment<C>> {
        let mut cur = self
            .next
            .load_protected(guard)
            .expect("alive_segment_right called on the tail segment");
        loop {
            if !cur.removed() {
                return cur;
            }
            match Segment::next(&cur, guard) {
                Some(next) => cur = next,
                None => return cur, // the tail, even if removed
            }
        }
    }
}

/// A segment is the cancellation handler of every waiter parked in its
/// cells (the request's slot is the cell index): installing it costs the
/// suspender one reference-count bump instead of a boxed per-waiter object.
impl<T: Send + 'static> CancellationHandler for CqsSegment<T> {
    fn on_cancel(self: Arc<Self>, index: usize) {
        if let Some(owner) = self.owner.upgrade() {
            owner.on_waiter_cancelled(&self, index);
        }
    }
}

impl<C: SegmentCell> Drop for Segment<C> {
    fn drop(&mut self) {
        // Runs exactly once per segment, when the last `Arc` reference (a
        // link, a head pointer or a request's handler) goes away — the
        // moment the memory is actually reclaimed.
        cqs_stats::bump!(segments_reclaimed);
        drop_chain(self.next.take_mut());
    }
}

/// Releases `first` and, in a loop, every `next` successor this was the
/// last reference to (letting each `next` field drop its successor would
/// recurse once per segment and overflow the stack on a long chain). Stops
/// at the first segment someone else still holds.
fn drop_chain<C: SegmentCell>(first: Option<Arc<Segment<C>>>) {
    let mut cur = first;
    while let Some(segment) = cur {
        // (An unwrapped segment drops with its `next` already taken.)
        cur = Arc::try_unwrap(segment)
            .ok()
            .and_then(|mut segment| segment.next.take_mut());
    }
}

impl<C: SegmentCell> std::fmt::Debug for Segment<C> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let ctr = self.ctr.load(Ordering::Relaxed);
        f.debug_struct("Segment")
            .field("id", &self.id)
            .field("pointers", &(ctr >> 32))
            .field("cancelled", &(ctr & CANCELLED_MASK))
            .finish()
    }
}

/// Returns the first non-removed segment with `id >= target_id`, starting
/// the search from `start` and creating new segments as needed (paper,
/// Listing 15 `findSegment`).
pub(crate) fn find_segment<'g, C: SegmentCell>(
    start: Protected<'g, Segment<C>>,
    target_id: u64,
    segment_size: usize,
    guard: &'g Guard,
) -> Protected<'g, Segment<C>> {
    let mut cur = start;
    while cur.id < target_id || (C::CANCELLABLE && cur.removed()) {
        let next = match Segment::next(&cur, guard) {
            Some(next) => next,
            None => {
                // Create and append a new tail segment.
                let fresh = Segment::new(cur.id + 1, segment_size, 0, cur.owner.clone());
                if C::CANCELLABLE {
                    fresh.prev.store(Some(cur.downgrade()), guard);
                }
                cqs_chaos::inject!("segment.append.pre-cas");
                match cur.next.compare_exchange_null(Arc::clone(&fresh), guard) {
                    Ok(()) => {
                        // The old tail might have become logically removed
                        // while it was still protected by its tail status.
                        if C::CANCELLABLE && cur.removed() {
                            cur.remove(guard);
                        }
                        fresh.into()
                    }
                    // Someone else appended; reuse theirs.
                    Err(_) => Segment::next(&cur, guard)
                        .expect("next observed non-null cannot revert to null"),
                }
            }
        };
        cur = next;
    }
    cur
}

/// Moves the head pointer `pointer` forward to `to` unless it is already at
/// or past it, maintaining the `pointers` counts (paper, Listing 15
/// `moveForwardResume`). Returns `false` if `to` was logically removed, in
/// which case the caller restarts its search.
pub(crate) fn move_forward<C: SegmentCell>(
    pointer: &AtomicArc<Segment<C>>,
    to: &Protected<'_, Segment<C>>,
    guard: &Guard,
) -> bool {
    loop {
        // The common case — the head already is `to` — is decided on the
        // pointer alone (`to` is protected, so its address names it).
        if pointer.load_ptr(guard) == to.as_ptr() {
            return true;
        }
        let cur = pointer
            .load_protected(guard)
            .expect("head pointers are never null");
        if cur.id >= to.id {
            return true;
        }
        if C::CANCELLABLE && !to.try_inc_pointers() {
            return false;
        }
        cqs_chaos::inject!("segment.move-forward.pre-cas");
        if pointer
            .compare_exchange(cur.as_ptr(), Some(to.to_arc()), guard)
            .is_ok()
        {
            if C::CANCELLABLE && cur.dec_pointers() {
                cur.remove(guard);
            }
            return true;
        }
        // The head moved under us: give back the pointer count and retry.
        if C::CANCELLABLE && to.dec_pointers() {
            to.remove(guard);
        }
    }
}

/// `findAndMoveForward`: find the segment for `target_id` and advance the
/// head pointer to it, restarting if the found segment gets removed before
/// the pointer update lands.
pub(crate) fn find_and_move_forward<'g, C: SegmentCell>(
    pointer: &AtomicArc<Segment<C>>,
    start: Protected<'g, Segment<C>>,
    target_id: u64,
    segment_size: usize,
    guard: &'g Guard,
) -> Protected<'g, Segment<C>> {
    let mut found = start;
    loop {
        found = find_segment(found, target_id, segment_size, guard);
        if move_forward(pointer, &found, guard) {
            return found;
        }
    }
}

/// Every segment still linked behind two heads: the earlier head, and all
/// it reaches through `next`.
pub(crate) fn linked_segments<'g, C: SegmentCell>(
    heads: [&'g AtomicArc<Segment<C>>; 2],
    guard: &'g Guard,
) -> impl Iterator<Item = Protected<'g, Segment<C>>> {
    let heads = heads.map(|head| head.load_protected(guard).expect("heads are never null"));
    let first = heads.into_iter().min_by_key(|segment| segment.id);
    std::iter::successors(first, move |segment| Segment::next(segment, guard))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqs_reclaim::pin;

    /// The dangling back-reference of a detached chain: never upgrades,
    /// so its service is never called.
    struct NoQueue;
    impl SegmentOwner<u32> for NoQueue {
        fn on_waiter_cancelled(&self, _: &Arc<CqsSegment<u32>>, _: usize) {
            unreachable!("a dangling owner cannot be upgraded")
        }
    }

    /// A counted reference standing in for a traversal's guard-scoped one.
    fn held(segment: &Arc<CqsSegment<u32>>) -> Protected<'static, CqsSegment<u32>> {
        Arc::clone(segment).into()
    }

    fn chain(len: usize, size: usize) -> Vec<Arc<CqsSegment<u32>>> {
        let guard = pin();
        let first = CqsSegment::<u32>::new(0, size, 2, Weak::<NoQueue>::new());
        let mut all = vec![Arc::clone(&first)];
        let mut cur = first;
        for _ in 1..len {
            let next = find_segment(held(&cur), cur.id + 1, size, &guard).into_arc();
            all.push(Arc::clone(&next));
            cur = next;
        }
        all
    }

    #[test]
    fn find_segment_creates_sequential_ids() {
        let segments = chain(5, 4);
        for (i, s) in segments.iter().enumerate() {
            assert_eq!(s.id(), i as u64);
        }
    }

    #[test]
    fn find_segment_skips_removed() {
        let guard = pin();
        let segments = chain(4, 2);
        // Cancel all cells of segment 1 (it has 0 pointers).
        segments[1].on_cancelled_cell(&guard);
        segments[1].on_cancelled_cell(&guard);
        assert!(segments[1].removed());
        let found = find_segment(held(&segments[0]), 1, 2, &guard);
        assert_eq!(found.id(), 2, "removed segment must be skipped");
    }

    #[test]
    fn removed_segment_is_unlinked() {
        let guard = pin();
        let segments = chain(4, 1);
        segments[1].on_cancelled_cell(&guard);
        segments[2].on_cancelled_cell(&guard);
        assert!(segments[1].removed() && segments[2].removed());
        // Segment 0 now links directly to segment 3.
        let next = segments[0].next.load(&guard).unwrap();
        assert_eq!(next.id(), 3);
    }

    #[test]
    fn tail_segment_is_never_removed() {
        let guard = pin();
        let segments = chain(2, 1);
        segments[1].on_cancelled_cell(&guard);
        assert!(segments[1].removed());
        // Still linked: removal of the tail is postponed.
        assert_eq!(segments[0].next.load(&guard).unwrap().id(), 1);
        // Appending a new segment removes the old removed tail.
        let s2 = find_segment(held(&segments[0]), 2, 1, &guard);
        assert_eq!(s2.id(), 2);
        assert_eq!(segments[0].next.load(&guard).unwrap().id(), 2);
    }

    #[test]
    fn move_forward_transfers_pointer_counts() {
        let guard = pin();
        let segments = chain(3, 2);
        let head: AtomicArc<CqsSegment<u32>> = AtomicArc::new(Some(Arc::clone(&segments[0])));
        // segments[0] starts with 2 pointer units (constructor above).
        assert!(move_forward(&head, &held(&segments[2]), &guard));
        assert_eq!(head.load(&guard).unwrap().id(), 2);
        // Moving backwards is a no-op returning true.
        assert!(move_forward(&head, &held(&segments[1]), &guard));
        assert_eq!(head.load(&guard).unwrap().id(), 2);
    }

    #[test]
    fn move_forward_fails_onto_removed_segment() {
        let guard = pin();
        let segments = chain(3, 1);
        let head: AtomicArc<CqsSegment<u32>> = AtomicArc::new(Some(Arc::clone(&segments[0])));
        segments[1].on_cancelled_cell(&guard);
        assert!(segments[1].removed());
        assert!(!move_forward(&head, &held(&segments[1]), &guard));
        assert_eq!(head.load(&guard).unwrap().id(), 0);
    }

    #[test]
    fn find_and_move_forward_lands_on_alive_segment() {
        let guard = pin();
        let segments = chain(4, 1);
        let head: AtomicArc<CqsSegment<u32>> = AtomicArc::new(Some(Arc::clone(&segments[0])));
        segments[1].on_cancelled_cell(&guard);
        let found = find_and_move_forward(&head, held(&segments[0]), 1, 1, &guard);
        assert_eq!(found.id(), 2);
        assert_eq!(head.load(&guard).unwrap().id(), 2);
    }

    /// Runs `f` on a thread whose stack a per-segment recursion of the
    /// chains below would overflow some 200 times over.
    fn on_small_stack(f: impl FnOnce() + Send + 'static) {
        std::thread::Builder::new()
            .stack_size(256 * 1024)
            .spawn(f)
            .unwrap()
            .join()
            .unwrap();
    }

    #[test]
    fn long_chain_is_torn_down_iteratively() {
        const LEN: usize = 200_000;
        let (head, middle) = {
            let segments = chain(LEN, 1);
            (Arc::clone(&segments[0]), Arc::clone(&segments[LEN / 2]))
        };
        let first = Arc::downgrade(&head);
        // The walk stops at the first segment someone else still holds...
        on_small_stack(move || drop(head));
        assert!(first.upgrade().is_none());
        assert_eq!(Arc::strong_count(&middle), 1, "only our reference is left");
        let after_middle = Arc::downgrade(&middle.next.load(&pin()).unwrap());
        assert!(
            after_middle.upgrade().is_some(),
            "and nothing behind it went"
        );
        // ...and that holder's drop takes down the rest.
        on_small_stack(move || drop(middle));
        assert!(after_middle.upgrade().is_none());
    }

    /// Two neighbours removed at once each skip the other — modelled here by
    /// marking both removed before either runs `remove`. Their stale
    /// `next`/`prev` pair must not keep them alive once unlinked.
    #[test]
    fn neighbours_removed_together_do_not_keep_each_other_alive() {
        let mut segments = chain(4, 1);
        let guard = pin();
        for segment in &segments[1..3] {
            segment.ctr.fetch_add(1, Ordering::AcqRel); // its one cell cancelled
        }
        segments[1].remove(&guard);
        segments[2].remove(&guard);
        assert_eq!(segments[0].next.load(&guard).unwrap().id(), 3);
        drop(guard);
        let removed: Vec<_> = segments.drain(1..3).map(|s| Arc::downgrade(&s)).collect();
        // The unlinked references were retired; sibling tests share the
        // collector, so only these two segments are asserted.
        let _ = cqs_reclaim::flush();
        assert!(
            removed.iter().all(|segment| segment.upgrade().is_none()),
            "removed neighbours keep each other alive"
        );
    }

    /// Segments 1 to 3 of a five-segment chain, removed by three threads at
    /// once, in every interleaving of the removal windows up to two
    /// preemptions: a store into a neighbour can land after that neighbour
    /// was unlinked. Each remover holds only its own segment, as a request
    /// holds its handler, so a neighbour can be freed while the others
    /// still run. With `release_first`, a fourth thread drops the only
    /// reference to segment 0 meanwhile, as the heads leave a resumed
    /// segment behind: a `prev` link to it, or to a removed segment freed
    /// with it, then fails to upgrade. Once the removals end, no removed
    /// segment may survive a flush, a held segment 0 must link to segment
    /// 4, and with the chain dropped every segment must be freed. The
    /// removals pin a collector of their own, so the flushes wait for
    /// nothing else in the process.
    #[cfg(feature = "chaos")]
    fn remove_three_neighbours_at_once(release_first: bool) {
        use cqs_check::{Explorer, Program};
        use cqs_reclaim::Collector;

        let exploration = Explorer::default().check_exhaustive(|| {
            let collector = Arc::new(Collector::new());
            let mut segments = chain(5, 1);
            let witnesses: Vec<_> = segments.iter().map(Arc::downgrade).collect();
            let mut program = segments
                .drain(1..4)
                .fold(Program::new(), |program, segment| {
                    let collector = Arc::clone(&collector);
                    program.thread(move || segment.on_cancelled_cell(&collector.register().pin()))
                });
            if release_first {
                let first = segments.remove(0);
                program = program.thread(move || drop(first));
            }
            program.check(move || {
                let _ = collector.flush();
                if let Some(id) = (1..4).find(|&id| witnesses[id].strong_count() > 0) {
                    return Err(format!("removed segment {id} outlived the removals"));
                }
                if !release_first {
                    let next = segments[0].next.load(&collector.register().pin());
                    let next = next.map(|segment| segment.id());
                    if next != Some(4) {
                        return Err(format!("segment 0 links to {next:?}, not segment 4"));
                    }
                }
                drop(segments);
                let _ = collector.flush();
                match witnesses.iter().position(|w| w.strong_count() > 0) {
                    None => Ok(()),
                    Some(id) => Err(format!("segment {id} outlived its chain")),
                }
            })
        });
        assert!(
            exploration.runs > 1,
            "the removals must branch the schedule"
        );
    }

    #[cfg(feature = "chaos")]
    #[test]
    fn three_neighbours_removed_at_once_are_all_freed() {
        remove_three_neighbours_at_once(false);
    }

    #[cfg(feature = "chaos")]
    #[test]
    fn removals_beside_a_freed_neighbour_free_every_segment() {
        remove_three_neighbours_at_once(true);
    }

    #[test]
    fn pointer_decrement_triggers_removal() {
        let guard = pin();
        let segments = chain(3, 1);
        let head: AtomicArc<CqsSegment<u32>> = AtomicArc::new(Some(Arc::clone(&segments[0])));
        // Pin segment 1 with the head pointer, then cancel its only cell.
        assert!(move_forward(&head, &held(&segments[1]), &guard));
        segments[1].on_cancelled_cell(&guard);
        assert!(
            !segments[1].removed(),
            "pointer reference must keep the segment alive"
        );
        // Moving the head off the segment completes the removal.
        assert!(move_forward(&head, &held(&segments[2]), &guard));
        assert!(segments[1].removed());
        assert_eq!(segments[0].next.load(&guard).unwrap().id(), 2);
    }
}
