//! MPMC channels on the infinite array: senders and receivers meet in the
//! cells of one segment list, following "Fast and Scalable Channels in
//! Kotlin Coroutines" (Koval, Alistarh, Elizarov), minus `select` and
//! iterators. Channels are the application the paper names first (§7).
//!
//! [`CqsChannel`] comes in three capacities:
//!
//! * [`rendezvous`](CqsChannel::rendezvous) — no buffer; a send completes
//!   when a receiver takes the element;
//! * [`bounded(c)`](CqsChannel::bounded) — up to `c` buffered elements;
//!   senders beyond that wait, FIFO, until receivers make room;
//! * [`unbounded`](CqsChannel::unbounded) — sends never wait.
//!
//! # Structure
//!
//! Three counters index one array of cells:
//!
//! * `S`, the senders' counter, with the close status folded into its top
//!   bits: the fetch-and-add that gives a send its cell also tells it
//!   whether it came before the close;
//! * `R`, the receivers' counter;
//! * `B`, the end of the buffer (bounded channels only; rendezvous and
//!   unbounded channels use the constants 0 and ∞). A send into cell
//!   `s < max(B, R)` does not wait. Every receive that resolves its cell
//!   moves `B` one cell on (`expand_buffer`); a waiting sender in the cell
//!   it reaches is admitted into the buffer.
//!
//! Send `s` and receive `r = s` meet in cell `s`. The cell holds the
//! element, a sender's and a receiver's waiter slot, and the state:
//!
//! | state | meaning |
//! |---|---|
//! | `EMPTY` | nobody came yet |
//! | `IN_BUFFER` | `B` passed before the sender came: it will buffer |
//! | `BUFFERED` | the element waits for its receiver |
//! | `SENDER` | a sender waits with its element in the cell |
//! | `RECEIVER` | a receiver waits |
//! | `DONE` | the element went to its receiver |
//! | `INTERRUPTED_SEND`, `INTERRUPTED_RCV` | the waiter was cancelled |
//! | `CLOSED` | swept by `close()` |
//!
//! A waiter is a [`Request`]: a receiver's completes with the element, a
//! sender's with `()` once its element is accepted. Completing and
//! cancelling keep their smart-cancellation meaning — a cancel that loses
//! to a completion returns `false` and the value stays in the future. So
//! a refused delivery is never re-pocketed: a sender whose receiver
//! cancelled moves on to a fresh cell with its element, and a receiver
//! whose cancel lost keeps the element. A waiting sender's element is
//! owned by whoever settles its request: the receiver or `B` that
//! completes it, or the sender itself once it is cancelled. A cancelled
//! waiter's cell counts towards its segment's removal.
//!
//! # Order
//!
//! Elements leave in the order of their cells, so the channel is FIFO for
//! any number of senders and receivers: its histories linearize against
//! the bounded-FIFO model `ChannelLin` (`tests/lin_check.rs`).
//!
//! # Close, poison and crashes
//!
//! [`close`](CqsChannel::close) and [`poison`](CqsChannel::poison) set the
//! status in `S` before they sweep. The sweep visits every linked cell:
//! waiting senders and receivers are cancelled (each reads the status to
//! report `Closed` or `Poisoned`, and a sender takes its element back),
//! empty cells become `CLOSED`, so a late sender that reaches one gets its
//! element back, and `close()` returns the buffered elements in order. A
//! sender or receiver that published itself in a cell the sweep did not
//! reach re-reads the status and withdraws. `poison()` leaves buffered
//! elements in their cells, and [`drain`](CqsChannel::drain) re-runs the
//! same idempotent sweep to collect them. At quiescence every element
//! sent is accounted for exactly once: received, returned by
//! `close`/`drain`, or handed back in a `SendError`.
//!
//! The one crash window (`fault!`, chaos builds) sits right after a send
//! buffered its element: a crash there poisons the channel and leaves the
//! element for a receiver or `drain()`.
//!
//! All atomics here are `SeqCst`: the status in `S` against a cell CAS is
//! a store-then-load pair on two words, in both the closer and a
//! publishing sender or receiver, and so are `S`, `R` and `B` against the
//! cells they index.

use std::cell::UnsafeCell;
use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::SeqCst};
use std::sync::{Arc, Weak};
use std::task::{Context, Poll};
use std::time::Duration;

use cqs_future::{CancellationHandler, Cancelled, CqsFuture, FutureState, Request, WakeBatch};
use cqs_reclaim::{pin, AtomicArc, Guard, Protected};
use cqs_stats::CachePadded;

use crate::segment::{find_and_move_forward, linked_segments, move_forward, Segment, SegmentCell};

/// `S`'s status bits; the counter is the rest.
const CLOSED_BIT: u64 = 1 << 63;
const POISONED_BIT: u64 = 1 << 62;
const COUNTER: u64 = POISONED_BIT - 1;

/// Cells per segment, as in Kotlin's channels: three heads move once per
/// segment, each paying one strong count.
const SEGMENT_SIZE: usize = 32;

const EMPTY: usize = 0;
const IN_BUFFER: usize = 1;
const BUFFERED: usize = 2;
const SENDER: usize = 3;
const RECEIVER: usize = 4;
const DONE: usize = 5;
const INTERRUPTED_SEND: usize = 6;
const INTERRUPTED_RCV: usize = 7;
const CLOSED: usize = 8;

/// A send failed; the element comes back inside the error.
pub enum SendError<T> {
    /// The channel was closed before the element was accepted.
    Closed(T),
    /// The send was aborted by [`ChannelSend::cancel`] (or a timeout).
    Cancelled(T),
    /// The channel was [poisoned](CqsChannel::poison) — a participant
    /// crashed mid-operation — before the element was accepted.
    Poisoned(T),
}

impl<T> SendError<T> {
    /// Recovers the element that was not sent.
    pub fn into_inner(self) -> T {
        match self {
            SendError::Closed(v) | SendError::Cancelled(v) | SendError::Poisoned(v) => v,
        }
    }
}

impl<T> std::fmt::Debug for SendError<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SendError::Closed(_) => f.write_str("SendError::Closed(..)"),
            SendError::Cancelled(_) => f.write_str("SendError::Cancelled(..)"),
            SendError::Poisoned(_) => f.write_str("SendError::Poisoned(..)"),
        }
    }
}

impl<T> std::fmt::Display for SendError<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SendError::Closed(_) => f.write_str("channel closed; the element was returned"),
            SendError::Cancelled(_) => f.write_str("send cancelled; the element was returned"),
            SendError::Poisoned(_) => f.write_str("channel poisoned; the element was returned"),
        }
    }
}

impl<T> std::error::Error for SendError<T> {}

/// A receive completed without an element.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RecvError {
    /// The channel was closed while (or before) the receive waited.
    Closed,
    /// The receive was aborted by [`ChannelRecv::cancel`] or a timeout.
    Cancelled,
    /// The channel was [poisoned](CqsChannel::poison) — a participant
    /// crashed mid-operation — while (or before) the receive waited.
    Poisoned,
}

impl std::fmt::Display for RecvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecvError::Closed => f.write_str("channel closed"),
            RecvError::Cancelled => f.write_str("receive cancelled"),
            RecvError::Poisoned => f.write_str("channel poisoned"),
        }
    }
}

impl std::error::Error for RecvError {}

/// A cell of the channel's array (see the state table in the module docs).
pub(crate) struct ChannelCell<T> {
    state: AtomicUsize,
    element: UnsafeCell<Option<T>>,
    sender: AtomicArc<Request<()>>,
    receiver: AtomicArc<Request<T>>,
}

// SAFETY: the element moves between threads only through the handoffs
// argued at `put` and `take`, each ordered by a SeqCst RMW on `state` or
// on the sender's request, so `T: Send` suffices; `state` is atomic and
// the waiter slots are `AtomicArc`s.
unsafe impl<T: Send> Send for ChannelCell<T> {}
unsafe impl<T: Send> Sync for ChannelCell<T> {}

impl<T: Send + 'static> SegmentCell for ChannelCell<T> {
    const CANCELLABLE: bool = true;
    type Owner = ();

    fn new() -> Self {
        ChannelCell {
            state: AtomicUsize::new(EMPTY),
            element: UnsafeCell::new(None),
            sender: AtomicArc::null(),
            receiver: AtomicArc::null(),
        }
    }
}

type ChannelSegment<T> = Segment<ChannelCell<T>>;

impl<T: Send + 'static> ChannelCell<T> {
    fn state(&self) -> usize {
        self.state.load(SeqCst)
    }

    fn cas(&self, from: usize, to: usize) -> Result<(), usize> {
        self.state
            .compare_exchange(from, to, SeqCst, SeqCst)
            .map(|_| ())
    }

    /// The sender writes its element before a CAS publishes it.
    fn put(&self, element: T) {
        // SAFETY: only the cell's one sender (its index came from `S`)
        // writes the slot, and only while the cell is EMPTY or IN_BUFFER,
        // states in which nobody reads it.
        unsafe { *self.element.get() = Some(element) }
    }

    /// Takes the element out of the cell.
    fn take(&self) -> T {
        // SAFETY: the caller owns the element by the transition it just
        // won, and each happens once per cell: the sender's failed CAS of
        // its own unpublished write; a CAS out of BUFFERED, or out of
        // SENDER after the sender's request completed, by the receiver or
        // the sweep; or the sender itself once its request was cancelled,
        // after which nobody else touches the slot.
        unsafe { (*self.element.get()).take() }.expect("the cell holds an element")
    }

    /// Moves the cell out of `from` (SENDER or RECEIVER) into its
    /// interrupted state; the winner counts the cell for segment removal.
    fn interrupt(segment: &ChannelSegment<T>, index: usize, from: usize, guard: &Guard) {
        let cell = segment.cell(index);
        let to = if from == SENDER {
            INTERRUPTED_SEND
        } else {
            INTERRUPTED_RCV
        };
        cqs_chaos::inject!("channel.cell.pre-interrupt");
        if cell.cas(from, to).is_ok() {
            cell.clear(from, guard);
            segment.on_cancelled_cell(guard);
        }
    }

    /// Drops the cell's reference to the waiter that left state `from`.
    fn clear(&self, from: usize, guard: &Guard) {
        if from == SENDER {
            self.sender.store(None, guard);
        } else {
            self.receiver.store(None, guard);
        }
    }
}

/// A segment is the cancellation handler of every waiter in its cells;
/// the slot is `2 * index`, plus 1 for a receiver.
impl<T: Send + 'static> CancellationHandler for ChannelSegment<T> {
    fn on_cancel(self: Arc<Self>, slot: usize) {
        let from = if slot.is_multiple_of(2) {
            SENDER
        } else {
            RECEIVER
        };
        ChannelCell::interrupt(&self, slot / 2, from, &pin());
    }
}

/// The end of a bounded channel's buffer: `B` and its head.
struct BufferEnd<T: Send + 'static> {
    counter: CachePadded<AtomicU64>,
    segm: CachePadded<AtomicArc<ChannelSegment<T>>>,
}

struct ChannelShared<T: Send + 'static> {
    /// `S`: the senders' counter and the close status.
    senders: CachePadded<AtomicU64>,
    /// `R`: the receivers' counter.
    receivers: CachePadded<AtomicU64>,
    send_segm: CachePadded<AtomicArc<ChannelSegment<T>>>,
    recv_segm: CachePadded<AtomicArc<ChannelSegment<T>>>,
    /// `B`, for bounded channels with a buffer.
    buffer_end: Option<BufferEnd<T>>,
    /// `None` = unbounded, `Some(0)` = rendezvous.
    capacity: Option<u64>,
    segment_size: u64,
    watch_id: u64,
}

impl<T: Send + 'static> ChannelShared<T> {
    fn new(capacity: Option<u64>, segment_size: usize) -> Self {
        assert!(segment_size > 0, "segment size must be positive");
        let bounded = capacity.is_some_and(|c| c > 0);
        let heads = if bounded { 3 } else { 2 };
        let first = Segment::new(0, segment_size, heads, Weak::new());
        let head = || CachePadded::new(AtomicArc::new(Some(Arc::clone(&first))));
        ChannelShared {
            senders: CachePadded::new(AtomicU64::new(0)),
            receivers: CachePadded::new(AtomicU64::new(0)),
            send_segm: head(),
            recv_segm: head(),
            buffer_end: bounded.then(|| BufferEnd {
                counter: CachePadded::new(AtomicU64::new(capacity.unwrap_or(0))),
                segm: head(),
            }),
            capacity,
            segment_size: segment_size as u64,
            watch_id: cqs_watch::next_primitive_id("channel"),
        }
    }

    fn status(&self) -> u64 {
        self.senders.load(SeqCst) & !COUNTER
    }

    /// Where a send into cell `s` stops waiting: `B`, or 0 and ∞.
    fn buffer_end(&self) -> u64 {
        match (&self.buffer_end, self.capacity) {
            (Some(end), _) => end.counter.load(SeqCst),
            (None, Some(_)) => 0,
            (None, None) => u64::MAX,
        }
    }

    /// The segment of cell `i`, found from `head` (read before the
    /// counter, so the segment is reachable from it) and moved to; `None`
    /// if it was removed, which only a segment of interrupted cells is.
    fn segment<'g>(
        &self,
        head: &AtomicArc<ChannelSegment<T>>,
        start: Protected<'g, ChannelSegment<T>>,
        i: u64,
        guard: &'g Guard,
    ) -> Option<Protected<'g, ChannelSegment<T>>> {
        let id = i / self.segment_size;
        let size = self.segment_size as usize;
        let segment = find_and_move_forward(head, start, id, size, guard);
        (segment.id() == id).then_some(segment)
    }

    fn send(&self, mut element: T) -> SendState<T> {
        cqs_stats::bump!(channel_sends);
        let guard = pin();
        'cells: loop {
            let start = self
                .send_segm
                .load_protected(&guard)
                .expect("heads are never null");
            cqs_chaos::inject!("channel.send.pre-counter");
            let word = self.senders.fetch_add(1, SeqCst);
            if word & CLOSED_BIT != 0 {
                return SendState::Refused(Some(element));
            }
            let s = word & COUNTER;
            let Some(segment) = self.segment(&self.send_segm, start, s, &guard) else {
                continue;
            };
            let index = (s % self.segment_size) as usize;
            let cell = segment.cell(index);
            cqs_chaos::inject!("channel.send.pre-cell");
            let mut state = cell.state();
            loop {
                match state {
                    EMPTY | IN_BUFFER
                        if state == IN_BUFFER
                            || s < self.buffer_end()
                            || s < self.receivers.load(SeqCst) =>
                    {
                        cell.put(element);
                        match cell.cas(state, BUFFERED) {
                            Ok(()) => return self.buffered(cell),
                            Err(now) => (element, state) = (cell.take(), now),
                        }
                    }
                    EMPTY => {
                        let segment = segment.to_arc();
                        let request = Arc::new(Request::new());
                        request.set_cancellation_handler(segment.clone(), 2 * index);
                        cell.put(element);
                        cell.sender.store(Some(Arc::clone(&request)), &guard);
                        match cell.cas(EMPTY, SENDER) {
                            Ok(()) => return self.waiting_send(request, segment, index),
                            Err(now) => {
                                cell.sender.store(None, &guard);
                                (element, state) = (cell.take(), now);
                            }
                        }
                    }
                    RECEIVER => {
                        let Some(receiver) = cell.receiver.load_protected(&guard) else {
                            state = cell.state();
                            continue;
                        };
                        cqs_chaos::inject!("channel.send.pre-complete");
                        match receiver.complete(element) {
                            Ok(()) => {
                                cqs_stats::bump!(channel_direct_handoffs);
                                cell.state.store(DONE, SeqCst);
                                cell.receiver.store(None, &guard);
                                return SendState::Accepted;
                            }
                            Err(back) => {
                                element = back;
                                ChannelCell::interrupt(&segment, index, RECEIVER, &guard);
                                continue 'cells;
                            }
                        }
                    }
                    INTERRUPTED_RCV => continue 'cells,
                    CLOSED => return SendState::Refused(Some(element)),
                    other => unreachable!("a send found cell state {other}"),
                }
            }
        }
    }

    /// The sender's element is in its cell: the channel has it, unless
    /// a close this send raced did not sweep the cell.
    fn buffered(&self, cell: &ChannelCell<T>) -> SendState<T> {
        cqs_stats::bump!(channel_buffered_handoffs);
        #[cfg(feature = "chaos")]
        if let Err(panic) =
            std::panic::catch_unwind(|| cqs_chaos::fault!("channel.send.fault.buffered"))
        {
            self.poison();
            std::panic::resume_unwind(panic);
        }
        cqs_chaos::inject!("channel.send.pre-close-check");
        if self.status() != 0 && cell.cas(BUFFERED, CLOSED).is_ok() {
            return SendState::Refused(Some(cell.take()));
        }
        SendState::Accepted
    }

    fn waiting_send(
        &self,
        request: Arc<Request<()>>,
        segment: Arc<ChannelSegment<T>>,
        index: usize,
    ) -> SendState<T> {
        cqs_stats::bump!(channel_blocked_sends);
        cqs_watch::register_waiter!(self.watch_id, "channel", Arc::clone(&request));
        cqs_chaos::inject!("channel.send.pre-close-check");
        if self.status() != 0 {
            request.cancel();
        }
        SendState::Waiting {
            request,
            segment,
            index,
        }
    }

    fn receive(&self) -> CqsFuture<T> {
        cqs_stats::bump!(channel_recvs);
        let guard = pin();
        'cells: loop {
            if self.status() != 0 {
                return CqsFuture::cancelled();
            }
            let start = self
                .recv_segm
                .load_protected(&guard)
                .expect("heads are never null");
            cqs_chaos::inject!("channel.recv.pre-counter");
            let r = self.receivers.fetch_add(1, SeqCst);
            let Some(segment) = self.segment(&self.recv_segm, start, r, &guard) else {
                continue;
            };
            let index = (r % self.segment_size) as usize;
            let cell = segment.cell(index);
            cqs_chaos::inject!("channel.recv.pre-cell");
            let mut state = cell.state();
            loop {
                match state {
                    // No element yet, even if its sender is on the way: wait
                    // for it.
                    EMPTY | IN_BUFFER => {
                        if self.status() != 0 {
                            return CqsFuture::cancelled();
                        }
                        let request = Arc::new(Request::new());
                        request.set_cancellation_handler(segment.to_arc(), 2 * index + 1);
                        cell.receiver.store(Some(Arc::clone(&request)), &guard);
                        match cell.cas(state, RECEIVER) {
                            Ok(()) => return self.waiting_receive(request, &guard),
                            Err(now) => {
                                cell.receiver.store(None, &guard);
                                state = now;
                            }
                        }
                    }
                    BUFFERED => match cell.cas(BUFFERED, DONE) {
                        Ok(()) => {
                            let element = cell.take();
                            self.expand_buffer(&guard);
                            return CqsFuture::immediate(element);
                        }
                        Err(now) => state = now,
                    },
                    SENDER => {
                        let Some(sender) = cell.sender.load_protected(&guard) else {
                            state = cell.state();
                            continue;
                        };
                        cqs_chaos::inject!("channel.recv.pre-complete");
                        if sender.complete(()).is_err() && sender.is_cancelled() {
                            ChannelCell::interrupt(&segment, index, SENDER, &guard);
                            continue 'cells;
                        }
                        // Completed, by us or by `B`: the element is ours.
                        match cell.cas(SENDER, DONE) {
                            Ok(()) => {
                                cell.sender.store(None, &guard);
                                let element = cell.take();
                                self.expand_buffer(&guard);
                                return CqsFuture::immediate(element);
                            }
                            Err(now) => state = now,
                        }
                    }
                    INTERRUPTED_SEND => continue 'cells,
                    CLOSED => return CqsFuture::cancelled(),
                    other => unreachable!("a receive found cell state {other}"),
                }
            }
        }
    }

    fn waiting_receive(&self, request: Arc<Request<T>>, guard: &Guard) -> CqsFuture<T> {
        self.expand_buffer(guard);
        cqs_watch::register_waiter!(self.watch_id, "channel", Arc::clone(&request));
        cqs_chaos::inject!("channel.recv.pre-close-check");
        if self.status() != 0 {
            request.cancel();
        }
        CqsFuture::suspended(request)
    }

    /// `expandBuffer`: moves `B` on by one cell that will hold an element,
    /// admitting the sender waiting there, if any. A cell whose sender was
    /// interrupted holds none, so `B` moves on past it.
    fn expand_buffer(&self, guard: &Guard) {
        let Some(end) = &self.buffer_end else {
            return;
        };
        loop {
            let start = end
                .segm
                .load_protected(guard)
                .expect("heads are never null");
            cqs_chaos::inject!("channel.expand.pre-counter");
            let b = end.counter.fetch_add(1, SeqCst);
            if b >= self.senders.load(SeqCst) & COUNTER {
                // The sender of cell `b` will see `B` past it. The head
                // still follows as far as the list goes, or it would keep
                // every segment behind it alive.
                let mut last = start;
                while last.id() < b / self.segment_size {
                    match Segment::next(&last, guard) {
                        Some(next) => last = next,
                        None => break,
                    }
                }
                move_forward(&end.segm, &last, guard);
                return;
            }
            let Some(segment) = self.segment(&end.segm, start, b, guard) else {
                continue;
            };
            let index = (b % self.segment_size) as usize;
            let cell = segment.cell(index);
            loop {
                match cell.state() {
                    EMPTY => {
                        if cell.cas(EMPTY, IN_BUFFER).is_ok() {
                            return;
                        }
                    }
                    SENDER => {
                        let Some(sender) = cell.sender.load_protected(guard) else {
                            continue;
                        };
                        cqs_chaos::inject!("channel.expand.pre-complete");
                        if sender.complete(()).is_err() && sender.is_cancelled() {
                            ChannelCell::interrupt(&segment, index, SENDER, guard);
                            break;
                        }
                        if cell.cas(SENDER, BUFFERED).is_ok() {
                            cell.sender.store(None, guard);
                            return;
                        }
                    }
                    INTERRUPTED_SEND => break,
                    _ => return,
                }
            }
        }
    }

    /// Sets the status bits in `S`; returns whether `CLOSED_BIT` was new.
    fn set_status(&self, bits: u64) -> bool {
        self.senders.fetch_or(bits, SeqCst) & CLOSED_BIT == 0
    }

    /// The sweep's first pass: cancels every waiter in a linked cell (each
    /// reads the status set before) and closes the cells nobody reached.
    /// Returns their wake-ups, to fire once the pin is gone.
    fn cancel_waiters(&self) -> WakeBatch {
        cqs_chaos::inject!("channel.close.pre-sweep");
        let mut wakes = WakeBatch::new();
        let guard = pin();
        for segment in linked_segments([&*self.recv_segm, &*self.send_segm], &guard) {
            for index in 0..segment.len() {
                let cell = segment.cell(index);
                loop {
                    let wake = match cell.state() {
                        state @ (EMPTY | IN_BUFFER) => match cell.cas(state, CLOSED) {
                            Ok(()) => break,
                            Err(_) => continue,
                        },
                        SENDER => match cell.sender.load_protected(&guard) {
                            Some(sender) => sender.cancel_deferred(),
                            None => continue,
                        },
                        RECEIVER => match cell.receiver.load_protected(&guard) {
                            Some(receiver) => receiver.cancel_deferred(),
                            None => continue,
                        },
                        _ => break,
                    };
                    wakes.push(wake.unwrap_or_default());
                    break;
                }
            }
        }
        wakes
    }

    /// The sweep's second pass: takes every accepted element still in a
    /// linked cell, in cell order.
    fn take_elements(&self) -> Vec<T> {
        let mut taken = Vec::new();
        let guard = pin();
        for segment in linked_segments([&*self.recv_segm, &*self.send_segm], &guard) {
            for index in 0..segment.len() {
                let cell = segment.cell(index);
                loop {
                    match cell.state() {
                        BUFFERED => {
                            if cell.cas(BUFFERED, CLOSED).is_ok() {
                                taken.push(cell.take());
                                break;
                            }
                        }
                        SENDER => {
                            let Some(sender) = cell.sender.load_protected(&guard) else {
                                continue;
                            };
                            if !sender.is_terminated() || sender.is_cancelled() {
                                break; // its sender keeps the element
                            }
                            if cell.cas(SENDER, CLOSED).is_ok() {
                                cell.sender.store(None, &guard);
                                taken.push(cell.take());
                                break;
                            }
                        }
                        _ => break,
                    }
                }
            }
        }
        taken
    }

    /// Closes (or poisons) and sweeps; with `take`, also returns the
    /// elements left in the cells. A panic out of a waker still lets every
    /// wake fire, poisons the channel and leaves the elements for `drain`.
    fn sweep(&self, take: bool) -> Vec<T> {
        let mut wakes = self.cancel_waiters();
        if let Err(panic) = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| wakes.fire()))
        {
            self.mark_poisoned();
            std::panic::resume_unwind(panic);
        }
        if take {
            self.take_elements()
        } else {
            Vec::new()
        }
    }

    fn mark_poisoned(&self) {
        if self.senders.fetch_or(CLOSED_BIT | POISONED_BIT, SeqCst) & POISONED_BIT == 0 {
            cqs_watch::gauge!(self.watch_id, "poisoned", 1);
        }
    }

    fn poison(&self) {
        self.mark_poisoned();
        self.sweep(false);
    }

    /// The error for a waiter that settled cancelled: how the channel
    /// ended, or `None` while it is open.
    fn ending(channel: &Weak<Self>) -> Option<bool> {
        let status = channel
            .upgrade()
            .map_or(CLOSED_BIT, |shared| shared.status());
        (status != 0).then_some(status & POISONED_BIT != 0)
    }
}

impl<T: Send + 'static> Drop for ChannelShared<T> {
    /// Waiters still parked resolve `Closed`, which also drops the cells'
    /// references to them (a waiter holds its segment as its handler).
    /// Elements left in cells drop with their segments.
    fn drop(&mut self) {
        self.set_status(CLOSED_BIT);
        drop(self.cancel_waiters());
    }
}

/// A fair MPMC channel on CQS's infinite array: rendezvous, bounded or
/// unbounded, with cancellable sends *and* receives and a `close()` that
/// returns the unsent elements. See the module docs for the design.
///
/// # Example
///
/// ```
/// use cqs_core::channel::CqsChannel;
///
/// let ch = CqsChannel::bounded(2);
/// ch.send(1).wait().unwrap();
/// ch.send(2).wait().unwrap();
/// assert_eq!(ch.receive().wait(), Ok(1));
/// assert_eq!(ch.receive().wait(), Ok(2));
/// let unsent = ch.close();
/// assert!(unsent.is_empty());
/// ```
pub struct CqsChannel<T: Send + 'static> {
    shared: Arc<ChannelShared<T>>,
}

impl<T: Send + 'static> CqsChannel<T> {
    fn with_capacity(capacity: Option<u64>, segment_size: usize) -> Self {
        CqsChannel {
            shared: Arc::new(ChannelShared::new(capacity, segment_size)),
        }
    }

    /// A rendezvous channel: no buffer, every send completes by direct
    /// handoff to a receiver.
    pub fn rendezvous() -> Self {
        Self::with_capacity(Some(0), SEGMENT_SIZE)
    }

    /// A channel buffering at most `capacity` elements; `bounded(0)` is a
    /// [`rendezvous`](Self::rendezvous) channel.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` exceeds `i64::MAX` (not reachable on real
    /// machines).
    pub fn bounded(capacity: usize) -> Self {
        let capacity = i64::try_from(capacity).expect("channel capacity exceeds i64");
        Self::with_capacity(Some(capacity as u64), SEGMENT_SIZE)
    }

    /// A channel whose sends never suspend.
    pub fn unbounded() -> Self {
        Self::with_capacity(None, SEGMENT_SIZE)
    }

    /// The configured capacity; `None` when unbounded.
    pub fn capacity(&self) -> Option<usize> {
        self.shared.capacity.map(|c| c as usize)
    }

    /// Sends `element`. The returned future is immediate while the buffer
    /// has room or a receiver waits; otherwise it resolves when a receiver
    /// makes room — or fails with the element handed back if the channel
    /// is closed or the send is cancelled first.
    pub fn send(&self, element: T) -> ChannelSend<T> {
        ChannelSend {
            state: self.shared.send(element),
            channel: Arc::downgrade(&self.shared),
        }
    }

    /// Receives the oldest element: immediately while one is buffered or
    /// a sender waits, otherwise when a sender comes (FIFO among waiting
    /// receivers). Cancel the returned future to abort waiting.
    pub fn receive(&self) -> ChannelRecv<T> {
        ChannelRecv {
            inner: self.shared.receive(),
            channel: Arc::downgrade(&self.shared),
        }
    }

    /// Closes the channel and returns the elements that were buffered, in
    /// order: waiting receivers resolve [`RecvError::Closed`], waiting
    /// senders resolve [`SendError::Closed`] with their elements handed
    /// back, and later sends and receives fail fast. Closing again returns
    /// an empty vector; an element whose send raced the sweep is left for
    /// [`drain`](Self::drain).
    pub fn close(&self) -> Vec<T> {
        if !self.shared.set_status(CLOSED_BIT) {
            return Vec::new();
        }
        self.shared.sweep(true)
    }

    /// Poisons the channel: like [`close`](Self::close), but pending and
    /// subsequent operations fail with [`SendError::Poisoned`] /
    /// [`RecvError::Poisoned`] instead of the orderly `Closed` outcomes.
    /// Use when a participant crashed mid-protocol and in-flight elements
    /// may reflect inconsistent state. Buffered elements stay in the
    /// channel: retrieve them with [`drain`](Self::drain).
    pub fn poison(&self) {
        self.shared.poison();
    }

    /// Whether the channel was poisoned — by [`poison`](Self::poison), by
    /// an injected crash fault, or by a panic out of a waker during a
    /// close. A poisoned channel is always also [closed](Self::is_closed).
    pub fn is_poisoned(&self) -> bool {
        self.shared.status() & POISONED_BIT != 0
    }

    /// Sweeps a closed channel again and returns the elements still in
    /// it: those a poison left, and those whose sends raced the close.
    /// Returns an empty vector on an open channel. At quiescence (no send
    /// or receive in flight), `close()` and `drain()` together account for
    /// every element that was neither received nor handed back in an
    /// error.
    pub fn drain(&self) -> Vec<T> {
        if self.shared.status() == 0 {
            return Vec::new();
        }
        self.shared.sweep(true)
    }

    /// Whether [`close`](Self::close) (or [`poison`](Self::poison)) was
    /// called.
    pub fn is_closed(&self) -> bool {
        self.shared.status() != 0
    }

    /// A racy snapshot of the number of buffered elements; 0 once closed.
    /// Counts the cells that hold one, so a cancelled sender's cell, which
    /// `S - R` would count, does not.
    pub fn len(&self) -> usize {
        if self.is_closed() {
            return 0;
        }
        let guard = pin();
        let heads = [&*self.shared.recv_segm, &*self.shared.send_segm];
        let mut buffered = 0;
        for segment in linked_segments(heads, &guard) {
            let cells = 0..segment.len();
            buffered += cells
                .filter(|&i| segment.cell(i).state() == BUFFERED)
                .count();
        }
        buffered.min(self.capacity().unwrap_or(usize::MAX))
    }

    /// Whether the channel currently buffers no elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The id keying this channel's waiters in `cqs-watch` reports.
    pub fn watch_id(&self) -> u64 {
        self.shared.watch_id
    }
}

impl<T: Send + 'static> Clone for CqsChannel<T> {
    fn clone(&self) -> Self {
        CqsChannel {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl<T: Send + 'static> std::fmt::Debug for CqsChannel<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let word = self.shared.senders.load(SeqCst);
        f.debug_struct("CqsChannel")
            .field("capacity", &self.shared.capacity)
            .field("senders", &(word & COUNTER))
            .field("receivers", &self.shared.receivers.load(SeqCst))
            .field("closed", &(word & CLOSED_BIT != 0))
            .finish()
    }
}

/// The pending side of [`CqsChannel::send`]: resolves once the element is
/// in the channel (buffered or handed to a receiver), fails with the
/// element handed back on close or cancellation. Implements
/// [`std::future::Future`].
pub struct ChannelSend<T: Send + 'static> {
    state: SendState<T>,
    channel: Weak<ChannelShared<T>>,
}

enum SendState<T: Send + 'static> {
    /// The element entered the channel without waiting.
    Accepted,
    /// The element came back (the status in `S` tells why); emptied when
    /// the error hands it out.
    Refused(Option<T>),
    /// Waits in `segment[index]`, its element in the cell.
    Waiting {
        request: Arc<Request<()>>,
        segment: Arc<ChannelSegment<T>>,
        index: usize,
    },
}

// The element is only ever moved out whole, never pinned in place.
impl<T: Send + 'static> Unpin for ChannelSend<T> {}

impl<T: Send + 'static> ChannelSend<T> {
    /// Whether the element was accepted without waiting.
    pub fn is_immediate(&self) -> bool {
        matches!(self.state, SendState::Accepted)
    }

    /// Aborts a waiting send. Returns `true` if this call aborted it — the
    /// element is then recovered through [`wait`](Self::wait)'s error.
    /// Sends that were accepted immediately cannot be cancelled.
    pub fn cancel(&self) -> bool {
        match &self.state {
            SendState::Waiting { request, .. } => request.cancel(),
            _ => false,
        }
    }

    /// Resolves the send once its request settled (or it was refused):
    /// hands the element back, from its cell if it waited, with how the
    /// channel ended, or as `Cancelled` while it is open.
    fn settle(&mut self, settled: Result<(), Cancelled>) -> Result<(), SendError<T>> {
        let element = match std::mem::replace(&mut self.state, SendState::Refused(None)) {
            SendState::Accepted => return Ok(()),
            SendState::Refused(element) => element.expect("polled after completion"),
            SendState::Waiting { segment, index, .. } => match settled {
                Ok(()) => return Ok(()),
                // Cancelled: the sender owns its element again.
                Err(Cancelled) => segment.cell(index).take(),
            },
        };
        Err(match ChannelShared::ending(&self.channel) {
            Some(true) => SendError::Poisoned(element),
            Some(false) => SendError::Closed(element),
            None => SendError::Cancelled(element),
        })
    }

    /// Blocks until the element is accepted.
    ///
    /// # Errors
    ///
    /// [`SendError`] with the element handed back if the channel closed
    /// first or the send was cancelled.
    pub fn wait(mut self) -> Result<(), SendError<T>> {
        let settled = match &self.state {
            SendState::Waiting { request, .. } => request.wait(),
            _ => Ok(()),
        };
        self.settle(settled)
    }

    /// Like [`wait`](Self::wait) with a deadline: on expiry the waiting
    /// send is aborted and the element handed back; if the abort loses to
    /// a receiver, the element is delivered and the send reports success.
    ///
    /// # Errors
    ///
    /// [`SendError::Cancelled`] with the element on timeout,
    /// [`SendError::Closed`] if the channel closed while waiting.
    pub fn wait_timeout(mut self, timeout: Duration) -> Result<(), SendError<T>> {
        let settled = match &self.state {
            SendState::Waiting { request, .. } => request.wait_timeout(timeout),
            _ => Ok(()),
        };
        self.settle(settled)
    }
}

impl<T: Send + 'static> Future for ChannelSend<T> {
    type Output = Result<(), SendError<T>>;

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let settled = match &self.state {
            SendState::Waiting { request, .. } => match request.poll(cx) {
                Poll::Pending => return Poll::Pending,
                Poll::Ready(settled) => settled,
            },
            _ => Ok(()),
        };
        Poll::Ready(self.settle(settled))
    }
}

impl<T: Send + 'static> std::fmt::Debug for ChannelSend<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChannelSend")
            .field("immediate", &self.is_immediate())
            .finish_non_exhaustive()
    }
}

/// The pending side of [`CqsChannel::receive`]: completes with the
/// element. Implements [`std::future::Future`].
///
/// A waiting `ChannelRecv` dropped without [`cancel`](Self::cancel) stays
/// registered: the next send completes it, and the element is lost with
/// the future.
pub struct ChannelRecv<T: Send + 'static> {
    inner: CqsFuture<T>,
    channel: Weak<ChannelShared<T>>,
}

impl<T: Send + 'static> ChannelRecv<T> {
    fn error(channel: &Weak<ChannelShared<T>>) -> RecvError {
        match ChannelShared::ending(channel) {
            Some(true) => RecvError::Poisoned,
            Some(false) => RecvError::Closed,
            None => RecvError::Cancelled,
        }
    }

    /// Whether an element was available without waiting.
    pub fn is_immediate(&self) -> bool {
        self.inner.is_immediate()
    }

    /// Non-blocking observation; takes the element if one was delivered.
    ///
    /// # Panics
    ///
    /// Panics if a previous call already returned the element.
    pub fn try_get(&mut self) -> FutureState<T> {
        self.inner.try_get()
    }

    /// Aborts the waiting receive. Returns `true` if this call aborted
    /// it; a send that already completed it wins the race and the element
    /// stays claimable.
    pub fn cancel(&self) -> bool {
        self.inner.cancel()
    }

    /// Blocks until an element arrives.
    ///
    /// # Errors
    ///
    /// [`RecvError::Closed`] if the channel closed, otherwise
    /// [`RecvError::Cancelled`] if [`cancel`](Self::cancel) won first.
    pub fn wait(self) -> Result<T, RecvError> {
        let ChannelRecv { inner, channel } = self;
        inner.wait().map_err(|Cancelled| Self::error(&channel))
    }

    /// Like [`wait`](Self::wait) with a deadline; on timeout the waiting
    /// receive is aborted. If the abort loses to a send, the element is
    /// returned — never dropped.
    ///
    /// # Errors
    ///
    /// [`RecvError::Cancelled`] on timeout, [`RecvError::Closed`] if the
    /// channel closed while waiting.
    pub fn wait_timeout(self, timeout: Duration) -> Result<T, RecvError> {
        cqs_chaos::inject!("channel.recv.timeout-window");
        let ChannelRecv { inner, channel } = self;
        inner
            .wait_timeout(timeout)
            .map_err(|Cancelled| Self::error(&channel))
    }
}

impl<T: Send + 'static> Future for ChannelRecv<T> {
    type Output = Result<T, RecvError>;

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let this = &mut *self;
        Pin::new(&mut this.inner)
            .poll(cx)
            .map(|settled| settled.map_err(|Cancelled| Self::error(&this.channel)))
    }
}

impl<T: Send + 'static> std::fmt::Debug for ChannelRecv<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChannelRecv")
            .field("inner", &self.inner)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::time::Duration;

    #[test]
    fn bounded_fifo_within_capacity() {
        let ch = CqsChannel::bounded(4);
        for v in 0..4 {
            let f = ch.send(v);
            assert!(f.is_immediate());
            f.wait().unwrap();
        }
        for v in 0..4 {
            assert_eq!(ch.receive().wait(), Ok(v));
        }
        assert!(ch.is_empty());
    }

    #[test]
    fn bounded_send_blocks_at_capacity_and_stays_ordered() {
        let ch = CqsChannel::bounded(1);
        ch.send(1).wait().unwrap();
        let b2 = ch.send(2);
        let b3 = ch.send(3);
        assert!(!b2.is_immediate());
        assert!(!b3.is_immediate());
        // Consuming 1 admits the oldest blocked sender; elements arrive
        // in send order across the blocked/immediate boundary.
        assert_eq!(ch.receive().wait(), Ok(1));
        b2.wait().unwrap();
        assert_eq!(ch.receive().wait(), Ok(2));
        b3.wait().unwrap();
        assert_eq!(ch.receive().wait(), Ok(3));
        assert!(ch.is_empty());
    }

    #[test]
    fn rendezvous_send_waits_for_receiver() {
        let ch = CqsChannel::rendezvous();
        let pending = ch.send(7);
        assert!(!pending.is_immediate(), "no receiver yet");
        let r = ch.receive();
        pending.wait().unwrap();
        assert_eq!(r.wait(), Ok(7));
    }

    #[test]
    fn rendezvous_receive_waits_for_sender() {
        let ch = std::sync::Arc::new(CqsChannel::rendezvous());
        let c2 = std::sync::Arc::clone(&ch);
        let t = std::thread::spawn(move || c2.receive().wait());
        std::thread::sleep(Duration::from_millis(10));
        ch.send(42).wait().unwrap();
        assert_eq!(t.join().unwrap(), Ok(42));
    }

    #[test]
    fn unbounded_send_never_blocks() {
        let ch = CqsChannel::unbounded();
        for v in 0..1_000 {
            assert!(ch.send(v).is_immediate());
        }
        assert_eq!(ch.len(), 1_000);
        for v in 0..1_000 {
            assert_eq!(ch.receive().wait(), Ok(v));
        }
    }

    #[test]
    fn cancel_waiting_receive() {
        let ch: CqsChannel<u32> = CqsChannel::bounded(2);
        let r = ch.receive();
        assert!(r.cancel());
        assert_eq!(r.wait(), Err(RecvError::Cancelled));
        // The channel still works: the cancelled waiter deregistered.
        ch.send(5).wait().unwrap();
        assert_eq!(ch.receive().wait(), Ok(5));
    }

    #[test]
    fn cancel_blocked_send_returns_element() {
        let ch = CqsChannel::bounded(1);
        ch.send(1).wait().unwrap();
        let blocked = ch.send(2);
        assert!(blocked.cancel());
        match blocked.wait() {
            Err(SendError::Cancelled(v)) => assert_eq!(v, 2),
            other => panic!("expected Cancelled(2), got {other:?}"),
        }
        // The slot the cancelled sender was queued for is intact.
        assert_eq!(ch.receive().wait(), Ok(1));
        assert!(ch.is_empty(), "a cancelled send buffers nothing");
        assert!(ch.send(3).is_immediate());
        assert_eq!(ch.receive().wait(), Ok(3));
    }

    #[test]
    fn receive_timeout_aborts_and_channel_survives() {
        let ch: CqsChannel<u32> = CqsChannel::bounded(1);
        let r = ch.receive();
        assert_eq!(
            r.wait_timeout(Duration::from_millis(10)),
            Err(RecvError::Cancelled)
        );
        ch.send(3).wait().unwrap();
        assert_eq!(ch.receive().wait(), Ok(3));
    }

    #[test]
    fn send_timeout_returns_element() {
        let ch = CqsChannel::bounded(1);
        ch.send(1).wait().unwrap();
        match ch.send(2).wait_timeout(Duration::from_millis(10)) {
            Err(SendError::Cancelled(v)) => assert_eq!(v, 2),
            other => panic!("expected Cancelled(2), got {other:?}"),
        }
        assert_eq!(ch.receive().wait(), Ok(1));
        // Capacity intact after the timed-out send deregistered.
        assert!(ch.send(4).is_immediate());
    }

    #[test]
    fn close_returns_buffered_and_resolves_both_sides() {
        let ch = CqsChannel::bounded(2);
        ch.send(1).wait().unwrap();
        ch.send(2).wait().unwrap();
        let blocked = ch.send(3);
        assert!(!blocked.is_immediate());
        let unsent = ch.close();
        assert_eq!(unsent, vec![1, 2], "buffered elements come back");
        match blocked.wait() {
            Err(SendError::Closed(v)) => assert_eq!(v, 3),
            other => panic!("expected Closed(3), got {other:?}"),
        }
        assert!(ch.is_closed());
        assert!(ch.close().is_empty(), "closing twice returns nothing");
    }

    #[test]
    fn close_wakes_waiting_receivers() {
        let ch: std::sync::Arc<CqsChannel<u32>> = std::sync::Arc::new(CqsChannel::bounded(2));
        let c2 = std::sync::Arc::clone(&ch);
        let t = std::thread::spawn(move || c2.receive().wait());
        std::thread::sleep(Duration::from_millis(10));
        assert!(ch.close().is_empty());
        assert_eq!(t.join().unwrap(), Err(RecvError::Closed));
    }

    #[test]
    fn operations_fail_fast_after_close() {
        let ch = CqsChannel::bounded(2);
        ch.close();
        match ch.send(9).wait() {
            Err(SendError::Closed(v)) => assert_eq!(v, 9),
            other => panic!("expected Closed(9), got {other:?}"),
        }
        assert_eq!(ch.receive().wait(), Err(RecvError::Closed));
    }

    /// A delivered receive dropped without `wait()` must not shrink the
    /// bounded capacity: `B` moves when the receive takes its cell.
    #[test]
    fn dropped_delivered_receive_frees_its_slot() {
        let ch = CqsChannel::bounded(1);
        for round in 0..3 {
            let f = ch.send(round);
            assert!(f.is_immediate(), "round {round}: slot leaked");
            f.wait().unwrap();
            drop(ch.receive());
        }
    }

    /// A waiting receiver dropped without `cancel()` stays registered:
    /// the next delivery commits to the abandoned future and its element
    /// is dropped with it (the documented `ChannelRecv` contract) — but
    /// the channel itself must stay healthy and closeable.
    #[test]
    fn dropped_waiting_receive_does_not_wedge_the_channel() {
        let ch: CqsChannel<u32> = CqsChannel::rendezvous();
        drop(ch.receive());
        // Delivered into the abandoned future; the send still succeeds.
        ch.send(1).wait().unwrap();
        // Pairing keeps working afterwards.
        let r = ch.receive();
        let f = ch.send(2);
        assert_eq!(r.wait(), Ok(2));
        f.wait().unwrap();
        assert!(ch.close().is_empty());
    }

    #[test]
    fn mpmc_conservation() {
        const SENDERS: usize = 4;
        const RECEIVERS: usize = 4;
        const PER_SENDER: usize = 1_000;
        for ch in [
            CqsChannel::bounded(8),
            CqsChannel::rendezvous(),
            CqsChannel::unbounded(),
        ] {
            let ch = std::sync::Arc::new(ch);
            let sum = std::sync::Arc::new(AtomicUsize::new(0));
            let mut joins = Vec::new();
            for s in 0..SENDERS {
                let ch = std::sync::Arc::clone(&ch);
                joins.push(std::thread::spawn(move || {
                    for i in 0..PER_SENDER {
                        ch.send(s * PER_SENDER + i).wait().unwrap();
                    }
                }));
            }
            for _ in 0..RECEIVERS {
                let ch = std::sync::Arc::clone(&ch);
                let sum = std::sync::Arc::clone(&sum);
                joins.push(std::thread::spawn(move || {
                    for _ in 0..SENDERS * PER_SENDER / RECEIVERS {
                        let v = ch.receive().wait().unwrap();
                        sum.fetch_add(v, std::sync::atomic::Ordering::SeqCst);
                    }
                }));
            }
            for j in joins {
                j.join().unwrap();
            }
            let n = SENDERS * PER_SENDER;
            assert_eq!(
                sum.load(std::sync::atomic::Ordering::SeqCst),
                n * (n - 1) / 2
            );
            assert!(ch.is_empty());
        }
    }

    /// Poisoning settles both sides with the dedicated error and keeps
    /// buffered elements retrievable.
    #[test]
    fn poison_fails_pending_and_future_operations() {
        let ch = CqsChannel::bounded(2);
        ch.send(1).wait().unwrap();
        ch.send(2).wait().unwrap();
        let blocked = ch.send(3);
        assert!(!blocked.is_immediate());
        ch.poison();
        assert!(ch.is_poisoned());
        assert!(ch.is_closed());
        match blocked.wait() {
            Err(SendError::Poisoned(v)) => assert_eq!(v, 3),
            other => panic!("expected Poisoned(3), got {other:?}"),
        }
        // Conservation: the buffered elements survive the poison.
        let mut returned = ch.drain();
        returned.sort_unstable();
        assert_eq!(returned, vec![1, 2]);
        // Post-poison operations fail fast with the poisoned error.
        match ch.send(9).wait() {
            Err(SendError::Poisoned(v)) => assert_eq!(v, 9),
            other => panic!("expected Poisoned(9), got {other:?}"),
        }
        assert_eq!(ch.receive().wait(), Err(RecvError::Poisoned));
    }

    #[test]
    fn poison_wakes_parked_receiver_with_poisoned() {
        let ch: std::sync::Arc<CqsChannel<u32>> = std::sync::Arc::new(CqsChannel::bounded(2));
        let c2 = std::sync::Arc::clone(&ch);
        let t = std::thread::spawn(move || c2.receive().wait());
        std::thread::sleep(Duration::from_millis(10));
        ch.poison();
        assert_eq!(t.join().unwrap(), Err(RecvError::Poisoned));
    }

    /// Concurrent close vs sends: every element ends up in exactly one
    /// sink — delivered, returned by close()/drain(), or handed back in
    /// a SendError.
    #[test]
    fn close_racing_sends_conserves_elements() {
        for round in 0..50 {
            let ch = std::sync::Arc::new(CqsChannel::bounded(2));
            let mut senders = Vec::new();
            for v in 0..4u64 {
                let ch = std::sync::Arc::clone(&ch);
                senders.push(std::thread::spawn(move || match ch.send(v).wait() {
                    Ok(()) => (1u64, 0u64),
                    Err(e) => (0, e.into_inner() + 1),
                }));
            }
            if round % 2 == 0 {
                std::thread::yield_now();
            }
            let mut returned = ch.close();
            let mut accepted = 0u64;
            let mut errored = 0u64;
            for t in senders {
                let (ok, _err) = t.join().unwrap();
                accepted += ok;
                errored += 1 - ok;
            }
            returned.extend(ch.drain());
            assert_eq!(
                returned.len() as u64 + errored,
                4,
                "round {round}: accepted={accepted} returned={returned:?} errored={errored}"
            );
            assert_eq!(returned.len() as u64, accepted, "round {round}");
        }
    }

    /// `Cqs::segment_witnesses` for the channel's list.
    fn witnesses(ch: &CqsChannel<u64>) -> Vec<Weak<ChannelSegment<u64>>> {
        let guard = pin();
        let heads = [&*ch.shared.recv_segm, &*ch.shared.send_segm];
        let linked = linked_segments(heads, &guard);
        linked.map(|segment| segment.downgrade()).collect()
    }

    /// No head keeps a segment it has left: every channel segment behind
    /// all three heads (`S`'s, `R`'s and `B`'s) is freed at rest, and the
    /// last once the channel drops. A `bounded(1)` channel passes elements
    /// over eight segments; halfway, a cancelled receive and a cancelled
    /// send interrupt a cell each, and at size 1 their segments are
    /// removed.
    #[test]
    fn channel_segments_behind_all_heads_are_freed() {
        use crate::tests::first_survivor;
        for size in [1usize, 2, 16] {
            let ch = CqsChannel::with_capacity(Some(1), size);
            let mut behind = Vec::new();
            for v in 0..8 * size as u64 {
                let halfway = v == 4 * size as u64;
                if halfway {
                    assert!(ch.receive().cancel(), "size {size}");
                }
                behind.extend(witnesses(&ch));
                ch.send(v).wait().unwrap();
                if halfway {
                    let blocked = ch.send(u64::MAX);
                    assert!(blocked.cancel(), "size {size}");
                    assert!(matches!(blocked.wait(), Err(SendError::Cancelled(_))));
                }
                assert_eq!(ch.receive().wait(), Ok(v), "size {size}");
            }
            let last = witnesses(&ch);
            assert_eq!(last.len(), 1, "size {size}: every head on the tail");
            behind.retain(|segment| !segment.ptr_eq(&last[0]));
            let _ = cqs_reclaim::flush();
            assert_eq!(first_survivor(&behind), None, "size {size}: behind heads");
            drop(ch);
            assert_eq!(first_survivor(&last), None, "size {size}: after the drop");
        }
    }
}
