#![warn(missing_docs)]

//! Segment-native MPMC channels built directly on CQS — the extension the
//! paper names first among CQS's applications (§7), following the design
//! lineage of "Fast and Scalable Channels in Kotlin Coroutines" (Koval,
//! Alistarh, Elizarov): the channel *is* two cancellable queue
//! synchronizers plus counters, not a composition of coarser primitives.
//!
//! [`CqsChannel`] comes in three capacities:
//!
//! * [`rendezvous`](CqsChannel::rendezvous) — no buffer; a send completes
//!   when a receiver takes the element (direct handoff);
//! * [`bounded(c)`](CqsChannel::bounded) — up to `c` buffered elements;
//!   senders beyond that suspend FIFO until receivers free capacity;
//! * [`unbounded`](CqsChannel::unbounded) — sends never suspend.
//!
//! # Structure
//!
//! Two smart-cancellation CQS queues and two counters:
//!
//! * `size` (pool discipline): positive counts buffered elements,
//!   negative counts waiting receivers. A sender's *delivery* does
//!   `fetch_add`: a negative result licenses a direct `resume(value)` to
//!   the oldest waiting receiver, otherwise the element goes to the
//!   buffer (a [`QueueBackend`] — the same infinite-array rendezvous used
//!   by the pools).
//! * `slots` (semaphore discipline, bounded channels only): positive
//!   counts free capacity, negative counts blocked senders. `send` gates
//!   on `fetch_sub`; consuming an element releases a slot, which resumes
//!   the oldest blocked sender with a *grant*. The granted sender's
//!   element is delivered by a settlement hook
//!   ([`CqsFuture::on_settled`]) on the granting thread, preserving the
//!   sender's FIFO position, before its send future resolves.
//!
//! A slot is held by an element from acceptance until *consumption*:
//! retrieving from the buffer releases inline, a direct handoff releases
//! through the receiving future's settlement hook. Rendezvous channels
//! invert the rule — a waiting receiver *is* the capacity, so suspending
//! a receiver releases a slot and cancelling it takes the release back.
//!
//! # Ordering
//!
//! With one sender and one receiver the channel is strictly FIFO — the
//! core checked against the `ChannelLin` sequential model: each delivery
//! completes (direct hand-off or buffer insert) before the sender's next
//! send begins, so elements arrive in send order. Three edges outside
//! that core are deliberately relaxed, trading strict order for
//! conservation:
//!
//! * **Concurrent receivers** are ranked by the order their waiters reach
//!   the receiver queue, not by the order their claims hit the counter: a
//!   receiver descheduled between the two can let an element destined for
//!   it be eliminated by a receiver that suspends earlier.
//! * **A refused hand-off** (receive cancellation losing its race against
//!   an in-flight delivery) re-pockets the element at the buffer tail,
//!   behind elements accepted after it. Kotlin's channels drop the
//!   element in this situation; re-pocketing keeps conservation exact at
//!   the cost of order at that edge.
//! * **A broken insert** (a receiver's claim racing a delivery that has
//!   announced on the counter but not yet landed in the buffer breaks
//!   the paired slot) makes the delivery re-announce and re-pocket at
//!   the tail — so with concurrent senders an element can slip behind
//!   one accepted after it. The standing claim and the re-announcement
//!   cancel on the counter, keeping the ledger exact.
//!
//! # Cancellation and close
//!
//! Both sides abort through the smart-cancellation path (paper, §5): a
//! cancelled waiter either deregisters (`CANCELLED`) or — when a
//! delivery already committed to it — refuses the resume (`REFUSE`), and
//! the refused element re-enters the channel for the next receiver.
//! Cancellation therefore never loses elements.
//!
//! [`close`](CqsChannel::close) sweeps both waiter queues through the
//! normal CQS cancellation sweep: waiting receivers resolve
//! [`RecvError::Closed`], blocked senders resolve with their element
//! handed back ([`SendError::Closed`]), and the buffered elements come
//! back as `close`'s return value. Sends racing the close may land
//! elements after the sweep; those are parked as *orphans* and retrieved
//! with [`drain`](CqsChannel::drain) once the racing operations finish —
//! at quiescence, every element sent is accounted for exactly once:
//! delivered to a receiver, returned by `close`/`drain`, or handed back
//! in a `SendError`.

use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};
use std::sync::{Arc, Mutex, Weak};

use cqs_core::{CancellationMode, Cqs, CqsCallbacks, CqsConfig, ResumeMode, Suspend};
use cqs_future::{Cancelled, CqsFuture, FutureState, Request};
use cqs_pool::{PoolBackend, QueueBackend};
use cqs_stats::CachePadded;

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

/// Callbacks of the receiver queue (`Cqs<T, _>`): `size` bookkeeping for
/// cancelled receivers and re-routing of refused deliveries.
struct RecvCallbacks<T: Send + 'static> {
    shared: Weak<ChannelShared<T>>,
}

impl<T: Send + 'static> CqsCallbacks<T> for RecvCallbacks<T> {
    fn on_cancellation(&self) -> bool {
        let Some(shared) = self.shared.upgrade() else {
            // The channel is gone; no delivery can be in flight.
            return true;
        };
        // Either deregister a waiting receiver or (s >= 0) acknowledge
        // that a delivery already committed to this cell — the element is
        // counted back into the channel by this very increment, and the
        // refused resume re-routes it.
        let s = shared.size.fetch_add(1, Ordering::SeqCst);
        let deregistered = s < 0;
        if deregistered && shared.capacity == Some(0) {
            // Rendezvous: the receiver's presence was the capacity; take
            // the slot released at suspension back. If a sender was
            // granted on its strength in the meantime, the grant still
            // delivers — the element parks in the side-pocket buffer for
            // the next receiver, so nothing is lost (see module docs).
            shared.slots.fetch_sub(1, Ordering::SeqCst);
        }
        deregistered
    }

    fn complete_refused_resume(&self, element: T) {
        let Some(shared) = self.shared.upgrade() else {
            return; // channel gone; drop the element with it
        };
        cqs_stats::bump!(channel_refused_redeliveries);
        // `on_cancellation` already counted the element back into `size`,
        // so store it without another increment; a broken slot means a
        // racing retrieve gave up its claim, which `deliver` re-counts.
        if let Err(back) = shared.buffer.try_insert(element) {
            shared.deliver(back);
        }
    }
}

/// Callbacks of the blocked-sender queue (`Cqs<(), _>`): pure semaphore
/// discipline on `slots`.
struct SendCallbacks {
    slots: Arc<CachePadded<AtomicI64>>,
}

impl CqsCallbacks<()> for SendCallbacks {
    fn on_cancellation(&self) -> bool {
        // Either return the would-be slot or deregister the blocked
        // sender; s >= 0 means a grant already committed to this sender
        // and the refused grant's slot is re-banked by this increment.
        let s = self.slots.fetch_add(1, Ordering::SeqCst);
        s < 0
    }

    fn complete_refused_resume(&self, _grant: ()) {
        // The slot went back into `slots` in on_cancellation already.
    }
}

struct ChannelShared<T: Send + 'static> {
    /// Pool discipline: `> 0` elements stored (buffer), `< 0` waiting
    /// receivers (negated).
    size: CachePadded<AtomicI64>,
    /// Semaphore discipline (bounded channels only): `> 0` free capacity,
    /// `<= 0` blocked senders (negated). Unused when unbounded.
    slots: Arc<CachePadded<AtomicI64>>,
    /// `None` = unbounded, `Some(0)` = rendezvous.
    capacity: Option<i64>,
    /// Element storage; also the rendezvous side-pocket for elements
    /// re-routed by cancel/close races.
    buffer: QueueBackend<T>,
    /// Waiting receivers; resumed directly with elements.
    receivers: Cqs<T, RecvCallbacks<T>>,
    /// Blocked senders; resumed with capacity grants.
    senders: Cqs<(), SendCallbacks>,
    closed: AtomicBool,
    /// Set (before `closed`) when a participant crashed mid-operation;
    /// distinguishes [`SendError::Poisoned`]/[`RecvError::Poisoned`] from
    /// the orderly `Closed` outcomes.
    poisoned: AtomicBool,
    /// Elements claimed back from the buffer after `closed` flipped;
    /// returned by `close()` / `drain()`.
    orphans: Mutex<Vec<T>>,
}

impl<T: Send + 'static> ChannelShared<T> {
    /// Puts an element into the channel: hands it to the oldest waiting
    /// receiver if one is counted, stores it otherwise. Exactly the
    /// pool's `put` loop — a failed insert means a racing retrieve broke
    /// the slot and gave its claim back, so the loop re-counts.
    fn deliver(&self, element: T) {
        let mut staged = Some(element);
        self.fault_window("channel.deliver.fault.pre-count", &mut staged);
        let Some(mut element) = staged else {
            return; // unreachable: the window rethrows after recovery
        };
        loop {
            cqs_chaos::inject!("channel.deliver.pre-count");
            let s = self.size.fetch_add(1, Ordering::SeqCst);
            if s < 0 {
                cqs_chaos::inject!("channel.deliver.pre-resume");
                cqs_stats::bump!(channel_direct_handoffs);
                self.receivers
                    .resume(element)
                    .unwrap_or_else(|_| unreachable!("smart async resume cannot fail"));
                return;
            }
            cqs_stats::bump!(channel_buffered_handoffs);
            match self.buffer.try_insert(element) {
                Ok(()) => return,
                Err(back) => {
                    element = back;
                    std::hint::spin_loop();
                }
            }
        }
    }

    /// Releases one capacity slot, granting the oldest blocked sender if
    /// there is one. Bounded channels only.
    fn release_slot(&self) {
        cqs_chaos::inject!("channel.slot.pre-release");
        let s = self.slots.fetch_add(1, Ordering::SeqCst);
        if s < 0 {
            self.senders
                .resume(())
                .unwrap_or_else(|_| unreachable!("smart async resume cannot fail"));
        }
    }

    /// After `closed` flipped: claim every stored element into `orphans`
    /// so `close()`/`drain()` can return them. Claims follow the pool
    /// discipline — an empty slot under a positive count means a racing
    /// deliver has announced but not inserted yet; breaking the slot
    /// makes that deliver restart, and its restart re-increments for our
    /// standing decrement.
    fn sweep_buffer_into_orphans(&self) {
        loop {
            cqs_chaos::inject!("channel.close.pre-sweep");
            let r = self.size.fetch_sub(1, Ordering::SeqCst);
            if r <= 0 {
                self.size.fetch_add(1, Ordering::SeqCst);
                return;
            }
            if let Some(v) = self.buffer.try_retrieve() {
                cqs_stats::bump!(channel_orphaned);
                self.orphans
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .push(v);
            } else {
                std::thread::yield_now();
            }
        }
    }

    /// A crash unwound through an inline slot release while the caller's
    /// receive future may already hold a delivered element (a sender
    /// eliminated with the freshly-suspended cell before the unwind).
    /// Move the element into the orphan list — conserving it for
    /// [`CqsChannel::drain`] — so the unwind does not drop it along with
    /// the future.
    fn rescue_settled_value(&self, f: &mut CqsFuture<T>) {
        if let FutureState::Ready(v) = f.try_get() {
            cqs_stats::bump!(channel_orphaned);
            self.orphans
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .push(v);
        }
    }

    /// Crash window for the chaos fault injector: when the armed fault
    /// fires at `label`, the staged element (if any) is parked in
    /// `orphans` — conserving it for [`CqsChannel::drain`] — and the
    /// channel is poisoned before the panic resumes. Compiles to a no-op
    /// without the `chaos` feature.
    #[cfg(feature = "chaos")]
    fn fault_window(&self, label: &'static str, element: &mut Option<T>) {
        if let Err(panic) = std::panic::catch_unwind(|| cqs_chaos::fault!(label)) {
            if let Some(v) = element.take() {
                cqs_stats::bump!(channel_orphaned);
                self.orphans
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .push(v);
            }
            self.poison();
            std::panic::resume_unwind(panic);
        }
    }

    #[cfg(not(feature = "chaos"))]
    fn fault_window(&self, _label: &'static str, _element: &mut Option<T>) {}

    /// First-closer protocol shared by close and poison: flips `closed`,
    /// sweeps both waiter queues and claims the buffer into `orphans`.
    /// Returns whether this call was the one that performed the sweep.
    ///
    /// Each sweep step runs even if an earlier one panics (an injected
    /// crash fault, or a panicking waker, can unwind out of a queue
    /// sweep): stopping mid-cascade would leave the *other* queue's
    /// waiters parked on a channel nobody will close again — the flag is
    /// already flipped. The first panic re-raises after every step ran.
    fn close_internal(&self) -> bool {
        if self.closed.swap(true, Ordering::SeqCst) {
            return false;
        }
        cqs_chaos::inject!("channel.close.pre-sweep");
        let mut first: Option<Box<dyn std::any::Any + Send>> = None;
        let steps: [&(dyn Fn() + Sync); 3] = [
            &|| self.senders.close(),
            &|| self.receivers.close(),
            &|| self.sweep_buffer_into_orphans(),
        ];
        for step in steps {
            if let Err(panic) = std::panic::catch_unwind(std::panic::AssertUnwindSafe(step)) {
                first.get_or_insert(panic);
            }
        }
        if let Some(panic) = first {
            self.poisoned.store(true, Ordering::SeqCst);
            std::panic::resume_unwind(panic);
        }
        true
    }

    /// Poisons the channel: flags it (before `closed`, so every waiter the
    /// sweep wakes already observes the poison), poisons both waiter
    /// queues — publishing their `poisoned` watch gauges — and runs the
    /// close sweep. Buffered elements are conserved in `orphans`.
    ///
    /// Like [`close_internal`](Self::close_internal), the cascade is
    /// crash-tolerant: a panic in one queue's poison sweep must not leave
    /// the other queue un-poisoned with its waiters stranded.
    fn poison(&self) {
        self.poisoned.store(true, Ordering::SeqCst);
        let mut first: Option<Box<dyn std::any::Any + Send>> = None;
        let steps: [&(dyn Fn() + Sync); 3] = [
            &|| self.receivers.poison(),
            &|| self.senders.poison(),
            &|| {
                self.close_internal();
            },
        ];
        for step in steps {
            if let Err(panic) = std::panic::catch_unwind(std::panic::AssertUnwindSafe(step)) {
                first.get_or_insert(panic);
            }
        }
        if let Some(panic) = first {
            std::panic::resume_unwind(panic);
        }
    }
}

/// A fair MPMC channel built natively on CQS: rendezvous, bounded or
/// unbounded, with cancellable sends *and* receives and a `close()` that
/// returns the unsent elements. See the module docs for the design.
///
/// # Example
///
/// ```
/// use cqs_channel::CqsChannel;
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
    fn with_capacity(capacity: Option<i64>) -> Self {
        let slots = Arc::new(CachePadded::new(AtomicI64::new(capacity.unwrap_or(0))));
        let recv_config = CqsConfig::new()
            .resume_mode(ResumeMode::Asynchronous)
            .cancellation_mode(CancellationMode::Smart)
            .label("channel.recv");
        let send_config = CqsConfig::new()
            .resume_mode(ResumeMode::Asynchronous)
            .cancellation_mode(CancellationMode::Smart)
            .label("channel.send");
        let shared = Arc::new_cyclic(|weak: &Weak<ChannelShared<T>>| ChannelShared {
            size: CachePadded::new(AtomicI64::new(0)),
            slots: Arc::clone(&slots),
            capacity,
            buffer: QueueBackend::new(),
            receivers: Cqs::new(
                recv_config,
                RecvCallbacks {
                    shared: Weak::clone(weak),
                },
            ),
            senders: Cqs::new(
                send_config,
                SendCallbacks {
                    slots: Arc::clone(&slots),
                },
            ),
            closed: AtomicBool::new(false),
            poisoned: AtomicBool::new(false),
            orphans: Mutex::new(Vec::new()),
        });
        CqsChannel { shared }
    }

    /// A rendezvous channel: no buffer, every send completes by direct
    /// handoff to a receiver.
    pub fn rendezvous() -> Self {
        Self::with_capacity(Some(0))
    }

    /// A channel buffering at most `capacity` elements; `bounded(0)` is a
    /// [`rendezvous`](Self::rendezvous) channel.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` exceeds `i64::MAX` (not reachable on real
    /// machines).
    pub fn bounded(capacity: usize) -> Self {
        Self::with_capacity(Some(
            i64::try_from(capacity).expect("channel capacity exceeds i64"),
        ))
    }

    /// A channel whose sends never suspend.
    pub fn unbounded() -> Self {
        Self::with_capacity(None)
    }

    /// The configured capacity; `None` when unbounded.
    pub fn capacity(&self) -> Option<usize> {
        self.shared.capacity.map(|c| c as usize)
    }

    /// Sends `element`. The returned future is immediate while capacity
    /// (or a waiting receiver) is available; otherwise it resolves when a
    /// receiver frees a slot — or fails with the element handed back if
    /// the channel is closed or the send is cancelled first.
    pub fn send(&self, element: T) -> ChannelSend<T> {
        cqs_stats::bump!(channel_sends);
        let shared = &self.shared;
        if shared.closed.load(Ordering::SeqCst) {
            return self.send_in(SendState::Rejected(Some(element)));
        }
        if shared.capacity.is_some() {
            cqs_chaos::inject!("channel.send.pre-gate");
            let s = shared.slots.fetch_sub(1, Ordering::SeqCst);
            if s <= 0 {
                return self.blocked_send(element);
            }
        }
        shared.deliver(element);
        cqs_chaos::inject!("channel.send.post-deliver");
        if shared.closed.load(Ordering::SeqCst) {
            // A close() raced past our entry check; make sure the element
            // is not stranded in a buffer nobody will drain — whatever is
            // still stored moves to the orphan list `drain()` returns.
            shared.sweep_buffer_into_orphans();
        }
        self.send_in(SendState::Accepted)
    }

    fn send_in(&self, state: SendState<T>) -> ChannelSend<T> {
        ChannelSend {
            state,
            channel: Arc::downgrade(&self.shared),
        }
    }

    /// Slow path of [`send`](Self::send): queue on the sender CQS and
    /// stage the element; the granting thread delivers it.
    fn blocked_send(&self, element: T) -> ChannelSend<T> {
        cqs_stats::bump!(channel_blocked_sends);
        let shared = &self.shared;
        let grant = match shared.senders.suspend() {
            Suspend::Future(f) => f,
            Suspend::Broken => unreachable!("channel uses asynchronous resumption"),
        };
        let queued = Arc::new(QueuedSend {
            public: Request::new(),
            staged: Mutex::new(Some(element)),
        });
        let hook = Arc::clone(&queued);
        let weak = Arc::downgrade(shared);
        grant.on_settled(move |granted| {
            cqs_chaos::inject!("channel.grant.pre-deliver");
            let Some(shared) = weak.upgrade() else {
                hook.public.cancel();
                return;
            };
            if !granted {
                // Cancelled or closed: the element stays staged for the
                // sender to recover through the SendError.
                hook.public.cancel();
                return;
            }
            // Take the element in its own statement: a `match` on the
            // locked expression would hold the guard for the whole body,
            // and a crash inside the delivery below would poison the
            // staged mutex the sender still needs for error recovery.
            let taken = hook
                .staged
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .take();
            match taken {
                Some(element) => {
                    // Deliver *before* resolving the send — a sender that
                    // observes its send complete may immediately send
                    // again, and its elements must stay ordered.
                    //
                    // A crash inside the delivery (an injected fault, a
                    // panicking downstream waker) must still settle the
                    // sender: `public` lives outside every CQS queue, so
                    // no poison sweep can reach it — an unsettled request
                    // here parks the sender forever. The crashed element
                    // is already conserved in the orphan list, so cancel
                    // resolves the send as accepted (staged is empty),
                    // exactly like a buffered element outliving a close.
                    let delivered = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        shared.deliver(element);
                        if shared.closed.load(Ordering::SeqCst) {
                            shared.sweep_buffer_into_orphans();
                        }
                    }));
                    match delivered {
                        Ok(()) => {
                            let _ = hook.public.complete(());
                        }
                        Err(panic) => {
                            hook.public.cancel();
                            std::panic::resume_unwind(panic);
                        }
                    }
                }
                None => {
                    // The sender reclaimed the element (timeout racing the
                    // grant); give the granted slot back. Settle `public`
                    // first — releasing the slot can grant another sender
                    // whose delivery crashes, and that unwind must not
                    // leave this request unsettled.
                    hook.public.cancel();
                    shared.release_slot();
                }
            }
        });
        self.send_in(SendState::Queued { queued, grant })
    }

    /// Receives the oldest element: immediately while the buffer is
    /// non-empty, otherwise when a sender delivers one (FIFO among
    /// waiting receivers). Cancel the returned future to abort waiting.
    pub fn receive(&self) -> ChannelRecv<T> {
        cqs_stats::bump!(channel_recvs);
        let shared = &self.shared;
        loop {
            if shared.closed.load(Ordering::SeqCst) {
                return ChannelRecv {
                    inner: CqsFuture::cancelled(),
                    channel: Arc::downgrade(shared),
                };
            }
            cqs_chaos::inject!("channel.recv.pre-claim");
            let r = shared.size.fetch_sub(1, Ordering::SeqCst);
            if r > 0 {
                cqs_chaos::inject!("channel.recv.pre-retrieve");
                if let Some(element) = shared.buffer.try_retrieve() {
                    cqs_stats::bump!(immediate_hits);
                    if shared.capacity.is_some() && shared.capacity != Some(0) {
                        // The element's slot frees on consumption. (At
                        // rendezvous capacity, pocketed elements hold no
                        // slot — receiver presence is the capacity.)
                        //
                        // Freeing the slot may grant a parked sender and run
                        // its delivery inline; if that delivery crashes, the
                        // unwind must not drop the element we just popped —
                        // park it in the orphan list (the crash already
                        // poisoned, hence closed, the channel) so `drain()`
                        // recovers it.
                        let mut staged = Some(element);
                        if let Err(panic) =
                            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                                shared.release_slot()
                            }))
                        {
                            if let Some(v) = staged.take() {
                                cqs_stats::bump!(channel_orphaned);
                                shared
                                    .orphans
                                    .lock()
                                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                                    .push(v);
                            }
                            std::panic::resume_unwind(panic);
                        }
                        let element = staged.take().expect("element consumed without a panic");
                        return ChannelRecv {
                            inner: CqsFuture::immediate(element),
                            channel: Arc::downgrade(shared),
                        };
                    }
                    return ChannelRecv {
                        inner: CqsFuture::immediate(element),
                        channel: Arc::downgrade(shared),
                    };
                }
                // Announced but not inserted yet — the standing decrement
                // is absorbed by the deliverer's restart; claim afresh.
                continue;
            }
            let mut f = match shared.receivers.suspend() {
                Suspend::Future(f) => f,
                Suspend::Broken => unreachable!("channel uses asynchronous resumption"),
            };
            match shared.capacity {
                Some(0) => {
                    // Rendezvous: a waiting receiver is one slot of
                    // capacity; this is what unblocks the paired sender.
                    // The release can hand a sender's element straight to
                    // this receiver's cell and then unwind (injected
                    // fault); the element is already inside `f`, so it
                    // must be rescued before the unwind drops the future.
                    if let Err(panic) =
                        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                            shared.release_slot()
                        }))
                    {
                        shared.rescue_settled_value(&mut f);
                        std::panic::resume_unwind(panic);
                    }
                }
                Some(_) => {
                    // Bounded: release the element's slot when (and only
                    // when) this receiver is actually delivered to — on
                    // the delivering thread, independent of whether the
                    // caller ever waits. If the future is already settled
                    // (a sender eliminated with our cell before the hook
                    // was registered) the hook runs inline here and the
                    // slot release can unwind through us with the element
                    // inside `f` — rescue it rather than drop it.
                    let weak = Arc::downgrade(shared);
                    if let Err(panic) =
                        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                            f.on_settled(move |delivered| {
                                if delivered {
                                    if let Some(shared) = weak.upgrade() {
                                        shared.release_slot();
                                    }
                                }
                            });
                        }))
                    {
                        shared.rescue_settled_value(&mut f);
                        std::panic::resume_unwind(panic);
                    }
                }
                None => {}
            }
            return ChannelRecv {
                inner: f,
                channel: Arc::downgrade(shared),
            };
        }
    }

    /// Closes the channel and returns the elements that were buffered:
    /// waiting receivers resolve [`RecvError::Closed`], blocked senders
    /// resolve [`SendError::Closed`] with their elements handed back, and
    /// subsequent sends and receives fail fast. Closing again returns an
    /// empty vector; racing sends that land after the sweep are parked
    /// for [`drain`](Self::drain).
    pub fn close(&self) -> Vec<T> {
        if !self.shared.close_internal() {
            return Vec::new();
        }
        std::mem::take(
            &mut *self
                .shared
                .orphans
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner),
        )
    }

    /// Poisons the channel: like [`close`](Self::close), but pending and
    /// subsequent operations fail with [`SendError::Poisoned`] /
    /// [`RecvError::Poisoned`] instead of the orderly `Closed` outcomes.
    /// Use when a participant crashed mid-protocol and in-flight elements
    /// may reflect inconsistent state. Buffered elements are conserved:
    /// retrieve them with [`drain`](Self::drain).
    pub fn poison(&self) {
        self.shared.poison();
    }

    /// Whether the channel was poisoned — by [`poison`](Self::poison), by
    /// an injected crash fault, or by a panic escaping one of the waiter
    /// queues' batched paths. A poisoned channel is always also
    /// [closed](Self::is_closed).
    pub fn is_poisoned(&self) -> bool {
        self.shared.poisoned.load(Ordering::SeqCst)
            || self.shared.receivers.is_poisoned()
            || self.shared.senders.is_poisoned()
    }

    /// Collects elements stranded by sends that raced [`close`](Self::close): claims
    /// whatever the buffer still holds plus the orphan list. Returns an
    /// empty vector on an open channel. At quiescence (no send/receive in
    /// flight), `close()` and `drain()` together account for every
    /// element that was neither delivered nor handed back in an error.
    pub fn drain(&self) -> Vec<T> {
        let shared = &self.shared;
        if !shared.closed.load(Ordering::SeqCst) {
            return Vec::new();
        }
        shared.sweep_buffer_into_orphans();
        std::mem::take(
            &mut *shared
                .orphans
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner),
        )
    }

    /// Whether [`close`](Self::close) was called.
    pub fn is_closed(&self) -> bool {
        self.shared.closed.load(Ordering::SeqCst)
    }

    /// A racy snapshot of the number of stored elements.
    pub fn len(&self) -> usize {
        self.shared.size.load(Ordering::SeqCst).max(0) as usize
    }

    /// Whether the channel currently stores no elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// An id keying this channel's receiver queue in `cqs-watch` reports.
    pub fn watch_id(&self) -> u64 {
        self.shared.receivers.watch_id()
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
        f.debug_struct("CqsChannel")
            .field("capacity", &self.shared.capacity)
            .field("size", &self.shared.size.load(Ordering::Relaxed))
            .field("closed", &self.shared.closed.load(Ordering::Relaxed))
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

/// What a blocked send shares with its grant hook, in one allocation.
struct QueuedSend<T> {
    /// Completes *after* the element is delivered (see `blocked_send`).
    public: Request<()>,
    /// Holds the element while the send is queued; emptied at delivery.
    staged: Mutex<Option<T>>,
}

enum SendState<T> {
    /// The element entered the channel without waiting.
    Accepted,
    /// The channel was closed at entry; the element waits here for the
    /// error that hands it back.
    Rejected(Option<T>),
    /// Queued on the sender CQS behind a capacity `grant`.
    Queued {
        queued: Arc<QueuedSend<T>>,
        grant: CqsFuture<()>,
    },
}

// The element is only ever moved out whole, never pinned in place.
impl<T: Send + 'static> Unpin for ChannelSend<T> {}

impl<T: Send + 'static> ChannelSend<T> {
    /// Whether the element was accepted without waiting.
    pub fn is_immediate(&self) -> bool {
        matches!(self.state, SendState::Accepted)
    }

    /// Aborts a queued send. Returns `true` if this call aborted it — the
    /// element is then recovered through [`wait`](Self::wait)'s error.
    /// Sends that were accepted immediately cannot be cancelled.
    pub fn cancel(&self) -> bool {
        match &self.state {
            SendState::Queued { grant, .. } => grant.cancel(),
            _ => false,
        }
    }

    /// The error handing `element` back: `Cancelled` if the caller aborted
    /// (or the channel is still open), else how the channel ended.
    fn refusal(element: T, channel: &Weak<ChannelShared<T>>, cancelled: bool) -> SendError<T> {
        let (closed, poisoned) = match channel.upgrade() {
            Some(s) => (
                s.closed.load(Ordering::SeqCst),
                s.poisoned.load(Ordering::SeqCst),
            ),
            None => (true, false),
        };
        if cancelled || !closed {
            SendError::Cancelled(element)
        } else if poisoned {
            SendError::Poisoned(element)
        } else {
            SendError::Closed(element)
        }
    }

    /// Resolves a queued send whose public request was cancelled.
    fn failure(
        staged: &Mutex<Option<T>>,
        channel: &Weak<ChannelShared<T>>,
        cancelled: bool,
    ) -> Result<(), SendError<T>> {
        match staged
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .take()
        {
            // The element was delivered after all (the resolution raced a
            // grant): the send succeeded.
            None => Ok(()),
            Some(v) => Err(Self::refusal(v, channel, cancelled)),
        }
    }

    /// Blocks until the element is accepted.
    ///
    /// # Errors
    ///
    /// [`SendError`] with the element handed back if the channel closed
    /// first or the send was cancelled.
    pub fn wait(self) -> Result<(), SendError<T>> {
        self.wait_until(None)
    }

    /// Like [`wait`](Self::wait) with a deadline: on expiry the queued
    /// send is aborted and the element handed back; if the abort loses to
    /// a concurrent grant, the element is delivered and the send reports
    /// success.
    ///
    /// # Errors
    ///
    /// [`SendError::Cancelled`] with the element on timeout,
    /// [`SendError::Closed`] if the channel closed while waiting.
    pub fn wait_timeout(self, timeout: std::time::Duration) -> Result<(), SendError<T>> {
        self.wait_until(Some(timeout))
    }

    fn wait_until(self, timeout: Option<std::time::Duration>) -> Result<(), SendError<T>> {
        let ChannelSend { state, channel } = self;
        match state {
            SendState::Accepted => Ok(()),
            SendState::Rejected(element) => Err(Self::refusal(
                element.expect("a rejected send is resolved once"),
                &channel,
                false,
            )),
            SendState::Queued { queued, grant } => match timeout {
                None => match queued.public.wait() {
                    Ok(()) => Ok(()),
                    Err(Cancelled) => Self::failure(&queued.staged, &channel, false),
                },
                // Wait on the *public* request, but abort through the
                // grant: cancelling the public side alone would let a
                // late grant deliver an element the caller was told came
                // back.
                Some(timeout) => match queued.public.wait_timeout(timeout) {
                    Ok(()) => Ok(()),
                    Err(Cancelled) => {
                        let timed_out = grant.cancel();
                        Self::failure(&queued.staged, &channel, timed_out)
                    }
                },
            },
        }
    }
}

impl<T: Send + 'static> std::future::Future for ChannelSend<T> {
    type Output = Result<(), SendError<T>>;

    fn poll(
        mut self: std::pin::Pin<&mut Self>,
        cx: &mut std::task::Context<'_>,
    ) -> std::task::Poll<Self::Output> {
        let this = &mut *self;
        std::task::Poll::Ready(match &mut this.state {
            SendState::Accepted => Ok(()),
            SendState::Rejected(element) => Err(Self::refusal(
                element.take().expect("polled after completion"),
                &this.channel,
                false,
            )),
            SendState::Queued { queued, .. } => match queued.public.poll(cx) {
                std::task::Poll::Pending => return std::task::Poll::Pending,
                std::task::Poll::Ready(Ok(())) => Ok(()),
                std::task::Poll::Ready(Err(Cancelled)) => {
                    Self::failure(&queued.staged, &this.channel, false)
                }
            },
        })
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
/// Capacity accounting happens at delivery (on the delivering thread), so
/// dropping a delivered `ChannelRecv` without waiting never leaks a
/// capacity slot — though the element inside is lost with the future.
pub struct ChannelRecv<T: Send + 'static> {
    inner: CqsFuture<T>,
    channel: Weak<ChannelShared<T>>,
}

impl<T: Send + 'static> ChannelRecv<T> {
    fn error(channel: &Weak<ChannelShared<T>>) -> RecvError {
        match channel.upgrade() {
            None => RecvError::Closed,
            Some(s) => {
                if s.poisoned.load(Ordering::SeqCst) {
                    RecvError::Poisoned
                } else if s.closed.load(Ordering::SeqCst) {
                    RecvError::Closed
                } else {
                    RecvError::Cancelled
                }
            }
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
    /// it; a delivery that already committed wins the race and the
    /// element remains claimable.
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
        match inner.wait() {
            Ok(v) => Ok(v),
            Err(Cancelled) => Err(Self::error(&channel)),
        }
    }

    /// Like [`wait`](Self::wait) with a deadline; on timeout the waiting
    /// receive is aborted through the smart-cancellation path. If the
    /// abort loses to a concurrent delivery, the element is returned —
    /// never dropped.
    ///
    /// # Errors
    ///
    /// [`RecvError::Cancelled`] on timeout, [`RecvError::Closed`] if the
    /// channel closed while waiting.
    pub fn wait_timeout(self, timeout: std::time::Duration) -> Result<T, RecvError> {
        cqs_chaos::inject!("channel.recv.timeout-window");
        let ChannelRecv { inner, channel } = self;
        match inner.wait_timeout(timeout) {
            Ok(v) => Ok(v),
            Err(Cancelled) => Err(Self::error(&channel)),
        }
    }
}

impl<T: Send + 'static> std::future::Future for ChannelRecv<T> {
    type Output = Result<T, RecvError>;

    fn poll(
        mut self: std::pin::Pin<&mut Self>,
        cx: &mut std::task::Context<'_>,
    ) -> std::task::Poll<Self::Output> {
        let this = &mut *self;
        match std::pin::Pin::new(&mut this.inner).poll(cx) {
            std::task::Poll::Pending => std::task::Poll::Pending,
            std::task::Poll::Ready(Ok(v)) => std::task::Poll::Ready(Ok(v)),
            std::task::Poll::Ready(Err(Cancelled)) => {
                std::task::Poll::Ready(Err(Self::error(&this.channel)))
            }
        }
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
        // Consuming 1 grants the oldest blocked sender; elements arrive
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

    /// The analogue of the facade channel's permit-leak regression: a
    /// delivered receive dropped without `wait()` must not shrink the
    /// bounded capacity, because the slot frees at delivery.
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
}
