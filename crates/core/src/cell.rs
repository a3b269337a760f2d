//! A single cell of the infinite array and its life-cycle state machine
//! (paper, Figures 2, 4, 10 and 11).
//!
//! Each cell consists of one atomic *state word* plus two payload slots:
//!
//! * `payload` — the value passed by `resume(..)`, published by the
//!   `EMPTY → VALUE` or `REQUEST → VALUE` transition and consumed by exactly
//!   one party (the eliminating `suspend()`, the breaking resumer, or the
//!   cancellation handler);
//! * `waiter` — the suspended [`Request`], installed by `suspend()` before
//!   the `EMPTY → REQUEST` transition and removed by whichever transition
//!   leaves `REQUEST`. The slot is an [`AtomicArc`] so that a resumer may
//!   read the waiter (guard-scoped, see `peek_waiter`) concurrently with
//!   the cancellation handler removing it.
//!
//! The state word uses acquire/release atomics, not SeqCst: every protocol
//! in this file is a *single-variable* handoff — a party writes a payload
//! slot, releases it with an RMW on `state`, and the counterparty acquires
//! `state` before touching the slot. Acquire/release is exactly the fence
//! structure such a handoff needs. The places where the paper's SC argument
//! genuinely orders *independent* atomics against each other (suspension
//! counters vs. cell claims, waiter installation vs. the close sweep) live
//! in `cqs.rs` and keep their `SeqCst` there, each with an invariant
//! comment.
//!
//! Convention used below on every compare-exchange: `AcqRel` on success
//! (the release half publishes the slot writes made before the transition,
//! the acquire half lets the winner consume slots released by the previous
//! transition), `Acquire` on failure (the loser reacts to the transition
//! that beat it — e.g. a resumer completing the waiter it lost to — so it
//! must see that transition's writes).

use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use cqs_future::Request;
use cqs_reclaim::{AtomicArc, Guard, Protected};

/// Cell states. `FUTURE_CANCELLED` from the paper's diagrams is not a
/// separate word value: it is the combination of state `REQUEST` with a
/// cancelled future, which resumers detect by `complete` failing.
pub(crate) const EMPTY: usize = 0;
pub(crate) const VALUE: usize = 1;
pub(crate) const REQUEST: usize = 2;
pub(crate) const TAKEN: usize = 3;
pub(crate) const RESUMED: usize = 4;
pub(crate) const CANCELLED: usize = 5;
pub(crate) const REFUSE: usize = 6;
pub(crate) const BROKEN: usize = 7;

pub(crate) fn state_name(state: usize) -> &'static str {
    match state {
        EMPTY => "EMPTY",
        VALUE => "VALUE",
        REQUEST => "REQUEST",
        TAKEN => "TAKEN",
        RESUMED => "RESUMED",
        CANCELLED => "CANCELLED",
        REFUSE => "REFUSE",
        BROKEN => "BROKEN",
        _ => "INVALID",
    }
}

/// Outcome of the cancellation handler's `GetAndSet` on the cell (paper,
/// Listing 5, lines 32–44).
pub(crate) enum CancelSwap<T> {
    /// The cell still held the cancelled request; the handler owns the rest
    /// of the cancellation.
    WasRequest,
    /// A racing `resume(..)` delegated its value to the handler by replacing
    /// the cancelled request with it.
    WasValue(T),
}

pub(crate) struct CqsCell<T> {
    state: AtomicUsize,
    payload: UnsafeCell<Option<T>>,
    waiter: AtomicArc<Request<T>>,
}

// SAFETY: payload handoff is ordered by RMWs on `state` (see module docs);
// the waiter slot is an `AtomicArc`, safe on its own.
unsafe impl<T: Send> Send for CqsCell<T> {}
unsafe impl<T: Send> Sync for CqsCell<T> {}

impl<T: Send + 'static> CqsCell<T> {
    pub(crate) fn new() -> Self {
        CqsCell {
            state: AtomicUsize::new(EMPTY),
            payload: UnsafeCell::new(None),
            waiter: AtomicArc::null(),
        }
    }

    pub(crate) fn state(&self) -> usize {
        // Acquire: observing a state also publishes the slot writes that
        // were released along with it.
        self.state.load(Ordering::Acquire)
    }

    /// `EMPTY → VALUE`: the resumer publishes its value into an empty cell.
    ///
    /// # Errors
    ///
    /// Hands the value back if the cell is no longer empty.
    pub(crate) fn try_publish_value(&self, value: T) -> Result<(), T> {
        // SAFETY: the cell's unique resumer owns the payload slot until the
        // publishing CAS succeeds; nobody reads it while `state != VALUE`.
        unsafe {
            debug_assert!(
                (*self.payload.get()).is_none(),
                "the unique resumer publishes at most once per cell"
            );
            *self.payload.get() = Some(value);
        }
        cqs_chaos::inject!("cell.publish.pre-cas");
        // AcqRel/Acquire: Release publishes the payload written above to
        // whoever acquires VALUE; Acquire on failure lets us act on the
        // transition that beat us (e.g. complete an installed waiter).
        match self
            .state
            .compare_exchange(EMPTY, VALUE, Ordering::AcqRel, Ordering::Acquire)
        {
            Ok(_) => Ok(()),
            // SAFETY: the value was never published; we still own the slot.
            Err(_) => Err(unsafe { (*self.payload.get()).take() }
                .expect("unpublished payload must still be present")),
        }
    }

    /// `REQUEST → VALUE`: smart asynchronous cancellation — the resumer
    /// delegates completion to the cancellation handler by replacing the
    /// cancelled request with the value (paper, Listing 5 line 14).
    ///
    /// On success the displaced waiter reference is released.
    ///
    /// # Errors
    ///
    /// Hands the value back if the handler already moved the cell on.
    pub(crate) fn try_delegate_value(&self, value: T, guard: &Guard) -> Result<(), T> {
        // SAFETY: as in `try_publish_value` — the unique resumer owns the
        // payload slot until the CAS publishes it.
        unsafe {
            debug_assert!(
                (*self.payload.get()).is_none(),
                "the unique resumer publishes at most once per cell"
            );
            *self.payload.get() = Some(value);
        }
        cqs_chaos::inject!("cell.delegate.pre-cas");
        // AcqRel/Acquire: Release publishes the delegated payload to the
        // cancellation handler's swap; Acquire on failure orders our
        // payload take-back after the handler's transition.
        match self
            .state
            .compare_exchange(REQUEST, VALUE, Ordering::AcqRel, Ordering::Acquire)
        {
            Ok(_) => {
                // The cancelled waiter is no longer reachable through the
                // cell; release the cell's reference.
                self.waiter.store(None, guard);
                Ok(())
            }
            // SAFETY: the value was never published; we still own the slot.
            Err(_) => Err(unsafe { (*self.payload.get()).take() }
                .expect("unpublished payload must still be present")),
        }
    }

    /// `EMPTY → REQUEST`: `suspend()` installs its waiter.
    ///
    /// Returns `false` (and removes the waiter from the slot) if the cell is
    /// no longer empty, i.e. a racing `resume(..)` got there first.
    pub(crate) fn try_install_waiter(&self, request: Arc<Request<T>>, guard: &Guard) -> bool {
        self.waiter.store(Some(request), guard);
        cqs_chaos::inject!("cell.install.pre-cas");
        // AcqRel/Acquire: Release publishes the waiter slot store above —
        // a resumer that acquires REQUEST is guaranteed to find the waiter
        // when it loads the slot; Acquire on failure orders the slot
        // rollback (and the caller's elimination path) after the racing
        // resume's VALUE transition.
        match self
            .state
            .compare_exchange(EMPTY, REQUEST, Ordering::AcqRel, Ordering::Acquire)
        {
            Ok(_) => true,
            Err(_) => {
                self.waiter.store(None, guard);
                false
            }
        }
    }

    /// The waiter, if the cell still holds one, for as long as `guard` is
    /// borrowed.
    pub(crate) fn peek_waiter<'g>(&'g self, guard: &'g Guard) -> Option<Protected<'g, Request<T>>> {
        self.waiter.load_protected(guard)
    }

    /// `VALUE | BROKEN → TAKEN`: the eliminating `suspend()` claims the
    /// value left by a racing `resume(..)` (paper, Listing 11 line 7).
    ///
    /// Returns `None` if the cell had been broken by a synchronous resumer.
    pub(crate) fn take_for_elimination(&self) -> Option<T> {
        cqs_chaos::inject!("cell.eliminate.pre-swap");
        // AcqRel: the acquire half pairs with the resumer's VALUE release
        // so the payload read below is ordered; the release half publishes
        // TAKEN to the synchronous resumer's `try_break` race.
        let old = self.state.swap(TAKEN, Ordering::AcqRel);
        match old {
            // SAFETY: the swap observed VALUE, so the resumer published the
            // payload and only we (the unique suspender) consume it.
            VALUE => Some(
                unsafe { (*self.payload.get()).take() }
                    .expect("published cell must hold a payload"),
            ),
            BROKEN => None,
            other => unreachable!(
                "suspend() eliminated against cell in state {}",
                state_name(other)
            ),
        }
    }

    /// `REQUEST → RESUMED`: the resumer successfully completed the waiter;
    /// clear the cell for reclamation.
    pub(crate) fn mark_resumed(&self, guard: &Guard) {
        cqs_chaos::inject!("cell.mark-resumed.pre-swap");
        // AcqRel: acquire pairs with the suspender's REQUEST release (we
        // are done with the waiter it installed), release publishes the
        // terminal state to the cancelled-cell accounting in the segment.
        let old = self.state.swap(RESUMED, Ordering::AcqRel);
        debug_assert_eq!(old, REQUEST, "mark_resumed from {}", state_name(old));
        self.waiter.store(None, guard);
    }

    /// `VALUE → BROKEN`: the synchronous resumer gave up waiting for the
    /// rendezvous. Returns the reclaimed value on success; `None` means a
    /// racing `suspend()` took the value after all (state became `TAKEN`).
    pub(crate) fn try_break(&self) -> Option<T> {
        cqs_chaos::inject!("cell.break.pre-cas");
        // AcqRel/Acquire: we published this VALUE ourselves, but Release
        // still orders the break for the eliminating swap's acquire, and
        // Acquire on failure orders our retreat after the TAKEN swap.
        match self
            .state
            .compare_exchange(VALUE, BROKEN, Ordering::AcqRel, Ordering::Acquire)
        {
            // SAFETY: we are the resumer that published this payload, and
            // the successful CAS proves nobody consumed it.
            Ok(_) => Some(
                unsafe { (*self.payload.get()).take() }
                    .expect("published cell must hold a payload"),
            ),
            Err(_) => None,
        }
    }

    /// The cancellation handler's `GetAndSet(&s[i], CANCELLED | REFUSE)`.
    ///
    /// # Panics
    ///
    /// Panics if the cell is in a state the handler can never observe.
    pub(crate) fn cancel_swap(&self, new_state: usize, guard: &Guard) -> CancelSwap<T> {
        debug_assert!(new_state == CANCELLED || new_state == REFUSE);
        cqs_chaos::inject!("cell.cancel.pre-swap");
        // AcqRel: acquire pairs with whichever release transition we
        // displace (REQUEST's waiter store or VALUE's delegated payload),
        // release publishes CANCELLED/REFUSE to resumers and the segment's
        // cancelled-cell accounting.
        let old = self.state.swap(new_state, Ordering::AcqRel);
        match old {
            REQUEST => {
                self.waiter.store(None, guard);
                CancelSwap::WasRequest
            }
            // SAFETY: the swap observed VALUE (a delegated resumption);
            // the resumer published the payload and handed its consumption
            // to us, the unique handler.
            VALUE => CancelSwap::WasValue(
                unsafe { (*self.payload.get()).take() }
                    .expect("published cell must hold a payload"),
            ),
            other => unreachable!(
                "cancellation handler ran against cell in state {}",
                state_name(other)
            ),
        }
    }

    /// Drops any waiter reference still held by the cell. Used by
    /// [`crate::Cqs`]'s destructor to break `Request → handler → Segment`
    /// reference cycles of still-pending waiters.
    pub(crate) fn clear_waiter(&self, guard: &Guard) {
        self.waiter.store(None, guard);
    }
}

impl<T> std::fmt::Debug for CqsCell<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CqsCell")
            .field("state", &state_name(self.state.load(Ordering::Relaxed)))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqs_reclaim::pin;

    #[test]
    fn publish_then_eliminate() {
        let cell: CqsCell<u32> = CqsCell::new();
        cell.try_publish_value(5).unwrap();
        assert_eq!(cell.state(), VALUE);
        assert_eq!(cell.take_for_elimination(), Some(5));
        assert_eq!(cell.state(), TAKEN);
    }

    #[test]
    fn publish_fails_against_installed_waiter() {
        let guard = pin();
        let cell: CqsCell<u32> = CqsCell::new();
        let req: Arc<Request<u32>> = Arc::new(Request::new());
        assert!(cell.try_install_waiter(req, &guard));
        // The resumer raced in after the waiter: the publish is rejected and
        // the value handed back.
        assert_eq!(cell.try_publish_value(6), Err(6));
        assert_eq!(cell.state(), REQUEST);
    }

    #[test]
    fn install_and_resume_waiter() {
        let guard = pin();
        let cell: CqsCell<u32> = CqsCell::new();
        let req = Arc::new(Request::new());
        assert!(cell.try_install_waiter(Arc::clone(&req), &guard));
        assert_eq!(cell.state(), REQUEST);

        let peeked = cell.peek_waiter(&guard).unwrap();
        peeked.complete(9).unwrap();
        cell.mark_resumed(&guard);
        assert_eq!(cell.state(), RESUMED);
        assert!(cell.peek_waiter(&guard).is_none());
    }

    #[test]
    fn install_fails_against_value() {
        let guard = pin();
        let cell: CqsCell<u32> = CqsCell::new();
        cell.try_publish_value(1).unwrap();
        let req = Arc::new(Request::new());
        assert!(!cell.try_install_waiter(req, &guard));
        assert!(cell.peek_waiter(&guard).is_none());
        assert_eq!(cell.state(), VALUE);
    }

    #[test]
    fn break_reclaims_value() {
        let cell: CqsCell<u32> = CqsCell::new();
        cell.try_publish_value(7).unwrap();
        assert_eq!(cell.try_break(), Some(7));
        assert_eq!(cell.state(), BROKEN);
        assert_eq!(cell.take_for_elimination(), None);
    }

    #[test]
    fn break_fails_after_taken() {
        let cell: CqsCell<u32> = CqsCell::new();
        cell.try_publish_value(7).unwrap();
        assert_eq!(cell.take_for_elimination(), Some(7));
        assert_eq!(cell.try_break(), None);
    }

    #[test]
    fn cancel_swap_takes_request() {
        let guard = pin();
        let cell: CqsCell<u32> = CqsCell::new();
        let req: Arc<Request<u32>> = Arc::new(Request::new());
        assert!(cell.try_install_waiter(req, &guard));
        match cell.cancel_swap(CANCELLED, &guard) {
            CancelSwap::WasRequest => {}
            CancelSwap::WasValue(_) => panic!("expected request"),
        }
        assert_eq!(cell.state(), CANCELLED);
        assert!(cell.peek_waiter(&guard).is_none());
    }

    #[test]
    fn delegation_hands_value_to_handler() {
        let guard = pin();
        let cell: CqsCell<u32> = CqsCell::new();
        let req: Arc<Request<u32>> = Arc::new(Request::new());
        assert!(cell.try_install_waiter(req, &guard));
        // Resumer delegates (waiter was cancelled):
        cell.try_delegate_value(42, &guard).unwrap();
        assert_eq!(cell.state(), VALUE);
        // Handler finds the value:
        match cell.cancel_swap(REFUSE, &guard) {
            CancelSwap::WasValue(v) => assert_eq!(v, 42),
            CancelSwap::WasRequest => panic!("expected value"),
        }
    }

    #[test]
    fn delegation_fails_after_handler_moved_on() {
        let guard = pin();
        let cell: CqsCell<u32> = CqsCell::new();
        let req: Arc<Request<u32>> = Arc::new(Request::new());
        assert!(cell.try_install_waiter(req, &guard));
        let CancelSwap::WasRequest = cell.cancel_swap(CANCELLED, &guard) else {
            panic!("expected request");
        };
        assert_eq!(cell.try_delegate_value(1, &guard), Err(1));
        assert_eq!(cell.state(), CANCELLED);
    }
}
