#![warn(missing_docs)]

//! MPMC channels on CQS's infinite array — the extension the paper names
//! first among CQS's applications (§7), built as in "Fast and Scalable
//! Channels in Kotlin Coroutines" (Koval, Alistarh, Elizarov): senders and
//! receivers meet in the cells of one segment list, and a buffer-end
//! counter sets the capacity.
//!
//! [`CqsChannel`] comes in three capacities:
//!
//! * [`rendezvous`](CqsChannel::rendezvous) — no buffer; a send completes
//!   when a receiver takes the element;
//! * [`bounded(c)`](CqsChannel::bounded) — up to `c` buffered elements;
//!   senders beyond that wait, FIFO, until receivers make room;
//! * [`unbounded`](CqsChannel::unbounded) — sends never wait.
//!
//! Sends and receives are cancellable; a cancel that loses to a delivery
//! returns `false` and the element stays with its receiver (or, for a
//! send, in the channel). [`close`](CqsChannel::close) returns the
//! buffered elements and hands every waiting sender its element back;
//! [`drain`](CqsChannel::drain) collects what a poison or a crash left.
//!
//! The segment list is private to `cqs-core`, so the algorithm lives in
//! [`cqs_core::channel`]; this crate re-exports it.

pub use cqs_core::channel::*;
