//! Configuration of a [`crate::Cqs`] instance: resumption and cancellation
//! modes, segment size, the synchronous-rendezvous spin budget and the
//! watchdog label.

/// How `resume(..)` transfers a value into a cell that `suspend()` has not
/// reached yet (paper, Appendix B).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ResumeMode {
    /// `resume(..)` leaves the value in the cell and completes immediately;
    /// the upcoming `suspend()` takes it. This is the default and fastest
    /// mode, but it cannot support non-blocking operations like
    /// `try_lock()`, because a "permit" may be parked inside the CQS where
    /// `try_lock()` cannot see it.
    #[default]
    Asynchronous,
    /// `resume(..)` waits (in a bounded spin loop) for a rendezvous with the
    /// incoming `suspend()` and *breaks* the cell if none happens, making
    /// both operations fail and restart. Required for correct `try_*`
    /// siblings of blocking operations.
    Synchronous,
}

/// How cancelled waiters are treated by `resume(..)` (paper, Section 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CancellationMode {
    /// `resume(..)` fails when the waiter in its cell has been cancelled;
    /// the caller observes the failure and typically restarts its logical
    /// operation. Simple, but a resumer pays for every cancelled cell.
    #[default]
    Simple,
    /// Cancelled waiters are skipped in (amortized) constant time. The
    /// primitive must logically deregister aborted requests through
    /// [`crate::CqsCallbacks::on_cancellation`] and handle refused
    /// resumptions through
    /// [`crate::CqsCallbacks::complete_refused_resume`].
    Smart,
}

/// Tuning and semantics knobs for a [`crate::Cqs`].
///
/// # Example
///
/// ```
/// use cqs_core::{CancellationMode, CqsConfig, ResumeMode};
///
/// let config = CqsConfig::new()
///     .resume_mode(ResumeMode::Synchronous)
///     .cancellation_mode(CancellationMode::Smart)
///     .segment_size(32);
/// assert_ne!(config, CqsConfig::new());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CqsConfig {
    resume_mode: ResumeMode,
    cancellation_mode: CancellationMode,
    segment_size: usize,
    spin_limit: usize,
    label: &'static str,
}

impl CqsConfig {
    /// The default number of cells per segment.
    pub const DEFAULT_SEGMENT_SIZE: usize = 16;
    /// The default bound on the synchronous-rendezvous spin loop
    /// (`MAX_SPIN_CYCLES` in the paper).
    const DEFAULT_SPIN_LIMIT: usize = 300;

    /// Creates the default configuration: asynchronous resumption, simple
    /// cancellation, 16-cell segments.
    pub fn new() -> Self {
        CqsConfig {
            resume_mode: ResumeMode::Asynchronous,
            cancellation_mode: CancellationMode::Simple,
            segment_size: Self::DEFAULT_SEGMENT_SIZE,
            spin_limit: Self::DEFAULT_SPIN_LIMIT,
            label: "cqs",
        }
    }

    /// Sets the static label naming this queue's suspension site in
    /// watchdog stall/deadlock reports (e.g. `"mutex.lock"`). Purely
    /// diagnostic; ignored unless the `watch` feature is enabled.
    #[must_use]
    pub fn label(mut self, label: &'static str) -> Self {
        self.label = label;
        self
    }

    /// Sets the resumption mode.
    #[must_use]
    pub fn resume_mode(mut self, mode: ResumeMode) -> Self {
        self.resume_mode = mode;
        self
    }

    /// Sets the cancellation mode.
    #[must_use]
    pub fn cancellation_mode(mut self, mode: CancellationMode) -> Self {
        self.cancellation_mode = mode;
        self
    }

    /// Sets the number of cells per segment.
    ///
    /// # Panics
    ///
    /// Panics if `size` is zero.
    #[must_use]
    pub fn segment_size(mut self, size: usize) -> Self {
        assert!(size > 0, "segment size must be positive");
        self.segment_size = size;
        self
    }

    /// Sets the synchronous-rendezvous spin budget. Not a tuning knob:
    /// public only so that tests outside this crate (`cqs-sync`'s
    /// broken-rendezvous storms, the model-checking programs) can pin it.
    #[doc(hidden)]
    #[must_use]
    pub fn spin_limit(mut self, limit: usize) -> Self {
        self.spin_limit = limit;
        self
    }

    /// The configured resumption mode.
    pub(crate) fn get_resume_mode(&self) -> ResumeMode {
        self.resume_mode
    }

    /// The configured cancellation mode.
    pub(crate) fn get_cancellation_mode(&self) -> CancellationMode {
        self.cancellation_mode
    }

    /// The configured cells-per-segment count.
    pub(crate) fn get_segment_size(&self) -> usize {
        self.segment_size
    }

    /// The configured spin budget.
    pub(crate) fn get_spin_limit(&self) -> usize {
        self.spin_limit
    }

    /// The configured watchdog label.
    pub(crate) fn get_label(&self) -> &'static str {
        self.label
    }
}

impl Default for CqsConfig {
    fn default() -> Self {
        Self::new()
    }
}
