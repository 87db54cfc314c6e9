//! Per-job control surface for interactive callers: cooperative
//! cancellation and incumbent streaming.
//!
//! The batch engine is fire-and-forget — a [`crate::JobSpec`] goes in, a
//! [`crate::JobReport`] comes out. A long-running service needs two more
//! hooks into an in-flight job: a way to *stop* it early (the client
//! cancelled, disconnected, or its deadline became infeasible) and a way
//! to *observe* it while it runs (the BREL solver is anytime — every
//! incumbent improvement is a valid, verified solution worth streaming).
//! A [`JobControl`] bundles both. An empty control (no token cancelled,
//! no callback installed) makes [`crate::Runner::run`] byte-identical to
//! a run without a control, which is what keeps serial-replay
//! determinism gates meaningful for a serving layer built on top.

use std::fmt;

use brel_core::CancelToken;

/// Callback invoked with `(cost, explored)` on every incumbent: once for
/// the quick-solver seed right after the exploration is constructed, then
/// once per improvement.
type IncumbentFn = dyn Fn(u64, usize) + Send + Sync;

/// The control surface of one in-flight job: a cooperative cancel token
/// checked between BREL exploration steps, and an optional incumbent
/// callback fired on the seed solution and every improvement.
///
/// Cancellation behaves like a step-deadline truncation: the exploration
/// stops at the next step boundary, the incumbent in hand is kept, and
/// the job classifies as [`crate::JobOutcome::Degraded`] — never as an
/// error — so a cancelled client still receives its best verified
/// solution. The quick and gyocro backends are single-pass and fast by
/// design; only the BREL exploration observes the control, mirroring how
/// fault policies and injections are scoped.
#[derive(Default)]
pub struct JobControl {
    cancel: CancelToken,
    on_incumbent: Option<Box<IncumbentFn>>,
}

impl fmt::Debug for JobControl {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("JobControl")
            .field("cancelled", &self.cancel.is_cancelled())
            .field("streams_incumbents", &self.on_incumbent.is_some())
            .finish()
    }
}

impl JobControl {
    /// An inert control: never cancelled, no incumbent callback.
    pub fn new() -> Self {
        JobControl::default()
    }

    /// Uses `token` as the cancel flag (share a clone with the driver
    /// thread that may cancel).
    pub fn with_cancel(mut self, token: CancelToken) -> Self {
        self.cancel = token;
        self
    }

    /// Installs the incumbent callback, invoked with `(cost, explored)`
    /// for the quick-solver seed and every later improvement. Called from
    /// the solving thread between exploration steps — keep it cheap and
    /// non-blocking (e.g. push onto an unbounded channel).
    pub fn on_incumbent(mut self, f: impl Fn(u64, usize) + Send + Sync + 'static) -> Self {
        self.on_incumbent = Some(Box::new(f));
        self
    }

    /// The cancel token (clone it to hand the cancel side to another
    /// thread).
    pub fn cancel_token(&self) -> &CancelToken {
        &self.cancel
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.cancel.is_cancelled()
    }

    /// Reports an incumbent to the callback, if one is installed.
    pub(crate) fn notify_incumbent(&self, cost: u64, explored: usize) {
        if let Some(callback) = &self.on_incumbent {
            callback(cost, explored);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    #[test]
    fn an_inert_control_is_never_cancelled_and_swallows_notifications() {
        let control = JobControl::new();
        assert!(!control.is_cancelled());
        control.notify_incumbent(5, 0); // no callback: a no-op
        assert!(format!("{control:?}").contains("cancelled: false"));
    }

    #[test]
    fn cancel_and_incumbent_hooks_fire() {
        let seen = Arc::new(AtomicU64::new(0));
        let sink = seen.clone();
        let token = CancelToken::new();
        let control = JobControl::new()
            .with_cancel(token.clone())
            .on_incumbent(move |cost, _explored| sink.store(cost, Ordering::SeqCst));
        control.notify_incumbent(7, 2);
        assert_eq!(seen.load(Ordering::SeqCst), 7);
        assert!(!control.is_cancelled());
        token.cancel();
        assert!(control.is_cancelled());
        assert!(control.cancel_token().is_cancelled());
    }
}
