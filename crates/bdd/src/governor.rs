//! Resource governance: per-session live-node quotas and cooperative
//! deadlines, CUDD-style.
//!
//! A [`ResourceGovernor`] is attached to a session (or raw manager) for the
//! duration of one unit of work. It is consulted by [`BddManager::mk`]'s
//! allocation bookkeeping — a cheap counter check on the hot path — and
//! enforces two limits:
//!
//! * **Live-node quota** — when the live-node count first crosses
//!   `max_live_nodes` the governor *trips*: it arms a pending garbage
//!   collection (swept at the next safe point, [`BddManager::maybe_gc`])
//!   and lets the allocation proceed. Only if a collection has since run
//!   and the live count is *still* over quota does the governor abort —
//!   "GC first, then fail", the policy CUDD applies to its node limit. A
//!   hard ceiling of twice the quota bounds growth inside a single giant
//!   operation that never reaches a safe point.
//! * **Cooperative deadline** — a wall-clock instant checked once every
//!   1024 allocations (so `Instant::now` stays off the hot path).
//!
//! An abort unwinds with a typed [`BddError`] payload via
//! [`std::panic::panic_any`] — the longjmp-style escape CUDD uses, which
//! keeps every kernel operation's signature infallible. The manager is
//! structurally consistent at every abort point: `mk` only aborts *after*
//! a node is fully inserted, and unrooted garbage is reclaimed by the next
//! sweep. The caller that armed the governor catches the unwind at its
//! own isolation boundary and downcasts the payload to [`BddError`]; the
//! engine's `catch_fault` is the one such boundary in this workspace, and
//! it receives the engine's own deadline and injected quota aborts as the
//! same payload.

use std::fmt;
use std::time::Instant;

/// A structured kernel resource abort.
///
/// Carried as the panic payload of a governor abort, for the caller's
/// isolation boundary to downcast and classify.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BddError {
    /// The live-node quota was exceeded and a garbage collection could not
    /// bring the count back under it.
    QuotaExceeded {
        /// Live decision nodes at the abort.
        live_nodes: u64,
        /// The configured quota.
        max_live_nodes: u64,
    },
    /// The cooperative wall-clock deadline passed.
    DeadlineExceeded {
        /// Time elapsed since the governor was armed, in milliseconds.
        elapsed_ms: u64,
        /// The configured deadline, in milliseconds.
        deadline_ms: u64,
    },
}

impl fmt::Display for BddError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BddError::QuotaExceeded {
                live_nodes,
                max_live_nodes,
            } => write!(
                f,
                "live-node quota exceeded: {live_nodes} live nodes over quota {max_live_nodes} after GC"
            ),
            BddError::DeadlineExceeded {
                elapsed_ms,
                deadline_ms,
            } => write!(
                f,
                "deadline exceeded: {elapsed_ms} ms elapsed, deadline {deadline_ms} ms"
            ),
        }
    }
}

impl std::error::Error for BddError {}

/// What the manager should do after a governed allocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum GovernorVerdict {
    /// Within limits: proceed.
    Proceed,
    /// Quota tripped for the first time: arm a pending collection and
    /// proceed (the abort decision waits until a sweep has had its chance).
    RequestGc,
    /// Limits exhausted: unwind with this error.
    Abort(BddError),
}

/// Allocation interval between wall-clock checks (power of two, used as a
/// mask). 1024 allocations is well under a millisecond of kernel work, so
/// the deadline resolution stays far finer than any practical deadline.
const DEADLINE_CHECK_MASK: u64 = 1024 - 1;

/// A per-session resource budget: live-node quota and/or wall deadline.
///
/// Built with the `with_*` methods and installed via
/// `BddSession::set_governor` (or `BddManager::set_governor`); cleared with
/// the matching `clear_governor`. A session reset also clears it — a
/// governor budgets one unit of work, not the session's lifetime.
#[derive(Debug, Clone)]
pub struct ResourceGovernor {
    max_live_nodes: Option<u64>,
    deadline: Option<Instant>,
    armed_at: Instant,
    deadline_ms: u64,
    /// Collections counter at the moment the quota tripped; `None` when
    /// under quota.
    trip_collections: Option<u64>,
    /// Governed allocations so far (drives the deadline check mask).
    allocs: u64,
}

impl Default for ResourceGovernor {
    fn default() -> Self {
        Self::new()
    }
}

impl ResourceGovernor {
    /// An unlimited governor (attachable, never aborts).
    pub fn new() -> Self {
        ResourceGovernor {
            max_live_nodes: None,
            deadline: None,
            armed_at: Instant::now(),
            deadline_ms: 0,
            trip_collections: None,
            allocs: 0,
        }
    }

    /// Sets the live-node quota.
    pub fn with_max_live_nodes(mut self, max: u64) -> Self {
        self.max_live_nodes = Some(max);
        self
    }

    /// Sets the deadline to an absolute instant (shared across the
    /// sessions of one job).
    pub fn with_deadline_at(mut self, deadline: Instant) -> Self {
        self.armed_at = Instant::now();
        self.deadline = Some(deadline);
        self.deadline_ms = deadline
            .saturating_duration_since(self.armed_at)
            .as_millis() as u64;
        self
    }

    /// The configured live-node quota, if any.
    pub fn max_live_nodes(&self) -> Option<u64> {
        self.max_live_nodes
    }

    /// The configured deadline, if any.
    pub fn deadline(&self) -> Option<Instant> {
        self.deadline
    }

    /// Whether the quota has tripped and is waiting on a collection.
    pub(crate) fn tripped(&self) -> bool {
        self.trip_collections.is_some()
    }

    /// The per-allocation check. `live` is the manager's current live-node
    /// count, `collections` its cumulative sweep counter.
    pub(crate) fn note_alloc(&mut self, live: u64, collections: u64) -> GovernorVerdict {
        self.allocs += 1;
        if self.allocs & DEADLINE_CHECK_MASK == 0 {
            if let Some(deadline) = self.deadline {
                let now = Instant::now();
                if now >= deadline {
                    return GovernorVerdict::Abort(BddError::DeadlineExceeded {
                        elapsed_ms: now.saturating_duration_since(self.armed_at).as_millis() as u64,
                        deadline_ms: self.deadline_ms,
                    });
                }
            }
        }
        let Some(max) = self.max_live_nodes else {
            return GovernorVerdict::Proceed;
        };
        if live <= max {
            self.trip_collections = None;
            return GovernorVerdict::Proceed;
        }
        // Over quota. Hard ceiling: one operation that never reaches a
        // safe point must not grow unboundedly while the trip waits for
        // its sweep.
        if live > max.saturating_mul(2) {
            return GovernorVerdict::Abort(BddError::QuotaExceeded {
                live_nodes: live,
                max_live_nodes: max,
            });
        }
        match self.trip_collections {
            None => {
                self.trip_collections = Some(collections);
                GovernorVerdict::RequestGc
            }
            // A sweep ran since the trip and we are still over: abort.
            Some(tripped) if collections > tripped => {
                GovernorVerdict::Abort(BddError::QuotaExceeded {
                    live_nodes: live,
                    max_live_nodes: max,
                })
            }
            // The pending sweep has not reached its safe point yet.
            Some(_) => GovernorVerdict::Proceed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_governor_always_proceeds() {
        let mut gov = ResourceGovernor::new();
        for live in 0..10_000u64 {
            assert_eq!(gov.note_alloc(live, 0), GovernorVerdict::Proceed);
        }
    }

    #[test]
    fn quota_trips_then_aborts_only_after_a_collection() {
        let mut gov = ResourceGovernor::new().with_max_live_nodes(100);
        assert_eq!(gov.note_alloc(100, 0), GovernorVerdict::Proceed);
        // First crossing: request a sweep, do not abort.
        assert_eq!(gov.note_alloc(101, 0), GovernorVerdict::RequestGc);
        // Sweep still pending: proceed.
        assert_eq!(gov.note_alloc(102, 0), GovernorVerdict::Proceed);
        // Sweep ran (collections bumped) and still over: abort.
        assert_eq!(
            gov.note_alloc(103, 1),
            GovernorVerdict::Abort(BddError::QuotaExceeded {
                live_nodes: 103,
                max_live_nodes: 100
            })
        );
    }

    #[test]
    fn a_successful_sweep_clears_the_trip() {
        let mut gov = ResourceGovernor::new().with_max_live_nodes(100);
        assert_eq!(gov.note_alloc(101, 0), GovernorVerdict::RequestGc);
        // The sweep brought us back under quota: the trip resets...
        assert_eq!(gov.note_alloc(50, 1), GovernorVerdict::Proceed);
        // ...so the next crossing trips afresh instead of aborting.
        assert_eq!(gov.note_alloc(101, 1), GovernorVerdict::RequestGc);
    }

    #[test]
    fn hard_ceiling_aborts_without_waiting_for_a_sweep() {
        let mut gov = ResourceGovernor::new().with_max_live_nodes(100);
        assert_eq!(gov.note_alloc(101, 0), GovernorVerdict::RequestGc);
        assert!(matches!(
            gov.note_alloc(201, 0),
            GovernorVerdict::Abort(BddError::QuotaExceeded { .. })
        ));
    }

    #[test]
    fn expired_deadline_aborts_at_the_check_interval() {
        let mut gov = ResourceGovernor::new().with_deadline_at(Instant::now());
        let mut aborted = false;
        for _ in 0..=DEADLINE_CHECK_MASK {
            if let GovernorVerdict::Abort(BddError::DeadlineExceeded { .. }) = gov.note_alloc(1, 0)
            {
                aborted = true;
                break;
            }
        }
        assert!(
            aborted,
            "an expired deadline must abort within one interval"
        );
    }

    #[test]
    fn errors_render_their_numbers() {
        let quota = BddError::QuotaExceeded {
            live_nodes: 250,
            max_live_nodes: 100,
        };
        assert!(quota.to_string().contains("250"));
        assert!(quota.to_string().contains("100"));
        let deadline = BddError::DeadlineExceeded {
            elapsed_ms: 12,
            deadline_ms: 10,
        };
        assert!(deadline.to_string().contains("deadline"));
    }
}
