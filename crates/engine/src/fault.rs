//! Fault policy, outcome taxonomy and the deterministic fault-injection
//! harness.
//!
//! The engine's fault-tolerance contract has three layers:
//!
//! * every job carries a [`FaultPolicy`] — a wall-clock deadline, a
//!   live-node quota mapped onto the kernel's
//!   [`brel_bdd::ResourceGovernor`], a deterministic step deadline, a
//!   bounded retry count for transient faults, and a degradation switch;
//! * every backend attempt is classified: a governor abort and an organic
//!   panic unwind to the one attempt boundary ([`catch_fault`]), which
//!   folds the payload into a [`FaultClass`]; that decides
//!   retry/quarantine/degradation and maps to the job-level [`JobOutcome`]
//!   taxonomy the reports carry. Between two exploration steps, one
//!   per-step policy checks the injections, the wall deadline and
//!   cancellation for narrow and wide mode alike; narrow mode raises a
//!   fault it finds as the same typed unwind, and wide mode degrades on
//!   its incumbent with the description that unwind would classify to;
//! * a seeded [`FaultPlan`] injects faults (a panic, a quota trip, or a
//!   step deadline at the Nth expansion of a named job) *deterministically*
//!   — each injection arms exactly once, so a chaos batch produces the same
//!   structured outcomes at every worker count, which is what lets the
//!   chaos gates byte-compare clean jobs against a no-fault run.

use std::any::Any;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Once;
use std::time::Instant;

use brel_bdd::{BddError, BddSession, ResourceGovernor};

/// Per-job fault policy: how much a job may consume and what happens when
/// it misbehaves.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FaultPolicy {
    /// Wall-clock deadline for the BREL attempt, in milliseconds. Checked
    /// cooperatively between exploration steps and inside the kernel (via
    /// the governor), so a runaway job aborts with a structured
    /// [`JobOutcome::TimedOut`] instead of hanging the batch. Wall-clock
    /// deadlines are timing-dependent by nature and never participate in
    /// determinism gates — those use [`FaultPolicy::step_deadline`].
    pub deadline_ms: Option<u64>,
    /// Live-node quota for the BREL attempt's BDD manager. On the first
    /// crossing the kernel tries a garbage collection; if the quota is
    /// still exceeded afterwards (or the hard ceiling of twice the quota is
    /// hit), the attempt aborts with [`JobOutcome::QuotaExceeded`].
    ///
    /// In wide mode the quota governs each worker's session separately,
    /// and a worker's live nodes depend on which subproblems it claimed or
    /// stole. A quota that trips mid-search therefore aborts a wide solve
    /// at a run-dependent point, unlike a narrow one; only a quota that
    /// trips at the first expansion is worker-count invariant there.
    pub max_live_nodes: Option<u64>,
    /// Deterministic deadline: stop the BREL exploration after this many
    /// expanded subrelations and keep the incumbent as a
    /// [`JobOutcome::Degraded`] result. The timing-free stand-in for
    /// `deadline_ms` in reproducible tests and chaos gates.
    pub step_deadline: Option<usize>,
    /// How many times a *transient* fault (a panic — not a quota or
    /// deadline abort, which would just recur) is retried on a fresh cold
    /// session before the attempt is given up.
    pub retries: u32,
    /// Walk the degradation ladder when every backend of the job failed:
    /// a budget-capped best-first BREL run, then the quick solver, so a
    /// batch always returns one scored row per job. With `false` the job
    /// reports its fault outcome and no solution.
    pub fallback: bool,
}

impl Default for FaultPolicy {
    fn default() -> Self {
        FaultPolicy {
            deadline_ms: None,
            max_live_nodes: None,
            step_deadline: None,
            retries: 0,
            fallback: true,
        }
    }
}

impl FaultPolicy {
    /// The kernel governor of a BREL attempt under this policy whose wall
    /// deadline falls at `deadline`: the live-node quota and the deadline,
    /// or `None` when neither is set.
    pub(crate) fn governor(&self, deadline: Option<Instant>) -> Option<ResourceGovernor> {
        if self.max_live_nodes.is_none() && deadline.is_none() {
            return None;
        }
        let mut governor = ResourceGovernor::new();
        if let Some(max) = self.max_live_nodes {
            governor = governor.with_max_live_nodes(max);
        }
        if let Some(at) = deadline {
            governor = governor.with_deadline_at(at);
        }
        Some(governor)
    }
}

/// The structured outcome of one job, carried through every report
/// serialization so a batch consumer can tell a clean solve from a
/// degraded or aborted one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum JobOutcome {
    /// Every requested backend completed cleanly.
    Solved,
    /// The job hit a fault or truncation but still delivered a verified
    /// compatible solution (surviving portfolio backends, a retried
    /// attempt's incumbent, or a degradation-ladder rung).
    Degraded,
    /// A deadline (wall-clock or step) expired and no solution survived.
    TimedOut,
    /// The live-node quota aborted the job and no solution survived.
    QuotaExceeded,
    /// A panic killed the job and no solution survived.
    Panicked,
}

impl JobOutcome {
    /// Short stable name used in reports.
    pub fn name(&self) -> &'static str {
        match self {
            JobOutcome::Solved => "solved",
            JobOutcome::Degraded => "degraded",
            JobOutcome::TimedOut => "timed-out",
            JobOutcome::QuotaExceeded => "quota-exceeded",
            JobOutcome::Panicked => "panicked",
        }
    }
}

/// The kind of fault a [`FaultInjection`] fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// Panic at the Nth expansion (an [`InjectedPanic`] payload, so the
    /// engine can tell it from an organic bug).
    Panic,
    /// Raise the kernel's quota abort at the Nth expansion, as if the
    /// governor had tripped.
    QuotaTrip,
    /// Arm a step deadline at the Nth expansion: the exploration truncates
    /// there and the job degrades to its incumbent.
    StepDeadline,
}

impl FaultKind {
    /// Short stable name used in reports and logs.
    pub fn name(&self) -> &'static str {
        match self {
            FaultKind::Panic => "panic",
            FaultKind::QuotaTrip => "quota-trip",
            FaultKind::StepDeadline => "step-deadline",
        }
    }
}

/// The panic payload of a [`FaultKind::Panic`] injection. A distinct type
/// (rather than a string) so the classifier can prove a panic was injected
/// and the quiet panic hook can suppress its default backtrace output.
#[derive(Debug, Clone)]
pub struct InjectedPanic {
    /// Name of the job the injection targeted.
    pub job: String,
    /// The expansion index the injection fired at.
    pub at_expansion: usize,
}

impl InjectedPanic {
    /// The deterministic description carried into the job report.
    pub(crate) fn describe(&self) -> String {
        format!(
            "injected panic at expansion {} of job {}",
            self.at_expansion, self.job
        )
    }
}

/// One armed fault: fire `kind` at the `at_expansion`-th expansion of the
/// job named `job`. Fires exactly once (compare-and-swap), so retries and
/// degradation-ladder rungs of the same job run clean — the property the
/// retry path and the chaos determinism gates rely on.
#[derive(Debug)]
pub struct FaultInjection {
    job: String,
    at_expansion: usize,
    kind: FaultKind,
    fired: AtomicBool,
}

impl FaultInjection {
    /// A new, unfired injection.
    pub fn new(job: impl Into<String>, at_expansion: usize, kind: FaultKind) -> Self {
        FaultInjection {
            job: job.into(),
            at_expansion,
            kind,
            fired: AtomicBool::new(false),
        }
    }

    /// Name of the targeted job.
    pub fn job(&self) -> &str {
        &self.job
    }

    /// The expansion index the fault fires at.
    pub(crate) fn at_expansion(&self) -> usize {
        self.at_expansion
    }

    /// What the injection does when it fires.
    pub fn kind(&self) -> FaultKind {
        self.kind
    }

    /// Whether the injection has fired already.
    pub(crate) fn has_fired(&self) -> bool {
        self.fired.load(Ordering::SeqCst)
    }

    /// Arms the injection: returns `true` exactly once.
    pub(crate) fn fire(&self) -> bool {
        !self.fired.swap(true, Ordering::SeqCst)
    }
}

/// A deterministic set of fault injections for one batch run. Injections
/// are armed-once, so a plan is good for exactly one batch — rebuild a
/// fresh plan (same seed, same jobs) to replay the identical faults.
#[derive(Debug, Default)]
pub struct FaultPlan {
    seed: u64,
    injections: Vec<FaultInjection>,
}

impl FaultPlan {
    /// A plan from explicit injections.
    pub fn new(injections: Vec<FaultInjection>) -> Self {
        FaultPlan {
            seed: 0,
            injections,
        }
    }

    /// The canonical chaos plan: picks up to three *distinct* jobs from
    /// `job_names` (SplitMix64 on `seed`) and assigns one injection of each
    /// [`FaultKind`] — a panic, a quota trip and a step deadline — at
    /// expansion 0 or 1, indices every well-defined job is guaranteed to
    /// reach. Pure in `(seed, job_names)`, so rebuilding the plan replays
    /// the same faults.
    pub fn seeded(seed: u64, job_names: &[&str]) -> Self {
        let mut state = seed;
        let kinds = [
            FaultKind::Panic,
            FaultKind::QuotaTrip,
            FaultKind::StepDeadline,
        ];
        let mut picked: Vec<usize> = Vec::new();
        let mut injections = Vec::new();
        for kind in kinds.into_iter().take(job_names.len()) {
            let index = loop {
                let candidate = (splitmix64(&mut state) % job_names.len() as u64) as usize;
                if !picked.contains(&candidate) {
                    break candidate;
                }
            };
            picked.push(index);
            let at_expansion = (splitmix64(&mut state) % 2) as usize;
            injections.push(FaultInjection::new(job_names[index], at_expansion, kind));
        }
        FaultPlan { seed, injections }
    }

    /// The seed the plan was derived from (0 for explicit plans).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Every injection of the plan.
    pub fn injections(&self) -> &[FaultInjection] {
        &self.injections
    }

    /// The injections targeting the job named `name`.
    pub(crate) fn for_job(&self, name: &str) -> Vec<&FaultInjection> {
        self.injections.iter().filter(|i| i.job == name).collect()
    }

    /// The distinct job names the plan targets.
    pub fn targets(&self) -> Vec<&str> {
        let mut names: Vec<&str> = self.injections.iter().map(|i| i.job.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        names
    }

    /// How many injections have fired so far.
    pub fn num_fired(&self) -> usize {
        self.injections.iter().filter(|i| i.has_fired()).count()
    }
}

/// The SplitMix64 step shared by the chaos planner and wide mode's
/// stagger plans: cheap, seedable, and good enough to scramble schedules.
pub(crate) fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The engine-side classification of a failed backend attempt: what the
/// unwind payload proves about the failure. Decides
/// retry (panics are transient, resource aborts would just recur),
/// quarantine, and the job outcome when no solution survives.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum FaultClass {
    /// The attempt panicked; the payload's message (deterministic for
    /// injected panics).
    Panicked(String),
    /// The kernel's live-node quota aborted the attempt.
    Quota,
    /// A deadline (wall-clock, kernel or injected) aborted the attempt.
    Deadline,
}

impl FaultClass {
    /// Classifies a caught panic payload: governor aborts carry a typed
    /// [`BddError`], injections carry an [`InjectedPanic`], anything else
    /// is an organic panic whose message is preserved.
    pub(crate) fn from_panic(payload: Box<dyn Any + Send>) -> FaultClass {
        let payload = match payload.downcast::<BddError>() {
            Ok(error) => {
                return match *error {
                    BddError::QuotaExceeded { .. } => FaultClass::Quota,
                    BddError::DeadlineExceeded { .. } => FaultClass::Deadline,
                };
            }
            Err(payload) => payload,
        };
        let payload = match payload.downcast::<InjectedPanic>() {
            Ok(injected) => return FaultClass::Panicked(injected.describe()),
            Err(payload) => payload,
        };
        let message = if let Some(s) = payload.downcast_ref::<&str>() {
            (*s).to_string()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "opaque panic payload".to_string()
        };
        FaultClass::Panicked(message)
    }

    /// Deterministic, timing-free description for the job report. No
    /// volatile numbers: the chaos gates byte-compare reports across runs.
    pub(crate) fn describe(&self) -> String {
        match self {
            FaultClass::Panicked(message) => format!("panic: {message}"),
            FaultClass::Quota => "live-node quota exceeded".to_string(),
            FaultClass::Deadline => "deadline exceeded".to_string(),
        }
    }

    /// Whether retrying could help: panics are one-off (a poisoned session
    /// is quarantined and rebuilt), resource aborts would just recur under
    /// the same policy.
    pub(crate) fn transient(&self) -> bool {
        matches!(self, FaultClass::Panicked(_))
    }

    /// The job outcome when no solution survives this fault.
    pub(crate) fn outcome(&self) -> JobOutcome {
        match self {
            FaultClass::Panicked(_) => JobOutcome::Panicked,
            FaultClass::Quota => JobOutcome::QuotaExceeded,
            FaultClass::Deadline => JobOutcome::TimedOut,
        }
    }
}

/// Suppresses the default panic-hook output (message + backtrace) for the
/// engine's *cooperative* unwinds — [`BddError`] resource aborts (the
/// kernel's, the wall deadline's and injected quota trips) and
/// [`InjectedPanic`]s — which are caught and classified at the attempt
/// boundary. Organic panics keep the previous hook's behaviour. Installed
/// once per process; safe to call from any thread.
pub(crate) fn quiet_fault_panics() {
    static INSTALL: Once = Once::new();
    INSTALL.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let payload = info.payload();
            if payload.is::<BddError>() || payload.is::<InjectedPanic>() {
                return;
            }
            previous(info);
        }));
    });
}

/// Runs `f`, converting any unwind into a classified [`FaultClass`]. The
/// single panic-isolation boundary of the engine: pool workers, wide-round
/// workers, retries and degradation-ladder rungs all go through here, so a
/// panicking backend can never take the batch down or hang a coordinator.
pub(crate) fn catch_fault<T>(f: impl FnOnce() -> T) -> Result<T, FaultClass> {
    quiet_fault_panics();
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).map_err(FaultClass::from_panic)
}

/// [`catch_fault`] with `governor` armed on `session` while `f` runs: how
/// narrow attempts and wide expansions alike run governed. The governor is
/// cleared on every path, faults included, so no later kernel work in the
/// session trips a stale one.
pub(crate) fn catch_governed<T>(
    session: &BddSession,
    governor: Option<ResourceGovernor>,
    f: impl FnOnce() -> T,
) -> Result<T, FaultClass> {
    let governed = governor.is_some();
    if let Some(governor) = governor {
        session.set_governor(governor);
    }
    let result = catch_fault(f);
    if governed {
        session.clear_governor();
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_plans_are_deterministic_and_distinct() {
        let names = ["a", "b", "c", "d", "e"];
        let plan = FaultPlan::seeded(42, &names);
        let replay = FaultPlan::seeded(42, &names);
        assert_eq!(plan.injections().len(), 3);
        assert_eq!(plan.targets().len(), 3, "three distinct jobs");
        for (i, r) in plan.injections().iter().zip(replay.injections()) {
            assert_eq!(i.job(), r.job());
            assert_eq!(i.at_expansion(), r.at_expansion());
            assert_eq!(i.kind(), r.kind());
            assert!(i.at_expansion() <= 1, "guaranteed-reachable index");
        }
        let kinds: Vec<FaultKind> = plan.injections().iter().map(|i| i.kind()).collect();
        assert_eq!(
            kinds,
            vec![
                FaultKind::Panic,
                FaultKind::QuotaTrip,
                FaultKind::StepDeadline
            ]
        );
    }

    #[test]
    fn small_batches_get_fewer_injections() {
        let plan = FaultPlan::seeded(7, &["only", "pair"]);
        assert_eq!(plan.injections().len(), 2);
        assert_eq!(plan.targets().len(), 2);
        assert!(FaultPlan::seeded(7, &[]).injections().is_empty());
    }

    #[test]
    fn injections_fire_exactly_once() {
        let injection = FaultInjection::new("j", 1, FaultKind::Panic);
        assert!(!injection.has_fired());
        assert!(injection.fire());
        assert!(!injection.fire(), "second fire is a no-op");
        assert!(injection.has_fired());
        let plan = FaultPlan::new(vec![injection]);
        assert_eq!(plan.num_fired(), 1);
    }

    #[test]
    fn panic_payloads_classify_by_type() {
        let quota = FaultClass::from_panic(Box::new(BddError::QuotaExceeded {
            live_nodes: 9,
            max_live_nodes: 4,
        }));
        assert_eq!(quota, FaultClass::Quota);
        assert_eq!(quota.outcome(), JobOutcome::QuotaExceeded);
        assert!(!quota.transient());

        let deadline = FaultClass::from_panic(Box::new(BddError::DeadlineExceeded {
            elapsed_ms: 2,
            deadline_ms: 1,
        }));
        assert_eq!(deadline, FaultClass::Deadline);
        assert_eq!(deadline.outcome(), JobOutcome::TimedOut);

        let injected = FaultClass::from_panic(Box::new(InjectedPanic {
            job: "int3".to_string(),
            at_expansion: 1,
        }));
        assert_eq!(
            injected,
            FaultClass::Panicked("injected panic at expansion 1 of job int3".to_string())
        );
        assert!(injected.transient());
        assert_eq!(injected.outcome(), JobOutcome::Panicked);
        assert!(injected.describe().starts_with("panic: injected panic"));

        let organic = FaultClass::from_panic(Box::new("index out of bounds".to_string()));
        assert_eq!(
            organic,
            FaultClass::Panicked("index out of bounds".to_string())
        );
    }

    #[test]
    fn catch_fault_passes_values_through_and_catches_unwinds() {
        assert_eq!(catch_fault(|| 5), Ok(5));
        let caught = catch_fault(|| -> u32 { panic!("boom") });
        assert_eq!(caught, Err(FaultClass::Panicked("boom".to_string())));
        let caught = catch_fault(|| {
            std::panic::panic_any(BddError::QuotaExceeded {
                live_nodes: 3,
                max_live_nodes: 1,
            })
        });
        assert_eq!(caught, Err(FaultClass::Quota));
    }

    #[test]
    fn outcome_names_are_stable() {
        assert_eq!(JobOutcome::Solved.name(), "solved");
        assert_eq!(JobOutcome::Degraded.name(), "degraded");
        assert_eq!(JobOutcome::TimedOut.name(), "timed-out");
        assert_eq!(JobOutcome::QuotaExceeded.name(), "quota-exceeded");
        assert_eq!(JobOutcome::Panicked.name(), "panicked");
        assert_eq!(FaultKind::QuotaTrip.name(), "quota-trip");
        assert_eq!(FaultPolicy::default().retries, 0);
        assert!(FaultPolicy::default().fallback);
        assert!(FaultPolicy::default().governor(None).is_none());
    }
}
