//! One backend attempt: run a solver on a rehydrated relation and score
//! its solution into the uniform [`SolutionReport`].

use std::any::Any;
use std::time::Instant;

use brel_bdd::{BddError, CacheStats, GcStats};
use brel_core::{
    BrelConfig, CostFunction, Explorer, QuickSolver, SearchStrategy, Solution, SolveStats,
    StepOutcome,
};
use brel_gyocro::{GyocroConfig, GyocroSolver};
use brel_relation::{BooleanRelation, MultiOutputFunction, RelationError};

use crate::control::JobControl;
use crate::fault::{FaultInjection, FaultKind, InjectedPanic};
use crate::job::{BackendKind, CostSpec, JobBudget};
use crate::reuse::ReuseStats;

/// The uniform per-backend result: every field except the wall time is a
/// pure function of the job spec, which is what makes batch output
/// reproducible across worker counts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SolutionReport {
    /// Which backend produced the solution.
    pub backend: BackendKind,
    /// Cost of the solution under the job's [`CostSpec`].
    pub cost: u64,
    /// Number of cubes of the ISOP covers of the outputs.
    pub cubes: usize,
    /// Number of literals of the ISOP covers of the outputs.
    pub literals: usize,
    /// Backend-specific exploration count.
    pub explored: usize,
    /// Number of splits performed (BREL only; 0 elsewhere).
    pub splits: usize,
    /// High-water mark of pending subproblems in the search frontier (BREL
    /// only; 0 elsewhere). Deterministic, like `explored`.
    pub frontier_peak: usize,
    /// The search strategy that drove the exploration; `None` for backends
    /// without a frontier (quick, gyocro).
    pub strategy: Option<SearchStrategy>,
    /// BDD-kernel cache counters attributed to this backend run: the delta
    /// of the relation's manager counters across the solve. Deterministic
    /// (a pure function of the operation sequence), so it participates in
    /// reproducible serializations, unlike `wall_micros`.
    pub cache: CacheStats,
    /// BDD-kernel lifecycle counters attributed to this run (collections
    /// and reclaimed nodes as deltas, live/peak nodes as gauges).
    /// Deterministic, like `cache`.
    pub gc: GcStats,
    /// How this attempt was produced: warm-session rehydration and/or a
    /// cross-job cache hit. Scheduling-dependent, so excluded from
    /// deterministic serializations like `wall_micros` (see
    /// [`crate::report`]).
    pub reuse: ReuseStats,
    /// `true` when the attempt is a degraded result: a step-deadline
    /// truncation's incumbent or a degradation-ladder rung run after the
    /// primary attempt faulted (see [`crate::FaultPolicy`]). Deterministic.
    pub degraded: bool,
    /// Wall-clock solve time in microseconds. Excluded from deterministic
    /// serializations (see [`crate::report`]).
    pub wall_micros: u64,
}

/// The fault-policy context of one BREL attempt, narrow or wide: the
/// wall-clock deadline, the deterministic step deadline, the fault
/// injections aimed at the job and its control surface. Its methods are
/// the per-step stop policy both modes drive ([`ExecContext::check`] before
/// each step, [`ExecContext::settle`] after it). The runner builds it once
/// per job; the non-BREL backends and ladder rungs run under the empty
/// default.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct ExecContext<'a> {
    /// Wall-clock deadline, checked cooperatively between exploration
    /// steps (the kernel governor checks it inside `mk` as well).
    pub deadline: Option<Instant>,
    /// Deterministic truncation: stop after this many expansions and keep
    /// the incumbent as a degraded result.
    pub step_deadline: Option<usize>,
    /// Fault injections targeting this job (BREL attempts only).
    pub injections: &'a [&'a FaultInjection],
    /// The job's control surface (cooperative cancellation + incumbent
    /// streaming), when an interactive caller installed one. `None` on
    /// the batch path — and an inert control behaves identically to
    /// `None`, which is what keeps serial replays byte-identical.
    pub control: Option<&'a JobControl>,
}

/// Why a BREL attempt's commit sequence ends, as the per-step policy
/// ([`ExecContext::check`], [`ExecContext::settle`]) decides it. Narrow
/// mode maps it with [`Stop::raise`]; wide mode degrades on the incumbent
/// (see [`crate::wide`]).
pub(crate) enum Stop {
    /// The search ended on its own: the frontier is exhausted or the
    /// `max_explored` budget is spent.
    Finished,
    /// A deterministic truncation: an injected or expired step deadline,
    /// or cancellation. The attempt keeps its incumbent as a degraded
    /// result, described by the string.
    Truncated(String),
    /// An injection fired: the unwind payload of the fault it stands for,
    /// an [`InjectedPanic`] or a quota trip's [`BddError::QuotaExceeded`]
    /// (deterministic numbers only).
    Injected(Box<dyn Any + Send>),
    /// The wall-clock deadline passed between two steps.
    Deadline,
}

impl Stop {
    /// Narrow mode's mapping: a fault unwinds with the typed payload the
    /// attempt boundary ([`crate::fault::catch_fault`]) classifies — the
    /// wall deadline as the [`BddError::DeadlineExceeded`] the governor
    /// raises on the same deadline inside the kernel — and a truncation
    /// returns its description.
    pub(crate) fn raise(self) -> Option<String> {
        match self {
            Stop::Finished => None,
            Stop::Truncated(why) => Some(why),
            Stop::Injected(payload) => std::panic::resume_unwind(payload),
            Stop::Deadline => std::panic::panic_any(BddError::DeadlineExceeded {
                elapsed_ms: 0,
                deadline_ms: 0,
            }),
        }
    }
}

impl ExecContext<'_> {
    /// The per-step stop checks at expansion index `explored`, run before
    /// each step by narrow and wide mode alike: the injections due there,
    /// then the wall deadline, then cancellation.
    ///
    /// Injections fire by equality with the cumulative expansion count.
    /// Both modes pass through every index, so a plan aimed anywhere in
    /// the search fires at the same point at every worker count. The first
    /// injection to fire decides the stop; another one due at the same
    /// index stays armed for a retry.
    pub(crate) fn check(&self, explored: usize) -> Option<Stop> {
        let fired = self
            .injections
            .iter()
            .find(|injection| injection.at_expansion() == explored && injection.fire());
        if let Some(injection) = fired {
            return Some(match injection.kind() {
                FaultKind::Panic => Stop::Injected(Box::new(InjectedPanic {
                    job: injection.job().to_string(),
                    at_expansion: explored,
                })),
                FaultKind::QuotaTrip => Stop::Injected(Box::new(BddError::QuotaExceeded {
                    live_nodes: 0,
                    max_live_nodes: 0,
                })),
                FaultKind::StepDeadline => Stop::Truncated(format!(
                    "injected step deadline at expansion {explored} of job {}",
                    injection.job()
                )),
            });
        }
        // The wall deadline is timing-dependent by nature; determinism
        // gates use step deadlines instead.
        if self.deadline.is_some_and(|at| Instant::now() >= at) {
            return Some(Stop::Deadline);
        }
        if self.control.is_some_and(JobControl::is_cancelled) {
            return Some(Stop::Truncated(format!(
                "cancelled after {explored} expansions"
            )));
        }
        None
    }

    /// Settles what the explorer reported for one step — a committed
    /// expansion, or why [`Explorer::pop`] had nothing to give: streams an
    /// improved incumbent, and maps a stop outcome to its [`Stop`].
    pub(crate) fn settle(&self, explorer: &Explorer, outcome: StepOutcome) -> Option<Stop> {
        match outcome {
            StepOutcome::Explored { improved, .. } => {
                if improved {
                    self.notify(explorer);
                }
                None
            }
            StepOutcome::Exhausted | StepOutcome::BudgetExhausted => Some(Stop::Finished),
            StepOutcome::DeadlineExpired => Some(Stop::Truncated(format!(
                "step deadline expired after {} expansions",
                explorer.explored()
            ))),
        }
    }

    /// Streams the explorer's incumbent to the control, if one is
    /// installed: the quick-solver seed (a verified compatible solution
    /// available before any step), then every improvement.
    pub(crate) fn notify(&self, explorer: &Explorer) {
        if let Some(control) = self.control {
            control.notify_incumbent(explorer.best_cost(), explorer.explored());
        }
    }
}

/// Runs one backend on one (already rehydrated) relation under a
/// fault-policy context and scores the solution under the job's cost
/// function. The second return value is the deterministic truncation
/// description when a step deadline expired (the report's `degraded` flag
/// is set accordingly).
///
/// # Errors
///
/// Returns [`RelationError::NotWellDefined`] if the relation has no
/// compatible function. Every abort unwinds instead: a kernel governor
/// abort, an expired wall-clock deadline and an injected quota trip with a
/// [`BddError`] payload, an injected panic with its own — callers isolate
/// attempts with [`crate::fault::catch_fault`].
pub(crate) fn execute_with(
    kind: BackendKind,
    cost: CostSpec,
    budget: &JobBudget,
    strategy: SearchStrategy,
    relation: &BooleanRelation,
    ctx: &ExecContext<'_>,
) -> Result<(SolutionReport, Option<String>), RelationError> {
    // Portfolio backends share one rehydrated manager; re-base the peak
    // gauge so each report's `gc.peak_live_nodes` is this backend's own
    // high-water mark, not the construction peak or a predecessor's.
    // (Re-basing only moves the peak gauge, so taking the combined
    // snapshot after it sees the same counter baselines the two separate
    // queries used to.)
    relation.space().mgr().reset_peak_live_nodes();
    let before = relation.space().mgr().stats_snapshot();
    let start = Instant::now();
    let (function, stats, truncated) = {
        let _span = brel_obs::span(brel_obs::Category::Engine, "backend");
        match kind {
            BackendKind::Quick => {
                let function = QuickSolver::new().solve(relation)?;
                let stats = SolveStats {
                    explored: 1,
                    ..SolveStats::default()
                };
                (function, stats, None)
            }
            BackendKind::Gyocro => {
                let solution = GyocroSolver::new(GyocroConfig {
                    max_passes: budget.gyocro_max_passes,
                    ..GyocroConfig::default()
                })
                .solve(relation)?;
                let stats = SolveStats {
                    explored: solution.passes,
                    ..SolveStats::default()
                };
                (solution.function, stats, None)
            }
            BackendKind::Brel => {
                let (solution, truncated) = run_brel(cost, budget, strategy, relation, ctx)?;
                (solution.function, solution.stats, truncated)
            }
        }
    };
    let wall_us = brel_obs::wall_micros(start);
    // Snapshot before the compatibility check so the verification's own
    // kernel traffic never leaks into the attributed counters.
    let after = relation.space().mgr().stats_snapshot();
    let (score, cubes, literals) = score(kind, cost, relation, &function);
    let report = SolutionReport {
        backend: kind,
        cost: score,
        cubes,
        literals,
        explored: stats.explored,
        splits: stats.splits,
        frontier_peak: stats.frontier_peak,
        strategy: (kind == BackendKind::Brel).then_some(strategy),
        cache: after.cache.delta_since(&before.cache),
        gc: after.gc.delta_since(&before.gc),
        reuse: ReuseStats::default(),
        degraded: truncated.is_some(),
        wall_micros: wall_us,
    };
    Ok((report, truncated))
}

/// Scores an attempt's winner, narrow or wide: hard-asserts that
/// `function` is compatible with `relation` (both in one session), then
/// returns its cost under the job's cost function and the cube and
/// literal counts of its ISOP covers.
///
/// # Panics
///
/// Panics if the backend returned an incompatible function.
pub(crate) fn score(
    kind: BackendKind,
    cost: CostSpec,
    relation: &BooleanRelation,
    function: &MultiOutputFunction,
) -> (u64, usize, usize) {
    let _span = brel_obs::span(brel_obs::Category::Engine, "verify");
    assert!(
        relation.is_compatible(function),
        "backend {} returned an incompatible function",
        kind.name()
    );
    let score = cost.to_cost_fn().cost(function);
    let cover = function.to_multicover();
    (score, cover.num_cubes(), cover.num_literals())
}

/// The exploration a BREL job asks for: its cost, strategy, budget and
/// frontier capacity, truncated at the fault policy's `step_deadline`.
/// Narrow and wide mode both explore under it.
pub(crate) fn brel_config(
    cost: CostSpec,
    budget: &JobBudget,
    strategy: SearchStrategy,
    step_deadline: Option<usize>,
) -> BrelConfig {
    BrelConfig::default()
        .with_cost(cost.to_cost_fn())
        .with_strategy(strategy)
        .with_max_explored(budget.max_explored)
        .with_fifo_capacity(budget.fifo_capacity)
        .with_step_deadline(step_deadline)
}

/// The BREL attempt's exploration loop: the per-step policy of `ctx`
/// around [`Explorer::step`]. Behaviourally identical to
/// `BrelSolver::solve` when the context is empty, so clean runs stay
/// byte-identical to the plain solver. Narrow mode's mapping of a
/// [`Stop`] is [`Stop::raise`].
fn run_brel(
    cost: CostSpec,
    budget: &JobBudget,
    strategy: SearchStrategy,
    relation: &BooleanRelation,
    ctx: &ExecContext<'_>,
) -> Result<(Solution, Option<String>), RelationError> {
    let config = brel_config(cost, budget, strategy, ctx.step_deadline);
    let mut explorer = Explorer::new(config, relation)?;
    ctx.notify(&explorer);
    let stop = loop {
        if let Some(stop) = ctx.check(explorer.explored()) {
            break stop;
        }
        let outcome = explorer.step()?;
        if let Some(stop) = ctx.settle(&explorer, outcome) {
            break stop;
        }
    };
    let truncated = stop.raise();
    Ok((explorer.into_solution(), truncated))
}

#[cfg(test)]
mod tests {
    use super::*;
    use brel_relation::RelationSpace;

    fn fig10() -> (RelationSpace, BooleanRelation) {
        let space = RelationSpace::with_names(&["a", "b"], &["x", "y"]);
        let r = BooleanRelation::from_table(&space, "00:{00,11}\n01:{10}\n10:{01,10}\n11:{11}")
            .unwrap();
        (space, r)
    }

    fn execute(
        kind: BackendKind,
        cost: CostSpec,
        budget: &JobBudget,
        strategy: SearchStrategy,
        relation: &BooleanRelation,
    ) -> Result<SolutionReport, RelationError> {
        execute_with(
            kind,
            cost,
            budget,
            strategy,
            relation,
            &ExecContext::default(),
        )
        .map(|(report, _)| report)
    }

    #[test]
    fn every_backend_produces_a_scored_report() {
        let (_space, r) = fig10();
        for kind in BackendKind::all() {
            let report = execute(
                kind,
                CostSpec::SumBddSize,
                &JobBudget::default(),
                SearchStrategy::Fifo,
                &r,
            )
            .expect("solvable");
            assert_eq!(report.backend, kind);
            assert!(report.cost > 0);
            assert!(report.literals >= report.cubes);
            assert!(report.explored >= 1);
            if kind == BackendKind::Brel {
                assert_eq!(report.strategy, Some(SearchStrategy::Fifo));
                assert!(report.frontier_peak >= 1);
            } else {
                assert_eq!(report.strategy, None);
                assert_eq!(report.splits, 0);
                assert_eq!(report.frontier_peak, 0);
            }
        }
    }

    #[test]
    fn brel_beats_quick_on_the_local_minimum_relation() {
        // Section 9.1: BREL (unbounded here via a generous budget) escapes
        // the quick solver's local minimum on the Fig. 10 relation.
        let (_space, r) = fig10();
        let budget = JobBudget {
            max_explored: None,
            fifo_capacity: None,
            ..JobBudget::default()
        };
        let quick = execute(
            BackendKind::Quick,
            CostSpec::SumBddSize,
            &budget,
            SearchStrategy::Fifo,
            &r,
        )
        .unwrap();
        for strategy in SearchStrategy::all() {
            let brel = execute(
                BackendKind::Brel,
                CostSpec::SumBddSize,
                &budget,
                strategy,
                &r,
            )
            .unwrap();
            assert!(brel.cost < quick.cost);
            assert_eq!(brel.strategy, Some(strategy));
        }
    }

    #[test]
    fn ill_defined_relations_error_on_every_backend() {
        let space = RelationSpace::new(1, 1);
        let r = BooleanRelation::from_table(&space, "1 : {1}").unwrap();
        for kind in BackendKind::all() {
            assert!(execute(
                kind,
                CostSpec::default(),
                &JobBudget::default(),
                SearchStrategy::Fifo,
                &r
            )
            .is_err());
        }
    }
}
