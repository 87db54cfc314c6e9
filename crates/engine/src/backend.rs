//! One backend attempt: run a solver on a rehydrated relation and score
//! its solution into the uniform [`SolutionReport`].

use std::time::Instant;

use brel_bdd::{BddError, CacheStats, GcStats};
use brel_core::{
    BrelConfig, CostFunction, Explorer, QuickSolver, SearchStrategy, Solution, SolveStats,
    StepOutcome,
};
use brel_gyocro::{GyocroConfig, GyocroSolver};
use brel_relation::{BooleanRelation, RelationError};

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
    /// BDD-kernel lifecycle counters attributed to this run (collections,
    /// reclaimed nodes, reorder passes as deltas; live/peak nodes and the
    /// variable-order hash as gauges). Deterministic, like `cache`.
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

/// The fault-policy context of one backend execution: the wall-clock
/// deadline, the deterministic step deadline, and the fault injections
/// aimed at this job. Empty for the non-BREL backends and ladder rungs.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct ExecContext<'a> {
    /// Wall-clock deadline, checked cooperatively between exploration
    /// steps (the kernel governor checks it inside `mk` as well).
    pub deadline: Option<Instant>,
    /// The policy's `deadline_ms`, carried into the structured error.
    pub deadline_ms: u64,
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

/// Runs one backend on one (already rehydrated) relation under a
/// fault-policy context and scores the solution under the job's cost
/// function. The second return value is the deterministic truncation
/// description when a step deadline expired (the report's `degraded` flag
/// is set accordingly).
///
/// # Errors
///
/// Returns [`RelationError::NotWellDefined`] if the relation has no
/// compatible function, and [`RelationError::ResourceExhausted`] when the
/// kernel governor or the wall-clock deadline aborted the attempt.
/// Injected panics and quota trips unwind — callers isolate attempts with
/// [`crate::fault::catch_fault`].
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
                let (solution, truncated) =
                    run_brel_guarded(cost, budget, strategy, relation, ctx)?;
                (solution.function, solution.stats, truncated)
            }
        }
    };
    let wall_us = brel_obs::wall_micros(start);
    // Snapshot before the compatibility check so the verification's own
    // kernel traffic never leaks into the attributed counters.
    let after = relation.space().mgr().stats_snapshot();
    let (score, cover) = {
        let _span = brel_obs::span(brel_obs::Category::Engine, "verify");
        assert!(
            relation.is_compatible(&function),
            "backend {} returned an incompatible function",
            kind.name()
        );
        (cost.to_cost_fn().cost(&function), function.to_multicover())
    };
    let report = SolutionReport {
        backend: kind,
        cost: score,
        cubes: cover.num_cubes(),
        literals: cover.num_literals(),
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

/// The BREL attempt as a fault-aware exploration loop: between steps it
/// fires due injections, checks the wall-clock deadline, and catches the
/// kernel governor's cooperative unwind ([`Explorer::step_guarded`]).
/// Behaviourally identical to `BrelSolver::solve` when the context is
/// empty, so clean runs stay byte-identical to the unguarded path.
fn run_brel_guarded(
    cost: CostSpec,
    budget: &JobBudget,
    strategy: SearchStrategy,
    relation: &BooleanRelation,
    ctx: &ExecContext<'_>,
) -> Result<(Solution, Option<String>), RelationError> {
    let config = brel_config(cost, budget, strategy, ctx.step_deadline);
    let mut explorer = Explorer::new(config, relation)?;
    if let Some(control) = ctx.control {
        // The quick-solver seed is the first incumbent: a valid, verified
        // compatible solution available before any exploration step.
        control.notify_incumbent(explorer.best_cost(), explorer.explored());
    }
    let mut truncated: Option<String> = None;
    loop {
        for injection in ctx.injections {
            if injection.at_expansion() != explorer.explored() {
                continue;
            }
            match injection.kind() {
                FaultKind::Panic => {
                    if injection.fire() {
                        std::panic::panic_any(InjectedPanic {
                            job: injection.job().to_string(),
                            at_expansion: injection.at_expansion(),
                        });
                    }
                }
                FaultKind::QuotaTrip => {
                    if injection.fire() {
                        // The same typed payload a real governor abort
                        // carries, so classification and quarantine follow
                        // the organic path. Deterministic values only.
                        std::panic::panic_any(BddError::QuotaExceeded {
                            live_nodes: 0,
                            max_live_nodes: 0,
                        });
                    }
                }
                FaultKind::StepDeadline => {
                    if injection.fire() {
                        explorer.config_mut().step_deadline = Some(explorer.explored());
                        truncated = Some(format!(
                            "injected step deadline at expansion {} of job {}",
                            injection.at_expansion(),
                            injection.job()
                        ));
                    }
                }
            }
        }
        if let Some(deadline) = ctx.deadline {
            if Instant::now() >= deadline {
                return Err(RelationError::ResourceExhausted(
                    BddError::DeadlineExceeded {
                        elapsed_ms: ctx.deadline_ms,
                        deadline_ms: ctx.deadline_ms,
                    },
                ));
            }
        }
        if ctx.control.is_some_and(JobControl::is_cancelled) {
            // Cooperative cancellation: truncate like a step deadline —
            // stop at the step boundary, keep the incumbent, classify the
            // job as degraded rather than failed.
            truncated.get_or_insert_with(|| {
                format!("cancelled after {} expansions", explorer.explored())
            });
            break;
        }
        match explorer.step_guarded()? {
            StepOutcome::Explored { improved, .. } => {
                if improved {
                    if let Some(control) = ctx.control {
                        control.notify_incumbent(explorer.best_cost(), explorer.explored());
                    }
                }
            }
            StepOutcome::Exhausted | StepOutcome::BudgetExhausted => break,
            StepOutcome::DeadlineExpired => {
                if truncated.is_none() {
                    truncated = Some(format!(
                        "step deadline expired after {} expansions",
                        explorer.explored()
                    ));
                }
                break;
            }
        }
    }
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
