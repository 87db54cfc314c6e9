//! The recursive BREL solver (Fig. 6 of the paper) with the partial
//! breadth-first exploration, cost pruning and symmetry pruning of Section 7.
//!
//! The solver delegates to the strategy-driven search core of
//! [`crate::search`]: pending subrelations flow through one frontier
//! ordered by the [`crate::search::SearchStrategy`] (FIFO by default — the
//! paper's partial-BFS order) and an incremental
//! [`crate::search::Explorer`]. For each explored subrelation the core:
//!
//! 1. projects the relation onto each output and minimizes the resulting
//!    MISF output by output (a unate problem),
//! 2. prunes the branch if the minimized candidate already costs at least as
//!    much as the best known compatible solution,
//! 3. accepts the candidate if it is compatible with the subrelation,
//! 4. otherwise selects a conflicting input vertex (largest conflict cube)
//!    and an output with `{0,1}` flexibility there, splits the subrelation
//!    in two (Definition 5.4) and enqueues both halves.
//!
//! The quick solver is run on every explored subrelation so that a
//! compatible solution is always available even if the frontier bound or
//! the exploration budget truncates the search (Section 7.6).
//!
//! A [`Solution`] carries the counters of the walk ([`SolveStats`]); the
//! walk itself — the paper's exploration trace of Figs. 2 and 7 — is
//! reported step by step as `brel_obs` search events (see
//! [`crate::search`]).

use brel_relation::{BooleanRelation, MultiOutputFunction, RelationError};

use crate::cost::CostFn;
use crate::minimize_isf::IsfMinimizer;
use crate::search::{Explorer, SearchStrategy};

/// Configuration of the BREL solver. Clonable, so engine backends can be
/// stamped out from one template instead of rebuilding configs field by
/// field.
#[derive(Debug, Clone)]
pub struct BrelConfig {
    /// The cost function to minimize (default: sum of BDD sizes).
    pub cost: CostFn,
    /// The ISF minimization strategy (default: ISOP with non-essential
    /// variable elimination).
    pub minimizer: IsfMinimizer,
    /// The frontier discipline of the exploration (default: FIFO, the
    /// paper's partial-BFS order).
    pub strategy: SearchStrategy,
    /// Maximum number of subrelations explored (the paper uses 10 for the
    /// Table 2 runs and 200 for the decomposition flow). `None` means
    /// unbounded (exact mode if the frontier is also unbounded).
    pub max_explored: Option<usize>,
    /// Capacity of the frontier of pending subrelations (historically the
    /// FIFO bound, applied to every strategy). `None` means unbounded.
    pub fifo_capacity: Option<usize>,
    /// Fault-policy truncation: stop after this many explored subrelations
    /// and report [`crate::search::StepOutcome::DeadlineExpired`]. Unlike
    /// `max_explored` (a quality knob), hitting this deadline marks the
    /// result as degraded. `None` (the default) means no deadline.
    pub step_deadline: Option<usize>,
    /// Enable output-symmetry pruning (Section 7.7).
    pub use_symmetry: bool,
    /// Only check symmetries for subrelations created within this depth from
    /// the root (the paper limits the check to the initial recursions).
    pub symmetry_depth: usize,
}

impl Default for BrelConfig {
    fn default() -> Self {
        BrelConfig {
            cost: CostFn::SumBddSize,
            minimizer: IsfMinimizer::default(),
            strategy: SearchStrategy::Fifo,
            max_explored: Some(10),
            fifo_capacity: Some(64),
            step_deadline: None,
            use_symmetry: false,
            symmetry_depth: 4,
        }
    }
}

impl BrelConfig {
    /// An exact configuration: unbounded exploration and FIFO. Only
    /// practical for small relations.
    pub fn exact() -> Self {
        BrelConfig {
            max_explored: None,
            fifo_capacity: None,
            ..BrelConfig::default()
        }
    }

    /// The heuristic configuration used for the paper's Table 2 runs:
    /// sum-of-BDD-sizes cost, exploration limited to 10 subrelations.
    pub fn table2() -> Self {
        BrelConfig::default()
    }

    /// The heuristic configuration used for the decomposition experiments of
    /// Table 3: exploration limited to 200 subrelations.
    pub fn decomposition(delay_oriented: bool) -> Self {
        BrelConfig {
            cost: if delay_oriented {
                CostFn::SumSquaredBddSize
            } else {
                CostFn::SumBddSize
            },
            max_explored: Some(200),
            ..BrelConfig::default()
        }
    }

    /// Sets the cost function.
    pub fn with_cost(mut self, cost: CostFn) -> Self {
        self.cost = cost;
        self
    }

    /// Sets the ISF minimization strategy.
    pub fn with_minimizer(mut self, minimizer: IsfMinimizer) -> Self {
        self.minimizer = minimizer;
        self
    }

    /// Sets the frontier discipline of the exploration.
    pub fn with_strategy(mut self, strategy: SearchStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Sets the exploration budget.
    pub fn with_max_explored(mut self, max: Option<usize>) -> Self {
        self.max_explored = max;
        self
    }

    /// Sets the capacity of the frontier of pending subrelations.
    pub fn with_fifo_capacity(mut self, capacity: Option<usize>) -> Self {
        self.fifo_capacity = capacity;
        self
    }

    /// Sets the fault-policy step deadline (see
    /// [`BrelConfig::step_deadline`]).
    pub fn with_step_deadline(mut self, deadline: Option<usize>) -> Self {
        self.step_deadline = deadline;
        self
    }

    /// Enables or disables symmetry pruning.
    pub fn with_symmetry(mut self, enable: bool) -> Self {
        self.use_symmetry = enable;
        self
    }
}

/// Statistics of one solver run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SolveStats {
    /// Number of subrelations whose MISF was minimized.
    pub explored: usize,
    /// Number of splits performed.
    pub splits: usize,
    /// Number of explored branches pruned by the cost bound (their
    /// minimized candidate could not beat the incumbent).
    pub pruned_by_cost: usize,
    /// Number of pending subproblems dropped unexplored at pop time by
    /// best-first dominance pruning (their inherited priority could not
    /// beat the incumbent). Always 0 for FIFO/DFS.
    pub pruned_dominated: usize,
    /// Number of subrelations skipped by symmetry pruning.
    pub skipped_by_symmetry: usize,
    /// Number of subrelations dropped because the FIFO was full.
    pub dropped_by_fifo: usize,
    /// Number of times the incumbent solution was improved.
    pub improvements: usize,
    /// `true` if the search ran to completion (empty frontier) rather than
    /// hitting the exploration budget.
    pub complete: bool,
    /// High-water mark of pending subproblems in the frontier — the search
    /// overhead of the chosen strategy (each pending subrelation keeps its
    /// characteristic function rooted).
    pub frontier_peak: usize,
    /// High-water mark of live BDD nodes in the relation's shared manager
    /// over this solve (the manager's peak gauge is re-based at solve
    /// entry) — the memory bound of the exploration. The FIFO of pending
    /// subrelations keeps its characteristic functions rooted (they are
    /// `Bdd` handles), so this is the frontier + incumbent footprint the
    /// kernel's GC cannot reclaim, on top of whatever was live before the
    /// solve started.
    pub peak_live_nodes: u64,
    /// Garbage collections the kernel ran during this solve.
    pub gc_collections: u64,
}

impl SolveStats {
    /// The counters as `(name, value)` pairs, for absorption into a
    /// [`brel_obs::MetricsRegistry`].
    pub fn metrics(&self) -> [(&'static str, u64); 11] {
        [
            ("explored", self.explored as u64),
            ("splits", self.splits as u64),
            ("pruned_by_cost", self.pruned_by_cost as u64),
            ("pruned_dominated", self.pruned_dominated as u64),
            ("skipped_by_symmetry", self.skipped_by_symmetry as u64),
            ("dropped_by_fifo", self.dropped_by_fifo as u64),
            ("improvements", self.improvements as u64),
            ("complete", u64::from(self.complete)),
            ("frontier_peak", self.frontier_peak as u64),
            ("peak_live_nodes", self.peak_live_nodes),
            ("gc_collections", self.gc_collections),
        ]
    }
}

/// The result of a solver run: the best compatible function found, its cost
/// and the exploration statistics.
#[derive(Debug, Clone)]
pub struct Solution {
    /// The best compatible multiple-output function found.
    pub function: MultiOutputFunction,
    /// Its cost under the configured cost function.
    pub cost: u64,
    /// Exploration statistics.
    pub stats: SolveStats,
}

/// The recursive branch-and-bound Boolean-relation solver.
#[derive(Debug, Default)]
pub struct BrelSolver {
    config: BrelConfig,
}

impl BrelSolver {
    /// Creates a solver with the given configuration.
    pub fn new(config: BrelConfig) -> Self {
        BrelSolver { config }
    }

    /// The configuration of this solver.
    pub fn config(&self) -> &BrelConfig {
        &self.config
    }

    /// Solves the relation: returns the best compatible multiple-output
    /// function found within the configured budgets, exploring with the
    /// configured [`SearchStrategy`]. Exactly [`Explorer::new`],
    /// [`Explorer::run`] and [`Explorer::into_solution`] — step an
    /// explorer directly for anytime (pause/resume) operation.
    ///
    /// # Errors
    ///
    /// Returns [`RelationError::NotWellDefined`] if the relation is not well
    /// defined (no compatible function exists).
    pub fn solve(&self, relation: &BooleanRelation) -> Result<Solution, RelationError> {
        let mut explorer = Explorer::new(self.config.clone(), relation)?;
        explorer.run()?;
        Ok(explorer.into_solution())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostFunction;
    use crate::quick::QuickSolver;
    use brel_relation::RelationSpace;

    fn fig1(space: &RelationSpace) -> BooleanRelation {
        BooleanRelation::from_table(space, "00:{00}\n01:{00}\n10:{00,11}\n11:{10,11}").unwrap()
    }

    #[test]
    fn solves_fig1_with_a_compatible_function() {
        let space = RelationSpace::new(2, 2);
        let r = fig1(&space);
        let sol = BrelSolver::new(BrelConfig::default()).solve(&r).unwrap();
        assert!(r.is_compatible(&sol.function));
        assert!(sol.stats.explored >= 1);
        assert_eq!(sol.cost, CostFn::SumBddSize.cost(&sol.function));
    }

    #[test]
    fn rejects_ill_defined_relation() {
        let space = RelationSpace::new(1, 1);
        let r = BooleanRelation::from_table(&space, "1 : {1}").unwrap();
        assert!(matches!(
            BrelSolver::default().solve(&r),
            Err(RelationError::NotWellDefined)
        ));
    }

    #[test]
    fn exact_mode_finds_the_optimum_on_fig10() {
        // Fig. 10 / Section 9.1: the best solution is (x ⇔ b)(y ⇔ a) with
        // two single-literal outputs, while the quick initial solution is the
        // unbalanced (x ⇔ 1)(y ⇔ ab + a'b'). BREL in exact mode must escape
        // that local minimum and find the cost-2 solution.
        let space = RelationSpace::with_names(&["a", "b"], &["x", "y"]);
        let r = BooleanRelation::from_table(
            &space,
            "00 : {00, 11}\n01 : {10}\n10 : {01, 10}\n11 : {11}",
        )
        .unwrap();
        let sol = BrelSolver::new(BrelConfig::exact()).solve(&r).unwrap();
        assert!(r.is_compatible(&sol.function));
        assert_eq!(sol.cost, 2, "both outputs should be single literals");
        assert!(sol.stats.complete);
        assert_eq!(sol.function.output(0), &space.input(1), "x ⇔ b");
        assert_eq!(sol.function.output(1), &space.input(0), "y ⇔ a");
    }

    #[test]
    fn fig7_example_is_solved_with_one_split() {
        // Fig. 7: R(a, b, c; x, y); the first MISF minimization conflicts on
        // vertices 010 and 101 and one split resolves it.
        let space = RelationSpace::with_names(&["a", "b", "c"], &["x", "y"]);
        let r = BooleanRelation::from_table(
            &space,
            "000 : {00, 10}\n001 : {01, 10}\n010 : {01, 10}\n011 : {11}\n100 : {00, 10}\n101 : {01, 10}\n110 : {11}\n111 : {01, 11}",
        )
        .unwrap();
        let sol = BrelSolver::new(BrelConfig::exact()).solve(&r).unwrap();
        assert!(r.is_compatible(&sol.function));
        assert!(sol.stats.splits >= 1);
    }

    #[test]
    fn budget_of_one_still_returns_a_solution() {
        let space = RelationSpace::new(2, 2);
        let r = fig1(&space);
        let config = BrelConfig::default().with_max_explored(Some(1));
        let sol = BrelSolver::new(config).solve(&r).unwrap();
        assert!(r.is_compatible(&sol.function));
    }

    #[test]
    fn symmetry_pruning_reduces_exploration() {
        // A relation with two fully symmetric outputs.
        let space = RelationSpace::with_names(&["a", "b"], &["x", "y"]);
        let r = BooleanRelation::from_table(
            &space,
            "00 : {01, 10}\n01 : {01, 10}\n10 : {01, 10}\n11 : {11}",
        )
        .unwrap();
        let without = BrelSolver::new(BrelConfig::exact().with_symmetry(false))
            .solve(&r)
            .unwrap();
        let with = BrelSolver::new(BrelConfig::exact().with_symmetry(true))
            .solve(&r)
            .unwrap();
        assert!(r.is_compatible(&without.function));
        assert!(r.is_compatible(&with.function));
        assert_eq!(
            without.cost, with.cost,
            "symmetry pruning must not change quality"
        );
        assert!(with.stats.explored <= without.stats.explored);
    }

    #[test]
    fn functional_relation_short_circuits() {
        let space = RelationSpace::new(2, 1);
        let a = space.input(0);
        let b = space.input(1);
        let f = MultiOutputFunction::new(&space, vec![a.iff(&b)]).unwrap();
        let r = BooleanRelation::from_function(&f);
        let sol = BrelSolver::default().solve(&r).unwrap();
        assert_eq!(sol.function.output(0), f.output(0));
        assert_eq!(sol.stats.splits, 0);
    }

    #[test]
    fn custom_cost_function_is_respected() {
        let space = RelationSpace::new(2, 2);
        let r = fig1(&space);
        let config = BrelConfig::exact().with_cost(CostFn::LiteralCount);
        let sol = BrelSolver::new(config).solve(&r).unwrap();
        assert!(r.is_compatible(&sol.function));
        assert_eq!(sol.cost, CostFn::LiteralCount.cost(&sol.function));
    }

    #[test]
    fn config_builders_compose_and_clone() {
        use crate::minimize_isf::MinimizerKind;
        let mut config = BrelConfig::default()
            .with_minimizer(IsfMinimizer::without_elimination(MinimizerKind::Restrict))
            .with_strategy(SearchStrategy::Dfs)
            .with_fifo_capacity(Some(5))
            .with_symmetry(true)
            .with_max_explored(Some(3));
        config.symmetry_depth = 2;
        let clone = config.clone();
        assert_eq!(clone.minimizer, config.minimizer);
        assert_eq!(clone.strategy, SearchStrategy::Dfs);
        assert_eq!(clone.fifo_capacity, Some(5));
        assert!(clone.use_symmetry);
        assert_eq!(clone.symmetry_depth, 2);
        assert_eq!(clone.max_explored, Some(3));
        // The clone is a working configuration, not just a field copy.
        let space = RelationSpace::new(2, 2);
        let r = fig1(&space);
        let sol = BrelSolver::new(clone).solve(&r).unwrap();
        assert!(r.is_compatible(&sol.function));
    }

    #[test]
    fn ill_conditioned_relations_never_hit_the_no_split_point_fallback() {
        // Regression for the old silent "no valid split point (should not
        // happen)" fallback, now the structured RelationError::NoSplitPoint.
        // These relations mix fully determined vertices (singleton images)
        // with conflicting flexible ones, so the largest-conflict-cube
        // completion of §7.4 can land on vertices where most outputs have no
        // flexibility — the scenario the fallback guarded. Provably (see
        // `search::expand`) a conflicting vertex always has one flexible
        // output, so exact-mode solves must complete without the error on
        // every strategy.
        let tables: [(&str, usize, usize); 3] = [
            (
                "000:{00}\n001:{11}\n010:{01,10}\n011:{10}\n100:{00,11}\n101:{01}\n110:{01,10}\n111:{11}",
                3,
                2,
            ),
            // Only one vertex carries all the flexibility.
            (
                "00:{10}\n01:{01}\n10:{00,01,10,11}\n11:{11}",
                2,
                2,
            ),
            // Flexibility concentrated on one output bit.
            (
                "000:{01}\n001:{01,11}\n010:{01}\n011:{01,11}\n100:{11}\n101:{01,11}\n110:{11}\n111:{01,11}",
                3,
                2,
            ),
        ];
        for (table, ni, no) in tables {
            let space = RelationSpace::new(ni, no);
            let r = BooleanRelation::from_table(&space, table).unwrap();
            for strategy in SearchStrategy::all() {
                let sol = BrelSolver::new(BrelConfig::exact().with_strategy(strategy))
                    .solve(&r)
                    .unwrap_or_else(|e| panic!("{strategy} failed on {table:?}: {e}"));
                assert!(r.is_compatible(&sol.function));
                assert!(sol.stats.complete);
            }
        }
    }

    #[test]
    fn step_deadline_truncates_with_the_incumbent_kept() {
        use crate::search::{Explorer, StepOutcome};
        let space = RelationSpace::with_names(&["a", "b"], &["x", "y"]);
        let r = BooleanRelation::from_table(
            &space,
            "00 : {00, 11}\n01 : {10}\n10 : {01, 10}\n11 : {11}",
        )
        .unwrap();
        // Deadline of 1: the quick seed is available, but exploration stops
        // before the cost-2 optimum can be proved.
        let config = BrelConfig::exact().with_step_deadline(Some(1));
        let mut explorer = Explorer::new(config, &r).unwrap();
        assert_eq!(explorer.run().unwrap(), StepOutcome::DeadlineExpired);
        assert_eq!(explorer.explored(), 1);
        assert!(r.is_compatible(explorer.best()));
        assert!(!explorer.stats().complete);
        // A further step keeps reporting the expired deadline.
        assert!(matches!(
            explorer.step().unwrap(),
            StepOutcome::DeadlineExpired
        ));
        // Without the deadline the same exploration completes at cost 2.
        let sol = BrelSolver::new(BrelConfig::exact()).solve(&r).unwrap();
        assert_eq!(sol.cost, 2);
    }

    #[test]
    fn step_guarded_surfaces_a_governor_abort_as_an_error() {
        use crate::search::Explorer;
        use brel_bdd::{BddError, ResourceGovernor};
        use brel_relation::RelationError;
        let space = RelationSpace::new(4, 3);
        // A relation with enough structure that exploration allocates.
        let mut table = String::new();
        for v in 0..16u32 {
            let bits: String = (0..4)
                .map(|i| char::from(b'0' + ((v >> (3 - i)) & 1) as u8))
                .collect();
            let img = if v % 3 == 0 {
                "{000, 111}"
            } else {
                "{010, 101}"
            };
            table.push_str(&format!("{bits} : {img}\n"));
        }
        let r = BooleanRelation::from_table(&space, &table).unwrap();
        let mut explorer = Explorer::new(BrelConfig::exact(), &r).unwrap();
        // An impossible quota: the very next allocating step must abort.
        space
            .mgr()
            .set_governor(ResourceGovernor::new().with_max_live_nodes(1));
        let mut aborted = false;
        for _ in 0..64 {
            match explorer.step_guarded() {
                Ok(_) => continue,
                Err(RelationError::ResourceExhausted(BddError::QuotaExceeded { .. })) => {
                    aborted = true;
                    break;
                }
                Err(other) => panic!("unexpected error: {other}"),
            }
        }
        assert!(aborted, "a one-node quota must abort the exploration");
        space.mgr().clear_governor();
        // The shared manager is structurally intact after the abort.
        assert!(r.is_well_defined());
    }

    #[test]
    fn brel_strictly_beats_the_quick_solver_on_fig10() {
        let space = RelationSpace::with_names(&["a", "b"], &["x", "y"]);
        let r = BooleanRelation::from_table(
            &space,
            "00 : {00, 11}\n01 : {10}\n10 : {01, 10}\n11 : {11}",
        )
        .unwrap();
        let quick = QuickSolver::new().solve(&r).unwrap();
        let quick_cost = CostFn::SumBddSize.cost(&quick);
        let sol = BrelSolver::new(BrelConfig::exact()).solve(&r).unwrap();
        assert!(
            sol.cost < quick_cost,
            "the branch-and-bound must escape the quick solver's local minimum"
        );
    }
}
