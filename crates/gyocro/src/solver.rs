//! The reduce–expand–irredundant relation minimizer.

use brel_bdd::Var;
use brel_core::QuickSolver;
use brel_relation::{BooleanRelation, MultiOutputFunction, RelationError};
use brel_sop::minimize::{reduce_expand_irredundant, Interval};
use brel_sop::{Cover, MultiCover};

/// How aggressively cubes are expanded.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExpandMode {
    /// Expand any number of literals per cube per pass (gyocro's behaviour).
    #[default]
    MultiLiteral,
    /// Expand at most one literal per cube per pass (Herb's test-pattern
    /// style expansion, which the paper notes restricts the search space).
    SingleLiteral,
}

/// Configuration of the baseline solver.
#[derive(Debug, Clone)]
pub struct GyocroConfig {
    /// Maximum number of full passes over the outputs.
    pub max_passes: usize,
    /// Maximum reduce–expand–irredundant iterations per output per pass.
    pub max_inner_iterations: usize,
    /// Expansion aggressiveness.
    pub expand_mode: ExpandMode,
}

impl Default for GyocroConfig {
    fn default() -> Self {
        GyocroConfig {
            max_passes: 10,
            max_inner_iterations: 5,
            expand_mode: ExpandMode::MultiLiteral,
        }
    }
}

impl GyocroConfig {
    /// A Herb-like configuration (single-literal expansion).
    pub fn herb() -> Self {
        GyocroConfig {
            expand_mode: ExpandMode::SingleLiteral,
            ..GyocroConfig::default()
        }
    }
}

/// The result of a baseline run.
#[derive(Debug, Clone)]
pub struct GyocroSolution {
    /// The final multiple-output function.
    pub function: MultiOutputFunction,
    /// Its two-level covers.
    pub cover: MultiCover,
    /// Number of full passes executed.
    pub passes: usize,
    /// `(cubes, literals)` cost of the initial quick solution.
    pub initial_cost: (usize, usize),
    /// `(cubes, literals)` cost of the final solution.
    pub final_cost: (usize, usize),
}

/// The gyocro-style reduce–expand–irredundant Boolean-relation minimizer.
#[derive(Debug, Clone, Default)]
pub struct GyocroSolver {
    config: GyocroConfig,
}

impl GyocroSolver {
    /// Creates a solver with the given configuration.
    pub fn new(config: GyocroConfig) -> Self {
        GyocroSolver { config }
    }

    /// The configuration of this solver.
    pub fn config(&self) -> &GyocroConfig {
        &self.config
    }

    /// Solves the relation.
    ///
    /// # Errors
    ///
    /// Returns [`RelationError::NotWellDefined`] if the relation is not well
    /// defined.
    pub fn solve(&self, relation: &BooleanRelation) -> Result<GyocroSolution, RelationError> {
        let space = relation.space().clone();
        let input_vars: Vec<Var> = space.input_vars().to_vec();
        let mgr = space.mgr().clone();

        // Initial solution: the quick solver (the same seeding gyocro uses).
        let initial = QuickSolver::new().solve(relation)?;
        let mut functions: Vec<_> = initial.outputs().to_vec();
        let mut covers: Vec<Cover> = initial.to_multicover().outputs().to_vec();
        let initial_cost = cost_of(&covers);

        let mut best_cost = initial_cost;
        let mut passes = 0usize;
        for _ in 0..self.config.max_passes {
            passes += 1;
            let mut improved = false;
            for i in 0..space.num_outputs() {
                // Flexibility of output i with every other output fixed.
                let mut constrained = relation.clone();
                for (j, f) in functions.iter().enumerate() {
                    if j != i {
                        constrained = constrained.constrain_output(j, f);
                    }
                }
                let isf = constrained.projection(i);
                let interval = Interval::new(isf.on().clone(), isf.dc());
                let mut cover = covers[i].clone();
                let iterations = match self.config.expand_mode {
                    ExpandMode::MultiLiteral => self.config.max_inner_iterations,
                    // Herb-style: a single reduce/expand/irredundant pass per
                    // output per outer pass.
                    ExpandMode::SingleLiteral => 1,
                };
                reduce_expand_irredundant(&mut cover, &interval, &mgr, &input_vars, iterations);
                // Keep the new cover only if it is still a valid
                // implementation and does not worsen this output.
                if interval.admits(&cover, &mgr, &input_vars) {
                    let old = (covers[i].num_cubes(), covers[i].num_literals());
                    let new = (cover.num_cubes(), cover.num_literals());
                    if new < old {
                        covers[i] = cover;
                        functions[i] = covers[i].to_bdd_with_vars(&mgr, &input_vars);
                        improved = true;
                    }
                }
            }
            let current = cost_of(&covers);
            if !improved || current >= best_cost {
                break;
            }
            best_cost = current;
        }

        let function = MultiOutputFunction::new(&space, functions)?;
        debug_assert!(relation.is_compatible(&function));
        let cover =
            MultiCover::from_outputs(covers).expect("covers share the relation's input width");
        let final_cost = cost_of(cover.outputs());
        Ok(GyocroSolution {
            function,
            cover,
            passes,
            initial_cost,
            final_cost,
        })
    }
}

fn cost_of(covers: &[Cover]) -> (usize, usize) {
    (
        covers.iter().map(Cover::num_cubes).sum(),
        covers.iter().map(Cover::num_literals).sum(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use brel_core::{BrelConfig, BrelSolver, CostFn, CostFunction};
    use brel_relation::RelationSpace;

    fn fig1(space: &RelationSpace) -> BooleanRelation {
        BooleanRelation::from_table(space, "00:{00}\n01:{00}\n10:{00,11}\n11:{10,11}").unwrap()
    }

    /// The local-minimum relation of Fig. 10 / Section 9.1.
    fn fig10(space: &RelationSpace) -> BooleanRelation {
        BooleanRelation::from_table(space, "00:{00,11}\n01:{10}\n10:{01,10}\n11:{11}").unwrap()
    }

    #[test]
    fn solution_is_compatible_with_the_relation() {
        let space = RelationSpace::new(2, 2);
        let r = fig1(&space);
        let sol = GyocroSolver::default().solve(&r).unwrap();
        assert!(r.is_compatible(&sol.function));
        assert!(sol.final_cost <= sol.initial_cost);
        assert!(sol.passes >= 1);
    }

    #[test]
    fn rejects_ill_defined_relations() {
        let space = RelationSpace::new(1, 1);
        let r = BooleanRelation::from_table(&space, "1 : {1}").unwrap();
        assert!(GyocroSolver::default().solve(&r).is_err());
    }

    #[test]
    fn herb_mode_also_returns_a_valid_solution() {
        let space = RelationSpace::new(2, 2);
        let r = fig1(&space);
        let sol = GyocroSolver::new(GyocroConfig::herb()).solve(&r).unwrap();
        assert!(r.is_compatible(&sol.function));
    }

    #[test]
    fn gets_trapped_in_the_fig10_local_minimum_where_brel_escapes() {
        // Section 9.1: starting from the quick solution (x ⇔ 1)(y ⇔ a xnor b)
        // the reduce–expand–irredundant loop cannot reach the optimum
        // (x ⇔ b)(y ⇔ a). BREL does.
        let space = RelationSpace::with_names(&["a", "b"], &["x", "y"]);
        let r = fig10(&space);
        let gyocro = GyocroSolver::default().solve(&r).unwrap();
        let brel = BrelSolver::new(BrelConfig::exact()).solve(&r).unwrap();
        assert!(r.is_compatible(&gyocro.function));
        assert!(r.is_compatible(&brel.function));
        let gyocro_cost = CostFn::SumBddSize.cost(&gyocro.function);
        assert!(
            brel.cost < gyocro_cost,
            "BREL ({}) must beat gyocro ({}) on the Fig. 10 relation",
            brel.cost,
            gyocro_cost
        );
        // gyocro's literal count also stays above BREL's.
        assert!(gyocro.final_cost.1 > brel.function.num_literals());
    }

    #[test]
    fn functional_relation_is_left_alone() {
        let space = RelationSpace::new(2, 1);
        let a = space.input(0);
        let b = space.input(1);
        let f = MultiOutputFunction::new(&space, vec![a.and(&b)]).unwrap();
        let r = BooleanRelation::from_function(&f);
        let sol = GyocroSolver::default().solve(&r).unwrap();
        assert_eq!(sol.function.output(0), f.output(0));
        assert_eq!(sol.final_cost, (1, 2));
    }
}
