//! Customizable cost functions.
//!
//! One of the distinguishing features of BREL over earlier heuristic solvers
//! (Herb, gyocro) is that the objective is a *parameter*: Section 7.3 of the
//! paper uses the sum of BDD sizes when optimizing area and the sum of
//! squared BDD sizes when optimizing delay (the squaring biases the search
//! towards balanced functions). Two-level metrics (cubes, literals) are also
//! provided for comparison with gyocro's objective.

use std::fmt;
use std::sync::Arc;

use brel_relation::MultiOutputFunction;

/// A cost function over candidate multiple-output functions. Lower is
/// better; the solver keeps the minimum-cost compatible function found.
pub trait CostFunction {
    /// Evaluates the cost of a candidate solution.
    fn cost(&self, f: &MultiOutputFunction) -> u64;

    /// A short human-readable name used in reports.
    fn name(&self) -> &str;
}

impl fmt::Debug for dyn CostFunction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "CostFunction({})", self.name())
    }
}

/// The built-in cost functions plus an escape hatch for user closures.
/// Clonable (custom closures are reference-counted), so configurations
/// that embed a `CostFn` can be cloned wholesale, and `Send + Sync`, so an
/// exploration can be committed from several threads.
#[derive(Clone, Default)]
pub enum CostFn {
    /// Sum of the BDD sizes of the outputs (area-oriented; the default).
    #[default]
    SumBddSize,
    /// Sum of the squared BDD sizes (delay-oriented: favours balanced
    /// outputs).
    SumSquaredBddSize,
    /// Shared BDD size of all outputs (counts shared logic once).
    SharedBddSize,
    /// Number of cubes of the ISOP covers (gyocro's primary objective).
    CubeCount,
    /// Number of literals of the ISOP covers.
    LiteralCount,
    /// A user-provided cost function.
    Custom {
        /// Display name.
        name: String,
        /// The cost closure (shared between clones).
        eval: Arc<dyn Fn(&MultiOutputFunction) -> u64 + Send + Sync>,
    },
}

impl fmt::Debug for CostFn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "CostFn({})", self.name())
    }
}

impl CostFn {
    /// Wraps a closure as a cost function.
    pub fn custom(
        name: impl Into<String>,
        eval: impl Fn(&MultiOutputFunction) -> u64 + Send + Sync + 'static,
    ) -> Self {
        CostFn::Custom {
            name: name.into(),
            eval: Arc::new(eval),
        }
    }
}

impl CostFunction for CostFn {
    fn cost(&self, f: &MultiOutputFunction) -> u64 {
        match self {
            CostFn::SumBddSize => f.sum_of_sizes() as u64,
            CostFn::SumSquaredBddSize => f.sum_of_squared_sizes() as u64,
            CostFn::SharedBddSize => f.shared_size() as u64,
            CostFn::CubeCount => f.num_cubes() as u64,
            CostFn::LiteralCount => f.num_literals() as u64,
            CostFn::Custom { eval, .. } => eval(f),
        }
    }

    fn name(&self) -> &str {
        match self {
            CostFn::SumBddSize => "sum-bdd-size",
            CostFn::SumSquaredBddSize => "sum-squared-bdd-size",
            CostFn::SharedBddSize => "shared-bdd-size",
            CostFn::CubeCount => "cube-count",
            CostFn::LiteralCount => "literal-count",
            CostFn::Custom { name, .. } => name,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use brel_relation::RelationSpace;

    fn sample() -> (RelationSpace, MultiOutputFunction) {
        let space = RelationSpace::new(3, 2);
        let a = space.input(0);
        let b = space.input(1);
        let c = space.input(2);
        let f0 = a.and(&b).or(&c);
        let f1 = a.clone();
        let f = MultiOutputFunction::new(&space, vec![f0, f1]).unwrap();
        (space, f)
    }

    #[test]
    fn builtin_costs_are_consistent() {
        let (_space, f) = sample();
        let sum = CostFn::SumBddSize.cost(&f);
        let sq = CostFn::SumSquaredBddSize.cost(&f);
        let shared = CostFn::SharedBddSize.cost(&f);
        assert_eq!(sum, (f.output(0).size() + f.output(1).size()) as u64);
        assert!(sq >= sum);
        assert!(shared <= sum);
        assert!(CostFn::CubeCount.cost(&f) >= 1);
        assert!(CostFn::LiteralCount.cost(&f) >= CostFn::CubeCount.cost(&f));
    }

    #[test]
    fn squared_cost_prefers_balanced_solutions() {
        let space = RelationSpace::new(4, 2);
        let a = space.input(0);
        let b = space.input(1);
        let c = space.input(2);
        let d = space.input(3);
        // Unbalanced: one big function, one trivial.
        let big = a.and(&b).or(&c.and(&d)).xor(&a.or(&d));
        let unbalanced = MultiOutputFunction::new(&space, vec![big, space.mgr().one()]).unwrap();
        // Balanced: two medium functions.
        let balanced = MultiOutputFunction::new(&space, vec![a.and(&b), c.and(&d)]).unwrap();
        let sq = CostFn::SumSquaredBddSize;
        let lin = CostFn::SumBddSize;
        // The squared metric penalizes the unbalanced pair relatively more.
        let ratio_sq = sq.cost(&unbalanced) as f64 / sq.cost(&balanced) as f64;
        let ratio_lin = lin.cost(&unbalanced) as f64 / lin.cost(&balanced) as f64;
        assert!(ratio_sq > ratio_lin);
    }

    #[test]
    fn custom_cost_function() {
        let (_space, f) = sample();
        let custom = CostFn::custom("support-size", |f| {
            f.outputs().iter().map(|g| g.support().len() as u64).sum()
        });
        assert_eq!(custom.name(), "support-size");
        assert_eq!(custom.cost(&f), 4);
        assert_eq!(format!("{custom:?}"), "CostFn(support-size)");
        // Clones share the closure and agree on every input.
        let cloned = custom.clone();
        assert_eq!(cloned.name(), custom.name());
        assert_eq!(cloned.cost(&f), custom.cost(&f));
    }

    #[test]
    fn default_is_sum_of_sizes() {
        let c = CostFn::default();
        assert_eq!(c.name(), "sum-bdd-size");
    }
}
