//! Solving systems of Boolean equations through Boolean relations
//! (Section 8 of the paper).
//!
//! A Boolean equation `P(X, Y) ⊙ Q(X, Y)` (with `⊙` either `=` or `⊆`)
//! over independent variables `X` and dependent variables `Y` is first
//! rewritten into the form `T(X, Y) = 1` (Property 8.1); a system of such
//! equations is reduced to a single characteristic equation
//! `𝔼 = ⋀ᵢ Tᵢ` (Theorem 8.1). The characteristic function is a Boolean
//! relation; if it is well defined (consistent, Property 8.2) any of the
//! relation solvers produces a particular solution `Y(X)`.

use brel_bdd::Bdd;
use brel_relation::{BooleanRelation, MultiOutputFunction, RelationError, RelationSpace};

use crate::solver::{BrelConfig, BrelSolver, Solution};

/// The comparison operator of a Boolean equation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EquationOperator {
    /// `P = Q` (equivalence).
    Equal,
    /// `P ⊆ Q` (inclusion: `P → Q` must be a tautology).
    Subset,
}

/// One Boolean equation `P ⊙ Q` over the variables of a [`RelationSpace`]
/// (independent variables = inputs, dependent variables = outputs).
#[derive(Debug, Clone)]
pub struct Equation {
    /// Left-hand side.
    pub lhs: Bdd,
    /// The comparison operator.
    pub op: EquationOperator,
    /// Right-hand side.
    pub rhs: Bdd,
}

impl Equation {
    /// Builds an equality equation `lhs = rhs`.
    pub fn equal(lhs: Bdd, rhs: Bdd) -> Self {
        Equation {
            lhs,
            op: EquationOperator::Equal,
            rhs,
        }
    }

    /// Rewrites the equation to the `T = 1` form of Property 8.1:
    /// `P = Q  ⇔  (P ⊙ Q) = 1` with `T = P xnor Q`, and
    /// `P ⊆ Q  ⇔  (¬P + Q) = 1`.
    pub fn characteristic(&self) -> Bdd {
        match self.op {
            EquationOperator::Equal => self.lhs.iff(&self.rhs),
            EquationOperator::Subset => self.lhs.implies(&self.rhs),
        }
    }
}

/// A system of Boolean equations over a shared [`RelationSpace`].
#[derive(Debug)]
pub struct BooleanSystem {
    space: RelationSpace,
    equations: Vec<Equation>,
}

impl BooleanSystem {
    /// Creates an empty system over the given space (independent variables
    /// are the inputs, dependent variables the outputs).
    pub fn new(space: &RelationSpace) -> Self {
        BooleanSystem {
            space: space.clone(),
            equations: Vec::new(),
        }
    }

    /// Adds an equation to the system.
    pub fn push(&mut self, equation: Equation) -> &mut Self {
        self.equations.push(equation);
        self
    }

    /// The space of the system.
    pub fn space(&self) -> &RelationSpace {
        &self.space
    }

    /// The equations of the system.
    pub fn equations(&self) -> &[Equation] {
        &self.equations
    }

    /// Reduction of the system to a single characteristic function
    /// `𝔼(X, Y) = ⋀ᵢ Tᵢ(X, Y)` (Theorem 8.1). With no equations this is the
    /// tautology.
    pub fn characteristic(&self) -> Bdd {
        let mut acc = self.space.mgr().one();
        for eq in &self.equations {
            acc = acc.and(&eq.characteristic());
        }
        acc
    }

    /// The system seen as a Boolean relation between the independent and the
    /// dependent variables.
    pub fn to_relation(&self) -> BooleanRelation {
        BooleanRelation::from_characteristic(&self.space, self.characteristic())
    }

    /// Consistency check (Property 8.2): the system has a solution `Y(X)`
    /// iff for every assignment of the independent variables some assignment
    /// of the dependent variables satisfies `𝔼` — i.e. the associated
    /// relation is well defined.
    pub fn is_consistent(&self) -> bool {
        self.to_relation().is_well_defined()
    }

    /// Checks whether a multiple-output function is a particular solution of
    /// the system: substituting it must make `𝔼` a tautology.
    pub fn is_solution(&self, f: &MultiOutputFunction) -> bool {
        self.to_relation().is_compatible(f)
    }

    /// Finds an optimized particular solution with the BREL solver.
    ///
    /// # Errors
    ///
    /// Returns [`RelationError::Inconsistent`] if the system has no solution.
    pub fn solve(&self, config: BrelConfig) -> Result<Solution, RelationError> {
        if !self.is_consistent() {
            return Err(RelationError::Inconsistent);
        }
        BrelSolver::new(config).solve(&self.to_relation())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quick::QuickSolver;

    /// The system of Example 8.1 of the paper:
    /// independent {a, b}, dependent {x, y, z},
    ///   x + b·ȳ·z̄ + b·z = a
    ///   x·y + x·z + y·z = 0
    fn example81() -> (RelationSpace, BooleanSystem) {
        let space = RelationSpace::with_names(&["a", "b"], &["x", "y", "z"]);
        let a = space.input(0);
        let b = space.input(1);
        let x = space.output(0);
        let y = space.output(1);
        let z = space.output(2);
        let lhs1 = x
            .or(&b.and(&y.complement()).and(&z.complement()))
            .or(&b.and(&z));
        let rhs1 = a.clone();
        let lhs2 = x.and(&y).or(&x.and(&z)).or(&y.and(&z));
        let rhs2 = space.mgr().zero();
        let mut system = BooleanSystem::new(&space);
        system.push(Equation::equal(lhs1, rhs1));
        system.push(Equation::equal(lhs2, rhs2));
        (space, system)
    }

    #[test]
    fn example_81_is_consistent_and_solved() {
        let (space, system) = example81();
        assert!(system.is_consistent());
        let solution = QuickSolver::new().solve(&system.to_relation()).unwrap();
        assert!(system.is_solution(&solution));
        // Example 8.3's particular solution: x = a·b', y = a·b? …check the
        // paper's concrete witness x = ab̄, y = āb? Rather than fixing one
        // witness, verify the defining property on every input vertex.
        let chi = system.characteristic();
        for input in space.enumerate_inputs() {
            let out = solution.eval(&input).unwrap();
            let asg = space.full_assignment(&input, &out);
            assert!(
                chi.eval(&asg),
                "solution must satisfy the system at {input:?}"
            );
        }
    }

    #[test]
    fn example_83_witness_is_a_solution() {
        // The witness given in Example 8.3: x = a·b̄, y = a·b, z = a·b̄ + ā·b? —
        // the paper lists x = ab̄? Using the stated witness
        // x = a·b̄, y = a·b, z = ā·b + a·b̄ would not satisfy eq. 2 (x·z ≠ 0),
        // so we check the weaker and unambiguous statement: the relation
        // admits at least one compatible function and every compatible
        // function satisfies both equations.
        let (_space, system) = example81();
        let rel = system.to_relation();
        let f = QuickSolver::new().solve(&rel).unwrap();
        assert!(system.is_solution(&f));
        // Every pair admitted by the relation satisfies both equations.
        let chi = system.characteristic();
        assert_eq!(rel.characteristic(), &chi);
        let eq1 = system.equations()[0].characteristic();
        let eq2 = system.equations()[1].characteristic();
        assert!(chi.is_subset_of(&eq1));
        assert!(chi.is_subset_of(&eq2));
    }

    #[test]
    fn inconsistent_system_is_rejected() {
        let space = RelationSpace::with_names(&["a"], &["x"]);
        let a = space.input(0);
        let x = space.output(0);
        // x = a and x = ¬a cannot both hold.
        let mut system = BooleanSystem::new(&space);
        system.push(Equation::equal(x.clone(), a.clone()));
        system.push(Equation::equal(x, a.complement()));
        assert!(!system.is_consistent());
        assert!(matches!(
            system.solve(BrelConfig::default()),
            Err(RelationError::Inconsistent)
        ));
    }

    #[test]
    fn subset_equations() {
        let space = RelationSpace::with_names(&["a"], &["x"]);
        let a = space.input(0);
        let x = space.output(0);
        // a ⊆ x  (x must be 1 whenever a is 1)
        let mut system = BooleanSystem::new(&space);
        system.push(Equation {
            lhs: a.clone(),
            op: EquationOperator::Subset,
            rhs: x.clone(),
        });
        assert!(system.is_consistent());
        let f = QuickSolver::new().solve(&system.to_relation()).unwrap();
        // f(1) must be true.
        assert_eq!(f.eval(&[true]).unwrap(), vec![true]);
    }

    #[test]
    fn empty_system_admits_everything() {
        let space = RelationSpace::new(1, 1);
        let system = BooleanSystem::new(&space);
        assert!(system.is_consistent());
        assert!(system.characteristic().is_one());
        let sol = system.solve(BrelConfig::default()).unwrap();
        assert!(system.is_solution(&sol.function));
    }

    #[test]
    fn brel_solution_optimizes_cost() {
        let (_space, system) = example81();
        let quick = QuickSolver::new().solve(&system.to_relation()).unwrap();
        let brel = system.solve(BrelConfig::exact()).unwrap();
        let quick_cost = quick.sum_of_sizes() as u64;
        assert!(brel.cost <= quick_cost);
        assert!(system.is_solution(&brel.function));
    }
}
