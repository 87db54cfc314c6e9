//! # brel-core
//!
//! The BREL solver: the recursive branch-and-bound algorithm for solving
//! Boolean relations described in "A Recursive Paradigm to Solve Boolean
//! Relations" (Baneres, Cortadella, Kishinevsky; DAC 2004 / IEEE TC 2009).
//!
//! The solver reduces the binate covering problem of solving a Boolean
//! relation to a sequence of unate problems: it over-approximates the
//! relation by a multiple-output ISF, minimizes each output independently,
//! and — when the minimized function conflicts with the relation — splits
//! the relation at a conflicting vertex and recurses on the two smaller
//! relations (Sections 5–7 of the paper).
//!
//! The crate provides:
//!
//! * [`QuickSolver`] — the naive output-by-output solver of Fig. 4, used to
//!   seed the branch-and-bound with a guaranteed compatible solution;
//! * [`BrelSolver`] — the recursive solver of Fig. 6 with the partial-BFS
//!   exploration, cost-based pruning and symmetry pruning of Section 7;
//! * the [`search`] core it is built on — one frontier ordered by the
//!   [`SearchStrategy`] ([`SearchStrategy::Fifo`]/[`SearchStrategy::Dfs`]/
//!   [`SearchStrategy::BestFirst`] with dominance pruning) and the
//!   incremental, anytime [`Explorer`] (pop/commit, one `step` at a
//!   time), which reports every transition once, as a `brel_obs` search
//!   event;
//! * customizable [`cost`] functions (sum of BDD sizes, sum of squares,
//!   cube/literal counts, arbitrary closures);
//! * the ISF minimization strategies compared in Table 1
//!   ([`IsfMinimizer`]);
//! * a Boolean-equation system front end ([`BooleanSystem`], Section 8).
//!
//! ```
//! use brel_relation::{BooleanRelation, RelationSpace};
//! use brel_core::{BrelSolver, BrelConfig};
//!
//! // The relation of Fig. 1a cannot be expressed with don't cares…
//! let space = RelationSpace::new(2, 2);
//! let r = BooleanRelation::from_table(
//!     &space,
//!     "00:{00}\n01:{00}\n10:{00,11}\n11:{10,11}",
//! ).unwrap();
//! // …but BREL finds a compatible multiple-output function.
//! let solution = BrelSolver::new(BrelConfig::default()).solve(&r).unwrap();
//! assert!(r.is_compatible(&solution.function));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cost;
mod equation;
mod minimize_isf;
mod quick;
pub mod search;
mod solver;
mod symmetry;

pub use cost::{CostFn, CostFunction};
pub use equation::{BooleanSystem, Equation, EquationOperator};
pub use minimize_isf::{IsfMinimizer, MinimizerKind};
pub use quick::QuickSolver;
pub use search::{
    expand, CancelToken, Expansion, Explorer, SearchStrategy, SplitExpansion, StepOutcome,
    Subproblem,
};
pub use solver::{BrelConfig, BrelSolver, Solution, SolveStats};
pub use symmetry::{input_support_mask, relation_fingerprint, SymmetryCache};
