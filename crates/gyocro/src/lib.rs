//! # brel-gyocro
//!
//! Baseline heuristic Boolean-relation minimizers in the
//! reduce–expand–irredundant tradition, reimplementing the approach of
//! gyocro (Watanabe & Brayton, "Heuristic Minimization of Multiple-Valued
//! Relations") and of Herb (Ghosh, Devadas, Newton) that the BREL paper
//! compares against in Section 9.
//!
//! The solver starts from the quick, output-ordered solution (Fig. 4 of the
//! BREL paper) and then repeatedly improves one output at a time: it
//! computes the flexibility that the relation still grants to that output
//! once all the other outputs are fixed, and runs an ESPRESSO-style
//! reduce–expand–irredundant pass on the output's two-level cover inside
//! that interval. The loop stops when a full pass over the outputs no
//! longer improves the `(cubes, literals)` cost. Each reduce, expand and
//! irredundant pass costs O(n) BDD ORs per output for a cover of `n` cubes
//! (see `brel_sop::minimize`).
//!
//! This is exactly the kind of local search whose weakness Section 9.1 of
//! the paper illustrates (Fig. 10): because every move keeps all but one
//! output fixed and only grows/shrinks existing cubes, the solver cannot
//! escape some local minima that BREL's divide-and-conquer exploration does
//! escape. The integration tests of the workspace reproduce that example.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod solver;

pub use solver::{ExpandMode, GyocroConfig, GyocroSolution, GyocroSolver};
