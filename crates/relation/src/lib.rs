//! # brel-relation
//!
//! The Boolean-relation domain of the BREL paper: Boolean relations
//! represented by BDD characteristic functions, incompletely specified
//! functions (ISF), multiple-output ISFs (MISF), multiple-output functions,
//! and the operations the solver is built from:
//!
//! * well-definedness and functionality tests (Definition 4.6),
//! * projection onto an output and the MISF over-approximation
//!   (Definitions 5.1 and 5.2, Properties 5.2 and 5.3),
//! * compatibility and the incompatibility set `Incomp(F, R) = F \ R`
//!   (Definition 5.3),
//! * the `Split` operation that partitions the compatible functions
//!   (Definition 5.4, Theorem 5.2),
//! * a tabular reader/writer using the same notation as the paper's
//!   examples,
//! * the packed pair words relations travel as outside the BDD, whose bit
//!   order only [`vertex`] knows.
//!
//! ```
//! use brel_relation::{RelationSpace, BooleanRelation};
//!
//! // The relation of Fig. 1a: 10 → {00, 11}, 11 → {10, 11}, others → single vertex.
//! let space = RelationSpace::new(2, 2);
//! let rel = BooleanRelation::from_table(
//!     &space,
//!     "00 : {00}\n01 : {00}\n10 : {00, 11}\n11 : {10, 11}",
//! ).unwrap();
//! assert!(rel.is_well_defined());
//! assert!(!rel.is_function());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod error;
mod function;
mod isf;
mod misf;
mod relation;
mod space;
mod table;
pub mod vertex;

pub use error::RelationError;
pub use function::MultiOutputFunction;
pub use isf::Isf;
pub use misf::Misf;
pub use relation::BooleanRelation;
pub use space::RelationSpace;
