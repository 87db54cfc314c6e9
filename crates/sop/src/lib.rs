//! # brel-sop
//!
//! Two-level (sum-of-products) logic layer used throughout the BREL
//! reproduction:
//!
//! * [`Cube`] — a product term in positional-cube notation,
//! * [`Cover`] — a set of cubes denoting their disjunction,
//! * [`MultiCover`] — a multiple-output cover (one output column per cube),
//! * ESPRESSO-style operations (`expand`, `reduce`, `irredundant`) against
//!   an incompletely specified function given by BDD on/dc sets
//!   ([`minimize`]).
//!
//! The paper's quality metrics `CB` (cubes) and `LIT` (literals) of Table 2
//! are computed on these covers; the gyocro baseline (`brel-gyocro`)
//! performs its reduce–expand–irredundant loop on [`MultiCover`]s.
//!
//! ```
//! use brel_sop::{Cube, Cover};
//!
//! // f = a·b' + c  over three variables
//! let cover = Cover::from_cubes(3, vec![
//!     Cube::parse("10-").unwrap(),
//!     Cube::parse("--1").unwrap(),
//! ]).unwrap();
//! assert_eq!(cover.num_cubes(), 2);
//! assert_eq!(cover.num_literals(), 3);
//! assert!(cover.eval(&[true, false, false]));
//! assert!(!cover.eval(&[false, true, false]));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod cover;
mod cube;
pub mod minimize;
mod multi;

pub use cover::Cover;
pub use cube::{Cube, CubeValue, ParseCubeError};
pub use multi::MultiCover;

/// Errors produced by cover constructors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SopError {
    /// A cube has a different width than the cover it is inserted into.
    WidthMismatch {
        /// Width expected by the cover.
        expected: usize,
        /// Width of the offending cube.
        found: usize,
    },
}

impl std::fmt::Display for SopError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SopError::WidthMismatch { expected, found } => {
                write!(
                    f,
                    "cube width {found} does not match cover width {expected}"
                )
            }
        }
    }
}

impl std::error::Error for SopError {}
