//! Error type of the relation layer.

use std::fmt;

/// Errors produced by relation constructors and solvers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RelationError {
    /// The relation is not well defined (some input vertex has no related
    /// output vertex), so it has no compatible function.
    NotWellDefined,
    /// Vector lengths do not match the number of inputs/outputs of the space.
    DimensionMismatch {
        /// Expected length.
        expected: usize,
        /// Provided length.
        found: usize,
    },
    /// Two objects belong to different [`crate::RelationSpace`]s.
    SpaceMismatch,
    /// A textual description could not be parsed.
    Parse(String),
    /// A Boolean-equation system is inconsistent (has no solution).
    Inconsistent,
    /// An operation requires exhaustive enumeration but the space is too
    /// large for it.
    TooLarge {
        /// Number of variables requested.
        vars: usize,
        /// Supported maximum.
        limit: usize,
    },
    /// The branch-and-bound exploration found an incompatible candidate but
    /// no vertex/output pair satisfying Theorem 5.2 to split on. For a
    /// well-defined relation this is provably unreachable (every conflicting
    /// vertex has at least one output with `{0,1}` flexibility — a vertex
    /// whose image is a singleton forces the candidate through the
    /// projection interval and cannot conflict), so seeing this error means
    /// the relation or the candidate was corrupted mid-search.
    NoSplitPoint {
        /// Cost of the incompatible candidate that could not be split away.
        candidate_cost: u64,
    },
}

impl fmt::Display for RelationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RelationError::NotWellDefined => {
                write!(
                    f,
                    "relation is not well defined (an input vertex has no image)"
                )
            }
            RelationError::DimensionMismatch { expected, found } => {
                write!(f, "expected a vector of length {expected}, found {found}")
            }
            RelationError::SpaceMismatch => {
                write!(f, "objects belong to different relation spaces")
            }
            RelationError::Parse(msg) => write!(f, "parse error: {msg}"),
            RelationError::Inconsistent => write!(f, "boolean system is inconsistent"),
            RelationError::TooLarge { vars, limit } => {
                write!(
                    f,
                    "operation requires enumerating {vars} variables, limit is {limit}"
                )
            }
            RelationError::NoSplitPoint { candidate_cost } => {
                write!(
                    f,
                    "no valid split point for an incompatible candidate (cost {candidate_cost}); \
                     the relation was corrupted mid-search"
                )
            }
        }
    }
}

impl std::error::Error for RelationError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_split_point_displays_its_context() {
        let err = RelationError::NoSplitPoint { candidate_cost: 7 };
        let message = err.to_string();
        assert!(message.contains("no valid split point"));
        assert!(message.contains("cost 7"));
        assert_eq!(err, err.clone());
    }
}
