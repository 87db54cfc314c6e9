//! Multiple-output covers.
//!
//! A [`MultiCover`] bundles one [`Cover`] per output over a shared input
//! space. It is the textual/counting representation of the multiple-output
//! functions returned by the BR solvers, and the unit of comparison of
//! Table 2 (`CB` counts distinct input cubes, `LIT` counts input literals).

use std::fmt;

use crate::cover::Cover;
use crate::cube::Cube;
use crate::SopError;

/// A multiple-output sum-of-products cover.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MultiCover {
    num_inputs: usize,
    outputs: Vec<Cover>,
}

impl MultiCover {
    /// Creates a cover with `num_outputs` empty outputs over `num_inputs`
    /// variables.
    pub fn new(num_inputs: usize, num_outputs: usize) -> Self {
        MultiCover {
            num_inputs,
            outputs: vec![Cover::empty(num_inputs); num_outputs],
        }
    }

    /// Builds a multi-output cover from per-output covers.
    ///
    /// # Errors
    ///
    /// Returns [`SopError::WidthMismatch`] if the covers disagree on the
    /// number of inputs.
    pub fn from_outputs(outputs: Vec<Cover>) -> Result<Self, SopError> {
        let num_inputs = outputs.first().map(Cover::width).unwrap_or(0);
        for c in &outputs {
            if c.width() != num_inputs {
                return Err(SopError::WidthMismatch {
                    expected: num_inputs,
                    found: c.width(),
                });
            }
        }
        Ok(MultiCover {
            num_inputs,
            outputs,
        })
    }

    /// Number of input variables.
    pub fn num_inputs(&self) -> usize {
        self.num_inputs
    }

    /// Number of outputs.
    pub fn num_outputs(&self) -> usize {
        self.outputs.len()
    }

    /// The cover of output `i`.
    pub fn output(&self, i: usize) -> &Cover {
        &self.outputs[i]
    }

    /// All output covers.
    pub fn outputs(&self) -> &[Cover] {
        &self.outputs
    }

    /// Number of *distinct* input cubes used across all outputs — the
    /// multiple-output product-term count used as `CB` in Table 2.
    pub fn num_cubes(&self) -> usize {
        let mut seen: Vec<&Cube> = Vec::new();
        for cover in &self.outputs {
            for cube in cover.cubes() {
                if !seen.contains(&cube) {
                    seen.push(cube);
                }
            }
        }
        seen.len()
    }

    /// Total number of input literals summed over all outputs (`LIT`).
    pub fn num_literals(&self) -> usize {
        self.outputs.iter().map(Cover::num_literals).sum()
    }

    /// Evaluates every output on the assignment.
    pub fn eval(&self, assignment: &[bool]) -> Vec<bool> {
        self.outputs.iter().map(|c| c.eval(assignment)).collect()
    }
}

impl fmt::Display for MultiCover {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, c) in self.outputs.iter().enumerate() {
            writeln!(f, "# output {i}")?;
            write!(f, "{c}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cover(width: usize, rows: &[&str]) -> Cover {
        Cover::from_cubes(
            width,
            rows.iter().map(|r| Cube::parse(r).unwrap()).collect(),
        )
        .unwrap()
    }

    #[test]
    fn counts_share_identical_cubes() {
        let mc =
            MultiCover::from_outputs(vec![cover(2, &["1-", "01"]), cover(2, &["1-"])]).unwrap();
        assert_eq!(mc.num_inputs(), 2);
        assert_eq!(mc.num_outputs(), 2);
        // "1-" is shared between the outputs, so only two distinct cubes.
        assert_eq!(mc.num_cubes(), 2);
        assert_eq!(mc.num_literals(), 4);
    }

    #[test]
    fn eval_per_output() {
        let mc = MultiCover::from_outputs(vec![cover(2, &["1-"]), cover(2, &["-0"])]).unwrap();
        assert_eq!(mc.eval(&[true, true]), vec![true, false]);
        assert_eq!(mc.eval(&[false, false]), vec![false, true]);
    }

    #[test]
    fn mismatched_inputs_rejected() {
        let err =
            MultiCover::from_outputs(vec![cover(2, &["1-"]), cover(3, &["1--"])]).unwrap_err();
        assert!(matches!(err, SopError::WidthMismatch { .. }));
    }
}
