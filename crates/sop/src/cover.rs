//! Single-output covers: sets of cubes denoting their disjunction.

use std::fmt;

use brel_bdd::{Bdd, BddSession, IsopResult, Var};

use crate::cube::{Cube, CubeValue};
use crate::SopError;

/// A sum-of-products cover of a single-output function.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Cover {
    width: usize,
    cubes: Vec<Cube>,
}

impl Cover {
    /// The empty cover (constant false) over `width` inputs.
    pub fn empty(width: usize) -> Self {
        Cover {
            width,
            cubes: Vec::new(),
        }
    }

    /// Builds a cover from cubes.
    ///
    /// # Errors
    ///
    /// Returns [`SopError::WidthMismatch`] if any cube has a different width.
    pub fn from_cubes(width: usize, cubes: Vec<Cube>) -> Result<Self, SopError> {
        for c in &cubes {
            if c.width() != width {
                return Err(SopError::WidthMismatch {
                    expected: width,
                    found: c.width(),
                });
            }
        }
        Ok(Cover { width, cubes })
    }

    /// Converts the result of BDD-based ISOP generation into a cover.
    ///
    /// `vars[i]` gives the BDD variable corresponding to cover position `i`;
    /// literals of variables not listed in `vars` are rejected.
    ///
    /// # Panics
    ///
    /// Panics if the ISOP mentions a variable not present in `vars`.
    pub fn from_isop(isop: &IsopResult, vars: &[Var]) -> Self {
        let width = vars.len();
        let pos_of = |v: Var| -> usize {
            vars.iter()
                .position(|&x| x == v)
                .expect("ISOP literal refers to a variable outside the cover support")
        };
        let cubes = isop
            .cubes
            .iter()
            .map(|c| {
                let mut cube = Cube::universe(width);
                for &(v, positive) in c.literals() {
                    cube.set(
                        pos_of(v),
                        if positive {
                            CubeValue::One
                        } else {
                            CubeValue::Zero
                        },
                    );
                }
                cube
            })
            .collect();
        Cover { width, cubes }
    }

    /// Number of input variables.
    pub fn width(&self) -> usize {
        self.width
    }

    /// The cubes of the cover.
    pub fn cubes(&self) -> &[Cube] {
        &self.cubes
    }

    /// Number of cubes (the paper's `CB` metric).
    pub fn num_cubes(&self) -> usize {
        self.cubes.len()
    }

    /// Total number of literals (the paper's `LIT` metric).
    pub fn num_literals(&self) -> usize {
        self.cubes.iter().map(Cube::num_literals).sum()
    }

    /// Returns `true` if the cover has no cubes (constant false).
    pub fn is_empty(&self) -> bool {
        self.cubes.is_empty()
    }

    /// Adds a cube.
    ///
    /// # Errors
    ///
    /// Returns [`SopError::WidthMismatch`] on width disagreement.
    pub fn push(&mut self, cube: Cube) -> Result<(), SopError> {
        if cube.width() != self.width {
            return Err(SopError::WidthMismatch {
                expected: self.width,
                found: cube.width(),
            });
        }
        self.cubes.push(cube);
        Ok(())
    }

    /// Evaluates the cover on a complete assignment.
    pub fn eval(&self, assignment: &[bool]) -> bool {
        self.cubes.iter().any(|c| c.eval(assignment))
    }

    /// Builds the BDD of the cover using manager variables `0..width`.
    #[cfg(test)]
    pub(crate) fn to_bdd(&self, mgr: &BddSession) -> Bdd {
        let vars: Vec<Var> = (0..self.width).map(Var::from).collect();
        self.to_bdd_with_vars(mgr, &vars)
    }

    /// Builds the BDD of the cover mapping position `i` to `vars[i]`.
    pub fn to_bdd_with_vars(&self, mgr: &BddSession, vars: &[Var]) -> Bdd {
        let mut acc = mgr.zero();
        for c in &self.cubes {
            acc = acc.or(&c.to_bdd_with_vars(mgr, vars));
        }
        acc
    }

    /// Removes cubes that are single-cube contained in another cube of the
    /// cover (a cheap, always-safe simplification).
    pub fn remove_contained_cubes(&mut self) {
        let mut keep = vec![true; self.cubes.len()];
        for i in 0..self.cubes.len() {
            if !keep[i] {
                continue;
            }
            for j in 0..self.cubes.len() {
                if i == j || !keep[j] {
                    continue;
                }
                if self.cubes[j].contains(&self.cubes[i])
                    && (self.cubes[i] != self.cubes[j] || i > j)
                {
                    keep[i] = false;
                    break;
                }
            }
        }
        let mut idx = 0;
        self.cubes.retain(|_| {
            let k = keep[idx];
            idx += 1;
            k
        });
    }

    /// Cofactor of the cover with respect to `var = value` (positionally).
    pub fn cofactor(&self, var: usize, value: bool) -> Cover {
        let mut cubes = Vec::new();
        for c in &self.cubes {
            match (c.value(var), value) {
                (CubeValue::Zero, true) | (CubeValue::One, false) => continue,
                _ => {
                    let mut nc = c.clone();
                    nc.set(var, CubeValue::DontCare);
                    cubes.push(nc);
                }
            }
        }
        Cover {
            width: self.width,
            cubes,
        }
    }

    /// Tautology check by unate reduction / Shannon expansion.
    pub fn is_tautology(&self) -> bool {
        // Fast exits.
        if self.cubes.iter().any(|c| c.num_literals() == 0) {
            return true;
        }
        if self.cubes.is_empty() {
            return false;
        }
        // Pick the most-binate variable for the expansion.
        let mut best_var = None;
        let mut best_score = 0usize;
        for v in 0..self.width {
            let ones = self
                .cubes
                .iter()
                .filter(|c| c.value(v) == CubeValue::One)
                .count();
            let zeros = self
                .cubes
                .iter()
                .filter(|c| c.value(v) == CubeValue::Zero)
                .count();
            if ones + zeros == 0 {
                continue;
            }
            let score = ones.min(zeros) * 1000 + ones + zeros;
            if score >= best_score {
                best_score = score;
                best_var = Some(v);
            }
        }
        let Some(v) = best_var else {
            // No literals anywhere — handled above, but be safe.
            return !self.cubes.is_empty();
        };
        self.cofactor(v, false).is_tautology() && self.cofactor(v, true).is_tautology()
    }
}

impl fmt::Display for Cover {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for c in &self.cubes {
            writeln!(f, "{c}")?;
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
    fn literal_and_cube_counts() {
        let c = cover(3, &["10-", "--1"]);
        assert_eq!(c.num_cubes(), 2);
        assert_eq!(c.num_literals(), 3);
        assert_eq!(c.width(), 3);
    }

    #[test]
    fn width_mismatch_is_rejected() {
        let err = Cover::from_cubes(3, vec![Cube::parse("10").unwrap()]).unwrap_err();
        assert!(matches!(
            err,
            SopError::WidthMismatch {
                expected: 3,
                found: 2
            }
        ));
        let mut c = Cover::empty(2);
        assert!(c.push(Cube::parse("111").unwrap()).is_err());
    }

    #[test]
    fn eval_and_bdd_agree() {
        let mgr = BddSession::new(3);
        let c = cover(3, &["1-0", "01-"]);
        let f = c.to_bdd(&mgr);
        for bits in 0..8u32 {
            let asg: Vec<bool> = (0..3).map(|i| bits & (1 << i) != 0).collect();
            assert_eq!(c.eval(&asg), f.eval(&asg));
        }
    }

    #[test]
    fn tautology_detection() {
        assert!(cover(3, &["---"]).is_tautology());
        assert!(!Cover::empty(3).is_tautology());
        // x + x' is a tautology
        let c = cover(1, &["0", "1"]);
        assert!(c.is_tautology());
        // a + a'b + a'b' is a tautology
        let c = cover(2, &["1-", "01", "00"]);
        assert!(c.is_tautology());
        // a + b is not
        let c = cover(2, &["1-", "-1"]);
        assert!(!c.is_tautology());
    }

    #[test]
    fn containment_removal() {
        let mut c = cover(3, &["1--", "110", "0-1"]);
        c.remove_contained_cubes();
        assert_eq!(c.num_cubes(), 2);
        assert!(c.cubes().iter().any(|x| x.to_text() == "1--"));
        assert!(c.cubes().iter().all(|x| x.to_text() != "110"));
    }

    #[test]
    fn duplicate_cubes_removed_once() {
        let mut c = cover(2, &["1-", "1-"]);
        c.remove_contained_cubes();
        assert_eq!(c.num_cubes(), 1);
    }

    #[test]
    fn cofactor_matches_semantics() {
        let mgr = BddSession::new(3);
        let c = cover(3, &["11-", "0-1"]);
        let f = c.to_bdd(&mgr);
        let c0 = c.cofactor(0, false);
        let f0 = f.cofactor(Var(0), false);
        assert_eq!(c0.to_bdd(&mgr), f0);
        let c1 = c.cofactor(0, true);
        let f1 = f.cofactor(Var(0), true);
        assert_eq!(c1.to_bdd(&mgr), f1);
    }

    #[test]
    fn from_isop_round_trip() {
        let mgr = BddSession::new(4);
        let a = mgr.var(0);
        let b = mgr.var(1);
        let c = mgr.var(2);
        let d = mgr.var(3);
        let f = a.and(&b).or(&c.and(&d.complement()));
        let isop = f.isop();
        let cover = Cover::from_isop(&isop, &[Var(0), Var(1), Var(2), Var(3)]);
        assert_eq!(cover.to_bdd(&mgr), f);
    }
}
