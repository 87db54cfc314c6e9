//! Product terms in positional-cube notation.

use std::fmt;

use brel_bdd::{Bdd, BddSession, Var};

/// The value taken by one input variable inside a cube.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CubeValue {
    /// The variable appears complemented (`0`).
    Zero,
    /// The variable appears uncomplemented (`1`).
    One,
    /// The variable does not appear (`-`).
    DontCare,
}

impl CubeValue {
    fn to_char(self) -> char {
        match self {
            CubeValue::Zero => '0',
            CubeValue::One => '1',
            CubeValue::DontCare => '-',
        }
    }
}

/// Error returned by [`Cube::parse`] for malformed cube strings.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseCubeError {
    /// The offending character.
    pub found: char,
    /// Its position within the string.
    pub position: usize,
}

impl fmt::Display for ParseCubeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invalid cube character `{}` at position {}",
            self.found, self.position
        )
    }
}

impl std::error::Error for ParseCubeError {}

/// A product term (cube) over an ordered set of input variables.
///
/// The cube is stored positionally: entry `i` describes the literal of
/// variable `i`. A cube with no `0`/`1` entries is the constant-true
/// product.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Cube {
    values: Vec<CubeValue>,
}

impl Cube {
    /// The universal cube (all positions `-`) over `width` variables.
    pub fn universe(width: usize) -> Self {
        Cube {
            values: vec![CubeValue::DontCare; width],
        }
    }

    /// Builds a cube from explicit positional values.
    pub fn new(values: Vec<CubeValue>) -> Self {
        Cube { values }
    }

    /// Parses a cube from the usual `{0,1,-}` string notation.
    ///
    /// # Errors
    ///
    /// Returns [`ParseCubeError`] if the string contains any other character.
    pub fn parse(text: &str) -> Result<Self, ParseCubeError> {
        let mut values = Vec::with_capacity(text.len());
        for (position, ch) in text.chars().enumerate() {
            let v = match ch {
                '0' => CubeValue::Zero,
                '1' => CubeValue::One,
                '-' | '2' | 'x' | 'X' => CubeValue::DontCare,
                found => return Err(ParseCubeError { found, position }),
            };
            values.push(v);
        }
        Ok(Cube { values })
    }

    /// Number of input variables (the width of the cube).
    pub fn width(&self) -> usize {
        self.values.len()
    }

    /// The positional values.
    pub fn values(&self) -> &[CubeValue] {
        &self.values
    }

    /// Value of position `i`.
    pub fn value(&self, i: usize) -> CubeValue {
        self.values[i]
    }

    /// Sets the literal of variable `i`.
    pub fn set(&mut self, i: usize, value: CubeValue) {
        self.values[i] = value;
    }

    /// Number of literals (non-don't-care positions).
    pub fn num_literals(&self) -> usize {
        self.values
            .iter()
            .filter(|v| !matches!(v, CubeValue::DontCare))
            .count()
    }

    /// Returns `true` if the assignment is covered by the cube.
    pub fn eval(&self, assignment: &[bool]) -> bool {
        self.values.iter().enumerate().all(|(i, v)| match v {
            CubeValue::Zero => !assignment[i],
            CubeValue::One => assignment[i],
            CubeValue::DontCare => true,
        })
    }

    /// Returns `true` if `self` covers `other` (every minterm of `other` is
    /// a minterm of `self`).
    pub fn contains(&self, other: &Cube) -> bool {
        debug_assert_eq!(self.width(), other.width());
        self.values
            .iter()
            .zip(other.values.iter())
            .all(|(a, b)| match (a, b) {
                (CubeValue::DontCare, _) => true,
                (x, y) => x == y,
            })
    }

    /// Builds the BDD of the cube mapping position `i` to `vars[i]`.
    ///
    /// # Panics
    ///
    /// Panics if `vars` is shorter than the cube width.
    pub fn to_bdd_with_vars(&self, mgr: &BddSession, vars: &[Var]) -> Bdd {
        mgr.cube(&self.literals_with_vars(vars))
    }

    /// The cube's literals as `(variable, polarity)` pairs, mapping position
    /// `i` to `vars[i]`.
    ///
    /// # Panics
    ///
    /// Panics if `vars` is shorter than the cube width.
    pub(crate) fn literals_with_vars(&self, vars: &[Var]) -> Vec<(Var, bool)> {
        self.values
            .iter()
            .enumerate()
            .filter_map(|(i, v)| match v {
                CubeValue::Zero => Some((vars[i], false)),
                CubeValue::One => Some((vars[i], true)),
                CubeValue::DontCare => None,
            })
            .collect()
    }

    /// Renders the cube in `{0,1,-}` notation.
    pub fn to_text(&self) -> String {
        self.values.iter().map(|v| v.to_char()).collect()
    }
}

impl fmt::Display for Cube {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_text())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_and_display_round_trip() {
        let c = Cube::parse("10-1").unwrap();
        assert_eq!(c.to_text(), "10-1");
        assert_eq!(c.width(), 4);
        assert_eq!(c.num_literals(), 3);
        assert!(Cube::parse("10z").is_err());
        let err = Cube::parse("0*").unwrap_err();
        assert_eq!(err.position, 1);
    }

    #[test]
    fn eval_and_contains() {
        let c = Cube::parse("1-0").unwrap();
        assert!(c.eval(&[true, true, false]));
        assert!(c.eval(&[true, false, false]));
        assert!(!c.eval(&[false, true, false]));
        let m = Cube::parse("110").unwrap();
        assert!(c.contains(&m));
        assert!(!m.contains(&c));
        assert!(Cube::universe(3).contains(&c));
    }

    #[test]
    fn to_bdd_with_explicit_vars() {
        let mgr = BddSession::new(5);
        let c = Cube::parse("10").unwrap();
        let f = c.to_bdd_with_vars(&mgr, &[Var(3), Var(1)]);
        assert_eq!(f.support(), vec![Var(1), Var(3)]);
        assert!(f.eval(&[false, false, false, true, false]));
    }
}
