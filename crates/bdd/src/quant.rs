//! Existential and universal quantification.
//!
//! The BREL solver quantifies output variables in two places: the
//! consistency check of Boolean-equation systems (`∃X 𝔼(X) = 1`, Section 8)
//! and the split-point selection, which abstracts the outputs away from the
//! conflict relation (`C = ∃Y Incomp`, Section 7.4).
//!
//! The quantified variable set is represented as a positive cube BDD, the
//! classical CUDD encoding: the recursion walks the function and the cube
//! together, so results are memoized *persistently* in the manager's
//! operation cache under `(f, cube)` keys, and the recursion stops as soon
//! as the cube is exhausted — a function node ordered below the deepest
//! quantified variable is returned as-is instead of being rebuilt.
//! Universal quantification is a direct dual recursion (conjunction at
//! quantified levels) rather than a double negation.

use crate::cache::OpTag;
use crate::manager::{BddManager, NodeId, Var};

impl BddManager {
    /// Builds the positive cube of a variable set (deduplicated and
    /// sorted, so the cube chain is canonical).
    pub(crate) fn positive_cube(&mut self, vars: &[Var]) -> NodeId {
        let mut vars: Vec<Var> = vars.to_vec();
        vars.sort_unstable();
        vars.dedup();
        let pairs: Vec<(Var, bool)> = vars.into_iter().map(|v| (v, true)).collect();
        self.polarity_cube(&pairs)
    }

    /// Existential quantification of a single variable:
    /// `∃v. f = f|v=0 + f|v=1`. The one-variable cube is the positive
    /// literal, so no variable list is built.
    pub fn exists(&mut self, f: NodeId, var: Var) -> NodeId {
        let cube = self.literal(var, true);
        self.exists_cube_rec(f, cube)
    }

    /// Universal quantification of a single variable:
    /// `∀v. f = f|v=0 · f|v=1`, over the same one-node cube as
    /// [`BddManager::exists`].
    pub fn forall(&mut self, f: NodeId, var: Var) -> NodeId {
        let cube = self.literal(var, true);
        self.forall_cube_rec(f, cube)
    }

    /// Existential quantification of a set of variables.
    pub fn exists_many(&mut self, f: NodeId, vars: &[Var]) -> NodeId {
        if vars.is_empty() {
            return f;
        }
        let cube = self.positive_cube(vars);
        self.exists_cube_rec(f, cube)
    }

    /// Universal quantification of a set of variables.
    pub fn forall_many(&mut self, f: NodeId, vars: &[Var]) -> NodeId {
        if vars.is_empty() {
            return f;
        }
        let cube = self.positive_cube(vars);
        self.forall_cube_rec(f, cube)
    }

    fn exists_cube_rec(&mut self, f: NodeId, cube: NodeId) -> NodeId {
        // Strip cube variables ordered above f's top: they cannot appear
        // anywhere in f's DAG, so quantifying them is the identity. The
        // cube collapsing to ONE is what bounds the recursion at the
        // deepest quantified variable.
        let cube = self.advance_cube(cube, self.level(f));
        if cube.is_one() {
            return f;
        }
        if let Some(r) = self.cache.lookup(OpTag::Exists, f.0, cube.0, 0) {
            return r;
        }
        let n = self.nodes[f.index()];
        let r = if n.var.0 == self.level(cube) {
            let rest = self.nodes[cube.index()].hi;
            let lo = self.exists_cube_rec(n.lo, rest);
            if lo.is_one() {
                // Early termination: the disjunction is already a tautology.
                NodeId::ONE
            } else {
                let hi = self.exists_cube_rec(n.hi, rest);
                self.or(lo, hi)
            }
        } else {
            let lo = self.exists_cube_rec(n.lo, cube);
            let hi = self.exists_cube_rec(n.hi, cube);
            self.mk(n.var, lo, hi)
        };
        self.cache.insert(OpTag::Exists, f.0, cube.0, 0, r);
        r
    }

    fn forall_cube_rec(&mut self, f: NodeId, cube: NodeId) -> NodeId {
        let cube = self.advance_cube(cube, self.level(f));
        if cube.is_one() {
            return f;
        }
        if let Some(r) = self.cache.lookup(OpTag::Forall, f.0, cube.0, 0) {
            return r;
        }
        let n = self.nodes[f.index()];
        let r = if n.var.0 == self.level(cube) {
            let rest = self.nodes[cube.index()].hi;
            let lo = self.forall_cube_rec(n.lo, rest);
            if lo.is_zero() {
                // Early termination: the conjunction is already empty.
                NodeId::ZERO
            } else {
                let hi = self.forall_cube_rec(n.hi, rest);
                self.and(lo, hi)
            }
        } else {
            let lo = self.forall_cube_rec(n.lo, cube);
            let hi = self.forall_cube_rec(n.hi, cube);
            self.mk(n.var, lo, hi)
        };
        self.cache.insert(OpTag::Forall, f.0, cube.0, 0, r);
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exists_single_variable() {
        let mut m = BddManager::new(3);
        let a = m.literal(Var(0), true);
        let b = m.literal(Var(1), true);
        let f = m.and(a, b);
        // ∃b. a·b = a
        assert_eq!(m.exists(f, Var(1)), a);
        // ∃a. a·b = b
        assert_eq!(m.exists(f, Var(0)), b);
        // quantifying a variable outside the support is a no-op
        assert_eq!(m.exists(f, Var(2)), f);
    }

    #[test]
    fn forall_single_variable() {
        let mut m = BddManager::new(2);
        let a = m.literal(Var(0), true);
        let b = m.literal(Var(1), true);
        let f = m.or(a, b);
        // ∀b. a+b = a
        assert_eq!(m.forall(f, Var(1)), a);
        let g = m.and(a, b);
        // ∀b. a·b = 0
        assert_eq!(m.forall(g, Var(1)), NodeId::ZERO);
    }

    #[test]
    fn exists_many_matches_iterated() {
        let mut m = BddManager::new(4);
        let a = m.literal(Var(0), true);
        let b = m.literal(Var(1), true);
        let c = m.literal(Var(2), true);
        let d = m.literal(Var(3), true);
        let t1 = m.and(a, b);
        let t2 = m.and(c, d);
        let f = m.xor(t1, t2);
        let via_set = m.exists_many(f, &[Var(1), Var(3)]);
        let step1 = m.exists(f, Var(1));
        let via_iter = m.exists(step1, Var(3));
        assert_eq!(via_set, via_iter);
    }

    #[test]
    fn exists_many_of_empty_set_and_duplicates() {
        let mut m = BddManager::new(3);
        let a = m.literal(Var(0), true);
        let b = m.literal(Var(1), true);
        let f = m.xor(a, b);
        assert_eq!(m.exists_many(f, &[]), f);
        assert_eq!(m.forall_many(f, &[]), f);
        // Duplicated variables quantify once.
        let dup = m.exists_many(f, &[Var(1), Var(1)]);
        let single = m.exists(f, Var(1));
        assert_eq!(dup, single);
    }

    #[test]
    fn quantifying_only_deep_missing_vars_is_identity() {
        // The depth-bound satellite: when every quantified variable is
        // ordered below the whole function, the result must be `f` itself
        // (same node), not a rebuilt copy.
        let mut m = BddManager::new(6);
        let a = m.literal(Var(0), true);
        let b = m.literal(Var(1), true);
        let f = m.xor(a, b);
        assert_eq!(m.exists_many(f, &[Var(4), Var(5)]), f);
        assert_eq!(m.forall_many(f, &[Var(4), Var(5)]), f);
    }

    #[test]
    fn duality_of_quantifiers() {
        let mut m = BddManager::new(3);
        let a = m.literal(Var(0), true);
        let b = m.literal(Var(1), true);
        let c = m.literal(Var(2), true);
        let t = m.and(a, b);
        let f = m.or(t, c);
        let vars = [Var(1), Var(2)];
        let forall = m.forall_many(f, &vars);
        let nf = m.not(f);
        let exists_not = m.exists_many(nf, &vars);
        let dual = m.not(exists_not);
        assert_eq!(forall, dual);
    }
}
