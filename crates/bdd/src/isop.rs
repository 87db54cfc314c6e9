//! Minato–Morreale irredundant sum-of-products (ISOP) generation.
//!
//! Given an incompletely specified function as an interval `[lower, upper]`
//! (in the paper's notation `[On, On ∪ Dc]`), the ISOP algorithm produces a
//! prime and irredundant cover whose function lies within the interval.
//! This is the default ISF minimizer of the BREL solver (Section 7.5) and
//! provides the cube/literal counts reported in Tables 1 and 2.
//!
//! The recursion is computed once, on functions only
//! ([`BddManager::isop_function`]), and memoized in the shared operation
//! cache under its own tag, as CUDD's `cuddBddIsop` does. The solver's ISF
//! minimizer reads nothing else. [`BddManager::isop`] derives the cubes by
//! walking the same recursion a second time: every step reads its three
//! sub-results back from the cache, so the walk only pays for the cubes it
//! emits. Unlike `ite` or quantification, an ISOP result depends on the
//! variable order; the order never changes (see [`crate::Var`]), so a
//! cached result stays valid until the next sweep.

use crate::cache::OpTag;
use crate::manager::{BddManager, NodeId, Var};

/// A cube produced by ISOP generation: a conjunction of literals, stored as
/// `(variable, polarity)` pairs sorted by variable.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct IsopCube {
    literals: Vec<(Var, bool)>,
}

impl IsopCube {
    /// Literals of the cube, sorted by variable.
    pub fn literals(&self) -> &[(Var, bool)] {
        &self.literals
    }

    /// Number of literals in the cube.
    pub fn num_literals(&self) -> usize {
        self.literals.len()
    }

    /// Evaluates the cube under a complete assignment indexed by variable.
    pub fn eval(&self, assignment: &[bool]) -> bool {
        self.literals
            .iter()
            .all(|&(v, pos)| assignment[v.index()] == pos)
    }
}

/// Result of ISOP generation: the cover and the BDD of the function it
/// realizes (which always lies inside the requested interval).
#[derive(Debug, Clone)]
pub struct IsopResult {
    /// The cubes of the cover.
    pub cubes: Vec<IsopCube>,
    /// BDD of the disjunction of the cubes.
    pub function: NodeId,
}

impl IsopResult {
    /// Number of cubes in the cover.
    pub fn num_cubes(&self) -> usize {
        self.cubes.len()
    }

    /// Total number of literals of the cover (the paper's `LIT` metric).
    pub fn num_literals(&self) -> usize {
        self.cubes.iter().map(IsopCube::num_literals).sum()
    }
}

/// One Minato–Morreale step on a non-terminal interval: the top variable
/// and the three sub-intervals, each with its (cached) ISOP function.
struct IsopStep {
    var: Var,
    /// `[l0 ∧ ¬u1, u0]`: minterms only the negative literal can cover.
    neg: (NodeId, NodeId),
    /// `[l1 ∧ ¬u0, u1]`: minterms only the positive literal can cover.
    pos: (NodeId, NodeId),
    /// `[(l0 ∧ ¬f0) ∨ (l1 ∧ ¬f1), u0 ∧ u1]`: the rest, covered without `var`.
    rest: (NodeId, NodeId),
    f0: NodeId,
    f1: NodeId,
    fd: NodeId,
}

impl BddManager {
    /// Computes a prime irredundant cover for the interval `[lower, upper]`
    /// using the Minato–Morreale algorithm.
    ///
    /// # Panics
    ///
    /// Panics if the interval is empty (`lower ⊄ upper`).
    pub fn isop(&mut self, lower: NodeId, upper: NodeId) -> IsopResult {
        let function = self.isop_function(lower, upper);
        let mut cubes = Vec::new();
        self.isop_walk(lower, upper, &mut Vec::new(), &mut cubes);
        IsopResult { cubes, function }
    }

    /// The function of the cover [`BddManager::isop`] returns for
    /// `[lower, upper]`, without building the cubes. Memoized in the
    /// operation cache, so repeated and overlapping intervals are cheap.
    ///
    /// # Panics
    ///
    /// Panics if the interval is empty (`lower ⊄ upper`).
    pub fn isop_function(&mut self, lower: NodeId, upper: NodeId) -> NodeId {
        let implication = self.implies(lower, upper);
        assert!(
            implication.is_one(),
            "isop: lower bound must imply the upper bound"
        );
        self.isop_rec(lower, upper)
    }

    fn isop_rec(&mut self, lower: NodeId, upper: NodeId) -> NodeId {
        if lower.is_zero() {
            return NodeId::ZERO;
        }
        if upper.is_one() {
            return NodeId::ONE;
        }
        if let Some(r) = self.cache.lookup(OpTag::Isop, lower.0, upper.0, 0) {
            return r;
        }
        let step = self.isop_step(lower, upper);
        let branch = self.mk(step.var, step.f0, step.f1);
        let r = self.or(branch, step.fd);
        self.cache.insert(OpTag::Isop, lower.0, upper.0, 0, r);
        r
    }

    fn isop_step(&mut self, lower: NodeId, upper: NodeId) -> IsopStep {
        let var = Var(self.level(lower).min(self.level(upper)));
        let (l0, l1) = self.cofactors_at(lower, var);
        let (u0, u1) = self.cofactors_at(upper, var);
        // `ite(g, 0, f)` is `f ∧ ¬g` in one cached step.
        let neg = (self.ite(u1, NodeId::ZERO, l0), u0);
        let pos = (self.ite(u0, NodeId::ZERO, l1), u1);
        let f0 = self.isop_rec(neg.0, neg.1);
        let f1 = self.isop_rec(pos.0, pos.1);
        let rest0 = self.ite(f0, NodeId::ZERO, l0);
        let rest1 = self.ite(f1, NodeId::ZERO, l1);
        let rest = (self.or(rest0, rest1), self.and(u0, u1));
        let fd = self.isop_rec(rest.0, rest.1);
        IsopStep {
            var,
            neg,
            pos,
            rest,
            f0,
            f1,
            fd,
        }
    }

    /// Emits the cubes of `[lower, upper]`'s cover in the recursion's
    /// order (negative branch, positive branch, rest). `prefix` holds the
    /// literals of the enclosing branches.
    fn isop_walk(
        &mut self,
        lower: NodeId,
        upper: NodeId,
        prefix: &mut Vec<(Var, bool)>,
        cubes: &mut Vec<IsopCube>,
    ) {
        if lower.is_zero() {
            return;
        }
        if upper.is_one() {
            let mut literals = prefix.clone();
            literals.sort_unstable();
            cubes.push(IsopCube { literals });
            return;
        }
        let step = self.isop_step(lower, upper);
        for (branch, positive) in [(step.neg, false), (step.pos, true)] {
            prefix.push((step.var, positive));
            self.isop_walk(branch.0, branch.1, prefix, cubes);
            prefix.pop();
        }
        self.isop_walk(step.rest.0, step.rest.1, prefix, cubes);
    }

    fn cofactors_at(&mut self, f: NodeId, v: Var) -> (NodeId, NodeId) {
        if f.is_terminal() || self.node_var(f) != v {
            (f, f)
        } else {
            self.node_children(f)
        }
    }

    /// Convenience: irredundant cover of a completely specified function.
    pub(crate) fn isop_exact(&mut self, f: NodeId) -> IsopResult {
        self.isop(f, f)
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;

    use super::*;

    fn with_literal(cube: &IsopCube, var: Var, positive: bool) -> IsopCube {
        let mut literals = cube.literals.clone();
        literals.push((var, positive));
        literals.sort();
        IsopCube { literals }
    }

    type ReferenceMemo = HashMap<(NodeId, NodeId), (Vec<IsopCube>, NodeId)>;

    /// The cube-building recursion the walk replaced: every level builds
    /// its own cube list, re-sorts each cube as it gains a literal, and
    /// memoizes whole cube lists in a per-call map.
    fn isop_reference(m: &mut BddManager, lower: NodeId, upper: NodeId) -> IsopResult {
        assert!(m.implies(lower, upper).is_one());
        let (cubes, function) = isop_reference_rec(m, lower, upper, &mut HashMap::new());
        IsopResult { cubes, function }
    }

    fn isop_reference_rec(
        m: &mut BddManager,
        lower: NodeId,
        upper: NodeId,
        memo: &mut ReferenceMemo,
    ) -> (Vec<IsopCube>, NodeId) {
        if lower.is_zero() {
            return (Vec::new(), NodeId::ZERO);
        }
        if upper.is_one() {
            return (vec![IsopCube::default()], NodeId::ONE);
        }
        if let Some(r) = memo.get(&(lower, upper)) {
            return r.clone();
        }
        let v = Var(m.level(lower).min(m.level(upper)));
        let (l0, l1) = m.cofactors_at(lower, v);
        let (u0, u1) = m.cofactors_at(upper, v);
        let not_u1 = m.not(u1);
        let lv0 = m.and(l0, not_u1);
        let not_u0 = m.not(u0);
        let lv1 = m.and(l1, not_u0);
        let (cubes0, f0) = isop_reference_rec(m, lv0, u0, memo);
        let (cubes1, f1) = isop_reference_rec(m, lv1, u1, memo);
        let nf0 = m.not(f0);
        let rest0 = m.and(l0, nf0);
        let nf1 = m.not(f1);
        let rest1 = m.and(l1, nf1);
        let l_rest = m.or(rest0, rest1);
        let u_rest = m.and(u0, u1);
        let (cubes_d, fd) = isop_reference_rec(m, l_rest, u_rest, memo);
        let mut cubes = Vec::new();
        cubes.extend(cubes0.iter().map(|c| with_literal(c, v, false)));
        cubes.extend(cubes1.iter().map(|c| with_literal(c, v, true)));
        cubes.extend(cubes_d.iter().cloned());
        let branch = m.mk(v, f0, f1);
        let function = m.or(branch, fd);
        memo.insert((lower, upper), (cubes.clone(), function));
        (cubes, function)
    }

    /// SplitMix64: a deterministic stream for the seeded oracles.
    struct SplitMix(u64);

    impl SplitMix {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }
    }

    /// A random function of `n` variables from its truth table, minterm
    /// `i` set with probability `density / 8`.
    fn random_function(m: &mut BddManager, n: usize, density: u64, rng: &mut SplitMix) -> NodeId {
        let mut f = NodeId::ZERO;
        for bits in 0..(1u32 << n) {
            if rng.next() % 8 >= density {
                continue;
            }
            let mut minterm = NodeId::ONE;
            for i in 0..n {
                let lit = m.literal(Var(i as u32), bits & (1 << i) != 0);
                minterm = m.and(minterm, lit);
            }
            f = m.or(f, minterm);
        }
        f
    }

    /// A random interval `[lower, upper]` of `n` variables; one in eight
    /// has `lower = 0` and one in eight `upper = 1`.
    fn random_interval(m: &mut BddManager, n: usize, rng: &mut SplitMix) -> (NodeId, NodeId) {
        let a = random_function(m, n, 1 + rng.next() % 6, rng);
        let b = random_function(m, n, 1 + rng.next() % 6, rng);
        let lower = if rng.next().is_multiple_of(8) {
            NodeId::ZERO
        } else {
            m.and(a, b)
        };
        let upper = if rng.next().is_multiple_of(8) {
            NodeId::ONE
        } else {
            m.or(a, b)
        };
        (lower, upper)
    }

    #[test]
    fn walk_matches_the_reference_recursion_cube_for_cube() {
        let mut rng = SplitMix(0x15_0f);
        let mut checked = 0;
        for width in 1..=8usize {
            // One manager per width keeps the op cache warm across
            // intervals, so cached sub-results from earlier calls are
            // exercised too.
            let mut m = BddManager::new(width);
            let count = if width <= 6 { 450 } else { 300 };
            for _ in 0..count {
                let (lower, upper) = random_interval(&mut m, width, &mut rng);
                let reference = isop_reference(&mut m, lower, upper);
                let walked = m.isop(lower, upper);
                assert_eq!(walked.cubes, reference.cubes, "width {width}");
                assert_eq!(walked.function, reference.function, "width {width}");
                assert_eq!(m.isop_function(lower, upper), reference.function);
                checked += 1;
            }
        }
        assert!(checked >= 3000);
    }

    fn all_assignments(n: usize) -> impl Iterator<Item = Vec<bool>> {
        (0..(1u32 << n)).map(move |bits| (0..n).map(|i| bits & (1 << i) != 0).collect())
    }

    fn cover_eval(cubes: &[IsopCube], asg: &[bool]) -> bool {
        cubes.iter().any(|c| c.eval(asg))
    }

    #[test]
    fn isop_exact_covers_the_function() {
        let mut m = BddManager::new(3);
        let a = m.literal(Var(0), true);
        let b = m.literal(Var(1), true);
        let c = m.literal(Var(2), true);
        let t1 = m.and(a, b);
        let na = m.not(a);
        let t2 = m.and(na, c);
        let f = m.or(t1, t2);
        let res = m.isop_exact(f);
        assert_eq!(res.function, f);
        for asg in all_assignments(3) {
            assert_eq!(cover_eval(&res.cubes, &asg), m.eval(f, &asg));
        }
    }

    #[test]
    fn isop_respects_interval() {
        let mut m = BddManager::new(3);
        let a = m.literal(Var(0), true);
        let b = m.literal(Var(1), true);
        let c = m.literal(Var(2), true);
        // onset: a·b·c ; dcset: a·(b ⊕ c)
        let ab = m.and(a, b);
        let on = m.and(ab, c);
        let xorbc = m.xor(b, c);
        let dc = m.and(a, xorbc);
        let up = m.or(on, dc);
        let res = m.isop(on, up);
        // on ⊆ result ⊆ up
        let on_implies = m.implies(on, res.function);
        let result_implies = m.implies(res.function, up);
        assert!(on_implies.is_one());
        assert!(result_implies.is_one());
        // Using don't cares should give a cover at most as large as exact.
        let exact = m.isop_exact(on);
        assert!(res.num_literals() <= exact.num_literals());
    }

    #[test]
    fn isop_of_constants() {
        let mut m = BddManager::new(2);
        let res0 = m.isop_exact(NodeId::ZERO);
        assert!(res0.cubes.is_empty());
        assert!(res0.function.is_zero());
        let res1 = m.isop_exact(NodeId::ONE);
        assert_eq!(res1.cubes.len(), 1);
        assert_eq!(res1.cubes[0].num_literals(), 0);
        assert!(res1.function.is_one());
    }

    #[test]
    fn isop_single_literal() {
        let mut m = BddManager::new(2);
        let a = m.literal(Var(0), true);
        let res = m.isop_exact(a);
        assert_eq!(res.num_cubes(), 1);
        assert_eq!(res.num_literals(), 1);
        assert_eq!(res.cubes[0].literals(), &[(Var(0), true)]);
    }

    #[test]
    fn isop_is_irredundant_on_xor() {
        let mut m = BddManager::new(2);
        let a = m.literal(Var(0), true);
        let b = m.literal(Var(1), true);
        let f = m.xor(a, b);
        let res = m.isop_exact(f);
        // XOR of two variables needs exactly two cubes of two literals.
        assert_eq!(res.num_cubes(), 2);
        assert_eq!(res.num_literals(), 4);
        // Removing any cube must lose coverage (irredundancy).
        for skip in 0..res.cubes.len() {
            let reduced: Vec<IsopCube> = res
                .cubes
                .iter()
                .enumerate()
                .filter(|&(i, _)| i != skip)
                .map(|(_, c)| c.clone())
                .collect();
            let mut missing = false;
            for asg in all_assignments(2) {
                if m.eval(f, &asg) && !cover_eval(&reduced, &asg) {
                    missing = true;
                }
            }
            assert!(missing, "cover is redundant: cube {skip} can be dropped");
        }
    }

    #[test]
    #[should_panic]
    fn isop_rejects_empty_interval() {
        let mut m = BddManager::new(1);
        let a = m.literal(Var(0), true);
        let na = m.not(a);
        // lower = a does not imply upper = !a
        m.isop(a, na);
    }
}
