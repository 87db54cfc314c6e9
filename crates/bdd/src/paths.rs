//! Path and minterm utilities: shortest-path cube extraction and
//! satisfying-assignment counting.
//!
//! The BREL split strategy (Section 7.4) existentially abstracts the output
//! variables from the conflict relation and then extracts the *shortest
//! path* to the 1-terminal of the resulting BDD: the path with the fewest
//! literals corresponds to the largest cube of adjacent conflicting input
//! vertices.

use std::collections::HashMap;

use crate::manager::{BddManager, NodeId, Var};

/// A cube described by a partial assignment `(variable, value)`; variables
/// not mentioned are unconstrained ("don't care" positions of the cube).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PathCube {
    assignments: Vec<(Var, bool)>,
}

impl PathCube {
    /// Creates a cube from `(variable, value)` pairs.
    pub fn new(mut assignments: Vec<(Var, bool)>) -> Self {
        assignments.sort();
        PathCube { assignments }
    }

    /// The `(variable, value)` pairs of the cube, sorted by variable.
    pub fn assignments(&self) -> &[(Var, bool)] {
        &self.assignments
    }

    /// Number of fixed literals.
    pub fn num_literals(&self) -> usize {
        self.assignments.len()
    }

    /// Value assigned to `var`, if any.
    pub fn value_of(&self, var: Var) -> Option<bool> {
        self.assignments
            .iter()
            .find(|&&(v, _)| v == var)
            .map(|&(_, b)| b)
    }

    /// Completes the cube into a full minterm over `num_vars` variables,
    /// assigning `default` to free positions.
    pub fn to_minterm(&self, num_vars: usize, default: bool) -> Vec<bool> {
        let mut asg = vec![default; num_vars];
        for &(v, b) in &self.assignments {
            asg[v.index()] = b;
        }
        asg
    }
}

impl BddManager {
    /// Returns the cube with the fewest literals among all paths from `f`
    /// to the 1-terminal, or `None` if `f` is unsatisfiable.
    ///
    /// Skipped levels contribute no literals, so the returned cube is the
    /// *largest* cube contained in `f` in terms of the number of covered
    /// minterms along a single root-to-terminal path.
    pub fn shortest_path(&self, f: NodeId) -> Option<PathCube> {
        if f.is_zero() {
            return None;
        }
        if f.is_one() {
            return Some(PathCube::default());
        }
        // cost[node] = minimal number of literals to reach ONE from node.
        let mut cost: HashMap<NodeId, usize> = HashMap::new();
        self.sp_cost(f, &mut cost);
        if cost.get(&f).copied().unwrap_or(usize::MAX) == usize::MAX {
            return None;
        }
        // Reconstruct the path greedily.
        let lookup = |cost: &HashMap<NodeId, usize>, id: NodeId| -> usize {
            if id.is_one() {
                0
            } else if id.is_zero() {
                usize::MAX
            } else {
                cost.get(&id).copied().unwrap_or(usize::MAX)
            }
        };
        let mut lits = Vec::new();
        let mut id = f;
        while !id.is_terminal() {
            let v = self.node_var(id);
            let (lo, hi) = self.node_children(id);
            let lo_cost = lookup(&cost, lo);
            let hi_cost = lookup(&cost, hi);
            if lo_cost <= hi_cost {
                lits.push((v, false));
                id = lo;
            } else {
                lits.push((v, true));
                id = hi;
            }
        }
        Some(PathCube::new(lits))
    }

    fn sp_cost(&self, f: NodeId, cost: &mut HashMap<NodeId, usize>) -> usize {
        if f.is_one() {
            return 0;
        }
        if f.is_zero() {
            return usize::MAX;
        }
        if let Some(&c) = cost.get(&f) {
            return c;
        }
        let (lo, hi) = self.node_children(f);
        let lo_cost = self.sp_cost(lo, cost);
        let hi_cost = self.sp_cost(hi, cost);
        let c = match (lo_cost, hi_cost) {
            (usize::MAX, usize::MAX) => usize::MAX,
            (usize::MAX, h) => h.saturating_add(1),
            (l, usize::MAX) => l.saturating_add(1),
            (l, h) => l.min(h).saturating_add(1),
        };
        cost.insert(f, c);
        c
    }

    /// Returns one satisfying partial assignment of `f` (a cube), or `None`
    /// if `f` is unsatisfiable. Unlike [`BddManager::shortest_path`] this
    /// simply walks preferring satisfiable branches.
    pub fn pick_cube(&self, f: NodeId) -> Option<PathCube> {
        if f.is_zero() {
            return None;
        }
        let mut lits = Vec::new();
        let mut id = f;
        while !id.is_terminal() {
            let v = self.node_var(id);
            let (lo, hi) = self.node_children(id);
            if lo.is_zero() {
                lits.push((v, true));
                id = hi;
            } else {
                lits.push((v, false));
                id = lo;
            }
        }
        Some(PathCube::new(lits))
    }

    /// Calls `visit` on every satisfying assignment of `f` over the
    /// variables `x0..x{num_vars-1}`, packed into a word with `x0` in its
    /// most significant bit (bit `num_vars - 1`) and `x{num_vars-1}` in
    /// bit 0. The walk follows `f`'s paths low branch first and takes both
    /// values of every variable a path skips, so the words arrive in
    /// ascending order, each once, at a cost linear in their number.
    ///
    /// # Panics
    ///
    /// Panics if `num_vars` exceeds 64 or any variable in the support of
    /// `f` has index `≥ num_vars`.
    pub fn for_each_minterm(&self, f: NodeId, num_vars: usize, mut visit: impl FnMut(u64)) {
        assert!(
            num_vars <= 64,
            "for_each_minterm: {num_vars} variables exceed a word"
        );
        self.minterms_rec(f, 0, num_vars, 0, &mut visit);
    }

    /// The walk behind [`BddManager::for_each_minterm`]: `prefix` holds
    /// the values of the variables above `depth`.
    fn minterms_rec(
        &self,
        f: NodeId,
        depth: usize,
        num_vars: usize,
        prefix: u64,
        visit: &mut impl FnMut(u64),
    ) {
        if f.is_zero() {
            return;
        }
        if depth == num_vars {
            assert!(
                f.is_one(),
                "for_each_minterm: support beyond {num_vars} variables"
            );
            visit(prefix);
            return;
        }
        let (lo, hi) = if self.level(f) == depth as u32 {
            self.node_children(f)
        } else {
            (f, f)
        };
        let bit = 1u64 << (num_vars - 1 - depth);
        self.minterms_rec(lo, depth + 1, num_vars, prefix, visit);
        self.minterms_rec(hi, depth + 1, num_vars, prefix | bit, visit);
    }

    /// Number of satisfying assignments of `f` over the variables
    /// `x0..x{num_vars-1}`.
    ///
    /// # Panics
    ///
    /// Panics if any variable in the support of `f` has index `≥ num_vars`.
    pub fn sat_count(&self, f: NodeId, num_vars: usize) -> u128 {
        // A node's rank is the number of counted variables above it: its
        // level, or all `num_vars` for the terminals (which sit below
        // every level). Variables with index < num_vars that the manager
        // does not even have are free as well.
        let rank_of = |id: NodeId| self.level(id).min(num_vars as u32);
        let mut memo: HashMap<NodeId, u128> = HashMap::new();
        let below = self.sat_count_rec(f, num_vars, &rank_of, &mut memo);
        below << rank_of(f)
    }

    /// Counts satisfying assignments of the counted variables at or below
    /// `f`'s own level (internal helper; see `sat_count`).
    fn sat_count_rec(
        &self,
        f: NodeId,
        num_vars: usize,
        rank_of: &impl Fn(NodeId) -> u32,
        memo: &mut HashMap<NodeId, u128>,
    ) -> u128 {
        if f.is_zero() {
            return 0;
        }
        if f.is_one() {
            return 1;
        }
        if let Some(&c) = memo.get(&f) {
            return c;
        }
        let v = self.node_var(f);
        assert!(
            v.index() < num_vars,
            "sat_count: variable {v:?} out of range for {num_vars} variables"
        );
        let (lo, hi) = self.node_children(f);
        let here = rank_of(f);
        let lo_count = self.sat_count_rec(lo, num_vars, rank_of, memo) << (rank_of(lo) - here - 1);
        let hi_count = self.sat_count_rec(hi, num_vars, rank_of, memo) << (rank_of(hi) - here - 1);
        let c = lo_count + hi_count;
        memo.insert(f, c);
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shortest_path_prefers_fewer_literals() {
        let mut m = BddManager::new(3);
        let a = m.literal(Var(0), true);
        let b = m.literal(Var(1), true);
        let c = m.literal(Var(2), true);
        // f = a·b·c + !a  : the shortest path is the single literal !a.
        let ab = m.and(a, b);
        let abc = m.and(ab, c);
        let na = m.not(a);
        let f = m.or(abc, na);
        let sp = m.shortest_path(f).expect("satisfiable");
        assert_eq!(sp.num_literals(), 1);
        assert_eq!(sp.assignments(), &[(Var(0), false)]);
    }

    #[test]
    fn shortest_path_of_constants() {
        let m = BddManager::new(2);
        assert!(m.shortest_path(NodeId::ZERO).is_none());
        let one = m.shortest_path(NodeId::ONE).expect("tautology");
        assert_eq!(one.num_literals(), 0);
    }

    #[test]
    fn shortest_path_cube_is_contained_in_f() {
        let mut m = BddManager::new(4);
        let a = m.literal(Var(0), true);
        let b = m.literal(Var(1), true);
        let c = m.literal(Var(2), true);
        let d = m.literal(Var(3), true);
        let t1 = m.and(a, b);
        let t2 = m.and(c, d);
        let f = m.xor(t1, t2);
        let sp = m.shortest_path(f).expect("satisfiable");
        // Every completion of the cube must satisfy f.
        let fixed: Vec<(usize, bool)> = sp
            .assignments()
            .iter()
            .map(|&(v, b)| (v.index(), b))
            .collect();
        for bits in 0..16u32 {
            let mut asg: Vec<bool> = (0..4).map(|i| bits & (1 << i) != 0).collect();
            for &(i, b) in &fixed {
                asg[i] = b;
            }
            assert!(m.eval(f, &asg));
        }
    }

    #[test]
    fn pick_cube_satisfies() {
        let mut m = BddManager::new(3);
        let a = m.literal(Var(0), true);
        let b = m.literal(Var(1), true);
        let f = m.and(a, b);
        let cube = m.pick_cube(f).expect("satisfiable");
        let minterm = cube.to_minterm(3, false);
        assert!(m.eval(f, &minterm));
        assert!(m.pick_cube(NodeId::ZERO).is_none());
    }

    #[test]
    fn minterm_walk_lists_the_onset_in_ascending_order() {
        let mut m = BddManager::new(5);
        let a = m.literal(Var(0), true);
        let c = m.literal(Var(2), true);
        let e = m.literal(Var(4), false);
        // Skips x1 and x3 on every path, so the walk must expand them.
        let ac = m.xor(a, c);
        let f = m.and(ac, e);
        let mut words = Vec::new();
        m.for_each_minterm(f, 5, |w| words.push(w));
        // Bit 4 - i of a word holds x_i.
        let expected: Vec<u64> = (0..32u64)
            .filter(|&w| {
                let asg: Vec<bool> = (0..5).map(|i| w >> (4 - i) & 1 == 1).collect();
                m.eval(f, &asg)
            })
            .collect();
        assert_eq!(words, expected);
        assert_eq!(words.len() as u128, m.sat_count(f, 5));
        let mut none = Vec::new();
        m.for_each_minterm(NodeId::ZERO, 5, |w| none.push(w));
        assert!(none.is_empty());
        let mut all = 0;
        m.for_each_minterm(NodeId::ONE, 3, |_| all += 1);
        assert_eq!(all, 8);
    }

    #[test]
    fn sat_count_matches_enumeration() {
        let mut m = BddManager::new(4);
        let a = m.literal(Var(0), true);
        let b = m.literal(Var(1), true);
        let c = m.literal(Var(2), true);
        let d = m.literal(Var(3), true);
        let t1 = m.and(a, b);
        let t2 = m.xor(c, d);
        let f = m.or(t1, t2);
        let count = m.sat_count(f, 4);
        let enumerated = (0..16u32)
            .filter(|bits| m.eval(f, &(0..4).map(|i| bits & (1 << i) != 0).collect::<Vec<_>>()))
            .count() as u128;
        assert_eq!(count, enumerated);
        assert_eq!(m.sat_count(NodeId::ONE, 4), 16);
        assert_eq!(m.sat_count(NodeId::ZERO, 4), 0);
    }

    #[test]
    fn sat_count_single_variable() {
        let mut m = BddManager::new(3);
        let b = m.literal(Var(1), true);
        assert_eq!(m.sat_count(b, 3), 4);
    }

    #[test]
    fn minterm_completion_with_ones() {
        let cube = PathCube::new(vec![(Var(1), false)]);
        assert_eq!(cube.to_minterm(3, true), vec![true, false, true]);
        assert_eq!(cube.value_of(Var(1)), Some(false));
        assert_eq!(cube.value_of(Var(0)), None);
    }
}
