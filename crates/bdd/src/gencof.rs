//! Generalized cofactors: `constrain` and `restrict` (Coudert–Madre).
//!
//! Section 7.5 of the paper compares several ISF-minimization strategies.
//! Two of them pick an implementation of the interval `[On, On ∪ Dc]` by
//! applying a generalized cofactor of the onset with respect to the care
//! set: `constrain` (also called the "image restrictor") and `restrict`.
//! Both return a function that agrees with `f` on the care set `c` and tend
//! to have a smaller BDD than `f`; `restrict` additionally skips variables
//! that do not appear in `f`, which avoids gratuitous support growth.

use crate::cache::OpTag;
use crate::manager::{BddManager, NodeId, Var};

impl BddManager {
    /// The `constrain` generalized cofactor `f ↓ c`.
    ///
    /// Requires `c ≠ 0`. The result agrees with `f` on every minterm of `c`,
    /// i.e. `c · (f ↓ c) = c · f`.
    ///
    /// # Panics
    ///
    /// Panics if `c` is the constant-false function (the cofactor is not
    /// defined for an empty care set).
    pub fn constrain(&mut self, f: NodeId, c: NodeId) -> NodeId {
        assert!(!c.is_zero(), "constrain: care set must be non-empty");
        self.constrain_rec(f, c)
    }

    fn constrain_rec(&mut self, f: NodeId, c: NodeId) -> NodeId {
        if c.is_one() || f.is_terminal() {
            return f;
        }
        if f == c {
            return NodeId::ONE;
        }
        if let Some(r) = self.cache.lookup(OpTag::Constrain, f.0, c.0, 0) {
            return r;
        }
        let lf = self.level(f);
        let lc = self.level(c);
        let top = lf.min(lc);
        let v = Var(top);
        let (f0, f1) = if lf == top {
            self.node_children(f)
        } else {
            (f, f)
        };
        let (c0, c1) = if lc == top {
            self.node_children(c)
        } else {
            (c, c)
        };
        let r = if c0.is_zero() {
            self.constrain_rec(f1, c1)
        } else if c1.is_zero() {
            self.constrain_rec(f0, c0)
        } else {
            let lo = self.constrain_rec(f0, c0);
            let hi = self.constrain_rec(f1, c1);
            self.mk(v, lo, hi)
        };
        self.cache.insert(OpTag::Constrain, f.0, c.0, 0, r);
        r
    }

    /// The `restrict` generalized cofactor, a variant of [`BddManager::constrain`]
    /// that existentially quantifies care-set variables not present in `f`,
    /// which keeps the support of the result within the support of `f`.
    ///
    /// # Panics
    ///
    /// Panics if `c` is the constant-false function.
    pub fn restrict(&mut self, f: NodeId, c: NodeId) -> NodeId {
        assert!(!c.is_zero(), "restrict: care set must be non-empty");
        self.restrict_rec(f, c)
    }

    fn restrict_rec(&mut self, f: NodeId, c: NodeId) -> NodeId {
        if c.is_one() || f.is_terminal() {
            return f;
        }
        if f == c {
            return NodeId::ONE;
        }
        if let Some(r) = self.cache.lookup(OpTag::Restrict, f.0, c.0, 0) {
            return r;
        }
        let lf = self.level(f);
        let lc = self.level(c);
        let r = if lc < lf {
            // Top variable of c does not appear in f: abstract it away.
            let vc = self.node_var(c);
            let c_abs = self.exists(c, vc);
            self.restrict_rec(f, c_abs)
        } else {
            let v = self.node_var(f);
            let (f0, f1) = self.node_children(f);
            let (c0, c1) = if lc == lf {
                self.node_children(c)
            } else {
                (c, c)
            };
            if c0.is_zero() {
                self.restrict_rec(f1, c1)
            } else if c1.is_zero() {
                self.restrict_rec(f0, c0)
            } else {
                let lo = self.restrict_rec(f0, c0);
                let hi = self.restrict_rec(f1, c1);
                self.mk(v, lo, hi)
            }
        };
        self.cache.insert(OpTag::Restrict, f.0, c.0, 0, r);
        r
    }

    /// A "safe" BDD minimization in the spirit of the `LICompact`
    /// leaf-identifying compaction (Hong et al., DAC'97): like `restrict`,
    /// but a sibling substitution is only taken when it does not increase
    /// the local node count, which guarantees the result never has more
    /// nodes than `f` on the explored paths. The result implements the
    /// interval `[f·c, f + c']`.
    ///
    /// # Panics
    ///
    /// Panics if `c` is the constant-false function.
    pub fn li_compact(&mut self, f: NodeId, c: NodeId) -> NodeId {
        assert!(!c.is_zero(), "li_compact: care set must be non-empty");
        let r = self.li_compact_rec(f, c);
        // Safety net: keep the smaller of {f, r}; both implement the interval.
        if self.size(r) <= self.size(f) {
            r
        } else {
            f
        }
    }

    fn li_compact_rec(&mut self, f: NodeId, c: NodeId) -> NodeId {
        if c.is_one() || f.is_terminal() {
            return f;
        }
        if let Some(r) = self.cache.lookup(OpTag::LiCompact, f.0, c.0, 0) {
            return r;
        }
        let lf = self.level(f);
        let lc = self.level(c);
        let r = if lc < lf {
            let vc = self.node_var(c);
            let c_abs = self.exists(c, vc);
            self.li_compact_rec(f, c_abs)
        } else {
            let v = self.node_var(f);
            let (f0, f1) = self.node_children(f);
            let (c0, c1) = if lc == lf {
                self.node_children(c)
            } else {
                (c, c)
            };
            if c0.is_zero() {
                let hi = self.li_compact_rec(f1, c1);
                // Sibling substitution is safe only if it does not grow.
                if self.size(hi) <= self.size(f) {
                    hi
                } else {
                    let lo = self.li_compact_rec(f0, NodeId::ONE);
                    self.mk(v, lo, hi)
                }
            } else if c1.is_zero() {
                let lo = self.li_compact_rec(f0, c0);
                if self.size(lo) <= self.size(f) {
                    lo
                } else {
                    let hi = self.li_compact_rec(f1, NodeId::ONE);
                    self.mk(v, lo, hi)
                }
            } else {
                let lo = self.li_compact_rec(f0, c0);
                let hi = self.li_compact_rec(f1, c1);
                self.mk(v, lo, hi)
            }
        };
        self.cache.insert(OpTag::LiCompact, f.0, c.0, 0, r);
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manager::Var;

    /// Checks the defining property of a generalized cofactor:
    /// on the care set the result agrees with `f`.
    fn check_agrees_on_care(m: &mut BddManager, f: NodeId, c: NodeId, g: NodeId, nvars: usize) {
        for bits in 0..(1u32 << nvars) {
            let asg: Vec<bool> = (0..nvars).map(|i| bits & (1 << i) != 0).collect();
            if m.eval(c, &asg) {
                assert_eq!(
                    m.eval(g, &asg),
                    m.eval(f, &asg),
                    "disagrees on care minterm"
                );
            }
        }
    }

    fn setup() -> (BddManager, NodeId, NodeId) {
        let mut m = BddManager::new(4);
        let a = m.literal(Var(0), true);
        let b = m.literal(Var(1), true);
        let c = m.literal(Var(2), true);
        let d = m.literal(Var(3), true);
        let t1 = m.and(a, b);
        let t2 = m.and(c, d);
        let f = m.or(t1, t2);
        let nc = m.not(c);
        let care = m.or(a, nc);
        (m, f, care)
    }

    #[test]
    fn constrain_agrees_on_care_set() {
        let (mut m, f, care) = setup();
        let g = m.constrain(f, care);
        check_agrees_on_care(&mut m, f, care, g, 4);
    }

    #[test]
    fn restrict_agrees_on_care_set_and_limits_support() {
        let (mut m, f, care) = setup();
        let g = m.restrict(f, care);
        check_agrees_on_care(&mut m, f, care, g, 4);
        let sup_f = m.support(f);
        let sup_g = m.support(g);
        assert!(
            sup_g.iter().all(|v| sup_f.contains(v)),
            "restrict must not grow support"
        );
    }

    #[test]
    fn li_compact_agrees_and_never_larger() {
        let (mut m, f, care) = setup();
        let g = m.li_compact(f, care);
        check_agrees_on_care(&mut m, f, care, g, 4);
        assert!(m.size(g) <= m.size(f));
    }

    #[test]
    fn full_care_set_is_identity() {
        let (mut m, f, _care) = setup();
        assert_eq!(m.constrain(f, NodeId::ONE), f);
        assert_eq!(m.restrict(f, NodeId::ONE), f);
        assert_eq!(m.li_compact(f, NodeId::ONE), f);
    }

    #[test]
    #[should_panic]
    fn constrain_rejects_empty_care_set() {
        let (mut m, f, _care) = setup();
        m.constrain(f, NodeId::ZERO);
    }

    #[test]
    #[should_panic]
    fn restrict_rejects_empty_care_set() {
        let (mut m, f, _care) = setup();
        m.restrict(f, NodeId::ZERO);
    }

    #[test]
    fn constrain_reduces_to_one_when_equal() {
        let (mut m, f, _care) = setup();
        assert_eq!(m.constrain(f, f), NodeId::ONE);
        assert_eq!(m.restrict(f, f), NodeId::ONE);
    }
}
