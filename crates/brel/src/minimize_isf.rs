//! ISF minimization strategies (Section 7.5, Table 1 of the paper).
//!
//! Each ISF of the projected MISF is minimized individually. The paper
//! compares four BDD-based strategies — irredundant SOP generation
//! (Minato–Morreale), the `constrain` and `restrict` generalized cofactors
//! and the `LICompact` safe minimization — each optionally preceded by the
//! greedy elimination of non-essential variables, and selects ISOP with
//! variable elimination as the default.

use brel_bdd::{Bdd, BddManager, NodeId};
use brel_relation::Isf;

/// The underlying don't-care exploitation method.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum MinimizerKind {
    /// Minato–Morreale irredundant sum of products (the default).
    #[default]
    Isop,
    /// The `constrain` generalized cofactor of the onset by the care set.
    Constrain,
    /// The `restrict` generalized cofactor.
    Restrict,
    /// Safe (never-growing) BDD minimization, in the spirit of LICompact.
    LiCompact,
}

impl MinimizerKind {
    /// Picks a function in the non-empty interval `[lower, upper]`.
    fn pick(self, m: &mut BddManager, lower: NodeId, upper: NodeId) -> NodeId {
        let cofactor: fn(&mut BddManager, NodeId, NodeId) -> NodeId = match self {
            MinimizerKind::Isop => {
                let _op = brel_obs::span(brel_obs::Category::KernelOp, "isop");
                return m.isop_function(lower, upper);
            }
            MinimizerKind::Constrain => BddManager::constrain,
            MinimizerKind::Restrict => BddManager::restrict,
            MinimizerKind::LiCompact => BddManager::li_compact,
        };
        let not_upper = m.not(upper);
        let care = m.or(lower, not_upper);
        if care.is_zero() {
            return lower;
        }
        let candidate = cofactor(m, lower, care);
        // Generalized cofactors guarantee agreement on the care set but may
        // stray outside the interval on the don't-care set only in
        // pathological orderings; clamp back into the interval to be safe.
        let widened = m.or(candidate, lower);
        m.and(widened, upper)
    }
}

/// An ISF minimizer: a [`MinimizerKind`] plus the optional non-essential
/// variable elimination pre-pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct IsfMinimizer {
    /// The don't-care exploitation method.
    pub kind: MinimizerKind,
    /// Whether to eliminate non-essential variables before minimizing.
    pub eliminate_non_essential: bool,
}

impl Default for IsfMinimizer {
    fn default() -> Self {
        IsfMinimizer {
            kind: MinimizerKind::Isop,
            eliminate_non_essential: true,
        }
    }
}

impl IsfMinimizer {
    /// Creates a minimizer with variable elimination enabled.
    pub fn new(kind: MinimizerKind) -> Self {
        IsfMinimizer {
            kind,
            eliminate_non_essential: true,
        }
    }

    /// Creates a minimizer without the variable-elimination pre-pass.
    pub fn without_elimination(kind: MinimizerKind) -> Self {
        IsfMinimizer {
            kind,
            eliminate_non_essential: false,
        }
    }

    /// Minimizes the ISF: returns a completely specified function lying in
    /// the interval `[on, on ∪ dc]`.
    ///
    /// Once the interval's node ids are resolved, the whole minimization —
    /// the elimination pre-pass, the strategy and the clamp — runs on raw
    /// node ids in one [`brel_bdd::BddSession::apply`].
    pub fn minimize(&self, isf: &Isf) -> Bdd {
        let (on, dc) = (isf.on().node_id(), isf.dc().node_id());
        let inputs = isf.space().input_vars();
        isf.space().mgr().apply(|m| {
            let (mut lower, mut upper) = (on, m.or(on, dc));
            if self.eliminate_non_essential {
                // Greedily drop variables (top to bottom of the order) as
                // long as the interval [∃z lower, ∀z upper] stays non-empty.
                for &z in inputs {
                    let (lower_q, upper_q) = (m.exists(lower, z), m.forall(upper, z));
                    if m.implies(lower_q, upper_q).is_one() {
                        lower = lower_q;
                        upper = upper_q;
                    }
                }
            }
            let result = self.kind.pick(m, lower, upper);
            debug_assert!(m.implies(lower, result).is_one() && m.implies(result, upper).is_one());
            result
        })
    }

    /// The four strategy combinations compared in Table 1 of the paper, in
    /// the order used by the benchmark harness.
    pub fn table1_strategies() -> Vec<(&'static str, IsfMinimizer)> {
        vec![
            ("ISOP+elim", IsfMinimizer::new(MinimizerKind::Isop)),
            (
                "ISOP",
                IsfMinimizer::without_elimination(MinimizerKind::Isop),
            ),
            (
                "Constrain+elim",
                IsfMinimizer::new(MinimizerKind::Constrain),
            ),
            (
                "Constrain",
                IsfMinimizer::without_elimination(MinimizerKind::Constrain),
            ),
            ("Restrict+elim", IsfMinimizer::new(MinimizerKind::Restrict)),
            (
                "Restrict",
                IsfMinimizer::without_elimination(MinimizerKind::Restrict),
            ),
            (
                "LICompact+elim",
                IsfMinimizer::new(MinimizerKind::LiCompact),
            ),
            (
                "LICompact",
                IsfMinimizer::without_elimination(MinimizerKind::LiCompact),
            ),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use brel_relation::RelationSpace;

    /// The handle-based minimizer the one-lock version replaced: every
    /// quantification, test and connective is its own handle operation.
    fn minimize_reference(strategy: &IsfMinimizer, isf: &Isf) -> Bdd {
        let (mut lower, mut upper) = (isf.on().clone(), isf.upper());
        if strategy.eliminate_non_essential {
            for &z in isf.space().input_vars() {
                let lower_q = lower.exists(&[z]);
                let upper_q = upper.forall(&[z]);
                if lower_q.is_subset_of(&upper_q) {
                    lower = lower_q;
                    upper = upper_q;
                }
            }
        }
        let clamp = |candidate: Bdd| candidate.or(&lower).and(&upper);
        let care = lower.or(&upper.complement());
        match strategy.kind {
            MinimizerKind::Isop => {
                let (l, u) = (lower.node_id(), upper.node_id());
                isf.space().mgr().apply(|m| m.isop(l, u).function)
            }
            _ if care.is_zero() => lower.clone(),
            MinimizerKind::Constrain => clamp(lower.constrain(&care)),
            MinimizerKind::Restrict => clamp(lower.restrict(&care)),
            MinimizerKind::LiCompact => clamp(lower.li_compact(&care)),
        }
    }

    /// SplitMix64: a deterministic stream for the seeded oracle.
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

    /// A random ISF over the inputs of `space`: every input vertex is on,
    /// off or don't care.
    fn random_isf(space: &RelationSpace, rng: &mut SplitMix) -> Isf {
        let n = space.num_inputs();
        let (mut on, mut dc) = (space.mgr().zero(), space.mgr().zero());
        let (on_share, dc_share) = (rng.next() % 5, rng.next() % 5);
        for bits in 0..(1u32 << n) {
            let literals: Vec<_> = (0..n)
                .map(|i| (space.input_vars()[i], bits & (1 << i) != 0))
                .collect();
            let roll = rng.next() % 8;
            if roll < on_share {
                on = on.or(&space.mgr().cube(&literals));
            } else if roll < on_share + dc_share {
                dc = dc.or(&space.mgr().cube(&literals));
            }
        }
        Isf::new(space, on, dc)
    }

    #[test]
    fn one_lock_minimizer_matches_the_handle_reference_node_for_node() {
        let mut rng = SplitMix(0x0157_f00d);
        for inputs in 1..=5 {
            let space = RelationSpace::new(inputs, 2);
            for _ in 0..60 {
                let isf = random_isf(&space, &mut rng);
                for (name, strategy) in IsfMinimizer::table1_strategies() {
                    assert_eq!(
                        strategy.minimize(&isf),
                        minimize_reference(&strategy, &isf),
                        "{name} on {inputs} inputs"
                    );
                }
            }
        }
    }

    fn sample_isf(space: &RelationSpace) -> Isf {
        let a = space.input(0);
        let b = space.input(1);
        let c = space.input(2);
        // on = a·b·c ; dc = a·(b ⊕ c) ∪ ¬a·¬b·¬c
        let on = a.and(&b).and(&c);
        let dc = a
            .and(&b.xor(&c))
            .or(&a.complement().and(&b.complement()).and(&c.complement()));
        Isf::new(space, on, dc)
    }

    #[test]
    fn every_strategy_stays_in_the_interval() {
        let space = RelationSpace::new(3, 1);
        let isf = sample_isf(&space);
        for (name, strategy) in IsfMinimizer::table1_strategies() {
            let f = strategy.minimize(&isf);
            assert!(isf.admits(&f), "strategy {name} left the interval");
        }
    }

    #[test]
    fn elimination_never_hurts_admissibility_and_reduces_support() {
        let space = RelationSpace::new(2, 1);
        let a = space.input(0);
        let b = space.input(1);
        // on = a·b, dc = a·b' : implementable as `a` alone.
        let isf = Isf::new(&space, a.and(&b), a.and(&b.complement()));
        let with = IsfMinimizer::new(MinimizerKind::Isop).minimize(&isf);
        let without = IsfMinimizer::without_elimination(MinimizerKind::Isop).minimize(&isf);
        assert!(isf.admits(&with));
        assert!(isf.admits(&without));
        assert!(with.support().len() <= without.support().len());
        assert_eq!(with.support(), vec![space.input_vars()[0]]);
    }

    #[test]
    fn completely_specified_isf_is_returned_exactly() {
        let space = RelationSpace::new(2, 1);
        let a = space.input(0);
        let b = space.input(1);
        let isf = Isf::new(&space, a.xor(&b), space.mgr().zero());
        for (_, strategy) in IsfMinimizer::table1_strategies() {
            assert_eq!(strategy.minimize(&isf), a.xor(&b));
        }
    }

    #[test]
    fn full_dc_isf_minimizes_to_a_constant() {
        let space = RelationSpace::new(2, 1);
        let isf = Isf::new(&space, space.mgr().zero(), space.mgr().one());
        let f = IsfMinimizer::default().minimize(&isf);
        assert!(f.is_zero() || f.is_one());
    }

    #[test]
    fn isop_tends_to_be_smallest_in_literals() {
        let space = RelationSpace::new(3, 1);
        let isf = sample_isf(&space);
        let isop = IsfMinimizer::new(MinimizerKind::Isop).minimize(&isf);
        let constrain = IsfMinimizer::new(MinimizerKind::Constrain).minimize(&isf);
        let lits = |f: &Bdd| f.isop().num_literals();
        assert!(lits(&isop) <= lits(&constrain));
    }
}
