//! Multiple-output incompletely specified functions (MISF).

use crate::function::MultiOutputFunction;
use crate::isf::Isf;
use crate::relation::BooleanRelation;
use crate::space::RelationSpace;

/// A multiple-output ISF: one [`Isf`] per output over a shared input space
/// (Definition 4.5 of the paper).
///
/// An MISF is exactly the class of relations whose flexibility is
/// expressible with per-output don't cares; the BREL solver repeatedly
/// over-approximates a relation by its MISF ([`BooleanRelation::to_misf`])
/// and minimizes the MISF output by output.
#[derive(Debug, Clone)]
pub struct Misf {
    space: RelationSpace,
    outputs: Vec<Isf>,
}

impl Misf {
    /// Bundles per-output ISFs into an MISF.
    ///
    /// # Panics
    ///
    /// Panics if the number of ISFs differs from the number of outputs of
    /// the space.
    pub fn new(space: &RelationSpace, outputs: Vec<Isf>) -> Self {
        assert_eq!(
            outputs.len(),
            space.num_outputs(),
            "one ISF per output is required"
        );
        Misf {
            space: space.clone(),
            outputs,
        }
    }

    /// The space of the MISF.
    pub fn space(&self) -> &RelationSpace {
        &self.space
    }

    /// The per-output ISFs.
    pub fn outputs(&self) -> &[Isf] {
        &self.outputs
    }

    /// The ISF of output `i`.
    pub fn output(&self, i: usize) -> &Isf {
        &self.outputs[i]
    }

    /// The characteristic function of the MISF seen as a Boolean relation
    /// (Definition 4.8): the natural join over the inputs of the per-output
    /// relations `Fyᵢ`.
    pub fn to_relation(&self) -> BooleanRelation {
        let mut chi = self.space.mgr().one();
        for (i, isf) in self.outputs.iter().enumerate() {
            let y = self.space.output(i);
            // (x, 1) ∈ Fy iff f(x) ∈ {1, -} ; (x, 0) ∈ Fy iff f(x) ∈ {0, -}.
            let allow1 = isf.upper();
            let allow0 = isf.on().complement();
            let fy = y.and(&allow1).or(&y.complement().and(&allow0));
            chi = chi.and(&fy);
        }
        BooleanRelation::from_characteristic(&self.space, chi)
    }

    /// Returns `true` if the multiple-output function implements every
    /// output interval.
    pub fn admits(&self, f: &MultiOutputFunction) -> bool {
        self.outputs
            .iter()
            .zip(f.outputs())
            .all(|(isf, g)| isf.admits(g))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bits(s: &str) -> Vec<bool> {
        s.chars().map(|c| c == '1').collect()
    }

    /// The implementation that picks the onset of each output (don't cares
    /// resolved to 0).
    fn onset_implementation(misf: &Misf) -> MultiOutputFunction {
        let outputs = misf.outputs().iter().map(|isf| isf.on().clone()).collect();
        MultiOutputFunction::new(misf.space(), outputs).unwrap()
    }

    /// The two ISFs of Example 4.1 of the paper (over two inputs):
    /// fy1: 00→1, 01→-, 10→0, 11→1 ; fy2: 00→0, 01→1, 10→-, 11→-.
    fn example41(space: &RelationSpace) -> Misf {
        let m = |s: &str| space.input_minterm(&bits(s)).unwrap();
        let on1 = m("00").or(&m("11"));
        let dc1 = m("01");
        let on2 = m("01");
        let dc2 = m("10").or(&m("11"));
        Misf::new(
            space,
            vec![Isf::new(space, on1, dc1), Isf::new(space, on2, dc2)],
        )
    }

    #[test]
    fn misf_as_relation_matches_example_41() {
        let space = RelationSpace::new(2, 2);
        let misf = example41(&space);
        let rel = misf.to_relation();
        // From the paper: 00 → {10}? No — outputs are (y1, y2):
        // 00 → y1=1, y2=0 → {10}; 01 → y1∈{1,-}→{0,1}, y2=1 → {01, 11};
        // 10 → y1=0, y2∈{0,1} → {00, 01}; 11 → y1=1, y2∈{0,1} → {10, 11}.
        assert_eq!(rel.image(&bits("00")).unwrap(), vec![bits("10")]);
        assert_eq!(rel.image(&bits("01")).unwrap().len(), 2);
        assert_eq!(rel.image(&bits("10")).unwrap().len(), 2);
        assert_eq!(rel.image(&bits("11")).unwrap().len(), 2);
        assert!(rel.is_well_defined());
    }

    #[test]
    fn admits_checks_every_output() {
        let space = RelationSpace::new(2, 2);
        let misf = example41(&space);
        let good = onset_implementation(&misf);
        assert!(misf.admits(&good));
        // An implementation violating output 0 at vertex 10 (must be 0).
        let bad = MultiOutputFunction::new(&space, vec![space.mgr().one(), good.output(1).clone()])
            .unwrap();
        assert!(!misf.admits(&bad));
    }

    #[test]
    fn onset_implementation_is_compatible_with_relation() {
        let space = RelationSpace::new(2, 2);
        let misf = example41(&space);
        let rel = misf.to_relation();
        let f = onset_implementation(&misf);
        assert!(rel.is_compatible(&f));
    }

    #[test]
    fn misf_of_a_relation_is_itself_when_dc_expressible() {
        // A relation that *is* an MISF: its MISF over-approximation is equal.
        let space = RelationSpace::new(2, 2);
        let misf = example41(&space);
        let rel = misf.to_relation();
        let again = rel.to_misf().to_relation();
        assert_eq!(rel, again);
    }

    #[test]
    #[should_panic]
    fn wrong_arity_panics() {
        let space = RelationSpace::new(2, 2);
        let on = space.mgr().zero();
        let isf = Isf::new(&space, on.clone(), on);
        let _ = Misf::new(&space, vec![isf]);
    }
}
