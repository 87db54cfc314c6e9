//! Boolean relations represented by BDD characteristic functions.

use std::fmt;

use brel_bdd::{Bdd, BddManager, NodeId, PathCube, Var};

use crate::error::RelationError;
use crate::function::MultiOutputFunction;
use crate::isf::Isf;
use crate::misf::Misf;
use crate::space::RelationSpace;

/// A Boolean relation `R ⊆ 𝔹ⁿ × 𝔹ᵐ` stored as its characteristic function
/// `χR : 𝔹ⁿ⁺ᵐ → 𝔹` (Definitions 4.6 and 6.1 of the paper).
#[derive(Debug, Clone)]
pub struct BooleanRelation {
    space: RelationSpace,
    chi: Bdd,
}

impl PartialEq for BooleanRelation {
    fn eq(&self, other: &Self) -> bool {
        self.space.same_space(&other.space) && self.chi == other.chi
    }
}

impl Eq for BooleanRelation {}

impl BooleanRelation {
    /// The universal relation `𝔹ⁿ × 𝔹ᵐ` (the top of the semilattice).
    pub fn full(space: &RelationSpace) -> Self {
        BooleanRelation {
            space: space.clone(),
            chi: space.mgr().one(),
        }
    }

    /// The empty relation (not well defined).
    pub fn empty(space: &RelationSpace) -> Self {
        BooleanRelation {
            space: space.clone(),
            chi: space.mgr().zero(),
        }
    }

    /// Wraps an explicit characteristic function.
    pub fn from_characteristic(space: &RelationSpace, chi: Bdd) -> Self {
        BooleanRelation {
            space: space.clone(),
            chi,
        }
    }

    /// Builds the relation of a multiple-output *function* (the functional
    /// relation `⋀ᵢ yᵢ ≡ fᵢ(X)`).
    pub fn from_function(f: &MultiOutputFunction) -> Self {
        BooleanRelation {
            space: f.space().clone(),
            chi: f.characteristic(),
        }
    }

    /// The space of the relation.
    pub fn space(&self) -> &RelationSpace {
        &self.space
    }

    /// The characteristic function.
    pub fn characteristic(&self) -> &Bdd {
        &self.chi
    }

    /// BDD size of the characteristic function.
    pub fn size(&self) -> usize {
        self.chi.size()
    }

    /// Returns `true` if the pair `(x, y)` belongs to the relation.
    ///
    /// # Errors
    ///
    /// Returns [`RelationError::DimensionMismatch`] on arity mismatch.
    pub fn contains(&self, input: &[bool], output: &[bool]) -> Result<bool, RelationError> {
        check_width(self.space.num_inputs(), input.len())?;
        check_width(self.space.num_outputs(), output.len())?;
        let asg = self.space.full_assignment(input, output);
        Ok(self.chi.eval(&asg))
    }

    /// The output vertices related to an input vertex.
    ///
    /// # Errors
    ///
    /// Returns [`RelationError::DimensionMismatch`] on arity mismatch, or
    /// [`RelationError::TooLarge`] if the output space cannot be enumerated.
    pub fn image(&self, input: &[bool]) -> Result<Vec<Vec<bool>>, RelationError> {
        check_width(self.space.num_inputs(), input.len())?;
        if self.space.num_outputs() > 24 {
            return Err(RelationError::TooLarge {
                vars: self.space.num_outputs(),
                limit: 24,
            });
        }
        let mut out = Vec::new();
        for candidate in self.space.enumerate_outputs() {
            if self.contains(input, &candidate)? {
                out.push(candidate);
            }
        }
        Ok(out)
    }

    /// Number of `(x, y)` pairs in the relation.
    pub fn num_pairs(&self) -> u128 {
        self.chi
            .sat_count(self.space.num_inputs() + self.space.num_outputs())
    }

    /// Union of two relations over the same space.
    ///
    /// # Errors
    ///
    /// Returns [`RelationError::SpaceMismatch`] if the spaces differ.
    pub fn union(&self, other: &BooleanRelation) -> Result<BooleanRelation, RelationError> {
        if !self.space.same_space(&other.space) {
            return Err(RelationError::SpaceMismatch);
        }
        Ok(BooleanRelation {
            space: self.space.clone(),
            chi: self.chi.or(&other.chi),
        })
    }

    /// Returns `true` if `self ⊆ other`.
    ///
    /// # Errors
    ///
    /// Returns [`RelationError::SpaceMismatch`] if the spaces differ.
    pub fn is_subset_of(&self, other: &BooleanRelation) -> Result<bool, RelationError> {
        if !self.space.same_space(&other.space) {
            return Err(RelationError::SpaceMismatch);
        }
        Ok(self.chi.is_subset_of(&other.chi))
    }

    /// Well-definedness (left-totality): every input vertex has at least one
    /// related output vertex (Definition 4.6).
    pub fn is_well_defined(&self) -> bool {
        let projected = self.chi.exists(self.space.output_vars());
        projected.is_one()
    }

    /// Returns `true` if the relation is functional: every input vertex is
    /// related to exactly one output vertex.
    pub fn is_function(&self) -> bool {
        if !self.is_well_defined() {
            return false;
        }
        // Functional iff no output projection has {0,1} flexibility anywhere:
        // two distinct related outputs would differ in some output bit.
        (0..self.space.num_outputs()).all(|i| self.projection_flexible_inputs(i).is_zero())
    }

    /// Inputs whose projection onto output `i` can take both values
    /// (`(R ↓ yᵢ)(x) = {0, 1}` in the paper's notation). These are the only
    /// candidates for the `Split` operation (Theorem 5.2).
    pub fn projection_flexible_inputs(&self, output: usize) -> Bdd {
        self.can_take(output, false)
            .and(&self.can_take(output, true))
    }

    /// Projection of the relation onto output `i` as an ISF
    /// (Definition 5.1): the onset are inputs that can only map to 1, the
    /// offset those that can only map to 0, the rest is don't care.
    pub fn projection(&self, output: usize) -> Isf {
        let can0 = self.can_take(output, false);
        let can1 = self.can_take(output, true);
        let on = can1.diff(&can0);
        let dc = can1.and(&can0);
        Isf::new(&self.space, on, dc)
    }

    /// The inputs at which output `i` can take `value`:
    /// `∃ other outputs. χ|yᵢ=value`, one cofactor and one quantification
    /// under one session lock.
    fn can_take(&self, output: usize, value: bool) -> Bdd {
        let yi = self.space.output_var(output);
        let others: Vec<Var> = self
            .space
            .output_vars()
            .iter()
            .copied()
            .filter(|&v| v != yi)
            .collect();
        let chi = self.chi.node_id();
        self.space.mgr().apply(|m| {
            let slice = m.cofactor(chi, yi, value);
            m.exists_many(slice, &others)
        })
    }

    /// The MISF over-approximation of the relation obtained by projecting
    /// every output (Definition 5.2). `R ⊆ MISF_R` (Property 5.2) and no
    /// smaller MISF covers `R` (Property 5.3).
    pub fn to_misf(&self) -> Misf {
        let isfs = (0..self.space.num_outputs())
            .map(|i| self.projection(i))
            .collect();
        Misf::new(&self.space, isfs)
    }

    /// Compatibility of a multiple-output function with the relation
    /// (Definition 5.3): `F` is compatible iff the functional relation of
    /// `F` is contained in `R`.
    pub fn is_compatible(&self, f: &MultiOutputFunction) -> bool {
        f.characteristic().is_subset_of(&self.chi)
    }

    /// The incompatibility set `Incomp(F, R) = F \ R` as a characteristic
    /// function over inputs and outputs.
    pub(crate) fn incompatibility(&self, f: &MultiOutputFunction) -> Bdd {
        f.characteristic().diff(&self.chi)
    }

    /// The set of *input* vertices on which `F` conflicts with the relation
    /// (`∃Y Incomp(F, R)`, used by the split-point selection of §7.4).
    pub fn conflicting_inputs(&self, f: &MultiOutputFunction) -> Bdd {
        self.incompatibility(f).exists(self.space.output_vars())
    }

    /// The `Split` operation of Definition 5.4: removes the pair
    /// `(x, …, yᵢ = 1, …)` from one copy and `(x, …, yᵢ = 0, …)` from the
    /// other, partitioning the compatible functions of `R` (Property 5.4).
    ///
    /// Returns `(R_{x ȳᵢ}, R_{x yᵢ})`: the first component forbids `yᵢ = 1`
    /// at `x`, the second forbids `yᵢ = 0` at `x`.
    ///
    /// # Errors
    ///
    /// Returns [`RelationError::DimensionMismatch`] if `input` has the wrong
    /// arity.
    pub fn split(
        &self,
        input: &[bool],
        output: usize,
    ) -> Result<(BooleanRelation, BooleanRelation), RelationError> {
        let x = self.space.input_minterm(input)?;
        let y = self.space.output(output);
        // R_{x ȳ}: drop (x, y_i = 1); R_{x y}: drop (x, y_i = 0).
        let drop_pos = x.and(&y);
        let drop_neg = x.and(&y.complement());
        let r_neg = BooleanRelation {
            space: self.space.clone(),
            chi: self.chi.diff(&drop_pos),
        };
        let r_pos = BooleanRelation {
            space: self.space.clone(),
            chi: self.chi.diff(&drop_neg),
        };
        Ok((r_neg, r_pos))
    }

    /// Selects a split point following the heuristic of Section 7.4: take
    /// the shortest path (largest cube) of the conflicting-input set, fill
    /// its free positions with 1, and pick the first output whose projection
    /// still has `{0, 1}` flexibility at that vertex.
    ///
    /// Returns `None` if there is no conflict or no output satisfies
    /// Theorem 5.2 at the chosen vertex.
    pub fn select_split_point(&self, conflicts: &Bdd) -> Option<(Vec<bool>, usize)> {
        if conflicts.is_zero() {
            return None;
        }
        let cube: PathCube = conflicts.shortest_path()?;
        // Build the input vertex: fixed positions from the cube, 1 elsewhere.
        let input: Vec<bool> = self
            .space
            .input_vars()
            .iter()
            .map(|&v| cube.value_of(v).unwrap_or(true))
            .collect();
        let x = self.space.input_minterm(&input).ok()?;
        for i in 0..self.space.num_outputs() {
            let flexible = self.projection_flexible_inputs(i);
            if !x.and(&flexible).is_zero() {
                return Some((input, i));
            }
        }
        // Fall back: try any conflicting vertex (rare; the largest-cube
        // completion may have landed on a vertex without flexibility).
        let over_inputs = conflicts.exists(self.space.output_vars());
        let assignments = over_inputs.pick_cube()?;
        let input: Vec<bool> = self
            .space
            .input_vars()
            .iter()
            .map(|&v| assignments.value_of(v).unwrap_or(true))
            .collect();
        let x = self.space.input_minterm(&input).ok()?;
        (0..self.space.num_outputs()).find_map(|i| {
            let flexible = self.projection_flexible_inputs(i);
            if !x.and(&flexible).is_zero() {
                Some((input.clone(), i))
            } else {
                None
            }
        })
    }

    /// Constrains the relation so that output `i` implements the function
    /// `f` (over the input variables): `R ∧ (yᵢ ≡ f)`. Used by the quick
    /// solver to propagate decisions to the remaining outputs (Fig. 4).
    pub fn constrain_output(&self, output: usize, f: &Bdd) -> BooleanRelation {
        let y = self.space.output(output);
        BooleanRelation {
            space: self.space.clone(),
            chi: self.chi.and(&y.iff(f)),
        }
    }

    /// If the relation is functional, extracts the unique compatible
    /// multiple-output function.
    ///
    /// # Errors
    ///
    /// Returns [`RelationError::NotWellDefined`] if the relation is not a
    /// function.
    pub fn to_function(&self) -> Result<MultiOutputFunction, RelationError> {
        if !self.is_function() {
            return Err(RelationError::NotWellDefined);
        }
        let outputs: Vec<Bdd> = (0..self.space.num_outputs())
            .map(|i| self.projection(i).on().clone())
            .collect();
        MultiOutputFunction::new(&self.space, outputs)
    }

    /// Exports the relation's pairs as packed words, the inverse of
    /// [`BooleanRelation::from_packed`]: one word `x << m | y` per pair,
    /// component 0 of each vertex in its most significant bit, sorted and
    /// distinct. Inputs sit above outputs in every space's fixed variable
    /// order, so one low-branch-first walk of χ's paths
    /// ([`brel_bdd::BddManager::for_each_minterm`]) emits them already
    /// sorted.
    ///
    /// # Errors
    ///
    /// Returns [`RelationError::TooLarge`] if `n + m` exceeds 32.
    pub fn to_packed(&self) -> Result<Vec<u32>, RelationError> {
        let width = self.space.num_inputs() + self.space.num_outputs();
        check_word_width(width)?;
        let mut words = Vec::new();
        self.chi.for_each_minterm(width, |w| words.push(w as u32));
        Ok(words)
    }

    /// Copies `source` into `space` by structural BDD import
    /// ([`brel_bdd::BddSession::import`]): one `mk` per node of the
    /// characteristic function, no enumeration, no 16-variable ceiling.
    /// Use it when `source` is at hand — the engine's wide mode ships
    /// stolen subproblems this way. When the relation travels as data, use
    /// [`BooleanRelation::from_packed`], which costs one `mk` per node on
    /// the paths of the pair set.
    ///
    /// # Errors
    ///
    /// Returns [`RelationError::DimensionMismatch`] if the spaces
    /// disagree on the input or output arity.
    pub fn import_into(
        space: &RelationSpace,
        source: &BooleanRelation,
    ) -> Result<Self, RelationError> {
        check_width(space.num_inputs(), source.space.num_inputs())?;
        check_width(space.num_outputs(), source.space.num_outputs())?;
        Ok(BooleanRelation {
            space: space.clone(),
            chi: space.mgr().import(source.characteristic()),
        })
    }

    /// Builds a relation from packed pair words, one per `(x, y)` pair:
    /// `x << m | y` for `n` inputs and `m` outputs, each vertex packed by
    /// [`crate::vertex`]. Numeric word order is then the order of
    /// canonical rows, and the engine's portable relations are stored
    /// this way. Words may come in any order and repeat.
    ///
    /// This is the one construction of χ from data, and it is linear in
    /// the output. A word's bits run in the variable order (inputs, then
    /// outputs), so the lexicographic order of sorted words is the order
    /// of the BDD's paths. Sorted, distinct words are split as they are,
    /// with no copy; other input is sorted and deduplicated into a copy
    /// first. The words are then split recursively on one variable's bit
    /// at a time, and each split is one [`BddManager::mk`] under a single
    /// session lock: no apply-cache traffic, and every node allocated is
    /// a node of the result.
    ///
    /// # Errors
    ///
    /// Returns [`RelationError::TooLarge`] if `n + m` exceeds 32, and
    /// [`RelationError::DimensionMismatch`] if a word has a bit at or
    /// above position `n + m`.
    ///
    /// [`BddManager::mk`]: brel_bdd::BddManager::mk
    pub fn from_packed(space: &RelationSpace, words: &[u32]) -> Result<Self, RelationError> {
        let width = space.num_inputs() + space.num_outputs();
        check_word_width(width)?;
        if let Some(&wide) = words.iter().find(|&&w| u64::from(w) >> width != 0) {
            return Err(RelationError::DimensionMismatch {
                expected: width,
                found: (u32::BITS - wide.leading_zeros()) as usize,
            });
        }
        let sorted;
        let keys = if words.is_sorted_by(|a, b| a < b) {
            words
        } else {
            let mut keys = words.to_vec();
            keys.sort_unstable();
            keys.dedup();
            sorted = keys;
            &sorted
        };
        let chi = space.mgr().apply(|mgr| build_sorted(mgr, width, keys, 0));
        Ok(BooleanRelation {
            space: space.clone(),
            chi,
        })
    }
}

/// The [`RelationError::TooLarge`] check of a pair word's `n + m` bits.
pub(crate) fn check_word_width(width: usize) -> Result<(), RelationError> {
    if width > 32 {
        return Err(RelationError::TooLarge {
            vars: width,
            limit: 32,
        });
    }
    Ok(())
}

/// The [`RelationError::DimensionMismatch`] check of one arity.
fn check_width(expected: usize, found: usize) -> Result<(), RelationError> {
    if expected == found {
        Ok(())
    } else {
        Err(RelationError::DimensionMismatch { expected, found })
    }
}

/// Builds the function whose minterms are the `width`-bit `keys` (sorted,
/// distinct, and all agreeing on their bits for the variables above
/// `depth`) over the variables `depth..width`: no keys is 0, a full-depth
/// key is 1, and anything else splits on variable `depth`'s bit and joins
/// the halves with one `mk`.
fn build_sorted(mgr: &mut BddManager, width: usize, keys: &[u32], depth: usize) -> NodeId {
    if keys.is_empty() {
        return NodeId::ZERO;
    }
    if depth == width {
        return NodeId::ONE;
    }
    let shift = width - 1 - depth;
    let split = keys.partition_point(|key| key >> shift & 1 == 0);
    let lo = build_sorted(mgr, width, &keys[..split], depth + 1);
    let hi = build_sorted(mgr, width, &keys[split..], depth + 1);
    mgr.mk(Var::from(depth), lo, hi)
}

/// The table text of [`BooleanRelation::to_table`], or one summary line
/// for a space too wide to list.
impl fmt::Display for BooleanRelation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.to_table() {
            Ok(table) => f.write_str(&table),
            Err(_) => writeln!(
                f,
                "<relation over {}+{} variables, {} pairs>",
                self.space.num_inputs(),
                self.space.num_outputs(),
                self.num_pairs()
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The relation of Fig. 1a of the paper.
    fn fig1(space: &RelationSpace) -> BooleanRelation {
        BooleanRelation::from_table(space, "00 : {00}\n01 : {00}\n10 : {00, 11}\n11 : {10, 11}")
            .unwrap()
    }

    /// Reads a vertex like "10" into bits (index 0 first).
    fn bits(s: &str) -> Vec<bool> {
        s.chars().map(|c| c == '1').collect()
    }

    #[test]
    fn membership_and_image() {
        let space = RelationSpace::new(2, 2);
        let r = fig1(&space);
        assert!(r.contains(&bits("10"), &bits("11")).unwrap());
        assert!(!r.contains(&bits("10"), &bits("10")).unwrap());
        let image = r.image(&bits("10")).unwrap();
        assert_eq!(image.len(), 2);
        assert_eq!(r.num_pairs(), 6);
    }

    #[test]
    fn well_definedness_and_functionality() {
        let space = RelationSpace::new(2, 2);
        let r = fig1(&space);
        assert!(r.is_well_defined());
        assert!(!r.is_function());
        // Removing all outputs of vertex 00 breaks left-totality.
        let x00 = space.input_minterm(&bits("00")).unwrap();
        let broken = BooleanRelation::from_characteristic(&space, r.characteristic().diff(&x00));
        assert!(!broken.is_well_defined());
        assert!(!broken.is_function());
    }

    #[test]
    fn functional_relation_round_trip() {
        let space = RelationSpace::new(2, 2);
        let a = space.input(0);
        let b = space.input(1);
        let f = MultiOutputFunction::new(&space, vec![a.and(&b), a.xor(&b)]).unwrap();
        let r = BooleanRelation::from_function(&f);
        assert!(r.is_function());
        assert!(r.is_well_defined());
        let back = r.to_function().unwrap();
        assert_eq!(back.output(0), f.output(0));
        assert_eq!(back.output(1), f.output(1));
    }

    #[test]
    fn projection_matches_paper_example() {
        // Example 5.1 of the paper: projections of the Fig. 1a relation.
        let space = RelationSpace::new(2, 2);
        let r = fig1(&space);
        let p0 = r.projection(0); // output y1 in the paper
                                  // y1: 00 -> 0, 01 -> 0, 10 -> {0,1}, 11 -> 1
        assert_eq!(p0.values_at(&bits("00")).unwrap(), (true, false));
        assert_eq!(p0.values_at(&bits("01")).unwrap(), (true, false));
        assert_eq!(p0.values_at(&bits("10")).unwrap(), (true, true));
        assert_eq!(p0.values_at(&bits("11")).unwrap(), (false, true));
        let p1 = r.projection(1); // output y2
                                  // y2: 00 -> 0, 01 -> 0, 10 -> {0,1}, 11 -> {0,1}
        assert_eq!(p1.values_at(&bits("10")).unwrap(), (true, true));
        assert_eq!(p1.values_at(&bits("11")).unwrap(), (true, true));
    }

    #[test]
    fn projection_helper_matches_the_conjoin_and_quantify_formula() {
        // A SplitMix64 stream picks random pair sets over 1..=4 inputs and
        // 1..=3 outputs; each output vertex joins a row with probability 3/8.
        let mut state = 0x9e37_u64;
        let mut next = move || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        for round in 0..120 {
            let (ni, no) = (1 + round % 4, 1 + round % 3);
            let space = RelationSpace::new(ni, no);
            let mut words = Vec::new();
            for x in 0..1u32 << ni {
                for y in 0..1u32 << no {
                    if next() % 8 < 3 {
                        words.push(x << no | y);
                    }
                }
            }
            let r = BooleanRelation::from_packed(&space, &words).unwrap();
            for i in 0..no {
                let yi = space.output_var(i);
                let others: Vec<Var> = space
                    .output_vars()
                    .iter()
                    .copied()
                    .filter(|&v| v != yi)
                    .collect();
                for value in [false, true] {
                    let literal = if value {
                        space.output(i)
                    } else {
                        space.output(i).complement()
                    };
                    let formula = r.chi.and(&literal).exists(&others).exists(&[yi]);
                    assert_eq!(r.can_take(i, value), formula, "round {round}");
                }
            }
        }
    }

    #[test]
    fn misf_overapproximates_and_is_tightest() {
        let space = RelationSpace::new(2, 2);
        let r = fig1(&space);
        let misf = r.to_misf();
        let misf_rel = misf.to_relation();
        // Property 5.2: R ⊆ MISF_R.
        assert!(r.is_subset_of(&misf_rel).unwrap());
        // Example 5.2: MISF_R relates 10 to all four output vertices.
        assert_eq!(misf_rel.image(&bits("10")).unwrap().len(), 4);
        // The projections of MISF_R equal the projections of R (Property 5.3).
        for i in 0..2 {
            assert_eq!(misf_rel.projection(i).on(), r.projection(i).on());
            assert_eq!(misf_rel.projection(i).dc(), r.projection(i).dc());
        }
    }

    #[test]
    fn compatibility_and_incompatibility() {
        let space = RelationSpace::new(2, 2);
        let r = fig1(&space);
        let a = space.input(0);
        let b = space.input(1);
        // Fig. 1b: y1 = a·b, y2 = 0  — compatible.
        let good = MultiOutputFunction::new(&space, vec![a.and(&b), space.mgr().zero()]).unwrap();
        assert!(r.is_compatible(&good));
        assert!(r.incompatibility(&good).is_zero());
        // Example 5.4: y1 = a, y2 = 0  maps 10 → 10 which is not in R(10).
        let bad = MultiOutputFunction::new(&space, vec![a.clone(), space.mgr().zero()]).unwrap();
        assert!(!r.is_compatible(&bad));
        let incomp = r.incompatibility(&bad);
        let asg = space.full_assignment(&bits("10"), &bits("10"));
        assert!(incomp.eval(&asg));
        assert_eq!(incomp.sat_count(4), 1);
        let conflicts = r.conflicting_inputs(&bad);
        assert_eq!(conflicts.sat_count(4) >> space.num_outputs(), 1);
    }

    #[test]
    fn split_partitions_compatible_functions() {
        // Example 5.5: split on vertex 10 and output y1.
        let space = RelationSpace::new(2, 2);
        let r = fig1(&space);
        let (r_neg, r_pos) = r.split(&bits("10"), 0).unwrap();
        assert!(r_neg.is_well_defined());
        assert!(r_pos.is_well_defined());
        // Both are strict subsets of R.
        assert!(r_neg.is_subset_of(&r).unwrap());
        assert!(r_pos.is_subset_of(&r).unwrap());
        assert!(r_neg != r && r_pos != r);
        // Their union is R and their images at 10 are disjoint.
        assert_eq!(r_neg.union(&r_pos).unwrap(), r);
        let im_neg = r_neg.image(&bits("10")).unwrap();
        let im_pos = r_pos.image(&bits("10")).unwrap();
        assert!(im_neg.iter().all(|y| !im_pos.contains(y)));
        // R_{x ȳ1} keeps only 00 at vertex 10; R_{x y1} keeps only 11.
        assert_eq!(im_neg, vec![bits("00")]);
        assert_eq!(im_pos, vec![bits("11")]);
    }

    #[test]
    fn split_on_vertex_without_flexibility_is_not_well_defined() {
        // Example 5.6: splitting 11 on y1 gives a non-well-defined branch.
        let space = RelationSpace::new(2, 2);
        let r = fig1(&space);
        let (r_neg, r_pos) = r.split(&bits("11"), 0).unwrap();
        assert!(!r_neg.is_well_defined(), "y1 cannot take 0 at vertex 11");
        assert!(r_pos.is_well_defined());
        assert_eq!(r_pos, r, "the other branch is R itself");
    }

    #[test]
    fn select_split_point_picks_flexible_vertex() {
        let space = RelationSpace::new(2, 2);
        let r = fig1(&space);
        let a = space.input(0);
        let bad = MultiOutputFunction::new(&space, vec![a.clone(), space.mgr().zero()]).unwrap();
        let conflicts = r.conflicting_inputs(&bad);
        let (vertex, output) = r.select_split_point(&conflicts).expect("conflict exists");
        assert_eq!(vertex, bits("10"));
        // Both outputs have flexibility at 10; the first is picked.
        assert_eq!(output, 0);
        // No conflicts → no split point.
        assert!(r.select_split_point(&space.mgr().zero()).is_none());
    }

    #[test]
    fn constrain_output_propagates_choice() {
        let space = RelationSpace::new(2, 2);
        let r = fig1(&space);
        let a = space.input(0);
        let b = space.input(1);
        // Force y1 = a·b; vertex 10 must now map to 00 only.
        let constrained = r.constrain_output(0, &a.and(&b));
        assert!(constrained.is_well_defined());
        assert_eq!(constrained.image(&bits("10")).unwrap(), vec![bits("00")]);
    }

    #[test]
    fn union_subset_and_space_mismatch() {
        let space = RelationSpace::new(2, 2);
        let r = fig1(&space);
        let empty = BooleanRelation::empty(&space);
        assert_eq!(r.union(&empty).unwrap(), r);
        assert!(empty.is_subset_of(&r).unwrap());
        let other_space = RelationSpace::new(2, 2);
        let other = BooleanRelation::full(&other_space);
        assert!(r.union(&other).is_err());
        assert!(r.is_subset_of(&other).is_err());
    }

    #[test]
    fn packed_round_trip_is_exact() {
        let space = RelationSpace::new(2, 2);
        let r = fig1(&space);
        let words = r.to_packed().unwrap();
        assert_eq!(words, [0b0000, 0b0100, 0b1000, 0b1011, 0b1110, 0b1111]);
        // Rehydrating into a *fresh* space (new BDD manager) preserves the
        // relation: same words, same pair count.
        let fresh = RelationSpace::new(2, 2);
        let back = BooleanRelation::from_packed(&fresh, &words).unwrap();
        assert_eq!(back.num_pairs(), r.num_pairs());
        assert_eq!(back.to_packed().unwrap(), words);
        // Round-tripping within the same space is the identity, and so is
        // building from the words reversed and repeated.
        assert_eq!(BooleanRelation::from_packed(&space, &words).unwrap(), r);
        let mut shuffled: Vec<u32> = words.iter().rev().copied().collect();
        shuffled.extend_from_slice(&words[..2]);
        assert_eq!(BooleanRelation::from_packed(&space, &shuffled).unwrap(), r);
        // A not-well-defined relation survives too.
        let broken = BooleanRelation::from_packed(&space, &[0b1101]).unwrap();
        assert!(!broken.is_well_defined());
        assert_eq!(
            BooleanRelation::from_packed(&space, &broken.to_packed().unwrap()).unwrap(),
            broken
        );
        // A bit above the space is a DimensionMismatch, a space beyond one
        // word is TooLarge.
        assert_eq!(
            BooleanRelation::from_packed(&space, &[0b1_0000]),
            Err(RelationError::DimensionMismatch {
                expected: 4,
                found: 5
            })
        );
        let wide = RelationSpace::new(17, 16);
        let too_large = RelationError::TooLarge {
            vars: 33,
            limit: 32,
        };
        assert_eq!(
            BooleanRelation::from_packed(&wide, &[]).unwrap_err(),
            too_large
        );
        assert_eq!(
            BooleanRelation::full(&wide).to_packed().unwrap_err(),
            too_large
        );
    }

    #[test]
    fn display_lists_rows() {
        let space = RelationSpace::new(2, 2);
        let r = fig1(&space);
        let text = r.to_string();
        assert!(text.contains("10 : {00, 11}"));
        assert!(text.contains("11 : {10, 11}"));
    }
}
