//! Boolean relations represented by BDD characteristic functions.

use std::fmt;

use brel_bdd::{Bdd, BddManager, NodeId, PathCube, Var};

use crate::error::RelationError;
use crate::function::MultiOutputFunction;
use crate::isf::Isf;
use crate::misf::Misf;
use crate::space::RelationSpace;

/// One tabular row of a relation: an input vertex and the set of output
/// vertices it is related to.
pub type RelationRow = (Vec<bool>, Vec<Vec<bool>>);

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

    /// Builds a relation from explicit `(input vertex, output vertex)` pairs,
    /// in any order and possibly repeated, the same way as
    /// [`BooleanRelation::from_rows`].
    ///
    /// # Errors
    ///
    /// Returns [`RelationError::DimensionMismatch`] if any vertex has the
    /// wrong arity.
    pub fn from_pairs(
        space: &RelationSpace,
        pairs: &[(Vec<bool>, Vec<bool>)],
    ) -> Result<Self, RelationError> {
        Self::build(
            space,
            pairs
                .iter()
                .map(|(x, y)| (x.as_slice(), std::slice::from_ref(y))),
        )
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

    /// Exports the relation as owned [`RelationRow`]s — the tabular
    /// representation used throughout the paper's examples — and the
    /// inverse of [`BooleanRelation::from_rows`]. Rows are emitted for
    /// every input vertex in enumeration order (rows with an empty image
    /// mark inputs on which the relation is not well defined), so
    /// `from_rows(space, &r.to_rows()?)` reconstructs `r` exactly. This is
    /// the serialization boundary used to move relations across BDD
    /// managers (and threads).
    ///
    /// # Errors
    ///
    /// Returns [`RelationError::TooLarge`] if the space cannot be
    /// enumerated exhaustively.
    pub fn to_rows(&self) -> Result<Vec<RelationRow>, RelationError> {
        if self.space.num_inputs() > 16 || self.space.num_outputs() > 16 {
            return Err(RelationError::TooLarge {
                vars: self.space.num_inputs().max(self.space.num_outputs()),
                limit: 16,
            });
        }
        let mut rows = Vec::new();
        for input in self.space.enumerate_inputs() {
            let image = self.image(&input)?;
            rows.push((input, image));
        }
        Ok(rows)
    }

    /// Copies `source` into `space` by structural BDD import
    /// ([`brel_bdd::BddSession::import`]): one `mk` per node of the
    /// characteristic function, no enumeration, no 16-variable ceiling.
    /// Use it when `source` is at hand and both sessions order their
    /// variables identically — the engine's wide mode ships stolen
    /// subproblems this way. When the relation travels as data, or the
    /// orders may differ, use [`BooleanRelation::from_rows`], which costs
    /// one `mk` per node on the paths of the pair set.
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

    /// Builds a relation from `(input vertex, output vertices)` rows, the
    /// inverse of [`BooleanRelation::to_rows`]. Rows with an empty image
    /// contribute no pairs; missing input vertices are simply unrelated.
    /// Rows may come in any order and repeat inputs or pairs.
    ///
    /// χ is built bottom-up in the session's current variable order, with
    /// no apply operations and no garbage, so rows are the way to move a
    /// relation between processes, threads or differently ordered
    /// sessions. Between two sessions with the same order,
    /// [`BooleanRelation::import_into`] skips the rows altogether.
    ///
    /// # Errors
    ///
    /// Returns [`RelationError::DimensionMismatch`] if any vertex has the
    /// wrong arity.
    pub fn from_rows(space: &RelationSpace, rows: &[RelationRow]) -> Result<Self, RelationError> {
        Self::build(
            space,
            rows.iter()
                .map(|(input, outputs)| (input.as_slice(), outputs.as_slice())),
        )
    }

    /// The one construction path behind [`BooleanRelation::from_rows`] and
    /// [`BooleanRelation::from_pairs`]: builds χ bottom-up from
    /// `(input, image)` rows with one `mk` per distinct prefix of the
    /// pair set, so the cost is linear in the output.
    ///
    /// Every vertex width is checked before any node is built. Each pair
    /// then becomes a packed key whose bits follow the session's current
    /// level order (bit 0 is the topmost variable, stored at the MSB of
    /// word 0), so lexicographic key order is the order of the BDD's
    /// paths. The sorted, deduplicated keys are split recursively on one
    /// level's bit at a time, and each split is one [`BddManager::mk`]
    /// under a single session lock: no apply-cache traffic, and every
    /// node allocated is a node of the result.
    ///
    /// [`BddManager::mk`]: brel_bdd::BddManager::mk
    fn build<'a, I>(space: &RelationSpace, rows: I) -> Result<Self, RelationError>
    where
        I: Iterator<Item = (&'a [bool], &'a [Vec<bool>])> + Clone,
    {
        let (inputs, outputs) = (space.input_vars(), space.output_vars());
        let mut num_pairs = 0;
        for (input, images) in rows.clone() {
            check_width(inputs.len(), input.len())?;
            for output in images {
                check_width(outputs.len(), output.len())?;
            }
            num_pairs += images.len();
        }
        // Levels are read under the same lock the build holds: a reorder
        // only runs at a safe point, never while the lock is held.
        let chi = space.mgr().apply(|mgr| {
            let mut by_level: Vec<Var> = inputs.iter().chain(outputs).copied().collect();
            by_level.sort_unstable_by_key(|&v| mgr.var_level(v));
            let mut bit_of = vec![0; mgr.num_vars()];
            for (bit, v) in by_level.iter().enumerate() {
                bit_of[v.index()] = bit;
            }
            // At least one word, so a space with no variables still has keys.
            let words = by_level.len().div_ceil(64).max(1);
            let mut keys = vec![0u64; num_pairs * words];
            let mut chunks = keys.chunks_exact_mut(words);
            for (input, images) in rows {
                for output in images {
                    let key = chunks.next().expect("one key per pair");
                    let bits = inputs.iter().zip(input).chain(outputs.iter().zip(output));
                    for (v, _) in bits.filter(|&(_, &b)| b) {
                        let bit = bit_of[v.index()];
                        key[bit / 64] |= 1 << (63 - bit % 64);
                    }
                }
            }
            let mut sorted: Vec<&[u64]> = keys.chunks_exact(words).collect();
            sorted.sort_unstable();
            sorted.dedup();
            build_sorted(mgr, &by_level, &sorted, 0)
        });
        Ok(BooleanRelation {
            space: space.clone(),
            chi,
        })
    }
}

/// The [`RelationError::DimensionMismatch`] check of one arity.
fn check_width(expected: usize, found: usize) -> Result<(), RelationError> {
    if expected == found {
        Ok(())
    } else {
        Err(RelationError::DimensionMismatch { expected, found })
    }
}

/// Builds the function whose minterms are `keys` (sorted, distinct, and
/// all agreeing on their first `depth` bits) over the variables
/// `by_level[depth..]`: no keys is 0, a full-depth key is 1, and anything
/// else splits on bit `depth` and joins the halves with one `mk`.
fn build_sorted(mgr: &mut BddManager, by_level: &[Var], keys: &[&[u64]], depth: usize) -> NodeId {
    if keys.is_empty() {
        return NodeId::ZERO;
    }
    if depth == by_level.len() {
        return NodeId::ONE;
    }
    let mask = 1 << (63 - depth % 64);
    let split = keys.partition_point(|key| key[depth / 64] & mask == 0);
    let lo = build_sorted(mgr, by_level, &keys[..split], depth + 1);
    let hi = build_sorted(mgr, by_level, &keys[split..], depth + 1);
    mgr.mk(by_level[depth], lo, hi)
}

impl fmt::Display for BooleanRelation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.to_rows() {
            Ok(rows) => {
                for (input, outputs) in rows {
                    let x: String = input.iter().map(|&b| if b { '1' } else { '0' }).collect();
                    let ys: Vec<String> = outputs
                        .iter()
                        .map(|o| o.iter().map(|&b| if b { '1' } else { '0' }).collect())
                        .collect();
                    writeln!(f, "{x} : {{{}}}", ys.join(", "))?;
                }
                Ok(())
            }
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
        BooleanRelation::from_pairs(
            space,
            &[
                (vec![false, false], vec![false, false]),
                (vec![false, true], vec![false, false]),
                (vec![true, false], vec![false, false]),
                (vec![true, false], vec![true, true]),
                (vec![true, true], vec![true, false]),
                (vec![true, true], vec![true, true]),
            ],
        )
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
        let vertex = |bits: usize, width: usize| (0..width).map(|i| bits & (1 << i) != 0).collect();
        for round in 0..120 {
            let (ni, no) = (1 + round % 4, 1 + round % 3);
            let space = RelationSpace::new(ni, no);
            let mut pairs = Vec::new();
            for x in 0..(1usize << ni) {
                for y in 0..(1usize << no) {
                    if next() % 8 < 3 {
                        pairs.push((vertex(x, ni), vertex(y, no)));
                    }
                }
            }
            let r = BooleanRelation::from_pairs(&space, &pairs).unwrap();
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
    fn rows_round_trip_is_exact() {
        let space = RelationSpace::new(2, 2);
        let r = fig1(&space);
        let rows = r.to_rows().unwrap();
        assert_eq!(rows.len(), 4, "one row per input vertex");
        // Rehydrating into a *fresh* space (new BDD manager) preserves the
        // relation semantically: same table, same pair count.
        let fresh = RelationSpace::new(2, 2);
        let back = BooleanRelation::from_rows(&fresh, &rows).unwrap();
        assert_eq!(back.num_pairs(), r.num_pairs());
        assert_eq!(back.to_rows().unwrap(), rows);
        // Round-tripping within the same space is the identity.
        assert_eq!(BooleanRelation::from_rows(&space, &rows).unwrap(), r);
        // A not-well-defined relation survives too: empty images round-trip.
        let broken = BooleanRelation::from_rows(
            &space,
            &[(bits("00"), vec![]), (bits("11"), vec![bits("01")])],
        )
        .unwrap();
        assert!(!broken.is_well_defined());
        assert_eq!(
            BooleanRelation::from_rows(&space, &broken.to_rows().unwrap()).unwrap(),
            broken
        );
        // Arity errors surface as DimensionMismatch.
        assert!(BooleanRelation::from_rows(&space, &[(bits("0"), vec![])]).is_err());
        assert!(BooleanRelation::from_rows(&space, &[(bits("00"), vec![bits("010")])]).is_err());
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
