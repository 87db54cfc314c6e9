//! Symmetry pruning of the branch-and-bound exploration (Section 7.7).
//!
//! Two subrelations that only differ by a permutation of output variables in
//! which the original relation is symmetric lead to solutions of equal cost
//! (with any of the BDD-based cost functions), so only one of them needs to
//! be explored. BREL keeps a cache of the characteristic functions of the
//! relations already processed and skips a new relation when a symmetric
//! variant is in the cache.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

use brel_bdd::Bdd;
use brel_relation::{vertex, BooleanRelation};

/// A cache of already-explored relations with output-symmetry lookups.
///
/// The cache holds rooted [`Bdd`] handles rather than raw node ids: an
/// explored subrelation may be dropped by the solver, and with a
/// garbage-collecting kernel its reclaimed node id could be recycled for
/// an unrelated function — a raw-id set would then report a false
/// symmetric hit and wrongly prune a branch. Rooting the characteristic
/// functions pins them (and their ids) for the cache's lifetime; lookups
/// are a linear scan over handle equality. The cache is bounded by the
/// exploration budget, so the scan stays short.
#[derive(Debug, Default)]
pub struct SymmetryCache {
    seen: Vec<Bdd>,
    hits: usize,
}

impl SymmetryCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        SymmetryCache::default()
    }

    /// Number of relations skipped thanks to a symmetric hit.
    pub fn hits(&self) -> usize {
        self.hits
    }

    /// Number of distinct relations recorded.
    pub fn len(&self) -> usize {
        self.seen.len()
    }

    /// Returns `true` if no relation has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.seen.is_empty()
    }

    /// Records `relation` and reports whether an output-permuted variant of
    /// it had already been recorded. Only first-order output symmetries
    /// (single swaps of two output variables) are considered, matching the
    /// implementation choices described in the paper.
    ///
    /// A relation equal to a recorded one is not looked for: in the solver
    /// it cannot occur. Two distinct nodes of the split tree differ at
    /// their last common ancestor's split on `(x, yᵢ)` — one forbids
    /// `yᵢ = 1` at `x`, the other `yᵢ = 0` — so they could only be equal
    /// if both had an empty image at `x`, which Theorem 5.2 rules out.
    pub fn check_and_insert(&mut self, relation: &BooleanRelation) -> bool {
        let chi = relation.characteristic();
        let outputs = relation.space().output_vars();
        for i in 0..outputs.len() {
            for j in (i + 1)..outputs.len() {
                let swapped = chi.swap_vars(outputs[i], outputs[j]);
                if swapped != *chi && self.seen.contains(&swapped) {
                    self.hits += 1;
                    self.seen.push(chi.clone());
                    return true;
                }
            }
        }
        self.seen.push(chi.clone());
        false
    }
}

/// The input-support mask of a relation given as sorted, distinct pair
/// words `x << num_outputs | y`, component 0 of each vertex in its most
/// significant bit (the form `brel_engine::RelationSpec` stores): bit `i`
/// is set iff the relation actually depends on input `i`. Input `i` is
/// *non-support* when every pair of input vertices differing only in bit
/// `i` has the same image (a missing vertex counts as an empty image);
/// such a column is noise for caching purposes — two subrelations equal
/// up to irrelevant input columns solve identically.
///
/// Each input vertex's image is one run of the sorted words, so a binary
/// search finds every flipped partner.
///
/// # Panics
///
/// Panics if `num_inputs + num_outputs` exceeds 32.
pub fn input_support_mask(num_inputs: usize, num_outputs: usize, pairs: &[u32]) -> u64 {
    assert!(
        num_inputs + num_outputs <= 32,
        "pair words hold at most 32 bits"
    );
    debug_assert!(
        pairs.is_sorted_by(|a, b| a < b),
        "pairs must be sorted and distinct"
    );
    let x_of = |w: &u32| u64::from(*w) >> num_outputs;
    let image = |x: u64| {
        let start = pairs.partition_point(|w| x_of(w) < x);
        let len = pairs[start..].partition_point(|w| x_of(w) == x);
        &pairs[start..start + len]
    };
    let y_mask = (1u64 << num_outputs) - 1;
    let mut mask = 0;
    for i in 0..num_inputs {
        let flip = u64::from(vertex::component(i, num_inputs));
        // A missing partner has the empty image, which no present input has.
        let depends = pairs.chunk_by(|a, b| x_of(a) == x_of(b)).any(|run| {
            let partner = image(x_of(&run[0]) ^ flip);
            !run.iter()
                .map(|&w| u64::from(w) & y_mask)
                .eq(partner.iter().map(|&w| u64::from(w) & y_mask))
        });
        if depends {
            mask |= 1 << i;
        }
    }
    mask
}

/// Keeps the components of the packed `width`-wide vertex `x` whose bit is
/// set in the input mask `mask`, packed in the same order.
fn project(x: u64, width: usize, mask: u64) -> u64 {
    (0..width)
        .filter(|&i| mask >> i & 1 == 1)
        .fold(0, |acc, i| {
            acc << 1 | u64::from(x & u64::from(vertex::component(i, width)) != 0)
        })
}

/// A 64-bit fingerprint of a relation given as sorted, distinct pair
/// words (see [`input_support_mask`]), invariant under irrelevant input
/// columns: non-support input columns are projected away (the support
/// mask itself stays part of the fingerprint, so relations that ignore
/// *different* columns do not collide), and the result is hashed together
/// with the space dimensions. Row order, duplicate pairs and image order
/// already vanished when the words were sorted. The engine keys its
/// cross-job solved-subrelation cache on this value.
///
/// When every input is support the words are hashed as they are;
/// otherwise one sort and dedup of the projected words merges the rows
/// that differed only in non-support columns.
///
/// # Panics
///
/// Panics if `num_inputs + num_outputs` exceeds 32.
pub fn relation_fingerprint(num_inputs: usize, num_outputs: usize, pairs: &[u32]) -> u64 {
    let mask = input_support_mask(num_inputs, num_outputs, pairs);
    let mut hasher = DefaultHasher::new();
    num_inputs.hash(&mut hasher);
    num_outputs.hash(&mut hasher);
    mask.hash(&mut hasher);
    if mask == (1 << num_inputs) - 1 {
        pairs.hash(&mut hasher);
    } else {
        let y_mask = (1u64 << num_outputs) - 1;
        let mut projected: Vec<u32> = pairs
            .iter()
            .map(|&w| {
                let (x, y) = (u64::from(w) >> num_outputs, u64::from(w) & y_mask);
                (project(x, num_inputs, mask) << num_outputs | y) as u32
            })
            .collect();
        projected.sort_unstable();
        projected.dedup();
        projected.hash(&mut hasher);
    }
    hasher.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use brel_relation::RelationSpace;

    #[test]
    fn detects_output_swapped_relation() {
        // In the spirit of Fig. 8a: a 1-input, 2-output relation symmetric in
        // (x, y) whose split children are output-permuted images of each other.
        let space = RelationSpace::with_names(&["a"], &["x", "y"]);
        let r = BooleanRelation::from_table(&space, "0 : {01, 10}\n1 : {11}").unwrap();
        // Split on vertex 0 and output x: the two children are symmetric to
        // each other under swapping x and y.
        let (r_neg, r_pos) = r.split(&[false], 0).unwrap();
        let mut cache = SymmetryCache::new();
        assert!(!cache.check_and_insert(&r_neg));
        assert!(
            cache.check_and_insert(&r_pos),
            "symmetric variant already explored"
        );
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.len(), 2);
    }

    /// Sorted, distinct pair words of `(input, output)` bit strings,
    /// component 0 first.
    fn words(num_outputs: usize, pairs: &[(&str, &str)]) -> Vec<u32> {
        let bits = |text: &str| vertex::parse(text).unwrap();
        let mut words: Vec<u32> = pairs
            .iter()
            .map(|(x, y)| bits(x) << num_outputs | bits(y))
            .collect();
        words.sort_unstable();
        words.dedup();
        words
    }

    #[test]
    fn support_mask_spots_irrelevant_input_columns() {
        // R over (x0, x1): image depends on x1 only.
        let rows = words(1, &[("00", "0"), ("10", "0"), ("01", "1"), ("11", "1")]);
        assert_eq!(input_support_mask(2, 1, &rows), 0b10);
        // Making the images differ across x0 flips bit 0 on.
        let dependent = words(1, &[("00", "0"), ("10", "1"), ("01", "0"), ("11", "1")]);
        assert_eq!(input_support_mask(2, 1, &dependent), 0b01);
        // A vertex with pairs whose flipped partner has none: that column
        // is support too (missing means empty image, not "don't know").
        let partial = words(1, &[("00", "0")]);
        assert_eq!(input_support_mask(2, 1, &partial), 0b11);
    }

    #[test]
    fn fingerprint_separates_relations() {
        let base = words(
            1,
            &[
                ("00", "0"),
                ("00", "1"),
                ("10", "1"),
                ("01", "0"),
                ("11", "1"),
            ],
        );
        let fp = relation_fingerprint(2, 1, &base);
        assert_eq!(relation_fingerprint(2, 1, &base.clone()), fp);
        // A genuinely different relation: different print.
        let other = words(1, &[("00", "0"), ("10", "1"), ("01", "0"), ("11", "1")]);
        assert_ne!(relation_fingerprint(2, 1, &other), fp);
        // The same words over other widths: different print.
        assert_ne!(relation_fingerprint(1, 2, &base), fp);
    }

    #[test]
    fn fingerprint_normalizes_support_but_keeps_the_mask() {
        // R ignores x0; S is the same relation over x1 alone.
        let wide = words(1, &[("00", "0"), ("10", "0"), ("01", "1"), ("11", "1")]);
        // The same projected rows with a *different* irrelevant column must
        // not collide: the mask participates in the hash.
        let wide_other = words(1, &[("00", "0"), ("01", "0"), ("10", "1"), ("11", "1")]);
        assert_ne!(
            relation_fingerprint(2, 1, &wide),
            relation_fingerprint(2, 1, &wide_other)
        );
    }

    #[test]
    fn asymmetric_relations_are_kept_separate() {
        let space = RelationSpace::new(1, 2);
        let r1 = BooleanRelation::from_table(&space, "0 : {01}\n1 : {01}").unwrap();
        let r2 = BooleanRelation::from_table(&space, "0 : {00}\n1 : {11}").unwrap();
        let mut cache = SymmetryCache::new();
        assert!(!cache.check_and_insert(&r1));
        assert!(!cache.check_and_insert(&r2));
        assert_eq!(cache.hits(), 0);
    }
}
