//! Symmetry pruning of the branch-and-bound exploration (Section 7.7).
//!
//! Two subrelations that only differ by a permutation of output variables in
//! which the original relation is symmetric lead to solutions of equal cost
//! (with any of the BDD-based cost functions), so only one of them needs to
//! be explored. BREL keeps a cache of the characteristic functions of the
//! relations already processed and skips a new relation when a symmetric
//! variant is in the cache.

use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, BTreeSet};
use std::hash::{Hash, Hasher};

use brel_bdd::Bdd;
use brel_relation::{BooleanRelation, RelationRow};

/// A cache of already-explored relations with output-symmetry lookups.
///
/// The cache holds rooted [`Bdd`] handles rather than raw node ids: an
/// explored subrelation may be dropped by the solver, and with a
/// garbage-collecting kernel its reclaimed node id could be recycled for
/// an unrelated function — a raw-id set would then report a false
/// symmetric hit and wrongly prune a branch. Rooting the characteristic
/// functions pins them (and their ids) for the cache's lifetime; lookups
/// are a linear scan over handle equality, which resolves through the
/// root table and therefore also survives arena compaction. The cache is
/// bounded by the exploration budget, so the scan stays short.
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

/// Canonicalizes tabular relation rows: duplicate input vertices are
/// merged, output sets are sorted and deduplicated, rows with an empty
/// image are dropped (a missing input vertex and an empty image denote the
/// same thing in [`BooleanRelation::from_rows`]), and the surviving rows
/// are sorted by input vertex. Two row lists describe the same relation
/// iff their canonical forms are equal, which is what lets the batch
/// engine build its cross-job cache keys — and rehydrate relations — from
/// one deterministic representation regardless of how a spec was authored.
pub fn canonical_rows(rows: &[RelationRow]) -> Vec<RelationRow> {
    let mut by_input: BTreeMap<Vec<bool>, BTreeSet<Vec<bool>>> = BTreeMap::new();
    for (input, outputs) in rows {
        let image = by_input.entry(input.clone()).or_default();
        for output in outputs {
            image.insert(output.clone());
        }
    }
    by_input
        .into_iter()
        .filter(|(_, image)| !image.is_empty())
        .map(|(input, image)| (input, image.into_iter().collect()))
        .collect()
}

/// The `(input, output)` pairs of `rows` packed into `u64` bit patterns
/// (see [`pack`]), sorted and deduplicated. This form is canonical by
/// construction: row order, repeated inputs, duplicate pairs and image
/// order all vanish in one sort, and an empty image leaves no pair.
fn packed_pairs(rows: &[RelationRow]) -> Vec<(u64, u64)> {
    let mut pairs = Vec::with_capacity(rows.iter().map(|(_, outputs)| outputs.len()).sum());
    for (input, outputs) in rows {
        let x = pack(input);
        pairs.extend(outputs.iter().map(|output| (x, pack(output))));
    }
    // Canonical rows arrive already in this order, which the sort detects
    // in one linear pass.
    pairs.sort_unstable();
    pairs.dedup();
    pairs
}

/// [`input_support_mask`] of sorted, deduplicated packed pairs.
fn support_mask(num_inputs: usize, pairs: &[(u64, u64)]) -> u64 {
    let image = |x: u64| {
        let start = pairs.partition_point(|p| p.0 < x);
        let len = pairs[start..].partition_point(|p| p.0 == x);
        pairs[start..start + len].iter().map(|p| p.1)
    };
    let mut mask = 0;
    for i in 0..num_inputs {
        let flip = 1u64 << (num_inputs - 1 - i);
        // A missing partner has the empty image, which no present input has.
        let depends = pairs
            .chunk_by(|p, q| p.0 == q.0)
            .any(|run| !run.iter().map(|p| p.1).eq(image(run[0].0 ^ flip)));
        if depends {
            mask |= 1 << i;
        }
    }
    mask
}

/// Packs a vertex into a bit pattern, component 0 in the most significant
/// of the low `bits.len()` bits, so packed vertices of one width compare
/// like the `Vec<bool>`s they came from.
pub(crate) fn pack(bits: &[bool]) -> u64 {
    assert!(bits.len() <= 64, "vertex wider than 64 bits");
    bits.iter().fold(0, |acc, &bit| acc << 1 | bit as u64)
}

/// Keeps the components of the packed `width`-wide vertex `x` whose bit is
/// set in the input mask `mask`, packed in the same order.
fn project(x: u64, width: usize, mask: u64) -> u64 {
    (0..width)
        .filter(|&i| mask >> i & 1 == 1)
        .fold(0, |acc, i| acc << 1 | (x >> (width - 1 - i) & 1))
}

/// The input-support mask of a row list: bit `i` is set iff the relation
/// actually depends on input `i`. Input `i` is *non-support* when every
/// pair of input vertices differing only in bit `i` has the same image (a
/// missing vertex counts as an empty image); such a column is noise for
/// caching purposes — two subrelations equal up to irrelevant input
/// columns solve identically. Rows need not be canonical.
///
/// # Panics
///
/// Panics if `num_inputs` or a vertex width exceeds 64.
pub fn input_support_mask(num_inputs: usize, rows: &[RelationRow]) -> u64 {
    assert!(num_inputs <= 64, "support masks cover at most 64 inputs");
    support_mask(num_inputs, &packed_pairs(rows))
}

/// A 64-bit fingerprint of the relation a row list describes, invariant
/// under row order, duplicate pairs, unordered images, *and* irrelevant
/// input columns: rows are canonicalized, non-support input columns are
/// projected away (the support mask itself stays part of the fingerprint,
/// so relations that ignore *different* columns do not collide), and the
/// result is hashed together with the space dimensions. The engine keys
/// its cross-job solved-subrelation cache on this value.
///
/// The work runs on rows packed into `u64` bit patterns: one sort of the
/// `(input, output)` pairs canonicalizes, a binary search finds each
/// flipped partner for the support mask, and one more sort and dedup of
/// the projected pairs merges the rows that differed only in non-support
/// columns.
///
/// # Panics
///
/// Panics if either width exceeds 64.
pub fn relation_fingerprint(num_inputs: usize, num_outputs: usize, rows: &[RelationRow]) -> u64 {
    assert!(
        num_inputs <= 64 && num_outputs <= 64,
        "fingerprints cover at most 64 inputs and 64 outputs"
    );
    let pairs = packed_pairs(rows);
    let mask = support_mask(num_inputs, &pairs);
    let mut projected: Vec<(u64, u64)> = pairs
        .iter()
        .map(|&(x, y)| (project(x, num_inputs, mask), y))
        .collect();
    projected.sort_unstable();
    projected.dedup();
    let mut hasher = DefaultHasher::new();
    num_inputs.hash(&mut hasher);
    num_outputs.hash(&mut hasher);
    mask.hash(&mut hasher);
    projected.hash(&mut hasher);
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

    #[test]
    fn canonical_rows_merge_sort_and_drop_empty_images() {
        let rows: Vec<RelationRow> = vec![
            (vec![true], vec![vec![true], vec![false]]),
            (vec![false], vec![]),
            (vec![true], vec![vec![true]]),
        ];
        let canonical = canonical_rows(&rows);
        assert_eq!(
            canonical,
            vec![(vec![true], vec![vec![false], vec![true]])],
            "duplicates merged, image sorted, empty row dropped"
        );
    }

    #[test]
    fn support_mask_spots_irrelevant_input_columns() {
        // R over (x0, x1): image depends on x1 only.
        let rows = canonical_rows(&[
            (vec![false, false], vec![vec![false]]),
            (vec![true, false], vec![vec![false]]),
            (vec![false, true], vec![vec![true]]),
            (vec![true, true], vec![vec![true]]),
        ]);
        assert_eq!(input_support_mask(2, &rows), 0b10);
        // Making the images differ across x0 flips bit 0 on.
        let dependent = canonical_rows(&[
            (vec![false, false], vec![vec![false]]),
            (vec![true, false], vec![vec![true]]),
            (vec![false, true], vec![vec![false]]),
            (vec![true, true], vec![vec![true]]),
        ]);
        assert_eq!(input_support_mask(2, &dependent), 0b01);
        // A vertex with pairs whose flipped partner has none: that column
        // is support too (missing means empty image, not "don't know").
        let partial = canonical_rows(&[(vec![false, false], vec![vec![false]])]);
        assert_eq!(input_support_mask(2, &partial), 0b11);
    }

    #[test]
    fn fingerprint_is_invariant_under_row_noise() {
        let base: Vec<RelationRow> = vec![
            (vec![false, false], vec![vec![false], vec![true]]),
            (vec![true, false], vec![vec![true]]),
            (vec![false, true], vec![vec![false]]),
            (vec![true, true], vec![vec![true]]),
        ];
        let fp = relation_fingerprint(2, 1, &base);
        // Row permutation, image permutation, duplicate pairs: same print.
        let noisy: Vec<RelationRow> = vec![
            (vec![true, true], vec![vec![true]]),
            (
                vec![false, false],
                vec![vec![true], vec![false], vec![true]],
            ),
            (vec![true, false], vec![vec![true]]),
            (vec![false, true], vec![vec![false]]),
        ];
        assert_eq!(relation_fingerprint(2, 1, &noisy), fp);
        // A genuinely different relation: different print.
        let other: Vec<RelationRow> = vec![
            (vec![false, false], vec![vec![false]]),
            (vec![true, false], vec![vec![true]]),
            (vec![false, true], vec![vec![false]]),
            (vec![true, true], vec![vec![true]]),
        ];
        assert_ne!(relation_fingerprint(2, 1, &other), fp);
    }

    #[test]
    fn fingerprint_normalizes_support_but_keeps_the_mask() {
        // R ignores x0; S is the same relation over x1 alone.
        let wide: Vec<RelationRow> = vec![
            (vec![false, false], vec![vec![false]]),
            (vec![true, false], vec![vec![false]]),
            (vec![false, true], vec![vec![true]]),
            (vec![true, true], vec![vec![true]]),
        ];
        // The same projected rows with a *different* irrelevant column must
        // not collide: the mask participates in the hash.
        let wide_other: Vec<RelationRow> = vec![
            (vec![false, false], vec![vec![false]]),
            (vec![false, true], vec![vec![false]]),
            (vec![true, false], vec![vec![true]]),
            (vec![true, true], vec![vec![true]]),
        ];
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
