//! Output-symmetry pruning (Section 7.7, Fig. 8), and the relation
//! fingerprint behind the engine's cross-job cache checked against its
//! unpacked reference definition.

mod common;

use std::collections::{BTreeSet, HashMap};

use proptest::prelude::*;

use brel_benchdata::figures;
use brel_core::{input_support_mask, BrelConfig, BrelSolver, SymmetryCache};
use brel_engine::RelationSpec;
use common::{canonical_rows, pair_words, Row};

#[test]
fn fig8_children_are_symmetric_variants_of_each_other() {
    let (space, r) = figures::fig8();
    // The relation is symmetric in its two outputs.
    let chi = r.characteristic();
    assert_eq!(
        chi.swap_vars(space.output_var(0), space.output_var(1)),
        *chi
    );
    // Splitting a flexible vertex on output x produces two subrelations that
    // are output permutations of each other, so the cache flags the second.
    let conflicts = space.input_minterm(&[false, false]).unwrap();
    let (vertex, output) = r.select_split_point(&conflicts).unwrap();
    let (r_neg, r_pos) = r.split(&vertex, output).unwrap();
    let mut cache = SymmetryCache::new();
    assert!(!cache.check_and_insert(&r_neg));
    assert!(cache.check_and_insert(&r_pos));
}

#[test]
fn symmetry_pruning_preserves_quality_and_never_explores_more() {
    for (_space, r) in [figures::fig1(), figures::fig7(), figures::fig8()] {
        let without = BrelSolver::new(BrelConfig::exact().with_symmetry(false))
            .solve(&r)
            .unwrap();
        let with = BrelSolver::new(BrelConfig::exact().with_symmetry(true))
            .solve(&r)
            .unwrap();
        assert_eq!(
            without.cost, with.cost,
            "symmetry pruning must not change the best cost"
        );
        assert!(with.stats.explored <= without.stats.explored);
        assert!(r.is_compatible(&with.function));
    }
}

#[test]
fn symmetric_relation_benefits_from_pruning() {
    let (_space, r) = figures::fig8();
    let with = BrelSolver::new(BrelConfig::exact().with_symmetry(true))
        .solve(&r)
        .unwrap();
    assert!(
        with.stats.skipped_by_symmetry >= 1,
        "the fully symmetric Fig. 8 relation must produce at least one symmetric hit"
    );
}

/// SplitMix64: a tiny deterministic stream for test-local row generation.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: usize) -> usize {
        (self.next() % bound as u64) as usize
    }

    fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

fn bits(value: usize, width: usize) -> Vec<bool> {
    (0..width).map(|i| value >> i & 1 == 1).collect()
}

/// A random relation over every input vertex: about a quarter of the
/// vertices are missing, and any image may come out empty.
fn random_rows(mix: &mut Mix, ni: usize, no: usize) -> Vec<Row> {
    let mut rows = Vec::new();
    for x in 0..1usize << ni {
        if mix.below(4) != 0 {
            let image = (0..1usize << no)
                .filter(|_| mix.below(2) == 0)
                .map(|y| bits(y, no))
                .collect();
            rows.push((bits(x, ni), image));
        }
    }
    rows
}

/// The same relation written differently: images split across repeated
/// input rows, duplicated pairs, shuffled images, stray empty-image rows
/// and a shuffled row order.
fn noisy(mix: &mut Mix, rows: &[Row]) -> Vec<Row> {
    let mut out: Vec<Row> = Vec::new();
    for (input, image) in rows {
        let mut image = image.clone();
        if !image.is_empty() && mix.below(2) == 0 {
            let dup = image[mix.below(image.len())].clone();
            image.push(dup);
        }
        mix.shuffle(&mut image);
        let cut = mix.below(image.len() + 1);
        out.push((input.clone(), image[..cut].to_vec()));
        out.push((input.clone(), image[cut..].to_vec()));
    }
    mix.shuffle(&mut out);
    out
}

/// Toggles one `(input, output)` pair: a genuinely different relation.
fn mutate(mix: &mut Mix, ni: usize, no: usize, rows: &[Row]) -> Vec<Row> {
    let (x, y) = (bits(mix.below(1 << ni), ni), bits(mix.below(1 << no), no));
    let mut out: Vec<Row> = canonical_rows(rows);
    match out.iter_mut().find(|(input, _)| *input == x) {
        Some((_, image)) if image.contains(&y) => image.retain(|o| *o != y),
        Some((_, image)) => image.push(y),
        None => out.push((x, vec![y])),
    }
    out
}

/// Inserts an irrelevant input column at position `at`.
fn lift(rows: &[Row], at: usize) -> Vec<Row> {
    rows.iter()
        .flat_map(|(input, image)| {
            [false, true].map(|bit| {
                let mut wide = input.clone();
                wide.insert(at, bit);
                (wide, image.clone())
            })
        })
        .collect()
}

type ReferenceKey = (usize, usize, u64, BTreeSet<(Vec<bool>, Vec<Vec<bool>>)>);

/// The fingerprint's definition on unpacked rows, kept as the oracle:
/// canonical rows, a support mask from flipped `Vec<bool>` partners, and
/// the set of support-projected rows. Two row lists must share a
/// fingerprint exactly when they share this key.
fn reference_key(ni: usize, no: usize, rows: &[Row]) -> ReferenceKey {
    let canonical = canonical_rows(rows);
    let by_input: HashMap<&[bool], &[Vec<bool>]> = canonical
        .iter()
        .map(|(input, image)| (input.as_slice(), image.as_slice()))
        .collect();
    let mut mask = 0u64;
    for i in 0..ni {
        let depends = canonical.iter().any(|(input, image)| {
            let mut partner = input.clone();
            partner[i] = !partner[i];
            by_input.get(partner.as_slice()).copied().unwrap_or(&[]) != image.as_slice()
        });
        if depends {
            mask |= 1 << i;
        }
    }
    let projected = canonical
        .iter()
        .map(|(input, image)| {
            let kept = (0..ni).filter(|&i| mask >> i & 1 == 1).map(|i| input[i]);
            (kept.collect(), image.clone())
        })
        .collect();
    (ni, no, mask, projected)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn fingerprint_classes_match_the_reference_projection(
        ni in 1usize..=4,
        no in 1usize..=2,
        seed in any::<u64>(),
    ) {
        let mut mix = Mix(seed);
        let base = random_rows(&mut mix, ni, no);
        let other = mutate(&mut mix, ni, no, &base);
        let at = mix.below(ni + 1);
        let family: Vec<(usize, usize, Vec<Row>)> = vec![
            (ni, no, base.clone()),
            (ni, no, noisy(&mut mix, &base)),
            (ni, no, other.clone()),
            (ni, no, noisy(&mut mix, &other)),
            (ni + 1, no, lift(&base, at)),
            (ni + 1, no, noisy(&mut mix, &lift(&base, at))),
            (ni + 1, no, lift(&base, mix.below(ni + 1))),
            (ni + 1, no, lift(&other, at)),
            (ni + 1, no, random_rows(&mut mix, ni + 1, no)),
        ];
        let keys: Vec<ReferenceKey> =
            family.iter().map(|(i, o, rows)| reference_key(*i, *o, rows)).collect();
        // The fingerprint the engine's cache keys on, over the spec's words.
        let specs: Vec<RelationSpec> = family
            .iter()
            .map(|(i, o, rows)| RelationSpec::from_packed(*i, *o, pair_words(*o, rows)).unwrap())
            .collect();
        let prints: Vec<u64> = specs.iter().map(RelationSpec::fingerprint).collect();
        for (a, spec) in specs.iter().enumerate() {
            let mask = input_support_mask(spec.num_inputs(), spec.num_outputs(), spec.words());
            prop_assert_eq!(mask, keys[a].2);
            for b in 0..family.len() {
                prop_assert_eq!(
                    prints[a] == prints[b],
                    keys[a] == keys[b],
                    "members {} and {} of the family",
                    a,
                    b
                );
            }
        }
        // The noisy copy is the same relation; the mutation is not.
        prop_assert_eq!(prints[0], prints[1]);
        prop_assert!(prints[0] != prints[2]);
    }
}
