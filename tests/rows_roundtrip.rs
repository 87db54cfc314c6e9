//! Property tests of the row serialization boundary the batch engine rides
//! on: table-text parse → `to_rows` → `from_rows` is a fixed point, the
//! `table.rs` error paths for malformed bits and widths, the bottom-up
//! χ builder behind `from_rows`/`from_pairs` checked against a reference
//! `or`-of-minterms fold, the path-walking export checked against χ's
//! image of every input, and the engine's packed pair words checked
//! against the canonical-rows definition, the row builder and the wire.

mod common;

use std::time::{Duration, Instant};

use proptest::prelude::*;

use brel_suite::bdd::Bdd;
use brel_suite::benchdata::random_well_defined_relation;
use brel_suite::engine::{JobSpec, RelationSpec};
use brel_suite::relation::{BooleanRelation, RelationError, RelationRow, RelationSpace};
use brel_suite::serve::{read_frame, Frame, Submit};
use common::canonical_rows;

/// Strategy: small dimensions, a seed, and an extra-pair probability.
fn relation_params() -> impl Strategy<Value = (usize, usize, u64, u64)> {
    (1usize..=4, 1usize..=3, any::<u64>(), 0u64..=60)
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

    fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound
    }

    fn vertex(&mut self, width: usize) -> Vec<bool> {
        (0..width).map(|_| self.next() & 1 == 1).collect()
    }
}

/// Random rows in no particular order: inputs repeat across rows, images
/// repeat outputs, and about one row in five has an empty image.
fn random_rows(ni: usize, no: usize, seed: u64) -> Vec<RelationRow> {
    let mut rng = Mix(seed);
    let num_rows = rng.below(3 << ni) as usize;
    (0..num_rows)
        .map(|_| {
            let input = rng.vertex(ni);
            let len = if rng.below(5) == 0 {
                0
            } else {
                1 + rng.below(4)
            };
            let image = (0..len).map(|_| rng.vertex(no)).collect();
            (input, image)
        })
        .collect()
}

/// The reference construction: χ as the `or` of one minterm per pair,
/// built with ordinary apply operations in the space's session.
fn or_of_minterms(space: &RelationSpace, rows: &[RelationRow]) -> Bdd {
    let mut chi = space.mgr().zero();
    for (input, image) in rows {
        let x = space.input_minterm(input).unwrap();
        for output in image {
            chi = chi.or(&x.and(&space.output_minterm(output).unwrap()));
        }
    }
    chi
}

/// `from_rows` and `from_pairs` both land on the reference χ handle.
fn assert_builder_matches_fold(space: &RelationSpace, rows: &[RelationRow]) {
    let built = BooleanRelation::from_rows(space, rows).unwrap();
    assert_eq!(built.characteristic(), &or_of_minterms(space, rows));
    let pairs: Vec<(Vec<bool>, Vec<bool>)> = rows
        .iter()
        .flat_map(|(x, image)| image.iter().map(move |y| (x.clone(), y.clone())))
        .collect();
    assert_eq!(BooleanRelation::from_pairs(space, &pairs).unwrap(), built);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Rendering a relation as table text, parsing it back, exporting rows
    /// and rehydrating from them reaches a fixed point in one step: every
    /// further round-trip is the identity, in the original space and in a
    /// fresh one.
    #[test]
    fn parse_to_rows_from_rows_is_a_fixed_point((ni, no, seed, prob) in relation_params()) {
        let (_space, original) = random_well_defined_relation(ni, no, prob as f64 / 100.0, seed);
        let text = original.to_table().unwrap();

        // Parse the text into a fresh space (a different BDD manager).
        let space = RelationSpace::new(ni, no);
        let parsed = BooleanRelation::from_table(&space, &text).unwrap();
        prop_assert_eq!(parsed.num_pairs(), original.num_pairs());

        // to_rows → from_rows is the identity on the parsed relation…
        let rows = parsed.to_rows().unwrap();
        let back = BooleanRelation::from_rows(&space, &rows).unwrap();
        prop_assert_eq!(&back, &parsed);
        // …and a fixed point: rows, table text and pair count are stable.
        prop_assert_eq!(back.to_rows().unwrap(), rows.clone());
        prop_assert_eq!(back.to_table().unwrap(), text);

        // The same rows rehydrated into yet another manager agree row-wise.
        let other = RelationSpace::new(ni, no);
        let rehydrated = BooleanRelation::from_rows(&other, &rows).unwrap();
        prop_assert_eq!(rehydrated.to_rows().unwrap(), rows);
    }

    /// Vertices with the wrong arity are rejected by the parser wherever
    /// they appear, and the error names the offending width.
    #[test]
    fn wrong_width_vertices_are_rejected((ni, no, seed, _prob) in relation_params()) {
        let space = RelationSpace::new(ni, no);
        // An input vertex one bit too long, output vertex one bit short.
        let long_input = "0".repeat(ni + 1);
        let good_output = "1".repeat(no);
        let text = format!("{long_input} : {{{good_output}}}");
        prop_assert!(matches!(
            BooleanRelation::from_table(&space, &text),
            Err(RelationError::Parse(_))
        ));
        if no > 1 {
            let good_input = "0".repeat(ni);
            let short_output = "1".repeat(no - 1);
            let text = format!("{good_input} : {{{short_output}}}");
            prop_assert!(BooleanRelation::from_table(&space, &text).is_err());
        }
        // from_rows enforces the same widths (seeded bit patterns).
        let bad_bit = seed & 1 == 1;
        let bad_row = (vec![bad_bit; ni + 1], vec![]);
        prop_assert!(matches!(
            BooleanRelation::from_rows(&space, &[bad_row]),
            Err(RelationError::DimensionMismatch { .. })
        ));
        let bad_out = (vec![bad_bit; ni], vec![vec![bad_bit; no + 1]]);
        prop_assert!(BooleanRelation::from_rows(&space, &[bad_out]).is_err());
    }

    /// The bottom-up builder equals the `or`-of-minterms fold, handle for
    /// handle in one session, on unsorted rows with duplicate pairs,
    /// repeated inputs and empty images.
    #[test]
    fn builder_matches_or_of_minterms((ni, no, seed, _prob) in relation_params()) {
        let space = RelationSpace::new(ni, no);
        assert_builder_matches_fold(&space, &random_rows(ni, no, seed));
    }

    /// The path-walking export lists, for every input vertex in
    /// enumeration order, exactly χ's image of it in output enumeration
    /// order, as `image` reads it point by point.
    #[test]
    fn to_rows_lists_the_image_of_every_input((ni, no, seed, _prob) in relation_params()) {
        let space = RelationSpace::new(ni, no);
        let relation = BooleanRelation::from_rows(&space, &random_rows(ni, no, seed)).unwrap();
        let rows = relation.to_rows().unwrap();
        let inputs = space.enumerate_inputs();
        prop_assert_eq!(rows.len(), inputs.len());
        for ((input, image), expected) in rows.iter().zip(&inputs) {
            prop_assert_eq!(input, expected);
            prop_assert_eq!(image, &relation.image(input).unwrap());
        }
    }
}

/// The spec's words agree with every row-shaped reading of the same rows:
/// `rows()` is the canonical-rows definition, rehydrated χ is the row
/// builder's handle, and the wire round trip returns an equal spec with an
/// equal fingerprint.
fn assert_spec_matches_rows(ni: usize, no: usize, rows: &[RelationRow]) {
    let spec = RelationSpec::new(ni, no, rows.to_vec()).unwrap();
    let canonical = canonical_rows(rows);
    assert_eq!(spec.rows(), canonical.as_slice());
    let pairs: usize = canonical.iter().map(|(_, image)| image.len()).sum();
    assert_eq!(spec.num_pairs(), pairs);

    let (space, chi) = spec.rehydrate();
    assert_eq!(chi, BooleanRelation::from_rows(&space, rows).unwrap());
    assert_eq!(
        BooleanRelation::from_packed(&space, spec.words()).unwrap(),
        BooleanRelation::from_rows(&space, rows).unwrap()
    );

    let frame = Frame::Submit(Submit {
        client: "rows".to_string(),
        job: JobSpec::portfolio("rows", spec.clone()),
        deadline_ms: None,
        max_cost: None,
    });
    let body = frame.to_json().render();
    let mut wire = (body.len() as u32).to_be_bytes().to_vec();
    wire.extend_from_slice(body.as_bytes());
    match read_frame(&mut wire.as_slice()).unwrap() {
        Frame::Submit(submit) => {
            assert_eq!(submit.job.relation, spec);
            assert_eq!(submit.job.relation.fingerprint(), spec.fingerprint());
        }
        other => panic!("expected a submit frame, got {other:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// On unsorted rows with duplicate pairs, repeated inputs, and split
    /// and empty images, the packed spec agrees with the row oracles.
    #[test]
    fn spec_words_match_the_row_oracles((ni, no, seed, _prob) in relation_params()) {
        let mut rows = random_rows(ni, no, seed);
        // Split one image across two rows of the same input.
        if let Some((input, image)) = rows.first().cloned() {
            let cut = image.len() / 2;
            rows[0].1.truncate(cut);
            rows.push((input, image[cut..].to_vec()));
        }
        assert_spec_matches_rows(ni, no, &rows);
    }
}

/// The widest spec packs both vertices into all 32 bits of a word.
#[test]
fn spec_words_cover_the_width_limits() {
    let max = RelationSpec::MAX_WIDTH;
    let mut rng = Mix(23);
    let rows: Vec<RelationRow> = (0..40)
        .map(|_| (rng.vertex(max), vec![rng.vertex(max), rng.vertex(max)]))
        .chain([(vec![true; max], vec![vec![true; max]])])
        .collect();
    assert_spec_matches_rows(max, max, &rows);
    assert_eq!(
        RelationSpec::new(max, max, rows).unwrap().words().last(),
        Some(&u32::MAX)
    );
}

/// Export reads χ's paths, not its space: a 16×16 relation with about a
/// thousand pairs leaves as packed words and as rows and comes back
/// through `from_packed` and `from_rows` to the same χ in well under a
/// second (evaluating χ at all 2^32 points of the space would take hours).
#[test]
fn a_sparse_16x16_relation_exports_by_its_paths() {
    let max = RelationSpec::MAX_WIDTH;
    let mut rng = Mix(41);
    let rows: Vec<RelationRow> = (0..500)
        .map(|_| (rng.vertex(max), vec![rng.vertex(max), rng.vertex(max)]))
        .collect();
    let space = RelationSpace::new(max, max);
    let relation = BooleanRelation::from_rows(&space, &rows).unwrap();
    let start = Instant::now();
    let spec = RelationSpec::from_relation(&relation).unwrap();
    let from_words = BooleanRelation::from_packed(&space, spec.words()).unwrap();
    let exported = relation.to_rows().unwrap();
    let from_exported = BooleanRelation::from_rows(&space, &exported).unwrap();
    let elapsed = start.elapsed();
    assert_eq!(from_words, relation);
    assert_eq!(from_exported, relation);
    assert_eq!(spec, RelationSpec::new(max, max, rows).unwrap());
    assert!(spec.num_pairs() > 990, "about a thousand distinct pairs");
    assert_eq!(exported.len(), 1 << max, "one row per input vertex");
    assert!(
        elapsed < Duration::from_secs(1),
        "export and round trip took {elapsed:?}"
    );
}

/// Keys longer than one 64-bit word: pairs that differ only beyond the
/// first word, or only in the last variable, stay distinct.
#[test]
fn builder_handles_multi_word_keys() {
    let (ni, no) = (70, 60);
    let space = RelationSpace::new(ni, no);
    let mut rng = Mix(7);
    let mut rows: Vec<RelationRow> = (0..12)
        .map(|_| (rng.vertex(ni), vec![rng.vertex(no), rng.vertex(no)]))
        .collect();
    let (input, image) = rows[0].clone();
    let mut flipped = image[0].clone();
    flipped[no - 1] ^= true;
    rows.push((input, vec![flipped, image[1].clone()]));
    assert_builder_matches_fold(&space, &rows);
}

/// A wrong-width output in the last row is still found, before anything
/// is built.
#[test]
fn wrong_width_in_the_last_row_is_rejected() {
    let space = RelationSpace::new(2, 2);
    let mut rows: Vec<RelationRow> = (0..4)
        .map(|i| (vec![i & 1 == 1, i & 2 == 2], vec![vec![true, false]]))
        .collect();
    rows.push((vec![true, true], vec![vec![false, true], vec![true; 3]]));
    let nodes_before = space.mgr().num_nodes();
    assert!(matches!(
        BooleanRelation::from_rows(&space, &rows),
        Err(RelationError::DimensionMismatch {
            expected: 2,
            found: 3
        })
    ));
    assert_eq!(space.mgr().num_nodes(), nodes_before, "no partial χ");
}

/// Building into a fresh session allocates exactly the nodes of χ: the
/// builder leaves no garbage, so its cost is linear in the output.
#[test]
fn build_allocates_exactly_the_result() {
    for seed in 0..16 {
        let (ni, no) = (2 + seed as usize % 4, 1 + seed as usize % 3);
        let rows = random_rows(ni, no, seed);
        let space = RelationSpace::new(ni, no);
        let nodes_before = space.mgr().num_nodes();
        let relation = BooleanRelation::from_rows(&space, &rows).unwrap();
        assert_eq!(
            space.mgr().num_nodes() - nodes_before,
            relation.size(),
            "seed {seed}"
        );
    }
}

#[test]
fn malformed_table_text_error_paths() {
    let space = RelationSpace::new(2, 2);
    // Missing separator.
    assert!(matches!(
        BooleanRelation::from_table(&space, "00 {00}"),
        Err(RelationError::Parse(msg)) if msg.contains("missing `:`")
    ));
    // Invalid bit characters in input and output vertices.
    assert!(matches!(
        BooleanRelation::from_table(&space, "0z : {00}"),
        Err(RelationError::Parse(msg)) if msg.contains("invalid bit `z`")
    ));
    assert!(matches!(
        BooleanRelation::from_table(&space, "00 : {2x}"),
        Err(RelationError::Parse(msg)) if msg.contains("invalid bit `2`")
    ));
    // Width errors name the expected arity.
    assert!(matches!(
        BooleanRelation::from_table(&space, "000 : {00}"),
        Err(RelationError::Parse(msg)) if msg.contains("must have 2 bits")
    ));
    assert!(matches!(
        BooleanRelation::from_table(&space, "00 : {000}"),
        Err(RelationError::Parse(msg)) if msg.contains("must have 2 bits")
    ));
    // Comments and empty images still parse.
    let r = BooleanRelation::from_table(&space, "# header\n00 : {}\n11 : {01}").unwrap();
    assert!(!r.is_well_defined());
    assert_eq!(r.num_pairs(), 1);
}
