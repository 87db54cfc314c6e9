//! Property tests of the relation format the batch engine rides on:
//! table-text parse → `to_packed` → `from_packed` is a fixed point, the
//! `table.rs` error paths for malformed bits and widths, the bottom-up χ
//! builder behind `from_packed` checked against a reference
//! `or`-of-minterms fold over authored rows, the path-walking table
//! renderer checked against χ's image of every input, the engine's packed
//! pair words checked against the canonical-rows definition and the wire,
//! and byte-for-byte pins of the table text, a submit frame and seeded
//! random relations.

mod common;

use std::time::{Duration, Instant};

use proptest::prelude::*;

use brel_suite::bdd::Bdd;
use brel_suite::benchdata::random_well_defined_relation;
use brel_suite::engine::{JobSpec, RelationSpec};
use brel_suite::relation::{BooleanRelation, RelationError, RelationSpace};
use brel_suite::serve::{read_frame, Frame, Submit};
use common::{canonical_rows, pair_words, Row};

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
fn random_rows(ni: usize, no: usize, seed: u64) -> Vec<Row> {
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
fn or_of_minterms(space: &RelationSpace, rows: &[Row]) -> Bdd {
    let mut chi = space.mgr().zero();
    for (input, image) in rows {
        let x = space.input_minterm(input).unwrap();
        for output in image {
            chi = chi.or(&x.and(&space.output_minterm(output).unwrap()));
        }
    }
    chi
}

/// `from_packed` on the rows' words lands on the reference χ handle.
fn assert_builder_matches_fold(space: &RelationSpace, rows: &[Row]) {
    let words = pair_words(space.num_outputs(), rows);
    let built = BooleanRelation::from_packed(space, &words).unwrap();
    assert_eq!(built.characteristic(), &or_of_minterms(space, rows));
}

/// Spells a vertex as table text, component 0 first.
fn spell(vertex: &[bool]) -> String {
    vertex.iter().map(|&b| if b { '1' } else { '0' }).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Rendering a relation as table text, parsing it back, exporting
    /// words and rehydrating from them reaches a fixed point in one step:
    /// every further round-trip is the identity, in the original space and
    /// in a fresh one.
    #[test]
    fn parse_to_packed_from_packed_is_a_fixed_point((ni, no, seed, prob) in relation_params()) {
        let (_space, original) = random_well_defined_relation(ni, no, prob as f64 / 100.0, seed);
        let text = original.to_table().unwrap();

        // Parse the text into a fresh space (a different BDD manager).
        let space = RelationSpace::new(ni, no);
        let parsed = BooleanRelation::from_table(&space, &text).unwrap();
        prop_assert_eq!(parsed.num_pairs(), original.num_pairs());

        // to_packed → from_packed is the identity on the parsed relation…
        let words = parsed.to_packed().unwrap();
        prop_assert_eq!(&words, &original.to_packed().unwrap());
        let back = BooleanRelation::from_packed(&space, &words).unwrap();
        prop_assert_eq!(&back, &parsed);
        // …and a fixed point: words, table text and pair count are stable.
        prop_assert_eq!(back.to_packed().unwrap(), words.clone());
        prop_assert_eq!(back.to_table().unwrap(), text);

        // The same words rehydrated into yet another manager agree.
        let other = RelationSpace::new(ni, no);
        let rehydrated = BooleanRelation::from_packed(&other, &words).unwrap();
        prop_assert_eq!(rehydrated.to_packed().unwrap(), words);
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
        // from_packed rejects a word with a bit above the space, whatever
        // its other bits (seeded).
        let low = seed as u32 & ((1 << (ni + no)) - 1);
        prop_assert_eq!(
            BooleanRelation::from_packed(&space, &[low, 1 << (ni + no) | low]),
            Err(RelationError::DimensionMismatch {
                expected: ni + no,
                found: ni + no + 1
            })
        );
    }

    /// The bottom-up builder equals the `or`-of-minterms fold, handle for
    /// handle in one session, on unsorted rows with duplicate pairs,
    /// repeated inputs and empty images.
    #[test]
    fn builder_matches_or_of_minterms((ni, no, seed, _prob) in relation_params()) {
        let space = RelationSpace::new(ni, no);
        assert_builder_matches_fold(&space, &random_rows(ni, no, seed));
    }

    /// The table renderer lists, for every input vertex in enumeration
    /// order, exactly χ's image of it in output enumeration order, as
    /// `image` reads it point by point.
    #[test]
    fn to_table_lists_the_image_of_every_input((ni, no, seed, _prob) in relation_params()) {
        let space = RelationSpace::new(ni, no);
        let words = pair_words(no, &random_rows(ni, no, seed));
        let relation = BooleanRelation::from_packed(&space, &words).unwrap();
        let table = relation.to_table().unwrap();
        let inputs = space.enumerate_inputs();
        prop_assert_eq!(table.lines().count(), inputs.len());
        for (line, input) in table.lines().zip(&inputs) {
            let image: Vec<String> = relation.image(input).unwrap().iter().map(|y| spell(y)).collect();
            prop_assert_eq!(line, format!("{} : {{{}}}", spell(input), image.join(", ")));
        }
        prop_assert_eq!(relation.to_string(), table);
    }
}

/// The spec built from the rows' words agrees with every reading of the
/// same rows: `rows()` is the canonical-rows definition, rehydrated χ is
/// the reference fold, and the wire round trip returns an equal spec with
/// an equal fingerprint.
fn assert_spec_matches_rows(ni: usize, no: usize, rows: &[Row]) {
    let spec = RelationSpec::from_packed(ni, no, pair_words(no, rows)).unwrap();
    let canonical = canonical_rows(rows);
    assert_eq!(spec.rows(), canonical.as_slice());
    let pairs: usize = canonical.iter().map(|(_, image)| image.len()).sum();
    assert_eq!(spec.num_pairs(), pairs);

    let (space, chi) = spec.rehydrate();
    assert_eq!(chi.characteristic(), &or_of_minterms(&space, rows));

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
    let rows: Vec<Row> = (0..40)
        .map(|_| (rng.vertex(max), vec![rng.vertex(max), rng.vertex(max)]))
        .chain([(vec![true; max], vec![vec![true; max]])])
        .collect();
    assert_spec_matches_rows(max, max, &rows);
    assert_eq!(
        RelationSpec::from_packed(max, max, pair_words(max, &rows))
            .unwrap()
            .words()
            .last(),
        Some(&u32::MAX)
    );
}

/// Export reads χ's paths, not its space: a 16×16 relation with about a
/// thousand pairs leaves as packed words and as table text and comes back
/// through `from_packed` and `from_table` to the same χ in well under a
/// second (evaluating χ at all 2^32 points of the space would take hours).
#[test]
fn a_sparse_16x16_relation_exports_by_its_paths() {
    let max = RelationSpec::MAX_WIDTH;
    let mut rng = Mix(41);
    let rows: Vec<Row> = (0..500)
        .map(|_| (rng.vertex(max), vec![rng.vertex(max), rng.vertex(max)]))
        .collect();
    let space = RelationSpace::new(max, max);
    let relation = BooleanRelation::from_packed(&space, &pair_words(max, &rows)).unwrap();
    let start = Instant::now();
    let spec = RelationSpec::from_relation(&relation).unwrap();
    let from_words = BooleanRelation::from_packed(&space, spec.words()).unwrap();
    let table = relation.to_table().unwrap();
    let from_table = BooleanRelation::from_table(&space, &table).unwrap();
    let elapsed = start.elapsed();
    assert_eq!(from_words, relation);
    assert_eq!(from_table, relation);
    assert_eq!(spec.rows(), canonical_rows(&rows).as_slice());
    assert!(spec.num_pairs() > 990, "about a thousand distinct pairs");
    assert_eq!(table.lines().count(), 1 << max, "one line per input vertex");
    assert!(
        elapsed < Duration::from_secs(1),
        "export and round trip took {elapsed:?}"
    );
}

/// A bad word or table line at the end is still found, before anything is
/// built.
#[test]
fn wrong_width_in_the_last_row_is_rejected() {
    let space = RelationSpace::new(2, 2);
    let nodes_before = space.mgr().num_nodes();
    assert_eq!(
        BooleanRelation::from_packed(&space, &[0b0010, 0b0110, 0b1010, 0b1110, 0b1_0111]),
        Err(RelationError::DimensionMismatch {
            expected: 4,
            found: 5
        })
    );
    assert!(matches!(
        BooleanRelation::from_table(&space, "00 : {10}\n10 : {10}\n01 : {10}\n11 : {01, 111}"),
        Err(RelationError::Parse(msg)) if msg == "output vertex `111` must have 2 bits"
    ));
    assert_eq!(space.mgr().num_nodes(), nodes_before, "no partial χ");
}

/// Building into a fresh session allocates exactly the nodes of χ: the
/// builder leaves no garbage, so its cost is linear in the output.
#[test]
fn build_allocates_exactly_the_result() {
    for seed in 0..16 {
        let (ni, no) = (2 + seed as usize % 4, 1 + seed as usize % 3);
        let words = pair_words(no, &random_rows(ni, no, seed));
        let space = RelationSpace::new(ni, no);
        let nodes_before = space.mgr().num_nodes();
        let relation = BooleanRelation::from_packed(&space, &words).unwrap();
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

/// The table text, byte for byte: every input vertex in enumeration order
/// (component 0 counts as the least significant bit), each image in the
/// same order over the outputs, `{}` for an empty image, and `Display`
/// equal to `to_table`. A space too wide to list prints one summary line.
#[test]
fn table_and_display_text_are_pinned() {
    let space = RelationSpace::new(2, 2);
    let r = BooleanRelation::from_table(&space, "11 : {01}\n10 : {11, 00, 10}\n01 : {}\n00 : {10}")
        .unwrap();
    let text = "00 : {10}\n10 : {00, 10, 11}\n01 : {}\n11 : {01}\n";
    assert_eq!(r.to_table().unwrap(), text);
    assert_eq!(r.to_string(), text);
    let wide = BooleanRelation::full(&RelationSpace::new(17, 1));
    assert_eq!(
        wide.to_string(),
        "<relation over 17+1 variables, 262144 pairs>\n"
    );
    assert_eq!(
        wide.to_table(),
        Err(RelationError::TooLarge {
            vars: 17,
            limit: 16
        })
    );
}

/// The JSON text of one submit frame, byte for byte.
#[test]
fn submit_frame_json_is_pinned() {
    let space = RelationSpace::new(2, 2);
    let r = BooleanRelation::from_table(&space, "11 : {01}\n10 : {11, 00, 10}\n01 : {}\n00 : {10}")
        .unwrap();
    let frame = Frame::Submit(Submit {
        client: "pin".to_string(),
        job: JobSpec::portfolio("fig", RelationSpec::from_relation(&r).unwrap()),
        deadline_ms: Some(250),
        max_cost: None,
    });
    assert_eq!(
        frame.to_json().render(),
        concat!(
            r#"{"type":"submit","client":"pin","job":{"name":"fig","relation":"#,
            r#"{"inputs":2,"outputs":2,"rows":["00:10","10:00,10,11","11:01"]},"#,
            r#""backends":["quick","gyocro","brel"],"cost":"sum-bdd-size","#,
            r#""budget":{"max_explored":10,"fifo_capacity":64,"gyocro_max_passes":10},"#,
            r#""strategy":"fifo","fault":{"deadline_ms":null,"max_live_nodes":null,"#,
            r#""step_deadline":null,"retries":0,"fallback":true}},"deadline_ms":250}"#,
        )
    );
}

/// Seeded random relations keep their pairs, so the generated corpora do
/// not move: two by their words, one by its fingerprint.
#[test]
fn seeded_random_relations_are_pinned() {
    let spec = |ni, no, p, seed| {
        let (_space, relation) = random_well_defined_relation(ni, no, p, seed);
        RelationSpec::from_relation(&relation).unwrap()
    };
    assert_eq!(
        spec(3, 2, 0.3, 5).words(),
        [1, 2, 3, 6, 7, 8, 11, 13, 15, 18, 21, 22, 27, 29, 30, 31]
    );
    assert_eq!(
        spec(4, 3, 0.2, 11).words(),
        [
            3, 5, 6, 8, 13, 19, 22, 23, 26, 28, 35, 38, 45, 50, 60, 63, 67, 68, 77, 80, 87, 93, 99,
            105, 106, 109, 113, 122, 123, 125
        ]
    );
    let large = spec(6, 2, 0.25, 687);
    assert_eq!(large.num_pairs(), 122);
    assert_eq!(large.fingerprint(), 0xaa55_754b_a90c_f115);
}
