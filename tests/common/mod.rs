//! Test oracles shared by several integration-test files.

use std::collections::{BTreeMap, BTreeSet};

use brel_suite::relation::vertex;

/// A relation row as a test authors it: an input vertex and the output
/// vertices related to it, each vertex a list of components. Rows may
/// repeat inputs, repeat pairs and have empty images.
pub type Row = (Vec<bool>, Vec<Vec<bool>>);

/// The packed pair words `x << num_outputs | y` of `rows`, in row order
/// with duplicates kept: the form relations travel in.
pub fn pair_words(num_outputs: usize, rows: &[Row]) -> Vec<u32> {
    rows.iter()
        .flat_map(|(input, image)| {
            let x = vertex::pack(input) << num_outputs;
            image.iter().map(move |output| x | vertex::pack(output))
        })
        .collect()
}

/// The definition of canonical relation rows, kept as an oracle for the
/// packed pair words the engine stores: duplicate input vertices are
/// merged, output sets are sorted and deduplicated, rows with an empty
/// image are dropped (a missing input vertex and an empty image denote
/// the same thing), and the surviving rows are sorted by input vertex.
/// Two row lists describe the same relation iff their canonical forms are
/// equal.
pub fn canonical_rows(rows: &[Row]) -> Vec<Row> {
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
