//! Test oracles shared by several integration-test files.

use std::collections::{BTreeMap, BTreeSet};

use brel_suite::relation::RelationRow;

/// The definition of canonical relation rows, kept as an oracle for the
/// packed pair words the engine stores: duplicate input vertices are
/// merged, output sets are sorted and deduplicated, rows with an empty
/// image are dropped (a missing input vertex and an empty image denote
/// the same thing), and the surviving rows are sorted by input vertex.
/// Two row lists describe the same relation iff their canonical forms are
/// equal.
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
