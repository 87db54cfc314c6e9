//! Quickstart: solve the Boolean relation of Fig. 1 of the paper.
//!
//! The relation relates input vertex `10` to the output set `{00, 11}`,
//! which cannot be expressed with per-output don't cares. The example walks
//! through the recursive paradigm: the MISF over-approximation, the conflict
//! it produces, and the solution BREL finds after splitting. The
//! exploration trace is the solver's `search` event stream, recorded by a
//! `brel_obs` collector around the solve.
//!
//! Run with `cargo run --example quickstart`.

use std::sync::Arc;

use brel_core::{BrelConfig, BrelSolver, CostFn, CostFunction, QuickSolver};
use brel_obs::{Category, RecordingCollector};
use brel_relation::{BooleanRelation, RelationSpace};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The relation of Fig. 1a, written in the paper's tabular notation.
    let space = RelationSpace::with_names(&["x1", "x2"], &["y1", "y2"]);
    let relation =
        BooleanRelation::from_table(&space, "00 : {00}\n01 : {00}\n10 : {00, 11}\n11 : {10, 11}")?;

    println!("Boolean relation R:");
    print!("{relation}");
    println!("well defined: {}", relation.is_well_defined());
    println!("functional:   {}", relation.is_function());

    // Step (a): the MISF over-approximation loses the correlation at vertex 10.
    let misf_rel = relation.to_misf().to_relation();
    println!("\nMISF over-approximation (Definition 5.2):");
    print!("{misf_rel}");

    // A fast compatible solution: the quick solver of Fig. 4.
    let quick = QuickSolver::new().solve(&relation)?;
    println!(
        "\nQuickSolver solution: cost(sum of BDD sizes) = {}",
        CostFn::SumBddSize.cost(&quick)
    );

    // The recursive branch-and-bound solver of Fig. 6, with its search
    // events recorded. The collector is process-global; this program is
    // single-threaded, so nothing else reports into it.
    let collector = Arc::new(RecordingCollector::with_mask(Category::Search.bit()));
    brel_obs::install(collector.clone());
    let solved = BrelSolver::new(BrelConfig::exact()).solve(&relation);
    brel_obs::uninstall();
    let solution = solved?;
    println!(
        "\nBREL solution: cost = {}, explored {} subrelations, {} splits",
        solution.cost, solution.stats.explored, solution.stats.splits
    );
    for (i, output) in solution.function.outputs().iter().enumerate() {
        let cover = brel_sop::Cover::from_isop(&output.isop(), space.input_vars());
        println!(
            "  {} = {}",
            space.output_name(i),
            if cover.is_empty() {
                "0".to_string()
            } else {
                cover
                    .cubes()
                    .iter()
                    .map(|c| c.to_text())
                    .collect::<Vec<_>>()
                    .join(" + ")
            }
        );
    }
    assert!(relation.is_compatible(&solution.function));
    println!("\nexploration trace:");
    for event in collector.events() {
        print!("  {}", event.name);
        for (key, value) in event.args.iter() {
            print!(" {key}={value}");
        }
        println!();
    }
    Ok(())
}
