//! Reproduces the step-by-step walk-through of the recursive paradigm
//! (Fig. 2 and Fig. 3 of the paper) on the relation of Fig. 1a.

use brel_benchdata::figures;
use brel_core::{BrelConfig, BrelSolver, IsfMinimizer};
use brel_relation::MultiOutputFunction;

#[test]
fn step_a_overapproximation_expands_vertex_10() {
    let (space, r) = figures::fig1();
    let misf_rel = r.to_misf().to_relation();
    // Property 5.2: R ⊆ MISF_R, strictly here because vertex 10 is expanded
    // from {00, 11} to the full output set.
    assert!(r.is_subset_of(&misf_rel).unwrap());
    assert_ne!(r, misf_rel);
    assert_eq!(misf_rel.image(&[true, false]).unwrap().len(), 4);
    // Vertex 11 keeps its don't-care-expressible image {10, 11}.
    assert_eq!(misf_rel.image(&[true, true]).unwrap().len(), 2);
    assert_eq!(space.num_outputs(), 2);
}

#[test]
fn step_b_and_c_minimization_may_conflict_only_at_vertex_10() {
    let (space, r) = figures::fig1();
    let misf = r.to_misf();
    let minimizer = IsfMinimizer::default();
    let outputs: Vec<_> = misf
        .outputs()
        .iter()
        .map(|isf| minimizer.minimize(isf))
        .collect();
    let candidate = MultiOutputFunction::new(&space, outputs).unwrap();
    // The candidate implements the MISF…
    assert!(misf.admits(&candidate));
    // …and any conflict with R can only involve the input vertex 10, the
    // only vertex whose output set is not expressible with don't cares.
    let conflicts = r.conflicting_inputs(&candidate);
    if !conflicts.is_zero() {
        let vertex = conflicts.pick_cube().unwrap().to_minterm(2, true);
        assert_eq!(vertex, vec![true, false]);
    }
}

#[test]
fn step_d_split_partitions_and_step_e_recursion_solves() {
    let (_space, r) = figures::fig1();
    // Split at the potentially conflicting vertex 10 on output y1.
    let (r_neg, r_pos) = r.split(&[true, false], 0).unwrap();
    assert!(r_neg.is_well_defined());
    assert!(r_pos.is_well_defined());
    assert_eq!(r_neg.union(&r_pos).unwrap(), r);
    // Each branch is an MISF (its flexibility is now cube-expressible at 10),
    // so solving each branch's MISF gives compatible functions directly.
    for branch in [r_neg, r_pos] {
        let solution = BrelSolver::new(BrelConfig::exact()).solve(&branch).unwrap();
        assert!(branch.is_compatible(&solution.function));
        assert!(r.is_compatible(&solution.function));
    }
}

#[test]
fn full_recursive_run_records_the_paradigm_events() {
    let (_space, r) = figures::fig1();
    let solution = BrelSolver::new(BrelConfig::exact()).solve(&r).unwrap();
    assert!(r.is_compatible(&solution.function));
    // The run explores at least one subrelation, improves at least once
    // (the seeded quick solution) and splits the relation at vertex 10.
    // `tests/obs_oracle.rs` checks that the search events agree with
    // these counters.
    assert!(solution.stats.explored >= 1);
    assert!(solution.stats.improvements >= 1);
    assert!(solution.stats.splits >= 1);
}
