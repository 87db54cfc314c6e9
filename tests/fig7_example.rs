//! The worked example of Fig. 7: a 3-input, 2-output relation solved after
//! one split, with conflicts on vertices 010 and 101.

use brel_benchdata::figures;
use brel_core::{BrelConfig, BrelSolver, IsfMinimizer};
use brel_relation::MultiOutputFunction;

#[test]
fn first_misf_minimization_conflicts_then_split_resolves() {
    let (space, r) = figures::fig7();
    // First recursion: minimize the MISF projections.
    let misf = r.to_misf();
    let minimizer = IsfMinimizer::default();
    let outputs: Vec<_> = misf
        .outputs()
        .iter()
        .map(|i| minimizer.minimize(i))
        .collect();
    let candidate = MultiOutputFunction::new(&space, outputs).unwrap();
    assert!(
        !r.is_compatible(&candidate),
        "the projected minimization must conflict with the relation"
    );
    let conflicts = r.conflicting_inputs(&candidate);
    assert!(!conflicts.is_zero());

    // The solver resolves the conflicts with at least one split and returns
    // a compatible solution.
    let solution = BrelSolver::new(BrelConfig::exact()).solve(&r).unwrap();
    assert!(r.is_compatible(&solution.function));
    assert!(solution.stats.explored >= 1);
    assert!(solution.stats.improvements >= 1);
    assert!(solution.stats.splits >= 1);
}

#[test]
fn exact_solution_is_no_worse_than_the_paper_style_answer() {
    // The paper's second-recursion solutions use one or two literals per
    // output (e.g. x ⇔ b, y ⇔ a + c). The exact run must therefore find a
    // solution whose sum of BDD sizes is at most 1 + 2 = 3.
    let (_space, r) = figures::fig7();
    let solution = BrelSolver::new(BrelConfig::exact()).solve(&r).unwrap();
    assert!(
        solution.cost <= 3,
        "cost {} exceeds the paper's solution",
        solution.cost
    );
}
