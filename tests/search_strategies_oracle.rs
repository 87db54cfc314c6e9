//! Property-based oracle for the strategy-driven search core: every
//! [`SearchStrategy`] must return a relation-compatible solution no worse
//! than the quick solver's, and in exact mode the frontier discipline must
//! not change the optimum — best-first and FIFO agree cost-for-cost.

use proptest::prelude::*;

use brel_core::{
    BrelConfig, BrelSolver, CostFn, CostFunction, Explorer, QuickSolver, SearchStrategy,
    StepOutcome,
};
use brel_suite::benchdata::{figures, random_well_defined_relation};

/// Strategy: a seed plus small dimensions for a random well-defined
/// relation (kept small enough that exact mode terminates quickly).
fn relation_params() -> impl Strategy<Value = (usize, usize, u64)> {
    (2usize..=3, 1usize..=2, any::<u64>())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Every strategy's solution is compatible and no worse than the quick
    /// seed, under the default (bounded) budget.
    #[test]
    fn every_strategy_is_compatible_and_no_worse_than_quick(
        (ni, no, seed) in relation_params()
    ) {
        let (_space, r) = random_well_defined_relation(ni, no, 0.3, seed);
        let quick = QuickSolver::new().solve(&r).unwrap();
        let quick_cost = CostFn::SumBddSize.cost(&quick);
        for strategy in SearchStrategy::all() {
            let solution = BrelSolver::new(BrelConfig::default().with_strategy(strategy))
                .solve(&r)
                .unwrap();
            prop_assert!(
                r.is_compatible(&solution.function),
                "{strategy} returned an incompatible function"
            );
            prop_assert!(
                solution.cost <= quick_cost,
                "{strategy} cost {} beats quick {}",
                solution.cost,
                quick_cost
            );
            prop_assert_eq!(solution.cost, CostFn::SumBddSize.cost(&solution.function));
            prop_assert!(solution.stats.frontier_peak >= 1);
        }
    }

    /// Exact mode is strategy-independent: best-first's dominance pruning
    /// and DFS's dives reach the same optimal cost FIFO proves.
    #[test]
    fn exact_mode_optimum_is_strategy_independent((ni, no, seed) in relation_params()) {
        let (_space, r) = random_well_defined_relation(ni, no, 0.3, seed);
        let fifo = BrelSolver::new(BrelConfig::exact())
            .solve(&r)
            .unwrap();
        prop_assert!(fifo.stats.complete);
        for strategy in [SearchStrategy::Dfs, SearchStrategy::BestFirst] {
            let other = BrelSolver::new(BrelConfig::exact().with_strategy(strategy))
                .solve(&r)
                .unwrap();
            prop_assert!(other.stats.complete);
            prop_assert_eq!(
                other.cost,
                fifo.cost,
                "{} exact optimum {} != fifo {}",
                strategy,
                other.cost,
                fifo.cost
            );
            prop_assert!(r.is_compatible(&other.function));
        }
    }

    /// The anytime explorer, paused and resumed one step at a time, lands
    /// exactly where the one-shot solver does — node for node.
    #[test]
    fn stepwise_exploration_matches_the_one_shot_solve((ni, no, seed) in relation_params()) {
        let (_space, r) = random_well_defined_relation(ni, no, 0.25, seed);
        let config = BrelConfig::default().with_strategy(SearchStrategy::BestFirst);
        let one_shot = BrelSolver::new(config.clone()).solve(&r).unwrap();
        let mut explorer = Explorer::new(config, &r).unwrap();
        let mut last = explorer.best_cost();
        while let StepOutcome::Explored { .. } = explorer.step().unwrap() {
            prop_assert!(explorer.best_cost() <= last, "incumbent regressed");
            last = explorer.best_cost();
        }
        let stepped = explorer.into_solution();
        prop_assert_eq!(stepped.cost, one_shot.cost);
        prop_assert_eq!(stepped.stats.explored, one_shot.stats.explored);
        prop_assert_eq!(stepped.stats.splits, one_shot.stats.splits);
        prop_assert_eq!(stepped.stats.frontier_peak, one_shot.stats.frontier_peak);
        prop_assert_eq!(
            stepped.function.outputs().to_vec(),
            one_shot.function.outputs().to_vec()
        );
    }

    /// The split-point fallback hardening: `select_split_point` always finds
    /// a Theorem-5.2 vertex/output pair for a conflicting candidate, so no
    /// strategy ever surfaces `RelationError::NoSplitPoint` on well-defined
    /// relations (the unreachability proof in `brel_core::search::expand`).
    #[test]
    fn no_split_point_error_is_unreachable_on_well_defined_relations(
        (ni, no, seed) in relation_params()
    ) {
        let (_space, r) = random_well_defined_relation(ni, no, 0.4, seed);
        for strategy in SearchStrategy::all() {
            let result = BrelSolver::new(BrelConfig::exact().with_strategy(strategy)).solve(&r);
            prop_assert!(result.is_ok(), "{strategy} errored: {:?}", result.err());
        }
    }
}

/// The paper's Section 9.1 local-minimum relation in exact mode: every
/// strategy proves the cost-2 optimum, and best-first's bounding gets
/// there with no more explored subrelations than FIFO.
#[test]
fn every_strategy_reaches_the_fig10_optimum_and_best_first_explores_no_more_than_fifo() {
    let (_space, fig10) = figures::fig10();
    let explored: Vec<(SearchStrategy, usize)> = SearchStrategy::all()
        .into_iter()
        .map(|strategy| {
            let solution = BrelSolver::new(BrelConfig::exact().with_strategy(strategy))
                .solve(&fig10)
                .unwrap();
            assert_eq!(solution.cost, 2, "{strategy} missed the fig10 optimum");
            (strategy, solution.stats.explored)
        })
        .collect();
    let of = |wanted| explored.iter().find(|(s, _)| *s == wanted).unwrap().1;
    assert!(
        of(SearchStrategy::BestFirst) <= of(SearchStrategy::Fifo),
        "best-first explored more than FIFO on fig10: {explored:?}"
    );
}

mod wide_invariance {
    use super::*;
    use brel_suite::engine::{
        BackendKind, Engine, JobSpec, RelationSpec, StaggerPlan, WideOptions,
    };

    /// One seeded batch run in wide mode at the given worker count.
    fn run_wide(jobs: &[JobSpec], workers: usize, options: WideOptions) -> (String, String) {
        let report = Engine::with_workers(workers)
            .with_wide(options)
            .solve_batch(jobs);
        (report.to_json(false), report.to_csv(false))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]

        /// Steal-order invariance: seeded per-worker stagger delays
        /// scramble which thread claims (and steals) each subproblem, yet
        /// the committed sequence — and therefore the timing-free JSON and
        /// CSV reports — stays byte-identical across 1, 2, and 8 workers.
        #[test]
        fn stagger_scrambled_wide_runs_are_byte_identical_across_worker_counts(
            seed in any::<u64>(),
            stagger_seed in any::<u64>(),
            max_micros in 1u64..200,
        ) {
            let mut jobs = Vec::new();
            for j in 0..2u64 {
                let (_space, r) =
                    random_well_defined_relation(4, 2, 0.3, seed.wrapping_add(j));
                jobs.push(JobSpec::single(
                    format!("inv{j}"),
                    RelationSpec::from_relation(&r).unwrap(),
                    BackendKind::Brel,
                ));
            }
            let options = WideOptions {
                stagger: Some(StaggerPlan { seed: stagger_seed, max_micros }),
            };
            let baseline = run_wide(&jobs, 1, options);
            for workers in [2usize, 8] {
                let scrambled = run_wide(&jobs, workers, options);
                prop_assert_eq!(
                    &baseline.0,
                    &scrambled.0,
                    "JSON drifted at {} workers",
                    workers
                );
                prop_assert_eq!(
                    &baseline.1,
                    &scrambled.1,
                    "CSV drifted at {} workers",
                    workers
                );
            }
        }
    }
}
