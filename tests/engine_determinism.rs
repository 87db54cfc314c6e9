//! Determinism of the batch engine: the same batch solved with 1, 2 and 8
//! workers must yield byte-identical `SolutionReport` sequences in job-id
//! order (timing-free serializations compared byte for byte), and so must
//! the same jobs run one at a time through a single `Runner`. Kernel work
//! is deterministic too, so the smoke corpus pins it exactly.

use brel_bench::engine_batch::{corpus, CorpusOptions};
use brel_suite::benchdata::random_relation::random_well_defined_relation;
use brel_suite::benchdata::table2;
use brel_suite::engine::{
    BackendKind, BatchReport, CostSpec, Engine, EngineConfig, FaultPolicy, JobBudget, JobControl,
    JobOutcome, JobSpec, RelationSpec, Runner, SearchStrategy, WideOptions,
};
use brel_suite::relation::{BooleanRelation, RelationSpace};

fn mixed_batch() -> Vec<JobSpec> {
    let mut jobs = Vec::new();
    // Two instances of the Table-2 family.
    for instance in table2::instances().into_iter().take(2) {
        let (_space, relation) = table2::generate(&instance);
        jobs.push(JobSpec::portfolio(
            instance.name,
            RelationSpec::from_relation(&relation).unwrap(),
        ));
    }
    // Two seeded random relations, one with a non-default cost function.
    for seed in [7u64, 8u64] {
        let (_space, relation) = random_well_defined_relation(4, 3, 0.25, seed);
        jobs.push(
            JobSpec::portfolio(
                format!("rand{seed}"),
                RelationSpec::from_relation(&relation).unwrap(),
            )
            .with_cost(if seed == 7 {
                CostSpec::SumBddSize
            } else {
                CostSpec::LiteralCount
            }),
        );
    }
    // A paper relation with an unbounded budget and a single-backend job.
    jobs.push(
        JobSpec::portfolio("fig10", fig10_spec()).with_budget(JobBudget {
            max_explored: None,
            fifo_capacity: None,
            ..JobBudget::default()
        }),
    );
    jobs.push(JobSpec::single(
        "fig10_quick",
        fig10_spec(),
        BackendKind::Quick,
    ));
    jobs
}

fn fig10_spec() -> RelationSpec {
    let space = RelationSpace::new(2, 2);
    let fig10 =
        BooleanRelation::from_table(&space, "00:{00,11}\n01:{10}\n10:{01,10}\n11:{11}").unwrap();
    RelationSpec::from_relation(&fig10).unwrap()
}

/// The serving worker's shape: one long-lived `Runner` takes the jobs one
/// at a time under an inert `JobControl`.
fn run_serially(jobs: &[JobSpec], wide: Option<WideOptions>) -> BatchReport {
    let config = EngineConfig {
        num_workers: 1,
        wide,
        reuse: true,
    };
    let mut runner = Runner::new(&config, None);
    let control = JobControl::new();
    let reports = jobs
        .iter()
        .enumerate()
        .map(|(id, job)| runner.run(id, job, Some(&control)))
        .collect();
    BatchReport {
        jobs: reports,
        num_workers: 1,
        wall_micros: 0,
        reuse: runner.counts(),
    }
}

#[test]
fn batches_are_byte_identical_across_1_2_and_8_workers() {
    let jobs = mixed_batch();
    let reports: Vec<_> = [1usize, 2, 8]
        .into_iter()
        .map(|w| Engine::with_workers(w).solve_batch(&jobs))
        .collect();

    // Every run solves every job and delivers reports in job-id order.
    for report in &reports {
        assert_eq!(report.num_solved(), jobs.len());
        for (i, job) in report.jobs.iter().enumerate() {
            assert_eq!(job.job_id, i);
        }
    }

    // Byte-identical timing-free serializations, pairwise.
    let jsons: Vec<String> = reports.iter().map(|r| r.to_json(false)).collect();
    let csvs: Vec<String> = reports.iter().map(|r| r.to_csv(false)).collect();
    assert_eq!(jsons[0], jsons[1], "1 vs 2 workers (JSON)");
    assert_eq!(jsons[0], jsons[2], "1 vs 8 workers (JSON)");
    assert_eq!(csvs[0], csvs[1], "1 vs 2 workers (CSV)");
    assert_eq!(csvs[0], csvs[2], "1 vs 8 workers (CSV)");

    // One runner taking the jobs serially matches the 1-worker batch.
    let serial = run_serially(&jobs, None);
    assert_eq!(jsons[0], serial.to_json(false), "1 worker vs runner (JSON)");
    assert_eq!(csvs[0], serial.to_csv(false), "1 worker vs runner (CSV)");

    // The structured reports agree field by field too (not just the
    // serialized views): mask the wall-clock and the scheduling-dependent
    // reuse provenance, then compare directly.
    let masked: Vec<_> = reports
        .iter()
        .map(|r| {
            r.jobs
                .iter()
                .map(|j| {
                    let mut j = j.clone();
                    for a in &mut j.attempts {
                        a.wall_micros = 0;
                        a.reuse = Default::default();
                    }
                    j
                })
                .collect::<Vec<_>>()
        })
        .collect();
    assert_eq!(masked[0], masked[1]);
    assert_eq!(masked[0], masked[2]);
}

#[test]
fn best_first_batches_are_byte_identical_across_1_2_and_8_workers() {
    // The acceptance criterion: `--strategy best-first` (and `dfs`)
    // output must be deterministic at every worker count, in both engine
    // modes.
    for strategy in [SearchStrategy::BestFirst, SearchStrategy::Dfs] {
        assert_strategy_is_worker_count_invariant(strategy);
    }
}

fn assert_strategy_is_worker_count_invariant(strategy: SearchStrategy) {
    let jobs: Vec<JobSpec> = mixed_batch()
        .into_iter()
        .map(|j| j.with_strategy(strategy))
        .collect();

    // Job-parallel (narrow) mode.
    let narrow: Vec<String> = [1usize, 2, 8]
        .into_iter()
        .map(|w| Engine::with_workers(w).solve_batch(&jobs).to_json(false))
        .collect();
    assert_eq!(narrow[0], narrow[1], "{strategy} narrow: 1 vs 2 workers");
    assert_eq!(narrow[0], narrow[2], "{strategy} narrow: 1 vs 8 workers");
    assert!(narrow[0].contains(&format!("\"strategy\": \"{strategy}\"")));

    // Wide mode (parallel frontier expansion inside each BREL solve).
    let options = WideOptions::default();
    let wide: Vec<String> = [1usize, 2, 8]
        .into_iter()
        .map(|w| {
            Engine::with_workers(w)
                .with_wide(options)
                .solve_batch(&jobs)
                .to_json(false)
        })
        .collect();
    assert_eq!(wide[0], wide[1], "{strategy} wide: 1 vs 2 workers");
    assert_eq!(wide[0], wide[2], "{strategy} wide: 1 vs 8 workers");

    // Wide CSV agrees too, and every job still solves.
    let wide_csv: Vec<String> = [1usize, 8]
        .into_iter()
        .map(|w| {
            Engine::with_workers(w)
                .with_wide(options)
                .solve_batch(&jobs)
                .to_csv(false)
        })
        .collect();
    assert_eq!(
        wide_csv[0], wide_csv[1],
        "{strategy} wide CSV: 1 vs 8 workers"
    );

    // One wide runner taking the jobs serially matches the 1-worker batch.
    let serial = run_serially(&jobs, Some(options));
    assert_eq!(
        wide[0],
        serial.to_json(false),
        "{strategy} wide: 1 worker vs runner (JSON)"
    );
    assert_eq!(
        wide_csv[0],
        serial.to_csv(false),
        "{strategy} wide: 1 worker vs runner (CSV)"
    );

    let report = Engine::with_workers(2)
        .with_wide(options)
        .solve_batch(&jobs);
    assert_eq!(report.num_solved(), jobs.len());
    // Wide mode still escapes the quick solver's local minimum on fig10.
    let fig10 = report.jobs.iter().find(|j| j.name == "fig10").unwrap();
    assert_eq!(fig10.winning().unwrap().cost, 2, "{strategy}");
    assert_eq!(fig10.winning().unwrap().backend, BackendKind::Brel);
}

#[test]
fn portfolio_mode_picks_per_job_winners() {
    let jobs = mixed_batch();
    let report = Engine::with_workers(2).solve_batch(&jobs);
    // fig10 with an unbounded budget: BREL escapes the quick solver's
    // local minimum, so the portfolio winner must be BREL at cost 2.
    let fig10 = report.jobs.iter().find(|j| j.name == "fig10").unwrap();
    let winner = fig10.winning().unwrap();
    assert_eq!(winner.backend, BackendKind::Brel);
    assert_eq!(winner.cost, 2);
    // Every winner is the cheapest of its job's attempts.
    for job in &report.jobs {
        let w = job.winning().unwrap();
        assert!(job.attempts.iter().all(|a| a.cost >= w.cost));
    }
    // The single-backend job ran exactly one attempt.
    let single = report
        .jobs
        .iter()
        .find(|j| j.name == "fig10_quick")
        .unwrap();
    assert_eq!(single.attempts.len(), 1);
    assert_eq!(single.winning().unwrap().backend, BackendKind::Quick);
}

#[test]
fn wide_batches_match_narrow_batches_but_for_kernel_counters() {
    // Both modes commit through one `Explorer` transition in one pop
    // order, so every solver field agrees. Only the kernel counters differ:
    // wide mode scopes them to its seed phase.
    let without_kernel_counters = |mut report: BatchReport| {
        for job in &mut report.jobs {
            for attempt in &mut job.attempts {
                attempt.cache = Default::default();
                attempt.gc = Default::default();
            }
        }
        report.to_json(false)
    };
    for strategy in SearchStrategy::all() {
        let jobs: Vec<JobSpec> = mixed_batch()
            .into_iter()
            .map(|j| j.with_strategy(strategy))
            .collect();
        let narrow = without_kernel_counters(Engine::with_workers(2).solve_batch(&jobs));
        for workers in [1usize, 2, 8] {
            let wide = Engine::with_workers(workers)
                .with_wide(WideOptions::default())
                .solve_batch(&jobs);
            assert_eq!(
                narrow,
                without_kernel_counters(wide),
                "{strategy}: narrow vs wide at {workers} workers"
            );
        }
    }
}

#[test]
fn budget_and_step_deadline_at_the_same_count_stop_alike_in_both_modes() {
    // With `max_explored == step_deadline == n` the budget check comes
    // first: the job is solved, not degraded, in either mode.
    for strategy in SearchStrategy::all() {
        for n in 1..=3usize {
            let job = JobSpec::single("fig10", fig10_spec(), BackendKind::Brel)
                .with_strategy(strategy)
                .with_budget(JobBudget {
                    max_explored: Some(n),
                    fifo_capacity: None,
                    ..JobBudget::default()
                })
                .with_fault(FaultPolicy {
                    step_deadline: Some(n),
                    ..FaultPolicy::default()
                });
            let summary = |wide: Option<WideOptions>, num_workers: usize| {
                let config = EngineConfig {
                    num_workers,
                    wide,
                    reuse: true,
                };
                let report = Runner::new(&config, None).run(0, &job, None);
                let attempt = &report.attempts[0];
                (
                    report.outcome,
                    report.fault.clone(),
                    attempt.explored,
                    attempt.degraded,
                )
            };
            let narrow = summary(None, 1);
            assert_eq!(narrow.0, Some(JobOutcome::Solved), "{strategy}, n = {n}");
            for workers in [1usize, 2] {
                assert_eq!(
                    narrow,
                    summary(Some(WideOptions::default()), workers),
                    "{strategy}, n = {n}: narrow vs wide at {workers} workers"
                );
            }
        }
    }
}

/// The smoke corpus on one worker does a fixed amount of kernel work: op
/// cache inserts and unique-table lookups are pure functions of the op
/// sequence and the cache geometry, so they are pinned exactly, like the
/// cost fingerprint 81. A change to the op cache's size or growth rule, or
/// to how many ops a solver issues, moves them; update the pin only with
/// a measured reason.
#[test]
fn smoke_corpus_kernel_work_is_pinned() {
    let report = Engine::with_workers(1).solve_batch(&corpus(&CorpusOptions::smoke()));
    assert_eq!(
        report.total_winner_cost(),
        81,
        "smoke-corpus cost fingerprint"
    );
    let (inserts, unique_lookups) = report.jobs.iter().flat_map(|job| &job.attempts).fold(
        (0, 0),
        |(inserts, lookups), attempt| {
            (
                inserts + attempt.cache.cache_inserts,
                lookups + attempt.cache.unique_lookups,
            )
        },
    );
    // Debug builds also run the solvers' `debug_assert!` self-checks
    // (compatibility, interval containment) through the same kernel.
    let pinned = if cfg!(debug_assertions) {
        (23_817, 27_525)
    } else {
        (21_718, 25_669)
    };
    assert_eq!(
        (inserts, unique_lookups),
        pinned,
        "(op-cache inserts, unique-table lookups)"
    );
}

/// The default corpus's cost fingerprint under each search strategy, the
/// totals `engine_batch --strategy fifo|dfs|best-first` reports: a search
/// change that moves any of them altered results, not just speed.
#[test]
fn full_corpus_fingerprints_are_pinned_per_strategy() {
    for (strategy, expected) in [
        (SearchStrategy::Fifo, 687),
        (SearchStrategy::Dfs, 698),
        (SearchStrategy::BestFirst, 685),
    ] {
        let jobs = corpus(&CorpusOptions {
            strategy,
            ..CorpusOptions::full()
        });
        let report = Engine::with_workers(2).solve_batch(&jobs);
        assert_eq!(
            report.total_winner_cost(),
            expected,
            "{strategy:?} cost fingerprint"
        );
    }
}
