//! The batch-engine experiment: streams the Table-2 relation family plus
//! seeded `random_well_defined_relation` corpora through `brel-engine`'s
//! portfolio mode and summarizes which backend wins each job.
//!
//! This is the throughput-layer counterpart of [`crate::table2`]: instead
//! of comparing two solvers instance by instance on one thread, a mixed
//! corpus is fanned out over a worker pool and every job races the full
//! backend portfolio.

use brel_benchdata::random_relation::random_well_defined_relation;
use brel_benchdata::table2 as family;
use brel_engine::{BatchReport, JobSpec, RelationSpec, SearchStrategy};

/// Shape of the mixed corpus.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CorpusOptions {
    /// How many instances of the Table-2 family to include (clamped to the
    /// family size).
    pub table2_instances: usize,
    /// How many seeded random well-defined relations to include.
    pub random_relations: usize,
    /// Inputs of each random relation.
    pub random_inputs: usize,
    /// Outputs of each random relation.
    pub random_outputs: usize,
    /// Probability of extra related output vertices per input (the source
    /// of non-functional flexibility).
    pub extra_pair_prob: f64,
    /// Search strategy of every job's BREL backend.
    pub strategy: SearchStrategy,
}

impl CorpusOptions {
    /// The full corpus: every Table-2 instance plus eight random relations.
    pub fn full() -> Self {
        CorpusOptions {
            table2_instances: usize::MAX,
            random_relations: 8,
            random_inputs: 5,
            random_outputs: 3,
            extra_pair_prob: 0.25,
            strategy: SearchStrategy::Fifo,
        }
    }

    /// The CI smoke corpus: small instances only, so the batch solves in
    /// seconds even on one core.
    pub fn smoke() -> Self {
        CorpusOptions {
            table2_instances: 4,
            random_relations: 4,
            random_inputs: 4,
            random_outputs: 3,
            extra_pair_prob: 0.2,
            strategy: SearchStrategy::Fifo,
        }
    }
}

/// Builds the mixed portfolio corpus: Table-2 instances first (in family
/// order), then the seeded random relations. Deterministic: the same
/// options always produce the same job list.
pub fn corpus(options: &CorpusOptions) -> Vec<JobSpec> {
    let mut jobs = Vec::new();
    for instance in family::instances()
        .into_iter()
        .take(options.table2_instances)
    {
        let (_space, relation) = family::generate(&instance);
        let spec = RelationSpec::from_relation(&relation).expect("family spaces are enumerable");
        jobs.push(JobSpec::portfolio(instance.name, spec).with_strategy(options.strategy));
    }
    for seed in 0..options.random_relations as u64 {
        let (_space, relation) = random_well_defined_relation(
            options.random_inputs,
            options.random_outputs,
            options.extra_pair_prob,
            seed,
        );
        let spec = RelationSpec::from_relation(&relation).expect("random spaces are enumerable");
        jobs.push(JobSpec::portfolio(format!("rand{seed}"), spec).with_strategy(options.strategy));
    }
    jobs
}

/// The checked-in hard-relation workload: seeded random 7-input/4-output
/// relations with heavy output flexibility and a deep exploration budget,
/// sized so the *sequential* explorer needs on the order of a second — a
/// search long enough for wide mode's parallelism to pay for its
/// coordination. Single-backend BREL jobs under FIFO (no dominance
/// pruning), so the explored set is budget-shaped, not bound-shaped, and
/// the wide speedup measures raw expansion throughput.
pub fn hard_corpus() -> Vec<JobSpec> {
    use brel_engine::{BackendKind, JobBudget};
    (0..4u64)
        .map(|seed| {
            let (_space, relation) = random_well_defined_relation(7, 4, 0.35, 1000 + seed);
            let spec =
                RelationSpec::from_relation(&relation).expect("random spaces are enumerable");
            JobSpec::single(format!("hard{seed}"), spec, BackendKind::Brel)
                .with_strategy(SearchStrategy::Fifo)
                .with_budget(JobBudget {
                    max_explored: Some(600),
                    fifo_capacity: Some(8192),
                    ..JobBudget::default()
                })
        })
        .collect()
}

/// Minimum corpus size for a seeded chaos run:
/// [`brel_engine::FaultPlan::seeded`] places its three fault kinds on
/// *distinct* jobs, so a smaller corpus would silently arm fewer
/// injections and the chaos gates ("all injections fired") would pass
/// vacuously.
pub const MIN_CHAOS_JOBS: usize = 3;

/// Checks that a corpus is large enough for a seeded chaos run. Returns
/// the structured error message for the CLI to print (and fail with) when
/// it is not.
pub fn chaos_corpus_error(num_jobs: usize) -> Option<String> {
    (num_jobs < MIN_CHAOS_JOBS).then(|| {
        format!(
            "chaos run needs at least {MIN_CHAOS_JOBS} jobs so every fault kind \
             lands on a distinct job, but the corpus has only {num_jobs}; \
             raise --instances/--random"
        )
    })
}

/// Renders the batch as a human-readable table: one line per job with every
/// backend's cost and the selected winner.
pub fn render(report: &BatchReport) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "Batch engine: {} jobs, {} solved, {} workers, {:.3}s\n",
        report.jobs.len(),
        report.num_solved(),
        report.num_workers,
        report.wall_micros as f64 / 1e6,
    ));
    out.push_str(
        "name     PI PO | backend strat  cost cubes lits expl  hit%     cpu[s] | winner\n",
    );
    for job in &report.jobs {
        if let Some(error) = &job.error {
            out.push_str(&format!(
                "{:8} {:2} {:2} | error: {error}\n",
                job.name, job.num_inputs, job.num_outputs
            ));
            continue;
        }
        if job.attempts.is_empty() {
            // Every backend faulted away and no fallback recovered the job.
            out.push_str(&format!(
                "{:8} {:2} {:2} | {}: {}\n",
                job.name,
                job.num_inputs,
                job.num_outputs,
                job.outcome.map_or("failed", |o| o.name()),
                job.fault.as_deref().unwrap_or("no attempt completed"),
            ));
            continue;
        }
        for (i, attempt) in job.attempts.iter().enumerate() {
            let prefix = if i == 0 {
                format!("{:8} {:2} {:2}", job.name, job.num_inputs, job.num_outputs)
            } else {
                " ".repeat(14)
            };
            let strat = match attempt.strategy {
                Some(SearchStrategy::Fifo) => "fifo",
                Some(SearchStrategy::Dfs) => "dfs",
                Some(SearchStrategy::BestFirst) => "bf",
                None => "-",
            };
            out.push_str(&format!(
                "{prefix} | {:7} {:5} {:5} {:5} {:4} {:4} {:5.1} {:10.4} | {}\n",
                attempt.backend.name(),
                strat,
                attempt.cost,
                attempt.cubes,
                attempt.literals,
                attempt.explored,
                attempt.cache.cache_hit_rate() * 100.0,
                attempt.wall_micros as f64 / 1e6,
                match (job.winner == Some(i), job.outcome) {
                    (true, Some(brel_engine::JobOutcome::Degraded)) => "<-- winner (degraded)",
                    (true, _) => "<-- winner",
                    (false, _) => "",
                },
            ));
        }
        if let Some(fault) = &job.fault {
            out.push_str(&format!("{} | fault: {fault}\n", " ".repeat(14)));
        }
    }
    for (kind, wins) in report.wins_by_backend() {
        out.push_str(&format!("wins[{}] = {}\n", kind.name(), wins));
    }
    out.push_str(&format!(
        "reuse: {} warm resets, {} cold builds, {} cache hits / {} misses, {} quarantines\n",
        report.reuse.warm_reuses,
        report.reuse.cold_builds,
        report.reuse.subrel_cache_hits,
        report.reuse.subrel_cache_misses,
        report.reuse.quarantines,
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use brel_engine::{Engine, WideOptions};

    #[test]
    fn smoke_corpus_mixes_family_and_random_jobs() {
        let jobs = corpus(&CorpusOptions::smoke());
        assert_eq!(jobs.len(), 8);
        assert_eq!(jobs[0].name, "int1");
        assert_eq!(jobs[4].name, "rand0");
        assert!(jobs.iter().all(|j| j.backends.len() == 3));
    }

    #[test]
    fn the_hard_corpus_is_stable_and_single_backend() {
        use brel_engine::BackendKind;
        let jobs = hard_corpus();
        assert_eq!(jobs.len(), 4);
        assert_eq!(jobs[0].name, "hard0");
        assert!(jobs
            .iter()
            .all(|j| j.backends == vec![BackendKind::Brel] && j.strategy == SearchStrategy::Fifo));
        assert!(jobs.iter().all(|j| j.budget.max_explored == Some(600)));
    }

    #[test]
    fn chaos_needs_three_jobs_for_three_fault_kinds() {
        for too_small in 0..MIN_CHAOS_JOBS {
            let message = chaos_corpus_error(too_small).expect("sub-3 corpora are rejected");
            assert!(message.contains(&format!("only {too_small}")), "{message}");
        }
        assert_eq!(chaos_corpus_error(MIN_CHAOS_JOBS), None);
        assert_eq!(chaos_corpus_error(100), None);
    }

    #[test]
    fn smoke_batch_solves_everything_and_is_worker_count_invariant() {
        let jobs = corpus(&CorpusOptions {
            table2_instances: 2,
            random_relations: 2,
            ..CorpusOptions::smoke()
        });
        let one = Engine::with_workers(1).solve_batch(&jobs);
        let two = Engine::with_workers(2).solve_batch(&jobs);
        assert_eq!(one.num_solved(), jobs.len());
        assert_eq!(one.to_json(false), two.to_json(false));
        assert_eq!(one.to_csv(false), two.to_csv(false));
    }

    #[test]
    fn strategy_flows_into_every_job_and_the_serialized_output() {
        let options = CorpusOptions {
            table2_instances: 1,
            random_relations: 1,
            strategy: SearchStrategy::BestFirst,
            ..CorpusOptions::smoke()
        };
        let jobs = corpus(&options);
        assert!(jobs.iter().all(|j| j.strategy == SearchStrategy::BestFirst));
        let report = Engine::with_workers(2).solve_batch(&jobs);
        assert!(report
            .to_json(false)
            .contains("\"strategy\": \"best-first\""));
        assert!(report.to_csv(false).contains(",brel,best-first,"));
    }

    #[test]
    fn wide_mode_is_worker_count_invariant_on_the_smoke_corpus() {
        let jobs = corpus(&CorpusOptions {
            table2_instances: 2,
            random_relations: 1,
            strategy: SearchStrategy::BestFirst,
            ..CorpusOptions::smoke()
        });
        let options = WideOptions::default();
        let one = Engine::with_workers(1)
            .with_wide(options)
            .solve_batch(&jobs);
        let two = Engine::with_workers(2)
            .with_wide(options)
            .solve_batch(&jobs);
        assert_eq!(one.num_solved(), jobs.len());
        assert_eq!(one.to_json(false), two.to_json(false));
        assert_eq!(one.to_csv(false), two.to_csv(false));
        assert_eq!(one.total_winner_cost(), two.total_winner_cost());
    }

    #[test]
    fn cold_runs_match_warm_runs_byte_for_byte() {
        let jobs = corpus(&CorpusOptions {
            table2_instances: 2,
            random_relations: 2,
            ..CorpusOptions::smoke()
        });
        let warm = Engine::with_workers(2).solve_batch(&jobs);
        let cold = Engine::with_workers(2).with_reuse(false).solve_batch(&jobs);
        assert_eq!(warm.to_json(false), cold.to_json(false));
        assert_eq!(warm.to_csv(false), cold.to_csv(false));
        assert_eq!(cold.reuse.warm_reuses, 0);
        assert_eq!(
            cold.reuse.subrel_cache_hits + cold.reuse.subrel_cache_misses,
            0
        );
    }

    #[test]
    fn render_mentions_every_job_and_the_winner_tally() {
        let jobs = corpus(&CorpusOptions {
            table2_instances: 1,
            random_relations: 1,
            ..CorpusOptions::smoke()
        });
        let report = Engine::with_workers(2).solve_batch(&jobs);
        let text = render(&report);
        for job in &jobs {
            assert!(text.contains(&job.name));
        }
        assert!(text.contains("<-- winner"));
        assert!(text.contains("wins[brel]"));
        assert!(text.contains("reuse:"));
    }
}
