//! The search-strategy comparison harness: runs the same workloads through
//! every [`SearchStrategy`] (FIFO / DFS / best-first) so the frontier
//! disciplines can be measured against each other, and emits one labelled
//! JSON run for the `BENCH_search.json` trajectory.
//!
//! Three workload families per strategy:
//!
//! * **batch** — the Table-2 family plus seeded random relations, solved by
//!   the BREL backend alone on one engine worker (so `explored`, `splits`
//!   and `frontier_peak` are the strategy's own footprint, and
//!   `total_cost` doubles as the determinism fingerprint for the default
//!   FIFO strategy);
//! * **fig10** — the paper's Section 9.1 local-minimum relation in exact
//!   mode: every strategy must land on the cost-2 optimum, and best-first
//!   must get there with no more explored subrelations than FIFO (the
//!   bounding payoff);
//! * **churn** — a `gc_churn`-class memory workload: one Table-2 instance
//!   explored under a deep budget with a small GC threshold, where the
//!   strategies' frontier shapes (DFS's stack vs. BFS's queue) show up as
//!   different peak live-node counts.
//!
//! A **wide** block re-runs the batch in the engine's wide mode (the
//! asynchronous work-stealing search) on 1 and 4 workers and records that
//! the timing-free outputs agree — the determinism demonstration the CI
//! smoke re-checks per PR. Each wide number carries the provenance tag of
//! the corpus it was measured on.
//!
//! A **hard** block (full runs only) solves the checked-in hard corpus
//! ([`engine_batch::hard_corpus`], tag
//! [`engine_batch::HARD_CORPUS_NAME`]) sequentially and then wide on 8
//! workers: the sequential solve takes on the order of a second, long
//! enough for the stealing workers to win outright. It records both
//! walls, the speedup, and that every job's winning cost matched across
//! the two modes — the CI perf gate asserts wide ≤ sequential here.
//!
//! A **reuse** block (once per run, not per strategy) measures what the
//! engine's warm pool buys: the FIFO portfolio corpus, with every job
//! submitted twice, solved cold (one manager per job, reuse off) and then
//! warm (per-worker sessions + the solved-subrelation cache). It records
//! both wall clocks, the reuse counters, and that the timing-free outputs
//! were byte-identical — the cache is a pure speedup or it is a bug.
//!
//! An **obs** block (once per run) re-runs the FIFO wide batch under a
//! [`brel_obs::RecordingCollector`] and records the wide-mode phase
//! breakdown (seed / drive / expand / steal-build / idle / rehydrate,
//! with total and self times), the steal count, the share of the
//! coordinator track's `wide_solve` time attributed to named phases, the
//! disabled-span cost, and the traced-vs-untraced walls — pinning both
//! the attribution and the zero-overhead contracts in the trajectory
//! file.
//!
//! A **chaos** block (once per run) fires a seeded [`brel_engine::FaultPlan`]
//! — one panic, one quota trip, one step deadline on three distinct jobs —
//! into the FIFO portfolio corpus and records the fault-tolerance
//! contracts: every injection fired, every targeted job came back with a
//! structured non-`solved` outcome *and* a recovered solution, faulted
//! sessions were quarantined, the chaos run itself is worker-count
//! invariant, and the untargeted jobs' timing-free reports are
//! byte-identical to a no-fault run (fault isolation is perfect or it is
//! a bug).

use std::sync::Arc;
use std::time::Instant;

use brel_benchdata::figures;
use brel_benchdata::table2 as family;
use brel_core::{BrelConfig, BrelSolver, SearchStrategy};
use brel_engine::{BackendKind, FaultPlan, JobOutcome, JobSpec, Json, WideOptions};

use crate::engine_batch::{self, CorpusOptions};

/// The wide configuration every harness measurement uses: a modest
/// speculation window, default steal threshold, no stagger.
fn wide_options() -> WideOptions {
    WideOptions {
        lookahead: 4,
        ..WideOptions::default()
    }
}

/// Harness configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchBenchOptions {
    /// Table-2 instances in the batch workload.
    pub table2_instances: usize,
    /// Seeded random relations in the batch workload.
    pub random_relations: usize,
    /// Exploration budget of the churn workload.
    pub churn_budget: usize,
    /// Whether to run the hard wide-vs-sequential workload (skipped by
    /// the smoke preset: its sequential leg alone takes about a second).
    pub hard: bool,
    /// Label recorded in the emitted JSON (names the solver generation).
    pub label: String,
}

impl SearchBenchOptions {
    /// The full measurement configuration.
    pub fn full(label: impl Into<String>) -> Self {
        SearchBenchOptions {
            table2_instances: usize::MAX,
            random_relations: 8,
            churn_budget: 200,
            hard: true,
            label: label.into(),
        }
    }

    /// The CI smoke configuration: a small batch and a shallow churn budget
    /// so the harness finishes in seconds.
    pub fn smoke(label: impl Into<String>) -> Self {
        SearchBenchOptions {
            table2_instances: 4,
            random_relations: 2,
            churn_budget: 40,
            hard: false,
            label: label.into(),
        }
    }
}

/// Aggregated metrics of one strategy's batch run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchMetrics {
    /// Sum of the winning costs (the determinism fingerprint).
    pub total_cost: u64,
    /// Sum of subrelations explored by the BREL attempts.
    pub explored: u64,
    /// Sum of splits performed by the BREL attempts.
    pub splits: u64,
    /// Largest pending-subproblem high-water mark over the batch.
    pub frontier_peak: u64,
    /// Wall time of the batch on one worker, in microseconds.
    pub wall_micros: u64,
}

/// One strategy's full measurement row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StrategyRow {
    /// The strategy measured.
    pub strategy: SearchStrategy,
    /// The single-backend batch workload.
    pub batch: BatchMetrics,
    /// Fig. 10 exact mode: (cost, explored).
    pub fig10_cost: u64,
    /// Fig. 10 exact mode: subrelations explored to prove the optimum.
    pub fig10_explored: u64,
    /// Churn workload: peak live BDD nodes (the frontier's memory shape).
    pub churn_peak_live_nodes: u64,
    /// Churn workload: pending-subproblem high-water mark.
    pub churn_frontier_peak: u64,
    /// Churn workload: kernel collections triggered.
    pub churn_gc_collections: u64,
    /// Churn workload: incumbent cost when the budget ran out.
    pub churn_cost: u64,
    /// Wide mode (4 workers): total winner cost — must equal the 1-worker
    /// wide run's, recorded to pin the determinism demonstration.
    pub wide_total_cost: u64,
    /// Wide mode: whether the 1-worker and 4-worker timing-free outputs
    /// were byte-identical.
    pub wide_deterministic: bool,
    /// Wide mode (4 workers): batch wall time in microseconds.
    pub wide_wall_micros: u64,
}

/// The warm-vs-cold measurement: the same doubled corpus solved with
/// cross-job reuse off and then on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReuseMetrics {
    /// Jobs in the doubled corpus.
    pub num_jobs: u64,
    /// Wall time with reuse off (cold manager per job), microseconds.
    pub cold_wall_micros: u64,
    /// Wall time with reuse on (warm pool + subrelation cache), microseconds.
    pub warm_wall_micros: u64,
    /// Warm-session resets counted by the warm run.
    pub warm_reuses: u64,
    /// Cold manager builds counted by the warm run.
    pub cold_builds: u64,
    /// Solved-subrelation cache hits in the warm run.
    pub subrel_cache_hits: u64,
    /// Solved-subrelation cache misses in the warm run.
    pub subrel_cache_misses: u64,
    /// Total winner cost (shared by both runs when `identical_output`).
    pub total_cost: u64,
    /// Whether the cold and warm timing-free outputs were byte-identical.
    pub identical_output: bool,
}

/// One phase of the wide-mode breakdown in the [`ObsMetrics`] block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObsPhase {
    /// The phase name (an engine/session span name).
    pub name: &'static str,
    /// Completed span count over the traced batch.
    pub count: u64,
    /// Total wall time across all spans of the phase, microseconds.
    pub total_us: u64,
    /// Self time (total minus directly nested spans), microseconds.
    pub self_us: u64,
}

/// The observability measurement: the FIFO wide batch traced end to end.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObsMetrics {
    /// Wall of the traced wide run (4 workers), microseconds.
    pub traced_wall_micros: u64,
    /// Wall of the identical untraced run, microseconds.
    pub untraced_wall_micros: u64,
    /// Per-call cost of a disabled span, nanoseconds (the zero-overhead
    /// contract, measured with no collector installed).
    pub disabled_span_ns: u64,
    /// Cross-worker steals across the traced batch (subproblems imported
    /// into the session of a worker that did not create them).
    pub steals: u64,
    /// Percent of the coordinator track's `wide_solve` time attributed
    /// to its named phases (seed + the parallel section), rounded down.
    /// Computed per-track so concurrent workers' time cannot inflate it
    /// past 100.
    pub attributed_pct: u64,
    /// Whether the traced and untraced timing-free outputs were
    /// byte-identical (tracing is write-only or it is a bug).
    pub identical_output: bool,
    /// The wide-mode phase breakdown, in call-structure order.
    pub phases: Vec<ObsPhase>,
}

/// The hard wide-vs-sequential measurement: the checked-in hard corpus
/// solved sequentially and then by the work-stealing wide mode on 8
/// workers. The corpus is sized so the sequential leg takes on the order
/// of a second — long enough that the wide walk's coordination overhead
/// is noise and the measured ratio is the parallel speedup.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HardMetrics {
    /// Provenance tag of the corpus both walls were measured on.
    pub corpus: &'static str,
    /// Jobs in the corpus.
    pub num_jobs: u64,
    /// Total winner cost (shared by both runs when `cost_parity`).
    pub total_cost: u64,
    /// Wall of the sequential run (1 worker, narrow mode), microseconds.
    pub sequential_wall_micros: u64,
    /// Wall of the wide run (8 workers), microseconds.
    pub wide_wall_micros: u64,
    /// Whether every job's winning cost matched between the sequential
    /// and the wide run (wide mode is a speedup at equal cost or it is a
    /// bug). Full-output byte identity is asserted *across wide worker
    /// counts*, not across modes: wide scopes its kernel cache/GC
    /// counters to the deterministic seed phase, so those stat blocks
    /// legitimately differ from a narrow run's.
    pub cost_parity: bool,
}

/// The fault-tolerance measurement: a seeded fault plan fired into the
/// FIFO portfolio corpus, with every contract recorded as data so the run
/// (and the CI gate over it) can prove the engine degrades instead of
/// failing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChaosMetrics {
    /// Seed of the injected [`FaultPlan`].
    pub seed: u64,
    /// Injections the plan carried (one per [`brel_engine::FaultKind`],
    /// clamped to the corpus size).
    pub injections: u64,
    /// Injections that actually fired — must equal `injections`.
    pub fired: u64,
    /// Jobs whose outcome was not `solved` — must equal `injections`
    /// (every fault is attributed, no fault leaks onto a clean job).
    pub non_solved: u64,
    /// Whether every targeted job still produced a verified solution
    /// (the degradation ladder or surviving portfolio attempts won).
    pub all_recovered: bool,
    /// Warm sessions quarantined and rebuilt cold by the 2-worker chaos run.
    pub quarantines: u64,
    /// Whether the 1- and 2-worker chaos runs' timing-free outputs were
    /// byte-identical (fault injection preserves determinism).
    pub deterministic: bool,
    /// Whether every *untargeted* job's timing-free report was
    /// byte-identical to the no-fault run (fault isolation).
    pub clean_identical: bool,
}

/// The complete harness output.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SearchReport {
    /// The configuration label.
    pub label: String,
    /// One row per strategy, in [`SearchStrategy::all`] order.
    pub rows: Vec<StrategyRow>,
    /// The warm-vs-cold engine measurement (once per run).
    pub reuse: ReuseMetrics,
    /// The traced wide-mode phase breakdown (once per run).
    pub obs: ObsMetrics,
    /// The seeded fault-injection measurement (once per run).
    pub chaos: ChaosMetrics,
    /// The hard wide-vs-sequential measurement (full runs only).
    pub hard: Option<HardMetrics>,
}

/// Brel-only jobs over the harness corpus (the portfolio's quick/gyocro
/// attempts would dilute the strategy signal).
fn brel_jobs(options: &SearchBenchOptions, strategy: SearchStrategy) -> Vec<JobSpec> {
    engine_batch::corpus(&CorpusOptions {
        table2_instances: options.table2_instances,
        random_relations: options.random_relations,
        strategy,
        ..CorpusOptions::full()
    })
    .into_iter()
    .map(|mut job| {
        job.backends = vec![BackendKind::Brel];
        job
    })
    .collect()
}

fn batch_metrics(jobs: &[JobSpec]) -> BatchMetrics {
    let start = Instant::now();
    let report = engine_batch::run(jobs, 1);
    let wall_micros = brel_obs::wall_micros(start);
    let brel_attempts = || {
        report
            .jobs
            .iter()
            .flat_map(|j| j.attempts.iter())
            .filter(|a| a.backend == BackendKind::Brel)
    };
    BatchMetrics {
        total_cost: report.total_winner_cost(),
        explored: brel_attempts().map(|a| a.explored as u64).sum(),
        splits: brel_attempts().map(|a| a.splits as u64).sum(),
        frontier_peak: brel_attempts()
            .map(|a| a.frontier_peak as u64)
            .max()
            .unwrap_or(0),
        wall_micros,
    }
}

/// The churn-class workload: one Table-2 instance under a deep exploration
/// budget and a small GC threshold, so the frontier's rooted subrelations
/// are what keeps nodes alive between sweeps.
fn churn_metrics(strategy: SearchStrategy, budget: usize) -> (u64, u64, u64, u64) {
    let instance = family::instance("int9").expect("known instance");
    let (_space, relation) = family::generate_with_config(
        &instance,
        brel_bdd::BddConfig::from_env().gc_min_nodes(1024),
    );
    let config = BrelConfig::default()
        .with_strategy(strategy)
        .with_max_explored(Some(budget))
        .with_fifo_capacity(None);
    let solution = BrelSolver::new(config)
        .solve(&relation)
        .expect("table-2 instances are well defined");
    (
        solution.stats.peak_live_nodes,
        solution.stats.frontier_peak as u64,
        solution.stats.gc_collections,
        solution.cost,
    )
}

/// The warm-vs-cold workload: the FIFO portfolio corpus with every job
/// submitted twice (second copies renamed), so warm runs hit both reuse
/// layers — session resets across distinct jobs and whole-portfolio cache
/// hits on the duplicates.
fn reuse_metrics(options: &SearchBenchOptions) -> ReuseMetrics {
    let base = engine_batch::corpus(&CorpusOptions {
        table2_instances: options.table2_instances,
        random_relations: options.random_relations,
        ..CorpusOptions::full()
    });
    let mut jobs = base.clone();
    for job in base {
        let name = format!("{}_again", job.name);
        jobs.push(JobSpec { name, ..job });
    }
    let workers = 2;
    let cold_start = Instant::now();
    let cold = engine_batch::run_cold(&jobs, workers);
    let cold_wall_micros = brel_obs::wall_micros(cold_start);
    let warm_start = Instant::now();
    let warm = engine_batch::run(&jobs, workers);
    let warm_wall_micros = brel_obs::wall_micros(warm_start);
    ReuseMetrics {
        num_jobs: jobs.len() as u64,
        cold_wall_micros,
        warm_wall_micros,
        warm_reuses: warm.reuse.warm_reuses,
        cold_builds: warm.reuse.cold_builds,
        subrel_cache_hits: warm.reuse.subrel_cache_hits,
        subrel_cache_misses: warm.reuse.subrel_cache_misses,
        total_cost: warm.total_winner_cost(),
        identical_output: cold.to_json(false) == warm.to_json(false)
            && cold.to_csv(false) == warm.to_csv(false),
    }
}

/// The observability workload: the FIFO wide batch run untraced and then
/// under a full [`brel_obs::RecordingCollector`], so the trajectory pins
/// the wide-mode phase breakdown, the attribution share, and the cost of
/// both the enabled and the disabled instrumentation paths.
fn obs_metrics(options: &SearchBenchOptions) -> ObsMetrics {
    let jobs = brel_jobs(options, SearchStrategy::Fifo);

    let untraced_start = Instant::now();
    let untraced = engine_batch::run_wide(&jobs, 4, wide_options());
    let untraced_wall_micros = brel_obs::wall_micros(untraced_start);

    let collector = Arc::new(brel_obs::RecordingCollector::new());
    brel_obs::install(collector.clone());
    let traced_start = Instant::now();
    let traced = engine_batch::run_wide(&jobs, 4, wide_options());
    let traced_wall_micros = brel_obs::wall_micros(traced_start);
    brel_obs::uninstall();

    let report = collector.phase_report();
    // The wide phases in call-structure order: per-job solve, its seed,
    // then each worker's drive loop and the stages inside it.
    let phases = [
        "wide_solve",
        "seed",
        "parallel",
        "drive",
        "expand",
        "steal_build",
        "idle",
        "prepare",
        "rehydrate",
        "reset",
    ]
    .iter()
    .filter_map(|&name| {
        report
            .rows
            .iter()
            .find(|row| row.name == name)
            .map(|row| ObsPhase {
                name,
                count: row.count,
                total_us: row.total_us,
                self_us: row.self_us,
            })
    })
    .collect::<Vec<_>>();
    // Attribution is per-track: on the coordinator's track the seed and
    // the parallel section (worker spawn, the inline worker's drive,
    // join) nest directly under `wide_solve`, so their share is
    // meaningful (concurrent workers' drive time lives on their own
    // tracks and is excluded).
    let (wide_solve_us, attributed_us) = report
        .track_with("wide_solve")
        .map(|t| {
            (
                t.total_us("wide_solve"),
                t.total_us("seed") + t.total_us("parallel"),
            )
        })
        .unwrap_or((0, 0));
    ObsMetrics {
        traced_wall_micros,
        untraced_wall_micros,
        disabled_span_ns: brel_obs::disabled_span_ns(),
        steals: collector
            .events()
            .iter()
            .filter(|e| e.name == "steal")
            .count() as u64,
        attributed_pct: (attributed_us * 100)
            .checked_div(wide_solve_us)
            .unwrap_or(0),
        identical_output: untraced.to_json(false) == traced.to_json(false)
            && untraced.to_csv(false) == traced.to_csv(false),
        phases,
    }
}

/// The hard workload: the checked-in hard corpus solved sequentially and
/// then wide on 8 workers. Every job must land on the same winning cost;
/// the walls are the wide-vs-sequential comparison the CI perf gate
/// asserts on.
fn hard_metrics() -> HardMetrics {
    let jobs = engine_batch::hard_corpus();
    let sequential_start = Instant::now();
    let sequential = engine_batch::run(&jobs, 1);
    let sequential_wall_micros = brel_obs::wall_micros(sequential_start);
    let wide_start = Instant::now();
    let wide = engine_batch::run_wide(&jobs, 8, wide_options());
    let wide_wall_micros = brel_obs::wall_micros(wide_start);
    let cost_parity = sequential.jobs.len() == wide.jobs.len()
        && sequential
            .jobs
            .iter()
            .zip(&wide.jobs)
            .all(|(s, w)| s.winning().map(|a| a.cost) == w.winning().map(|a| a.cost));
    HardMetrics {
        corpus: engine_batch::HARD_CORPUS_NAME,
        num_jobs: jobs.len() as u64,
        total_cost: wide.total_winner_cost(),
        sequential_wall_micros,
        wide_wall_micros,
        cost_parity,
    }
}

/// The chaos workload: the FIFO portfolio corpus under a seeded
/// [`FaultPlan`], run at 1 and 2 workers (a fresh plan each — injections
/// are armed-once) and compared against a no-fault reference. Everything
/// recorded is deterministic in `(seed, corpus)`.
fn chaos_metrics(options: &SearchBenchOptions) -> ChaosMetrics {
    let jobs = engine_batch::corpus(&CorpusOptions {
        table2_instances: options.table2_instances,
        random_relations: options.random_relations,
        ..CorpusOptions::full()
    });
    let names: Vec<&str> = jobs.iter().map(|j| j.name.as_str()).collect();
    let seed = 29;
    let clean = engine_batch::run(&jobs, 2);
    let chaos_run = |workers: usize| {
        let plan = Arc::new(FaultPlan::seeded(seed, &names));
        (engine_batch::run_chaos(&jobs, workers, plan.clone()), plan)
    };
    let (two, plan) = chaos_run(2);
    let (one, _) = chaos_run(1);
    let targets = plan.targets();
    let non_solved = two
        .jobs
        .iter()
        .filter(|j| j.outcome != Some(JobOutcome::Solved))
        .count() as u64;
    let all_recovered = two
        .jobs
        .iter()
        .filter(|j| targets.contains(&j.name.as_str()))
        .all(|j| j.winner.is_some());
    let clean_identical = two
        .jobs
        .iter()
        .zip(clean.jobs.iter())
        .filter(|(j, _)| !targets.contains(&j.name.as_str()))
        .all(|(chaotic, reference)| {
            chaotic.to_json(false).render() == reference.to_json(false).render()
        });
    ChaosMetrics {
        seed,
        injections: plan.injections().len() as u64,
        fired: plan.num_fired() as u64,
        non_solved,
        all_recovered,
        quarantines: two.reuse.quarantines,
        deterministic: one.to_json(false) == two.to_json(false)
            && one.to_csv(false) == two.to_csv(false),
        clean_identical,
    }
}

/// Runs the harness and collects the report.
pub fn run(options: &SearchBenchOptions) -> SearchReport {
    let mut rows = Vec::new();
    for strategy in SearchStrategy::all() {
        let jobs = brel_jobs(options, strategy);
        let batch = batch_metrics(&jobs);

        // Fig. 10 exact mode: the bounding payoff on the paper's example.
        let (_space, fig10) = figures::fig10();
        let solution = BrelSolver::new(BrelConfig::exact().with_strategy(strategy))
            .solve(&fig10)
            .expect("fig10 is well defined");
        let (fig10_cost, fig10_explored) = (solution.cost, solution.stats.explored as u64);

        let (churn_peak_live_nodes, churn_frontier_peak, churn_gc_collections, churn_cost) =
            churn_metrics(strategy, options.churn_budget);

        // Wide mode: 1 vs 4 workers must agree byte for byte.
        let wide_start = Instant::now();
        let wide4 = engine_batch::run_wide(&jobs, 4, wide_options());
        let wide_wall_micros = brel_obs::wall_micros(wide_start);
        let wide1 = engine_batch::run_wide(&jobs, 1, wide_options());
        rows.push(StrategyRow {
            strategy,
            batch,
            fig10_cost,
            fig10_explored,
            churn_peak_live_nodes,
            churn_frontier_peak,
            churn_gc_collections,
            churn_cost,
            wide_total_cost: wide4.total_winner_cost(),
            wide_deterministic: wide1.to_json(false) == wide4.to_json(false),
            wide_wall_micros,
        });
    }
    SearchReport {
        label: options.label.clone(),
        rows,
        reuse: reuse_metrics(options),
        obs: obs_metrics(options),
        chaos: chaos_metrics(options),
        hard: options.hard.then(hard_metrics),
    }
}

impl SearchReport {
    /// The JSON representation of one harness run.
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("schema", Json::str("brel-bench/search-strategies-run-v4")),
            ("label", Json::str(&self.label)),
            (
                "strategies",
                Json::Array(
                    self.rows
                        .iter()
                        .map(|row| {
                            Json::object(vec![
                                ("strategy", Json::str(row.strategy.name())),
                                (
                                    "batch",
                                    Json::object(vec![
                                        ("total_cost", Json::UInt(row.batch.total_cost)),
                                        ("explored", Json::UInt(row.batch.explored)),
                                        ("splits", Json::UInt(row.batch.splits)),
                                        ("frontier_peak", Json::UInt(row.batch.frontier_peak)),
                                        ("wall_micros", Json::UInt(row.batch.wall_micros)),
                                    ]),
                                ),
                                (
                                    "fig10_exact",
                                    Json::object(vec![
                                        ("cost", Json::UInt(row.fig10_cost)),
                                        ("explored", Json::UInt(row.fig10_explored)),
                                    ]),
                                ),
                                (
                                    "churn",
                                    Json::object(vec![
                                        ("peak_live_nodes", Json::UInt(row.churn_peak_live_nodes)),
                                        ("frontier_peak", Json::UInt(row.churn_frontier_peak)),
                                        ("gc_collections", Json::UInt(row.churn_gc_collections)),
                                        ("cost", Json::UInt(row.churn_cost)),
                                    ]),
                                ),
                                (
                                    "wide",
                                    Json::object(vec![
                                        ("corpus", Json::str(engine_batch::DEFAULT_CORPUS_NAME)),
                                        ("total_cost", Json::UInt(row.wide_total_cost)),
                                        ("deterministic", Json::Bool(row.wide_deterministic)),
                                        ("wall_micros", Json::UInt(row.wide_wall_micros)),
                                    ]),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "reuse",
                Json::object(vec![
                    ("num_jobs", Json::UInt(self.reuse.num_jobs)),
                    ("cold_wall_micros", Json::UInt(self.reuse.cold_wall_micros)),
                    ("warm_wall_micros", Json::UInt(self.reuse.warm_wall_micros)),
                    ("warm_reuses", Json::UInt(self.reuse.warm_reuses)),
                    ("cold_builds", Json::UInt(self.reuse.cold_builds)),
                    (
                        "subrel_cache_hits",
                        Json::UInt(self.reuse.subrel_cache_hits),
                    ),
                    (
                        "subrel_cache_misses",
                        Json::UInt(self.reuse.subrel_cache_misses),
                    ),
                    ("total_cost", Json::UInt(self.reuse.total_cost)),
                    ("identical_output", Json::Bool(self.reuse.identical_output)),
                ]),
            ),
            (
                "obs",
                Json::object(vec![
                    (
                        "traced_wall_micros",
                        Json::UInt(self.obs.traced_wall_micros),
                    ),
                    (
                        "untraced_wall_micros",
                        Json::UInt(self.obs.untraced_wall_micros),
                    ),
                    ("disabled_span_ns", Json::UInt(self.obs.disabled_span_ns)),
                    ("steals", Json::UInt(self.obs.steals)),
                    ("attributed_pct", Json::UInt(self.obs.attributed_pct)),
                    ("identical_output", Json::Bool(self.obs.identical_output)),
                    (
                        "phases",
                        Json::Array(
                            self.obs
                                .phases
                                .iter()
                                .map(|phase| {
                                    Json::object(vec![
                                        ("name", Json::str(phase.name)),
                                        ("count", Json::UInt(phase.count)),
                                        ("total_micros", Json::UInt(phase.total_us)),
                                        ("self_micros", Json::UInt(phase.self_us)),
                                    ])
                                })
                                .collect(),
                        ),
                    ),
                ]),
            ),
            (
                "chaos",
                Json::object(vec![
                    ("seed", Json::UInt(self.chaos.seed)),
                    ("injections", Json::UInt(self.chaos.injections)),
                    ("fired", Json::UInt(self.chaos.fired)),
                    ("non_solved", Json::UInt(self.chaos.non_solved)),
                    ("all_recovered", Json::Bool(self.chaos.all_recovered)),
                    ("quarantines", Json::UInt(self.chaos.quarantines)),
                    ("deterministic", Json::Bool(self.chaos.deterministic)),
                    ("clean_identical", Json::Bool(self.chaos.clean_identical)),
                ]),
            ),
        ];
        if let Some(hard) = &self.hard {
            fields.push((
                "hard",
                Json::object(vec![
                    ("corpus", Json::str(hard.corpus)),
                    ("num_jobs", Json::UInt(hard.num_jobs)),
                    ("total_cost", Json::UInt(hard.total_cost)),
                    (
                        "sequential_wall_micros",
                        Json::UInt(hard.sequential_wall_micros),
                    ),
                    ("wide_wall_micros", Json::UInt(hard.wide_wall_micros)),
                    ("cost_parity", Json::Bool(hard.cost_parity)),
                ]),
            ));
        }
        Json::object(fields)
    }

    /// Human-readable rendering.
    pub fn render(&self) -> String {
        let mut out = format!("Search-strategy harness [{}]\n", self.label);
        out.push_str(
            "strategy    batch_cost expl split  peak    wall[s] | fig10 expl | churn_peak front | wide_cost det\n",
        );
        for row in &self.rows {
            out.push_str(&format!(
                "{:11} {:10} {:4} {:5} {:5} {:10.4} | {:5} {:4} | {:10} {:5} | {:9} {}\n",
                row.strategy.name(),
                row.batch.total_cost,
                row.batch.explored,
                row.batch.splits,
                row.batch.frontier_peak,
                row.batch.wall_micros as f64 / 1e6,
                row.fig10_cost,
                row.fig10_explored,
                row.churn_peak_live_nodes,
                row.churn_frontier_peak,
                row.wide_total_cost,
                if row.wide_deterministic {
                    "ok"
                } else {
                    "DRIFT"
                },
            ));
        }
        out.push_str(&format!(
            "reuse: {} jobs, cold {:.4}s -> warm {:.4}s ({} warm resets, {} cache hits, output {})\n",
            self.reuse.num_jobs,
            self.reuse.cold_wall_micros as f64 / 1e6,
            self.reuse.warm_wall_micros as f64 / 1e6,
            self.reuse.warm_reuses,
            self.reuse.subrel_cache_hits,
            if self.reuse.identical_output {
                "identical"
            } else {
                "DRIFT"
            },
        ));
        out.push_str(&format!(
            "obs: wide traced {:.4}s vs untraced {:.4}s, {} steals, {}% of wide_solve attributed, disabled span {} ns, output {}\n",
            self.obs.traced_wall_micros as f64 / 1e6,
            self.obs.untraced_wall_micros as f64 / 1e6,
            self.obs.steals,
            self.obs.attributed_pct,
            self.obs.disabled_span_ns,
            if self.obs.identical_output {
                "identical"
            } else {
                "DRIFT"
            },
        ));
        out.push_str(&format!(
            "chaos: seed {}, {}/{} injections fired, {} non-solved, {} quarantines, recovery {}, workers {}, clean jobs {}\n",
            self.chaos.seed,
            self.chaos.fired,
            self.chaos.injections,
            self.chaos.non_solved,
            self.chaos.quarantines,
            if self.chaos.all_recovered { "ok" } else { "FAILED" },
            if self.chaos.deterministic {
                "deterministic"
            } else {
                "DRIFT"
            },
            if self.chaos.clean_identical {
                "identical"
            } else {
                "POLLUTED"
            },
        ));
        if let Some(hard) = &self.hard {
            out.push_str(&format!(
                "hard[{}]: {} jobs, sequential {:.4}s -> wide(8) {:.4}s ({:.2}x, cost {}, output {})\n",
                hard.corpus,
                hard.num_jobs,
                hard.sequential_wall_micros as f64 / 1e6,
                hard.wide_wall_micros as f64 / 1e6,
                hard.sequential_wall_micros as f64 / hard.wide_wall_micros.max(1) as f64,
                hard.total_cost,
                if hard.cost_parity { "cost-parity" } else { "COST DRIFT" },
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_run_measures_every_strategy() {
        let options = SearchBenchOptions {
            table2_instances: 1,
            random_relations: 1,
            churn_budget: 5,
            hard: false,
            label: "test".into(),
        };
        let report = run(&options);
        assert_eq!(report.rows.len(), 3);
        assert_eq!(report.rows[0].strategy, SearchStrategy::Fifo);
        for row in &report.rows {
            // Every strategy proves the fig10 optimum in exact mode.
            assert_eq!(row.fig10_cost, 2);
            assert!(row.wide_deterministic, "{} wide drifted", row.strategy);
            assert!(row.batch.explored >= 1);
        }
        // The bounding payoff: best-first never explores more than FIFO on
        // fig10 (the acceptance criterion the full run pins).
        let fifo = &report.rows[0];
        let best = &report.rows[2];
        assert!(best.fig10_explored <= fifo.fig10_explored);
        let json = report.to_json().render();
        assert!(json.contains("\"schema\":\"brel-bench/search-strategies-run-v4\""));
        assert!(json.contains("\"corpus\":\"table2+rand5x3\""));
        assert!(json.contains("\"fig10_exact\""));
        assert!(json.contains("\"churn\""));
        assert!(json.contains("\"subrel_cache_hits\""));
        assert!(json.contains("\"attributed_pct\""));
        assert!(json.contains("\"chaos\""));
        assert!(json.contains("\"clean_identical\""));
        let text = report.render();
        assert!(text.contains("best-first"));
        assert!(text.contains("reuse:"));
        assert!(text.contains("obs:"));
        assert!(text.contains("chaos:"));
        // The warm pool is invisible in the output and the duplicated
        // corpus guarantees cache traffic.
        assert!(report.reuse.identical_output);
        assert!(report.reuse.subrel_cache_hits >= 1);
        assert_eq!(report.reuse.num_jobs, 4); // 2 base jobs, doubled
                                              // Tracing the wide batch is write-only, catches every round, and
                                              // attributes the wide solve to its seed/round phases.
        assert!(report.obs.identical_output);
        assert!(
            report.obs.attributed_pct >= 90,
            "attributed {}%",
            report.obs.attributed_pct
        );
        // The work-stealing walk has no rounds and no barrier: the old
        // barrier_wait phase must be gone for good, and the whole batch
        // rehydrates once per wide solve (in its seed), not per steal.
        assert!(report.obs.phases.iter().any(|p| p.name == "wide_solve"));
        assert!(report.obs.phases.iter().all(|p| p.name != "barrier_wait"));
        let wide_solves = report
            .obs
            .phases
            .iter()
            .find(|p| p.name == "wide_solve")
            .map_or(0, |p| p.count);
        if let Some(rehydrate) = report.obs.phases.iter().find(|p| p.name == "rehydrate") {
            assert!(
                rehydrate.count <= wide_solves,
                "{} rehydrates across {} wide solves",
                rehydrate.count,
                wide_solves
            );
        }
        // Every chaos contract holds on the tiny corpus: the plan clamps to
        // the corpus size, fires completely, attributes every fault, keeps
        // recovered solutions, and leaves clean jobs untouched.
        assert_eq!(report.chaos.injections, 2); // 2 jobs -> 2 fault kinds
        assert_eq!(report.chaos.fired, report.chaos.injections);
        assert_eq!(report.chaos.non_solved, report.chaos.injections);
        assert!(report.chaos.all_recovered);
        assert!(report.chaos.deterministic);
        assert!(report.chaos.clean_identical);
        assert!(report.chaos.quarantines >= 1);
    }
}
