//! The layered benchmark of the brel-suite workspace.
//!
//! Usage (from the repository root; `layerbench/run.sh` builds and runs it):
//!
//! ```text
//! layerbench --workload NAME --seed N --seconds S --trace 0|1 [--corpus-seed N]
//! layerbench --self-test
//! ```
//!
//! * `--workload` is one of `batch-mixed`, `hard-narrow`, `hard-wide`,
//!   `serve-closed` (see [`corpus`]).
//! * `--seed` orders the measurement: the job order of every batch pass
//!   and the corpus offsets the serving clients start from. It never
//!   changes a result, so every seed reproduces the same costs.
//! * `--corpus-seed` (default 0) regenerates the random relations of the
//!   corpus; seed 0 reproduces the pinned fingerprints.
//! * `--trace 0` measures the end-to-end metrics with no collector
//!   installed; `--trace 1` adds a traced replay of the corpus through each
//!   layer and reports the per-layer metrics instead.
//! * `--self-test` runs every workload on the small smoke corpus
//!   (fingerprint 81) in both modes and checks the emitted metric names,
//!   units and fingerprint, and that nothing failed.
//!
//! The last line of standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`. A
//! failed check (a job that did not solve cleanly, a cost that drifted from
//! its pin or its reference, a traced replay that disagrees with the timed
//! run, an oracle finding) makes the exit code non-zero.

mod batch;
mod corpus;
mod layers;
mod replay;
mod serve;
mod stats;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use brel_engine::Engine;

use crate::batch::Gate;
use crate::corpus::{Workload, WORKERS};
use crate::layers::{Metrics, TimedSide};
use crate::stats::{central_median, median, percentile, SplitMix64};

/// The end-to-end metrics, emitted with `--trace 0`: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("relations_per_s", "1/s"),
    ("total_cost", "cost"),
    ("final_latency_p50_ms", "ms"),
    ("final_latency_p90_ms", "ms"),
    ("first_incumbent_p50_ms", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// The per-layer metrics, emitted with `--trace 1`: `(name, unit)`.
pub const PER_LAYER: [(&str, &str); 39] = [
    ("bdd.apply_ns", "ns"),
    ("bdd.quantify_ns", "ns"),
    ("bdd.isop_ns", "ns"),
    ("bdd.cache_lookups", "count"),
    ("bdd.cache_hit_ratio", "ratio"),
    ("bdd.unique_lookups", "count"),
    ("bdd.unique_hit_ratio", "ratio"),
    ("bdd.gc_collections", "count"),
    ("bdd.nodes_reclaimed", "count"),
    ("bdd.peak_live_nodes", "count"),
    ("relation.build_ms", "ms"),
    ("relation.build_share", "ratio"),
    ("relation.chi_nodes", "count"),
    ("relation.rows", "count"),
    ("brel.seed_ms", "ms"),
    ("brel.expand_ms", "ms"),
    ("brel.expand_us", "us"),
    ("brel.explored", "count"),
    ("brel.splits", "count"),
    ("brel.frontier_peak", "count"),
    ("brel.improvements", "count"),
    ("brel.compatible_ratio", "ratio"),
    ("brel.quick_ms", "ms"),
    ("gyocro.solve_ms", "ms"),
    ("gyocro.passes", "count"),
    ("engine.parallel_efficiency", "ratio"),
    ("engine.warm_reuses", "count"),
    ("engine.cold_builds", "count"),
    ("engine.subrel_cache_hits", "count"),
    ("engine.quarantines", "count"),
    ("serve.admission_p50_us", "us"),
    ("serve.queue_wait_p50_ms", "ms"),
    ("serve.solve_p50_ms", "ms"),
    ("serve.delivery_p50_ms", "ms"),
    ("serve.incumbents_per_request", "count"),
    ("serve.shed", "count"),
    ("serve.degraded", "count"),
    ("serve.repeat_share", "ratio"),
    ("trace.overhead_frac", "ratio"),
];

/// Set-ups timed per run; `setup_s` is their median. The first builds what
/// the run measures; the others are spread evenly through the measurement,
/// between passes or closed-loop segments, so the median covers the whole
/// run rather than the machine's state at its start.
const SETUP_SAMPLES: u32 = 16;

/// Share of a traced run's budget spent on timed passes; the rest replays.
const TRACED_TIMED_SHARE: f64 = 0.4;

#[derive(Debug, Clone, Copy)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    corpus_seed: u64,
    smoke: bool,
}

/// What one run produced.
#[derive(Debug)]
struct Outcome {
    gate: Gate,
    metrics: Metrics,
    /// Human-readable notes for standard error.
    notes: Vec<String>,
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--self-test") {
        return self_test();
    }
    let args = match parse_args(&args) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("layerbench: {message}");
            eprintln!(
                "usage: layerbench --workload batch-mixed|hard-narrow|hard-wide|serve-closed \
                 --seed N --seconds S --trace 0|1 [--corpus-seed N] | --self-test"
            );
            return ExitCode::FAILURE;
        }
    };
    let outcome = run(&args);
    for note in &outcome.notes {
        eprintln!("layerbench: {note}");
    }
    for message in &outcome.gate.messages {
        eprintln!("layerbench: check failed: {message}");
    }
    eprintln!(
        "layerbench: failed_frac {} ({} of {} checked results failed)",
        outcome.gate.failed as f64 / outcome.gate.attempted.max(1) as f64,
        outcome.gate.failed,
        outcome.gate.attempted
    );
    println!("{}", result_json(&outcome, args.trace));
    if outcome.gate.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut corpus_seed = corpus::DEFAULT_CORPUS_SEED;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(
                    Workload::parse(name).ok_or_else(|| format!("unknown workload `{name}`"))?,
                );
            }
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err("--seconds must lie in (0, 3600]".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                })
            }
            "--corpus-seed" => {
                corpus_seed = value()?
                    .parse()
                    .map_err(|e| format!("--corpus-seed: {e}"))?
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        corpus_seed,
        smoke: false,
    })
}

/// Times set-ups and says when the next one is due.
#[derive(Debug)]
struct SetupClock {
    times: Vec<f64>,
    last: Instant,
    every: Duration,
}

impl SetupClock {
    /// A clock that considers another sample due every `every`.
    fn new(every: Duration) -> Self {
        SetupClock {
            times: Vec::new(),
            last: Instant::now(),
            every,
        }
    }

    fn time<T>(&mut self, set_up: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let result = set_up();
        self.times.push(start.elapsed().as_secs_f64());
        self.last = Instant::now();
        result
    }

    fn due(&self) -> bool {
        self.last.elapsed() >= self.every
    }

    fn median(&self) -> f64 {
        median(&self.times)
    }

    fn note(&self) -> String {
        format!(
            "set-up: {} samples (ms) {:?}",
            self.times.len(),
            self.times
                .iter()
                .map(|t| (t * 1e4).round() / 10.0)
                .collect::<Vec<_>>()
        )
    }
}

fn run(args: &Args) -> Outcome {
    match args.workload.engine() {
        Some(engine) => run_batch(args, &engine),
        None => run_serve(args),
    }
}

fn run_batch(args: &Args, engine: &Engine) -> Outcome {
    let budget = Duration::from_secs_f64(args.seconds);
    let build = || corpus::build(args.workload, args.corpus_seed, args.smoke);
    let mut setup = SetupClock::new(budget / SETUP_SAMPLES);
    let corpus = setup.time(build);
    let jobs = &corpus.jobs;
    let mut rng = SplitMix64::new(args.seed);
    let mut gate = Gate::new(jobs.len(), corpus.pinned_cost);
    // One gated warm-up pass, so lazy set-up is done before timing.
    batch::run_pass(engine, jobs, &mut rng, &mut gate);

    let timed_budget = if args.trace {
        budget.mul_f64(TRACED_TIMED_SHARE)
    } else {
        budget
    };
    let start = Instant::now();
    let min_passes = if args.trace { 2 } else { 3 };
    let passes = batch::run_passes(
        engine,
        jobs,
        &mut rng,
        &mut gate,
        timed_budget,
        min_passes,
        || {
            if setup.due() {
                setup.time(build);
            }
        },
    );
    let setup_s = setup.median();
    let walls: Vec<f64> = passes.iter().map(|p| p.wall_s).collect();
    let mut notes = vec![
        format!(
            "{}: {} jobs per pass, {} timed passes, pass wall median {:.1} ms",
            args.workload.name(),
            jobs.len(),
            passes.len(),
            median(&walls) * 1e3
        ),
        setup.note(),
    ];

    let mut metrics = Metrics::new();
    if !args.trace {
        let walls_ms: Vec<f64> = walls.iter().map(|w| w * 1e3).collect();
        let rates: Vec<f64> = walls.iter().map(|w| jobs.len() as f64 / w).collect();
        metrics.insert("setup_s", setup_s);
        metrics.insert("relations_per_s", median(&rates));
        metrics.insert("total_cost", passes[0].report.total_winner_cost() as f64);
        // The batch API answers every relation at once, when the batch
        // returns: a relation's final and first answer both arrive then.
        metrics.insert("final_latency_p50_ms", central_median(&walls_ms));
        metrics.insert("final_latency_p90_ms", percentile(&walls_ms, 90.0));
        metrics.insert("first_incumbent_p50_ms", central_median(&walls_ms));
        metrics.insert("peak_rss_mb", stats::peak_rss_mb().unwrap_or(0.0));
        notes.push(format!("latency samples: {} batch passes", walls.len()));
    } else {
        let replays = replay_until(jobs, start, budget);
        layers::check_agreement(
            jobs,
            &replays[0],
            &layers::batch_outcomes(&passes[0].report),
            &mut gate,
        );
        check_replay_total(&replays, &mut gate);
        let reuse = |f: &dyn Fn(&brel_engine::BatchReuse) -> u64| {
            median(
                &passes
                    .iter()
                    .map(|p| f(&p.report.reuse) as f64)
                    .collect::<Vec<_>>(),
            )
        };
        let timed = TimedSide {
            pass_wall_s: median(&walls),
            report: Some(&passes[0].report),
            reuse: [
                reuse(&|r| r.warm_reuses),
                reuse(&|r| r.cold_builds),
                reuse(&|r| r.subrel_cache_hits),
                reuse(&|r| r.quarantines),
            ],
        };
        metrics.extend(layers::layer_metrics(&replays, &timed, WORKERS));
        metrics.extend(layers::serve_absent());
        notes.push(format!("{} traced replay passes", replays.len()));
    }
    Outcome {
        gate,
        metrics,
        notes,
    }
}

fn run_serve(args: &Args) -> Outcome {
    let boot = || {
        let corpus = corpus::build(args.workload, args.corpus_seed, args.smoke);
        let daemon = serve::Daemon::start().expect("boot the daemon on a local ephemeral port");
        (corpus, daemon)
    };
    let mut setup = SetupClock::new(Duration::ZERO);
    let (corpus, mut daemon) = setup.time(boot);
    let jobs = &corpus.jobs;
    let mut rng = SplitMix64::new(args.seed);
    let mut gate = Gate::new(jobs.len(), corpus.pinned_cost);
    serve::warm_up(&mut daemon, jobs);

    let budget = Duration::from_secs_f64(args.seconds);
    let timed_budget = if args.trace {
        budget.mul_f64(TRACED_TIMED_SHARE)
    } else {
        budget
    };
    let start = Instant::now();
    // The loop pauses between segments for a set-up sample, so no boot
    // competes with the daemon being measured.
    let run = serve::closed_loop(
        &mut daemon,
        jobs,
        &mut rng,
        timed_budget,
        SETUP_SAMPLES,
        || {
            setup.time(boot).1.stop();
        },
    );
    let drain = daemon.stop();
    let setup_s = setup.median();
    // The reference every final is checked against: the batch engine on
    // the same corpus, solved after the timed loop.
    let reference = Engine::with_workers(WORKERS).solve_batch(jobs);
    gate.set_reference(&reference);
    serve::check(&run, jobs, &mut gate);

    let finals = run.finals();
    let final_ms: Vec<f64> = run
        .all()
        .filter(|r| r.report.is_some())
        .map(|r| r.final_us / 1e3)
        .collect();
    let first_ms: Vec<f64> = run
        .all()
        .filter_map(|r| r.first_incumbent_us)
        .map(|us| us / 1e3)
        .collect();
    let mut notes = vec![
        format!(
            "serve-closed: {} clients, {} finals in {:.2} s, {} first-incumbent samples",
            WORKERS,
            finals,
            run.wall_s,
            first_ms.len()
        ),
        setup.note(),
    ];
    let mut metrics = Metrics::new();
    if !args.trace {
        metrics.insert("setup_s", setup_s);
        metrics.insert("relations_per_s", finals as f64 / run.wall_s);
        metrics.insert(
            "total_cost",
            gate.reference().iter().flatten().sum::<u64>() as f64,
        );
        metrics.insert("final_latency_p50_ms", central_median(&final_ms));
        metrics.insert("final_latency_p90_ms", percentile(&final_ms, 90.0));
        metrics.insert("first_incumbent_p50_ms", central_median(&first_ms));
        metrics.insert("peak_rss_mb", stats::peak_rss_mb().unwrap_or(0.0));
    } else {
        let replays = replay_until(jobs, start, budget);
        // Each relation's first final is the served side of the agreement;
        // the reference batch supplies BREL's explored and splits.
        let served: Vec<(Option<u64>, Option<u64>, Option<u64>)> =
            layers::batch_outcomes(&reference)
                .into_iter()
                .enumerate()
                .map(|(i, (cost, explored, splits))| {
                    let final_cost = run
                        .all()
                        .find(|r| r.job == i)
                        .and_then(|r| r.report.as_ref()?.cost);
                    (final_cost.or(cost), explored, splits)
                })
                .collect();
        layers::check_agreement(jobs, &replays[0], &served, &mut gate);
        check_replay_total(&replays, &mut gate);
        let per_pass = jobs.len() as f64 / finals.max(1) as f64;
        let timed = TimedSide {
            pass_wall_s: run.wall_s * per_pass,
            report: None,
            reuse: [
                drain.stats.warm_reuses as f64 * per_pass,
                drain.stats.cold_builds as f64 * per_pass,
                0.0,
                drain.stats.quarantines as f64 * per_pass,
            ],
        };
        metrics.extend(layers::layer_metrics(&replays, &timed, WORKERS));
        metrics.extend(layers::serve_metrics(
            &run,
            drain.stats.shed,
            drain.stats.degraded,
        ));
        notes.push(format!("{} traced replay passes", replays.len()));
    }
    Outcome {
        gate,
        metrics,
        notes,
    }
}

/// Replays corpus passes until `budget` has elapsed since `start` (at
/// least one).
fn replay_until(
    jobs: &[brel_engine::JobSpec],
    start: Instant,
    budget: Duration,
) -> Vec<replay::ReplayPass> {
    let mut replays: Vec<replay::ReplayPass> = Vec::new();
    while replays.is_empty() || batch::fits(start, budget, replays.last().map(|r| r.wall_s)) {
        replays.push(replay::replay_pass(jobs, WORKERS));
    }
    replays
}

/// The replay's winners must reproduce the pinned fingerprint too.
fn check_replay_total(replays: &[replay::ReplayPass], gate: &mut Gate) {
    for pass in replays {
        let total: u64 = pass.jobs.iter().filter_map(|j| j.winner_cost()).sum();
        gate.pass_total("traced replay", total);
    }
}

/// The result line. Metrics come out in catalog order; a value the run
/// did not produce is a bug in this program.
fn result_json(outcome: &Outcome, trace: bool) -> String {
    let catalog: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
    let metrics: Vec<String> = catalog
        .iter()
        .map(|(name, unit)| {
            let value = outcome
                .metrics
                .get(name)
                .copied()
                .unwrap_or_else(|| panic!("metric {name} was not measured"));
            let value = if value.is_finite() { value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.gate.failed == 0,
        outcome.gate.attempted.max(1),
        outcome.gate.failed,
        metrics.join(", ")
    )
}

/// Runs every workload at smoke size, untraced and traced, and checks that
/// each emits exactly its catalog, reproduces fingerprint 81 and fails
/// nothing; also checks the catalog against `BENCHMARK.json` when the
/// working directory holds one.
fn self_test() -> ExitCode {
    let mut problems = Vec::new();
    match std::fs::read_to_string("BENCHMARK.json") {
        Ok(text) => problems.extend(check_declared(&text)),
        Err(_) => {
            eprintln!("layerbench: self-test: no BENCHMARK.json here, catalog not cross-checked")
        }
    }
    for workload in Workload::ALL {
        for trace in [false, true] {
            let args = Args {
                workload,
                seed: 1,
                seconds: 0.5,
                trace,
                corpus_seed: corpus::DEFAULT_CORPUS_SEED,
                smoke: true,
            };
            let outcome = run(&args);
            let line = result_json(&outcome, trace);
            let catalog: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
            let mut bad = Vec::new();
            for (name, unit) in catalog {
                if !line.contains(&format!("\"{name}\": {{\"value\": "))
                    || !line.contains(&format!("\"unit\": \"{unit}\""))
                {
                    bad.push(format!("{name} [{unit}] missing"));
                }
            }
            if outcome.metrics.len() != catalog.len() {
                bad.push(format!(
                    "{} metrics measured, catalog has {}",
                    outcome.metrics.len(),
                    catalog.len()
                ));
            }
            if !trace && outcome.metrics.get("total_cost") != Some(&81.0) {
                bad.push(format!(
                    "smoke fingerprint {:?}, expected 81",
                    outcome.metrics.get("total_cost")
                ));
            }
            let failed_frac = outcome.gate.failed as f64 / outcome.gate.attempted.max(1) as f64;
            if failed_frac != 0.0 {
                bad.push(format!(
                    "failed_frac {failed_frac}: {:?}",
                    outcome.gate.messages
                ));
            }
            eprintln!(
                "layerbench: self-test {} trace {}: {} metrics, failed_frac {failed_frac}, {}",
                workload.name(),
                trace as u8,
                outcome.metrics.len(),
                if bad.is_empty() {
                    "OK".to_string()
                } else {
                    bad.join("; ")
                }
            );
            problems.extend(
                bad.into_iter()
                    .map(|b| format!("{} trace {}: {b}", workload.name(), trace as u8)),
            );
        }
    }
    if problems.is_empty() {
        eprintln!("layerbench: self-test OK");
        ExitCode::SUCCESS
    } else {
        for problem in &problems {
            eprintln!("layerbench: self-test: {problem}");
        }
        ExitCode::FAILURE
    }
}

/// Compares the metric catalog with the lists `BENCHMARK.json` declares.
fn check_declared(text: &str) -> Vec<String> {
    let json = match brel_serve::json::parse(text) {
        Ok(json) => json,
        Err(e) => return vec![format!("BENCHMARK.json does not parse: {e}")],
    };
    let mut problems = Vec::new();
    for (key, catalog) in [
        ("end_to_end", &END_TO_END[..]),
        ("per_layer", &PER_LAYER[..]),
    ] {
        let declared: Vec<(String, String)> = json
            .get(key)
            .and_then(|v| v.as_array())
            .unwrap_or(&[])
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(|v| v.as_str()).unwrap_or("").to_string();
                (field("name"), field("unit"))
            })
            .collect();
        let expected: Vec<(String, String)> = catalog
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        if declared != expected {
            problems.push(format!(
                "BENCHMARK.json {key} differs from the catalog: {declared:?}"
            ));
        }
    }
    problems
}
