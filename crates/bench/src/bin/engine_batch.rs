//! Streams the Table-2 family plus seeded random relations through the
//! `brel-engine` portfolio worker pool and prints a summary.
//!
//! Usage: `cargo run --release -p brel-bench --bin engine_batch -- [flags]`
//!
//! Flags:
//!
//! * `--smoke`      small corpus on 2 workers; re-runs the batch on 1
//!   worker and fails (exit 1) if the deterministic output differs
//! * `--workers N`  worker-thread count (default: available parallelism)
//! * `--instances N` number of Table-2 instances (default: all)
//! * `--random N`   number of seeded random relations (default: 8)
//! * `--strategy S` BREL search strategy: `fifo` (default), `dfs`,
//!   `best-first`
//! * `--wide`       wide mode: jobs run one at a time and the worker pool
//!   runs an asynchronous work-stealing search over each BREL frontier
//! * `--hard`       swap in the checked-in hard corpus
//!   (`hard-rand7x4`): four seeded 7-input/4-output relations whose
//!   sequential solve takes ≥1s total — the wide-vs-sequential perf
//!   workload
//! * `--cold`       disable cross-job reuse (warm per-worker sessions and
//!   the solved-subrelation cache): one cold BDD manager per job, the
//!   pre-redesign behaviour. The deterministic output is identical either
//!   way; use this to measure what the warm pool buys
//! * `--fingerprint N` fail (exit 1) unless the batch's total winner cost
//!   equals `N` — the CI drift gate for the default FIFO strategy. With
//!   `--chaos` the gate applies to the no-fault reference run
//! * `--chaos SEED` chaos mode: derive a deterministic fault-injection
//!   plan from `SEED` (one panic, one quota trip, one step deadline, on
//!   three distinct jobs), run a no-fault reference batch first, then the
//!   injected batch, and fail (exit 1) unless every injection fired,
//!   exactly that many jobs report a non-`solved` outcome (each still
//!   carrying a verified winner), and every untargeted job's timing-free
//!   output is byte-identical to the reference. The corpus must have at
//!   least 3 jobs (one per fault kind); smaller corpora are rejected with
//!   a structured error and a failure exit instead of arming a partial
//!   plan silently
//! * `--deadline-ms N` per-job wall-clock deadline for the BREL backend
//!   (kernel governor; timing-dependent, so keep it out of determinism
//!   gates)
//! * `--max-live-nodes N` per-job live-BDD-node quota for the BREL
//!   backend (kernel governor)
//! * `--retries N`  retry transient (panic-class) faults up to `N` times
//!   on a quarantined-and-rebuilt session
//! * `--json`       emit the batch as JSON instead of the human table
//! * `--csv`        emit the batch as CSV instead of the human table
//! * `--timing`     include wall-clock fields in `--json`/`--csv` output
//!   (timing makes the output run-dependent, so it is off by default)
//! * `--trace-out PATH` record a full trace of the run and write it to
//!   `PATH` as Chrome trace-event JSON (open in Perfetto or
//!   `chrome://tracing`). Stdout is untouched: tracing is write-only with
//!   respect to the deterministic output
//! * `--obs-report` print the aggregate phase report (per-phase
//!   total/self time, counts) and the unified metrics registry to stderr
//! * `--overhead-gate NS` fail (exit 1) if a disabled (null-collector)
//!   span costs more than `NS` nanoseconds per call — the CI guard that
//!   keeps instrumentation free when tracing is off

use std::process::ExitCode;
use std::sync::Arc;

use brel_bench::engine_batch::{chaos_corpus_error, corpus, hard_corpus, render, CorpusOptions};
use brel_bench::flag_value;
use brel_engine::{
    BatchReport, Engine, EngineConfig, FaultPlan, FaultPolicy, JobOutcome, JobSpec, SearchStrategy,
    WideOptions,
};
use brel_obs::{MetricsRegistry, RecordingCollector};

fn main() -> ExitCode {
    let mut workers: Option<usize> = None;
    let mut instances: Option<usize> = None;
    let mut random: Option<usize> = None;
    let mut strategy: Option<SearchStrategy> = None;
    let mut smoke = false;
    let mut json = false;
    let mut csv = false;
    let mut timing = false;
    let mut wide = false;
    let mut cold = false;
    let mut hard = false;
    let mut fingerprint: Option<u64> = None;
    let mut trace_out: Option<String> = None;
    let mut obs_report = false;
    let mut overhead_gate: Option<u64> = None;
    let mut chaos: Option<u64> = None;
    let mut deadline_ms: Option<u64> = None;
    let mut max_live_nodes: Option<u64> = None;
    let mut retries = 0u32;

    let parsed = (|| -> Result<(), String> {
        let mut args = brel_bench::cli_args()?.into_iter();
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--smoke" => smoke = true,
                "--workers" => workers = Some(flag_value(&mut args, &arg, "a number")?),
                "--instances" => instances = Some(flag_value(&mut args, &arg, "a number")?),
                "--random" => random = Some(flag_value(&mut args, &arg, "a number")?),
                "--strategy" => {
                    let name: String = flag_value(&mut args, &arg, "fifo, dfs or best-first")?;
                    let needs = "--strategy needs fifo, dfs or best-first";
                    strategy = Some(SearchStrategy::parse(&name).ok_or(needs)?);
                }
                "--wide" => wide = true,
                "--cold" => cold = true,
                "--hard" => hard = true,
                "--fingerprint" => fingerprint = Some(flag_value(&mut args, &arg, "a number")?),
                "--json" => json = true,
                "--csv" => csv = true,
                "--timing" => timing = true,
                "--trace-out" => trace_out = Some(flag_value(&mut args, &arg, "a path")?),
                "--obs-report" => obs_report = true,
                "--overhead-gate" => {
                    overhead_gate = Some(flag_value(&mut args, &arg, "nanoseconds")?)
                }
                "--chaos" => chaos = Some(flag_value(&mut args, &arg, "a seed")?),
                "--deadline-ms" => deadline_ms = Some(flag_value(&mut args, &arg, "milliseconds")?),
                "--max-live-nodes" => {
                    max_live_nodes = Some(flag_value(&mut args, &arg, "a number")?)
                }
                "--retries" => retries = flag_value(&mut args, &arg, "a number")?,
                other => return Err(format!("unknown flag `{other}`")),
            }
        }
        Ok(())
    })();
    if let Err(error) = parsed {
        return usage(&error);
    }

    // Compose the corpus after parsing, so explicit flags override the
    // `--smoke` preset regardless of argument order.
    let mut options = if smoke {
        CorpusOptions::smoke()
    } else {
        CorpusOptions::full()
    };
    if let Some(n) = instances {
        options.table2_instances = n;
    }
    if let Some(n) = random {
        options.random_relations = n;
    }
    if let Some(s) = strategy {
        options.strategy = s;
    }

    // Arm the recording collector before any work runs so the trace and
    // the phase report see the whole batch. The deterministic stdout is
    // unaffected either way (the obs layer is write-only; the smoke gate
    // below re-checks that on every run).
    let collector = (trace_out.is_some() || obs_report).then(|| {
        let collector = Arc::new(RecordingCollector::new());
        brel_obs::install(collector.clone());
        collector
    });

    let mut jobs = if hard {
        hard_corpus()
    } else {
        corpus(&options)
    };
    // A seeded plan places its three fault kinds on distinct jobs; a
    // smaller corpus would arm fewer injections and the chaos gates below
    // would pass vacuously. Reject it up front instead.
    if chaos.is_some() {
        if let Some(message) = chaos_corpus_error(jobs.len()) {
            return usage(&message);
        }
    }
    // Map the fault flags onto every job's policy. The default policy is a
    // no-op, so the flags cost nothing when unused.
    let policy = FaultPolicy {
        deadline_ms,
        max_live_nodes,
        retries,
        ..FaultPolicy::default()
    };
    if policy != FaultPolicy::default() {
        jobs = jobs.into_iter().map(|j| j.with_fault(policy)).collect();
    }
    // Smoke pins 2 workers (the determinism gate re-runs on 1); otherwise
    // default to the machine's parallelism.
    let num_workers = workers.unwrap_or(if smoke {
        2
    } else {
        EngineConfig::default().num_workers
    });
    let names: Vec<&str> = jobs.iter().map(|j| j.name.as_str()).collect();
    // Injections are armed-once, so every chaos solve arms a fresh copy of
    // the (seed-deterministic) plan — the smoke re-run below needs its own.
    let solve = |jobs: &[JobSpec],
                 num_workers: usize,
                 chaos_seed: Option<u64>|
     -> (BatchReport, Option<Arc<FaultPlan>>) {
        let mut engine = Engine::with_workers(num_workers).with_reuse(!cold);
        if wide {
            engine = engine.with_wide(WideOptions::default());
        }
        let plan = chaos_seed.map(|seed| Arc::new(FaultPlan::seeded(seed, &names)));
        if let Some(plan) = &plan {
            engine = engine.with_fault_plan(plan.clone());
        }
        (engine.solve_batch(jobs), plan)
    };
    // Chaos mode runs a no-fault reference batch first: it anchors the
    // fingerprint gate and the untargeted-job byte comparison.
    let reference = chaos.map(|_| solve(&jobs, num_workers, None).0);
    let (report, plan) = solve(&jobs, num_workers, chaos);

    if let Some(collector) = &collector {
        if let Some(path) = &trace_out {
            let trace = collector.chrome_trace();
            if let Err(e) = std::fs::write(path, trace) {
                eprintln!("engine_batch: cannot write {path}: {e}");
                return ExitCode::FAILURE;
            }
            eprintln!("engine_batch: wrote trace to {path}");
        }
        if obs_report {
            eprint!("{}", collector.phase_report().render());
            eprint!("{}", unified_metrics(&report).render());
        }
    }

    if json {
        print!("{}", report.to_json(timing));
    } else if csv {
        print!("{}", report.to_csv(timing));
    } else {
        print!("{}", render(&report));
    }

    if report.num_solved() != report.jobs.len() {
        eprintln!(
            "engine_batch: {} of {} jobs failed to solve",
            report.jobs.len() - report.num_solved(),
            report.jobs.len()
        );
        return ExitCode::FAILURE;
    }

    if let Some(expected) = fingerprint {
        // Under chaos the injected batch deliberately degrades jobs; the
        // drift gate anchors on the no-fault reference instead.
        let actual = reference.as_ref().unwrap_or(&report).total_winner_cost();
        if actual != expected {
            eprintln!(
                "engine_batch: fingerprint drift — total winner cost {actual}, expected {expected}"
            );
            return ExitCode::FAILURE;
        }
        eprintln!("engine_batch: fingerprint OK (total winner cost {actual})");
    }

    if let (Some(reference), Some(plan)) = (&reference, &plan) {
        let injected = plan.injections().len();
        if plan.num_fired() != injected {
            eprintln!(
                "engine_batch: chaos plan misfired — {} of {injected} injections fired",
                plan.num_fired()
            );
            return ExitCode::FAILURE;
        }
        let non_solved: Vec<&str> = report
            .jobs
            .iter()
            .filter(|j| j.outcome != Some(JobOutcome::Solved))
            .map(|j| j.name.as_str())
            .collect();
        if non_solved.len() != injected {
            eprintln!(
                "engine_batch: expected {injected} non-solved outcomes, got {} ({:?})",
                non_solved.len(),
                non_solved
            );
            return ExitCode::FAILURE;
        }
        // Graceful degradation: every injected job still carries a winner
        // (the engine hard-asserts each attempt's compatibility, so a
        // winner is a verified solution). The batch-wide num_solved gate
        // above already covered this; re-check per targeted job anyway.
        let targets = plan.targets();
        for job in &report.jobs {
            if targets.contains(&job.name.as_str()) && job.winner.is_none() {
                eprintln!("engine_batch: injected job {} lost its winner", job.name);
                return ExitCode::FAILURE;
            }
        }
        // Fault isolation: jobs the plan does not target must be
        // byte-identical to the no-fault reference.
        for (chaotic, clean) in report.jobs.iter().zip(&reference.jobs) {
            if targets.contains(&chaotic.name.as_str()) {
                continue;
            }
            if chaotic.to_json(false).render() != clean.to_json(false).render() {
                eprintln!(
                    "engine_batch: untargeted job {} changed under chaos",
                    chaotic.name
                );
                return ExitCode::FAILURE;
            }
        }
        eprintln!(
            "engine_batch: chaos OK (seed {}, {injected} injections fired on {:?}, \
             {} session quarantines, clean jobs byte-identical)",
            plan.seed(),
            targets,
            report.reuse.quarantines,
        );
    }

    if smoke {
        // The determinism gate: the same corpus on one worker must produce
        // byte-identical timing-free output (in whichever mode ran above,
        // chaos included — the re-run arms a fresh plan from the same seed).
        let (single, _) = solve(&jobs, 1, chaos);
        if single.to_json(false) != report.to_json(false)
            || single.to_csv(false) != report.to_csv(false)
        {
            eprintln!(
                "engine_batch: output differs between 1 and {} workers",
                report.num_workers
            );
            return ExitCode::FAILURE;
        }
        eprintln!(
            "engine_batch: smoke OK ({} jobs, {} workers, strategy {}, {}{}deterministic vs 1 worker)",
            report.jobs.len(),
            report.num_workers,
            options.strategy,
            if wide { "wide, " } else { "" },
            if chaos.is_some() { "chaos, " } else { "" },
        );
    }

    if let Some(gate_ns) = overhead_gate {
        brel_obs::uninstall();
        let per_span_ns = brel_obs::disabled_span_ns();
        if per_span_ns > gate_ns {
            eprintln!(
                "engine_batch: disabled span costs {per_span_ns} ns/call, gate is {gate_ns} ns"
            );
            return ExitCode::FAILURE;
        }
        eprintln!(
            "engine_batch: overhead OK (disabled span {per_span_ns} ns/call, gate {gate_ns} ns)"
        );
    }
    ExitCode::SUCCESS
}

/// Files the batch's siloed stats structs into one metrics registry —
/// the unified read side `--obs-report` prints.
fn unified_metrics(report: &BatchReport) -> MetricsRegistry {
    let registry = MetricsRegistry::new();
    registry.absorb("batch.reuse", &report.reuse.metrics());
    let mut explored = 0u64;
    let mut splits = 0u64;
    for job in &report.jobs {
        for attempt in &job.attempts {
            explored += attempt.explored as u64;
            splits += attempt.splits as u64;
            registry.absorb_delta("batch.kernel.cache", &counters(attempt.cache.metrics()));
            registry.absorb_delta("batch.kernel.gc", &counters(attempt.gc.metrics()));
        }
    }
    registry.absorb(
        "batch.search",
        &[("explored", explored), ("splits", splits)],
    );
    registry
}

/// The additive counters among a kernel stats struct's `metrics` (gauges
/// such as table capacities or the live-node peak are per-manager and
/// meaningless summed across jobs).
fn counters<const N: usize>(metrics: [(&'static str, u64); N]) -> Vec<(&'static str, u64)> {
    const COUNTERS: [&str; 8] = [
        "unique_lookups",
        "unique_hits",
        "cache_lookups",
        "cache_hits",
        "cache_inserts",
        "cache_evictions",
        "collections",
        "nodes_reclaimed",
    ];
    metrics
        .into_iter()
        .filter(|(name, _)| COUNTERS.contains(name))
        .collect()
}

fn usage(error: &str) -> ExitCode {
    eprintln!("engine_batch: {error}");
    eprintln!(
        "usage: engine_batch [--smoke] [--hard] [--workers N] [--instances N] [--random N] \
         [--strategy fifo|dfs|best-first] [--wide] [--cold] [--fingerprint N] \
         [--chaos SEED] [--deadline-ms N] [--max-live-nodes N] [--retries N] \
         [--json|--csv] [--timing] [--trace-out PATH] [--obs-report] [--overhead-gate NS]"
    );
    ExitCode::FAILURE
}
