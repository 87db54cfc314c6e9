//! Aggregation of the traced run into the per-layer metrics, and the check
//! that the traced replay agrees with the timed run.

use std::collections::BTreeMap;

use brel_engine::{BackendKind, BatchReport, JobSpec};

use crate::batch::Gate;
use crate::replay::{OpTimes, ReplayPass};
use crate::serve::LoopRun;
use crate::stats::{median, ratio};

pub type Metrics = BTreeMap<&'static str, f64>;

/// What the timed part of a traced run measured, per corpus pass.
#[derive(Debug)]
pub struct TimedSide<'a> {
    /// Wall of one corpus pass (median over the timed passes).
    pub pass_wall_s: f64,
    /// Kernel counters of one timed pass; `None` where the timed path does
    /// not expose them (the daemon), so the replay's counters stand in.
    pub report: Option<&'a BatchReport>,
    /// `(warm_reuses, cold_builds, subrel_cache_hits, quarantines)` per
    /// corpus pass.
    pub reuse: [f64; 4],
}

/// Fails the gate unless the replay reproduced the timed run job by job:
/// the same winner cost and, where BREL ran, the same `explored` and
/// `splits`. `timed[i]` is job `i`'s `(winner cost, BREL explored, BREL
/// splits)` as the timed run reported it (`None` where it did not report
/// that field). Oracle findings of the replay fail the gate too.
pub fn check_agreement(
    jobs: &[JobSpec],
    replay: &ReplayPass,
    timed: &[(Option<u64>, Option<u64>, Option<u64>)],
    gate: &mut Gate,
) {
    for ((job, trace), &(cost, explored, splits)) in jobs.iter().zip(&replay.jobs).zip(timed) {
        gate.attempted += 1;
        for finding in &trace.oracle_failures {
            gate.fail(format!("oracle: {finding}"));
        }
        let replayed = (
            trace.winner_cost(),
            trace.brel.map(|b| b.0),
            trace.brel.map(|b| b.1),
        );
        let agrees = cost == replayed.0
            && explored.is_none_or(|e| Some(e) == replayed.1)
            && splits.is_none_or(|s| Some(s) == replayed.2);
        if !agrees {
            gate.fail(format!(
                "{}: timed run (cost, explored, splits) = {:?}, traced replay = {:?}",
                job.name,
                (cost, explored, splits),
                replayed
            ));
        }
    }
}

/// `(winner cost, BREL explored, BREL splits)` of each job of a batch report.
pub fn batch_outcomes(report: &BatchReport) -> Vec<(Option<u64>, Option<u64>, Option<u64>)> {
    report
        .jobs
        .iter()
        .map(|job| {
            let brel = job.attempts.iter().find(|a| a.backend == BackendKind::Brel);
            (
                job.winning().map(|w| w.cost),
                brel.map(|a| a.explored as u64),
                brel.map(|a| a.splits as u64),
            )
        })
        .collect()
}

/// The per-layer metrics of the `bdd`, `relation`, `brel`, `gyocro`,
/// `engine` and `trace` rows. Times are medians over the replay passes;
/// counts are per corpus pass and exact.
pub fn layer_metrics(replays: &[ReplayPass], timed: &TimedSide<'_>, workers: usize) -> Metrics {
    let mut m = Metrics::new();
    let per_pass =
        |f: &dyn Fn(&ReplayPass) -> f64| median(&replays.iter().map(f).collect::<Vec<_>>());
    let sum = |pass: &ReplayPass, f: &dyn Fn(&crate::replay::JobTrace) -> f64| -> f64 {
        pass.jobs.iter().map(f).sum()
    };
    let ops = |pass: &ReplayPass, f: &dyn Fn(&crate::replay::JobTrace) -> OpTimes| -> f64 {
        let mut total = OpTimes::default();
        for job in &pass.jobs {
            total.add(&f(job));
        }
        total.mean_ns()
    };
    m.insert("bdd.apply_ns", per_pass(&|p| ops(p, &|j| j.apply)));
    m.insert("bdd.quantify_ns", per_pass(&|p| ops(p, &|j| j.quantify)));
    m.insert("bdd.isop_ns", per_pass(&|p| ops(p, &|j| j.isop)));

    // Exact kernel counters: the timed run's own attribution where it has
    // one, the replay's otherwise (identical to the narrow engine's).
    let first = &replays[0];
    let (lookups, hits, unique_lookups, unique_hits, collections, reclaimed, peak) =
        match timed.report {
            Some(report) => {
                let attempts = || report.jobs.iter().flat_map(|j| j.attempts.iter());
                (
                    attempts().map(|a| a.cache.cache_lookups).sum::<u64>(),
                    attempts().map(|a| a.cache.cache_hits).sum::<u64>(),
                    attempts().map(|a| a.cache.unique_lookups).sum::<u64>(),
                    attempts().map(|a| a.cache.unique_hits).sum::<u64>(),
                    attempts().map(|a| a.gc.collections).sum::<u64>(),
                    attempts().map(|a| a.gc.nodes_reclaimed).sum::<u64>(),
                    attempts().map(|a| a.gc.peak_live_nodes).max().unwrap_or(0),
                )
            }
            None => {
                let jobs = || first.jobs.iter();
                (
                    jobs().map(|j| j.cache.cache_lookups).sum::<u64>(),
                    jobs().map(|j| j.cache.cache_hits).sum::<u64>(),
                    jobs().map(|j| j.cache.unique_lookups).sum::<u64>(),
                    jobs().map(|j| j.cache.unique_hits).sum::<u64>(),
                    jobs().map(|j| j.gc_collections).sum::<u64>(),
                    jobs().map(|j| j.nodes_reclaimed).sum::<u64>(),
                    jobs().map(|j| j.peak_live_nodes).max().unwrap_or(0),
                )
            }
        };
    m.insert("bdd.cache_lookups", lookups as f64);
    m.insert("bdd.cache_hit_ratio", ratio(hits as f64, lookups as f64));
    m.insert("bdd.unique_lookups", unique_lookups as f64);
    m.insert(
        "bdd.unique_hit_ratio",
        ratio(unique_hits as f64, unique_lookups as f64),
    );
    m.insert("bdd.gc_collections", collections as f64);
    m.insert("bdd.nodes_reclaimed", reclaimed as f64);
    m.insert("bdd.peak_live_nodes", peak as f64);

    m.insert(
        "relation.build_ms",
        per_pass(&|p| sum(p, &|j| j.build_ns)) / 1e6,
    );
    m.insert(
        "relation.build_share",
        per_pass(&|p| ratio(sum(p, &|j| j.build_ns), sum(p, &|j| j.layer_ns()))),
    );
    m.insert("relation.chi_nodes", sum(first, &|j| j.chi_nodes as f64));
    m.insert("relation.rows", sum(first, &|j| j.rows as f64));

    let explored = sum(first, &|j| j.explored as f64);
    m.insert("brel.seed_ms", per_pass(&|p| sum(p, &|j| j.seed_ns)) / 1e6);
    m.insert(
        "brel.expand_ms",
        per_pass(&|p| sum(p, &|j| j.expand_ns)) / 1e6,
    );
    m.insert(
        "brel.expand_us",
        per_pass(&|p| ratio(sum(p, &|j| j.expand_ns), explored)) / 1e3,
    );
    m.insert("brel.explored", explored);
    m.insert("brel.splits", sum(first, &|j| j.splits as f64));
    m.insert(
        "brel.frontier_peak",
        first
            .jobs
            .iter()
            .map(|j| j.frontier_peak)
            .max()
            .unwrap_or(0) as f64,
    );
    m.insert("brel.improvements", sum(first, &|j| j.improvements as f64));
    m.insert(
        "brel.compatible_ratio",
        ratio(sum(first, &|j| j.useful as f64), explored),
    );
    m.insert(
        "brel.quick_ms",
        per_pass(&|p| sum(p, &|j| j.quick_ns)) / 1e6,
    );

    m.insert(
        "gyocro.solve_ms",
        per_pass(&|p| sum(p, &|j| j.gyocro_ns)) / 1e6,
    );
    m.insert("gyocro.passes", sum(first, &|j| j.gyocro_passes as f64));

    let capacity_s = workers as f64 * timed.pass_wall_s;
    m.insert(
        "engine.parallel_efficiency",
        per_pass(&|p| ratio(sum(p, &|j| j.layer_ns()) / 1e9, capacity_s)),
    );
    let [warm, cold, hits, quarantines] = timed.reuse;
    m.insert("engine.warm_reuses", warm);
    m.insert("engine.cold_builds", cold);
    m.insert("engine.subrel_cache_hits", hits);
    m.insert("engine.quarantines", quarantines);

    let replay_wall = per_pass(&|p| p.wall_s);
    m.insert(
        "trace.overhead_frac",
        ratio(replay_wall - timed.pass_wall_s, timed.pass_wall_s),
    );
    m
}

/// The `serve` row, from client clocks and the finals' service timings.
/// `shed` and `degraded` are the daemon's own counters.
pub fn serve_metrics(run: &LoopRun, shed: u64, degraded: u64) -> Metrics {
    let finals: Vec<_> = run
        .all()
        .filter_map(|r| r.report.as_ref().map(|report| (r, report)))
        .collect();
    let column = |f: &dyn Fn(&crate::serve::Request, &brel_serve::FinalReport) -> f64| -> Vec<f64> {
        finals.iter().map(|(r, report)| f(r, report)).collect()
    };
    let requests = run.all().count() as f64;
    let distinct = run
        .all()
        .map(|r| r.job)
        .collect::<std::collections::BTreeSet<_>>()
        .len() as f64;
    let mut m = Metrics::new();
    m.insert(
        "serve.admission_p50_us",
        median(&column(&|r, _| r.admission_us)),
    );
    m.insert(
        "serve.queue_wait_p50_ms",
        median(&column(&|_, f| f.queue_wait_us as f64)) / 1e3,
    );
    m.insert(
        "serve.solve_p50_ms",
        median(&column(&|_, f| f.solve_us as f64)) / 1e3,
    );
    m.insert(
        "serve.delivery_p50_ms",
        median(&column(&|r, f| {
            r.final_us - r.admission_us - f.queue_wait_us as f64 - f.solve_us as f64
        })) / 1e3,
    );
    m.insert(
        "serve.incumbents_per_request",
        ratio(
            column(&|r, _| r.incumbents as f64).iter().sum(),
            finals.len() as f64,
        ),
    );
    m.insert("serve.shed", shed as f64);
    m.insert("serve.degraded", degraded as f64);
    m.insert("serve.repeat_share", ratio(requests - distinct, requests));
    m
}

/// The `serve` row of a workload without a daemon: every counter and time
/// is zero because the layer does not run.
pub fn serve_absent() -> Metrics {
    crate::PER_LAYER
        .iter()
        .filter(|(name, _)| name.starts_with("serve."))
        .map(|&(name, _)| (name, 0.0))
        .collect()
}
