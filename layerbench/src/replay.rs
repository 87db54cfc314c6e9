//! The traced run: replays a corpus pass through each layer's public
//! functions, timing every call from outside the program.
//!
//! Per job the replay rehydrates the relation (the `relation` layer), runs
//! the job's backends exactly as the engine configures them — the quick
//! solver, gyocro, and BREL driven step by step through `Explorer` (the
//! `brel` and `gyocro` layers) — attributes the kernel's counters to each
//! backend, replays `Bdd` handle operations on the job's χ and output
//! projections (the `bdd` layer), and checks every solution with an
//! oracle that uses neither χ nor the engine's own compatibility check.
//! No `brel_obs` collector is installed: all timing is the benchmark's.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use brel_bdd::{CacheStats, Var};
use brel_core::{BrelConfig, CostFunction, Explorer, QuickSolver, StepOutcome};
use brel_engine::{BackendKind, CostSpec, JobSpec, RelationSpec, WarmSession};
use brel_gyocro::{GyocroConfig, GyocroSolver};
use brel_relation::MultiOutputFunction;

/// Everything the replay measured and computed for one job.
#[derive(Debug, Clone, Default)]
pub struct JobTrace {
    pub build_ns: f64,
    pub chi_nodes: u64,
    pub rows: u64,
    pub quick_ns: f64,
    pub gyocro_ns: f64,
    pub gyocro_passes: u64,
    pub seed_ns: f64,
    pub expand_ns: f64,
    pub explored: u64,
    pub splits: u64,
    pub frontier_peak: u64,
    pub improvements: u64,
    /// Expansions not pruned by cost: each one either improved the
    /// incumbent or split the relation.
    pub useful: u64,
    /// Kernel counters attributed to the backends (sums of per-backend
    /// deltas).
    pub cache: CacheStats,
    pub gc_collections: u64,
    pub nodes_reclaimed: u64,
    pub peak_live_nodes: u64,
    /// `(backend, cost)` of every attempt, in backend order.
    pub attempts: Vec<(BackendKind, u64)>,
    /// Index into `attempts` of the cheapest (earliest on ties).
    pub winner: Option<usize>,
    /// BREL's `(explored, splits)`, when the job ran BREL.
    pub brel: Option<(u64, u64)>,
    /// Oracle findings; empty when every solution passed.
    pub oracle_failures: Vec<String>,
    pub apply: OpTimes,
    pub quantify: OpTimes,
    pub isop: OpTimes,
}

impl JobTrace {
    pub fn winner_cost(&self) -> Option<u64> {
        self.winner.map(|i| self.attempts[i].1)
    }

    /// Time inside the layers: relation construction plus the backends.
    pub fn layer_ns(&self) -> f64 {
        self.build_ns + self.quick_ns + self.gyocro_ns + self.seed_ns + self.expand_ns
    }
}

/// Accumulated wall time of one kind of kernel call.
#[derive(Debug, Clone, Copy, Default)]
pub struct OpTimes {
    pub ns: f64,
    pub calls: u64,
}

impl OpTimes {
    fn time<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let result = std::hint::black_box(f());
        self.ns += start.elapsed().as_nanos() as f64;
        self.calls += 1;
        result
    }

    pub fn add(&mut self, other: &OpTimes) {
        self.ns += other.ns;
        self.calls += other.calls;
    }

    pub fn mean_ns(&self) -> f64 {
        crate::stats::ratio(self.ns, self.calls as f64)
    }
}

fn ns_since(start: Instant) -> f64 {
    start.elapsed().as_nanos() as f64
}

/// One replayed corpus pass.
#[derive(Debug)]
pub struct ReplayPass {
    pub wall_s: f64,
    /// Per-job traces in corpus order.
    pub jobs: Vec<JobTrace>,
}

/// Replays every job of the corpus once over `workers` threads pulling
/// from one shared queue — the narrow pool's shape — each thread keeping
/// its own warm session for the pass.
pub fn replay_pass(jobs: &[JobSpec], workers: usize) -> ReplayPass {
    let next = AtomicUsize::new(0);
    let traces: Mutex<Vec<Option<JobTrace>>> = Mutex::new(vec![None; jobs.len()]);
    let start = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..workers.clamp(1, jobs.len().max(1)) {
            scope.spawn(|| {
                let mut warm = WarmSession::new();
                loop {
                    let index = next.fetch_add(1, Ordering::Relaxed);
                    let Some(job) = jobs.get(index) else { break };
                    let trace = replay_job(job, &mut warm);
                    traces.lock().expect("replay workers do not panic")[index] = Some(trace);
                }
            });
        }
    });
    let wall_s = start.elapsed().as_secs_f64();
    let jobs = traces
        .into_inner()
        .expect("replay workers do not panic")
        .into_iter()
        .map(|t| t.expect("every job was replayed"))
        .collect();
    ReplayPass { wall_s, jobs }
}

/// Replays one job on `warm`. A backend error (an ill-defined relation)
/// is recorded as an oracle failure.
fn replay_job(job: &JobSpec, warm: &mut WarmSession) -> JobTrace {
    let mut trace = JobTrace {
        rows: job.relation.rows().len() as u64,
        ..JobTrace::default()
    };
    let start = Instant::now();
    let (space, relation, _warm) = warm.rehydrate(&job.relation);
    trace.build_ns = ns_since(start);
    trace.chi_nodes = relation.size() as u64;
    let mgr = space.mgr();
    let cost_fn = job.cost.to_cost_fn();

    for &kind in &job.backends {
        mgr.reset_peak_live_nodes();
        let before = mgr.stats_snapshot();
        let function = match kind {
            BackendKind::Quick => {
                let start = Instant::now();
                let result = QuickSolver::new().solve(&relation);
                trace.quick_ns += ns_since(start);
                result
            }
            BackendKind::Gyocro => {
                let solver = GyocroSolver::new(GyocroConfig {
                    max_passes: job.budget.gyocro_max_passes,
                    ..GyocroConfig::default()
                });
                let start = Instant::now();
                let result = solver.solve(&relation);
                trace.gyocro_ns += ns_since(start);
                result.map(|solution| {
                    trace.gyocro_passes += solution.passes as u64;
                    solution.function
                })
            }
            BackendKind::Brel => run_brel(job, &relation, &mut trace),
        };
        let after = mgr.stats_snapshot();
        let cache = after.cache.delta_since(&before.cache);
        let gc = after.gc.delta_since(&before.gc);
        add_cache(&mut trace.cache, &cache);
        trace.gc_collections += gc.collections;
        trace.nodes_reclaimed += gc.nodes_reclaimed;
        trace.peak_live_nodes = trace.peak_live_nodes.max(gc.peak_live_nodes);
        match function {
            Ok(function) => {
                let cost = cost_fn.cost(&function);
                if let Err(finding) = oracle(&job.relation, &function, job.cost, cost) {
                    trace
                        .oracle_failures
                        .push(format!("{} {}: {finding}", job.name, kind.name()));
                }
                trace.attempts.push((kind, cost));
            }
            Err(error) => {
                trace
                    .oracle_failures
                    .push(format!("{} {}: {error}", job.name, kind.name()))
            }
        }
    }
    trace.winner = (0..trace.attempts.len()).min_by_key(|&i| (trace.attempts[i].1, i));

    // The kernel layer: handle operations on this job's χ and its output
    // projections, each timed from a cleared operation cache.
    let chi = relation.characteristic().clone();
    let outputs: Vec<Var> = space.output_vars().to_vec();
    let cold = |ops: &mut OpTimes, f: &dyn Fn() -> brel_bdd::Bdd| {
        mgr.clear_caches();
        ops.time(f)
    };
    cold(&mut trace.quantify, &|| chi.exists(&outputs));
    cold(&mut trace.quantify, &|| chi.forall(&outputs));
    for j in 0..outputs.len() {
        let others: Vec<Var> = outputs
            .iter()
            .copied()
            .filter(|&v| v != outputs[j])
            .collect();
        let projection = cold(&mut trace.quantify, &|| chi.exists(&others));
        cold(&mut trace.apply, &|| chi.and(&projection));
        cold(&mut trace.apply, &|| chi.or(&projection));
        cold(&mut trace.apply, &|| chi.xor(&projection));
        mgr.clear_caches();
        trace.isop.time(|| projection.isop());
    }
    trace
}

/// BREL exactly as the engine's narrow path runs it: the job's cost,
/// strategy and budget, stepped until the frontier or the budget is spent.
fn run_brel(
    job: &JobSpec,
    relation: &brel_relation::BooleanRelation,
    trace: &mut JobTrace,
) -> Result<MultiOutputFunction, brel_relation::RelationError> {
    let config = BrelConfig::default()
        .with_cost(job.cost.to_cost_fn())
        .with_strategy(job.strategy)
        .with_max_explored(job.budget.max_explored)
        .with_fifo_capacity(job.budget.fifo_capacity);
    let start = Instant::now();
    let mut explorer = Explorer::new(config, relation)?;
    trace.seed_ns += ns_since(start);
    let start = Instant::now();
    // Step until the frontier or the budget is spent, as the engine does.
    while let StepOutcome::Explored { .. } = explorer.step()? {}
    trace.expand_ns += ns_since(start);
    let solution = explorer.into_solution();
    trace.explored = solution.stats.explored as u64;
    trace.splits = solution.stats.splits as u64;
    trace.frontier_peak = solution.stats.frontier_peak as u64;
    trace.improvements = solution.stats.improvements as u64;
    trace.useful = (solution.stats.explored - solution.stats.pruned_by_cost) as u64;
    trace.brel = Some((trace.explored, trace.splits));
    Ok(solution.function)
}

fn add_cache(total: &mut CacheStats, delta: &CacheStats) {
    total.cache_lookups += delta.cache_lookups;
    total.cache_hits += delta.cache_hits;
    total.unique_lookups += delta.unique_lookups;
    total.unique_hits += delta.unique_hits;
}

/// The independent oracle: the function, evaluated at every input vertex
/// of the relation's rows, lands inside that row's image; the rows cover
/// every input vertex once; and under the area cost the reported cost is
/// the sum of the output BDD sizes.
fn oracle(
    spec: &RelationSpec,
    function: &MultiOutputFunction,
    cost_spec: CostSpec,
    cost: u64,
) -> Result<(), String> {
    let rows = spec.rows();
    let vertices = 1usize << spec.num_inputs();
    let mut seen = vec![false; vertices];
    for (input, image) in rows {
        let vertex = input
            .iter()
            .fold(0usize, |acc, &bit| (acc << 1) | bit as usize);
        if std::mem::replace(&mut seen[vertex], true) {
            return Err(format!("input {vertex} appears in two rows"));
        }
        let output = function.eval(input).map_err(|e| e.to_string())?;
        if !image.contains(&output) {
            return Err(format!(
                "f({input:?}) = {output:?} lies outside the row's image"
            ));
        }
    }
    if rows.len() != vertices {
        return Err(format!(
            "{} of {vertices} input vertices have rows",
            rows.len()
        ));
    }
    if cost_spec == CostSpec::SumBddSize && function.sum_of_sizes() as u64 != cost {
        return Err(format!(
            "cost {cost} but the output BDD sizes sum to {}",
            function.sum_of_sizes()
        ));
    }
    Ok(())
}
