//! A std-only worker pool that solves batches of jobs in parallel.
//!
//! Workers share a single job queue behind a mutex (jobs are coarse enough
//! that queue contention is negligible) and stream finished [`JobReport`]s
//! back over an mpsc channel. Because each job is a pure function of its
//! spec — every worker runs it on its own [`Runner`], whose warm session
//! reset is observationally cold — the collected batch, sorted by job id,
//! is byte-identical (modulo wall clocks and the scheduling-dependent
//! reuse flags) no matter how many workers ran it or how the scheduler
//! interleaved them.

use std::collections::VecDeque;
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::Instant;

use crate::fault::FaultPlan;
use crate::job::{BackendKind, JobSpec};
use crate::reuse::{BatchReuse, ReuseState};
use crate::runner::{JobReport, Runner};
use crate::wide::WideOptions;

/// Engine configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineConfig {
    /// Number of worker threads. Zero is treated as one.
    pub num_workers: usize,
    /// When set, batches run in *wide* mode: jobs are processed one at a
    /// time and the worker pool parallelizes frontier expansion inside each
    /// BREL solve instead of across jobs (see [`crate::wide`]). Use it when
    /// one hard relation would otherwise serialize the batch.
    pub wide: Option<WideOptions>,
    /// Cross-job reuse (the default): workers keep warm BDD sessions
    /// across jobs and share the solved-subrelation cache. Turning it off
    /// restores the pre-redesign cold-manager-per-job behaviour; the
    /// deterministic output is identical either way (see
    /// [`crate::reuse`]), only wall clocks and the [`BatchReuse`] counters
    /// move.
    pub reuse: bool,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            num_workers: thread::available_parallelism().map_or(1, |n| n.get()),
            wide: None,
            reuse: true,
        }
    }
}

/// The result of one batch run.
#[derive(Debug, Clone)]
pub struct BatchReport {
    /// One report per submitted job, sorted by job id.
    pub jobs: Vec<JobReport>,
    /// Number of workers that actually ran (after clamping).
    pub num_workers: usize,
    /// Wall-clock time of the whole batch in microseconds.
    pub wall_micros: u64,
    /// Warm-vs-cold session counts and solved-subrelation cache traffic
    /// for the whole batch. Scheduling-dependent (which worker lands which
    /// job decides who resets warm), so it is serialized only alongside
    /// timings — never in the deterministic output.
    pub reuse: BatchReuse,
}

impl BatchReport {
    /// Number of jobs whose portfolio produced at least one solution.
    pub fn num_solved(&self) -> usize {
        self.jobs.iter().filter(|j| j.winner.is_some()).count()
    }

    /// Sum of the winning attempts' costs: the batch's determinism
    /// fingerprint. A solver or kernel change may move wall times, but if
    /// this number moves for the default configuration, results changed.
    pub fn total_winner_cost(&self) -> u64 {
        self.jobs
            .iter()
            .filter_map(|j| j.winning().map(|w| w.cost))
            .sum()
    }

    /// How many jobs each backend won, in the deterministic
    /// [`BackendKind::all`] order. Backends that won nothing are included
    /// with a zero count.
    pub fn wins_by_backend(&self) -> Vec<(BackendKind, usize)> {
        BackendKind::all()
            .into_iter()
            .map(|kind| {
                let wins = self
                    .jobs
                    .iter()
                    .filter(|j| j.winning().is_some_and(|w| w.backend == kind))
                    .count();
                (kind, wins)
            })
            .collect()
    }
}

/// The parallel batch-solving engine.
#[derive(Debug, Default)]
pub struct Engine {
    config: EngineConfig,
    /// Deterministic fault-injection plan for chaos runs; `None` (the
    /// default) injects nothing and adds no overhead beyond a slice check.
    plan: Option<Arc<FaultPlan>>,
    /// Runners between batches: their warm sessions, and the allocations
    /// behind them, outlive one batch.
    idle: Mutex<Vec<Runner>>,
}

impl Clone for Engine {
    fn clone(&self) -> Self {
        Engine {
            config: self.config,
            plan: self.plan.clone(),
            idle: Mutex::default(),
        }
    }
}

impl Engine {
    /// Creates an engine with the given configuration.
    pub fn new(config: EngineConfig) -> Self {
        Engine {
            config,
            plan: None,
            idle: Mutex::default(),
        }
    }

    /// Creates an engine with a fixed worker count.
    pub fn with_workers(num_workers: usize) -> Self {
        Engine::new(EngineConfig {
            num_workers,
            ..EngineConfig::default()
        })
    }

    /// Switches the engine into wide mode (parallel frontier expansion
    /// inside each BREL solve instead of job-level parallelism).
    pub fn with_wide(mut self, options: WideOptions) -> Self {
        self.config.wide = Some(options);
        self.idle = Mutex::default();
        self
    }

    /// Turns cross-job reuse (warm sessions + the solved-subrelation
    /// cache) on or off. Off restores the pre-redesign
    /// cold-manager-per-job behaviour; the deterministic output is
    /// identical either way.
    pub fn with_reuse(mut self, reuse: bool) -> Self {
        self.config.reuse = reuse;
        self.idle = Mutex::default();
        self
    }

    /// Arms a deterministic fault-injection plan: each injection fires
    /// exactly once, at the Nth BREL expansion of its target job, in both
    /// narrow and wide mode. Jobs the plan does not target are untouched —
    /// their deterministic output is byte-identical to an uninjected run.
    pub fn with_fault_plan(mut self, plan: Arc<FaultPlan>) -> Self {
        self.plan = Some(plan);
        self.idle = Mutex::default();
        self
    }

    /// The configuration of this engine.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Solves every job of the batch and returns the reports sorted by job
    /// id. The output (modulo wall-clock fields) does not depend on the
    /// worker count.
    ///
    /// Narrow mode runs one [`Runner`] per worker thread, each pulling jobs
    /// from a shared queue and sharing the solved-subrelation cache. Wide
    /// mode runs a single runner that takes the jobs one at a time and
    /// parallelizes the frontier of each BREL solve over its search
    /// sessions instead (the cache does not apply there: wide expansions
    /// are intermediate, not finished portfolios).
    ///
    /// The runners outlive the batch: the next batch on this engine starts
    /// on their warm sessions instead of building and freeing every BDD
    /// table again (a reset session is observationally cold, so the output
    /// is unchanged). The solved-subrelation cache stays per batch.
    pub fn solve_batch(&self, jobs: &[JobSpec]) -> BatchReport {
        let start = Instant::now();
        let (num_workers, runners) = match self.config.wide {
            Some(_) => (self.config.num_workers.max(1), 1),
            // Never spin up more workers than jobs; never fewer than one.
            None => {
                let n = self.config.num_workers.clamp(1, jobs.len().max(1));
                (n, n)
            }
        };
        let cache = (self.config.wide.is_none() && self.config.reuse)
            .then(|| Arc::new(ReuseState::default()));
        let queue: Mutex<VecDeque<(usize, &JobSpec)>> =
            Mutex::new(jobs.iter().enumerate().collect());
        let totals = Mutex::new(BatchReuse::default());
        let mut pool = std::mem::take(&mut *self.idle.lock().expect("idle runners poisoned"));
        while pool.len() < runners {
            pool.push(Runner::new(&self.config, self.plan.clone()));
        }
        let spare = pool.split_off(runners);
        let (tx, rx) = mpsc::channel::<JobReport>();
        let (mut reports, mut pool): (Vec<JobReport>, Vec<Runner>) = thread::scope(|scope| {
            let handles: Vec<_> = pool
                .into_iter()
                .enumerate()
                .map(|(worker, mut runner)| {
                    let tx = tx.clone();
                    let queue = &queue;
                    let totals = &totals;
                    runner.set_cache(cache.clone());
                    scope.spawn(move || {
                        let _track = brel_obs::enabled(brel_obs::Category::Engine)
                            .then(|| brel_obs::set_track(&format!("pool-worker-{worker}")));
                        let before = runner.counts();
                        loop {
                            // Take the lock only to pop; the solve runs unlocked.
                            let next = queue.lock().expect("job queue poisoned").pop_front();
                            let Some((id, job)) = next else { break };
                            let _job_span = brel_obs::span!(
                                brel_obs::Category::Engine,
                                "job",
                                "job_id" => id,
                            );
                            // The receiver outlives the scope; a send can only
                            // fail if the collector stopped early.
                            let _ = tx.send(runner.run(id, job, None));
                        }
                        *totals.lock().expect("counts poisoned") += runner.counts().since(before);
                        runner.set_cache(None);
                        runner
                    })
                })
                .collect();
            // Drop the original sender so the channel closes once every
            // worker finishes, then drain it from this thread.
            drop(tx);
            let reports = rx.iter().collect();
            let pool = handles
                .into_iter()
                .map(|h| h.join().expect("runners catch job panics"))
                .collect();
            (reports, pool)
        });
        pool.extend(spare);
        *self.idle.lock().expect("idle runners poisoned") = pool;
        reports.sort_by_key(|r| r.job_id);
        BatchReport {
            jobs: reports,
            num_workers,
            wall_micros: brel_obs::wall_micros(start),
            reuse: totals.into_inner().expect("counts poisoned"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{CostSpec, RelationSpec};
    use brel_relation::{BooleanRelation, RelationSpace};

    fn job(name: &str, table: &str, inputs: usize, outputs: usize) -> JobSpec {
        let space = RelationSpace::new(inputs, outputs);
        let r = BooleanRelation::from_table(&space, table).unwrap();
        JobSpec::portfolio(name, RelationSpec::from_relation(&r).unwrap())
    }

    fn sample_batch() -> Vec<JobSpec> {
        vec![
            job("fig1", "00:{00}\n01:{00}\n10:{00,11}\n11:{10,11}", 2, 2),
            job("fig10", "00:{00,11}\n01:{10}\n10:{01,10}\n11:{11}", 2, 2),
            job("broken", "1 : {1}", 1, 1),
            job("fig5", "00:{01,10}\n01:{11}\n10:{11}\n11:{01,10}", 2, 2)
                .with_cost(CostSpec::LiteralCount),
        ]
    }

    /// A report without its wall-clock fields and scheduling-dependent
    /// reuse flags: what must not depend on workers, reuse or batches.
    fn mask(j: &JobReport) -> JobReport {
        let mut j = j.clone();
        for attempt in &mut j.attempts {
            attempt.wall_micros = 0;
            attempt.reuse = Default::default();
        }
        j
    }

    #[test]
    fn reports_come_back_in_job_id_order() {
        let batch = sample_batch();
        let report = Engine::with_workers(3).solve_batch(&batch);
        assert_eq!(report.jobs.len(), batch.len());
        for (i, j) in report.jobs.iter().enumerate() {
            assert_eq!(j.job_id, i);
            assert_eq!(j.name, batch[i].name);
        }
        assert_eq!(report.num_solved(), 3);
        let total_wins: usize = report.wins_by_backend().iter().map(|(_, w)| w).sum();
        assert_eq!(total_wins, 3);
    }

    #[test]
    fn worker_count_does_not_change_the_results() {
        let batch = sample_batch();
        let one = Engine::with_workers(1).solve_batch(&batch);
        let many = Engine::with_workers(8).solve_batch(&batch);
        assert_eq!(one.jobs.len(), many.jobs.len());
        for (a, b) in one.jobs.iter().zip(&many.jobs) {
            assert_eq!(mask(a), mask(b));
        }
    }

    #[test]
    fn disabling_reuse_does_not_change_the_results() {
        let batch = sample_batch();
        let warm = Engine::with_workers(2).solve_batch(&batch);
        let cold = Engine::with_workers(2)
            .with_reuse(false)
            .solve_batch(&batch);
        assert_eq!(warm.total_winner_cost(), cold.total_winner_cost());
        // Cold mode never resets a session warm and never consults the
        // subrelation cache.
        assert_eq!(cold.reuse.warm_reuses, 0);
        assert_eq!(
            cold.reuse.subrel_cache_hits + cold.reuse.subrel_cache_misses,
            0
        );
        // Every job rehydrates cold exactly once (even the ill-defined
        // one: rehydration succeeds, solving is what fails).
        assert_eq!(cold.reuse.cold_builds as usize, batch.len());
        for (a, b) in warm.jobs.iter().zip(&cold.jobs) {
            assert_eq!(mask(a), mask(b));
        }
    }

    #[test]
    fn runners_stay_warm_across_batches() {
        let batch = sample_batch();
        let engine = Engine::with_workers(1);
        let first = engine.solve_batch(&batch);
        let second = engine.solve_batch(&batch);
        assert_eq!(first.reuse.cold_builds, 1);
        assert_eq!(second.reuse.cold_builds, 0, "the runners came back warm");
        assert_eq!(second.reuse.warm_reuses as usize, batch.len());
        let masked = |r: &BatchReport| r.jobs.iter().map(mask).collect::<Vec<_>>();
        assert_eq!(masked(&first), masked(&second));
    }

    #[test]
    fn chaos_batches_terminate_with_structured_outcomes() {
        use crate::fault::{FaultPlan, JobOutcome};
        // Drop the ill-defined job: chaos runs assert that every *solvable*
        // job still yields a winner.
        let batch: Vec<JobSpec> = sample_batch()
            .into_iter()
            .filter(|j| j.name != "broken")
            .collect();
        let names: Vec<&str> = batch.iter().map(|j| j.name.as_str()).collect();
        let mut runs = Vec::new();
        for workers in [1usize, 2, 8] {
            // Injections are armed-once, so each run arms a fresh plan.
            let plan = Arc::new(FaultPlan::seeded(9, &names));
            assert_eq!(plan.injections().len(), 3);
            let report = Engine::with_workers(workers)
                .with_fault_plan(plan.clone())
                .solve_batch(&batch);
            assert_eq!(plan.num_fired(), 3, "every injection must fire");
            let non_solved = report
                .jobs
                .iter()
                .filter(|j| j.outcome != Some(JobOutcome::Solved))
                .count();
            assert_eq!(non_solved, 3, "exactly the injected jobs degrade");
            assert!(
                report.jobs.iter().all(|j| j.winner.is_some()),
                "every solvable job still returns a row"
            );
            runs.push(report.jobs.iter().map(mask).collect::<Vec<_>>());
        }
        assert_eq!(runs[0], runs[1], "1 vs 2 workers");
        assert_eq!(runs[0], runs[2], "1 vs 8 workers");
    }

    #[test]
    fn zero_workers_is_clamped_to_one() {
        let batch = sample_batch();
        let report = Engine::with_workers(0).solve_batch(&batch);
        assert_eq!(report.num_workers, 1);
        assert_eq!(report.jobs.len(), batch.len());
    }

    #[test]
    fn empty_batch_is_fine() {
        let report = Engine::default().solve_batch(&[]);
        assert!(report.jobs.is_empty());
        assert_eq!(report.num_solved(), 0);
    }
}
