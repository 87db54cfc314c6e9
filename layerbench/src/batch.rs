//! Timed passes of the batch workloads, and the correctness gate every
//! pass (batch or served) goes through.

use std::time::{Duration, Instant};

use brel_engine::{BatchReport, Engine, JobOutcome, JobSpec};

use crate::stats::SplitMix64;

/// The per-job correctness gate shared by every workload: each job ends
/// `solved` with a non-degraded winner, each relation's winner cost is the
/// same on every pass, and a pass's total reproduces the pinned
/// fingerprint when the corpus has one.
#[derive(Debug)]
pub struct Gate {
    /// Winner cost of each corpus job, fixed by the first pass that saw it
    /// (or handed in from a reference batch).
    reference: Vec<Option<u64>>,
    pinned: Option<u64>,
    pub attempted: u64,
    pub failed: u64,
    pub messages: Vec<String>,
}

impl Gate {
    pub fn new(num_jobs: usize, pinned: Option<u64>) -> Self {
        Gate {
            reference: vec![None; num_jobs],
            pinned,
            attempted: 0,
            failed: 0,
            messages: Vec::new(),
        }
    }

    /// Fixes every job's expected winner cost from a reference batch solved
    /// in corpus order (the serving workload checks each final against it).
    pub fn set_reference(&mut self, report: &BatchReport) {
        let costs: Vec<Option<u64>> = report
            .jobs
            .iter()
            .map(|j| j.winning().map(|w| w.cost))
            .collect();
        let total: u64 = costs.iter().flatten().sum();
        if let Some(pinned) = self.pinned {
            if total != pinned {
                self.fail(format!(
                    "reference batch costs {total}, the pinned fingerprint is {pinned}"
                ));
            }
        }
        self.reference = costs;
    }

    /// Records one failed check.
    pub fn fail(&mut self, message: String) {
        self.failed += 1;
        if self.messages.len() < 8 {
            self.messages.push(message);
        }
    }

    /// Checks one job's result: `outcome` is its outcome name, `cost` its
    /// winner's cost. Returns whether it passed.
    pub fn job(
        &mut self,
        index: usize,
        name: &str,
        outcome: &str,
        degraded: bool,
        cost: Option<u64>,
    ) -> bool {
        self.attempted += 1;
        let Some(cost) = cost else {
            self.fail(format!("{name}: no winner ({outcome})"));
            return false;
        };
        if outcome != JobOutcome::Solved.name() || degraded {
            self.fail(format!("{name}: outcome {outcome}, degraded {degraded}"));
            return false;
        }
        match self.reference[index] {
            Some(expected) if expected != cost => {
                self.fail(format!("{name}: winner cost {cost}, expected {expected}"));
                false
            }
            Some(_) => true,
            None => {
                self.reference[index] = Some(cost);
                true
            }
        }
    }

    /// Checks the total winner cost of one full corpus pass against the
    /// pinned fingerprint.
    pub fn pass_total(&mut self, what: &str, total: u64) {
        if let Some(pinned) = self.pinned {
            if total != pinned {
                self.fail(format!(
                    "{what}: total winner cost {total}, pinned {pinned}"
                ));
            }
        }
    }

    /// The expected winner cost of each corpus job, in corpus order.
    pub fn reference(&self) -> &[Option<u64>] {
        &self.reference
    }
}

/// One timed batch pass.
#[derive(Debug)]
pub struct Pass {
    pub wall_s: f64,
    /// The reports, re-sorted into corpus order.
    pub report: BatchReport,
}

/// Runs one pass with the jobs in a seeded order (the engine's results do
/// not depend on it; its scheduling does) and gates every job.
pub fn run_pass(engine: &Engine, jobs: &[JobSpec], rng: &mut SplitMix64, gate: &mut Gate) -> Pass {
    let mut order: Vec<usize> = (0..jobs.len()).collect();
    rng.shuffle(&mut order);
    let ordered: Vec<JobSpec> = order.iter().map(|&i| jobs[i].clone()).collect();
    let start = Instant::now();
    let mut report = engine.solve_batch(&ordered);
    let wall_s = start.elapsed().as_secs_f64();
    // Back into corpus order, so per-job comparisons line up.
    let mut reports: Vec<_> = order
        .into_iter()
        .zip(std::mem::take(&mut report.jobs))
        .collect();
    reports.sort_by_key(|(index, _)| *index);
    report.jobs = reports.into_iter().map(|(_, job)| job).collect();
    let mut all_passed = true;
    for (index, job) in report.jobs.iter().enumerate() {
        let winner = job.winning();
        let outcome = job.outcome.map_or("failed", |o| o.name());
        let degraded = winner.is_some_and(|w| w.degraded);
        all_passed &= gate.job(index, &job.name, outcome, degraded, winner.map(|w| w.cost));
    }
    // A failed job already counts; the total is only meaningful without one.
    if all_passed {
        gate.pass_total("batch pass", report.total_winner_cost());
    }
    Pass { wall_s, report }
}

/// Runs timed passes for `budget` (at least `min_passes`), calling
/// `between` after each pass, outside its timing.
pub fn run_passes(
    engine: &Engine,
    jobs: &[JobSpec],
    rng: &mut SplitMix64,
    gate: &mut Gate,
    budget: Duration,
    min_passes: usize,
    mut between: impl FnMut(),
) -> Vec<Pass> {
    let start = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    while passes.len() < min_passes || fits(start, budget, passes.last().map(|p| p.wall_s)) {
        passes.push(run_pass(engine, jobs, rng, gate));
        between();
    }
    passes
}

/// Whether another pass should start: the budget is not spent yet, and
/// a pass as long as the last one would end at most half a pass late.
pub fn fits(start: Instant, budget: Duration, last_wall_s: Option<f64>) -> bool {
    let half_pass = Duration::from_secs_f64(last_wall_s.unwrap_or(0.0) / 2.0);
    start.elapsed() + half_pass < budget
}
