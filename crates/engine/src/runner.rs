//! The job runner: every job the engine solves — in a narrow pool, a wide
//! batch or the serving daemon — goes through [`Runner::run`], which races
//! the job's backends and keeps the winner under the job's cost function.
//!
//! Every backend attempt runs inside the engine's panic-isolation boundary
//! ([`crate::fault::catch_fault`]): a panic, a kernel quota abort or a
//! deadline never escapes a job. Faults are classified, transient ones
//! retried on a quarantined-and-rebuilt session (bounded backoff), and
//! when every backend of a job falls away the degradation ladder — a
//! budget-capped best-first BREL probe, then the quick solver — still
//! produces one scored, verified-compatible row, so a batch always
//! returns a structured [`JobOutcome`] per job.

use std::sync::Arc;
use std::time::{Duration, Instant};

use brel_core::SearchStrategy;
use brel_relation::{BooleanRelation, RelationError, RelationSpace};

use crate::backend::{execute_with, ExecContext, SolutionReport};
use crate::control::JobControl;
use crate::fault::{
    catch_fault, catch_governed, FaultClass, FaultInjection, FaultPlan, JobOutcome,
};
use crate::job::{BackendKind, JobBudget, JobSpec};
use crate::pool::EngineConfig;
use crate::reuse::{BatchReuse, ReuseState, ReuseStats, WarmSession};
use crate::wide::{self, WideOptions};

/// The outcome of one job: every backend attempt (in the job's backend
/// order) plus the index of the selected winner.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobReport {
    /// Position of the job in the submitted batch; reports are always
    /// delivered sorted by this id.
    pub job_id: usize,
    /// The job's name.
    pub name: String,
    /// Number of input variables of the relation.
    pub num_inputs: usize,
    /// Number of output variables of the relation.
    pub num_outputs: usize,
    /// One report per backend that completed, in backend order (plus a
    /// trailing degradation-ladder rung when one recovered the job).
    pub attempts: Vec<SolutionReport>,
    /// Index into `attempts` of the cheapest solution (ties broken towards
    /// the earlier backend). `None` iff no backend completed.
    pub winner: Option<usize>,
    /// The structured outcome classification: `Solved` for a clean job,
    /// `Degraded` when a fault or truncation was survived, and the fault's
    /// own outcome (`TimedOut`/`QuotaExceeded`/`Panicked`) when no solution
    /// survived. `None` iff the job failed structurally (see `error`).
    pub outcome: Option<JobOutcome>,
    /// Deterministic description of the first fault or truncation the job
    /// saw, `None` for clean jobs.
    pub fault: Option<String>,
    /// The failure message when no backend completed (e.g. the relation is
    /// not well defined).
    pub error: Option<String>,
}

impl JobReport {
    /// The winning attempt, if any backend completed.
    pub fn winning(&self) -> Option<&SolutionReport> {
        self.winner.map(|i| &self.attempts[i])
    }
}

/// A relation rehydrated into the home session: its space, the relation,
/// and whether the warm path was taken.
type Hydrated = (RelationSpace, BooleanRelation, bool);

/// Runs jobs on sessions it owns and keeps across jobs. Build one per pool
/// worker, per wide batch or per serving worker, never one per job:
///
/// * the *home* [`WarmSession`] hosts the quick and gyocro backends and,
///   in narrow mode, the sequential BREL exploration;
/// * in wide mode the runner also owns one search session per
///   work-stealing worker, and the BREL backend runs the parallel search
///   of [`crate::wide`] over them.
///
/// Apart from wall times and the scheduling-dependent [`ReuseStats`]
/// flags, [`Runner::run`] is a pure function of `(job_id, job)`: a warm
/// session reset is observationally cold, so a long-lived runner reports
/// exactly what a fresh one would.
#[derive(Debug)]
pub struct Runner {
    home: WarmSession,
    wide: Option<WideOptions>,
    /// The work-stealing search's sessions; empty in narrow mode.
    search: Vec<WarmSession>,
    plan: Option<Arc<FaultPlan>>,
    cache: Option<Arc<ReuseState>>,
    cache_hits: u64,
    cache_misses: u64,
}

impl Runner {
    /// A runner for `config`: its sessions stay warm across jobs iff
    /// `config.reuse`, and in wide mode it owns `config.num_workers`
    /// search sessions (at least one). `plan` arms deterministic fault
    /// injections: each fires once, at the Nth BREL expansion of its
    /// target job; jobs the plan does not target are untouched.
    pub fn new(config: &EngineConfig, plan: Option<Arc<FaultPlan>>) -> Runner {
        let session = || {
            if config.reuse {
                WarmSession::new()
            } else {
                WarmSession::cold()
            }
        };
        let search_sessions = if config.wide.is_some() {
            config.num_workers.max(1)
        } else {
            0
        };
        Runner {
            home: session(),
            wide: config.wide,
            search: (0..search_sessions).map(|_| session()).collect(),
            plan,
            cache: None,
            cache_hits: 0,
            cache_misses: 0,
        }
    }

    /// Shares a cross-job solved-subrelation cache with other runners
    /// (`None` leaves the runner uncached). Cache hits are all-or-nothing
    /// per job (see [`crate::reuse`]), so every cached report is the
    /// product of a full clean portfolio run and hits never change the
    /// deterministic output.
    pub(crate) fn set_cache(&mut self, cache: Option<Arc<ReuseState>>) {
        self.cache = cache;
    }

    /// Session and cache counters of every job this runner ran so far.
    pub fn counts(&self) -> BatchReuse {
        let mut counts = BatchReuse {
            subrel_cache_hits: self.cache_hits,
            subrel_cache_misses: self.cache_misses,
            ..BatchReuse::default()
        };
        for session in std::iter::once(&self.home).chain(&self.search) {
            let (warm_reuses, cold_builds, quarantines) = session.counts();
            counts += BatchReuse {
                warm_reuses,
                cold_builds,
                quarantines,
                ..BatchReuse::default()
            };
        }
        counts
    }

    /// Runs every backend of `job` and selects the cheapest solution: cache
    /// lookup, per-backend fault isolation, bounded retries with session
    /// quarantine, and the degradation ladder.
    ///
    /// `control` hooks an interactive caller into the BREL exploration:
    /// cooperative cancellation checked between steps (a cancelled job
    /// truncates to its incumbent and classifies as
    /// [`JobOutcome::Degraded`]) and incumbent streaming through its
    /// callback. With `None`, or an inert control, and no pending fault
    /// injection, the report is byte-identical to any other runner's, so a
    /// serial replay of a served corpus reproduces a batch exactly.
    pub fn run(&mut self, job_id: usize, job: &JobSpec, control: Option<&JobControl>) -> JobReport {
        let plan = self.plan.clone();
        let injections: Vec<&FaultInjection> = plan
            .as_deref()
            .map_or_else(Vec::new, |p| p.for_job(&job.name));
        // The cache key and lookup get their own span, so a trace separates
        // them from the solve and from the job's bookkeeping.
        let lookup_span = brel_obs::span(brel_obs::Category::Session, "subrel_lookup");
        let cache = self.cache.clone().map(|c| (c, job.relation.fingerprint()));
        // A job with pending injections must actually execute so the fault
        // fires; fired injections are inert, so later duplicates hit as usual.
        let pending_injection = injections.iter().any(|i| !i.has_fired());
        if let Some((cache, fingerprint)) = &cache {
            if !pending_injection && !job.backends.is_empty() {
                let lookup_start = Instant::now();
                if let Some(mut attempts) = cache.lookup_job(*fingerprint, job) {
                    self.cache_hits += 1;
                    brel_obs::event(brel_obs::Category::Session, "subrel_cache_hit");
                    let wall = brel_obs::wall_micros(lookup_start);
                    for attempt in &mut attempts {
                        attempt.reuse = ReuseStats {
                            warm_session: false,
                            subrel_cache_hit: true,
                        };
                        attempt.wall_micros = wall;
                    }
                    return finish_job(job_id, job, attempts, None, None, None);
                }
                self.cache_misses += 1;
            }
        }
        drop(lookup_span);
        // The BREL attempt's context, narrow or wide, retries included.
        let brel_ctx = ExecContext {
            deadline: job
                .fault
                .deadline_ms
                .map(|ms| Instant::now() + Duration::from_millis(ms)),
            step_deadline: job.fault.step_deadline,
            injections: &injections,
            control,
        };
        let mut hydrated: Option<Hydrated> = None;
        let mut attempts = Vec::with_capacity(job.backends.len());
        let mut error: Option<String> = None;
        let mut fault: Option<String> = None;
        let mut fault_class: Option<FaultClass> = None;
        for &kind in &job.backends {
            let mut tries = 0u32;
            let result = loop {
                let outcome = self.attempt_once(kind, job, &mut hydrated, &brel_ctx);
                if let AttemptOutcome::Fault(class) = outcome {
                    // The faulted manager may hold arbitrary mid-operation
                    // state: drop our handles into it, then quarantine so the
                    // next rehydrate builds a cold session.
                    hydrated = None;
                    self.quarantine(kind);
                    if class.transient() && tries < job.fault.retries {
                        tries += 1;
                        std::thread::sleep(Duration::from_millis(1u64 << (tries - 1).min(6)));
                        continue;
                    }
                    break AttemptOutcome::Fault(class);
                }
                break outcome;
            };
            match result {
                AttemptOutcome::Done(report, truncation) => {
                    if let Some(desc) = truncation {
                        fault.get_or_insert(desc);
                    }
                    attempts.push(report);
                }
                AttemptOutcome::Error(e) => error = Some(e.to_string()),
                AttemptOutcome::Fault(class) => {
                    fault.get_or_insert_with(|| class.describe());
                    fault_class.get_or_insert(class);
                }
            }
        }
        if fault_class.is_some() && attempts.is_empty() && job.fault.fallback {
            run_ladder(job, &mut self.home, &mut hydrated, &mut attempts);
        }
        // Only pure products of (job spec) enter the cross-job cache: a fault
        // or an injected truncation depends on the fault plan, not the job, so
        // replaying it from the cache would corrupt a later clean duplicate.
        if let Some((cache, fingerprint)) = &cache {
            if fault.is_none() && error.is_none() && injections.is_empty() {
                cache.insert_job(*fingerprint, job, &attempts);
            }
        }
        finish_job(
            job_id,
            job,
            attempts,
            error,
            fault,
            fault_class.map(|class| class.outcome()),
        )
    }

    /// Runs `kind` once inside the panic-isolation boundary. In wide mode
    /// the BREL backend runs the work-stealing search over the search
    /// sessions, governed per expansion; every other attempt runs on the
    /// relation rehydrated (lazily, once per job) into the home session,
    /// with the job's governor armed for the BREL backend. A fault leaves
    /// the session to be quarantined, which rebuilds it.
    fn attempt_once(
        &mut self,
        kind: BackendKind,
        job: &JobSpec,
        hydrated: &mut Option<Hydrated>,
        brel_ctx: &ExecContext<'_>,
    ) -> AttemptOutcome {
        // Fault policies, injections and job controls only target the
        // recursive BREL solve; the quick and gyocro backends are single-pass
        // and fast by design.
        let brel = kind == BackendKind::Brel;
        if let Some(options) = self.wide.filter(|_| brel) {
            let search = &mut self.search;
            let outcome = catch_fault(|| wide::search(job, options, search, brel_ctx));
            return AttemptOutcome::classify(outcome);
        }
        let (space, relation, was_warm) =
            hydrated.get_or_insert_with(|| self.home.rehydrate(&job.relation));
        let (ctx, governor) = if brel {
            (*brel_ctx, job.fault.governor(brel_ctx.deadline))
        } else {
            (ExecContext::default(), None)
        };
        let outcome = catch_governed(space.mgr(), governor, || {
            execute_with(kind, job.cost, &job.budget, job.strategy, relation, &ctx).map(
                |(mut report, truncation)| {
                    report.reuse.warm_session = *was_warm;
                    (report, truncation)
                },
            )
        });
        AttemptOutcome::classify(outcome)
    }

    /// Quarantines the sessions a faulted `kind` attempt ran on. A panic
    /// that escaped the work-stealing search's own per-expansion isolation
    /// leaves every search session suspect.
    fn quarantine(&mut self, kind: BackendKind) {
        if kind == BackendKind::Brel && self.wide.is_some() {
            self.search.iter_mut().for_each(WarmSession::quarantine);
        } else {
            self.home.quarantine();
        }
    }
}

/// One backend attempt, classified. `Done` carries the optional
/// deterministic truncation or degradation description; `Fault` means the
/// session is suspect and must be quarantined by the caller.
enum AttemptOutcome {
    Done(SolutionReport, Option<String>),
    Error(RelationError),
    Fault(FaultClass),
}

impl AttemptOutcome {
    fn classify(
        outcome: Result<Result<(SolutionReport, Option<String>), RelationError>, FaultClass>,
    ) -> AttemptOutcome {
        match outcome {
            Ok(Ok((report, truncation))) => AttemptOutcome::Done(report, truncation),
            Ok(Err(error)) => AttemptOutcome::Error(error),
            Err(class) => AttemptOutcome::Fault(class),
        }
    }
}

/// The degradation ladder: when every backend of a job faulted away, run
/// cheaper replacements on fresh sessions until one yields a scored
/// solution — a budget-capped best-first BREL probe (skipped when the job
/// never asked for BREL), then the quick solver. Rungs run ungoverned and
/// uninjected but still panic-isolated; a rung that faults is quarantined
/// and the next rung tried.
fn run_ladder(
    job: &JobSpec,
    warm: &mut WarmSession,
    hydrated: &mut Option<Hydrated>,
    attempts: &mut Vec<SolutionReport>,
) {
    let capped = JobBudget {
        max_explored: Some(4),
        fifo_capacity: Some(16),
        ..job.budget
    };
    let rungs = [
        (BackendKind::Brel, capped, SearchStrategy::BestFirst),
        (BackendKind::Quick, job.budget, job.strategy),
    ];
    for (kind, budget, strategy) in rungs {
        if kind == BackendKind::Brel && !job.backends.contains(&BackendKind::Brel) {
            continue;
        }
        let session = hydrated.get_or_insert_with(|| warm.rehydrate(&job.relation));
        let was_warm = session.2;
        let relation = &session.1;
        let outcome = catch_fault(|| {
            execute_with(
                kind,
                job.cost,
                &budget,
                strategy,
                relation,
                &ExecContext::default(),
            )
        });
        match outcome {
            Ok(Ok((mut report, _truncation))) => {
                report.degraded = true;
                report.reuse = ReuseStats {
                    warm_session: was_warm,
                    subrel_cache_hit: false,
                };
                brel_obs::event(brel_obs::Category::Engine, "ladder_recovered");
                attempts.push(report);
                return;
            }
            Ok(Err(_)) => {}
            Err(_) => {
                *hydrated = None;
                warm.quarantine();
            }
        }
    }
}

fn finish_job(
    job_id: usize,
    job: &JobSpec,
    attempts: Vec<SolutionReport>,
    error: Option<String>,
    fault: Option<String>,
    fault_outcome: Option<JobOutcome>,
) -> JobReport {
    // `min_by_key` keeps the first of equal minima, so ties deterministically
    // go to the earlier backend in the job's list.
    let winner = attempts
        .iter()
        .enumerate()
        .min_by_key(|(_, a)| a.cost)
        .map(|(i, _)| i);
    let degraded = fault.is_some() || attempts.iter().any(|a| a.degraded);
    let outcome = if winner.is_some() {
        Some(if degraded {
            JobOutcome::Degraded
        } else {
            JobOutcome::Solved
        })
    } else {
        fault_outcome
    };
    JobReport {
        job_id,
        name: job.name.clone(),
        num_inputs: job.relation.num_inputs(),
        num_outputs: job.relation.num_outputs(),
        attempts,
        winner,
        outcome,
        fault,
        error: if winner.is_none() { error } else { None },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultKind, FaultPolicy};
    use crate::job::{BackendKind, JobBudget, RelationSpec};
    use brel_relation::{BooleanRelation, RelationSpace};

    /// A narrow runner whose home session stays warm across jobs.
    fn warm_runner(plan: Option<Arc<FaultPlan>>) -> Runner {
        let config = EngineConfig {
            num_workers: 1,
            wide: None,
            reuse: true,
        };
        Runner::new(&config, plan)
    }

    /// A narrow runner that rebuilds a cold manager for every job.
    fn cold_runner(plan: Option<Arc<FaultPlan>>) -> Runner {
        let config = EngineConfig {
            num_workers: 1,
            wide: None,
            reuse: false,
        };
        Runner::new(&config, plan)
    }

    /// One job on a fresh cold runner: the reference every other shape is
    /// compared against.
    fn reference_run(job_id: usize, job: &JobSpec) -> JobReport {
        cold_runner(None).run(job_id, job, None)
    }

    /// A plan of one injection aimed at `job`.
    fn inject(job: &str, at_expansion: usize, kind: FaultKind) -> Arc<FaultPlan> {
        Arc::new(FaultPlan::new(vec![FaultInjection::new(
            job,
            at_expansion,
            kind,
        )]))
    }

    fn spec(table: &str, inputs: usize, outputs: usize) -> RelationSpec {
        let space = RelationSpace::new(inputs, outputs);
        let r = BooleanRelation::from_table(&space, table).unwrap();
        RelationSpec::from_relation(&r).unwrap()
    }

    #[test]
    fn portfolio_winner_is_the_cheapest_attempt() {
        // Fig. 10: BREL finds the cost-2 optimum, the quick solver does not.
        let job = JobSpec::portfolio(
            "fig10",
            spec("00:{00,11}\n01:{10}\n10:{01,10}\n11:{11}", 2, 2),
        )
        .with_budget(JobBudget {
            max_explored: None,
            fifo_capacity: None,
            ..JobBudget::default()
        });
        let report = reference_run(7, &job);
        assert_eq!(report.job_id, 7);
        assert_eq!(report.attempts.len(), 3);
        let winner = report.winning().expect("well defined");
        assert_eq!(winner.backend, BackendKind::Brel);
        assert_eq!(winner.cost, 2);
        assert!(report.attempts.iter().all(|a| a.cost >= winner.cost));
        assert!(report.error.is_none());
        assert_eq!(report.outcome, Some(JobOutcome::Solved));
        assert!(report.fault.is_none());
        assert!(report.attempts.iter().all(|a| !a.degraded));
    }

    #[test]
    fn ties_go_to_the_earlier_backend() {
        // A functional relation: every backend returns the same unique
        // solution, so the first backend in the list must win.
        let job = JobSpec::portfolio("func", spec("00:{0}\n01:{1}\n10:{1}\n11:{0}", 2, 1));
        let report = reference_run(0, &job);
        assert_eq!(report.winner, Some(0));
        assert_eq!(report.winning().unwrap().backend, BackendKind::Quick);
    }

    #[test]
    fn ill_defined_jobs_report_the_error() {
        let job = JobSpec::portfolio("broken", spec("1 : {1}", 1, 1));
        let report = reference_run(3, &job);
        assert!(report.attempts.is_empty());
        assert_eq!(report.winner, None);
        assert!(report.winning().is_none());
        // Structural failure, not a fault: no outcome classification.
        assert_eq!(report.outcome, None);
        assert!(report.fault.is_none());
        assert!(report
            .error
            .as_deref()
            .unwrap()
            .contains("not well defined"));
    }

    fn fig10() -> RelationSpec {
        spec("00:{00,11}\n01:{10}\n10:{01,10}\n11:{11}", 2, 2)
    }

    /// Masks the scheduling-dependent fields so reports from different
    /// sessions can be compared byte-for-byte.
    fn masked(mut report: JobReport) -> JobReport {
        for attempt in &mut report.attempts {
            attempt.wall_micros = 0;
            attempt.reuse = ReuseStats {
                warm_session: false,
                subrel_cache_hit: false,
            };
        }
        report
    }

    #[test]
    fn injected_panics_degrade_portfolio_jobs() {
        let job = JobSpec::portfolio("fig10", fig10());
        let plan = inject("fig10", 0, FaultKind::Panic);
        let mut runner = cold_runner(Some(plan.clone()));
        let report = runner.run(0, &job, None);
        assert_eq!(plan.num_fired(), 1);
        // The BREL attempt died, but the quick and gyocro rows survived, so
        // the job still has a verified winner.
        assert_eq!(report.attempts.len(), 2);
        assert!(report.winning().is_some());
        assert_eq!(report.outcome, Some(JobOutcome::Degraded));
        assert!(report.fault.as_deref().unwrap().contains("injected panic"));
        assert_eq!(runner.counts().quarantines, 1);
    }

    #[test]
    fn panicked_sessions_never_rehydrate_warm() {
        // A session that saw a panic must be discarded, and the next job on
        // the same runner must be byte-identical to a cold reference run.
        let job = JobSpec::single("boom", fig10(), BackendKind::Brel).with_fault(FaultPolicy {
            fallback: false,
            ..FaultPolicy::default()
        });
        let mut runner = warm_runner(Some(inject("boom", 0, FaultKind::Panic)));
        let report = runner.run(0, &job, None);
        assert!(report.attempts.is_empty());
        assert_eq!(report.outcome, Some(JobOutcome::Panicked));
        assert!(report.fault.as_deref().unwrap().contains("injected panic"));
        assert_eq!(runner.counts().quarantines, 1);

        let clean = JobSpec::single("boom", fig10(), BackendKind::Brel);
        let next = runner.run(1, &clean, None);
        assert!(
            !next.attempts[0].reuse.warm_session,
            "a quarantined session must rebuild cold"
        );
        assert_eq!(masked(next), masked(reference_run(1, &clean)));
    }

    #[test]
    fn transient_faults_retry_on_a_quarantined_session() {
        let job = JobSpec::portfolio("fig10", fig10()).with_fault(FaultPolicy {
            retries: 2,
            ..FaultPolicy::default()
        });
        let plan = inject("fig10", 1, FaultKind::Panic);
        let mut runner = cold_runner(Some(plan.clone()));
        let report = runner.run(4, &job, None);
        assert_eq!(plan.num_fired(), 1);
        // The retry re-runs BREL on a rebuilt session; the injection is
        // already spent, so the second attempt completes exactly.
        assert_eq!(report.attempts.len(), 3);
        assert_eq!(report.outcome, Some(JobOutcome::Solved));
        assert_eq!(report.winning().unwrap().cost, 2);
        assert_eq!(runner.counts().quarantines, 1);
        // The retried attempt ran on a rebuilt manager, so its kernel
        // counters differ from an uninterrupted run — but the solution
        // itself must match the clean reference exactly.
        let reference = reference_run(4, &job);
        assert_eq!(report.winner, reference.winner);
        for (a, b) in report.attempts.iter().zip(&reference.attempts) {
            assert_eq!(
                (a.backend, a.cost, a.cubes, a.literals),
                (b.backend, b.cost, b.cubes, b.literals)
            );
        }
    }

    #[test]
    fn the_ladder_recovers_a_faulted_single_backend_job() {
        let job = JobSpec::single("fig10", fig10(), BackendKind::Brel);
        let plan = inject("fig10", 0, FaultKind::Panic);
        let mut runner = cold_runner(Some(plan.clone()));
        let report = runner.run(0, &job, None);
        assert_eq!(report.outcome, Some(JobOutcome::Degraded));
        assert_eq!(report.attempts.len(), 1, "one ladder rung row");
        let rung = report.winning().expect("ladder recovered a solution");
        assert!(rung.degraded);
        assert_eq!(rung.backend, BackendKind::Brel);
        assert_eq!(runner.counts().quarantines, 1);
    }

    #[test]
    fn quota_policies_abort_and_classify() {
        let job = JobSpec::single("fig10", fig10(), BackendKind::Brel).with_fault(FaultPolicy {
            max_live_nodes: Some(1),
            fallback: false,
            ..FaultPolicy::default()
        });
        let report = reference_run(0, &job);
        assert!(report.attempts.is_empty());
        assert_eq!(report.outcome, Some(JobOutcome::QuotaExceeded));
        assert_eq!(report.fault.as_deref(), Some("live-node quota exceeded"));
    }

    #[test]
    fn quota_aborts_still_degrade_through_the_ladder() {
        let job = JobSpec::single("fig10", fig10(), BackendKind::Brel).with_fault(FaultPolicy {
            max_live_nodes: Some(1),
            ..FaultPolicy::default()
        });
        let mut runner = cold_runner(None);
        let report = runner.run(0, &job, None);
        // The ladder rung runs ungoverned, so the capped best-first probe
        // completes and the job degrades instead of failing outright.
        assert_eq!(report.outcome, Some(JobOutcome::Degraded));
        assert_eq!(report.fault.as_deref(), Some("live-node quota exceeded"));
        assert!(report.winning().unwrap().degraded);
        assert_eq!(runner.counts().quarantines, 1);
    }

    #[test]
    fn step_deadline_truncation_keeps_the_incumbent() {
        let job = JobSpec::single("fig10", fig10(), BackendKind::Brel).with_fault(FaultPolicy {
            step_deadline: Some(1),
            ..FaultPolicy::default()
        });
        let mut runner = cold_runner(None);
        let report = runner.run(0, &job, None);
        assert_eq!(report.outcome, Some(JobOutcome::Degraded));
        assert!(report
            .fault
            .as_deref()
            .unwrap()
            .contains("step deadline expired"));
        let attempt = report.winning().expect("incumbent kept");
        assert!(attempt.degraded);
        assert_eq!(attempt.explored, 1);
        // A truncation is a clean return, not a fault: the session survives.
        assert_eq!(runner.counts().quarantines, 0);
    }

    #[test]
    fn an_inert_control_reduces_to_the_warm_path() {
        let job = JobSpec::portfolio("fig10", fig10());
        let mut runner = cold_runner(None);
        let controlled = runner.run(0, &job, Some(&JobControl::new()));
        assert_eq!(masked(controlled), masked(reference_run(0, &job)));
    }

    #[test]
    fn a_pre_cancelled_job_degrades_to_the_quick_seed() {
        use brel_core::CancelToken;
        let token = CancelToken::new();
        token.cancel();
        let control = JobControl::new().with_cancel(token);
        let job = JobSpec::single("fig10", fig10(), BackendKind::Brel);
        let mut runner = cold_runner(None);
        let report = runner.run(0, &job, Some(&control));
        // Cancellation is a truncation, not a fault: the job degrades to
        // the quick-solver seed and the session survives unquarantined.
        assert_eq!(report.outcome, Some(JobOutcome::Degraded));
        assert!(report
            .fault
            .as_deref()
            .unwrap()
            .contains("cancelled after 0 expansions"));
        let attempt = report.winning().expect("seed incumbent kept");
        assert!(attempt.degraded);
        assert_eq!(attempt.explored, 0);
        assert_eq!(runner.counts().quarantines, 0);
    }

    #[test]
    fn incumbent_streaming_reports_the_seed_then_improvements() {
        use std::sync::{Arc, Mutex};
        let seen: Arc<Mutex<Vec<(u64, usize)>>> = Arc::new(Mutex::new(Vec::new()));
        let sink = seen.clone();
        let control = JobControl::new()
            .on_incumbent(move |cost, explored| sink.lock().unwrap().push((cost, explored)));
        let job = JobSpec::single("fig10", fig10(), BackendKind::Brel).with_budget(JobBudget {
            max_explored: None,
            fifo_capacity: None,
            ..JobBudget::default()
        });
        let mut runner = cold_runner(None);
        let report = runner.run(0, &job, Some(&control));
        assert_eq!(report.outcome, Some(JobOutcome::Solved));
        let stream = seen.lock().unwrap();
        assert!(stream.len() >= 2, "seed plus the cost-2 improvement");
        assert_eq!(stream[0].1, 0, "the seed arrives before any expansion");
        // Costs never regress along the stream, and the last one is the
        // winner's cost.
        for pair in stream.windows(2) {
            assert!(pair[1].0 <= pair[0].0);
        }
        assert_eq!(stream.last().unwrap().0, report.winning().unwrap().cost);
    }

    #[test]
    fn faulted_jobs_never_enter_the_subrel_cache() {
        let cache = Arc::new(ReuseState::default());
        let job = JobSpec::portfolio("fig10", fig10());
        let mut faulting = warm_runner(Some(inject("fig10", 0, FaultKind::Panic)));
        faulting.set_cache(Some(cache.clone()));
        let faulted = faulting.run(0, &job, None);
        assert_eq!(faulted.outcome, Some(JobOutcome::Degraded));
        // The partial result must not be replayed for the clean duplicate:
        // the rerun must miss the cache and produce a full Solved report.
        let mut runner = warm_runner(None);
        runner.set_cache(Some(cache));
        let clean = runner.run(1, &job, None);
        assert_eq!(clean.outcome, Some(JobOutcome::Solved));
        assert_eq!(clean.attempts.len(), 3);
        assert!(clean.attempts.iter().all(|a| !a.reuse.subrel_cache_hit));
        // ...and the clean run does populate the cache as usual.
        let hit = runner.run(2, &job, None);
        assert!(hit.attempts.iter().all(|a| a.reuse.subrel_cache_hit));
        assert_eq!(hit.outcome, Some(JobOutcome::Solved));
        let counts = runner.counts();
        assert_eq!(
            (counts.subrel_cache_hits, counts.subrel_cache_misses),
            (1, 1)
        );
    }
}
