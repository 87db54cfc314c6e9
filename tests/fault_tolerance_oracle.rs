//! Oracle tests for the engine's fault-tolerance layer: a seeded
//! [`FaultPlan`] must fire completely and deterministically, targeted jobs
//! must come back with structured non-`solved` outcomes and recovered
//! solutions, faulted sessions must be quarantined, untargeted jobs must
//! be byte-identical to a no-fault run at every worker count in both
//! narrow and wide mode with reuse on or off, a faulted job must never
//! leave an entry in the solved-subrelation cache for a later duplicate to
//! be served from, and every early stop of a BREL attempt after its seed
//! (a quota or wall-deadline abort, an injected fault, a cancellation),
//! narrow or wide, must end in its pinned outcome, fault and attempts.

use std::sync::{Arc, Mutex};

use proptest::prelude::*;

use brel_suite::benchdata::random_well_defined_relation;
use brel_suite::engine::{
    BackendKind, CancelToken, Engine, EngineConfig, FaultInjection, FaultKind, FaultPlan,
    FaultPolicy, JobBudget, JobControl, JobOutcome, JobSpec, RelationSpec, Runner, SearchStrategy,
    WideOptions,
};

/// Four distinct random portfolio jobs seeded from one u64 — enough names
/// for a seeded plan to place all three fault kinds and still leave at
/// least one job untouched.
fn seeded_batch(seed: u64) -> Vec<JobSpec> {
    (0..4u64)
        .map(|i| {
            let (_space, relation) = random_well_defined_relation(3, 2, 0.3, seed.wrapping_add(i));
            JobSpec::portfolio(
                format!("rand{i}"),
                RelationSpec::from_relation(&relation).unwrap(),
            )
        })
        .collect()
}

/// Checks one chaos batch against its no-fault reference: every injection
/// fired, targets degraded-but-recovered, clean jobs byte-identical.
fn assert_isolated(
    chaos: &brel_suite::engine::BatchReport,
    clean: &brel_suite::engine::BatchReport,
    targets: &[&str],
) -> Result<(), TestCaseError> {
    for (c, n) in chaos.jobs.iter().zip(clean.jobs.iter()) {
        if targets.contains(&c.name.as_str()) {
            prop_assert!(
                c.outcome.is_some() && c.outcome != Some(JobOutcome::Solved),
                "targeted job {} reported outcome {:?}",
                c.name,
                c.outcome
            );
            // The surviving portfolio attempts (or the degradation ladder)
            // still produced a solution — verified inside the engine.
            prop_assert!(
                c.winner.is_some(),
                "targeted job {} lost its solution",
                c.name
            );
        } else {
            prop_assert_eq!(
                c.to_json(false).render(),
                n.to_json(false).render(),
                "fault leaked onto untargeted job {}",
                c.name
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The isolation oracle, narrow mode: under a seeded fault plan the
    /// timing-free batch output is byte-identical at 1, 2 and 8 workers
    /// with the warm pool on or off, every injection fires, and the jobs
    /// the plan does not target are byte-identical to a no-fault run.
    #[test]
    fn chaos_batches_are_isolated_and_worker_count_invariant(seed in any::<u64>()) {
        let jobs = seeded_batch(seed);
        let names: Vec<&str> = jobs.iter().map(|j| j.name.as_str()).collect();
        let clean = Engine::with_workers(1).solve_batch(&jobs);
        let template = FaultPlan::seeded(seed, &names);
        let targets = template.targets();
        prop_assert_eq!(template.injections().len(), 3);
        let mut reference: Option<(String, String)> = None;
        for workers in [1usize, 2, 8] {
            for reuse in [true, false] {
                let plan = Arc::new(FaultPlan::seeded(seed, &names));
                let chaos = Engine::with_workers(workers)
                    .with_reuse(reuse)
                    .with_fault_plan(plan.clone())
                    .solve_batch(&jobs);
                prop_assert_eq!(plan.num_fired(), plan.injections().len(),
                    "{} of {} injections fired", plan.num_fired(), plan.injections().len());
                prop_assert!(chaos.reuse.quarantines >= 1,
                    "no session quarantined at {} workers, reuse {}", workers, reuse);
                let output = (chaos.to_json(false), chaos.to_csv(false));
                match &reference {
                    Some(r) => prop_assert_eq!(&output, r,
                        "chaos drift at {} workers, reuse {}", workers, reuse),
                    None => reference = Some(output),
                }
                assert_isolated(&chaos, &clean, &targets)?;
            }
        }
    }

    /// The isolation oracle, wide mode: the same contracts hold when the
    /// pool expands each BREL frontier in parallel — a faulted round
    /// degrades the one job instead of hanging the coordinator barrier.
    #[test]
    fn wide_chaos_batches_are_isolated_and_worker_count_invariant(seed in any::<u64>()) {
        let jobs: Vec<JobSpec> = seeded_batch(seed)
            .into_iter()
            .take(3)
            .map(|j| j.with_strategy(SearchStrategy::BestFirst))
            .collect();
        let names: Vec<&str> = jobs.iter().map(|j| j.name.as_str()).collect();
        let wide = WideOptions::default();
        let clean = Engine::with_workers(1).with_wide(wide).solve_batch(&jobs);
        let targets_owned = FaultPlan::seeded(seed, &names);
        let targets = targets_owned.targets();
        let mut reference: Option<String> = None;
        for workers in [1usize, 2, 8] {
            let plan = Arc::new(FaultPlan::seeded(seed, &names));
            let chaos = Engine::with_workers(workers)
                .with_wide(wide)
                .with_fault_plan(plan.clone())
                .solve_batch(&jobs);
            prop_assert_eq!(plan.num_fired(), plan.injections().len());
            prop_assert!(chaos.reuse.quarantines >= 1,
                "no session quarantined in wide mode at {} workers", workers);
            let json = chaos.to_json(false);
            match &reference {
                Some(r) => prop_assert_eq!(&json, r, "wide chaos drift at {} workers", workers),
                None => reference = Some(json),
            }
            assert_isolated(&chaos, &clean, &targets)?;
        }
    }
}

/// Pinned regression: a quota-aborted job never seeds the
/// solved-subrelation cache, so a duplicate of the same relation later in
/// the batch is solved fresh — and byte-identically to a batch where the
/// first copy never faulted.
#[test]
fn quota_aborted_jobs_leave_no_stale_cache_entries() {
    let (_space, relation) = random_well_defined_relation(3, 2, 0.3, 7);
    let spec = RelationSpec::from_relation(&relation).unwrap();
    let jobs = vec![
        JobSpec::portfolio("victim", spec.clone()),
        JobSpec::portfolio("victim_again", spec),
    ];
    let clean = Engine::with_workers(1).solve_batch(&jobs);
    // In the clean batch the duplicate is served wholesale from the cache.
    assert_eq!(clean.reuse.subrel_cache_hits, 1);

    let plan = Arc::new(FaultPlan::new(vec![FaultInjection::new(
        "victim",
        1,
        FaultKind::QuotaTrip,
    )]));
    let chaos = Engine::with_workers(1)
        .with_fault_plan(plan.clone())
        .solve_batch(&jobs);
    assert_eq!(plan.num_fired(), 1);
    assert_ne!(chaos.jobs[0].outcome, Some(JobOutcome::Solved));
    // The faulted job cached nothing: the duplicate cannot hit, and every
    // one of its attempts is a genuine recomputation.
    assert_eq!(chaos.reuse.subrel_cache_hits, 0);
    assert!(chaos.jobs[1]
        .attempts
        .iter()
        .all(|a| !a.reuse.subrel_cache_hit));
    // And the recomputation matches the never-faulted run byte for byte —
    // no poisoned state leaked from the quota abort into the duplicate.
    assert_eq!(
        chaos.jobs[1].to_json(false).render(),
        clean.jobs[1].to_json(false).render()
    );
    assert_eq!(chaos.jobs[1].outcome, Some(JobOutcome::Solved));
}

/// One way a BREL attempt stops after its seed, and what the job report
/// must say about it.
struct AbortCase<'a> {
    name: &'static str,
    job: &'a JobSpec,
    /// `Some` runs the job in wide mode at two workers, `None` narrow at one.
    wide: Option<WideOptions>,
    policy: FaultPolicy,
    /// A fault injected at expansion 1 of the job.
    injection: Option<FaultKind>,
    /// Whether the job's control is cancelled before the run starts.
    cancelled: bool,
    outcome: JobOutcome,
    fault: &'static str,
    /// `(backend, degraded)` of every attempt, in order.
    attempts: &'static [(BackendKind, bool)],
    quarantines: u64,
}

/// Pins how each mode maps every way a BREL attempt stops early: a
/// mid-search live-node quota abort and an already-expired wall deadline,
/// with the degradation ladder on and off, and an injected panic, quota
/// trip and step deadline and a pre-cancelled control, narrow and wide.
/// Every stop comes after the seed: the quick-solver incumbent is streamed
/// before the search stops.
#[test]
fn governed_aborts_after_the_seed_end_the_attempt_one_way() {
    let brel_job = |inputs, outputs| {
        let (_space, relation) = random_well_defined_relation(inputs, outputs, 0.35, 1000);
        JobSpec::single(
            format!("governed{inputs}x{outputs}"),
            RelationSpec::from_relation(&relation).unwrap(),
            BackendKind::Brel,
        )
        .with_strategy(SearchStrategy::Fifo)
        .with_budget(JobBudget {
            max_explored: Some(600),
            fifo_capacity: Some(8192),
            ..JobBudget::default()
        })
    };
    // A search that outgrows a 1000-node quota within its first few dozen
    // expansions, after its seed fits under it.
    let large = brel_job(6, 4);
    // A seed small enough to finish before the kernel's first deadline
    // check (every 1024 allocations), so the expired deadline stops the
    // search, not the seed.
    let small = brel_job(3, 2);
    let wide = Some(WideOptions::default());
    let quota = |fallback| FaultPolicy {
        max_live_nodes: Some(1000),
        fallback,
        ..FaultPolicy::default()
    };
    let expired = |fallback| FaultPolicy {
        deadline_ms: Some(0),
        fallback,
        ..FaultPolicy::default()
    };
    let quota_fault = "live-node quota exceeded";
    let deadline_fault = "deadline exceeded";
    let degraded_brel: &[(BackendKind, bool)] = &[(BackendKind::Brel, true)];
    // An injection or a cancellation under the default policy (ladder on)
    // degrades the job on one BREL attempt: narrow mode recovers from an
    // injected fault on the ladder's BREL rung, wide mode keeps its
    // incumbent. Only an injected fault quarantines a session.
    let stopped = |name, wide, injection, cancelled, fault, quarantines| AbortCase {
        name,
        job: &small,
        wide,
        policy: FaultPolicy::default(),
        injection,
        cancelled,
        outcome: JobOutcome::Degraded,
        fault,
        attempts: degraded_brel,
        quarantines,
    };
    let panic = Some(FaultKind::Panic);
    let trip = Some(FaultKind::QuotaTrip);
    let step = Some(FaultKind::StepDeadline);
    let injected_panic = "panic: injected panic at expansion 1 of job governed3x2";
    let injected_step = "injected step deadline at expansion 1 of job governed3x2";
    let cancelled = "cancelled after 0 expansions";
    let cases = [
        AbortCase {
            name: "narrow quota, ladder on",
            job: &large,
            wide: None,
            policy: quota(true),
            injection: None,
            cancelled: false,
            outcome: JobOutcome::Degraded,
            fault: quota_fault,
            attempts: degraded_brel,
            quarantines: 1,
        },
        AbortCase {
            name: "narrow quota, ladder off",
            job: &large,
            wide: None,
            policy: quota(false),
            injection: None,
            cancelled: false,
            outcome: JobOutcome::QuotaExceeded,
            fault: quota_fault,
            attempts: &[],
            quarantines: 1,
        },
        AbortCase {
            name: "narrow deadline, ladder on",
            job: &small,
            wide: None,
            policy: expired(true),
            injection: None,
            cancelled: false,
            outcome: JobOutcome::Degraded,
            fault: deadline_fault,
            attempts: degraded_brel,
            quarantines: 1,
        },
        AbortCase {
            name: "narrow deadline, ladder off",
            job: &small,
            wide: None,
            policy: expired(false),
            injection: None,
            cancelled: false,
            outcome: JobOutcome::TimedOut,
            fault: deadline_fault,
            attempts: &[],
            quarantines: 1,
        },
        AbortCase {
            name: "wide quota, ladder on",
            job: &large,
            wide,
            policy: quota(true),
            injection: None,
            cancelled: false,
            outcome: JobOutcome::Degraded,
            fault: quota_fault,
            attempts: degraded_brel,
            quarantines: 1,
        },
        AbortCase {
            name: "wide quota, ladder off",
            job: &large,
            wide,
            policy: quota(false),
            injection: None,
            cancelled: false,
            outcome: JobOutcome::Degraded,
            fault: quota_fault,
            attempts: degraded_brel,
            quarantines: 1,
        },
        AbortCase {
            name: "wide deadline, ladder on",
            job: &small,
            wide,
            policy: expired(true),
            injection: None,
            cancelled: false,
            outcome: JobOutcome::Degraded,
            fault: deadline_fault,
            attempts: degraded_brel,
            quarantines: 0,
        },
        AbortCase {
            name: "wide deadline, ladder off",
            job: &small,
            wide,
            policy: expired(false),
            injection: None,
            cancelled: false,
            outcome: JobOutcome::Degraded,
            fault: deadline_fault,
            attempts: degraded_brel,
            quarantines: 0,
        },
        // name, wide, injection, cancelled, fault, quarantines
        stopped(
            "narrow injected panic",
            None,
            panic,
            false,
            injected_panic,
            1,
        ),
        stopped(
            "narrow injected quota trip",
            None,
            trip,
            false,
            quota_fault,
            1,
        ),
        stopped(
            "narrow injected step deadline",
            None,
            step,
            false,
            injected_step,
            0,
        ),
        stopped("narrow cancelled", None, None, true, cancelled, 0),
        stopped("wide injected panic", wide, panic, false, injected_panic, 1),
        stopped(
            "wide injected quota trip",
            wide,
            trip,
            false,
            quota_fault,
            1,
        ),
        stopped(
            "wide injected step deadline",
            wide,
            step,
            false,
            injected_step,
            0,
        ),
        stopped("wide cancelled", wide, None, true, cancelled, 0),
    ];
    for case in cases {
        let config = EngineConfig {
            num_workers: if case.wide.is_some() { 2 } else { 1 },
            wide: case.wide,
            reuse: true,
        };
        let plan = case.injection.map(|kind| {
            let injection = FaultInjection::new(case.job.name.clone(), 1, kind);
            Arc::new(FaultPlan::new(vec![injection]))
        });
        let mut runner = Runner::new(&config, plan.clone());
        let incumbents = Arc::new(Mutex::new(Vec::new()));
        let sink = incumbents.clone();
        let token = CancelToken::new();
        if case.cancelled {
            token.cancel();
        }
        let control = JobControl::new()
            .with_cancel(token)
            .on_incumbent(move |cost, explored| {
                sink.lock().unwrap().push((cost, explored));
            });
        let job = case.job.clone().with_fault(case.policy);
        let report = runner.run(0, &job, Some(&control));
        let name = case.name;
        assert!(
            !incumbents.lock().unwrap().is_empty(),
            "{name}: the abort must come after the seed's incumbent"
        );
        assert_eq!(report.outcome, Some(case.outcome), "{name}");
        assert_eq!(report.fault.as_deref(), Some(case.fault), "{name}");
        assert_eq!(report.winner.is_some(), !case.attempts.is_empty(), "{name}");
        let attempts: Vec<(BackendKind, bool)> = report
            .attempts
            .iter()
            .map(|a| (a.backend, a.degraded))
            .collect();
        assert_eq!(attempts, case.attempts, "{name}");
        assert_eq!(runner.counts().quarantines, case.quarantines, "{name}");
        if let Some(plan) = plan {
            assert_eq!(plan.num_fired(), 1, "{name}");
        }
    }
}
