//! Oracle tests for the engine's fault-tolerance layer: a seeded
//! [`FaultPlan`] must fire completely and deterministically, targeted jobs
//! must come back with structured non-`solved` outcomes and recovered
//! solutions, faulted sessions must be quarantined, untargeted jobs must
//! be byte-identical to a no-fault run at every worker count in both
//! narrow and wide mode with reuse on or off, and a faulted job must
//! never leave an entry in the solved-subrelation cache for a later
//! duplicate to be served from.

use std::sync::Arc;

use proptest::prelude::*;

use brel_suite::benchdata::random_well_defined_relation;
use brel_suite::engine::{
    Engine, FaultInjection, FaultKind, FaultPlan, JobOutcome, JobSpec, RelationSpec,
    SearchStrategy, WideOptions,
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
        let wide = WideOptions { lookahead: 4, ..WideOptions::default() };
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
