//! Wide mode: asynchronous work-stealing search inside one BREL solve.
//!
//! The batch engine's unit of parallelism is the *job* — useless when one
//! relation dominates the batch. Wide mode parallelizes *inside* one BREL
//! solve instead: it is the sequential [`Explorer`] with more workers.
//! Every worker loops over three phases — **commit** ready expansions
//! through the explorer's [`Explorer::pop`]/[`Explorer::commit`] in the
//! order it pops them, **claim** a pending subproblem near the head of its
//! frontier, and **execute** the subproblem's [`expand`] speculatively
//! against a snapshot of the incumbent cost. There is no coordinator
//! thread and no round: whichever worker holds the state lock drives the
//! commit sequence forward, and idle workers steal work instead of waiting
//! for the slowest expansion.
//!
//! Determinism is by construction, not by synchronization:
//!
//! * the explorer numbers every subproblem with a `seq` at admission, so
//!   its pop order is a pure function of the search, never of thread
//!   timing;
//! * results only take effect at commit, in pop order, through the very
//!   transition a sequential run uses — the incumbent, the counters,
//!   dominance pruning and child admission cannot diverge from it;
//! * a speculative expansion runs against the incumbent cost read when
//!   its subproblem was claimed. The incumbent only improves at commit, so
//!   the snapshot is never below the bound the sequential run would have
//!   used: a stale snapshot can only add split halves that the commit
//!   discards, never change the result.
//!
//! What stays here is the parallel machinery: the per-`seq` speculation
//! table, claiming with owner affinity, structural import on a steal, and
//! fault containment. A subproblem expanded by the worker that created it
//! reuses that worker's warm [`brel_bdd::BddSession`] directly (the split
//! halves stay live BDD handles — the kernel is `Send`). Only subproblems
//! *stolen* across workers ship, lazily at steal time, by structural DAG
//! copy from the owner's handle into the stealer's session
//! ([`brel_bdd::BddSession::import`] — O(shared nodes), no row
//! enumeration).
//!
//! Lock order: code holding the state lock may take a BDD session's lock
//! (to clone, size or drop a handle), never the reverse.

use std::sync::{Condvar, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use brel_core::{expand, CostFn, Expansion, Explorer, IsfMinimizer, QuickSolver, Subproblem};
use brel_relation::{BooleanRelation, MultiOutputFunction, RelationError, RelationSpace};

use crate::backend::{brel_config, score, ExecContext, SolutionReport, Stop};
use crate::fault::{catch_governed, splitmix64, FaultClass};
use crate::job::{BackendKind, JobSpec};
use crate::reuse::{ReuseStats, WarmSession};

/// How far past the frontier head a worker may look for claimable work.
/// A larger window keeps more workers busy on speculative expansions; a
/// smaller one wastes less work when the incumbent improves quickly.
const LOOKAHEAD: usize = 8;

/// Wide-mode configuration.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WideOptions {
    /// Optional seeded artificial delay before each expansion, used by
    /// the steal-order-invariance tests to scramble thread timing without
    /// touching results.
    pub stagger: Option<StaggerPlan>,
}

/// A seeded per-expansion delay plan: worker `w` sleeps a SplitMix64-
/// derived number of microseconds (below `max_micros`) before expanding
/// subproblem `seq`. Changes scheduling, must never change results —
/// that is exactly what the invariance tests assert.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StaggerPlan {
    /// Seed mixed with the worker index and subproblem sequence number.
    pub seed: u64,
    /// Exclusive upper bound on the injected delay, in microseconds.
    pub max_micros: u64,
}

/// Where one subproblem's speculative expansion stands. A subproblem that
/// [`Explorer::pop`] drops as dominated keeps its speculation until the
/// search ends — which is at once: best-first pops the lowest priority, so
/// once the head is dominated every pending subproblem is, and `pop`
/// drains the frontier.
enum Speculation {
    /// Waiting to be claimed.
    Pending,
    /// Claimed by a worker; its expansion is in flight.
    Running,
    /// Expanded; waiting for the commit sequence to reach it.
    Ready(Box<Expansion>),
    /// Handed to [`Explorer::commit`].
    Committed,
}

/// The speculation of one admitted subproblem; `entries[seq]`.
struct Entry {
    /// The worker whose session hosts the subproblem's relation; from its
    /// claim on, the worker expanding it, whose session will host the
    /// split halves.
    owner: usize,
    state: Speculation,
}

/// Everything the commit sequence owns, guarded by one mutex.
struct CommitState {
    /// The search itself: frontier, incumbent and counters.
    explorer: Explorer,
    /// The subproblem popped for the next commit, until its expansion is
    /// ready.
    head: Option<Subproblem>,
    entries: Vec<Entry>,
    done: bool,
    degraded: bool,
    fault: Option<String>,
    error: Option<RelationError>,
    /// Worker whose session must be quarantined after the join (injected
    /// faults are synthesized at commit, outside any worker's unwind, so
    /// the quarantine is applied by the orchestrator).
    quarantine_worker: Option<usize>,
}

impl CommitState {
    /// Closes the search on the incumbent as a degraded result. The first
    /// fault described is the one reported.
    fn degrade(&mut self, describe: impl FnOnce() -> String) {
        self.degraded = true;
        self.fault.get_or_insert_with(describe);
        self.done = true;
    }

    /// Wide mode's mapping of a [`Stop`]: a finish closes the search, and
    /// anything else degrades on the incumbent. An injected fault stands
    /// for a fault inside an expansion, so it also quarantines a session —
    /// worker 0's, at every worker count — as narrow mode quarantines the
    /// session an unwind leaves. The wall deadline interrupted no kernel
    /// operation and quarantines nothing.
    fn stop(&mut self, stop: Stop) {
        match stop {
            Stop::Finished => self.done = true,
            Stop::Truncated(why) => self.degrade(|| why),
            Stop::Injected(payload) => {
                self.degrade(|| FaultClass::from_panic(payload).describe());
                self.quarantine_worker.get_or_insert(0);
            }
            Stop::Deadline => self.degrade(|| FaultClass::Deadline.describe()),
        }
    }
}

/// The shared search: commit state and a wakeup channel for idle workers.
struct Shared {
    state: Mutex<CommitState>,
    work_ready: Condvar,
}

/// Immutable per-run context threaded to every worker: what belongs to
/// wide mode, plus the BREL attempt's own context.
struct RunContext<'a> {
    job: &'a JobSpec,
    options: WideOptions,
    exec: &'a ExecContext<'a>,
}

/// A claimed subproblem, ready to execute outside the lock. `relation` is
/// a clone of the frontier's handle; on a steal it lives in the old
/// owner's session, and the stealer imports it into its own session and
/// drops the clone — all outside the state lock.
struct Claimed {
    seq: usize,
    depth: usize,
    priority: u64,
    relation: BooleanRelation,
    /// The incumbent cost when the subproblem was claimed.
    snapshot: u64,
    stolen: bool,
}

/// Drives the commit sequence as far as it can go under the attempt's
/// per-step policy — the stop checks before each index, then pop and
/// commit in pop order, exactly as the narrow loop steps. Returns with the
/// popped head still in flight (go speculate) or with `done` set.
fn commit_ready(state: &mut CommitState, ctx: &RunContext<'_>) {
    while !state.done {
        if let Some(stop) = ctx.exec.check(state.explorer.explored()) {
            return state.stop(stop);
        }
        if state.head.is_none() {
            match state.explorer.pop() {
                Ok(subproblem) => state.head = Some(subproblem),
                Err(outcome) => {
                    let stop = ctx.exec.settle(&state.explorer, outcome);
                    return state.stop(stop.expect("`pop` fails only with a stop outcome"));
                }
            }
        }
        let seq = state.head.as_ref().expect("popped above").seq as usize;
        let entry = &mut state.entries[seq];
        let expansion = match std::mem::replace(&mut entry.state, Speculation::Committed) {
            Speculation::Ready(expansion) => expansion,
            in_flight => {
                entry.state = in_flight;
                return;
            }
        };
        let owner = entry.owner;
        let head = state.head.take().expect("popped above");
        let outcome = state.explorer.commit(head, *expansion);
        // A commit explores: settling it only streams an improvement.
        let settled = ctx.exec.settle(&state.explorer, outcome);
        debug_assert!(settled.is_none());
        // Admitted split halves live in the expanding worker's session.
        let admitted = state.explorer.admitted() as usize;
        state.entries.resize_with(admitted, || Entry {
            owner,
            state: Speculation::Pending,
        });
    }
}

/// Claims a `Pending`, not dominated subproblem within [`LOOKAHEAD`] of the
/// frontier head, in pop order — with owner affinity: a worker first looks
/// for a subproblem *it* created (whose BDDs sit live in its own warm
/// session), and only when it owns nothing claimable does it steal the
/// head-most claimable entry. Affinity changes which worker expands what,
/// never what is expanded: commits still apply in pop order regardless of
/// who computed them.
fn claim_work(state: &mut CommitState, w: usize, ctx: &RunContext<'_>) -> Option<Claimed> {
    let explorer = &state.explorer;
    let budget_left = ctx
        .job
        .budget
        .max_explored
        .map_or(usize::MAX, |max| max.saturating_sub(explorer.explored()))
        .max(1);
    let limit = LOOKAHEAD.min(budget_left);
    let window: Vec<&Subproblem> = state
        .head
        .iter()
        .chain(explorer.pending())
        .take(limit)
        .collect();
    for steal_pass in [false, true] {
        for subproblem in &window {
            let seq = subproblem.seq as usize;
            let entry = &mut state.entries[seq];
            // A dominated subproblem will be dropped at its pop; not worth
            // expanding.
            if !matches!(entry.state, Speculation::Pending) || explorer.is_dominated(subproblem) {
                continue;
            }
            let own = entry.owner == w;
            if own == steal_pass {
                continue;
            }
            entry.owner = w;
            entry.state = Speculation::Running;
            return Some(Claimed {
                seq,
                depth: subproblem.depth,
                priority: subproblem.priority,
                relation: subproblem.relation.clone(),
                snapshot: explorer.best_cost(),
                stolen: !own,
            });
        }
    }
    None
}

/// Runs one speculative expansion in this worker's space, under the job's
/// governor and inside the panic-isolation boundary. Pure in
/// `(relation, prune_bound)`.
fn execute_expand(
    space: &RelationSpace,
    relation: &BooleanRelation,
    cost_fn: &CostFn,
    prune_bound: u64,
    ctx: &RunContext<'_>,
) -> Result<Result<Expansion, RelationError>, FaultClass> {
    let minimizer = IsfMinimizer::default();
    let quick = QuickSolver::new().with_minimizer(minimizer);
    catch_governed(
        space.mgr(),
        ctx.job.fault.governor(ctx.exec.deadline),
        || expand(&minimizer, cost_fn, &quick, relation, prune_bound),
    )
}

/// One worker's commit / claim / execute loop. Returns when the search
/// is done (complete, degraded or errored).
fn worker_loop(w: usize, space: RelationSpace, shared: &Shared, ctx: &RunContext<'_>) {
    let _drive = brel_obs::span(brel_obs::Category::Engine, "drive");
    let cost_fn = ctx.job.cost.to_cost_fn();
    loop {
        let claimed = {
            let mut state = shared.state.lock().expect("wide state lock");
            let explored = state.explorer.explored();
            commit_ready(&mut state, ctx);
            if state.done {
                drop(state);
                shared.work_ready.notify_all();
                return;
            }
            if state.explorer.explored() != explored {
                shared.work_ready.notify_all();
            }
            let claimed = claim_work(&mut state, w, ctx);
            if claimed.is_none() {
                // Nothing claimable: the head is in flight elsewhere.
                // Wait (bounded — wakeups also come from commits by
                // other workers) and re-drive the commit sequence.
                let _idle = brel_obs::span(brel_obs::Category::Engine, "idle");
                let _wait = shared
                    .work_ready
                    .wait_timeout(state, Duration::from_millis(25))
                    .expect("wide state lock");
            }
            claimed
        };
        let Some(task) = claimed else {
            continue;
        };

        if let Some(plan) = ctx.options.stagger {
            if plan.max_micros > 0 {
                let mut state = plan.seed ^ ((w as u64) << 32) ^ task.seq as u64;
                let delay = splitmix64(&mut state) % plan.max_micros;
                thread::sleep(Duration::from_micros(delay));
            }
        }

        let mut relation = task.relation;
        if task.stolen {
            brel_obs::event(brel_obs::Category::Engine, "steal");
            // A steal ships the subproblem by structural BDD import from
            // the old owner's live handle — O(nodes), no row enumeration.
            // The two session mutexes are leaf locks taken one at a time,
            // so concurrent steals in any direction cannot deadlock.
            let built = {
                let _span = brel_obs::span(brel_obs::Category::Engine, "steal_build");
                BooleanRelation::import_into(&space, &relation)
            };
            match built {
                Ok(rebuilt) => relation = rebuilt,
                Err(error) => {
                    let mut state = shared.state.lock().expect("wide state lock");
                    state.error.get_or_insert(error);
                    state.done = true;
                    drop(state);
                    shared.work_ready.notify_all();
                    return;
                }
            }
        }

        let outcome = {
            let _span = brel_obs::span!(
                brel_obs::Category::Engine,
                "expand",
                "depth" => task.depth,
                "priority" => task.priority,
            );
            execute_expand(&space, &relation, &cost_fn, task.snapshot, ctx)
        };
        drop(relation);

        let fatal = {
            let mut state = shared.state.lock().expect("wide state lock");
            match outcome {
                Ok(Ok(expansion)) => {
                    state.entries[task.seq].state = Speculation::Ready(Box::new(expansion));
                    false
                }
                Ok(Err(error)) => {
                    state.error.get_or_insert(error);
                    state.done = true;
                    true
                }
                Err(class) => {
                    // A governor abort or a genuine panic ended the
                    // expansion, possibly mid-operation: quarantine this
                    // worker's session and close the search on the
                    // incumbent.
                    state.degrade(|| class.describe());
                    state.quarantine_worker.get_or_insert(w);
                    true
                }
            }
        };
        shared.work_ready.notify_all();
        if fatal {
            return;
        }
    }
}

/// Solves the BREL backend of `job` with work-stealing parallel search
/// over `sessions` (one worker per session, at least one) and scores its
/// winner through the sequential backend's own compatibility check and
/// cost ([`score`]). This is the BREL branch of [`crate::Runner::run`] in
/// wide mode.
///
/// The report equals a narrow run's on every field but the wall time and the `cache`/`gc` kernel
/// counters (scoped to the seed phase here), at every worker count: both
/// modes commit through the same [`Explorer`] transition in the same pop
/// order.
///
/// It honors the BREL attempt's context `exec` through the per-step
/// policy the narrow loop runs too ([`ExecContext::check`],
/// [`ExecContext::settle`]), and the job's node quota. A faulted,
/// cancelled or truncated search *degrades*: the commit sequence closes,
/// and the report keeps the best incumbent (wide mode always holds one
/// from the quick seed) with `degraded` set and the first fault described
/// in the second tuple slot.
///
/// # Errors
///
/// Returns [`RelationError::NotWellDefined`] if the relation has no
/// compatible function; other structural errors fail the job too.
pub(crate) fn search(
    job: &JobSpec,
    options: WideOptions,
    sessions: &mut [WarmSession],
    exec: &ExecContext<'_>,
) -> Result<(SolutionReport, Option<String>), RelationError> {
    let start = Instant::now();
    let solve_span = brel_obs::span(brel_obs::Category::Engine, "wide_solve");

    // Seed on the first worker's session: the root rehydrates exactly
    // once per solve.
    let seed_span = brel_obs::span(brel_obs::Category::Engine, "seed");
    let (space0, root, seed_warm) = sessions[0].rehydrate(&job.relation);
    let before = space0.mgr().stats_snapshot();
    let config = brel_config(job.cost, &job.budget, job.strategy, exec.step_deadline);
    let explorer = Explorer::new(config, &root)?;
    let after = space0.mgr().stats_snapshot();
    // Kernel counters are scoped to the deterministic seed phase: the
    // speculative phase's counters depend on steal order, and the report
    // must stay byte-identical across worker counts.
    let cache = after.cache.delta_since(&before.cache);
    let gc = after.gc.delta_since(&before.gc);
    drop(seed_span);
    exec.notify(&explorer);

    let shared = Shared {
        state: Mutex::new(CommitState {
            explorer,
            head: None,
            entries: vec![Entry {
                owner: 0,
                state: Speculation::Pending,
            }],
            done: false,
            degraded: false,
            fault: None,
            error: None,
            quarantine_worker: None,
        }),
        work_ready: Condvar::new(),
    };
    let ctx = RunContext { job, options, exec };

    let num_inputs = job.relation.num_inputs();
    let num_outputs = job.relation.num_outputs();
    let num_vars = num_inputs + num_outputs;

    let (first, rest) = sessions.split_at_mut(1);
    {
        // Everything between spawning the stealing workers and joining
        // them, so the coordinator track's wide_solve time decomposes
        // into seed + parallel with no unattributed gap.
        let _parallel = brel_obs::span(brel_obs::Category::Engine, "parallel");
        thread::scope(|scope| {
            for (offset, warm) in rest.iter_mut().enumerate() {
                let w = offset + 1;
                let shared = &shared;
                let ctx = &ctx;
                scope.spawn(move || {
                    let _track = brel_obs::enabled(brel_obs::Category::Engine)
                        .then(|| brel_obs::set_track(&format!("wide-worker-{w}")));
                    let (session, _warm) = warm.session(num_vars);
                    let space = RelationSpace::from_session(session, num_inputs, num_outputs);
                    worker_loop(w, space, shared, ctx);
                });
            }
            worker_loop(0, space0, &shared, &ctx);
        });
    }
    let _ = first;

    let state = shared.state.into_inner().expect(
        "wide workers cannot poison the state: faults are caught at the expansion boundary",
    );
    if let Some(w) = state.quarantine_worker {
        sessions[w].quarantine();
    }
    if let Some(error) = state.error {
        return Err(error);
    }
    drop(solve_span);

    // The incumbent may come from a stolen expansion, whose function lives
    // in the stealer's session: import it next to the root before the
    // compatibility check every attempt gets.
    let space = root.space();
    let outputs = state.explorer.best().outputs();
    let best = MultiOutputFunction::new(
        space,
        outputs.iter().map(|f| space.mgr().import(f)).collect(),
    )?;
    let (cost, cubes, literals) = score(BackendKind::Brel, job.cost, &root, &best);
    let stats = state.explorer.stats();
    Ok((
        SolutionReport {
            backend: BackendKind::Brel,
            cost,
            cubes,
            literals,
            explored: stats.explored,
            splits: stats.splits,
            frontier_peak: stats.frontier_peak,
            strategy: Some(job.strategy),
            cache,
            gc,
            reuse: ReuseStats {
                warm_session: seed_warm,
                subrel_cache_hit: false,
            },
            degraded: state.degraded,
            wall_micros: brel_obs::wall_micros(start),
        },
        state.fault,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::control::JobControl;
    use crate::fault::{FaultInjection, FaultKind};
    use crate::job::{JobBudget, RelationSpec};
    use brel_core::{CancelToken, SearchStrategy};
    use brel_relation::{BooleanRelation, RelationSpace};
    use std::sync::{Arc, Mutex as StdMutex};

    fn fig10_job() -> JobSpec {
        let space = RelationSpace::with_names(&["a", "b"], &["x", "y"]);
        let r = BooleanRelation::from_table(&space, "00:{00,11}\n01:{10}\n10:{01,10}\n11:{11}")
            .unwrap();
        JobSpec::single(
            "fig10",
            RelationSpec::from_relation(&r).unwrap(),
            BackendKind::Brel,
        )
        .with_budget(JobBudget {
            max_explored: None,
            fifo_capacity: None,
            ..JobBudget::default()
        })
    }

    fn solve(
        job: &JobSpec,
        workers: usize,
        options: WideOptions,
    ) -> Result<SolutionReport, RelationError> {
        let mut sessions: Vec<WarmSession> = (0..workers).map(|_| WarmSession::new()).collect();
        search(job, options, &mut sessions, &ExecContext::default()).map(|(report, _)| report)
    }

    #[test]
    fn wide_mode_finds_the_fig10_optimum_under_every_strategy() {
        for strategy in SearchStrategy::all() {
            let job = fig10_job().with_strategy(strategy);
            let report = solve(&job, 2, WideOptions::default()).unwrap();
            assert_eq!(report.backend, BackendKind::Brel);
            assert_eq!(report.cost, 2, "{strategy} missed the optimum");
            assert_eq!(report.strategy, Some(strategy));
            assert!(report.explored >= 1);
            assert!(report.frontier_peak >= 1);
        }
    }

    #[test]
    fn wide_mode_is_worker_count_invariant() {
        for strategy in SearchStrategy::all() {
            let job = fig10_job().with_strategy(strategy);
            let options = WideOptions::default();
            let mask = |mut r: SolutionReport| {
                r.wall_micros = 0;
                r
            };
            let one = mask(solve(&job, 1, options).unwrap());
            let two = mask(solve(&job, 2, options).unwrap());
            let eight = mask(solve(&job, 8, options).unwrap());
            assert_eq!(one, two, "{strategy}: 1 vs 2 workers");
            assert_eq!(one, eight, "{strategy}: 1 vs 8 workers");
        }
    }

    #[test]
    fn stolen_winners_pass_the_compatibility_check() {
        // Every subproblem is stealable, so the second worker expands much
        // of the search, so the winner often lives in its session. Scoring
        // imports the winner next to the root before the compatibility
        // assert, and the result matches the one-worker solve. The
        // relation is a seeded 4×3 one whose search improves its incumbent
        // several times within the budget: every input gets one drawn
        // output vertex, and each other one with probability 3/8.
        let mut state = 15;
        let mut words = Vec::new();
        for x in 0..1u32 << 4 {
            let first = (splitmix64(&mut state) % 8) as u32;
            for y in 0..8u32 {
                if y == first || splitmix64(&mut state) % 8 < 3 {
                    words.push(x << 3 | y);
                }
            }
        }
        let job = JobSpec::single(
            "flexible",
            RelationSpec::from_packed(4, 3, words).unwrap(),
            BackendKind::Brel,
        )
        .with_budget(JobBudget {
            max_explored: Some(64),
            fifo_capacity: None,
            ..JobBudget::default()
        });
        let mask = |mut r: SolutionReport| {
            r.wall_micros = 0;
            r
        };
        let baseline = mask(solve(&job, 1, WideOptions::default()).unwrap());
        assert!(baseline.explored > 8, "the search must branch");
        for seed in 0..4u64 {
            let options = WideOptions {
                stagger: Some(StaggerPlan {
                    seed,
                    max_micros: 200,
                }),
            };
            assert_eq!(
                mask(solve(&job, 2, options).unwrap()),
                baseline,
                "seed {seed}"
            );
        }
    }

    #[test]
    fn staggered_schedules_are_steal_order_invariant() {
        // A seeded artificial delay scrambles claim/commit interleaving;
        // the committed outcome must not move.
        let job = fig10_job().with_strategy(SearchStrategy::BestFirst);
        let mask = |mut r: SolutionReport| {
            r.wall_micros = 0;
            r
        };
        let baseline = mask(solve(&job, 1, WideOptions::default()).unwrap());
        for workers in [1usize, 2, 8] {
            for seed in [1u64, 0xBEEF] {
                let options = WideOptions {
                    stagger: Some(StaggerPlan {
                        seed,
                        max_micros: 300,
                    }),
                };
                let staggered = mask(solve(&job, workers, options).unwrap());
                assert_eq!(
                    baseline, staggered,
                    "stagger seed {seed} at {workers} workers changed the result"
                );
            }
        }
    }

    #[test]
    fn wide_mode_respects_the_exploration_budget() {
        let job = fig10_job().with_budget(JobBudget {
            max_explored: Some(1),
            ..JobBudget::default()
        });
        let report = solve(&job, 4, WideOptions::default()).unwrap();
        assert_eq!(report.explored, 1, "commits must stop at the budget");
        assert!(report.cost >= 2);
    }

    #[test]
    fn wide_mode_streams_monotone_incumbents() {
        let seen: Arc<StdMutex<Vec<(u64, usize)>>> = Arc::new(StdMutex::new(Vec::new()));
        let sink = seen.clone();
        let control = JobControl::new().on_incumbent(move |cost, explored| {
            sink.lock().unwrap().push((cost, explored));
        });
        let job = fig10_job().with_strategy(SearchStrategy::BestFirst);
        let mut sessions: Vec<WarmSession> = (0..4).map(|_| WarmSession::new()).collect();
        let exec = ExecContext {
            control: Some(&control),
            ..ExecContext::default()
        };
        let (report, fault) = search(&job, WideOptions::default(), &mut sessions, &exec).unwrap();
        drop(control);
        assert_eq!(fault, None);
        let stream = seen.lock().unwrap();
        assert!(!stream.is_empty(), "the quick seed must be streamed");
        assert_eq!(stream[0].1, 0, "the seed arrives before any expansion");
        for pair in stream.windows(2) {
            assert!(
                pair[1].0 < pair[0].0,
                "incumbents must strictly improve: {stream:?}"
            );
        }
        assert_eq!(stream.last().unwrap().0, report.cost);
    }

    #[test]
    fn cancellation_degrades_on_the_incumbent() {
        let token = CancelToken::new();
        let control = JobControl::new().with_cancel(token.clone());
        token.cancel();
        let job = fig10_job();
        let mut sessions: Vec<WarmSession> = (0..2).map(|_| WarmSession::new()).collect();
        let exec = ExecContext {
            control: Some(&control),
            ..ExecContext::default()
        };
        let (report, fault) = search(&job, WideOptions::default(), &mut sessions, &exec).unwrap();
        assert!(report.degraded);
        assert_eq!(report.explored, 0);
        assert!(fault
            .as_deref()
            .unwrap()
            .contains("cancelled after 0 expansions"));
        assert!(report.cost >= 2, "quick-seed incumbent survives");
    }

    #[test]
    fn a_wide_worker_panic_degrades_instead_of_hanging() {
        // Satellite regression: an injected worker death must surface as
        // a degraded report, never a hang. The injection is synthesized
        // at commit, so it fires at the same expansion index — and
        // quarantines one session — at every worker count.
        let job = fig10_job();
        let injection = FaultInjection::new("fig10", 0, FaultKind::Panic);
        let mut sessions: Vec<WarmSession> = (0..2).map(|_| WarmSession::new()).collect();
        let exec = ExecContext {
            injections: &[&injection],
            ..ExecContext::default()
        };
        let (report, fault) = search(&job, WideOptions::default(), &mut sessions, &exec)
            .expect("a fault degrades, it does not error");
        assert!(injection.has_fired());
        assert!(report.degraded);
        assert!(fault.as_deref().unwrap().contains("injected panic"));
        assert_eq!(report.explored, 0, "the fault fired before any commit");
        assert!(report.cost >= 2, "quick-seed incumbent survives");
        let quarantines: u64 = sessions.iter().map(|s| s.counts().2).sum();
        assert_eq!(quarantines, 1, "the faulted worker discards its session");
    }

    #[test]
    fn wide_faults_are_worker_count_invariant() {
        let job = fig10_job();
        let mask = |mut r: SolutionReport| {
            r.wall_micros = 0;
            r
        };
        let mut runs = Vec::new();
        for workers in [1usize, 2, 8] {
            // Injections are armed-once, so each run gets a fresh one.
            let injection = FaultInjection::new("fig10", 1, FaultKind::QuotaTrip);
            let mut sessions: Vec<WarmSession> = (0..workers).map(|_| WarmSession::new()).collect();
            let exec = ExecContext {
                injections: &[&injection],
                ..ExecContext::default()
            };
            let (report, fault) =
                search(&job, WideOptions::default(), &mut sessions, &exec).unwrap();
            runs.push((mask(report), fault));
        }
        assert_eq!(runs[0], runs[1], "1 vs 2 workers");
        assert_eq!(runs[0], runs[2], "1 vs 8 workers");
        assert!(runs[0].0.degraded);
        assert!(runs[0].1.as_deref().unwrap().contains("quota"));
    }

    #[test]
    fn injected_step_deadlines_truncate_deterministically() {
        let job = fig10_job();
        let injection = FaultInjection::new("fig10", 1, FaultKind::StepDeadline);
        let mut sessions: Vec<WarmSession> = (0..2).map(|_| WarmSession::new()).collect();
        let exec = ExecContext {
            injections: &[&injection],
            ..ExecContext::default()
        };
        let (report, fault) = search(&job, WideOptions::default(), &mut sessions, &exec).unwrap();
        assert!(report.degraded);
        assert_eq!(
            report.explored, 1,
            "the commit sequence must stop exactly at the injected mark"
        );
        assert!(fault.as_deref().unwrap().contains("injected step deadline"));
        // Truncation is a clean return: no session is quarantined.
        assert_eq!(sessions.iter().map(|s| s.counts().2).sum::<u64>(), 0);
    }

    #[test]
    fn wide_mode_rejects_ill_defined_relations() {
        let space = RelationSpace::new(1, 1);
        let r = BooleanRelation::from_table(&space, "1 : {1}").unwrap();
        let job = JobSpec::single(
            "broken",
            RelationSpec::from_relation(&r).unwrap(),
            BackendKind::Brel,
        );
        assert!(matches!(
            solve(&job, 2, WideOptions::default()),
            Err(RelationError::NotWellDefined)
        ));
    }
}
