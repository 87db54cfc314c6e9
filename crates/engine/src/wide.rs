//! Wide mode: asynchronous work-stealing search inside one BREL solve.
//!
//! The batch engine's unit of parallelism is the *job* — useless when one
//! relation dominates the batch. Wide mode parallelizes *inside* one BREL
//! solve instead, without the round barrier of its first incarnation:
//! every worker loops over three phases — **commit** ready expansions in
//! the exact order the sequential explorer would pop them, **claim** a
//! pending subproblem near the head of the frontier, and **execute** it
//! speculatively against a snapshot of the shared incumbent bound. There
//! is no coordinator thread and no round: whichever worker holds the
//! state lock drives the commit sequence forward, and idle workers steal
//! work instead of waiting for the slowest expansion of a round.
//!
//! Determinism is by construction, not by synchronization:
//!
//! * every subproblem carries a stable sequence number assigned at commit
//!   time (children are numbered in split order by the committing
//!   worker), so the frontier's pop order is a pure function of the
//!   search, never of thread timing;
//! * results only take effect at commit, in pop order — the incumbent,
//!   the explored/split counters, dominance pruning and child admission
//!   all advance exactly as a sequential run would;
//! * a speculative expansion runs against a *snapshot* of the shared
//!   bound taken when the subproblem was claimed. The bound only tightens
//!   at commit, so the snapshot is always ≥ the bound the sequential run
//!   would have used: a stale snapshot can only make the worker compute a
//!   superset of the needed result (children that commit then discards),
//!   never a different one.
//!
//! The rows-rehydration tax is gone from the hot path: a subproblem
//! expanded by the worker that created it reuses that worker's warm
//! [`brel_bdd::BddSession`] directly (the split halves are kept as live
//! BDD handles — the kernel is `Send`). Only subproblems *stolen* across
//! workers ship, lazily at steal time, by structural DAG copy from the
//! owner's live handle into the stealer's session
//! ([`brel_bdd::BddSession::import`] — O(shared nodes), no row
//! enumeration); subproblems below [`WideOptions::steal_threshold`]
//! input/output pairs are never stolen at all — they stay pinned to
//! their owner, where re-expanding is cheaper than shipping.

use std::collections::BTreeSet;
use std::sync::{Condvar, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use brel_bdd::ResourceGovernor;
use brel_core::{
    expand, CostFn, CostFunction, IsfMinimizer, QuickSolver, SearchStrategy, SharedBound,
};
use brel_relation::{BooleanRelation, RelationError, RelationSpace};

use crate::backend::SolutionReport;
use crate::control::JobControl;
use crate::fault::{catch_fault, splitmix64, FaultClass, FaultInjection, FaultKind, InjectedPanic};
use crate::job::{BackendKind, JobSpec};
use crate::reuse::{ReuseStats, WarmSession};

/// Wide-mode configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WideOptions {
    /// How far past the frontier head a worker may look for claimable
    /// work (clamped to at least 1). A larger lookahead keeps more
    /// workers busy on speculative expansions; a smaller one wastes less
    /// work when the incumbent improves quickly.
    pub lookahead: usize,
    /// Minimum size — in input/output pairs ([`BooleanRelation::num_pairs`])
    /// — for a subproblem to be stealable by other workers. Subproblems
    /// below the threshold stay pinned to the worker that created them
    /// (whose warm session already holds their BDD handles); at or above
    /// it, a stealer copies the owner's handle into its own session by
    /// structural DAG import ([`brel_bdd::BddSession::import`]).
    pub steal_threshold: usize,
    /// Optional seeded artificial delay before each expansion, used by
    /// the steal-order-invariance tests to scramble thread timing without
    /// touching results.
    pub stagger: Option<StaggerPlan>,
}

impl Default for WideOptions {
    fn default() -> Self {
        WideOptions {
            lookahead: 8,
            steal_threshold: 4,
            stagger: None,
        }
    }
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

/// The incumbent's scored metrics (the function itself is re-derivable;
/// reports only carry numbers).
#[derive(Debug, Clone, Copy)]
struct Incumbent {
    cost: u64,
    cubes: usize,
    literals: usize,
}

/// The committed-form result of one expansion: everything `apply` needs,
/// with the candidate/quick functions already scored down to numbers.
/// Cover statistics re-run ISOP, so they are only present when the
/// commit can actually consume them: the bound at commit is never above
/// the claim-time snapshot, so a cost at or above the snapshot can never
/// improve the incumbent and its cover is never scored.
struct ReadyExpansion {
    candidate_cost: u64,
    compatible: bool,
    /// `(cubes, literals)` of the candidate, iff it can still improve.
    cover: Option<(usize, usize)>,
    /// `(cost, cubes, literals)` of the quick solution, iff it can still
    /// improve.
    quick: Option<(u64, usize, usize)>,
    /// Split halves as live handles in the expanding worker's session.
    children: Option<[BooleanRelation; 2]>,
}

/// Lifecycle of one frontier entry.
enum EntryState {
    /// Waiting to be claimed.
    Pending,
    /// Claimed by a worker; its expansion is in flight.
    Running,
    /// Expanded; waiting for the commit sequence to reach it.
    Ready(Box<ReadyExpansion>),
    /// Dominance-dropped at commit before (or while) expanding.
    Discarded,
}

/// One subproblem. Indexed by its sequence number: `entries[seq]` is the
/// subproblem whose deterministic identity is `seq` (the root is 0;
/// children get `entries.len()` at the moment their parent commits,
/// negative half first).
struct Entry {
    depth: usize,
    lower_bound: u64,
    /// The worker whose session hosts `relation` (meaningful while
    /// `relation` is `Some`).
    owner: usize,
    /// Live handle in the owner's session; taken when claimed.
    relation: Option<BooleanRelation>,
    state: EntryState,
}

/// Everything the commit sequence owns, guarded by one mutex.
struct CommitState {
    entries: Vec<Entry>,
    /// Uncommitted subproblems as `(bound-or-zero, seq)` keys: best-first
    /// keys on `(lower_bound, seq)`, FIFO/DFS on `(0, seq)` — FIFO pops
    /// the minimum seq, DFS the maximum (the global sequence counter is
    /// monotone, so the max key *is* the top of the sequential stack).
    frontier: BTreeSet<(u64, u64)>,
    best: Incumbent,
    explored: usize,
    splits: usize,
    frontier_peak: usize,
    done: bool,
    degraded: bool,
    fault: Option<String>,
    error: Option<RelationError>,
    /// Worker whose session must be quarantined after the join (injected
    /// faults are synthesized at commit, outside any worker's unwind, so
    /// the quarantine is applied by the orchestrator).
    quarantine_worker: Option<usize>,
}

/// The shared search: commit state, a wakeup channel for idle workers,
/// and the cross-worker incumbent bound (readable without the lock).
struct Shared {
    state: Mutex<CommitState>,
    work_ready: Condvar,
    bound: SharedBound,
}

/// Immutable per-run context threaded to every worker.
struct RunContext<'a> {
    job: &'a JobSpec,
    options: WideOptions,
    deadline: Option<Instant>,
    control: Option<&'a JobControl>,
    injections: &'a [&'a FaultInjection],
}

/// A claimed subproblem, ready to execute outside the lock. On a steal,
/// `relation` is the *old owner's* handle: the stealer serializes it to
/// rows, rebuilds in its own session, and drops it — all outside the
/// state lock.
struct Claimed {
    seq: usize,
    depth: usize,
    lower_bound: u64,
    relation: BooleanRelation,
    /// Shared-bound snapshot taken at claim time.
    snapshot: u64,
    stolen: bool,
}

fn frontier_key(strategy: SearchStrategy, lower_bound: u64, seq: u64) -> (u64, u64) {
    match strategy {
        SearchStrategy::BestFirst => (lower_bound, seq),
        SearchStrategy::Fifo | SearchStrategy::Dfs => (0, seq),
    }
}

/// The key the sequential strategy would pop next.
fn head_key(frontier: &BTreeSet<(u64, u64)>, strategy: SearchStrategy) -> Option<(u64, u64)> {
    match strategy {
        SearchStrategy::Dfs => frontier.iter().next_back().copied(),
        SearchStrategy::Fifo | SearchStrategy::BestFirst => frontier.iter().next().copied(),
    }
}

/// Records a new incumbent (only ever called at commit, under the state
/// lock, so improvements are serialized and strictly decreasing).
fn improve(
    state: &mut CommitState,
    shared: &Shared,
    ctx: &RunContext<'_>,
    cost: u64,
    cubes: usize,
    literals: usize,
) {
    state.best = Incumbent {
        cost,
        cubes,
        literals,
    };
    shared.bound.improve(cost);
    brel_obs::event_with(brel_obs::Category::Engine, "bound_improve", "cost", cost);
    if let Some(control) = ctx.control {
        control.notify_incumbent(cost, state.explored);
    }
}

fn discard_entry(entry: &mut Entry, garbage: &mut Vec<BooleanRelation>) {
    if let Some(handle) = entry.relation.take() {
        garbage.push(handle);
    }
    if let EntryState::Ready(ready) = std::mem::replace(&mut entry.state, EntryState::Discarded) {
        if let Some(children) = ready.children {
            garbage.extend(children);
        }
    }
}

/// Applies one committed expansion: counters, incumbent, dominance prune
/// and child admission — the exact transition the sequential explorer
/// performs on a popped subproblem.
fn apply_expansion(
    state: &mut CommitState,
    shared: &Shared,
    ctx: &RunContext<'_>,
    seq: usize,
    ready: ReadyExpansion,
    garbage: &mut Vec<BooleanRelation>,
) {
    let depth = state.entries[seq].depth;
    let owner = state.entries[seq].owner;
    state.explored += 1;
    if ready.candidate_cost >= state.best.cost {
        // Cost-pruned. The expansion may still carry children (it ran
        // against a stale-but-larger bound snapshot); they are exactly
        // the work the sequential run would never have produced.
        if let Some(children) = ready.children {
            garbage.extend(children);
        }
        return;
    }
    if ready.compatible {
        let (cubes, literals) = ready
            .cover
            .expect("cover stats exist for any cost below the claim snapshot");
        improve(state, shared, ctx, ready.candidate_cost, cubes, literals);
        return;
    }
    if let Some((q_cost, q_cubes, q_literals)) = ready.quick {
        if q_cost < state.best.cost {
            improve(state, shared, ctx, q_cost, q_cubes, q_literals);
        }
    }
    let children = ready
        .children
        .expect("expand splits every unpruned incompatible candidate");
    state.splits += 1;
    for child in children {
        if let Some(cap) = ctx.job.budget.fifo_capacity {
            if state.frontier.len() >= cap {
                garbage.push(child);
                continue;
            }
        }
        let child_seq = state.entries.len() as u64;
        state.entries.push(Entry {
            depth: depth + 1,
            lower_bound: ready.candidate_cost,
            owner,
            relation: Some(child),
            state: EntryState::Pending,
        });
        state.frontier.insert(frontier_key(
            ctx.job.strategy,
            ready.candidate_cost,
            child_seq,
        ));
        state.frontier_peak = state.frontier_peak.max(state.frontier.len());
    }
}

/// Drives the commit sequence as far as it can go: fires injections and
/// budget/deadline/cancel checks at each expansion index (mirroring the
/// sequential engine's per-step checks), then commits the frontier head
/// while it is `Ready`. Returns with the head `Pending`/`Running` (go
/// speculate) or with `done` set.
fn commit_ready(
    state: &mut CommitState,
    shared: &Shared,
    ctx: &RunContext<'_>,
    garbage: &mut Vec<BooleanRelation>,
) {
    while !state.done {
        // Injections fire by equality with the cumulative expansion
        // count — the commit sequence passes through every index, so a
        // plan aimed anywhere in the search fires deterministically,
        // before the next commit and regardless of worker count.
        for injection in ctx.injections {
            if injection.at_expansion() != state.explored {
                continue;
            }
            match injection.kind() {
                FaultKind::Panic => {
                    if injection.fire() {
                        state.degraded = true;
                        let described = FaultClass::Panicked(
                            InjectedPanic {
                                job: injection.job().to_string(),
                                at_expansion: injection.at_expansion(),
                            }
                            .describe(),
                        )
                        .describe();
                        state.fault.get_or_insert(described);
                        state.quarantine_worker.get_or_insert(0);
                        state.done = true;
                    }
                }
                FaultKind::QuotaTrip => {
                    if injection.fire() {
                        state.degraded = true;
                        state
                            .fault
                            .get_or_insert_with(|| FaultClass::Quota.describe());
                        state.quarantine_worker.get_or_insert(0);
                        state.done = true;
                    }
                }
                FaultKind::StepDeadline => {
                    if injection.fire() {
                        state.degraded = true;
                        state.fault.get_or_insert_with(|| {
                            format!(
                                "injected step deadline at expansion {} of job {}",
                                injection.at_expansion(),
                                injection.job()
                            )
                        });
                        state.done = true;
                    }
                }
            }
        }
        if state.done {
            return;
        }
        if state.frontier.is_empty() {
            state.done = true;
            return;
        }
        if let Some(limit) = ctx.job.fault.step_deadline {
            if state.explored >= limit {
                state.degraded = true;
                let explored = state.explored;
                state.fault.get_or_insert_with(|| {
                    format!("step deadline expired after {explored} expansions")
                });
                state.done = true;
                return;
            }
        }
        // The wall deadline is timing-dependent by nature; determinism
        // gates use step deadlines instead.
        if let Some(at) = ctx.deadline {
            if Instant::now() >= at {
                state.degraded = true;
                state
                    .fault
                    .get_or_insert_with(|| FaultClass::Deadline.describe());
                state.done = true;
                return;
            }
        }
        if let Some(control) = ctx.control {
            if control.is_cancelled() {
                state.degraded = true;
                let explored = state.explored;
                state
                    .fault
                    .get_or_insert_with(|| format!("cancelled after {explored} expansions"));
                state.done = true;
                return;
            }
        }
        if let Some(max) = ctx.job.budget.max_explored {
            if state.explored >= max {
                // Budget exhausted: stop expanding, keep the incumbent.
                state.done = true;
                return;
            }
        }
        let key = head_key(&state.frontier, ctx.job.strategy).expect("frontier checked non-empty");
        let seq = key.1 as usize;
        if ctx.job.strategy == SearchStrategy::BestFirst
            && state.entries[seq].lower_bound >= state.best.cost
        {
            // Dominance: dropped unexplored, like the sequential
            // best-first frontier — even if a speculative expansion is
            // in flight or finished (its result is simply discarded).
            state.frontier.remove(&key);
            discard_entry(&mut state.entries[seq], garbage);
            continue;
        }
        match state.entries[seq].state {
            EntryState::Ready(_) => {
                state.frontier.remove(&key);
                let prior = std::mem::replace(&mut state.entries[seq].state, EntryState::Discarded);
                let EntryState::Ready(ready) = prior else {
                    unreachable!("matched Ready above");
                };
                apply_expansion(state, shared, ctx, seq, *ready, garbage);
            }
            EntryState::Pending | EntryState::Running => return,
            EntryState::Discarded => {
                // Defensive: a discarded entry never stays in the
                // frontier, but dropping it again is harmless.
                state.frontier.remove(&key);
            }
        }
    }
}

/// Claims a `Pending`, not best-first-dominated entry within `lookahead`
/// of the frontier head, in pop order — with owner affinity: a worker
/// first looks for a subproblem *it* created (whose BDDs sit live in its
/// own warm session), and only when it owns nothing claimable does it
/// steal, taking the head-most entry of at least `steal_threshold` pairs.
/// Affinity changes which worker expands what, never what is expanded:
/// commits still apply in pop order regardless of who computed them.
fn claim_work(
    state: &mut CommitState,
    w: usize,
    ctx: &RunContext<'_>,
    bound: &SharedBound,
) -> Option<Claimed> {
    let budget_left = ctx
        .job
        .budget
        .max_explored
        .map_or(usize::MAX, |max| max.saturating_sub(state.explored))
        .max(1);
    let limit = ctx.options.lookahead.max(1).min(budget_left);
    let keys: Vec<(u64, u64)> = match ctx.job.strategy {
        SearchStrategy::Dfs => state.frontier.iter().rev().take(limit).copied().collect(),
        SearchStrategy::Fifo | SearchStrategy::BestFirst => {
            state.frontier.iter().take(limit).copied().collect()
        }
    };
    for steal_pass in [false, true] {
        for &key in &keys {
            let seq = key.1 as usize;
            let best_cost = state.best.cost;
            let entry = &mut state.entries[seq];
            if !matches!(entry.state, EntryState::Pending) {
                continue;
            }
            if ctx.job.strategy == SearchStrategy::BestFirst && entry.lower_bound >= best_cost {
                // Will be dominance-dropped at commit; not worth expanding.
                continue;
            }
            let Some(handle) = entry.relation.as_ref() else {
                continue;
            };
            let own = entry.owner == w;
            if own == steal_pass {
                continue;
            }
            if !own {
                // Steal gate: `num_pairs` is one sat-count over the
                // handle's characteristic BDD — cheap enough to ask under
                // the state lock (the owner's session mutex is a leaf
                // lock, never held across a wait on the state lock). The
                // serialization itself happens outside, in the stealer's
                // loop.
                if handle.num_pairs() < ctx.options.steal_threshold as u128 {
                    continue;
                }
            }
            let relation = entry.relation.take().expect("checked Some above");
            entry.owner = w;
            entry.state = EntryState::Running;
            return Some(Claimed {
                seq,
                depth: entry.depth,
                lower_bound: entry.lower_bound,
                relation,
                snapshot: bound.get(),
                stolen: !own,
            });
        }
    }
    None
}

/// Runs one speculative expansion in this worker's space and packages
/// the result for commit. Pure in `(relation, prune_bound)`.
fn execute_expand(
    space: &RelationSpace,
    relation: &BooleanRelation,
    cost_fn: &CostFn,
    prune_bound: u64,
    ctx: &RunContext<'_>,
) -> Result<ReadyExpansion, RelationError> {
    let governed = ctx.job.fault.max_live_nodes.is_some() || ctx.deadline.is_some();
    if governed {
        let mut governor = ResourceGovernor::new();
        if let Some(max) = ctx.job.fault.max_live_nodes {
            governor = governor.with_max_live_nodes(max);
        }
        if let Some(at) = ctx.deadline {
            governor = governor.with_deadline_at(at);
        }
        space.mgr().set_governor(governor);
    }
    let minimizer = IsfMinimizer::default();
    let quick = QuickSolver::new().with_minimizer(minimizer);
    let result = expand(&minimizer, cost_fn, &quick, relation, prune_bound);
    if governed {
        space.mgr().clear_governor();
    }
    let expansion = result?;
    // Scoring a cover re-runs ISOP per output — compute it at most once
    // per function, and only when the result can still beat the bound
    // (the bound at commit is never above `prune_bound`, the claim-time
    // snapshot, so anything at or above it is dead on arrival).
    let cover = (expansion.compatible && expansion.candidate_cost < prune_bound).then(|| {
        let cover = expansion.candidate.to_multicover();
        (cover.num_cubes(), cover.num_literals())
    });
    let quick = expansion
        .quick
        .as_ref()
        .filter(|(_, q_cost)| *q_cost < prune_bound)
        .map(|(q, q_cost)| {
            let cover = q.to_multicover();
            (*q_cost, cover.num_cubes(), cover.num_literals())
        });
    Ok(ReadyExpansion {
        candidate_cost: expansion.candidate_cost,
        compatible: expansion.compatible,
        cover,
        quick,
        children: expansion
            .split
            .map(|split| [split.negative, split.positive]),
    })
}

/// One worker's commit / claim / execute loop. Returns when the search
/// is done (complete, degraded or errored).
fn worker_loop(w: usize, space: RelationSpace, shared: &Shared, ctx: &RunContext<'_>) {
    let _drive = brel_obs::span(brel_obs::Category::Engine, "drive");
    let cost_fn = ctx.job.cost.to_cost_fn();
    loop {
        let mut garbage: Vec<BooleanRelation> = Vec::new();
        let mut claimed = None;
        let mut finished = false;
        {
            let mut guard = shared.state.lock().expect("wide state lock");
            let entries_before = guard.entries.len();
            commit_ready(&mut guard, shared, ctx, &mut garbage);
            let committed = guard.entries.len() != entries_before;
            if guard.done {
                finished = true;
            } else {
                claimed = claim_work(&mut guard, w, ctx, &shared.bound);
                if claimed.is_none() {
                    // Nothing claimable: the head is in flight elsewhere.
                    // Wait (bounded — wakeups also come from commits by
                    // other workers) and re-drive the commit sequence.
                    let _idle = brel_obs::span(brel_obs::Category::Engine, "idle");
                    let (guard, _timeout) = shared
                        .work_ready
                        .wait_timeout(guard, Duration::from_millis(25))
                        .expect("wide state lock");
                    drop(guard);
                }
            }
            if committed {
                shared.work_ready.notify_all();
            }
        }
        // BDD handles freed outside the lock: a drop locks the owning
        // session, which must never nest inside the state lock.
        drop(garbage);
        if finished {
            shared.work_ready.notify_all();
            return;
        }
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
                    let mut guard = shared.state.lock().expect("wide state lock");
                    guard.error.get_or_insert(error);
                    guard.done = true;
                    drop(guard);
                    shared.work_ready.notify_all();
                    return;
                }
            }
        }

        let outcome = catch_fault(|| {
            let _span = brel_obs::span!(
                brel_obs::Category::Engine,
                "expand",
                "depth" => task.depth,
                "bound" => task.lower_bound,
            );
            execute_expand(&space, &relation, &cost_fn, task.snapshot, ctx)
        });

        let mut garbage: Vec<BooleanRelation> = Vec::new();
        let mut fatal = false;
        {
            let mut guard = shared.state.lock().expect("wide state lock");
            match outcome {
                Ok(Ok(ready)) => {
                    let entry = &mut guard.entries[task.seq];
                    if matches!(entry.state, EntryState::Discarded) {
                        // Dominance-dropped while in flight: wasted work
                        // by design, never wrong work.
                        if let Some(children) = ready.children {
                            garbage.extend(children);
                        }
                    } else {
                        entry.state = EntryState::Ready(Box::new(ready));
                    }
                }
                Ok(Err(RelationError::ResourceExhausted(err))) => {
                    // A genuine governor abort: the session may be
                    // mid-operation — degrade the search on the incumbent
                    // and flag this worker's session for quarantine.
                    guard.degraded = true;
                    guard
                        .fault
                        .get_or_insert_with(|| FaultClass::from_resource(&err).describe());
                    guard.quarantine_worker.get_or_insert(w);
                    guard.done = true;
                    fatal = true;
                }
                Ok(Err(error)) => {
                    guard.error.get_or_insert(error);
                    guard.done = true;
                    fatal = true;
                }
                Err(class) => {
                    // A genuine panic escaped the expansion: contain it
                    // like the round-mode worker did — quarantine and
                    // close the search on the incumbent.
                    guard.degraded = true;
                    guard.fault.get_or_insert_with(|| class.describe());
                    guard.quarantine_worker.get_or_insert(w);
                    guard.done = true;
                    fatal = true;
                }
            }
        }
        drop(garbage);
        shared.work_ready.notify_all();
        if fatal {
            return;
        }
    }
}

/// Solves the BREL backend of `job` with work-stealing parallel search
/// over `sessions` (one worker per session, at least one) and scores it
/// into the same [`SolutionReport`] shape as the sequential backend. This
/// is the BREL branch of [`crate::Runner::run`] in wide mode.
/// Deterministic across worker counts (not across modes: wide commits in
/// strategy pop order over its own frontier, so `explored`/`splits` may
/// differ from a narrow run with the same spec).
///
/// It honors the job's [`crate::fault::FaultPolicy`] (the job's wall
/// `deadline`, node quota, step deadline), cooperative cancellation and
/// incumbent streaming through `control`, and the deterministic injection
/// slice. A faulted, cancelled or truncated search *degrades*: the commit
/// sequence closes, and the report keeps the best incumbent (wide mode
/// always holds one from the quick seed) with `degraded` set and the first
/// fault described in the second tuple slot.
///
/// Symmetry pruning is not available in wide mode (the symmetry cache is
/// per-session); jobs run as if `use_symmetry` were off, which is the
/// engine default.
///
/// # Errors
///
/// Returns [`RelationError::NotWellDefined`] if the relation has no
/// compatible function; other structural errors fail the job too.
pub(crate) fn search(
    job: &JobSpec,
    options: WideOptions,
    sessions: &mut [WarmSession],
    deadline: Option<Instant>,
    control: Option<&JobControl>,
    injections: &[&FaultInjection],
) -> Result<(SolutionReport, Option<String>), RelationError> {
    let start = Instant::now();
    let solve_span = brel_obs::span(brel_obs::Category::Engine, "wide_solve");

    // Seed on the first worker's session: the root rehydrates exactly
    // once per solve (auto-reorder pinned off — a warm session's reorder
    // timing would otherwise depend on what it computed before, which
    // steal order must never influence).
    let seed_span = brel_obs::span(brel_obs::Category::Engine, "seed");
    let (space0, root, seed_warm) = sessions[0].rehydrate_stable(&job.relation);
    if !root.is_well_defined() {
        return Err(RelationError::NotWellDefined);
    }
    space0.mgr().reset_peak_live_nodes();
    let before = space0.mgr().stats_snapshot();
    let cost_fn = job.cost.to_cost_fn();
    let seed = QuickSolver::new()
        .with_minimizer(IsfMinimizer::default())
        .solve(&root)?;
    let best = Incumbent {
        cost: cost_fn.cost(&seed),
        cubes: seed.num_cubes(),
        literals: seed.num_literals(),
    };
    let after = space0.mgr().stats_snapshot();
    // Kernel counters are scoped to the deterministic seed phase: the
    // speculative phase's counters depend on steal order, and the report
    // must stay byte-identical across worker counts.
    let cache = after.cache.delta_since(&before.cache);
    let gc = after.gc.delta_since(&before.gc);
    drop(seed);
    drop(seed_span);
    if let Some(control) = control {
        control.notify_incumbent(best.cost, 0);
    }

    let bound = SharedBound::new();
    bound.improve(best.cost);
    let shared = Shared {
        state: Mutex::new(CommitState {
            entries: vec![Entry {
                depth: 0,
                lower_bound: 0,
                owner: 0,
                relation: Some(root),
                state: EntryState::Pending,
            }],
            frontier: BTreeSet::from([frontier_key(job.strategy, 0, 0)]),
            best,
            explored: 0,
            splits: 0,
            frontier_peak: 1,
            done: false,
            degraded: false,
            fault: None,
            error: None,
            quarantine_worker: None,
        }),
        work_ready: Condvar::new(),
        bound,
    };
    let ctx = RunContext {
        job,
        options,
        deadline,
        control,
        injections,
    };

    let num_inputs = job.relation.num_inputs();
    let num_outputs = job.relation.num_outputs();
    let num_vars = num_inputs + num_outputs;
    let pairs: usize = job
        .relation
        .rows()
        .iter()
        .map(|(_, outs)| outs.len().max(1))
        .sum();
    let expected_nodes = pairs.saturating_mul(num_vars);

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
                    let (session, _warm) = warm.prepare(num_vars, expected_nodes);
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
    Ok((
        SolutionReport {
            backend: BackendKind::Brel,
            cost: state.best.cost,
            cubes: state.best.cubes,
            literals: state.best.literals,
            explored: state.explored,
            splits: state.splits,
            frontier_peak: state.frontier_peak,
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
    use crate::job::{JobBudget, RelationSpec};
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
        search(job, options, &mut sessions, None, None, &[]).map(|(report, _)| report)
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
            let options = WideOptions {
                lookahead: 3,
                ..WideOptions::default()
            };
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
    fn steal_thresholds_never_change_results() {
        // The threshold decides *where* a subproblem may run, never what
        // it computes: everything-stealable and nothing-stealable must
        // produce the same report at any worker count.
        for strategy in SearchStrategy::all() {
            let job = fig10_job().with_strategy(strategy);
            let mask = |mut r: SolutionReport| {
                r.wall_micros = 0;
                r
            };
            let reports: Vec<SolutionReport> = [0usize, 2, usize::MAX]
                .into_iter()
                .map(|steal_threshold| {
                    let options = WideOptions {
                        steal_threshold,
                        ..WideOptions::default()
                    };
                    mask(solve(&job, 4, options).unwrap())
                })
                .collect();
            assert_eq!(reports[0], reports[1], "{strategy}: threshold 0 vs 2");
            assert_eq!(reports[0], reports[2], "{strategy}: stealable vs pinned");
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
                    ..WideOptions::default()
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
        let options = WideOptions {
            lookahead: 8,
            ..WideOptions::default()
        };
        let report = solve(&job, 4, options).unwrap();
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
        let (report, fault) = search(
            &job,
            WideOptions::default(),
            &mut sessions,
            None,
            Some(&control),
            &[],
        )
        .unwrap();
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
        let control = JobControl::new();
        control.cancel_token().cancel();
        let job = fig10_job();
        let mut sessions: Vec<WarmSession> = (0..2).map(|_| WarmSession::new()).collect();
        let (report, fault) = search(
            &job,
            WideOptions::default(),
            &mut sessions,
            None,
            Some(&control),
            &[],
        )
        .unwrap();
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
        let (report, fault) = search(
            &job,
            WideOptions::default(),
            &mut sessions,
            None,
            None,
            &[&injection],
        )
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
            let options = WideOptions {
                lookahead: 3,
                ..WideOptions::default()
            };
            let (report, fault) =
                search(&job, options, &mut sessions, None, None, &[&injection]).unwrap();
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
        let (report, fault) = search(
            &job,
            WideOptions::default(),
            &mut sessions,
            None,
            None,
            &[&injection],
        )
        .unwrap();
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
