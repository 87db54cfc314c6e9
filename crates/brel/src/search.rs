//! The strategy-driven search core of the BREL solver.
//!
//! The paper's recursive paradigm (Section 7) explores a semilattice of
//! subrelations: each explored node minimizes the MISF over-approximation,
//! prunes or accepts the candidate, and otherwise splits the subrelation in
//! two. *How* the pending subproblems are ordered is a policy, not part of
//! the semantics — this module factors that policy out:
//!
//! * a [`Subproblem`] is one pending node: a subrelation, its depth, the
//!   `priority` inherited from its parent's MISF-minimized candidate cost
//!   (a heuristic, not a bound: the heuristic ISF minimizer can return a
//!   costlier candidate for a relation with more flexibility than for one
//!   of its subrelations, so a subtree can hold solutions cheaper than its
//!   parent's candidate) and its admission number `seq`;
//! * one frontier stores the pending subproblems, ordered by
//!   `(priority-or-0, seq)`: [`SearchStrategy::Fifo`] pops the lowest
//!   `seq` (the paper's partial-BFS order and the default — batch
//!   fingerprints are unchanged), [`SearchStrategy::Dfs`] the highest (it
//!   dives on the most recently split half), and
//!   [`SearchStrategy::BestFirst`] the lowest `(priority, seq)`, dropping
//!   popped nodes whose priority no longer beats the incumbent. Because
//!   the priority is not a bound, that dominance drop — like the cost
//!   pruning of §7.3 — is inadmissible: it can discard a subtree holding a
//!   better solution, so no strategy is exact;
//! * an [`Explorer`] owns the incumbent, statistics and frontier. Its
//!   transition is [`Explorer::pop`] (the stop checks and dominance)
//!   followed by [`Explorer::commit`] of the node's [`Expansion`]
//!   (counters, cost prune, incumbent, child admission). It is
//!   *incremental*: [`Explorer::step`] explores one subproblem, so a loop
//!   over `step` can pause and resume anywhere, turning the solver into an
//!   anytime optimizer — the best compatible solution is available after
//!   every step. [`Explorer::run`] is that loop run to its stop;
//! * [`expand`] is the pure per-node transition (minimize → classify →
//!   quick-seed → split) between a pop and its commit. The engine's wide
//!   mode runs it on worker threads and commits the results through one
//!   `Explorer` in pop order, so wide and sequential runs agree by
//!   construction.
//!
//! # Events
//!
//! The explorer reports its transitions as `brel_obs` instant events in
//! the [`brel_obs::Category::Search`] category, one event exactly where
//! the matching [`SolveStats`] counter moves (so a recording of one solve
//! rebuilds the Fig. 6 walk and its counters):
//!
//! | Event | Args | Counter |
//! |---|---|---|
//! | `explored` | `index`, `candidate_cost`, `compatible` | `explored` |
//! | `improved` | `cost` (the quick seed included) | `improvements` |
//! | `pruned_by_cost` | `candidate_cost`, `best_cost` | `pruned_by_cost` |
//! | `pruned_dominated` | `priority`, `best_cost` | `pruned_dominated` |
//! | `split` | `output`, `vertex` (packed, ≤ 64 inputs) | `splits` |
//! | `skipped_by_symmetry` | — | `skipped_by_symmetry` |
//! | `fifo_drop` | — | `dropped_by_fifo` |
//!
//! `frontier_pop` and `frontier_push` (arg `depth`) trace the frontier
//! traffic and match no counter.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use brel_bdd::GcStats;
use brel_relation::{BooleanRelation, MultiOutputFunction, RelationError};

use crate::cost::{CostFn, CostFunction};
use crate::minimize_isf::IsfMinimizer;
use crate::quick::QuickSolver;
use crate::solver::{BrelConfig, Solution, SolveStats};
use crate::symmetry::{pack, SymmetryCache};

/// Which frontier discipline drives the exploration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SearchStrategy {
    /// Partial breadth-first (the paper's §7.2 order and the default; keeps
    /// batch fingerprints identical to the historical solver).
    #[default]
    Fifo,
    /// Depth-first: dives on the most recently split subrelation, reaching
    /// deep incumbents quickly with a small frontier.
    Dfs,
    /// Best-first: pops the pending subproblem with the lowest inherited
    /// priority, with (inadmissible) dominance pruning against the
    /// incumbent.
    BestFirst,
}

impl SearchStrategy {
    /// Short stable name used in reports and CLI flags.
    pub fn name(&self) -> &'static str {
        match self {
            SearchStrategy::Fifo => "fifo",
            SearchStrategy::Dfs => "dfs",
            SearchStrategy::BestFirst => "best-first",
        }
    }

    /// Parses a CLI-style name (`fifo`, `dfs`, `best-first`).
    pub fn parse(s: &str) -> Option<SearchStrategy> {
        match s {
            "fifo" => Some(SearchStrategy::Fifo),
            "dfs" => Some(SearchStrategy::Dfs),
            "best-first" | "best_first" | "bestfirst" => Some(SearchStrategy::BestFirst),
            _ => None,
        }
    }

    /// Every strategy, in the deterministic comparison order.
    pub fn all() -> [SearchStrategy; 3] {
        [
            SearchStrategy::Fifo,
            SearchStrategy::Dfs,
            SearchStrategy::BestFirst,
        ]
    }
}

impl fmt::Display for SearchStrategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One pending node of the exploration: a subrelation plus where it sits in
/// the search tree.
#[derive(Debug, Clone)]
pub struct Subproblem {
    /// The subrelation still to be explored.
    pub relation: BooleanRelation,
    /// Distance from the root relation (number of splits on the path).
    pub depth: usize,
    /// Search priority: the parent's MISF-minimized candidate cost (0 for
    /// the root). It is *not* a lower bound on the cost of the solutions
    /// in this subtree — the ISF minimizer is heuristic, so a subrelation
    /// can have a cheaper compatible function than its parent's candidate
    /// — and best-first's dominance drop on it is inadmissible.
    pub priority: u64,
    /// Admission number: 0 for the root, then one more per subproblem the
    /// frontier admits (negative split half first). A pure function of the
    /// search, so it names the subproblem across threads and runs.
    pub seq: u64,
}

/// The pending subproblems, keyed so that the next one to explore is
/// always the first entry: FIFO on `(0, seq)`, DFS on `(0, !seq)` (highest
/// `seq` first, the top of a stack) and best-first on `(priority, seq)`
/// (insertion order among equal priorities, so it degrades to FIFO when
/// every priority is equal). Order only: budgets, capacity and pruning
/// stay in the [`Explorer`], so every strategy shares the same
/// split/prune semantics.
#[derive(Debug)]
struct Frontier {
    strategy: SearchStrategy,
    entries: BTreeMap<(u64, u64), Subproblem>,
    next_seq: u64,
}

impl Frontier {
    fn new(strategy: SearchStrategy) -> Self {
        Frontier {
            strategy,
            entries: BTreeMap::new(),
            next_seq: 0,
        }
    }

    fn push(&mut self, relation: BooleanRelation, depth: usize, priority: u64) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let key = match self.strategy {
            SearchStrategy::Fifo => (0, seq),
            SearchStrategy::Dfs => (0, !seq),
            SearchStrategy::BestFirst => (priority, seq),
        };
        let subproblem = Subproblem {
            relation,
            depth,
            priority,
            seq,
        };
        self.entries.insert(key, subproblem);
    }

    fn pop(&mut self) -> Option<Subproblem> {
        self.entries.pop_first().map(|(_, subproblem)| subproblem)
    }

    fn len(&self) -> usize {
        self.entries.len()
    }

    /// The pending subproblems in pop order.
    fn iter(&self) -> impl Iterator<Item = &Subproblem> {
        self.entries.values()
    }
}

/// The outcome of expanding one subproblem: the per-node transition of
/// Fig. 6, with no frontier or incumbent state attached. Pure with respect
/// to `(relation, prune_bound)`, which is what lets the engine's wide mode
/// compute expansions on worker threads and commit them in pop order
/// through [`Explorer::commit`].
#[derive(Debug)]
pub struct Expansion {
    /// The MISF-minimized candidate function.
    pub candidate: MultiOutputFunction,
    /// Its cost under the configured cost function.
    pub candidate_cost: u64,
    /// Whether the candidate is compatible with the subrelation.
    pub compatible: bool,
    /// The quick solver's compatible solution and its cost (the partial-BFS
    /// guarantee of §7.2). Only computed when the node splits.
    pub quick: Option<(MultiOutputFunction, u64)>,
    /// The split halves; `None` iff the candidate was compatible or the
    /// candidate cost reached `prune_bound` (the branch would be pruned).
    pub split: Option<SplitExpansion>,
}

/// The split half of an [`Expansion`].
#[derive(Debug)]
pub struct SplitExpansion {
    /// The conflicting input vertex chosen (§7.4).
    pub vertex: Vec<bool>,
    /// The output chosen for the split.
    pub output: usize,
    /// `R_{x ȳᵢ}`: the half forbidding `yᵢ = 1` at the vertex.
    pub negative: BooleanRelation,
    /// `R_{x yᵢ}`: the half forbidding `yᵢ = 0` at the vertex.
    pub positive: BooleanRelation,
}

/// Expands one subrelation: minimizes its MISF, classifies the candidate
/// and — when the candidate is incompatible and `candidate_cost <
/// prune_bound` — quick-solves the subrelation and splits it at a
/// conflicting vertex.
///
/// # Errors
///
/// Returns [`RelationError::NoSplitPoint`] if an incompatible candidate has
/// no vertex/output pair satisfying Theorem 5.2. For a well-defined
/// relation this is provably unreachable: a conflicting vertex `x` has
/// `|R(x)| ≥ 2` (a singleton image fixes every output projection at `x`, so
/// the candidate — which lies inside the projection intervals — could not
/// conflict there), and two distinct related output vertices differ in some
/// output, giving that output `{0, 1}` flexibility at `x`. The error is
/// kept structured rather than silently ignored so a corrupted relation
/// fails loudly instead of degrading the search.
pub fn expand(
    minimizer: &IsfMinimizer,
    cost: &CostFn,
    quick: &QuickSolver,
    relation: &BooleanRelation,
    prune_bound: u64,
) -> Result<Expansion, RelationError> {
    // Step (a)+(b): over-approximate by the MISF and minimize it.
    let misf = relation.to_misf();
    let candidate_outputs: Vec<_> = misf
        .outputs()
        .iter()
        .map(|isf| minimizer.minimize(isf))
        .collect();
    let candidate = MultiOutputFunction::new(relation.space(), candidate_outputs)?;
    let candidate_cost = cost.cost(&candidate);
    let compatible = relation.is_compatible(&candidate);
    if compatible || candidate_cost >= prune_bound {
        return Ok(Expansion {
            candidate,
            candidate_cost,
            compatible,
            quick: None,
            split: None,
        });
    }

    // Incompatible: make sure this subrelation still contributes a
    // compatible incumbent (partial-BFS guarantee of §7.2)…
    let quick_solution = quick.solve(relation).ok().map(|q| {
        let q_cost = cost.cost(&q);
        (q, q_cost)
    });

    // …then split on a conflicting vertex.
    let conflicts = relation.conflicting_inputs(&candidate);
    let Some((vertex, output)) = relation.select_split_point(&conflicts) else {
        return Err(RelationError::NoSplitPoint { candidate_cost });
    };
    let (negative, positive) = relation.split(&vertex, output)?;
    Ok(Expansion {
        candidate,
        candidate_cost,
        compatible,
        quick: quick_solution,
        split: Some(SplitExpansion {
            vertex,
            output,
            negative,
            positive,
        }),
    })
}

/// A cooperative cancellation flag shared between a driver thread and a
/// running job. Cloning the token shares the flag; any clone can request
/// cancellation, and the engine observes it between exploration steps,
/// never inside one, so the incumbent in hand stays a valid, verified
/// anytime solution.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, uncancelled token.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Requests cancellation. Idempotent and never blocks.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Release);
    }

    /// Whether cancellation has been requested on any clone of this token.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Acquire)
    }
}

/// What one [`Explorer::step`] call did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StepOutcome {
    /// One subproblem was expanded (dominance-pruned pops, if any, were
    /// consumed silently on the way).
    Explored {
        /// Cost of the MISF-minimized candidate.
        candidate_cost: u64,
        /// Whether the candidate was compatible.
        compatible: bool,
        /// Whether the incumbent improved during this step.
        improved: bool,
    },
    /// The frontier is empty: the search ran to completion.
    Exhausted,
    /// The configured `max_explored` budget is spent while subproblems are
    /// still pending; the explorer can be resumed after raising the budget.
    BudgetExhausted,
    /// The configured `step_deadline` (a fault-policy truncation, distinct
    /// from the quality budget `max_explored`) expired; the incumbent is
    /// kept, but the result counts as degraded.
    DeadlineExpired,
}

/// The incremental branch-and-bound exploration: owns the frontier, the
/// incumbent and statistics, and advances one subproblem at a time.
/// A compatible incumbent (seeded by the quick solver) is available after
/// construction and only ever improves — pausing at any point yields a
/// valid anytime solution.
#[derive(Debug)]
pub struct Explorer {
    config: BrelConfig,
    quick: QuickSolver,
    frontier: Frontier,
    symmetry: SymmetryCache,
    root: BooleanRelation,
    gc_before: GcStats,
    best: MultiOutputFunction,
    best_cost: u64,
    stats: SolveStats,
}

impl Explorer {
    /// Creates an explorer over `relation` with the frontier order named by
    /// `config.strategy`, seeded with the quick solver's compatible
    /// solution.
    ///
    /// # Errors
    ///
    /// Returns [`RelationError::NotWellDefined`] if the relation has no
    /// compatible function.
    pub fn new(config: BrelConfig, relation: &BooleanRelation) -> Result<Self, RelationError> {
        if !relation.is_well_defined() {
            return Err(RelationError::NotWellDefined);
        }
        relation.space().mgr().reset_peak_live_nodes();
        let gc_before = relation.space().mgr().gc_stats();
        let quick = QuickSolver::new().with_minimizer(config.minimizer);
        let mut stats = SolveStats::default();

        // Seed: the quick solver guarantees a compatible incumbent.
        let best = quick.solve(relation)?;
        let best_cost = config.cost.cost(&best);
        stats.improvements += 1;
        brel_obs::event!(brel_obs::Category::Search, "improved", "cost" => best_cost);

        let mut frontier = Frontier::new(config.strategy);
        frontier.push(relation.clone(), 0, 0);
        stats.frontier_peak = 1;
        let mut symmetry = SymmetryCache::new();
        if config.use_symmetry {
            symmetry.check_and_insert(relation);
        }
        Ok(Explorer {
            config,
            quick,
            frontier,
            symmetry,
            root: relation.clone(),
            gc_before,
            best,
            best_cost,
            stats,
        })
    }

    /// Explores the next subproblem: [`Explorer::pop`], [`expand`] against
    /// the incumbent cost, then [`Explorer::commit`]. Reports exhaustion,
    /// budget depletion or an expired step deadline instead when `pop`
    /// does.
    ///
    /// # Errors
    ///
    /// Propagates [`RelationError::NoSplitPoint`] from [`expand`] (provably
    /// unreachable for well-defined relations).
    pub fn step(&mut self) -> Result<StepOutcome, RelationError> {
        let subproblem = match self.pop() {
            Ok(subproblem) => subproblem,
            Err(stop) => return Ok(stop),
        };
        // The per-node span: one `expand` per explored subproblem, tagged
        // with its depth and the priority it carried out of the frontier.
        let _span = brel_obs::span!(
            brel_obs::Category::Search,
            "expand",
            "depth" => subproblem.depth,
            "priority" => subproblem.priority,
            "index" => self.stats.explored,
        );
        let expansion = expand(
            &self.config.minimizer,
            &self.config.cost,
            &self.quick,
            &subproblem.relation,
            self.best_cost,
        )?;
        Ok(self.commit(subproblem, expansion))
    }

    /// Takes the next subproblem to explore off the frontier. First the
    /// stop checks, in order: an empty frontier, the `max_explored` budget,
    /// the `step_deadline`. Then, under best-first, popped subproblems that
    /// [`Explorer::is_dominated`] are dropped unexplored on the way.
    ///
    /// # Errors
    ///
    /// Returns why nothing was popped: [`StepOutcome::Exhausted`],
    /// [`StepOutcome::BudgetExhausted`] or [`StepOutcome::DeadlineExpired`].
    pub fn pop(&mut self) -> Result<Subproblem, StepOutcome> {
        loop {
            if self.frontier.len() == 0 {
                self.stats.complete = true;
                return Err(StepOutcome::Exhausted);
            }
            if let Some(max) = self.config.max_explored {
                if self.stats.explored >= max {
                    // Budget exhausted: stop exploring, keep the incumbent.
                    self.stats.complete = false;
                    return Err(StepOutcome::BudgetExhausted);
                }
            }
            if let Some(deadline) = self.config.step_deadline {
                if self.stats.explored >= deadline {
                    // Fault-policy truncation: like a blown budget the
                    // incumbent is kept, but reported as a deadline so the
                    // engine can classify the job as degraded.
                    self.stats.complete = false;
                    return Err(StepOutcome::DeadlineExpired);
                }
            }
            let subproblem = self.frontier.pop().expect("frontier is non-empty");
            brel_obs::event!(
                brel_obs::Category::Search,
                "frontier_pop",
                "depth" => subproblem.depth,
            );
            if self.is_dominated(&subproblem) {
                // Dominance: the priority recorded at split time can no
                // longer beat the (since improved) incumbent. Counted and
                // reported separately from candidate-cost prunes — this
                // node was never minimized, so no `explored` event
                // precedes it.
                self.stats.pruned_dominated += 1;
                brel_obs::event!(
                    brel_obs::Category::Search,
                    "pruned_dominated",
                    "priority" => subproblem.priority,
                    "best_cost" => self.best_cost,
                );
                continue;
            }
            return Ok(subproblem);
        }
    }

    /// Whether [`Explorer::pop`] drops `subproblem` unexplored: under
    /// best-first, its inherited priority can no longer beat the
    /// incumbent. The priority is not a true bound, so the drop can lose a
    /// better solution. Always `false` for FIFO and DFS, which keep the
    /// paper's exploration order exactly.
    pub fn is_dominated(&self, subproblem: &Subproblem) -> bool {
        self.frontier.strategy == SearchStrategy::BestFirst && subproblem.priority >= self.best_cost
    }

    /// Commits the expansion of a popped subproblem: counts it, prunes it
    /// by cost, records an improved incumbent (the compatible candidate, or
    /// the quick solution of a node that splits) and admits the split
    /// halves under `fifo_capacity`.
    ///
    /// `expansion` is [`expand`] of `subproblem.relation` against a prune
    /// bound at or above the current incumbent cost. A bound above it (a
    /// stale snapshot taken before the incumbent improved) commits exactly
    /// as the current one would: the only extra work it can carry is split
    /// halves of a candidate the cost prune here discards.
    pub fn commit(&mut self, subproblem: Subproblem, expansion: Expansion) -> StepOutcome {
        let index = self.stats.explored;
        self.stats.explored += 1;
        let candidate_cost = expansion.candidate_cost;
        let compatible = expansion.compatible;
        brel_obs::event!(
            brel_obs::Category::Search,
            "explored",
            "index" => index,
            "candidate_cost" => candidate_cost,
            "compatible" => compatible,
        );

        // Prune by cost: constraining the relation further cannot beat a
        // candidate obtained with strictly more flexibility.
        if candidate_cost >= self.best_cost {
            self.stats.pruned_by_cost += 1;
            brel_obs::event!(
                brel_obs::Category::Search,
                "pruned_by_cost",
                "candidate_cost" => candidate_cost,
                "best_cost" => self.best_cost,
            );
            return StepOutcome::Explored {
                candidate_cost,
                compatible,
                improved: false,
            };
        }

        if compatible {
            self.improve(expansion.candidate, candidate_cost);
            return StepOutcome::Explored {
                candidate_cost,
                compatible,
                improved: true,
            };
        }

        let mut improved = false;
        if let Some((q, q_cost)) = expansion.quick {
            if q_cost < self.best_cost {
                self.improve(q, q_cost);
                improved = true;
            }
        }

        let split = expansion
            .split
            .expect("expand splits every unpruned incompatible candidate");
        self.stats.splits += 1;
        // The vertex rides along packed like a fingerprint row, component
        // 0 first, whenever it fits one argument.
        if split.vertex.len() <= 64 {
            brel_obs::event!(
                brel_obs::Category::Search,
                "split",
                "output" => split.output,
                "vertex" => pack(&split.vertex),
            );
        } else {
            brel_obs::event!(brel_obs::Category::Search, "split", "output" => split.output);
        }
        for child in [split.negative, split.positive] {
            debug_assert!(
                child.is_well_defined(),
                "Theorem 5.2 guarantees well-definedness"
            );
            if self.config.use_symmetry
                && subproblem.depth < self.config.symmetry_depth
                && self.symmetry.check_and_insert(&child)
            {
                self.stats.skipped_by_symmetry += 1;
                brel_obs::event(brel_obs::Category::Search, "skipped_by_symmetry");
                continue;
            }
            if let Some(cap) = self.config.fifo_capacity {
                if self.frontier.len() >= cap {
                    self.stats.dropped_by_fifo += 1;
                    brel_obs::event(brel_obs::Category::Search, "fifo_drop");
                    continue;
                }
            }
            brel_obs::event!(
                brel_obs::Category::Search,
                "frontier_push",
                "depth" => subproblem.depth + 1,
            );
            self.frontier
                .push(child, subproblem.depth + 1, candidate_cost);
            self.stats.frontier_peak = self.stats.frontier_peak.max(self.frontier.len());
        }
        StepOutcome::Explored {
            candidate_cost,
            compatible,
            improved,
        }
    }

    fn improve(&mut self, function: MultiOutputFunction, cost: u64) {
        self.best = function;
        self.best_cost = cost;
        self.stats.improvements += 1;
        brel_obs::event!(brel_obs::Category::Search, "improved", "cost" => cost);
    }

    /// Steps until the search stops and returns the [`StepOutcome`] that
    /// stopped it: [`StepOutcome::Exhausted`],
    /// [`StepOutcome::BudgetExhausted`] or [`StepOutcome::DeadlineExpired`].
    /// The last two leave the frontier intact, so raising the budget in
    /// [`Explorer::config_mut`] and running again resumes the search.
    ///
    /// # Errors
    ///
    /// Propagates errors from [`Explorer::step`].
    pub fn run(&mut self) -> Result<StepOutcome, RelationError> {
        loop {
            match self.step()? {
                StepOutcome::Explored { .. } => {}
                stop => return Ok(stop),
            }
        }
    }

    /// Like [`Explorer::step`], but additionally catches a kernel resource
    /// abort (the [`brel_bdd::ResourceGovernor`]'s cooperative unwind) at
    /// the step boundary and surfaces it as
    /// [`RelationError::ResourceExhausted`]. The explorer must not be
    /// stepped again after that error — the aborted step's subproblem was
    /// consumed — but the shared manager itself is structurally intact.
    ///
    /// # Errors
    ///
    /// Everything [`Explorer::step`] returns, plus
    /// [`RelationError::ResourceExhausted`] on a governor abort.
    pub fn step_guarded(&mut self) -> Result<StepOutcome, RelationError> {
        brel_bdd::catch_resource_abort(|| self.step())
            .unwrap_or_else(|abort| Err(RelationError::ResourceExhausted(abort)))
    }

    /// The best compatible solution found so far.
    pub fn best(&self) -> &MultiOutputFunction {
        &self.best
    }

    /// Cost of the best compatible solution found so far.
    pub fn best_cost(&self) -> u64 {
        self.best_cost
    }

    /// Number of subproblems explored so far.
    pub fn explored(&self) -> usize {
        self.stats.explored
    }

    /// The pending subproblems in pop order: the first is the one
    /// [`Explorer::pop`] takes next, unless a stop check or dominance
    /// intervenes.
    pub fn pending(&self) -> impl Iterator<Item = &Subproblem> {
        self.frontier.iter()
    }

    /// How many subproblems the frontier has admitted so far, the root
    /// included — the `seq` the next admitted subproblem gets.
    pub fn admitted(&self) -> u64 {
        self.frontier.next_seq
    }

    /// The strategy of the underlying frontier.
    pub fn strategy(&self) -> SearchStrategy {
        self.frontier.strategy
    }

    /// The configuration driving this exploration.
    pub fn config(&self) -> &BrelConfig {
        &self.config
    }

    /// Mutable access to the configuration — e.g. raise `max_explored` to
    /// resume a budget-exhausted exploration. Changing `strategy` here has
    /// no effect: the frontier was instantiated at construction.
    pub fn config_mut(&mut self) -> &mut BrelConfig {
        &mut self.config
    }

    /// The exploration statistics so far.
    pub fn stats(&self) -> &SolveStats {
        &self.stats
    }

    /// Finalizes the exploration into a [`Solution`], filling the memory
    /// accounting from the manager's lifecycle counters.
    pub fn into_solution(mut self) -> Solution {
        let now = self.root.space().mgr().gc_stats();
        self.stats.peak_live_nodes = now.peak_live_nodes;
        self.stats.gc_collections = now.collections.saturating_sub(self.gc_before.collections);
        Solution {
            function: self.best,
            cost: self.best_cost,
            stats: self.stats,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::BrelSolver;
    use brel_relation::RelationSpace;

    fn fig10() -> (RelationSpace, BooleanRelation) {
        let space = RelationSpace::with_names(&["a", "b"], &["x", "y"]);
        let r = BooleanRelation::from_table(&space, "00:{00,11}\n01:{10}\n10:{01,10}\n11:{11}")
            .unwrap();
        (space, r)
    }

    #[test]
    fn strategy_names_round_trip_through_parse() {
        for strategy in SearchStrategy::all() {
            assert_eq!(SearchStrategy::parse(strategy.name()), Some(strategy));
            assert_eq!(format!("{strategy}"), strategy.name());
        }
        assert_eq!(
            SearchStrategy::parse("best_first"),
            Some(SearchStrategy::BestFirst)
        );
        assert_eq!(SearchStrategy::parse("nope"), None);
        assert_eq!(SearchStrategy::default(), SearchStrategy::Fifo);
    }

    #[test]
    fn frontiers_implement_their_orders() {
        let (_space, r) = fig10();
        let drain = |strategy: SearchStrategy| {
            let mut frontier = Frontier::new(strategy);
            for priority in [5u64, 3, 9, 3] {
                frontier.push(r.clone(), 0, priority);
            }
            let listed: Vec<u64> = frontier.iter().map(|s| s.priority).collect();
            let mut popped = Vec::new();
            while let Some(s) = frontier.pop() {
                popped.push(s.priority);
            }
            assert_eq!(listed, popped, "{strategy}: listing is pop order");
            assert_eq!(frontier.len(), 0);
            popped
        };
        assert_eq!(drain(SearchStrategy::Fifo), vec![5, 3, 9, 3]);
        assert_eq!(drain(SearchStrategy::Dfs), vec![3, 9, 3, 5]);
        // Lowest priority first, insertion order among the two 3s.
        assert_eq!(drain(SearchStrategy::BestFirst), vec![3, 3, 5, 9]);
    }

    #[test]
    fn every_strategy_finds_the_fig10_optimum_in_exact_mode() {
        let (_space, r) = fig10();
        for strategy in SearchStrategy::all() {
            let config = BrelConfig::exact().with_strategy(strategy);
            let solution = BrelSolver::new(config).solve(&r).unwrap();
            assert!(r.is_compatible(&solution.function));
            assert_eq!(solution.cost, 2, "{strategy} missed the optimum");
            assert!(solution.stats.complete);
            assert!(solution.stats.frontier_peak >= 1);
        }
    }

    #[test]
    fn best_first_explores_no_more_than_fifo_on_fig10() {
        let (_space, r) = fig10();
        let fifo = BrelSolver::new(BrelConfig::exact()).solve(&r).unwrap();
        let best = BrelSolver::new(BrelConfig::exact().with_strategy(SearchStrategy::BestFirst))
            .solve(&r)
            .unwrap();
        assert_eq!(fifo.cost, best.cost);
        assert!(
            best.stats.explored <= fifo.stats.explored,
            "best-first explored {} > fifo {}",
            best.stats.explored,
            fifo.stats.explored
        );
    }

    #[test]
    fn explorer_is_anytime_pause_and_resume() {
        let (_space, r) = fig10();
        let mut explorer = Explorer::new(
            BrelConfig::exact().with_strategy(SearchStrategy::BestFirst),
            &r,
        )
        .unwrap();
        // The quick seed is available before any step.
        let seeded = explorer.best_cost();
        assert!(r.is_compatible(explorer.best()));
        // One step at a time, the incumbent never regresses.
        let mut last = seeded;
        let mut paused = 0;
        loop {
            match explorer.step().unwrap() {
                StepOutcome::Explored { .. } => {
                    paused += 1;
                    assert!(explorer.best_cost() <= last);
                    last = explorer.best_cost();
                }
                StepOutcome::Exhausted => break,
                StepOutcome::BudgetExhausted | StepOutcome::DeadlineExpired => {
                    unreachable!("exact mode has no budget or deadline")
                }
            }
        }
        assert!(paused >= 1, "fig10 needs more than one exploration");
        assert_eq!(explorer.strategy(), SearchStrategy::BestFirst);
        assert_eq!(explorer.pending().count(), 0);
        let solution = explorer.into_solution();
        assert_eq!(solution.cost, 2);
        assert!(solution.stats.complete);
    }

    #[test]
    fn budget_exhaustion_is_resumable_by_raising_the_budget() {
        let (_space, r) = fig10();
        let mut explorer = Explorer::new(
            BrelConfig::default()
                .with_max_explored(Some(1))
                .with_fifo_capacity(None),
            &r,
        )
        .unwrap();
        assert_eq!(explorer.run().unwrap(), StepOutcome::BudgetExhausted);
        assert_eq!(explorer.explored(), 1);
        assert!(!explorer.stats().complete);
        assert!(
            explorer.pending().count() > 0,
            "pending work survives the pause"
        );
        // The frontier is intact: a fresh solver with a bigger budget would
        // re-explore, but this explorer resumes where it stopped.
        explorer.config_mut().max_explored = None;
        assert_eq!(explorer.run().unwrap(), StepOutcome::Exhausted);
        let solution = explorer.into_solution();
        assert_eq!(solution.cost, 2);
        assert!(solution.stats.complete);
    }

    #[test]
    fn expand_is_pure_per_node() {
        let (_space, r) = fig10();
        let minimizer = IsfMinimizer::default();
        let cost = CostFn::SumBddSize;
        let quick = QuickSolver::new();
        let a = expand(&minimizer, &cost, &quick, &r, u64::MAX).unwrap();
        let b = expand(&minimizer, &cost, &quick, &r, u64::MAX).unwrap();
        assert_eq!(a.candidate_cost, b.candidate_cost);
        assert_eq!(a.compatible, b.compatible);
        assert!(!a.compatible, "fig10's first candidate conflicts");
        let (sa, sb) = (a.split.unwrap(), b.split.unwrap());
        assert_eq!(sa.vertex, sb.vertex);
        assert_eq!(sa.output, sb.output);
        assert_eq!(sa.negative, sb.negative);
        assert_eq!(sa.positive, sb.positive);
        // A prune bound at or below the candidate cost suppresses the split.
        let pruned = expand(&minimizer, &cost, &quick, &r, a.candidate_cost).unwrap();
        assert!(pruned.split.is_none() && pruned.quick.is_none());
    }
}
