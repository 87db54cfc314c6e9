//! The low-level ROBDD node store and core operations.
//!
//! Nodes are stored in a single arena ([`BddManager::nodes`]) indexed by
//! [`NodeId`]. Canonicity is maintained by the *unique table*: a node
//! `(var, lo, hi)` exists at most once, and no node with `lo == hi` is ever
//! created. The two terminals occupy the first two slots of the arena
//! (`NodeId::ZERO` and `NodeId::ONE`).
//!
//! All Boolean connectives are implemented on top of the ternary `ite`
//! (if-then-else) operator, which is memoized in the manager's operation
//! cache. Because every subrelation manipulated by the BREL solver is
//! derived from a single original relation, the cache hit rate is very high
//! in practice; this mirrors the observation made in Section 7.1 of the
//! paper.
//!
//! The memory layer is CUDD-style (see [`crate::cache`]): the unique table
//! is open-addressed with an Fx-style hash over `(var, lo, hi)`, and one
//! fixed-size lossy direct-mapped operation cache is shared by `ite` and
//! the tagged operations (`cofactor`, quantification, the
//! generalized cofactors and ISOP), which persist results across calls
//! instead of allocating a memo table per call.

use std::cell::RefCell;
use std::fmt;

use crate::cache::{CacheStats, OpCache, OpTag, UniqueTable};
use crate::config::BddConfig;
use crate::gc::{GcState, RootTable};
use crate::governor::{GovernorVerdict, ResourceGovernor};

/// Index of a BDD variable.
///
/// The index is also the variable's *level*, its position in the order
/// (0 closest to the root), and no operation ever permutes the order. The
/// higher-level crates allocate input variables before output variables,
/// which is the ordering of the paper's characteristic functions
/// `R(X, Y)`; BREL's default cost is a BDD size under that order, so a
/// movable order would make costs depend on when it moved.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Var(pub u32);

impl Var {
    /// Returns the raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl From<u32> for Var {
    fn from(v: u32) -> Self {
        Var(v)
    }
}

impl From<usize> for Var {
    fn from(v: usize) -> Self {
        Var(v as u32)
    }
}

impl From<i32> for Var {
    fn from(v: i32) -> Self {
        debug_assert!(v >= 0, "variable indices are non-negative");
        Var(v as u32)
    }
}

impl fmt::Display for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "x{}", self.0)
    }
}

/// Identifier of a node in the manager's arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub(crate) u32);

impl NodeId {
    /// The constant-false terminal.
    pub const ZERO: NodeId = NodeId(0);
    /// The constant-true terminal.
    pub const ONE: NodeId = NodeId(1);

    /// Returns `true` for the two terminal nodes.
    pub(crate) fn is_terminal(self) -> bool {
        self.0 <= 1
    }

    /// Returns `true` for the constant-false terminal.
    pub fn is_zero(self) -> bool {
        self == NodeId::ZERO
    }

    /// Returns `true` for the constant-true terminal.
    pub fn is_one(self) -> bool {
        self == NodeId::ONE
    }

    /// Raw arena index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A decision node: `if var then hi else lo`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct Node {
    pub var: Var,
    pub lo: NodeId,
    pub hi: NodeId,
}

/// Level used for terminals so that they order after every variable.
const TERMINAL_LEVEL: u32 = u32::MAX;

/// Variable marker of a reclaimed arena slot (never a valid variable
/// index).
pub(crate) const FREE_VAR: u32 = u32::MAX;

/// The ROBDD manager: node arena, unique table and operation caches.
///
/// The manager is a self-contained, owning value — it holds its root table
/// directly and is `Send`, so a whole manager can move between threads
/// (the engine's warm worker pool relies on this). Most users should
/// prefer the [`crate::BddSession`] handle; the raw manager is exposed for
/// callers that want explicit control over mutability (for example, the
/// benchmark harness).
pub struct BddManager {
    pub(crate) nodes: Vec<Node>,
    /// Reclaimed arena slots awaiting reuse by `mk` (see [`crate::gc`]).
    pub(crate) free: Vec<u32>,
    pub(crate) unique: UniqueTable,
    pub(crate) cache: OpCache,
    /// External references; [`crate::Bdd`] handles hold slot indices into
    /// this table and resolve/retain/release through the session lock.
    pub(crate) roots: RootTable,
    /// Lifecycle bookkeeping: GC triggers and counters.
    pub(crate) gc: GcState,
    /// Optional resource budget enforced by `note_alloc`; see
    /// [`crate::governor`].
    pub(crate) governor: Option<ResourceGovernor>,
    /// Reusable epoch-stamped visited set for `size`/`support` traversals
    /// (`RefCell`: those queries take `&self`).
    visit_scratch: RefCell<VisitScratch>,
    pub(crate) var_names: Vec<String>,
}

impl fmt::Debug for BddManager {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BddManager")
            .field("num_vars", &self.var_names.len())
            .field("num_nodes", &self.nodes.len())
            .finish()
    }
}

impl BddManager {
    /// Creates a manager with `num_vars` variables named `x0..x{n-1}`,
    /// tuned by [`BddConfig::from_env`].
    pub fn new(num_vars: usize) -> Self {
        Self::with_config(num_vars, BddConfig::from_env())
    }

    /// Creates a manager with an explicit lifecycle configuration — the
    /// base constructor every other constructor funnels through. Every
    /// table starts at its minimum and grows with use.
    pub fn with_config(num_vars: usize, config: BddConfig) -> Self {
        let mut mgr = BddManager {
            nodes: Vec::new(),
            free: Vec::new(),
            unique: UniqueTable::new(),
            cache: OpCache::new(),
            roots: RootTable::new(),
            gc: GcState::new(&config),
            governor: None,
            visit_scratch: RefCell::new(VisitScratch::new()),
            var_names: (0..num_vars).map(|i| format!("x{i}")).collect(),
        };
        // Terminal placeholders. `var` is unused for terminals.
        mgr.nodes.push(Node {
            var: Var(TERMINAL_LEVEL),
            lo: NodeId::ZERO,
            hi: NodeId::ZERO,
        });
        mgr.nodes.push(Node {
            var: Var(TERMINAL_LEVEL),
            lo: NodeId::ONE,
            hi: NodeId::ONE,
        });
        mgr
    }

    /// Rewinds a live-root-free manager to the state a cold
    /// [`BddManager::with_config`]`(num_vars, config)` would start in,
    /// while keeping its allocations warm — the arena vector, unique-table
    /// slab, op-cache slab and root-table storage are reused instead of
    /// reallocated. `config` replaces the lifecycle tuning. Returns `false`
    /// (doing nothing) if external roots are still live, so callers can
    /// fall back to a fresh manager.
    ///
    /// A reset manager is *observationally identical* to a cold one: the
    /// node arena holds only the two terminals, the unique table is empty
    /// at its cold capacity, the op cache is back at its cold slot count
    /// with auto-growth re-armed, the variables carry their default `x{i}`
    /// names, and all GC triggers are re-armed. Cumulative counters (cache
    /// lookups, collections, …) survive — per-phase consumers report
    /// deltas — and the `peak_live_nodes` gauge is re-based to the
    /// terminal-only arena.
    pub fn reset(&mut self, num_vars: usize, config: BddConfig) -> bool {
        if self.roots.live_roots() != 0 {
            return false;
        }
        self.roots.reset();
        self.nodes.truncate(2);
        self.free.clear();
        self.unique.reset();
        self.cache.reset();
        self.var_names = (0..num_vars).map(|i| format!("x{i}")).collect();
        self.visit_scratch.borrow_mut().reset();
        let counters = (self.gc.collections, self.gc.nodes_reclaimed);
        self.gc = GcState::new(&config);
        (self.gc.collections, self.gc.nodes_reclaimed) = counters;
        self.gc.peak_live_nodes = self.live_nodes() as u64;
        // A governor budgets one unit of work; it never survives into the
        // next job's session.
        self.governor = None;
        true
    }

    /// Replaces the operation cache with one of `slots` slots (rounded to a
    /// power of two, at most 2^15; entries are dropped, counters survive)
    /// and pins that size until the next [`BddManager::reset`]. Primarily
    /// for tests that pin a tiny cache to stress the lossy-eviction path.
    pub fn resize_op_cache(&mut self, slots: usize) {
        self.cache.resize(slots);
    }

    /// The kernel's cache/unique-table counter block. Counters are
    /// cumulative and deterministic; see [`CacheStats`].
    pub fn cache_stats(&self) -> CacheStats {
        CacheStats {
            unique_lookups: self.unique.lookups(),
            unique_hits: self.unique.hits(),
            unique_len: self.unique.len() as u64,
            unique_capacity: self.unique.capacity() as u64,
            cache_lookups: self.cache.lookups(),
            cache_hits: self.cache.hits(),
            cache_inserts: self.cache.inserts(),
            cache_evictions: self.cache.evictions(),
            cache_slots: self.cache.slot_count() as u64,
            num_nodes: self.nodes.len() as u64,
        }
    }

    /// Number of variables known to the manager.
    pub fn num_vars(&self) -> usize {
        self.var_names.len()
    }

    /// Total number of nodes allocated so far (including the two terminals).
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Post-allocation bookkeeping: tracks the live-node high-water mark,
    /// arms the deferred-GC flag once the growth threshold is crossed, and
    /// enforces the session's [`ResourceGovernor`] (if one is installed).
    /// A governor abort unwinds with a typed [`crate::BddError`] payload;
    /// the node just created is fully inserted and will be reclaimed as
    /// unrooted garbage by the next sweep, so the manager stays
    /// structurally consistent.
    #[inline]
    pub(crate) fn note_alloc(&mut self) {
        let live = self.nodes.len() - self.free.len();
        if live as u64 > self.gc.peak_live_nodes {
            self.gc.peak_live_nodes = live as u64;
        }
        if self.gc.auto_gc && live >= self.gc.next_gc_at {
            self.gc.pending = true;
        }
        if let Some(governor) = &mut self.governor {
            match governor.note_alloc(live as u64, self.gc.collections) {
                GovernorVerdict::Proceed => {}
                GovernorVerdict::RequestGc => self.gc.pending = true,
                GovernorVerdict::Abort(error) => std::panic::panic_any(error),
            }
        }
    }

    /// Installs a resource governor, replacing any previous one. The
    /// governor budgets one unit of work: a session reset clears it.
    pub fn set_governor(&mut self, governor: ResourceGovernor) {
        self.governor = Some(governor);
    }

    /// Removes the resource governor, returning it if one was installed.
    pub fn clear_governor(&mut self) -> Option<ResourceGovernor> {
        self.governor.take()
    }

    /// The installed resource governor, if any.
    pub fn governor(&self) -> Option<&ResourceGovernor> {
        self.governor.as_ref()
    }

    /// Sets the display name of a variable.
    ///
    /// # Panics
    ///
    /// Panics if `var` is not a variable of this manager.
    pub fn set_var_name(&mut self, var: Var, name: impl Into<String>) {
        self.var_names[var.index()] = name.into();
    }

    /// Returns the display name of a variable.
    ///
    /// # Panics
    ///
    /// Panics if `var` is not a variable of this manager.
    pub fn var_name(&self, var: Var) -> &str {
        &self.var_names[var.index()]
    }

    /// Level of a node: its variable's index, or `u32::MAX` for
    /// terminals (whose arena slots carry that placeholder variable).
    #[inline]
    pub(crate) fn level(&self, id: NodeId) -> u32 {
        self.nodes[id.index()].var.0
    }

    /// Variable labelling an internal node.
    ///
    /// # Panics
    ///
    /// Panics if `id` is a terminal.
    pub(crate) fn node_var(&self, id: NodeId) -> Var {
        assert!(!id.is_terminal(), "terminal nodes carry no variable");
        self.nodes[id.index()].var
    }

    /// `(lo, hi)` children of an internal node.
    ///
    /// # Panics
    ///
    /// Panics if `id` is a terminal.
    pub(crate) fn node_children(&self, id: NodeId) -> (NodeId, NodeId) {
        assert!(!id.is_terminal(), "terminal nodes have no children");
        let n = &self.nodes[id.index()];
        (n.lo, n.hi)
    }

    /// Finds or creates the canonical node `(var, lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if `var` is ordered at or below the top
    /// variable of `lo`/`hi` (which would violate the variable order
    /// invariant).
    pub fn mk(&mut self, var: Var, lo: NodeId, hi: NodeId) -> NodeId {
        if lo == hi {
            return lo;
        }
        debug_assert!(
            var.0 < self.level(lo) && var.0 < self.level(hi),
            "mk would violate the variable order: var {:?} lo-level {} hi-level {}",
            var,
            self.level(lo),
            self.level(hi)
        );
        let id = self
            .unique
            .get_or_insert(var, lo, hi, &mut self.nodes, &mut self.free);
        self.note_alloc();
        id
    }

    /// The constant-false function.
    pub fn zero(&self) -> NodeId {
        NodeId::ZERO
    }

    /// The constant-true function.
    pub fn one(&self) -> NodeId {
        NodeId::ONE
    }

    /// The projection function of variable `var`.
    pub fn literal(&mut self, var: Var, positive: bool) -> NodeId {
        if positive {
            self.mk(var, NodeId::ZERO, NodeId::ONE)
        } else {
            self.mk(var, NodeId::ONE, NodeId::ZERO)
        }
    }

    /// Shannon cofactors of `f` with respect to the variable at the node's
    /// top level `v`: returns `(f_{v=0}, f_{v=1})`. If `v` is not the top
    /// variable of `f` both cofactors are `f` itself.
    fn top_cofactors(&self, f: NodeId, v: Var) -> (NodeId, NodeId) {
        if f.is_terminal() || self.nodes[f.index()].var != v {
            (f, f)
        } else {
            let n = &self.nodes[f.index()];
            (n.lo, n.hi)
        }
    }

    /// The if-then-else operator: `ite(f, g, h) = f·g + f'·h`.
    ///
    /// Every Boolean connective in this package is expressed via `ite`,
    /// which is memoized.
    pub(crate) fn ite(&mut self, f: NodeId, g: NodeId, h: NodeId) -> NodeId {
        // Terminal cases.
        if f.is_one() {
            return g;
        }
        if f.is_zero() {
            return h;
        }
        if g == h {
            return g;
        }
        if g.is_one() && h.is_zero() {
            return f;
        }
        if let Some(r) = self.cache.lookup(OpTag::Ite, f.0, g.0, h.0) {
            return r;
        }
        let lf = self.level(f);
        let lg = self.level(g);
        let lh = self.level(h);
        let v = Var(lf.min(lg).min(lh));
        let (f0, f1) = self.top_cofactors(f, v);
        let (g0, g1) = self.top_cofactors(g, v);
        let (h0, h1) = self.top_cofactors(h, v);
        let lo = self.ite(f0, g0, h0);
        let hi = self.ite(f1, g1, h1);
        let r = self.mk(v, lo, hi);
        self.cache.insert(OpTag::Ite, f.0, g.0, h.0, r);
        r
    }

    /// Logical negation.
    pub fn not(&mut self, f: NodeId) -> NodeId {
        self.ite(f, NodeId::ZERO, NodeId::ONE)
    }

    /// Logical conjunction.
    pub fn and(&mut self, f: NodeId, g: NodeId) -> NodeId {
        self.ite(f, g, NodeId::ZERO)
    }

    /// Logical disjunction.
    pub fn or(&mut self, f: NodeId, g: NodeId) -> NodeId {
        self.ite(f, NodeId::ONE, g)
    }

    /// Exclusive or.
    pub fn xor(&mut self, f: NodeId, g: NodeId) -> NodeId {
        let ng = self.not(g);
        self.ite(f, ng, g)
    }

    /// Logical equivalence (`xnor`).
    pub fn iff(&mut self, f: NodeId, g: NodeId) -> NodeId {
        let ng = self.not(g);
        self.ite(f, g, ng)
    }

    /// Implication `f → g`.
    pub fn implies(&mut self, f: NodeId, g: NodeId) -> NodeId {
        self.ite(f, g, NodeId::ONE)
    }

    /// Cofactor of `f` with respect to `var = value`. Memoized in the
    /// persistent operation cache under a `(f, var)` key, so repeated
    /// cofactors of shared subfunctions (the symmetry checks' hot pattern)
    /// cost one lookup after the first computation.
    pub fn cofactor(&mut self, f: NodeId, var: Var, value: bool) -> NodeId {
        self.cofactor_rec(f, var, value)
    }

    fn cofactor_rec(&mut self, f: NodeId, var: Var, value: bool) -> NodeId {
        if f.is_terminal() || self.level(f) > var.0 {
            return f;
        }
        let n = self.nodes[f.index()];
        if n.var == var {
            return if value { n.hi } else { n.lo };
        }
        let tag = if value {
            OpTag::Cofactor1
        } else {
            OpTag::Cofactor0
        };
        if let Some(r) = self.cache.lookup(tag, f.0, var.0, 0) {
            return r;
        }
        let lo = self.cofactor_rec(n.lo, var, value);
        let hi = self.cofactor_rec(n.hi, var, value);
        let r = self.mk(n.var, lo, hi);
        self.cache.insert(tag, f.0, var.0, 0, r);
        r
    }

    /// Restriction of `f` by a (possibly partial) assignment given as
    /// `(var, value)` pairs.
    ///
    /// The assignment is applied in a *single* downward pass: it is encoded
    /// as a polarity cube and the recursion walks `f` and the cube together,
    /// instead of rebuilding the DAG once per assigned variable. When a
    /// variable appears more than once, the first occurrence wins (matching
    /// the sequential-cofactor semantics this replaced: a later cofactor on
    /// an already-eliminated variable is a no-op).
    pub fn restrict_assignment(&mut self, f: NodeId, assignment: &[(Var, bool)]) -> NodeId {
        if assignment.is_empty() || f.is_terminal() {
            return f;
        }
        let mut pairs: Vec<(Var, bool)> = Vec::with_capacity(assignment.len());
        for &(v, b) in assignment {
            if !pairs.iter().any(|&(seen, _)| seen == v) {
                pairs.push((v, b));
            }
        }
        pairs.sort_unstable_by_key(|&(v, _)| v);
        let cube = self.polarity_cube(&pairs);
        self.restrict_cube_rec(f, cube)
    }

    /// Builds the cube BDD of `(var, value)` literal pairs sorted by
    /// variable (each variable at most once).
    pub(crate) fn polarity_cube(&mut self, sorted_pairs: &[(Var, bool)]) -> NodeId {
        let mut acc = NodeId::ONE;
        for &(v, positive) in sorted_pairs.iter().rev() {
            acc = if positive {
                self.mk(v, NodeId::ZERO, acc)
            } else {
                self.mk(v, acc, NodeId::ZERO)
            };
        }
        acc
    }

    /// Walks past cube variables ordered above `limit` (they cannot appear
    /// in the function being walked). Polarity-cube nodes keep their
    /// continuation in whichever child is not the 0-terminal, which also
    /// covers positive cubes (their continuation is always `hi`). Shared
    /// by restriction and quantification.
    #[inline]
    pub(crate) fn advance_cube(&self, mut cube: NodeId, limit: u32) -> NodeId {
        while self.level(cube) < limit {
            let n = &self.nodes[cube.index()];
            cube = if n.lo.is_zero() { n.hi } else { n.lo };
        }
        cube
    }

    fn restrict_cube_rec(&mut self, f: NodeId, cube: NodeId) -> NodeId {
        let cube = self.advance_cube(cube, self.level(f));
        if cube.is_one() || f.is_terminal() {
            return f;
        }
        if let Some(r) = self.cache.lookup(OpTag::RestrictCube, f.0, cube.0, 0) {
            return r;
        }
        let n = self.nodes[f.index()];
        let r = if n.var.0 == self.level(cube) {
            let c = self.nodes[cube.index()];
            let (child, rest) = if c.lo.is_zero() {
                (n.hi, c.hi)
            } else {
                (n.lo, c.lo)
            };
            self.restrict_cube_rec(child, rest)
        } else {
            let lo = self.restrict_cube_rec(n.lo, cube);
            let hi = self.restrict_cube_rec(n.hi, cube);
            self.mk(n.var, lo, hi)
        };
        self.cache.insert(OpTag::RestrictCube, f.0, cube.0, 0, r);
        r
    }

    /// Functional composition: substitutes variable `var` in `f` by `g`.
    pub fn compose(&mut self, f: NodeId, var: Var, g: NodeId) -> NodeId {
        let f1 = self.cofactor(f, var, true);
        let f0 = self.cofactor(f, var, false);
        self.ite(g, f1, f0)
    }

    /// Simultaneously exchanges two variables of `f` (i.e. computes
    /// `f` with the roles of `a` and `b` swapped).
    pub fn swap_vars(&mut self, f: NodeId, a: Var, b: Var) -> NodeId {
        if a == b {
            return f;
        }
        let f00 = self.restrict_assignment(f, &[(a, false), (b, false)]);
        let f01 = self.restrict_assignment(f, &[(a, false), (b, true)]);
        let f10 = self.restrict_assignment(f, &[(a, true), (b, false)]);
        let f11 = self.restrict_assignment(f, &[(a, true), (b, true)]);
        // g(a, b) = f(b, a): g with a=1,b=0 must equal f with a=0,b=1.
        let lit_a = self.literal(a, true);
        let lit_b = self.literal(b, true);
        let when_a1 = self.ite(lit_b, f11, f01);
        let when_a0 = self.ite(lit_b, f10, f00);
        self.ite(lit_a, when_a1, when_a0)
    }

    /// Number of distinct decision nodes in the DAG rooted at `f`
    /// (terminals excluded). This is the paper's "BDD size" cost metric.
    pub fn size(&self, f: NodeId) -> usize {
        self.count_nodes(std::slice::from_ref(&f))
    }

    /// Combined DAG size of several functions (shared nodes counted once).
    pub fn shared_size(&self, fs: &[NodeId]) -> usize {
        self.count_nodes(fs)
    }

    /// Shared DFS node count using the manager's reusable epoch-stamped
    /// visited set — no per-call allocation, and "clearing" between
    /// traversals is a counter bump rather than an arena-sized zeroing
    /// (`size` is the solvers' cost metric and runs constantly).
    fn count_nodes(&self, roots: &[NodeId]) -> usize {
        let mut seen = self.visit_scratch.borrow_mut();
        seen.begin(self.nodes.len());
        let mut stack: Vec<NodeId> = roots.to_vec();
        let mut count = 0usize;
        while let Some(id) = stack.pop() {
            if id.is_terminal() || !seen.insert(id) {
                continue;
            }
            count += 1;
            let n = &self.nodes[id.index()];
            stack.push(n.lo);
            stack.push(n.hi);
        }
        count
    }

    /// Support of `f`: the sorted list of variables it depends on.
    pub fn support(&self, f: NodeId) -> Vec<Var> {
        let mut seen = self.visit_scratch.borrow_mut();
        seen.begin(self.nodes.len());
        let mut vars = VisitedBits::new(self.var_names.len().max(1));
        let mut stack = vec![f];
        while let Some(id) = stack.pop() {
            if id.is_terminal() || !seen.insert(id) {
                continue;
            }
            let n = &self.nodes[id.index()];
            vars.mark(n.var.index());
            stack.push(n.lo);
            stack.push(n.hi);
        }
        vars.iter_set().map(Var::from).collect()
    }

    /// Evaluates `f` under a complete assignment indexed by variable.
    ///
    /// # Panics
    ///
    /// Panics if the assignment is shorter than the index of a variable
    /// encountered along the evaluation path.
    pub fn eval(&self, f: NodeId, assignment: &[bool]) -> bool {
        let mut id = f;
        while !id.is_terminal() {
            let n = &self.nodes[id.index()];
            id = if assignment[n.var.index()] {
                n.hi
            } else {
                n.lo
            };
        }
        id.is_one()
    }

    /// Clears the operation caches (the unique table is preserved, so node
    /// identity is unaffected). Useful to bound memory in long runs.
    pub fn clear_caches(&mut self) {
        self.cache.clear();
    }
}

/// Reusable visited set for the kernel's DFS traversals: one epoch stamp
/// per arena index. A traversal "clears" the set by bumping the epoch, so
/// repeated `size`/`support` queries on a large arena cost nothing to
/// reset; the stamp array grows lazily with the arena and is only zeroed
/// on the (once per 2³² traversals) epoch wrap.
pub(crate) struct VisitScratch {
    stamps: Vec<u32>,
    epoch: u32,
}

impl VisitScratch {
    pub(crate) fn new() -> Self {
        VisitScratch {
            stamps: Vec::new(),
            epoch: 0,
        }
    }

    /// Forgets every stamp (keeping the allocation); used by the session
    /// reset so scratch state cannot leak across warm reuses.
    pub(crate) fn reset(&mut self) {
        self.stamps.fill(0);
        self.epoch = 0;
    }

    /// Starts a fresh traversal over an arena of `len` nodes.
    pub(crate) fn begin(&mut self, len: usize) {
        if self.stamps.len() < len {
            self.stamps.resize(len, 0);
        }
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // Stale stamps from 2³² traversals ago would alias; reset once.
            self.stamps.fill(0);
            self.epoch = 1;
        }
    }

    /// Marks a node, returning `true` if it was unmarked this traversal.
    #[inline]
    pub(crate) fn insert(&mut self, id: NodeId) -> bool {
        let stamp = &mut self.stamps[id.index()];
        if *stamp == self.epoch {
            false
        } else {
            *stamp = self.epoch;
            true
        }
    }
}

/// A flat bit vector indexed by arena position, the visited set of the
/// kernel's DFS traversals.
pub(crate) struct VisitedBits {
    words: Vec<u64>,
}

impl VisitedBits {
    pub(crate) fn new(capacity: usize) -> Self {
        VisitedBits {
            words: vec![0u64; capacity.div_ceil(64)],
        }
    }

    /// Marks a raw index, growing the vector if needed.
    #[inline]
    pub(crate) fn mark(&mut self, index: usize) {
        let word = index >> 6;
        if word >= self.words.len() {
            self.words.resize(word + 1, 0);
        }
        self.words[word] |= 1u64 << (index & 63);
    }

    /// Marks a raw index, returning `true` if it was previously unmarked
    /// (the mark-phase visitation check of the garbage collector).
    #[inline]
    pub(crate) fn insert(&mut self, index: usize) -> bool {
        let word = index >> 6;
        if word >= self.words.len() {
            self.words.resize(word + 1, 0);
        }
        let bit = 1u64 << (index & 63);
        let fresh = self.words[word] & bit == 0;
        self.words[word] |= bit;
        fresh
    }

    /// Whether a raw index is marked (indices beyond capacity are not).
    #[inline]
    pub(crate) fn contains(&self, index: usize) -> bool {
        self.words
            .get(index >> 6)
            .is_some_and(|w| w & (1u64 << (index & 63)) != 0)
    }

    /// Iterates the set indices in ascending order.
    pub(crate) fn iter_set(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(w, &bits)| {
            (0..64)
                .filter(move |b| bits & (1u64 << b) != 0)
                .map(move |b| w * 64 + b)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mgr3() -> (BddManager, NodeId, NodeId, NodeId) {
        let mut m = BddManager::new(3);
        let a = m.literal(Var(0), true);
        let b = m.literal(Var(1), true);
        let c = m.literal(Var(2), true);
        (m, a, b, c)
    }

    #[test]
    fn terminals_are_distinct_and_fixed() {
        let m = BddManager::new(2);
        assert!(NodeId::ZERO.is_zero());
        assert!(NodeId::ONE.is_one());
        assert_ne!(m.zero(), m.one());
        assert_eq!(m.num_nodes(), 2);
    }

    #[test]
    fn mk_is_canonical() {
        let (mut m, _a, _b, _c) = mgr3();
        let n1 = m.mk(Var(1), NodeId::ZERO, NodeId::ONE);
        let n2 = m.mk(Var(1), NodeId::ZERO, NodeId::ONE);
        assert_eq!(n1, n2);
        let collapsed = m.mk(Var(0), n1, n1);
        assert_eq!(collapsed, n1);
    }

    #[test]
    fn basic_connectives_match_truth_table() {
        let (mut m, a, b, _c) = mgr3();
        let and = m.and(a, b);
        let or = m.or(a, b);
        let xor = m.xor(a, b);
        let iff = m.iff(a, b);
        let imp = m.implies(a, b);
        for va in [false, true] {
            for vb in [false, true] {
                let asg = [va, vb, false];
                assert_eq!(m.eval(and, &asg), va && vb);
                assert_eq!(m.eval(or, &asg), va || vb);
                assert_eq!(m.eval(xor, &asg), va ^ vb);
                assert_eq!(m.eval(iff, &asg), va == vb);
                assert_eq!(m.eval(imp, &asg), !va || vb);
            }
        }
    }

    #[test]
    fn double_negation_is_identity() {
        let (mut m, a, b, c) = mgr3();
        let f = m.ite(a, b, c);
        let nf = m.not(f);
        let nnf = m.not(nf);
        assert_eq!(f, nnf);
    }

    #[test]
    fn ite_of_equal_branches_collapses() {
        let (mut m, a, b, _c) = mgr3();
        assert_eq!(m.ite(a, b, b), b);
        assert_eq!(m.ite(a, NodeId::ONE, NodeId::ZERO), a);
    }

    #[test]
    fn cofactor_shannon_expansion() {
        let (mut m, a, b, c) = mgr3();
        let f = {
            let t = m.and(a, b);
            let e = m.and(c, b);
            m.or(t, e)
        };
        let f1 = m.cofactor(f, Var(0), true);
        let f0 = m.cofactor(f, Var(0), false);
        // Shannon: f = a·f1 + a'·f0
        let rebuilt = m.ite(a, f1, f0);
        assert_eq!(rebuilt, f);
        // cofactor removes the variable from the support
        assert!(!m.support(f1).contains(&Var(0)));
    }

    #[test]
    fn compose_substitutes_function() {
        let (mut m, a, b, c) = mgr3();
        // f = a xor b ; compose b := (a and c)  =>  a xor (a and c)
        let f = m.xor(a, b);
        let g = m.and(a, c);
        let h = m.compose(f, Var(1), g);
        for va in [false, true] {
            for vc in [false, true] {
                let expected = va ^ (va && vc);
                assert_eq!(m.eval(h, &[va, false, vc]), expected);
            }
        }
    }

    #[test]
    fn swap_vars_exchanges_roles() {
        let (mut m, a, b, c) = mgr3();
        // f = a and (not b) and c
        let nb = m.not(b);
        let t = m.and(a, nb);
        let f = m.and(t, c);
        let g = m.swap_vars(f, Var(0), Var(1));
        for va in [false, true] {
            for vb in [false, true] {
                for vc in [false, true] {
                    assert_eq!(m.eval(g, &[va, vb, vc]), m.eval(f, &[vb, va, vc]));
                }
            }
        }
    }

    #[test]
    fn size_counts_distinct_nodes() {
        let (mut m, a, b, c) = mgr3();
        assert_eq!(m.size(NodeId::ZERO), 0);
        assert_eq!(m.size(a), 1);
        let f = {
            let t = m.and(a, b);
            m.or(t, c)
        };
        assert!(m.size(f) >= 3);
        let total = m.shared_size(&[f, c]);
        assert_eq!(total, m.size(f), "the literal c is shared inside f");
    }

    #[test]
    fn support_is_sorted_and_minimal() {
        let (mut m, a, _b, c) = mgr3();
        let f = m.or(a, c);
        assert_eq!(m.support(f), vec![Var(0), Var(2)]);
        // b is redundant in (a·b + a·b')
        let b = m.literal(Var(1), true);
        let nb = m.not(b);
        let t1 = m.and(a, b);
        let t2 = m.and(a, nb);
        let g = m.or(t1, t2);
        assert_eq!(m.support(g), vec![Var(0)]);
        assert_eq!(g, a);
    }

    #[test]
    fn var_names() {
        let mut m = BddManager::new(1);
        assert_eq!(m.var_name(Var(0)), "x0");
        m.set_var_name(Var(0), "data");
        assert_eq!(m.var_name(Var(0)), "data");
        assert_eq!(m.num_vars(), 1);
    }

    #[test]
    fn clear_caches_preserves_results() {
        let (mut m, a, b, _c) = mgr3();
        let f = m.and(a, b);
        m.clear_caches();
        let g = m.and(a, b);
        assert_eq!(f, g, "canonical nodes survive cache clearing");
    }

    #[test]
    fn a_grown_then_reset_manager_builds_identical_nodes() {
        let mut small = BddManager::with_config(4, BddConfig::new());
        let mut big = BddManager::with_config(16, BddConfig::new());
        // Enough distinct pair functions to grow the unique table.
        for i in 0..16u32 {
            for j in i + 1..16 {
                let (a, b) = (big.literal(Var(i), true), big.literal(Var(j), false));
                let _ = big.xor(a, b);
                let _ = big.and(a, b);
            }
        }
        assert!(big.cache_stats().unique_capacity > small.cache_stats().unique_capacity);
        assert!(big.reset(4, BddConfig::new()));
        for vars in [(0u32, 1u32), (1, 2), (2, 3), (0, 3)] {
            let (a, b) = (
                small.literal(Var(vars.0), true),
                small.literal(Var(vars.1), true),
            );
            let f = small.xor(a, b);
            let (a2, b2) = (
                big.literal(Var(vars.0), true),
                big.literal(Var(vars.1), true),
            );
            let g = big.xor(a2, b2);
            assert_eq!(f, g, "a table's growth history never changes node identity");
        }
        assert_eq!(
            big.cache_stats().unique_capacity,
            small.cache_stats().unique_capacity,
            "a reset table is back at the cold capacity"
        );
    }

    #[test]
    fn cache_stats_count_hits_and_lookups() {
        let (mut m, a, b, _c) = mgr3();
        let before = m.cache_stats();
        let f = m.and(a, b);
        let mid = m.cache_stats();
        assert!(mid.cache_lookups > before.cache_lookups);
        // The identical operation is now a pure cache hit.
        let g = m.and(a, b);
        assert_eq!(f, g);
        let after = m.cache_stats();
        assert_eq!(after.cache_hits, mid.cache_hits + 1);
        assert_eq!(after.cache_inserts, mid.cache_inserts);
        let delta = after.delta_since(&before);
        assert!(delta.cache_hit_rate() > 0.0);
        assert!(after.unique_load_factor() > 0.0);
        assert_eq!(after.num_nodes as usize, m.num_nodes());
    }

    #[test]
    fn tiny_op_cache_still_computes_correctly() {
        let mut m = BddManager::new(4);
        m.resize_op_cache(2);
        let mut reference = BddManager::new(4);
        // A chain of operations that overflows a 2-slot cache constantly.
        let mut f = m.literal(Var(0), true);
        let mut g = reference.literal(Var(0), true);
        for i in 1..4u32 {
            let a = m.literal(Var(i), true);
            f = m.xor(f, a);
            let na = m.not(a);
            f = m.or(f, na);
            let b = reference.literal(Var(i), true);
            g = reference.xor(g, b);
            let nb = reference.not(b);
            g = reference.or(g, nb);
        }
        for bits in 0..16u32 {
            let asg: Vec<bool> = (0..4).map(|k| bits & (1 << k) != 0).collect();
            assert_eq!(m.eval(f, &asg), reference.eval(g, &asg));
        }
        assert!(m.cache_stats().cache_evictions > 0 || m.cache_stats().cache_slots > 2);
    }

    #[test]
    fn restrict_assignment_matches_chained_cofactors() {
        let (mut m, a, b, c) = mgr3();
        let t = m.and(a, b);
        let f = m.or(t, c);
        let assignment = [(Var(0), true), (Var(2), false)];
        let direct = m.restrict_assignment(f, &assignment);
        let mut chained = f;
        for &(v, val) in &assignment {
            chained = m.cofactor(chained, v, val);
        }
        assert_eq!(direct, chained);
        // First occurrence of a duplicated variable wins.
        let dup = m.restrict_assignment(f, &[(Var(0), true), (Var(0), false)]);
        let first = m.cofactor(f, Var(0), true);
        assert_eq!(dup, first);
        assert_eq!(m.restrict_assignment(f, &[]), f);
    }
}
