//! The redesigned handle layer: an owning, `Send` session and slot-indexed
//! function handles.
//!
//! [`BddSession`] owns a [`BddManager`] behind `Arc<Mutex<..>>`; [`Bdd`]
//! pairs a *root-table slot index* with its session so Boolean functions
//! can be passed around as ordinary values. All the operations of the raw
//! manager are mirrored here; the higher-level crates (`brel-relation`,
//! `brel-core`, `brel-network`) exclusively use these handles.
//!
//! Both types are `Send`: a session (and every handle derived from it) can
//! move to another thread, which is what lets the engine's worker pool
//! keep *warm* per-worker managers alive across jobs instead of
//! rehydrating into cold ones. The lock is not a concurrency strategy —
//! the solvers drive one session from one thread at a time — it is the
//! memory-safety fence that makes the move legal. Lock poisoning is
//! deliberately ignored by the handle API (a panicking operation, e.g.
//! `constrain` on an empty care set, must not wedge every subsequent
//! handle drop).
//!
//! The handles are also the kernel's *rooting discipline*: every `Bdd`
//! registers an external reference in the manager's root table when it is
//! created (and when it is cloned) and releases it when dropped, so the
//! garbage collector knows exactly which functions are externally alive.
//! A `Bdd` stores a root-table *slot*, not a raw [`NodeId`]; it resolves
//! the current id on use. Every operation that
//! returns a `Bdd` passes a GC safe point after the result is rooted — the
//! only moments automatic collection actually runs.
//!
//! Because the manager sits behind one non-reentrant lock, every mirrored
//! operation resolves its operand node ids *before* taking the lock; the
//! ids stay valid in between because the operand handles themselves keep
//! them rooted.

use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::{BitAnd, BitOr, BitXor, Not};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use crate::cache::CacheStats;
use crate::config::BddConfig;
use crate::gc::GcStats;
use crate::governor::ResourceGovernor;
use crate::isop::IsopResult;
use crate::manager::{BddManager, NodeId, Var};
use crate::paths::PathCube;

/// One coherent snapshot of every kernel counter, taken under a single
/// lock acquisition by [`BddSession::stats_snapshot`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct KernelSnapshot {
    /// Cache and unique-table counters.
    pub cache: CacheStats,
    /// Lifecycle (GC) counters.
    pub gc: GcStats,
}

/// An owning, clonable, `Send` handle to a [`BddManager`].
///
/// Cloning the session does not copy the node store; all clones refer to
/// the same manager. Lifecycle tuning (automatic GC and its threshold) is
/// fixed at construction through [`BddConfig`] — the former
/// `BddMgr` knob setters are gone — and can only change wholesale through
/// [`BddSession::reset`].
#[derive(Clone)]
pub struct BddSession {
    core: Arc<Mutex<BddManager>>,
}

impl fmt::Debug for BddSession {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let m = self.lock();
        write!(
            f,
            "BddSession(vars={}, nodes={})",
            m.num_vars(),
            m.num_nodes()
        )
    }
}

impl BddSession {
    /// Creates a session with `num_vars` variables named `x0..`, tuned by
    /// [`BddConfig::from_env`].
    pub fn new(num_vars: usize) -> Self {
        Self::from_manager(BddManager::new(num_vars))
    }

    /// Creates a session with an explicit lifecycle configuration.
    pub fn with_config(num_vars: usize, config: BddConfig) -> Self {
        Self::from_manager(BddManager::with_config(num_vars, config))
    }

    /// Wraps an already-built raw manager in a session.
    fn from_manager(manager: BddManager) -> Self {
        BddSession {
            core: Arc::new(Mutex::new(manager)),
        }
    }

    /// Locks the manager, ignoring poisoning: the manager's invariants are
    /// maintained eagerly (no operation leaves it half-updated at a panic
    /// point), and handle drops during unwinding must still be able to
    /// release their root slots.
    pub(crate) fn lock(&self) -> MutexGuard<'_, BddManager> {
        self.core.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Rewinds the session to the state a cold
    /// `BddSession::with_config(num_vars, config)` would start in, while
    /// keeping the manager's allocations warm (arena, unique-table and
    /// op-cache slabs are reused). Returns `false` — changing nothing — if
    /// any `Bdd` handle of this session is still alive. See
    /// [`BddManager::reset`] for the exact guarantees.
    pub fn reset(&self, num_vars: usize, config: BddConfig) -> bool {
        self.lock().reset(num_vars, config)
    }

    /// The lifecycle configuration currently in force.
    pub fn config(&self) -> BddConfig {
        self.lock().config()
    }

    /// The kernel's cumulative cache/unique-table counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.lock().cache_stats()
    }

    /// The kernel's lifecycle counters (collections, reclaimed nodes, live
    /// and peak live nodes).
    pub fn gc_stats(&self) -> GcStats {
        self.lock().gc_stats()
    }

    /// Every kernel counter in one lock acquisition — equivalent to
    /// calling [`BddSession::cache_stats`] and [`BddSession::gc_stats`]
    /// back to back, but atomically and at half the locking cost. The
    /// engine's per-backend delta computation uses this.
    pub fn stats_snapshot(&self) -> KernelSnapshot {
        let m = self.lock();
        KernelSnapshot {
            cache: m.cache_stats(),
            gc: m.gc_stats(),
        }
    }

    /// Installs a [`ResourceGovernor`] on the underlying manager: every
    /// subsequent node allocation is checked against its live-node quota
    /// and deadline, and a blown budget unwinds with a typed
    /// [`crate::BddError`] payload (catch it at the work boundary with
    /// [`std::panic::catch_unwind`] and downcast). Replaces any previous governor;
    /// cleared by [`BddSession::clear_governor`] and by a session reset.
    pub fn set_governor(&self, governor: ResourceGovernor) {
        self.lock().set_governor(governor);
    }

    /// Removes the session's resource governor, returning it if installed.
    pub fn clear_governor(&self) -> Option<ResourceGovernor> {
        self.lock().clear_governor()
    }

    /// Runs a mark-and-sweep collection now; returns reclaimed node count.
    pub fn collect_garbage(&self) -> usize {
        self.lock().collect_garbage()
    }

    /// Re-bases the `peak_live_nodes` gauge to the current live count.
    pub fn reset_peak_live_nodes(&self) {
        self.lock().reset_peak_live_nodes();
    }

    /// Decision nodes currently allocated (arena minus free list).
    pub fn live_nodes(&self) -> usize {
        self.lock().live_nodes()
    }

    /// Live external root slots (one per distinct `Bdd` lineage).
    #[cfg(test)]
    fn live_roots(&self) -> usize {
        self.lock().roots.live_roots()
    }

    /// Returns `true` if two handles refer to the same underlying manager.
    fn same_manager(&self, other: &BddSession) -> bool {
        Arc::ptr_eq(&self.core, &other.core)
    }

    fn wrap(&self, id: NodeId) -> Bdd {
        self.apply(|_| id)
    }

    /// Runs a closure on the raw manager and returns the node it produces
    /// as a rooted handle, holding the session lock from the closure
    /// through the root retain.
    ///
    /// This is the safe way to wrap a raw result. A raw id is unrooted
    /// until it is retained: once the lock that computed it is released,
    /// another thread's GC safe point on this session can sweep the node.
    /// The same non-reentrancy contract as [`BddSession::with`] applies.
    pub fn apply(&self, op: impl FnOnce(&mut BddManager) -> NodeId) -> Bdd {
        let slot = {
            let mut m = self.lock();
            let id = op(&mut m);
            let slot = m.roots.retain(id);
            // The GC safe point: the result is rooted, no raw intermediate
            // id is live, so a pending sweep may run.
            m.maybe_gc();
            slot
        };
        Bdd {
            session: self.clone(),
            slot,
        }
    }

    /// Runs a closure with mutable access to the raw manager.
    ///
    /// The closure runs with the session lock held, and the lock is not
    /// reentrant: calling *any* handle or session method inside it — even
    /// [`Bdd::node_id`], or dropping a `Bdd` — deadlocks. Resolve operand
    /// ids with [`Bdd::node_id`] *before* calling `with` and work on raw
    /// [`NodeId`]s inside. To keep a raw result, return it through
    /// [`BddSession::apply`] instead, which roots it before the lock is
    /// released.
    pub fn with<R>(&self, f: impl FnOnce(&mut BddManager) -> R) -> R {
        f(&mut self.lock())
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.lock().num_vars()
    }

    /// Number of allocated nodes (a proxy for memory usage).
    pub fn num_nodes(&self) -> usize {
        self.lock().num_nodes()
    }

    /// The constant-false function.
    pub fn zero(&self) -> Bdd {
        self.wrap(NodeId::ZERO)
    }

    /// The constant-true function.
    pub fn one(&self) -> Bdd {
        self.wrap(NodeId::ONE)
    }

    /// The projection function of variable `var`.
    pub fn var(&self, var: impl Into<Var>) -> Bdd {
        let v = var.into();
        self.apply(|m| m.literal(v, true))
    }

    /// The complemented projection function of variable `var`.
    fn nvar(&self, var: impl Into<Var>) -> Bdd {
        let v = var.into();
        self.apply(|m| m.literal(v, false))
    }

    /// Display name of a variable.
    pub fn var_name(&self, var: Var) -> String {
        self.lock().var_name(var).to_string()
    }

    /// Renames a variable.
    pub fn set_var_name(&self, var: Var, name: impl Into<String>) {
        self.lock().set_var_name(var, name);
    }

    /// Builds the BDD of a cube given as `(variable, polarity)` pairs.
    pub fn cube(&self, literals: &[(Var, bool)]) -> Bdd {
        let mut acc = self.one();
        for &(v, pos) in literals {
            let lit = if pos { self.var(v) } else { self.nvar(v) };
            acc = acc.and(&lit);
        }
        acc
    }

    /// Builds the minterm BDD of a complete assignment.
    pub fn minterm(&self, assignment: &[bool]) -> Bdd {
        let literals: Vec<(Var, bool)> = assignment
            .iter()
            .enumerate()
            .map(|(i, &b)| (Var(i as u32), b))
            .collect();
        self.cube(&literals)
    }

    /// Combined DAG size of several functions (shared nodes counted once).
    pub fn shared_size(&self, fs: &[Bdd]) -> usize {
        let ids: Vec<NodeId> = fs.iter().map(|f| f.node_id()).collect();
        self.lock().shared_size(&ids)
    }

    /// Copies a function from another session into this one by structural
    /// DAG rebuild: the source's nodes are read out bottom-up (one
    /// [`BddManager::mk`] per node, memoized on the source id), so the
    /// copy is `O(|f|)` with no apply-cache traffic and no enumeration.
    /// Importing a function of this session is just a clone.
    ///
    /// Every session orders its variables by index, so the copy denotes
    /// the same function over the same variables. The two locks are taken
    /// one after the other, never nested — source to read the DAG, this
    /// session to rebuild — so concurrent imports between any pair of
    /// sessions cannot deadlock.
    ///
    /// # Panics
    ///
    /// Panics if the sessions disagree on the number of variables.
    pub fn import(&self, f: &Bdd) -> Bdd {
        if self.same_manager(f.manager()) {
            return f.clone();
        }
        assert_eq!(
            self.num_vars(),
            f.manager().num_vars(),
            "import between sessions of different variable counts"
        );
        let root = f.node_id();
        if root.is_terminal() {
            return self.wrap(root);
        }
        // Phase 1: read the DAG out of the source in postorder (children
        // before parents), under the source lock only.
        let nodes: Vec<(NodeId, Var, NodeId, NodeId)> = f.manager().with(|src| {
            let mut order = Vec::new();
            let mut visited = std::collections::HashSet::new();
            let mut stack = vec![(root, false)];
            while let Some((id, expanded)) = stack.pop() {
                if id.is_terminal() {
                    continue;
                }
                let (lo, hi) = src.node_children(id);
                if expanded {
                    order.push((id, src.node_var(id), lo, hi));
                } else if visited.insert(id) {
                    stack.push((id, true));
                    stack.push((lo, false));
                    stack.push((hi, false));
                }
            }
            order
        });
        // Phase 2: rebuild bottom-up under this session's lock. Terminals
        // are the same ids in every manager; internal nodes resolve
        // through the memo (postorder guarantees children come first).
        self.apply(|dst| {
            let mut memo: std::collections::HashMap<NodeId, NodeId> =
                std::collections::HashMap::with_capacity(nodes.len());
            let resolve = |memo: &std::collections::HashMap<NodeId, NodeId>, id: NodeId| {
                if id.is_terminal() {
                    id
                } else {
                    memo[&id]
                }
            };
            for &(id, var, lo, hi) in &nodes {
                let lo = resolve(&memo, lo);
                let hi = resolve(&memo, hi);
                memo.insert(id, dst.mk(var, lo, hi));
            }
            memo[&root]
        })
    }

    /// Clears the operation caches of the underlying manager.
    pub fn clear_caches(&self) {
        self.lock().clear_caches();
    }
}

/// A Boolean function: a rooted slot index paired with its session.
///
/// Creating, cloning and dropping a `Bdd` registers/releases an external
/// reference in the manager's root table, which is what keeps the function
/// alive across garbage collections. The handle stores a root-table slot
/// rather than a raw node id. Like its session, a `Bdd` is `Send`.
pub struct Bdd {
    session: BddSession,
    slot: u32,
}

impl Clone for Bdd {
    fn clone(&self) -> Bdd {
        self.session.lock().roots.retain_slot(self.slot);
        Bdd {
            session: self.session.clone(),
            slot: self.slot,
        }
    }
}

impl Drop for Bdd {
    fn drop(&mut self) {
        self.session.lock().roots.release(self.slot);
    }
}

impl fmt::Debug for Bdd {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Bdd(node={}, size={})",
            self.node_id().index(),
            self.size()
        )
    }
}

impl PartialEq for Bdd {
    fn eq(&self, other: &Self) -> bool {
        self.session.same_manager(&other.session) && self.node_id() == other.node_id()
    }
}

impl Eq for Bdd {}

impl Hash for Bdd {
    /// Hashes the current node id; canonicity makes this consistent with
    /// equality.
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.node_id().hash(state);
    }
}

impl Bdd {
    fn assert_same_mgr(&self, other: &Bdd) {
        assert!(
            self.session.same_manager(&other.session),
            "operands belong to different BDD managers"
        );
    }

    /// Applies a kernel operation to this function's node; see
    /// [`BddSession::apply`].
    fn unary(&self, op: impl FnOnce(&mut BddManager, NodeId) -> NodeId) -> Bdd {
        self.session.apply(|m| {
            let f = m.roots.node_of(self.slot);
            op(m, f)
        })
    }

    /// Applies a kernel operation to this function's and `other`'s nodes;
    /// see [`BddSession::apply`].
    fn binary(
        &self,
        other: &Bdd,
        op: impl FnOnce(&mut BddManager, NodeId, NodeId) -> NodeId,
    ) -> Bdd {
        self.assert_same_mgr(other);
        self.session.apply(|m| {
            let (f, g) = (m.roots.node_of(self.slot), m.roots.node_of(other.slot));
            op(m, f, g)
        })
    }

    /// The session this function belongs to.
    pub(crate) fn manager(&self) -> &BddSession {
        &self.session
    }

    /// The raw node identifier the handle currently resolves to.
    ///
    /// Operations that sweep preserve it. It is not rooted:
    /// return a result built from it through [`BddSession::apply`] if it
    /// must survive further handle operations — unrooted ids are subject
    /// to garbage collection.
    pub fn node_id(&self) -> NodeId {
        self.session.lock().roots.node_of(self.slot)
    }

    /// Returns `true` for the constant-false function.
    pub fn is_zero(&self) -> bool {
        self.node_id().is_zero()
    }

    /// Returns `true` for the constant-true function.
    pub fn is_one(&self) -> bool {
        self.node_id().is_one()
    }

    /// DAG size (number of decision nodes); the paper's BDD-size cost.
    pub fn size(&self) -> usize {
        let f = self.node_id();
        self.session.lock().size(f)
    }

    /// Conjunction.
    pub fn and(&self, other: &Bdd) -> Bdd {
        self.binary(other, BddManager::and)
    }

    /// Disjunction.
    pub fn or(&self, other: &Bdd) -> Bdd {
        self.binary(other, BddManager::or)
    }

    /// Exclusive or.
    pub fn xor(&self, other: &Bdd) -> Bdd {
        self.binary(other, BddManager::xor)
    }

    /// Equivalence (`xnor`).
    pub fn iff(&self, other: &Bdd) -> Bdd {
        self.binary(other, BddManager::iff)
    }

    /// Implication `self → other`.
    pub fn implies(&self, other: &Bdd) -> Bdd {
        self.binary(other, BddManager::implies)
    }

    /// Returns `true` if `self → other` is a tautology (set inclusion of the
    /// onsets).
    pub fn is_subset_of(&self, other: &Bdd) -> bool {
        self.implies(other).is_one()
    }

    /// Negation.
    pub fn complement(&self) -> Bdd {
        self.unary(BddManager::not)
    }

    /// Set difference `self · ¬other`.
    pub fn diff(&self, other: &Bdd) -> Bdd {
        self.and(&other.complement())
    }

    /// Shannon cofactor with respect to `var = value`.
    pub fn cofactor(&self, var: Var, value: bool) -> Bdd {
        self.unary(|m, f| m.cofactor(f, var, value))
    }

    /// Restriction by a partial assignment.
    pub fn restrict_assignment(&self, assignment: &[(Var, bool)]) -> Bdd {
        self.unary(|m, f| m.restrict_assignment(f, assignment))
    }

    /// Functional composition: substitute `var` by `g`.
    pub fn compose(&self, var: Var, g: &Bdd) -> Bdd {
        self.binary(g, |m, f, gid| m.compose(f, var, gid))
    }

    /// Exchanges two variables.
    pub fn swap_vars(&self, a: Var, b: Var) -> Bdd {
        self.unary(|m, f| m.swap_vars(f, a, b))
    }

    /// Existential quantification of `vars`.
    pub fn exists(&self, vars: &[Var]) -> Bdd {
        self.unary(|m, f| {
            let _op = brel_obs::span(brel_obs::Category::KernelOp, "quantify");
            m.exists_many(f, vars)
        })
    }

    /// Universal quantification of `vars`.
    pub fn forall(&self, vars: &[Var]) -> Bdd {
        self.unary(|m, f| {
            let _op = brel_obs::span(brel_obs::Category::KernelOp, "quantify");
            m.forall_many(f, vars)
        })
    }

    /// The `constrain` generalized cofactor.
    ///
    /// # Panics
    ///
    /// Panics if `care` is the constant-false function.
    pub fn constrain(&self, care: &Bdd) -> Bdd {
        self.binary(care, BddManager::constrain)
    }

    /// The `restrict` generalized cofactor.
    ///
    /// # Panics
    ///
    /// Panics if `care` is the constant-false function.
    pub fn restrict(&self, care: &Bdd) -> Bdd {
        self.binary(care, BddManager::restrict)
    }

    /// Safe (never-growing) don't-care minimization.
    ///
    /// # Panics
    ///
    /// Panics if `care` is the constant-false function.
    pub fn li_compact(&self, care: &Bdd) -> Bdd {
        self.binary(care, BddManager::li_compact)
    }

    /// Minato–Morreale ISOP of a completely specified function.
    pub fn isop(&self) -> IsopResult {
        let f = self.node_id();
        let _op = brel_obs::span(brel_obs::Category::KernelOp, "isop");
        self.session.lock().isop_exact(f)
    }

    /// Support: sorted list of variables the function depends on.
    pub fn support(&self) -> Vec<Var> {
        let f = self.node_id();
        self.session.lock().support(f)
    }

    /// Evaluates the function under a complete assignment.
    pub fn eval(&self, assignment: &[bool]) -> bool {
        let f = self.node_id();
        self.session.lock().eval(f, assignment)
    }

    /// Number of satisfying assignments over `num_vars` variables.
    pub fn sat_count(&self, num_vars: usize) -> u128 {
        let f = self.node_id();
        self.session.lock().sat_count(f, num_vars)
    }

    /// Calls `visit` on every satisfying assignment over `num_vars`
    /// variables, packed with `x0` in the most significant bit, in
    /// ascending order; see [`BddManager::for_each_minterm`]. `visit` runs
    /// under the session lock, so it must not touch this session.
    pub fn for_each_minterm(&self, num_vars: usize, visit: impl FnMut(u64)) {
        let f = self.node_id();
        self.session.lock().for_each_minterm(f, num_vars, visit);
    }

    /// The cube with the fewest literals reaching the 1-terminal, or `None`
    /// if the function is unsatisfiable.
    pub fn shortest_path(&self) -> Option<PathCube> {
        let f = self.node_id();
        self.session.lock().shortest_path(f)
    }

    /// One satisfying cube, or `None` if unsatisfiable.
    pub fn pick_cube(&self) -> Option<PathCube> {
        let f = self.node_id();
        self.session.lock().pick_cube(f)
    }
}

impl BitAnd for &Bdd {
    type Output = Bdd;
    fn bitand(self, rhs: &Bdd) -> Bdd {
        self.and(rhs)
    }
}

impl BitOr for &Bdd {
    type Output = Bdd;
    fn bitor(self, rhs: &Bdd) -> Bdd {
        self.or(rhs)
    }
}

impl BitXor for &Bdd {
    type Output = Bdd;
    fn bitxor(self, rhs: &Bdd) -> Bdd {
        self.xor(rhs)
    }
}

impl Not for &Bdd {
    type Output = Bdd;
    fn not(self) -> Bdd {
        self.complement()
    }
}

impl BitAnd for Bdd {
    type Output = Bdd;
    fn bitand(self, rhs: Bdd) -> Bdd {
        self.and(&rhs)
    }
}

impl BitOr for Bdd {
    type Output = Bdd;
    fn bitor(self, rhs: Bdd) -> Bdd {
        self.or(&rhs)
    }
}

impl BitXor for Bdd {
    type Output = Bdd;
    fn bitxor(self, rhs: Bdd) -> Bdd {
        self.xor(&rhs)
    }
}

impl Not for Bdd {
    type Output = Bdd;
    fn not(self) -> Bdd {
        self.complement()
    }
}

/// Compile-time proof that the whole handle stack crosses threads: the
/// engine moves warm sessions (and rehydrated handles) between pool
/// workers.
#[allow(dead_code)]
fn _assert_kernel_is_send() {
    fn assert_send<T: Send>() {}
    assert_send::<BddManager>();
    assert_send::<BddSession>();
    assert_send::<Bdd>();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn session_and_handles_are_send() {
        fn assert_send<T: Send>() {}
        assert_send::<BddManager>();
        assert_send::<BddSession>();
        assert_send::<Bdd>();
    }

    #[test]
    fn a_session_moves_between_threads() {
        let session = BddSession::new(3);
        let f = session.var(0).and(&session.var(1));
        let (session, f) = std::thread::spawn(move || {
            let g = f.or(&session.var(2));
            assert!(g.eval(&[false, false, true]));
            (session, f)
        })
        .join()
        .unwrap();
        assert!(f.eval(&[true, true, false]));
        assert_eq!(session.num_vars(), 3);
    }

    #[test]
    fn concurrent_ops_on_one_session_keep_their_results() {
        // Two threads share one session whose GC runs at every safe point.
        // An operation's result must be rooted before another thread's
        // safe point can sweep it.
        let session = BddSession::with_config(8, BddConfig::new().gc_min_nodes(1));
        let workers: Vec<_> = (0..2u32)
            .map(|t| {
                let session = session.clone();
                std::thread::spawn(move || {
                    for round in 0..4000u32 {
                        let mut f = session.zero();
                        let mut parity = [false; 8];
                        for k in 0..4 {
                            let v = ((round + t + k * 3) % 8) as usize;
                            f = f.xor(&session.var(Var(v as u32)));
                            parity[v] ^= true;
                        }
                        let assignment: Vec<bool> = (0..8).map(|i| (round >> i) & 1 == 1).collect();
                        let want = parity
                            .iter()
                            .zip(&assignment)
                            .filter(|(p, a)| **p && **a)
                            .count()
                            % 2
                            == 1;
                        assert_eq!(f.eval(&assignment), want, "thread {t} round {round}");
                    }
                })
            })
            .collect();
        for worker in workers {
            worker.join().unwrap();
        }
    }

    #[test]
    fn import_copies_functions_across_sessions() {
        let a = BddSession::new(5);
        let b = BddSession::new(5);
        // A function with sharing and both polarities of several vars.
        let f = (a.var(0).xor(&a.var(1)))
            .or(&a.var(2).and(&a.nvar(3)))
            .iff(&a.var(4));
        let g = b.import(&f);
        assert!(g.manager().same_manager(&b));
        assert_eq!(g.size(), f.size(), "canonical copy preserves DAG size");
        for bits in 0..32u32 {
            let assignment: Vec<bool> = (0..5).map(|i| bits & (1 << i) != 0).collect();
            assert_eq!(f.eval(&assignment), g.eval(&assignment), "{assignment:?}");
        }
        // Terminals and same-session imports are trivial.
        assert!(b.import(&a.one()).is_one());
        assert!(b.import(&a.zero()).is_zero());
        assert_eq!(b.import(&g), g);
    }

    #[test]
    fn reset_rewinds_to_cold_state() {
        let session = BddSession::with_config(4, BddConfig::new());
        let junk = session.var(0).xor(&session.var(1)).or(&session.var(2));
        assert!(
            !session.reset(4, BddConfig::new()),
            "live handle blocks reset"
        );
        drop(junk);
        assert!(session.reset(6, BddConfig::new()));
        assert_eq!(session.num_vars(), 6);
        assert_eq!(session.num_nodes(), 2, "only terminals survive a reset");
        assert_eq!(session.live_roots(), 0);
        // The reset session is fully usable with the new variable count.
        let f = session.var(5).and(&session.var(0));
        assert!(f.eval(&[true, false, false, false, false, true]));
    }

    #[test]
    fn reset_matches_cold_gauges() {
        // A workload of repeated conjunctions over sums of products: the
        // repeats hit the op cache often enough that it grows.
        fn workload(session: &BddSession, rounds: usize) {
            let terms: Vec<Bdd> = (0..8u32)
                .map(|i| session.var(i).and(&session.var((i + 3) % 8)))
                .collect();
            let sums: Vec<Bdd> = (0..8)
                .map(|i| terms[i].or(&terms[(i + 1) % 8]).xor(&terms[(i + 5) % 8]))
                .collect();
            for _ in 0..rounds {
                for (i, f) in sums.iter().enumerate() {
                    let _ = f.and(&sums[(i + 2) % 8]).or(&terms[i]);
                }
            }
            // Growth is checked on a miss: end on fresh work.
            let _ = sums.iter().fold(session.zero(), |acc, f| acc.xor(f));
        }
        let warm = BddSession::with_config(8, BddConfig::new());
        let (cold_slots, cold_capacity) = (
            warm.cache_stats().cache_slots,
            warm.cache_stats().unique_capacity,
        );
        workload(&warm, 400);
        assert!(
            warm.cache_stats().cache_slots > cold_slots,
            "the workload must grow the op cache before the reset"
        );
        assert!(
            warm.cache_stats().unique_capacity > cold_capacity,
            "the workload must grow the unique table before the reset"
        );
        assert!(warm.reset(8, BddConfig::new()));
        let cold = BddSession::with_config(8, BddConfig::new());
        let (ws, cs) = (warm.cache_stats(), cold.cache_stats());
        assert_eq!(ws.unique_len, cs.unique_len);
        assert_eq!(ws.unique_capacity, cs.unique_capacity);
        assert_eq!(ws.cache_slots, cs.cache_slots);
        assert_eq!(ws.num_nodes, cs.num_nodes);
        // And the two sessions now do identical kernel work for the same
        // follow-up ops, growth included: every counter delta and gauge
        // agrees, after a short run (a carried-over growth window would
        // grow the warm cache early) and after a long one.
        for rounds in [1, 400] {
            workload(&warm, rounds);
            workload(&cold, rounds);
            assert_eq!(
                warm.cache_stats().delta_since(&ws),
                cold.cache_stats().delta_since(&cs),
                "after {rounds} rounds"
            );
        }
        assert!(cold.cache_stats().cache_slots > cold_slots);
        assert_eq!(warm.num_nodes(), cold.num_nodes());
    }

    #[test]
    fn poisoned_sessions_recover() {
        let session = BddSession::new(2);
        let a = session.var(0);
        let zero = session.zero();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = a.constrain(&zero); // panics while holding the lock
        }));
        assert!(result.is_err());
        // The lock is poisoned now; handle traffic must still work.
        let b = session.var(1);
        assert!(a.or(&b).eval(&[true, false]));
        assert_eq!(session.with(|m| m.num_vars()), 2);
        drop((a, b, zero));
        assert_eq!(session.live_roots(), 0);
    }

    /// Runs `f` and returns the governor abort it unwinds with, if any:
    /// the catch-and-downcast every governed caller does at its boundary.
    fn catch_abort<R>(f: impl FnOnce() -> R) -> Result<R, crate::BddError> {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).map_err(|payload| {
            *payload
                .downcast::<crate::BddError>()
                .expect("a governed operation unwinds only with a BddError")
        })
    }

    #[test]
    fn governed_session_aborts_when_a_sweep_cannot_help() {
        use crate::governor::{BddError, ResourceGovernor};
        // Everything stays rooted, so the quota's GC-first attempt reclaims
        // nothing and the abort must fire.
        let session = BddSession::with_config(16, BddConfig::new().gc_min_nodes(16));
        session.set_governor(ResourceGovernor::new().with_max_live_nodes(8));
        let result = catch_abort(|| {
            let mut rooted = Vec::new();
            let mut f = session.var(0);
            for i in 1..16u32 {
                f = f.xor(&session.var(i));
                rooted.push(f.clone());
            }
            rooted.len()
        });
        assert!(
            matches!(result, Err(BddError::QuotaExceeded { .. })),
            "rooted growth past the quota must abort, got {result:?}"
        );
        // The manager survived the unwind structurally intact: new handle
        // traffic works and the governor can be cleared.
        assert!(session.clear_governor().is_some());
        let a = session.var(0);
        let b = session.var(1);
        assert!(a.or(&b).eval(&[true, false]));
    }

    #[test]
    fn governed_session_survives_when_gc_reclaims_enough() {
        use crate::governor::ResourceGovernor;
        // The same amount of churn, but nothing stays rooted: every trip's
        // sweep reclaims the garbage, so the quota never aborts.
        let session = BddSession::with_config(16, BddConfig::new().gc_min_nodes(16));
        session.set_governor(ResourceGovernor::new().with_max_live_nodes(64));
        let result = catch_abort(|| {
            for round in 0..32u32 {
                let mut f = session.var(round % 16);
                for i in 0..16u32 {
                    f = f.xor(&session.var(i));
                }
                // `f` drops here; the next safe point can reclaim its cone.
            }
            session.live_nodes()
        });
        let live = result.expect("reclaimable churn must stay under quota");
        assert!(live <= 64 * 2 + 2, "live nodes stayed bounded, got {live}");
        session.clear_governor();
    }

    #[test]
    fn governed_session_honours_an_expired_deadline() {
        use crate::governor::{BddError, ResourceGovernor};
        let session = BddSession::new(20);
        session.set_governor(ResourceGovernor::new().with_deadline_at(std::time::Instant::now()));
        let result = catch_abort(|| {
            // Enough allocations to pass several deadline-check intervals.
            let mut rooted = Vec::new();
            let mut f = session.var(0);
            for round in 0..64u32 {
                for i in 0..20u32 {
                    f = f.xor(&session.var((i + round) % 20)).or(&session.var(i));
                    rooted.push(f.clone());
                }
            }
            rooted.len()
        });
        assert!(
            matches!(result, Err(BddError::DeadlineExceeded { .. })),
            "an already-expired deadline must abort, got {result:?}"
        );
        session.clear_governor();
    }

    #[test]
    fn session_reset_clears_the_governor() {
        use crate::governor::ResourceGovernor;
        let session = BddSession::new(2);
        session.set_governor(ResourceGovernor::new().with_max_live_nodes(1));
        assert!(session.reset(2, BddConfig::new()));
        // Were the governor still installed, this rooted growth past one
        // live node would abort (and poison the test with a panic).
        let a = session.var(0);
        let b = session.var(1);
        let f = a.and(&b).or(&a.xor(&b));
        assert!(f.eval(&[true, false]));
        assert!(session.clear_governor().is_none());
    }

    #[test]
    fn operators_match_methods() {
        let mgr = BddSession::new(2);
        let a = mgr.var(0);
        let b = mgr.var(1);
        assert_eq!(&a & &b, a.and(&b));
        assert_eq!(&a | &b, a.or(&b));
        assert_eq!(&a ^ &b, a.xor(&b));
        assert_eq!(!&a, a.complement());
        assert_eq!(a.clone() & b.clone(), a.and(&b));
    }

    #[test]
    fn cube_and_minterm_builders() {
        let mgr = BddSession::new(3);
        let cube = mgr.cube(&[(Var(0), true), (Var(2), false)]);
        assert!(cube.eval(&[true, false, false]));
        assert!(cube.eval(&[true, true, false]));
        assert!(!cube.eval(&[true, true, true]));
        let mt = mgr.minterm(&[true, false, true]);
        assert_eq!(mt.sat_count(3), 1);
    }

    #[test]
    fn subset_and_diff() {
        let mgr = BddSession::new(2);
        let a = mgr.var(0);
        let b = mgr.var(1);
        let ab = a.and(&b);
        assert!(ab.is_subset_of(&a));
        assert!(!a.is_subset_of(&ab));
        let only_a = a.diff(&b);
        assert!(only_a.eval(&[true, false]));
        assert!(!only_a.eval(&[true, true]));
    }

    #[test]
    #[should_panic]
    fn cross_manager_operations_panic() {
        let m1 = BddSession::new(1);
        let m2 = BddSession::new(1);
        let a = m1.var(0);
        let b = m2.var(0);
        let _ = a.and(&b);
    }

    #[test]
    fn shared_size_counts_once() {
        let mgr = BddSession::new(3);
        let a = mgr.var(0);
        let b = mgr.var(1);
        let f = a.and(&b);
        let g = a.or(&b);
        let total = mgr.shared_size(&[f.clone(), g.clone(), f.clone()]);
        assert!(total <= f.size() + g.size());
    }

    #[test]
    fn drop_and_clone_track_roots() {
        let mgr = BddSession::new(2);
        let base = mgr.live_roots();
        let a = mgr.var(0);
        assert_eq!(mgr.live_roots(), base + 1);
        let b = a.clone();
        assert_eq!(mgr.live_roots(), base + 1, "clones share one root slot");
        drop(a);
        assert_eq!(mgr.live_roots(), base + 1);
        drop(b);
        assert_eq!(mgr.live_roots(), base);
    }

    #[test]
    fn collect_garbage_reclaims_dropped_functions_and_reuses_slots() {
        let mgr = BddSession::new(8);
        let vars: Vec<Bdd> = (0..8).map(|i| mgr.var(i as u32)).collect();
        let keep = vars[0].and(&vars[1]);
        {
            let mut junk = Vec::new();
            for i in 0..6 {
                junk.push(vars[i].xor(&vars[i + 2]).or(&vars[i + 1]));
            }
        }
        let before = mgr.num_nodes();
        let reclaimed = mgr.collect_garbage();
        assert!(reclaimed > 0, "dropped functions must be reclaimed");
        assert!(mgr.live_nodes() < before);
        // The sweep flushed the op cache: recomputing a reclaimed result is
        // a miss, not a stale hit, and the recomputation reuses free slots
        // instead of growing the arena.
        let rebuilt = vars[0].xor(&vars[2]).or(&vars[1]);
        assert_eq!(mgr.num_nodes(), before, "free-listed slots are reused");
        assert!(rebuilt.eval(&[false, true, false, false, false, false, false, false]));
        // The kept function survived untouched.
        assert!(keep.eval(&[true, true, false, false, false, false, false, false]));
        assert!(mgr.gc_stats().collections >= 1);
        assert!(mgr.gc_stats().nodes_reclaimed >= reclaimed as u64);
    }

    #[test]
    fn auto_gc_keeps_a_churning_manager_bounded() {
        let mgr = BddSession::with_config(10, BddConfig::new().gc_min_nodes(256));
        let vars: Vec<Bdd> = (0..10).map(|i| mgr.var(i as u32)).collect();
        for round in 0..200u32 {
            // A fresh function every round, immediately dropped.
            let mut f = vars[(round % 10) as usize].clone();
            for (i, var) in vars.iter().take(9).enumerate() {
                let lit = if (round >> i) & 1 == 0 {
                    var.clone()
                } else {
                    var.complement()
                };
                f = if i % 2 == 0 { f.xor(&lit) } else { f.or(&lit) };
            }
        }
        let stats = mgr.gc_stats();
        assert!(stats.collections > 0, "auto-GC must have triggered");
        assert!(stats.nodes_reclaimed > 0);
        assert!(
            stats.peak_live_nodes < 4096,
            "peak live nodes stay bounded under churn (saw {})",
            stats.peak_live_nodes
        );
    }

    #[test]
    fn handle_equality_is_canonical() {
        let mgr = BddSession::new(2);
        let a = mgr.var(0);
        let b = mgr.var(1);
        let f1 = a.and(&b);
        let f2 = b.and(&a);
        assert_eq!(f1, f2);
        let g = a.or(&b);
        assert_ne!(f1, g);
    }
}
