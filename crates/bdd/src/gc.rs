//! Node lifecycle: external roots and mark-and-sweep garbage collection.
//!
//! The first two kernel generations were append-only: every node ever
//! created stayed in the arena for the life of the manager. That is fine
//! for one-shot construction but not for the BREL exploration, which
//! derives (and abandons) thousands of intermediate subrelation functions
//! inside one shared manager — arena growth, not op throughput, becomes
//! the bottleneck. This module adds the CUDD-style answer:
//!
//! * **Roots** — every [`crate::Bdd`] handle registers its node in the
//!   manager's [`RootTable`] on creation (and on clone) and releases it on
//!   drop. A root entry is a `(NodeId, refcount)` slot; handles refer to
//!   the *slot*, not the node.
//! * **Mark and sweep** — [`BddManager::collect_garbage`] marks everything
//!   reachable from the live roots and moves every other decision node to
//!   a free list that [`BddManager::mk`] reuses. Sweeping flushes the lossy
//!   operation cache (a cached result may point at a reclaimed slot) and
//!   rebuilds the unique table from the survivors, so no stale entry can
//!   resurrect a reclaimed id.
//!
//! GC is *deferred*: `mk` only flags a pending collection when the live
//! node count crosses the growth threshold, and the sweep itself runs at a
//! safe point ([`BddManager::maybe_gc`], called by the handle layer after
//! each completed operation, once the result is rooted). This is what
//! makes collection safe in a kernel whose recursive operations hold raw
//! node ids in local variables: no sweep can run in the middle of an
//! `ite`.

use crate::config::BddConfig;
use crate::manager::{BddManager, Node, NodeId, Var, VisitedBits, FREE_VAR};

/// Counter block of the kernel's memory lifecycle.
///
/// Counters (`collections`, `nodes_reclaimed`) are cumulative and
/// deterministic — a pure function of the operation sequence — so they
/// participate in reproducible report output. Gauges (`live_nodes`,
/// `peak_live_nodes`) describe the current state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GcStats {
    /// Mark-and-sweep collections run so far.
    pub collections: u64,
    /// Total decision nodes reclaimed by all sweeps.
    pub nodes_reclaimed: u64,
    /// Decision nodes currently allocated: reachable nodes plus
    /// not-yet-collected garbage, i.e. arena length minus free-listed
    /// slots (terminals included). A sweep lowers this by the reclaimed
    /// count.
    pub live_nodes: u64,
    /// High-water mark of `live_nodes` over the manager's lifetime — the
    /// actual memory bound, which GC exists to keep low.
    pub peak_live_nodes: u64,
}

impl GcStats {
    /// The counter deltas accumulated since `earlier` (gauges keep their
    /// current values). Used by the engine to attribute lifecycle work to
    /// one backend run on a shared manager.
    pub fn delta_since(&self, earlier: &GcStats) -> GcStats {
        GcStats {
            collections: self.collections.saturating_sub(earlier.collections),
            nodes_reclaimed: self.nodes_reclaimed.saturating_sub(earlier.nodes_reclaimed),
            live_nodes: self.live_nodes,
            peak_live_nodes: self.peak_live_nodes,
        }
    }

    /// The counters as `(name, value)` pairs, for absorption into a
    /// [`brel_obs::MetricsRegistry`].
    pub fn metrics(&self) -> [(&'static str, u64); 4] {
        [
            ("collections", self.collections),
            ("nodes_reclaimed", self.nodes_reclaimed),
            ("live_nodes", self.live_nodes),
            ("peak_live_nodes", self.peak_live_nodes),
        ]
    }
}

/// A root registration: the current node id and how many handles share it.
#[derive(Debug, Clone, Copy)]
struct RootEntry {
    id: NodeId,
    refs: u32,
}

/// The table of external references. `Bdd` handles hold a *slot* index;
/// the slot holds the (possibly remapped) node id. Slots are recycled
/// through a free list once their refcount drops to zero.
#[derive(Debug)]
pub(crate) struct RootTable {
    entries: Vec<RootEntry>,
    free: Vec<u32>,
    live: usize,
}

impl RootTable {
    /// The slot count a cold table reserves; the table grows past it as
    /// handles are taken.
    const MIN_SLOTS: usize = 32;

    pub(crate) fn new() -> Self {
        RootTable {
            entries: Vec::with_capacity(Self::MIN_SLOTS),
            free: Vec::new(),
            live: 0,
        }
    }

    /// Registers a new external reference to `id`, returning its slot.
    pub(crate) fn retain(&mut self, id: NodeId) -> u32 {
        self.live += 1;
        match self.free.pop() {
            Some(slot) => {
                self.entries[slot as usize] = RootEntry { id, refs: 1 };
                slot
            }
            None => {
                let slot = self.entries.len() as u32;
                self.entries.push(RootEntry { id, refs: 1 });
                slot
            }
        }
    }

    /// Adds one more reference to an existing slot (handle clone).
    pub(crate) fn retain_slot(&mut self, slot: u32) {
        self.entries[slot as usize].refs += 1;
    }

    /// Drops one reference; a slot whose refcount reaches zero is recycled.
    pub(crate) fn release(&mut self, slot: u32) {
        let entry = &mut self.entries[slot as usize];
        debug_assert!(entry.refs > 0, "release of a dead root slot");
        entry.refs -= 1;
        if entry.refs == 0 {
            self.live -= 1;
            self.free.push(slot);
        }
    }

    /// The node a slot currently resolves to.
    #[inline]
    pub(crate) fn node_of(&self, slot: u32) -> NodeId {
        self.entries[slot as usize].id
    }

    /// Number of live root slots.
    pub(crate) fn live_roots(&self) -> usize {
        self.live
    }

    /// Calls `f` on every live root id.
    pub(crate) fn for_each_root(&self, mut f: impl FnMut(NodeId)) {
        for entry in &self.entries {
            if entry.refs > 0 {
                f(entry.id);
            }
        }
    }

    /// Empties the table (keeping its allocation) so a reset session hands
    /// out slots from a clean state, exactly like a cold table would.
    ///
    /// # Panics
    ///
    /// Panics if any root is still live — resetting under live handles
    /// would dangle them.
    pub(crate) fn reset(&mut self) {
        assert_eq!(self.live, 0, "root table reset with live handles");
        self.entries.clear();
        self.free.clear();
    }
}

/// Internal GC bookkeeping of a [`BddManager`].
#[derive(Debug)]
pub(crate) struct GcState {
    /// Automatic collection on growth (sweeps still only happen at safe
    /// points). Disabled managers collect only on explicit calls.
    pub(crate) auto_gc: bool,
    /// Live-node floor below which automatic GC never triggers.
    pub(crate) min_nodes: usize,
    /// Next live-node count at which `mk` flags a pending collection.
    pub(crate) next_gc_at: usize,
    /// Set by `mk` when the growth threshold is crossed; consumed by the
    /// next safe point.
    pub(crate) pending: bool,
    /// Cumulative counters surfaced through [`GcStats`].
    pub(crate) collections: u64,
    pub(crate) nodes_reclaimed: u64,
    pub(crate) peak_live_nodes: u64,
}

impl GcState {
    /// Default automatic-GC floor: below this many live nodes a sweep is
    /// not worth its arena scan.
    pub(crate) const DEFAULT_MIN_NODES: usize = 8 * 1024;

    pub(crate) fn new(config: &BddConfig) -> Self {
        GcState {
            auto_gc: config.auto_gc,
            min_nodes: config.gc_min_nodes,
            next_gc_at: config.gc_min_nodes,
            pending: false,
            collections: 0,
            nodes_reclaimed: 0,
            peak_live_nodes: 0,
        }
    }
}

impl BddManager {
    /// Marks every node reachable from the live roots.
    fn mark_live(&self) -> VisitedBits {
        let mut marks = VisitedBits::new(self.nodes.len());
        let mut stack: Vec<NodeId> = Vec::new();
        self.roots.for_each_root(|id| {
            if !id.is_terminal() {
                stack.push(id);
            }
        });
        while let Some(id) = stack.pop() {
            if id.is_terminal() || !marks.insert(id.index()) {
                continue;
            }
            let n = &self.nodes[id.index()];
            debug_assert!(n.var.0 != FREE_VAR, "root reaches a freed slot");
            stack.push(n.lo);
            stack.push(n.hi);
        }
        marks
    }

    /// Runs a mark-and-sweep collection *now* and returns the number of
    /// reclaimed decision nodes.
    ///
    /// Every node not reachable from a registered root is moved to the
    /// free list for reuse by [`BddManager::mk`]. The operation cache is
    /// flushed and the unique table rebuilt from the survivors whenever
    /// anything was reclaimed, so no stale cache or table entry can hand
    /// out a reclaimed id. [`crate::Bdd`] handles are unaffected; raw
    /// [`NodeId`]s not reachable from any handle are invalidated.
    pub fn collect_garbage(&mut self) -> usize {
        let _span = brel_obs::span(brel_obs::Category::Kernel, "gc_sweep");
        self.gc.pending = false;
        let marks = self.mark_live();
        let mut reclaimed = 0usize;
        for i in 2..self.nodes.len() {
            if marks.contains(i) || self.nodes[i].var.0 == FREE_VAR {
                continue;
            }
            self.nodes[i] = Node {
                var: Var(FREE_VAR),
                lo: NodeId::ZERO,
                hi: NodeId::ZERO,
            };
            self.free.push(i as u32);
            reclaimed += 1;
        }
        if reclaimed > 0 {
            // A cached result (or a unique-table entry) may point at a slot
            // that is now on the free list; both stores are purged so a
            // later hit cannot resurrect a reclaimed id.
            self.cache.clear();
            self.unique.rebuild(&self.nodes);
        }
        self.gc.collections += 1;
        self.gc.nodes_reclaimed += reclaimed as u64;
        let live = self.live_nodes();
        self.gc.next_gc_at = (live * 2).max(self.gc.min_nodes);
        reclaimed
    }

    /// The safe point of the deferred lifecycle machinery: runs a pending
    /// collection. Called by the handle layer after every completed
    /// operation, once the result is rooted.
    ///
    /// Under [`BddConfig::auto_gc`]`(false)` only a governor quota trip
    /// sweeps here: the quota contract is "GC first, then abort",
    /// independent of the session's auto-GC tuning.
    pub(crate) fn maybe_gc(&mut self) {
        if self.gc.pending
            && (self.gc.auto_gc || self.governor.as_ref().is_some_and(|g| g.tripped()))
        {
            self.collect_garbage();
        }
    }

    /// Decision nodes currently allocated (arena length minus free slots,
    /// terminals included) — the quantity the GC triggers are tuned on.
    #[inline]
    pub fn live_nodes(&self) -> usize {
        self.nodes.len() - self.free.len()
    }

    /// The lifecycle configuration currently in force (as set at
    /// construction or by the last [`BddManager::reset`]).
    pub fn config(&self) -> BddConfig {
        BddConfig {
            auto_gc: self.gc.auto_gc,
            gc_min_nodes: self.gc.min_nodes,
        }
    }

    /// Re-bases the `peak_live_nodes` gauge to the current live count, so
    /// the next reading reflects the high-water mark of one phase (the
    /// BREL solver re-bases at solve entry to report a per-solve peak
    /// instead of the manager-lifetime one).
    pub fn reset_peak_live_nodes(&mut self) {
        self.gc.peak_live_nodes = self.live_nodes() as u64;
    }

    /// The lifecycle counter block; see [`GcStats`].
    pub fn gc_stats(&self) -> GcStats {
        GcStats {
            collections: self.gc.collections,
            nodes_reclaimed: self.gc.nodes_reclaimed,
            live_nodes: self.live_nodes() as u64,
            peak_live_nodes: self.gc.peak_live_nodes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn root_table_recycles_slots() {
        let mut t = RootTable::new();
        let a = t.retain(NodeId(5));
        let b = t.retain(NodeId(6));
        assert_ne!(a, b);
        assert_eq!(t.node_of(a), NodeId(5));
        t.retain_slot(a);
        t.release(a);
        assert_eq!(t.live_roots(), 2, "slot a still has one reference");
        t.release(a);
        assert_eq!(t.live_roots(), 1);
        let c = t.retain(NodeId(9));
        assert_eq!(c, a, "dead slot is recycled");
        assert_eq!(t.node_of(c), NodeId(9));
    }

    #[test]
    fn stats_delta_subtracts_counters_and_keeps_gauges() {
        let earlier = GcStats {
            collections: 2,
            nodes_reclaimed: 100,
            ..GcStats::default()
        };
        let now = GcStats {
            collections: 5,
            nodes_reclaimed: 250,
            live_nodes: 40,
            peak_live_nodes: 90,
        };
        let delta = now.delta_since(&earlier);
        assert_eq!(delta.collections, 3);
        assert_eq!(delta.nodes_reclaimed, 150);
        assert_eq!(delta.live_nodes, 40);
        assert_eq!(delta.peak_live_nodes, 90);
    }
}
