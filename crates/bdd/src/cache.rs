//! The kernel's memory layer: a CUDD-style open-addressed unique table and
//! a lossy, direct-mapped operation cache.
//!
//! Both structures replace the `std::collections::HashMap`s of the first
//! kernel generation. SipHash (std's default hasher) is a DoS-hardened
//! streaming hash — far more work per lookup than a BDD node deserves. Here
//! keys are three machine words, so hashing is two Fx-style rotate-multiply
//! steps, tables are power-of-two sized, and the unique table stores plain
//! `u32` arena indices (the node data itself lives in the arena, so a probe
//! costs one extra cache line at most).
//!
//! The operation cache is shared by `ite` and every tagged unary,
//! quantification, generalized-cofactor and ISOP operation. It is
//! *lossy*: a colliding insert simply overwrites the previous entry.
//! Losing an entry only costs a recompute, never correctness. This
//! mirrors the classical BDD-package design (CUDD's "computed table") and
//! is what lets `cofactor`, `exists_many` and friends persist results
//! *across* calls instead of allocating a fresh memo table per call.
//!
//! Earlier kernel generations argued cache safety from an append-only
//! arena ("nodes are never garbage collected, so a cached result can never
//! dangle"). That argument is gone: the kernel now reclaims dead nodes
//! (see [`crate::gc`]). The replacement invariant is epoch-based — between
//! two sweeps every arena slot is stable, and **every sweep that reclaims
//! anything flushes the operation cache and rebuilds the unique table from
//! the survivors**, so no entry from a previous epoch survives into one
//! where its slots may have been reused. Dynamic reordering (see
//! [`crate::reorder`]) keeps most entries: the in-place level swap
//! preserves the Boolean function denoted by every node id, and entries of
//! `ite`, quantification and cofactors relate ids as functions.
//! The generalized cofactors and ISOP are the exception — their result is
//! one of many implementations of an interval, chosen by walking the
//! order — so every order change drops exactly those entries.
//!
//! Reclamation also means the unique table must support deletion: removal
//! marks the slot with a tombstone that probing walks over and insertion
//! reuses; growth and the post-sweep rebuild drop tombstones wholesale.

use crate::manager::Node;
use crate::manager::{NodeId, Var, FREE_VAR};

/// Fx-hash multiplier (the firefox hash; also used by rustc).
const FX_SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

#[inline]
fn fx_add(hash: u64, word: u64) -> u64 {
    (hash.rotate_left(5) ^ word).wrapping_mul(FX_SEED)
}

/// Hashes a node key `(var, lo, hi)` / cache key to a table index seed.
/// The xor-fold pushes the multiplier's high-bit entropy into the low bits
/// the power-of-two mask keeps.
#[inline]
fn hash3(a: u32, b: u32, c: u32) -> u64 {
    let h = fx_add(fx_add(0, a as u64), ((b as u64) << 32) | c as u64);
    h ^ (h >> 32)
}

/// Counter block of the kernel's hashing and caching layer.
///
/// All counters are cumulative over the manager's lifetime and fully
/// deterministic: they are a pure function of the operation sequence, so
/// they may appear in reproducible report output. Gauges (`unique_len`,
/// `unique_capacity`, `cache_slots`, `num_nodes`) describe the current
/// state instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Unique-table lookups (`mk` calls that reached the table).
    pub unique_lookups: u64,
    /// Unique-table hits (an existing canonical node was returned).
    pub unique_hits: u64,
    /// Decision nodes currently stored in the unique table.
    pub unique_len: u64,
    /// Unique-table slot count (power of two).
    pub unique_capacity: u64,
    /// Operation-cache lookups.
    pub cache_lookups: u64,
    /// Operation-cache hits.
    pub cache_hits: u64,
    /// Operation-cache inserts.
    pub cache_inserts: u64,
    /// Inserts that overwrote a live entry with a different key (the cost
    /// of the lossy direct-mapped design).
    pub cache_evictions: u64,
    /// Operation-cache slot count (power of two).
    pub cache_slots: u64,
    /// Total nodes in the arena, terminals included.
    pub num_nodes: u64,
}

impl CacheStats {
    /// Operation-cache hit rate in `[0, 1]` (`0` when nothing was looked
    /// up).
    pub fn cache_hit_rate(&self) -> f64 {
        if self.cache_lookups == 0 {
            0.0
        } else {
            self.cache_hits as f64 / self.cache_lookups as f64
        }
    }

    /// The counters as `(name, value)` pairs, for absorption into a
    /// [`brel_obs::MetricsRegistry`].
    pub fn metrics(&self) -> [(&'static str, u64); 10] {
        [
            ("unique_lookups", self.unique_lookups),
            ("unique_hits", self.unique_hits),
            ("unique_len", self.unique_len),
            ("unique_capacity", self.unique_capacity),
            ("cache_lookups", self.cache_lookups),
            ("cache_hits", self.cache_hits),
            ("cache_inserts", self.cache_inserts),
            ("cache_evictions", self.cache_evictions),
            ("cache_slots", self.cache_slots),
            ("num_nodes", self.num_nodes),
        ]
    }

    /// Unique-table load factor in `[0, 1]`.
    pub fn unique_load_factor(&self) -> f64 {
        if self.unique_capacity == 0 {
            0.0
        } else {
            self.unique_len as f64 / self.unique_capacity as f64
        }
    }

    /// The counter deltas accumulated since `earlier` (gauges keep their
    /// current values). Used by the engine to attribute kernel work to one
    /// backend run on a shared manager.
    pub fn delta_since(&self, earlier: &CacheStats) -> CacheStats {
        CacheStats {
            unique_lookups: self.unique_lookups.saturating_sub(earlier.unique_lookups),
            unique_hits: self.unique_hits.saturating_sub(earlier.unique_hits),
            unique_len: self.unique_len,
            unique_capacity: self.unique_capacity,
            cache_lookups: self.cache_lookups.saturating_sub(earlier.cache_lookups),
            cache_hits: self.cache_hits.saturating_sub(earlier.cache_hits),
            cache_inserts: self.cache_inserts.saturating_sub(earlier.cache_inserts),
            cache_evictions: self.cache_evictions.saturating_sub(earlier.cache_evictions),
            cache_slots: self.cache_slots,
            num_nodes: self.num_nodes,
        }
    }
}

/// Sentinel for an empty unique-table slot.
const UNIQUE_EMPTY: u32 = u32::MAX;
/// Sentinel for a deleted unique-table slot: probing continues past it,
/// insertion may reuse it.
const UNIQUE_TOMBSTONE: u32 = u32::MAX - 1;

/// Open-addressed unique table: maps `(var, lo, hi)` to the canonical
/// arena index. Slots store only the `u32` arena index; the key is read
/// back from the node arena during probing (linear probing, power-of-two
/// capacity, grown at 3/4 load counting tombstones).
#[derive(Debug)]
pub(crate) struct UniqueTable {
    slots: Box<[u32]>,
    mask: usize,
    len: usize,
    tombstones: usize,
    lookups: u64,
    hits: u64,
}

fn empty_slots(capacity: usize) -> Box<[u32]> {
    vec![UNIQUE_EMPTY; capacity].into_boxed_slice()
}

/// Rounds a requested element count up to the power-of-two capacity that
/// holds it under 3/4 load.
fn capacity_for(expected: usize, minimum: usize) -> usize {
    let needed = expected.saturating_mul(4) / 3 + 1;
    needed.max(minimum).next_power_of_two()
}

impl UniqueTable {
    const MIN_CAPACITY: usize = 256;

    /// A table pre-sized for `expected` nodes.
    pub(crate) fn with_capacity(expected: usize) -> Self {
        let capacity = capacity_for(expected, Self::MIN_CAPACITY);
        UniqueTable {
            slots: empty_slots(capacity),
            mask: capacity - 1,
            len: 0,
            tombstones: 0,
            lookups: 0,
            hits: 0,
        }
    }

    /// Finds the canonical node `(var, lo, hi)`, allocating a fresh node
    /// (from the arena free list when possible, appending otherwise) when
    /// none exists yet.
    #[inline]
    pub(crate) fn get_or_insert(
        &mut self,
        var: Var,
        lo: NodeId,
        hi: NodeId,
        nodes: &mut Vec<Node>,
        free: &mut Vec<u32>,
    ) -> NodeId {
        self.lookups += 1;
        if (self.len + self.tombstones + 1) * 4 > self.slots.len() * 3 {
            self.grow(
                capacity_for(self.len * 2, Self::MIN_CAPACITY).max(self.slots.len()),
                nodes,
            );
        }
        let mut i = hash3(var.0, lo.0, hi.0) as usize & self.mask;
        let mut reuse: Option<usize> = None;
        loop {
            let entry = self.slots[i];
            if entry == UNIQUE_EMPTY {
                let node = Node { var, lo, hi };
                let id = match free.pop() {
                    Some(slot) => {
                        nodes[slot as usize] = node;
                        slot
                    }
                    None => {
                        let id = nodes.len() as u32;
                        debug_assert!(id < UNIQUE_TOMBSTONE, "node arena exhausted u32 indices");
                        nodes.push(node);
                        id
                    }
                };
                let target = reuse.unwrap_or(i);
                if reuse.is_some() {
                    self.tombstones -= 1;
                }
                self.slots[target] = id;
                self.len += 1;
                return NodeId(id);
            }
            if entry == UNIQUE_TOMBSTONE {
                if reuse.is_none() {
                    reuse = Some(i);
                }
                i = (i + 1) & self.mask;
                continue;
            }
            let node = &nodes[entry as usize];
            if node.var == var && node.lo == lo && node.hi == hi {
                self.hits += 1;
                return NodeId(entry);
            }
            i = (i + 1) & self.mask;
        }
    }

    /// Inserts a node whose key is known not to be present (used by the
    /// reorder swap after rewriting a node in place). Does not count as a
    /// lookup.
    pub(crate) fn insert_known(
        &mut self,
        var: Var,
        lo: NodeId,
        hi: NodeId,
        id: NodeId,
        nodes: &[Node],
    ) {
        if (self.len + self.tombstones + 1) * 4 > self.slots.len() * 3 {
            self.grow(
                capacity_for(self.len * 2, Self::MIN_CAPACITY).max(self.slots.len()),
                nodes,
            );
        }
        let mut i = hash3(var.0, lo.0, hi.0) as usize & self.mask;
        loop {
            let entry = self.slots[i];
            if entry == UNIQUE_EMPTY || entry == UNIQUE_TOMBSTONE {
                if entry == UNIQUE_TOMBSTONE {
                    self.tombstones -= 1;
                }
                self.slots[i] = id.0;
                self.len += 1;
                return;
            }
            debug_assert!(entry != id.0, "insert_known: id already present");
            i = (i + 1) & self.mask;
        }
    }

    /// Deletes the entry of `id` (keyed `(var, lo, hi)`), leaving a
    /// tombstone so later probes keep walking.
    pub(crate) fn remove(&mut self, var: Var, lo: NodeId, hi: NodeId, id: NodeId) {
        let mut i = hash3(var.0, lo.0, hi.0) as usize & self.mask;
        loop {
            let entry = self.slots[i];
            assert!(entry != UNIQUE_EMPTY, "remove: node not in unique table");
            if entry == id.0 {
                self.slots[i] = UNIQUE_TOMBSTONE;
                self.len -= 1;
                self.tombstones += 1;
                return;
            }
            i = (i + 1) & self.mask;
        }
    }

    /// Rebuilds the table from the arena after a sweep:
    /// every non-terminal, non-free slot is reinserted; tombstones and
    /// stale entries are dropped wholesale.
    pub(crate) fn rebuild(&mut self, nodes: &[Node]) {
        let live = nodes.len().saturating_sub(2);
        let capacity = capacity_for(live, Self::MIN_CAPACITY);
        self.slots = empty_slots(capacity);
        self.mask = capacity - 1;
        self.len = 0;
        self.tombstones = 0;
        for (index, node) in nodes.iter().enumerate().skip(2) {
            if node.var.0 == FREE_VAR {
                continue;
            }
            let mut i = hash3(node.var.0, node.lo.0, node.hi.0) as usize & self.mask;
            while self.slots[i] != UNIQUE_EMPTY {
                i = (i + 1) & self.mask;
            }
            self.slots[i] = index as u32;
            self.len += 1;
        }
    }

    /// Empties the table and restores the capacity a cold
    /// [`UniqueTable::with_capacity`]`(expected)` would have, reusing the
    /// current allocation when the capacities already agree. Lookup/hit
    /// counters survive (session resets report deltas). Part of the warm
    /// session-reset path: a reset manager must be observationally
    /// identical to a cold one, including the capacity gauge.
    pub(crate) fn reset(&mut self, expected: usize) {
        let capacity = capacity_for(expected, Self::MIN_CAPACITY);
        if capacity == self.slots.len() {
            self.slots.fill(UNIQUE_EMPTY);
        } else {
            self.slots = empty_slots(capacity);
            self.mask = capacity - 1;
        }
        self.len = 0;
        self.tombstones = 0;
    }

    fn grow(&mut self, new_capacity: usize, nodes: &[Node]) {
        let old = std::mem::replace(&mut self.slots, empty_slots(new_capacity));
        self.mask = new_capacity - 1;
        self.tombstones = 0;
        for &entry in old.iter() {
            if entry == UNIQUE_EMPTY || entry == UNIQUE_TOMBSTONE {
                continue;
            }
            let node = &nodes[entry as usize];
            let mut i = hash3(node.var.0, node.lo.0, node.hi.0) as usize & self.mask;
            while self.slots[i] != UNIQUE_EMPTY {
                i = (i + 1) & self.mask;
            }
            self.slots[i] = entry;
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.len
    }

    pub(crate) fn capacity(&self) -> usize {
        self.slots.len()
    }

    pub(crate) fn lookups(&self) -> u64 {
        self.lookups
    }

    pub(crate) fn hits(&self) -> u64 {
        self.hits
    }
}

/// Operation tags distinguishing cache users. `ite` keys are three node
/// ids; tagged operations reuse the `(a, b, c)` words for their own keys
/// (node id + variable, node id + cube, …).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u32)]
pub(crate) enum OpTag {
    Ite = 0,
    Cofactor0 = 1,
    Cofactor1 = 2,
    Exists = 3,
    Forall = 4,
    Constrain = 6,
    Restrict = 7,
    RestrictCube = 8,
    LiCompact = 9,
    Isop = 10,
}

/// Tags whose cached result depends on the variable order, not only on
/// the operand functions. `ite`, quantification and cofactors
/// compute order-free functions; the generalized cofactors and ISOP pick
/// one implementation of an interval by walking the order, so an order
/// change must drop them ([`OpCache::drop_order_dependent`]).
const ORDER_DEPENDENT_TAGS: [u32; 4] = [
    OpTag::Constrain as u32,
    OpTag::Restrict as u32,
    OpTag::LiCompact as u32,
    OpTag::Isop as u32,
];

/// Sentinel tag for an empty cache slot.
const TAG_EMPTY: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
struct CacheSlot {
    tag: u32,
    a: u32,
    b: u32,
    c: u32,
    result: u32,
}

const EMPTY_SLOT: CacheSlot = CacheSlot {
    tag: TAG_EMPTY,
    a: 0,
    b: 0,
    c: 0,
    result: 0,
};

/// The lossy, direct-mapped operation cache shared by every memoized
/// kernel operation.
///
/// A cold cache — fresh, or rewound by [`OpCache::reset`] — holds
/// [`OpCache::MIN_SLOTS`] slots, sized for the working set of one
/// portfolio solve rather than for the relation's χ: the solver's
/// intermediate functions outnumber χ's nodes many times over, so a cache
/// sized like the unique table would thrash from the first split. From
/// there it grows by CUDD's `minHit` rule: once the hits since the last
/// resize exceed [`OpCache::MIN_HIT_PERCENT`] percent of the lookups since
/// then, the entries are evidently being reused, so the table doubles in
/// place, keeping every entry. Growth stops at [`OpCache::MAX_SLOTS`]: a
/// table much past the CPU's L2 turns every probe into a memory stall,
/// which costs more than the recomputations it saves.
#[derive(Debug)]
pub(crate) struct OpCache {
    /// The table. Its length is the slot count; its allocation is kept
    /// across resets, so a session that grew once re-grows in place.
    slots: Vec<CacheSlot>,
    mask: usize,
    /// Hits since the last resize.
    window_hits: u64,
    /// Misses since the last resize, plus the arming offset (see
    /// [`OpCache::arm`]).
    window_misses: u64,
    /// `true` once the size was pinned by an explicit resize; pinned
    /// caches never auto-grow (the eviction stress tests rely on this).
    fixed: bool,
    lookups: u64,
    hits: u64,
    inserts: u64,
    evictions: u64,
}

impl OpCache {
    /// The cold slot count: the knee of a sweep over the engine's
    /// default corpus (README, "Operation cache"). Larger floors save
    /// little more work, and every session reset refills the table.
    const MIN_SLOTS: usize = 1 << 13;
    /// The growth cap (and the largest size [`OpCache::resize`] installs),
    /// four times the floor. Uncapped growth reached 2^20 slots (20 MiB)
    /// on the hard corpus, whose every GC sweep then cleared 20 MiB, and
    /// ran it over 3x slower than this cap.
    const MAX_SLOTS: usize = 1 << 15;
    /// CUDD's `minHit`: the cache doubles once hits exceed this percentage
    /// of the lookups since the last resize.
    const MIN_HIT_PERCENT: u64 = 30;

    pub(crate) fn new() -> Self {
        Self::with_slots(Self::MIN_SLOTS)
    }

    /// A cache with `slots` slots (rounded up to a power of two).
    pub(crate) fn with_slots(slots: usize) -> Self {
        let mut cache = OpCache {
            slots: Vec::new(),
            mask: 0,
            window_hits: 0,
            window_misses: 0,
            fixed: false,
            lookups: 0,
            hits: 0,
            inserts: 0,
            evictions: 0,
        };
        cache.replace_slots(slots);
        cache
    }

    #[inline]
    fn index(&self, tag: u32, a: u32, b: u32, c: u32) -> usize {
        (hash3(a, b, c).wrapping_add((tag as u64).wrapping_mul(FX_SEED))) as usize & self.mask
    }

    #[inline]
    pub(crate) fn lookup(&mut self, tag: OpTag, a: u32, b: u32, c: u32) -> Option<NodeId> {
        self.lookups += 1;
        let slot = &self.slots[self.index(tag as u32, a, b, c)];
        if slot.tag == tag as u32 && slot.a == a && slot.b == b && slot.c == c {
            self.hits += 1;
            self.window_hits += 1;
            Some(NodeId(slot.result))
        } else {
            self.window_misses += 1;
            if self.window_hits * (100 - Self::MIN_HIT_PERCENT)
                > self.window_misses * Self::MIN_HIT_PERCENT
                && !self.fixed
                && self.slots.len() < Self::MAX_SLOTS
            {
                self.double();
            }
            None
        }
    }

    #[inline]
    pub(crate) fn insert(&mut self, tag: OpTag, a: u32, b: u32, c: u32, result: NodeId) {
        self.inserts += 1;
        let i = self.index(tag as u32, a, b, c);
        let slot = &mut self.slots[i];
        if slot.tag != TAG_EMPTY
            && (slot.tag != tag as u32 || slot.a != a || slot.b != b || slot.c != c)
        {
            self.evictions += 1;
        }
        *slot = CacheSlot {
            tag: tag as u32,
            a,
            b,
            c,
            result: result.0,
        };
    }

    /// Drops every entry, keeping the slot count and counters.
    pub(crate) fn clear(&mut self) {
        self.slots.fill(EMPTY_SLOT);
    }

    /// Drops the entries whose result depends on the variable order,
    /// keeping the rest, the slot count and the counters. Called whenever
    /// the order changes.
    pub(crate) fn drop_order_dependent(&mut self) {
        for slot in self.slots.iter_mut() {
            if ORDER_DEPENDENT_TAGS.contains(&slot.tag) {
                *slot = EMPTY_SLOT;
            }
        }
    }

    /// Restores the cold-start state: [`OpCache::MIN_SLOTS`] empty slots,
    /// auto-growth re-enabled and the growth window re-armed as in a fresh
    /// cache. Counters survive (session resets report deltas), so a reset
    /// cache behaves — and reports — exactly like a cold one for the
    /// operations that follow.
    pub(crate) fn reset(&mut self) {
        self.replace_slots(Self::MIN_SLOTS);
        self.fixed = false;
    }

    /// Replaces the cache with one of the given slot count and *pins* it:
    /// a resized cache never auto-grows again. Entries are dropped,
    /// counters survive. Exposed for the eviction stress tests, which hold
    /// a tiny cache under sustained insert pressure.
    pub(crate) fn resize(&mut self, slots: usize) {
        self.replace_slots(slots);
        self.fixed = true;
    }

    /// Empties the table at `slots` slots (clamped, rounded up to a power
    /// of two), reusing the allocation, and re-arms the growth window.
    fn replace_slots(&mut self, slots: usize) {
        let capacity = slots.clamp(2, Self::MAX_SLOTS).next_power_of_two();
        self.slots.clear();
        self.slots.resize(capacity, EMPTY_SLOT);
        self.mask = capacity - 1;
        self.arm();
    }

    /// Doubles the table in place, keeping every live entry: the entry in
    /// old slot `i` hashes to `i` or `i + len` under the wider mask, and
    /// the upper half starts empty, so each move lands on a free slot.
    fn double(&mut self) {
        let len = self.slots.len();
        self.slots.resize(len * 2, EMPTY_SLOT);
        self.mask = len * 2 - 1;
        for i in 0..len {
            let slot = self.slots[i];
            if slot.tag != TAG_EMPTY && self.index(slot.tag, slot.a, slot.b, slot.c) != i {
                self.slots[i + len] = slot;
                self.slots[i] = EMPTY_SLOT;
            }
        }
        self.arm();
    }

    /// Starts a new growth window. As in CUDD, the miss count starts at
    /// `slots · minHit + 1` rather than zero, so a fresh table must earn
    /// a sizeable number of hits before it can grow again.
    fn arm(&mut self) {
        self.window_hits = 0;
        self.window_misses =
            self.slots.len() as u64 * Self::MIN_HIT_PERCENT / (100 - Self::MIN_HIT_PERCENT) + 1;
    }

    pub(crate) fn slot_count(&self) -> usize {
        self.slots.len()
    }

    pub(crate) fn lookups(&self) -> u64 {
        self.lookups
    }

    pub(crate) fn hits(&self) -> u64 {
        self.hits
    }

    pub(crate) fn inserts(&self) -> u64 {
        self.inserts
    }

    pub(crate) fn evictions(&self) -> u64 {
        self.evictions
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unique_table_canonicalizes_and_grows() {
        let mut nodes = vec![
            Node {
                var: Var(u32::MAX),
                lo: NodeId::ZERO,
                hi: NodeId::ZERO,
            },
            Node {
                var: Var(u32::MAX),
                lo: NodeId::ONE,
                hi: NodeId::ONE,
            },
        ];
        let mut free: Vec<u32> = Vec::new();
        let mut table = UniqueTable::with_capacity(0);
        let initial_capacity = table.capacity();
        // Insert enough distinct nodes to force at least one growth.
        let mut ids = Vec::new();
        for v in 0..1024u32 {
            ids.push(table.get_or_insert(Var(v), NodeId::ZERO, NodeId::ONE, &mut nodes, &mut free));
        }
        assert!(table.capacity() > initial_capacity);
        assert_eq!(table.len(), 1024);
        // Every node is still found after rehashing.
        for (v, &id) in ids.iter().enumerate() {
            let again = table.get_or_insert(
                Var(v as u32),
                NodeId::ZERO,
                NodeId::ONE,
                &mut nodes,
                &mut free,
            );
            assert_eq!(again, id);
        }
        assert_eq!(table.hits(), 1024);
        assert_eq!(table.lookups(), 2048);
    }

    #[test]
    fn unique_table_remove_and_reinsert_through_tombstones() {
        let mut nodes = vec![
            Node {
                var: Var(u32::MAX),
                lo: NodeId::ZERO,
                hi: NodeId::ZERO,
            },
            Node {
                var: Var(u32::MAX),
                lo: NodeId::ONE,
                hi: NodeId::ONE,
            },
        ];
        let mut free: Vec<u32> = Vec::new();
        let mut table = UniqueTable::with_capacity(64);
        let mut ids = Vec::new();
        for v in 0..64u32 {
            ids.push(table.get_or_insert(Var(v), NodeId::ZERO, NodeId::ONE, &mut nodes, &mut free));
        }
        // Delete every other node, leaving tombstones behind.
        for (v, &id) in ids.iter().enumerate().step_by(2) {
            table.remove(Var(v as u32), NodeId::ZERO, NodeId::ONE, id);
        }
        assert_eq!(table.len(), 32);
        // Survivors still probe past the tombstones.
        for (v, &id) in ids.iter().enumerate().skip(1).step_by(2) {
            let again = table.get_or_insert(
                Var(v as u32),
                NodeId::ZERO,
                NodeId::ONE,
                &mut nodes,
                &mut free,
            );
            assert_eq!(again, id);
        }
        // Reinsert a removed key through a free-listed arena slot.
        free.push(ids[0].0);
        nodes[ids[0].index()] = Node {
            var: Var(u32::MAX),
            lo: NodeId::ZERO,
            hi: NodeId::ZERO,
        };
        let back = table.get_or_insert(Var(0), NodeId::ZERO, NodeId::ONE, &mut nodes, &mut free);
        assert_eq!(back, ids[0], "free-listed slot is reused");
        assert!(free.is_empty());
    }

    #[test]
    fn op_cache_is_lossy_but_exact() {
        let mut cache = OpCache::with_slots(2);
        cache.insert(OpTag::Ite, 1, 2, 3, NodeId(7));
        assert_eq!(cache.lookup(OpTag::Ite, 1, 2, 3), Some(NodeId(7)));
        // A different key must never produce a false hit, even in a
        // two-slot cache where collisions are constant.
        assert_eq!(cache.lookup(OpTag::Ite, 3, 2, 1), None);
        assert_eq!(cache.lookup(OpTag::Exists, 1, 2, 3), None);
        for k in 0..64u32 {
            cache.insert(OpTag::Ite, k, k, k, NodeId(k));
        }
        assert!(cache.evictions() > 0);
    }

    #[test]
    fn op_cache_grows_on_hits_and_keeps_its_entries() {
        let mut cache = OpCache::with_slots(64);
        for k in 0..256u32 {
            cache.insert(OpTag::Ite, k, 1, 2, NodeId(k + 10));
        }
        // Inserts alone never grow the cache: only reuse earns slots.
        assert_eq!(cache.slot_count(), 64);
        let resident: Vec<CacheSlot> = cache
            .slots
            .iter()
            .copied()
            .filter(|slot| slot.tag != TAG_EMPTY)
            .collect();
        let (inserts, evictions) = (cache.inserts(), cache.evictions());
        // Hits on one resident entry, then misses (where the rule is
        // checked) until the hit share of the window triggers a doubling.
        let hot = resident[0];
        for _ in 0..100 {
            let _ = cache.lookup(OpTag::Ite, hot.a, hot.b, hot.c);
        }
        let mut misses = 0;
        while cache.slot_count() == 64 {
            assert_eq!(cache.lookup(OpTag::Exists, 0, 0, 0), None);
            misses += 1;
            assert!(misses < 1000, "a hit-heavy window must grow the cache");
        }
        assert_eq!(cache.slot_count(), 128);
        // Every entry resident before the doubling still hits after the
        // rehash, and the doubling counted as neither insert nor eviction.
        for slot in &resident {
            assert_eq!(
                cache.lookup(OpTag::Ite, slot.a, slot.b, slot.c),
                Some(NodeId(slot.result))
            );
        }
        assert_eq!((cache.inserts(), cache.evictions()), (inserts, evictions));
        // A pinned cache never grows, however hot it runs.
        cache.resize(4);
        cache.insert(OpTag::Ite, 0, 1, 2, NodeId(3));
        for _ in 0..1000 {
            assert_eq!(cache.lookup(OpTag::Ite, 0, 1, 2), Some(NodeId(3)));
            let _ = cache.lookup(OpTag::Exists, 9, 9, 9);
        }
        assert_eq!(cache.slot_count(), 4);
    }

    #[test]
    fn op_cache_reset_restores_the_cold_state() {
        let state = |c: &OpCache| (c.slots.len(), c.window_hits, c.window_misses, c.fixed);
        let cold = OpCache::new();
        let mut cache = OpCache::new();
        // Grow once, then leave a hot hit window open at the reset.
        cache.insert(OpTag::Ite, 1, 2, 3, NodeId(4));
        while cache.slot_count() == OpCache::MIN_SLOTS {
            for _ in 0..1000 {
                let _ = cache.lookup(OpTag::Ite, 1, 2, 3);
            }
            let _ = cache.lookup(OpTag::Exists, 0, 0, 0);
        }
        for _ in 0..1000 {
            let _ = cache.lookup(OpTag::Ite, 1, 2, 3);
        }
        cache.reset();
        assert_eq!(state(&cache), state(&cold));
        assert_eq!(cache.lookup(OpTag::Ite, 1, 2, 3), None, "entries dropped");
        // A pinned cache is unpinned by the reset too.
        cache.resize(4);
        cache.reset();
        assert_eq!(state(&cache), state(&cold));
    }

    #[test]
    fn stats_delta_subtracts_counters_and_keeps_gauges() {
        let earlier = CacheStats {
            cache_lookups: 10,
            cache_hits: 4,
            num_nodes: 5,
            ..CacheStats::default()
        };
        let now = CacheStats {
            cache_lookups: 25,
            cache_hits: 9,
            num_nodes: 50,
            cache_slots: 8192,
            ..CacheStats::default()
        };
        let delta = now.delta_since(&earlier);
        assert_eq!(delta.cache_lookups, 15);
        assert_eq!(delta.cache_hits, 5);
        assert_eq!(delta.num_nodes, 50);
        assert_eq!(delta.cache_slots, 8192);
        assert!((delta.cache_hit_rate() - 5.0 / 15.0).abs() < 1e-12);
        assert_eq!(CacheStats::default().cache_hit_rate(), 0.0);
        assert_eq!(CacheStats::default().unique_load_factor(), 0.0);
    }
}
