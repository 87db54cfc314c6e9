//! Dynamic variable reordering: in-place adjacent level swaps and
//! Rudell-style sifting.
//!
//! The first kernel generations froze the variable order at construction
//! (the variable index *was* the level). This module works on the
//! manager's `var ↔ level` permutation instead: [`BddManager::swap_adjacent_levels`]
//! exchanges two adjacent levels by rewriting the affected nodes *in
//! place*, so every live [`NodeId`] keeps denoting the same Boolean
//! function and external roots never move. [`BddManager::reorder_sift`]
//! drives the classic sifting loop on top of it: each variable (most
//! populated first) is moved through every level and parked where the
//! reachable node count was smallest.
//!
//! ## Why the in-place swap is sound
//!
//! Swapping levels `l` (variable `x`) and `l+1` (variable `y`) only has to
//! touch `x`-nodes with a `y`-topped child. Such a node `f = (x; f0, f1)`
//! is rewritten to `(y; (x; f00, f10), (x; f01, f11))` — the same function
//! expanded in the other order — at the *same arena index*, so parents and
//! roots are untouched. The rewritten keys cannot collide: two distinct
//! canonical nodes denote distinct functions, and rewriting preserves
//! functions. Old `y`-children that lose their last reference simply stay
//! in the arena (and unique table) as garbage until the next sweep.
//!
//! Most of the operation cache survives too, because `ite`,
//! quantification, cofactor and rename entries relate node ids as
//! *functions*, which the swap preserves. ISOP and the generalized
//! cofactors are order-dependent: their result is one implementation of an
//! interval, picked by walking the order, so a stale entry would hand out
//! the choice an earlier order made. Every order change therefore drops
//! those entries — after each public [`BddManager::swap_adjacent_levels`]
//! and once at the end of a [`BddManager::reorder_sift`] pass (automatic
//! reordering runs the same pass).
//!
//! Complexity note: a swap scans the whole arena for `x`-labelled nodes
//! and each sifting step re-marks the live set, so a pass costs
//! `O(vars² · arena)` rather than CUDD's per-level-list
//! `O(nodes at the swapped levels)`. The intermediate sweeps in
//! `sift_step` keep the arena proportional to the live set, which makes
//! the constant acceptable at this package's scales; per-level node lists
//! with incremental size deltas are the known upgrade path if sifting
//! ever dominates a profile.

use crate::manager::{BddManager, Node, NodeId, Var, FREE_VAR};

impl BddManager {
    /// Exchanges the variables at levels `upper` and `upper + 1` by
    /// rewriting the affected nodes in place. Every live node id keeps its
    /// function; dead nodes created by the swap are reclaimed by the next
    /// sweep. Order-dependent cache entries are dropped.
    ///
    /// # Panics
    ///
    /// Panics if `upper + 1` is not a valid level.
    pub fn swap_adjacent_levels(&mut self, upper: u32) {
        self.swap_levels_in_place(upper);
        self.cache.drop_order_dependent();
    }

    /// The swap itself, leaving the operation cache to the caller: a
    /// sifting pass swaps hundreds of times and drops the order-dependent
    /// entries once at its end.
    fn swap_levels_in_place(&mut self, upper: u32) {
        let x = self.level2var[upper as usize];
        let y = self.level2var[upper as usize + 1];
        let end = self.nodes.len();
        for i in 2..end {
            let n = self.nodes[i];
            if n.var != x {
                continue;
            }
            let lo_is_y = !n.lo.is_terminal() && self.nodes[n.lo.index()].var == y;
            let hi_is_y = !n.hi.is_terminal() && self.nodes[n.hi.index()].var == y;
            if !lo_is_y && !hi_is_y {
                // No y in either child: the node keeps its label and simply
                // ends up one level lower once the permutation flips.
                continue;
            }
            let (f00, f01) = if lo_is_y {
                let c = self.nodes[n.lo.index()];
                (c.lo, c.hi)
            } else {
                (n.lo, n.lo)
            };
            let (f10, f11) = if hi_is_y {
                let c = self.nodes[n.hi.index()];
                (c.lo, c.hi)
            } else {
                (n.hi, n.hi)
            };
            let new_lo = if f00 == f10 {
                f00
            } else {
                let id = self
                    .unique
                    .get_or_insert(x, f00, f10, &mut self.nodes, &mut self.free);
                self.note_alloc();
                id
            };
            let new_hi = if f01 == f11 {
                f01
            } else {
                let id = self
                    .unique
                    .get_or_insert(x, f01, f11, &mut self.nodes, &mut self.free);
                self.note_alloc();
                id
            };
            debug_assert_ne!(new_lo, new_hi, "swapped node would be redundant");
            self.unique.remove(n.var, n.lo, n.hi, NodeId(i as u32));
            self.nodes[i] = Node {
                var: y,
                lo: new_lo,
                hi: new_hi,
            };
            self.unique
                .insert_known(y, new_lo, new_hi, NodeId(i as u32), &self.nodes);
        }
        self.var2level.swap(x.index(), y.index());
        self.level2var.swap(upper as usize, upper as usize + 1);
    }

    /// Live (root-reachable) decision nodes labelled by each variable.
    fn level_populations(&self) -> Vec<usize> {
        let (marks, _) = self.mark_live();
        let mut counts = vec![0usize; self.num_vars()];
        for i in 2..self.nodes.len() {
            if marks.contains(i) {
                let n = &self.nodes[i];
                debug_assert!(n.var.0 != FREE_VAR);
                counts[n.var.index()] += 1;
            }
        }
        counts
    }

    /// One sifting step: swaps, measures, and keeps the swap-generated
    /// garbage in check. Every swap scans the arena and every measurement
    /// marks the live set, so letting dead nodes pile up across the
    /// hundreds of swaps of a pass would turn the pass quadratic — once
    /// the allocated set outgrows a small multiple of the reachable set,
    /// an intermediate sweep reclaims it (free slots are then reused, so
    /// the arena stops growing for the rest of the pass).
    fn sift_step(&mut self, upper: u32) -> usize {
        self.swap_levels_in_place(upper);
        let size = self.reachable_nodes();
        if self.live_nodes() > 4 * size + 4096 {
            self.collect_garbage();
        }
        size
    }

    /// Sifts one variable through every level and parks it where the
    /// reachable node count was smallest (first-seen level wins ties, so
    /// the pass is deterministic). `limit` aborts a direction once the
    /// intermediate size exceeds the classical 1.2× growth allowance.
    fn sift_one(&mut self, v: Var) {
        let bottom = self.num_vars() as u32 - 1;
        let start = self.var2level[v.index()];
        let initial = self.reachable_nodes();
        let limit = initial + initial / 5 + 16;
        let mut best_size = initial;
        let mut best_level = start;
        let mut cur = start;
        // Down to the bottom…
        while cur < bottom {
            let size = self.sift_step(cur);
            cur += 1;
            if size < best_size {
                best_size = size;
                best_level = cur;
            }
            if size > limit {
                break;
            }
        }
        // …back up to the top…
        while cur > 0 {
            let size = self.sift_step(cur - 1);
            cur -= 1;
            if size < best_size {
                best_size = size;
                best_level = cur;
            }
            if size > limit {
                break;
            }
        }
        // …and settle at the best level seen.
        while cur < best_level {
            self.swap_levels_in_place(cur);
            cur += 1;
        }
        while cur > best_level {
            self.swap_levels_in_place(cur - 1);
            cur -= 1;
        }
    }

    /// Runs one full sifting pass (Rudell): every variable with live
    /// nodes, most populated first, is sifted to its locally optimal
    /// level. Ends with a sweep that reclaims the garbage the swaps left
    /// behind. Returns the number of live decision nodes afterwards.
    ///
    /// Node ids of reachable nodes keep their functions, so `Bdd` handles
    /// and order-free cached results stay valid (order-dependent ones are
    /// dropped); sizes of individual functions may
    /// change (that is the point), so callers that cache size-derived
    /// costs must recompute them.
    pub fn reorder_sift(&mut self) -> usize {
        let _span = brel_obs::span(brel_obs::Category::Kernel, "sift");
        if self.num_vars() >= 2 {
            let counts = self.level_populations();
            let mut vars: Vec<Var> = (0..self.num_vars())
                .filter(|&i| counts[i] > 0)
                .map(Var::from)
                .collect();
            // Most populated first; ties broken by variable index so the
            // pass order (and therefore the final order) is deterministic.
            vars.sort_by_key(|v| (usize::MAX - counts[v.index()], v.index()));
            for v in vars {
                self.sift_one(v);
            }
            self.cache.drop_order_dependent();
            self.gc.reorder_passes += 1;
        }
        self.collect_garbage();
        let live = self.live_nodes();
        self.gc.next_reorder_at = (live * 2).max(self.gc.reorder_floor());
        live
    }

    /// The current variable order, top level first.
    pub fn var_order(&self) -> Vec<Var> {
        self.level2var.clone()
    }
}
