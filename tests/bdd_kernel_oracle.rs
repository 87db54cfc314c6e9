//! Oracle tests for the rebuilt BDD kernel: every cached/optimized
//! operation is checked node-for-node against a naive reference on randomly
//! generated functions, and a cache-eviction stress test proves correctness
//! survives a deliberately tiny operation cache.
//!
//! The oracle is a plain truth table maintained *outside* the BDD package:
//! random expressions are built op by op, with each Boolean connective
//! applied both to the BDD and to the table, so a kernel bug cannot hide in
//! a shared code path. Canonicity turns semantic equality into node
//! identity: two constructions of the same function in one manager must
//! return the same `NodeId`.

//! The lifecycle oracles at the bottom of this file additionally pin the
//! node-lifecycle machinery: the solver must produce node-for-node
//! identical solutions under an aggressively collecting kernel, sifting
//! must preserve semantics and canonicity, a sweep must evict every
//! cached result so no stale hit can resurrect a reclaimed `NodeId`,
//! collection must cut a churning workload's peak at least 3x, and every
//! Table-1 ISF strategy must stay sound under constant sweeps and sifting.

use proptest::prelude::*;

use brel_suite::bdd::{Bdd, BddConfig, BddManager, BddSession, GcStats, NodeId, Var};
use brel_suite::benchdata::random_relation::random_well_defined_relation_with;
use brel_suite::benchdata::table2;
use brel_suite::brel::{BrelConfig, BrelSolver, IsfMinimizer};
use brel_suite::relation::RelationSpace;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A function built two ways: as a BDD node and as a truth table indexed by
/// assignments (variable `i` is bit `i` of the index).
#[derive(Clone)]
struct Checked {
    node: NodeId,
    table: Vec<bool>,
}

/// Builds `ops` random connectives over `num_vars` variables, keeping the
/// BDD and the truth table in lockstep.
fn random_checked(m: &mut BddManager, num_vars: usize, ops: usize, seed: u64) -> Checked {
    let mut rng = StdRng::seed_from_u64(seed);
    let rows = 1usize << num_vars;
    let mut pool: Vec<Checked> = (0..num_vars)
        .map(|i| Checked {
            node: m.literal(Var(i as u32), true),
            table: (0..rows).map(|idx| idx & (1 << i) != 0).collect(),
        })
        .collect();
    for _ in 0..ops {
        let a = pool[rng.gen_range(0..pool.len() as u32) as usize].clone();
        let b = pool[rng.gen_range(0..pool.len() as u32) as usize].clone();
        let (node, table): (NodeId, Vec<bool>) = match rng.gen_range(0..4u32) {
            0 => (
                m.and(a.node, b.node),
                a.table
                    .iter()
                    .zip(&b.table)
                    .map(|(&x, &y)| x && y)
                    .collect(),
            ),
            1 => (
                m.or(a.node, b.node),
                a.table
                    .iter()
                    .zip(&b.table)
                    .map(|(&x, &y)| x || y)
                    .collect(),
            ),
            2 => (
                m.xor(a.node, b.node),
                a.table.iter().zip(&b.table).map(|(&x, &y)| x ^ y).collect(),
            ),
            _ => (m.not(a.node), a.table.iter().map(|&x| !x).collect()),
        };
        pool.push(Checked { node, table });
    }
    pool.pop().expect("pool is never empty")
}

/// The naive reference construction: a bottom-up Shannon expansion of a
/// truth table through `mk` only (no `ite`, no operation cache).
fn bdd_from_truth_table(m: &mut BddManager, var: u32, table: &[bool]) -> NodeId {
    if table.len() == 1 {
        return if table[0] { NodeId::ONE } else { NodeId::ZERO };
    }
    // Variable `var` is the LSB of the index: even rows are var=0.
    let lo_rows: Vec<bool> = table.iter().copied().step_by(2).collect();
    let hi_rows: Vec<bool> = table.iter().copied().skip(1).step_by(2).collect();
    let lo = bdd_from_truth_table(m, var + 1, &lo_rows);
    let hi = bdd_from_truth_table(m, var + 1, &hi_rows);
    m.mk(Var(var), lo, hi)
}

fn assignment(num_vars: usize, idx: usize) -> Vec<bool> {
    (0..num_vars).map(|i| idx & (1 << i) != 0).collect()
}

fn params() -> impl Strategy<Value = (usize, usize, u64)> {
    (3usize..=6, 4usize..=24, any::<u64>())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// `ite`-built functions equal the naive truth-table construction
    /// node-for-node (canonicity makes this an identity check).
    #[test]
    fn ite_agrees_with_truth_table_reference((nv, ops, seed) in params()) {
        let mut m = BddManager::new(nv);
        let f = random_checked(&mut m, nv, ops, seed);
        let reference = bdd_from_truth_table(&mut m, 0, &f.table);
        prop_assert_eq!(f.node, reference);
        for idx in 0..f.table.len() {
            prop_assert_eq!(m.eval(f.node, &assignment(nv, idx)), f.table[idx]);
        }
    }

    /// `exists_many` equals iterated single-variable `exists` node-for-node
    /// and matches the semantic quantification of the truth table.
    #[test]
    fn exists_many_agrees_with_iterated_and_semantics((nv, ops, seed) in params()) {
        let mut m = BddManager::new(nv);
        let f = random_checked(&mut m, nv, ops, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
        let vars: Vec<Var> = (0..nv as u32)
            .filter(|_| rng.gen_bool(0.5))
            .map(Var)
            .collect();
        let via_set = m.exists_many(f.node, &vars);
        let mut via_iter = f.node;
        for &v in &vars {
            via_iter = m.exists(via_iter, v);
        }
        prop_assert_eq!(via_set, via_iter);
        // Semantic oracle on the table: OR over the quantified positions.
        let mask: usize = vars.iter().map(|v| 1usize << v.index()).sum();
        for idx in 0..f.table.len() {
            let mut any = false;
            // Enumerate every override of the quantified bits via submask walk.
            let mut sub = mask;
            loop {
                any |= f.table[(idx & !mask) | sub];
                if sub == 0 {
                    break;
                }
                sub = (sub - 1) & mask;
            }
            prop_assert_eq!(m.eval(via_set, &assignment(nv, idx)), any);
        }
    }

    /// `forall_many` (direct dual recursion) equals the double-negation
    /// construction it replaced, node-for-node.
    #[test]
    fn forall_many_agrees_with_double_negation((nv, ops, seed) in params()) {
        let mut m = BddManager::new(nv);
        let f = random_checked(&mut m, nv, ops, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xa11);
        let vars: Vec<Var> = (0..nv as u32)
            .filter(|_| rng.gen_bool(0.5))
            .map(Var)
            .collect();
        let direct = m.forall_many(f.node, &vars);
        let nf = m.not(f.node);
        let e = m.exists_many(nf, &vars);
        let dual = m.not(e);
        prop_assert_eq!(direct, dual);
    }

    /// The single-pass `restrict_assignment` equals the chain of
    /// single-variable cofactors it replaced, node-for-node, and matches
    /// the semantic restriction of the truth table.
    #[test]
    fn restrict_agrees_with_chained_cofactors((nv, ops, seed) in params()) {
        let mut m = BddManager::new(nv);
        let f = random_checked(&mut m, nv, ops, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xbeef);
        let mut pairs: Vec<(Var, bool)> = Vec::new();
        for i in 0..nv as u32 {
            if rng.gen_bool(0.6) {
                let value = rng.gen_bool(0.5);
                pairs.push((Var(i), value));
            }
        }
        let single_pass = m.restrict_assignment(f.node, &pairs);
        let mut chained = f.node;
        for &(v, b) in &pairs {
            chained = m.cofactor(chained, v, b);
        }
        prop_assert_eq!(single_pass, chained);
        for idx in 0..f.table.len() {
            let mut forced = idx;
            for &(v, b) in &pairs {
                let bit = 1usize << v.index();
                forced = if b { forced | bit } else { forced & !bit };
            }
            prop_assert_eq!(
                m.eval(single_pass, &assignment(nv, idx)),
                f.table[forced]
            );
        }
    }

    /// Eviction stress: a manager pinned to a 2-slot operation cache (every
    /// insert collides almost immediately) builds the same functions as a
    /// default manager, operation for operation.
    #[test]
    fn tiny_cache_survives_eviction_storm((nv, ops, seed) in params()) {
        let mut tiny = BddManager::new(nv);
        tiny.resize_op_cache(2);
        let mut full = BddManager::new(nv);
        let a = random_checked(&mut tiny, nv, ops, seed);
        let b = random_checked(&mut full, nv, ops, seed);
        // Same truth table, same canonical size, in both managers.
        prop_assert_eq!(&a.table, &b.table);
        prop_assert_eq!(tiny.size(a.node), full.size(b.node));
        for idx in 0..a.table.len() {
            let asg = assignment(nv, idx);
            prop_assert_eq!(tiny.eval(a.node, &asg), a.table[idx]);
            prop_assert_eq!(full.eval(b.node, &asg), b.table[idx]);
        }
        // Quantification and restriction also survive the storm.
        let vars: Vec<Var> = (0..nv as u32 / 2).map(Var).collect();
        let e_tiny = tiny.exists_many(a.node, &vars);
        let e_full = full.exists_many(b.node, &vars);
        for idx in 0..a.table.len() {
            let asg = assignment(nv, idx);
            prop_assert_eq!(tiny.eval(e_tiny, &asg), full.eval(e_full, &asg));
        }
        let stats = tiny.cache_stats();
        prop_assert_eq!(stats.cache_slots, 2);
    }

    /// The solver under an aggressive GC threshold produces node-for-node
    /// identical solutions (same truth tables, same cost, same search
    /// trajectory) as the append-only run: collection reclaims memory but
    /// may never change a function or a BDD size.
    #[test]
    fn solver_under_aggressive_gc_matches_append_only_run(
        seed in 0u64..256,
        extra in 0u32..3,
    ) {
        let prob = f64::from(extra) * 0.15;
        let append_only = BddConfig::new().auto_gc(false).auto_reorder(false);
        let aggressive = BddConfig::new()
            .auto_gc(true)
            .gc_min_nodes(8)
            .auto_reorder(false);
        let (space_a, rel_a) =
            random_well_defined_relation_with(3, 2, prob, seed, append_only);
        let (space_b, rel_b) =
            random_well_defined_relation_with(3, 2, prob, seed, aggressive);
        let solver = BrelSolver::new(BrelConfig::default());
        let sol_a = solver.solve(&rel_a).expect("well defined");
        let sol_b = solver.solve(&rel_b).expect("well defined");
        prop_assert_eq!(sol_a.cost, sol_b.cost);
        prop_assert_eq!(sol_a.stats.explored, sol_b.stats.explored);
        prop_assert_eq!(sol_a.stats.splits, sol_b.stats.splits);
        prop_assert!(sol_b.stats.gc_collections > 0,
            "an 8-node threshold must force collections");
        for j in 0..2 {
            for input in space_a.enumerate_inputs() {
                let asg_a = space_a.full_assignment(&input, &[]);
                let asg_b = space_b.full_assignment(&input, &[]);
                prop_assert_eq!(
                    sol_a.function.output(j).eval(&asg_a),
                    sol_b.function.output(j).eval(&asg_b),
                    "output {} differs on {:?}", j, input
                );
            }
        }
    }

    /// The solver under aggressive GC *and* forced auto-reordering stays
    /// sound: the solution is compatible, and on functional relations
    /// (whose compatible function is unique) it is node-for-node identical
    /// to the untouched run even though the variable order moved.
    #[test]
    fn solver_under_forced_sifting_stays_sound(seed in 0u64..256) {
        let pinned = BddConfig::new().auto_gc(false).auto_reorder(false);
        let sifting = BddConfig::new()
            .auto_gc(true)
            .gc_min_nodes(32)
            .auto_reorder(true);
        let (space_ref, rel_ref) =
            random_well_defined_relation_with(4, 2, 0.0, seed, pinned);
        let (space_gc, rel_gc) =
            random_well_defined_relation_with(4, 2, 0.0, seed, sifting);
        let solver = BrelSolver::new(BrelConfig::default());
        let sol_ref = solver.solve(&rel_ref).expect("well defined");
        let sol_gc = solver.solve(&rel_gc).expect("well defined");
        prop_assert!(
            space_gc.gc_stats().reorder_passes > 0,
            "the aggressive threshold must actually force sifting passes"
        );
        prop_assert!(rel_gc.is_compatible(&sol_gc.function));
        for j in 0..2 {
            for input in space_ref.enumerate_inputs() {
                let asg_ref = space_ref.full_assignment(&input, &[]);
                let asg_gc = space_gc.full_assignment(&input, &[]);
                prop_assert_eq!(
                    sol_ref.function.output(j).eval(&asg_ref),
                    sol_gc.function.output(j).eval(&asg_gc),
                    "functional relations have one solution; output {} differs on {:?}",
                    j, input
                );
            }
        }
    }

    /// Sifting preserves the semantics of every rooted function and keeps
    /// the manager canonical: rebuilding a sifted function from its truth
    /// table under the *new* order returns the identical handle.
    #[test]
    fn sifting_preserves_semantics_and_canonicity((nv, ops, seed) in params()) {
        let mgr = BddSession::new(nv);
        let checked = random_checked_handles(&mgr, nv, ops, seed);
        mgr.reorder_sift();
        for (f, table) in &checked {
            for (idx, &expected) in table.iter().enumerate() {
                prop_assert_eq!(f.eval(&assignment(nv, idx)), expected);
            }
            let rebuilt = handle_from_table(&mgr, nv, table);
            prop_assert_eq!(&rebuilt, f, "canonicity under the new order");
            // Counting goes through the level permutation, so it must be
            // unaffected by where sifting parked each variable.
            let expected_count = table.iter().filter(|&&bit| bit).count() as u128;
            prop_assert_eq!(f.sat_count(nv), expected_count);
        }
    }
}

/// Handle-based sibling of `random_checked`: random connectives through
/// rooted `Bdd`s, each paired with its truth table.
fn random_checked_handles(
    mgr: &BddSession,
    num_vars: usize,
    ops: usize,
    seed: u64,
) -> Vec<(Bdd, Vec<bool>)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let rows = 1usize << num_vars;
    let mut pool: Vec<(Bdd, Vec<bool>)> = (0..num_vars)
        .map(|i| {
            (
                mgr.var(i as u32),
                (0..rows).map(|idx| idx & (1 << i) != 0).collect(),
            )
        })
        .collect();
    for _ in 0..ops {
        let a = pool[rng.gen_range(0..pool.len() as u32) as usize].clone();
        let b = pool[rng.gen_range(0..pool.len() as u32) as usize].clone();
        let entry = match rng.gen_range(0..4u32) {
            0 => (
                a.0.and(&b.0),
                a.1.iter().zip(&b.1).map(|(&x, &y)| x && y).collect(),
            ),
            1 => (
                a.0.or(&b.0),
                a.1.iter().zip(&b.1).map(|(&x, &y)| x || y).collect(),
            ),
            2 => (
                a.0.xor(&b.0),
                a.1.iter().zip(&b.1).map(|(&x, &y)| x ^ y).collect(),
            ),
            _ => (a.0.complement(), a.1.iter().map(|&x| !x).collect()),
        };
        pool.push(entry);
    }
    pool
}

/// Rebuilds a function from its truth table through handle operations
/// (valid under any variable order, unlike the `mk`-based reference).
fn handle_from_table(mgr: &BddSession, num_vars: usize, table: &[bool]) -> Bdd {
    let mut acc = mgr.zero();
    for (idx, &bit) in table.iter().enumerate() {
        if bit {
            acc = acc.or(&mgr.minterm(&assignment(num_vars, idx)));
        }
    }
    acc
}

/// The pinned eviction-after-sweep case: before a sweep the repeated
/// operation is a pure cache hit; after dropping the result and sweeping,
/// the same operation must *recompute* (inserts, not a stale hit), reuse
/// the reclaimed arena slots, and still evaluate correctly — no stale
/// cache or unique-table entry can resurrect a reclaimed `NodeId`.
#[test]
fn sweep_evicts_cached_results_and_recycles_slots_safely() {
    let mgr = BddSession::with_config(6, 1024, BddConfig::new().auto_gc(false));
    let a = mgr.var(0);
    let b = mgr.var(1);
    let c = mgr.var(2);
    let d = mgr.var(3);
    let f = a.xor(&b).or(&c);
    let g = b.iff(&d);

    let x = f.and(&g);
    let truth: Vec<bool> = (0..64u32)
        .map(|bits| {
            let asg: Vec<bool> = (0..6).map(|k| bits & (1 << k) != 0).collect();
            x.eval(&asg)
        })
        .collect();
    let before_hit = mgr.cache_stats();
    let x2 = f.and(&g);
    let after_hit = mgr.cache_stats();
    assert_eq!(
        after_hit.cache_hits,
        before_hit.cache_hits + 1,
        "repeating the op before the sweep is a pure cache hit"
    );
    assert_eq!(after_hit.cache_inserts, before_hit.cache_inserts);

    let arena_before = mgr.num_nodes();
    drop(x);
    drop(x2);
    let reclaimed = mgr.collect_garbage();
    assert!(reclaimed > 0, "the conjunction's nodes must be reclaimed");
    assert!(mgr.gc_stats().nodes_reclaimed >= reclaimed as u64);

    let before_redo = mgr.cache_stats();
    let x3 = f.and(&g);
    let after_redo = mgr.cache_stats();
    assert!(
        after_redo.cache_inserts > before_redo.cache_inserts,
        "after the sweep the op must recompute — a stale hit would have \
         resurrected a reclaimed node id"
    );
    assert_eq!(
        mgr.num_nodes(),
        arena_before,
        "the recomputation reuses the reclaimed slots instead of growing"
    );
    for (bits, &expected) in truth.iter().enumerate() {
        let asg: Vec<bool> = (0..6).map(|k| bits & (1 << k) != 0).collect();
        assert_eq!(x3.eval(&asg), expected);
    }
}

/// One churn round: derives a round-salted function from the int9
/// characteristic (xor with a fresh input polarity cube, then output
/// abstraction) and drops it. Each round builds distinct nodes, so an
/// append-only arena grows linearly while a collecting one stays near the
/// GC threshold.
fn churn_round(space: &RelationSpace, chi: &Bdd, round: u32) -> usize {
    let lits: Vec<(Var, bool)> = space
        .input_vars()
        .iter()
        .enumerate()
        .map(|(i, &v)| (v, (round >> (i % 16)) & 1 == 1))
        .collect();
    let cube = space.mgr().cube(&lits);
    let salted = chi.xor(&cube);
    let abstracted = salted.exists(space.output_vars());
    salted.size() + abstracted.size()
}

/// Runs 256 churn rounds on a fresh int9 manager and reports the
/// lifecycle counters of the churn phase alone. The config is explicit
/// (the `BREL_BDD_*` environment cannot override it) and keeps sifting
/// off in both modes: a sift ends with a sweep, which would silently
/// collect the append-only baseline. Counters and the peak gauge start
/// after construction, so collections while building the relation do not
/// leak into the comparison.
fn churn_int9(auto_gc: bool) -> GcStats {
    let instance = table2::instance("int9").expect("known instance");
    let config = BddConfig::new()
        .auto_gc(auto_gc)
        .gc_min_nodes(1024)
        .auto_reorder(false);
    let (space, relation) = table2::generate_with_config(&instance, config);
    let mgr = space.mgr().clone();
    mgr.reset_peak_live_nodes();
    let base = mgr.gc_stats();
    let chi = relation.characteristic().clone();
    let total: usize = (0..256).map(|round| churn_round(&space, &chi, round)).sum();
    assert!(total > 0);
    mgr.gc_stats().delta_since(&base)
}

/// On the churn workload the collecting kernel's peak live node count is
/// at least 3x below the append-only kernel's.
#[test]
fn gc_churn_peak_drops_at_least_3x_vs_append_only() {
    let append_only = churn_int9(false);
    let collected = churn_int9(true);
    assert_eq!(append_only.collections, 0);
    assert!(collected.collections > 0);
    assert!(collected.nodes_reclaimed > 0);
    assert!(
        append_only.peak_live_nodes >= 3 * collected.peak_live_nodes,
        "peak {} (append-only) vs {} (GC): expected >= 3x reduction",
        append_only.peak_live_nodes,
        collected.peak_live_nodes
    );
}

/// The eight Table-1 ISF strategies (ISOP, Constrain, Restrict and
/// LICompact, each with and without variable elimination) on family
/// instances built in a session with a 256-node GC floor and automatic
/// sifting: each strategy's pick for every output projection lies in its
/// interval, and BREL driven by the strategy, as Table 1 runs it, returns
/// a compatible function while sweeps and sifting passes move the order
/// under the generalized-cofactor cache entries.
#[test]
fn table1_strategies_stay_sound_under_a_tiny_gc_floor_and_auto_reorder() {
    let hostile = BddConfig::new().gc_min_nodes(256).auto_reorder(true);
    for instance in table2::instances().into_iter().take(3) {
        for (name, minimizer) in IsfMinimizer::table1_strategies() {
            let (space, relation) = table2::generate_with_config(&instance, hostile);
            for output in 0..space.num_outputs() {
                let isf = relation.projection(output);
                assert!(
                    isf.admits(&minimizer.minimize(&isf)),
                    "{name} left the interval of {} output {output}",
                    instance.name
                );
            }
            let config = BrelConfig {
                minimizer,
                ..BrelConfig::table2()
            };
            let solution = BrelSolver::new(config)
                .solve(&relation)
                .expect("family relations are well defined");
            assert!(
                relation.is_compatible(&solution.function),
                "{name} returned an incompatible function on {}",
                instance.name
            );
            let gc = space.gc_stats();
            assert!(
                gc.reorder_passes > 0 && gc.collections > 0,
                "{name} on {}: the hostile config must force sweeps and sifting, got {gc:?}",
                instance.name
            );
        }
    }
}
