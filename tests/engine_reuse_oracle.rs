//! Oracle tests for the engine's cross-job reuse layer: a warm pool (warm
//! per-worker sessions + the solved-subrelation cache) must be
//! observationally identical to cold-manager-per-job solving at every
//! worker count, and the cache must actually fire on row-permuted
//! duplicates of the same relation.

use proptest::prelude::*;

use brel_suite::bdd::{Bdd, BddManager, BddSession, CacheStats};
use brel_suite::benchdata::{random_well_defined_relation, table2};
use brel_suite::brel::{BrelConfig, BrelSolver};
use brel_suite::engine::{CostSpec, Engine, JobSpec, RelationSpec, SearchStrategy, WarmSession};

// The tentpole's compile-time claim: the whole BDD handle layer crosses
// threads, so warm sessions can live inside pool workers.
const _: fn() = || {
    fn assert_send<T: Send>() {}
    assert_send::<BddManager>();
    assert_send::<BddSession>();
    assert_send::<Bdd>();
    assert_send::<WarmSession>();
};

/// A small mixed batch seeded from one u64: three distinct random
/// relations plus a duplicate of the first (so warm runs exercise the
/// subrelation cache's hit path, not just its misses).
fn seeded_batch(seed: u64) -> Vec<JobSpec> {
    let costs = [
        CostSpec::SumBddSize,
        CostSpec::LiteralCount,
        CostSpec::CubeCount,
    ];
    let mut jobs: Vec<JobSpec> = (0..3u64)
        .map(|i| {
            let (_space, relation) = random_well_defined_relation(3, 2, 0.3, seed.wrapping_add(i));
            JobSpec::portfolio(
                format!("rand{i}"),
                RelationSpec::from_relation(&relation).unwrap(),
            )
            .with_cost(costs[i as usize])
        })
        .collect();
    let dup = JobSpec {
        name: "rand0_again".into(),
        ..jobs[0].clone()
    };
    jobs.push(dup);
    jobs
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The reuse oracle: for the same batch, a warm engine (the default)
    /// and a cold engine (`with_reuse(false)`, the pre-redesign
    /// behaviour) emit byte-identical timing-free serializations at 1, 2
    /// and 8 workers — session resets and cache hits are pure speedups.
    #[test]
    fn warm_batches_match_cold_batches_at_every_worker_count(seed in any::<u64>()) {
        let jobs = seeded_batch(seed);
        let cold = Engine::with_workers(1).with_reuse(false).solve_batch(&jobs);
        prop_assert_eq!(cold.reuse.warm_reuses, 0);
        prop_assert_eq!(cold.reuse.subrel_cache_hits + cold.reuse.subrel_cache_misses, 0);
        let cold_json = cold.to_json(false);
        let cold_csv = cold.to_csv(false);
        for workers in [1usize, 2, 8] {
            let warm = Engine::with_workers(workers).solve_batch(&jobs);
            prop_assert_eq!(&warm.to_json(false), &cold_json, "warm vs cold JSON, {} workers", workers);
            prop_assert_eq!(&warm.to_csv(false), &cold_csv, "warm vs cold CSV, {} workers", workers);
        }
        // On one worker the schedule is fixed, so reuse is guaranteed: the
        // three later jobs reset the session warm, and the duplicate job is
        // served wholesale from the subrelation cache.
        let serial = Engine::with_workers(1).solve_batch(&jobs);
        prop_assert_eq!(serial.reuse.subrel_cache_hits, 1);
        prop_assert_eq!(serial.reuse.subrel_cache_misses, 3);
        prop_assert_eq!(serial.reuse.warm_reuses, 2);
        prop_assert_eq!(serial.reuse.cold_builds, 1);
    }

    /// Wide mode with persistent per-worker sessions agrees with the cold
    /// engine too (the subrelation cache does not apply in wide mode, but
    /// warm expansion sessions must still be invisible in the output).
    #[test]
    fn warm_wide_batches_match_cold_wide_batches(seed in any::<u64>()) {
        use brel_suite::engine::WideOptions;
        let jobs: Vec<JobSpec> = seeded_batch(seed)
            .into_iter()
            .take(2)
            .map(|j| j.with_strategy(SearchStrategy::BestFirst))
            .collect();
        let wide = WideOptions::default();
        let cold = Engine::with_workers(2).with_wide(wide).with_reuse(false).solve_batch(&jobs);
        prop_assert_eq!(cold.reuse.warm_reuses, 0);
        for workers in [1usize, 4] {
            let warm = Engine::with_workers(workers).with_wide(wide).solve_batch(&jobs);
            prop_assert_eq!(&warm.to_json(false), &cold.to_json(false));
            prop_assert_eq!(&warm.to_csv(false), &cold.to_csv(false));
        }
    }
}

/// Pinned regression: two jobs whose authored pair words differ by
/// permutation (and duplicated pairs) describe the same relation, so the
/// second is served from the solved-subrelation cache — with a report
/// byte-identical to recomputing it.
#[test]
fn row_permuted_duplicate_jobs_hit_the_subrel_cache() {
    // Fig. 1a of the paper (`x << 2 | y`, component 0 first), authored
    // twice: once top-down, once bottom-up with a duplicated pair.
    let words = vec![0b00_00, 0b01_00, 0b10_00, 0b10_11, 0b11_10, 0b11_11];
    let mut shuffled: Vec<u32> = words.iter().rev().copied().collect();
    shuffled.push(0b10_11); // duplicate pair
    let a = RelationSpec::from_packed(2, 2, words).unwrap();
    let b = RelationSpec::from_packed(2, 2, shuffled).unwrap();
    // Canonicalization makes the specs (and so their fingerprints) equal.
    assert_eq!(a, b);
    assert_eq!(a.fingerprint(), b.fingerprint());

    let jobs = vec![
        JobSpec::portfolio("fig1", a),
        JobSpec::portfolio("fig1_shuffled", b),
    ];
    // One worker makes the schedule (and so the hit pattern) deterministic.
    let batch = Engine::with_workers(1).solve_batch(&jobs);
    assert_eq!(batch.num_solved(), 2);
    assert_eq!(batch.reuse.subrel_cache_hits, 1);
    assert_eq!(batch.reuse.subrel_cache_misses, 1);
    let (first, second) = (&batch.jobs[0], &batch.jobs[1]);
    assert!(second.attempts.iter().all(|a| a.reuse.subrel_cache_hit));
    assert!(first.attempts.iter().all(|a| !a.reuse.subrel_cache_hit));
    // The cached report matches the computed one field for field (names,
    // ids and provenance aside).
    assert_eq!(first.attempts.len(), second.attempts.len());
    assert_eq!(first.winner, second.winner);
    for (x, y) in first.attempts.iter().zip(&second.attempts) {
        let mut y = y.clone();
        y.reuse = x.reuse;
        y.wall_micros = x.wall_micros;
        assert_eq!(x, &y);
    }
}

/// Differing solver configuration must key the cache apart even when the
/// relation is identical: a different cost, budget, strategy or backend
/// list never serves a stale report.
#[test]
fn different_configurations_never_share_cache_entries() {
    let (_space, relation) = random_well_defined_relation(3, 2, 0.3, 42);
    let spec = RelationSpec::from_relation(&relation).unwrap();
    let jobs = vec![
        JobSpec::portfolio("sum", spec.clone()),
        JobSpec::portfolio("lits", spec.clone()).with_cost(CostSpec::LiteralCount),
        JobSpec::portfolio("dfs", spec).with_strategy(SearchStrategy::Dfs),
    ];
    let batch = Engine::with_workers(1).solve_batch(&jobs);
    assert_eq!(batch.reuse.subrel_cache_hits, 0);
    assert_eq!(batch.reuse.subrel_cache_misses, 3);
    // And the differently-configured runs are genuinely independent: the
    // literal-count job reports literal costs, not BDD sizes.
    let lits = &batch.jobs[1];
    let w = lits.winning().unwrap();
    assert_eq!(w.cost, w.literals as u64);
}

/// The spec of a named Table 2 instance, as the batch corpus builds it.
fn table2_spec(name: &str) -> RelationSpec {
    let instance = table2::instance(name).expect("known instance");
    let (_space, relation) = table2::generate(&instance);
    RelationSpec::from_relation(&relation).unwrap()
}

/// The kernel gauges a warm reset must rewind to their cold values.
fn table_gauges(stats: &CacheStats) -> (u64, u64, u64) {
    (stats.unique_capacity, stats.unique_len, stats.cache_slots)
}

/// Regression: kernel tables are sized by use, not by a pair-count guess.
/// int9 has 16,384 pairs over 15 variables; presizing from
/// `pairs × vars` = 245,760 gave its χ (93 live nodes) a 524,288-slot
/// unique table. Cold and warm
/// rehydrations both keep the table within 4x of what it holds.
#[test]
fn rehydrated_unique_tables_are_sized_by_use() {
    let min_capacity = BddSession::new(1).cache_stats().unique_capacity;
    let spec = table2_spec("int9");
    let mut warm = WarmSession::new();
    for round in ["cold", "warm"] {
        let (space, relation, _) = warm.rehydrate(&spec);
        let capacity = space.mgr().cache_stats().unique_capacity;
        let live = space.gc_stats().live_nodes;
        assert!(
            capacity <= 4 * min_capacity.max(live),
            "{round}: {capacity} slots for {live} live nodes"
        );
        drop((space, relation));
    }
    assert_eq!(warm.counts(), (1, 1, 0));
}

/// A session that just solved int9 and is then reset for int1 reports the
/// same table gauges as a cold session for int1: a warm reset rewinds the
/// unique table and the op cache to their cold sizes, whatever they grew
/// to before.
#[test]
fn a_reset_after_a_larger_solve_matches_cold_gauges() {
    let mut warm = WarmSession::new();
    let (space, relation, _) = warm.rehydrate(&table2_spec("int9"));
    BrelSolver::new(BrelConfig::default())
        .solve(&relation)
        .unwrap();
    let solved = space.mgr().cache_stats();
    drop((space, relation));

    let int1 = table2_spec("int1");
    let (cold_space, cold_relation, _) = WarmSession::cold().rehydrate(&int1);
    let cold = cold_space.mgr().cache_stats();
    assert!(
        solved.unique_capacity > cold.unique_capacity,
        "the int9 solve must grow the unique table past int1's cold size"
    );
    let (warm_space, warm_relation, was_warm) = warm.rehydrate(&int1);
    assert!(was_warm);
    assert_eq!(
        table_gauges(&warm_space.mgr().cache_stats()),
        table_gauges(&cold)
    );
    drop((cold_space, cold_relation, warm_space, warm_relation));
}
