//! Cross-job reuse: warm per-worker BDD sessions and the solved-subrelation
//! cache.
//!
//! Since the kernel redesign the BDD manager is `Send` and a
//! [`BddSession`] can be *reset* back to a cold-equivalent state while
//! keeping its allocations. The engine exploits that twice:
//!
//! * **Warm sessions** — every pool worker keeps one [`WarmSession`] for
//!   its whole lifetime and rehydrates each job into it. A successful
//!   [`BddSession::reset`] makes the manager observationally identical to
//!   a freshly built one (same unique-table capacity, same operation-cache
//!   growth schedule, same gauges) while reusing the arena's allocation,
//!   so per-job reports stay byte-identical to cold runs and the batch
//!   remains worker-count deterministic.
//! * **The solved-subrelation cache** — jobs whose relations are equal up
//!   to row order, duplicate pairs and irrelevant input columns (see
//!   [`brel_core::relation_fingerprint`]) are solved once; later jobs take
//!   the memoized [`SolutionReport`]s. Hits are all-or-nothing per job:
//!   either every backend of the portfolio is served from the cache, or
//!   the whole portfolio re-executes from a fresh rehydration, so a cached
//!   report is always the product of a full clean portfolio run and
//!   byte-identical (timing aside) to what re-solving would produce.
//!
//! Whether a particular job was served warm or from the cache depends on
//! scheduling, so the per-attempt [`ReuseStats`] flags and the per-batch
//! [`BatchReuse`] counters are *timing-class* data: they are only
//! serialized when `include_timing` is set (see [`crate::report`]).

use std::collections::HashMap;
use std::sync::Mutex;

use brel_bdd::{BddConfig, BddSession};
use brel_relation::{BooleanRelation, RelationSpace};

use crate::backend::SolutionReport;
use crate::job::{JobSpec, RelationSpec};

/// How one backend attempt was produced, for reuse accounting. Scheduling
/// decides which jobs land on a warm session or hit the cache, so these
/// flags are excluded from timing-free serializations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ReuseStats {
    /// The relation was rehydrated into a reset (warm) worker session
    /// rather than a freshly constructed manager.
    pub warm_session: bool,
    /// The report was served from the cross-job solved-subrelation cache.
    pub subrel_cache_hit: bool,
}

/// Batch-level reuse counters, aggregated over every worker.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BatchReuse {
    /// Rehydrations that reused a warm worker session.
    pub warm_reuses: u64,
    /// Rehydrations that had to build a fresh manager (first job of each
    /// worker, or a failed reset).
    pub cold_builds: u64,
    /// Jobs whose whole portfolio was served from the subrelation cache.
    pub subrel_cache_hits: u64,
    /// Jobs that executed and (when solvable) populated the cache.
    pub subrel_cache_misses: u64,
    /// Sessions discarded after a panic or resource abort (see
    /// `WarmSession::quarantine`); the next rehydration builds cold.
    pub quarantines: u64,
}

impl BatchReuse {
    /// The counters as `(name, value)` pairs, for absorption into a
    /// [`brel_obs::MetricsRegistry`].
    pub fn metrics(&self) -> [(&'static str, u64); 5] {
        [
            ("warm_reuses", self.warm_reuses),
            ("cold_builds", self.cold_builds),
            ("subrel_cache_hits", self.subrel_cache_hits),
            ("subrel_cache_misses", self.subrel_cache_misses),
            ("quarantines", self.quarantines),
        ]
    }
}

impl std::ops::AddAssign for BatchReuse {
    fn add_assign(&mut self, other: BatchReuse) {
        self.warm_reuses += other.warm_reuses;
        self.cold_builds += other.cold_builds;
        self.subrel_cache_hits += other.subrel_cache_hits;
        self.subrel_cache_misses += other.subrel_cache_misses;
        self.quarantines += other.quarantines;
    }
}

impl ReuseStats {
    /// The flags as `(name, value)` pairs (`0`/`1`), for absorption into
    /// a [`brel_obs::MetricsRegistry`].
    pub fn metrics(&self) -> [(&'static str, u64); 2] {
        [
            ("warm_session", u64::from(self.warm_session)),
            ("subrel_cache_hit", u64::from(self.subrel_cache_hit)),
        ]
    }
}

/// A persistent per-worker BDD session, rehydrating successive jobs into
/// one reusable manager. The single rehydration path of the engine: the
/// one-shot [`RelationSpec::rehydrate`] and wide mode's per-expansion
/// rehydration both go through here.
#[derive(Debug)]
pub struct WarmSession {
    session: Option<BddSession>,
    keep_warm: bool,
    warm_reuses: u64,
    cold_builds: u64,
    quarantines: u64,
}

impl Default for WarmSession {
    fn default() -> Self {
        WarmSession::new()
    }
}

impl WarmSession {
    /// A session that stays warm across rehydrations.
    pub fn new() -> Self {
        WarmSession {
            session: None,
            keep_warm: true,
            warm_reuses: 0,
            cold_builds: 0,
            quarantines: 0,
        }
    }

    /// A session that rebuilds a fresh manager on every rehydration —
    /// the pre-redesign per-job behaviour, kept for oracle comparisons
    /// (see [`crate::EngineConfig::reuse`]).
    pub fn cold() -> Self {
        WarmSession {
            session: None,
            keep_warm: false,
            warm_reuses: 0,
            cold_builds: 0,
            quarantines: 0,
        }
    }

    /// Quarantines the stored session: a job that panicked or hit a
    /// resource abort may leave the manager in an arbitrary intermediate
    /// state, so it is discarded outright — never reset, never rehydrated
    /// into — and the next rehydration builds a cold manager. The engine
    /// calls this on *every* classified fault (panic, quota, deadline);
    /// only clean truncations keep their session.
    pub(crate) fn quarantine(&mut self) {
        self.session = None;
        self.quarantines += 1;
        brel_obs::event(brel_obs::Category::Session, "quarantine");
        brel_obs::count(brel_obs::Category::Session, "session.quarantines", 1);
    }

    /// Rehydrates a spec into this session's manager, resetting the warm
    /// manager when possible and building a fresh one otherwise. Returns
    /// the space, the relation, and whether the warm path was taken.
    ///
    /// The manager is pre-sized from the row count: a characteristic
    /// function built from `P` related pairs over `n + m` variables lands
    /// near `P · (n + m)` decision nodes in the common case. The
    /// characteristic function is built bottom-up from the sorted rows
    /// (see [`BooleanRelation::from_rows`]), which leaves no garbage, so
    /// the relation goes to the backends without a sweep.
    pub fn rehydrate(&mut self, spec: &RelationSpec) -> (RelationSpace, BooleanRelation, bool) {
        self.rehydrate_with(spec, BddConfig::from_env())
    }

    /// [`WarmSession::rehydrate`] with automatic variable reordering
    /// forced off, whatever the environment says. Wide mode uses this:
    /// its sessions stay warm across many expansions, so a sifting pass
    /// would fire at a point that depends on which subproblems a worker
    /// happened to execute — making BDD shapes (and thus costs) depend
    /// on steal order.
    pub(crate) fn rehydrate_stable(
        &mut self,
        spec: &RelationSpec,
    ) -> (RelationSpace, BooleanRelation, bool) {
        self.rehydrate_with(spec, BddConfig::from_env().auto_reorder(false))
    }

    fn rehydrate_with(
        &mut self,
        spec: &RelationSpec,
        config: BddConfig,
    ) -> (RelationSpace, BooleanRelation, bool) {
        let _span = brel_obs::span(brel_obs::Category::Session, "rehydrate");
        let num_vars = spec.num_inputs() + spec.num_outputs();
        let pairs: usize = spec.rows().iter().map(|(_, outs)| outs.len().max(1)).sum();
        let expected_nodes = pairs.saturating_mul(num_vars);
        let (session, warm) = self.obtain(num_vars, expected_nodes, config);
        let space = RelationSpace::from_session(session, spec.num_inputs(), spec.num_outputs());
        let relation = BooleanRelation::from_rows(&space, spec.rows())
            .expect("arities were validated at construction");
        (space, relation, warm)
    }

    /// Prepares a sized session *without* constructing a relation — the
    /// wide-mode entry point for workers that receive their subproblems
    /// as in-manager handles (or steal them by structural BDD import)
    /// rather than rehydrating a spec up front. Reordering is forced off for the
    /// same steal-order-determinism reason as
    /// [`WarmSession::rehydrate_stable`]. Returns the session and
    /// whether the warm path was taken.
    pub(crate) fn prepare(&mut self, num_vars: usize, expected_nodes: usize) -> (BddSession, bool) {
        let _span = brel_obs::span(brel_obs::Category::Session, "prepare");
        let config = BddConfig::from_env().auto_reorder(false);
        self.obtain(num_vars, expected_nodes, config)
    }

    /// The single reset-or-build path behind [`WarmSession::rehydrate`]
    /// and [`WarmSession::prepare`].
    fn obtain(
        &mut self,
        num_vars: usize,
        expected_nodes: usize,
        config: BddConfig,
    ) -> (BddSession, bool) {
        let mut warm = false;
        // A reset can only fail while handles from the previous job are
        // still rooted; the engine drops them before re-entering, so the
        // fallback is a safety net, not a code path jobs normally take.
        let session = match self.session.take() {
            Some(previous) => {
                let reset_ok = {
                    let _reset = brel_obs::span(brel_obs::Category::Session, "reset");
                    previous.reset(num_vars, expected_nodes, config)
                };
                if reset_ok {
                    warm = true;
                    previous
                } else {
                    BddSession::with_config(num_vars, expected_nodes, config)
                }
            }
            None => BddSession::with_config(num_vars, expected_nodes, config),
        };
        if self.keep_warm {
            self.session = Some(session.clone());
        }
        if warm {
            self.warm_reuses += 1;
            brel_obs::event(brel_obs::Category::Session, "warm_hit");
            brel_obs::count(brel_obs::Category::Session, "session.warm_reuses", 1);
        } else {
            self.cold_builds += 1;
            brel_obs::event(brel_obs::Category::Session, "cold_build");
            brel_obs::count(brel_obs::Category::Session, "session.cold_builds", 1);
        }
        (session, warm)
    }

    /// `(warm_reuses, cold_builds, quarantines)` of this session so far.
    pub fn counts(&self) -> (u64, u64, u64) {
        (self.warm_reuses, self.cold_builds, self.quarantines)
    }
}

/// The key of one memoized backend attempt. The fingerprint canonicalizes
/// the relation; the remaining fields pin everything else that shapes the
/// report — including the *portfolio prefix* `backends[..=i]`, because the
/// attempts of one job share a manager and a backend's kernel counters
/// depend on which backends ran before it on that manager.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct SubrelKey {
    fingerprint: u64,
    cost: crate::job::CostSpec,
    budget: crate::job::JobBudget,
    strategy: brel_core::SearchStrategy,
    // The fault policy shapes the report (step deadlines truncate, quotas
    // abort), so jobs under different policies never share cache entries.
    fault: crate::fault::FaultPolicy,
    prefix: Vec<crate::job::BackendKind>,
}

impl SubrelKey {
    fn new(fingerprint: u64, job: &JobSpec, attempt: usize) -> Self {
        SubrelKey {
            fingerprint,
            cost: job.cost,
            budget: job.budget,
            strategy: job.strategy,
            fault: job.fault,
            prefix: job.backends[..=attempt].to_vec(),
        }
    }
}

/// The shared cross-job solved-subrelation cache. One instance per
/// narrow batch with reuse on, shared by every worker's [`crate::Runner`]
/// (which counts its own hits and misses).
#[derive(Debug, Default)]
pub(crate) struct ReuseState {
    map: Mutex<HashMap<SubrelKey, SolutionReport>>,
}

impl ReuseState {
    /// Looks up the whole portfolio of a job. Returns the memoized reports
    /// only when *every* attempt is cached (all-or-nothing, so a cached
    /// report is always the product of a full portfolio run).
    pub(crate) fn lookup_job(
        &self,
        fingerprint: u64,
        job: &JobSpec,
    ) -> Option<Vec<SolutionReport>> {
        let map = self.map.lock().expect("subrel cache poisoned");
        (0..job.backends.len())
            .map(|i| map.get(&SubrelKey::new(fingerprint, job, i)).cloned())
            .collect()
    }

    /// Memoizes a fully executed portfolio. Skipped when any backend
    /// failed (`attempts` shorter than the backend list), so partial runs
    /// never pollute the cache.
    pub(crate) fn insert_job(&self, fingerprint: u64, job: &JobSpec, attempts: &[SolutionReport]) {
        if attempts.len() != job.backends.len() || attempts.is_empty() {
            return;
        }
        let mut map = self.map.lock().expect("subrel cache poisoned");
        for (i, attempt) in attempts.iter().enumerate() {
            map.insert(SubrelKey::new(fingerprint, job, i), attempt.clone());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn warm_sessions_reset_and_count() {
        let mut warm = WarmSession::new();
        let space = RelationSpace::new(2, 1);
        let r = BooleanRelation::from_table(&space, "00:{0}\n01:{1}\n10:{1}\n11:{0}").unwrap();
        let spec = RelationSpec::from_relation(&r).unwrap();
        let (s1, r1, was_warm) = warm.rehydrate(&spec);
        assert!(!was_warm, "first rehydration is cold");
        assert!(r1.is_well_defined());
        drop((s1, r1));
        let (s2, r2, was_warm) = warm.rehydrate(&spec);
        assert!(was_warm, "second rehydration reuses the session");
        assert!(r2.is_well_defined());
        drop((s2, r2));
        assert_eq!(warm.counts(), (1, 1, 0));
    }

    #[test]
    fn quarantined_sessions_rebuild_cold() {
        let mut warm = WarmSession::new();
        let space = RelationSpace::new(2, 1);
        let r = BooleanRelation::from_table(&space, "00:{0}\n01:{1}\n10:{1}\n11:{0}").unwrap();
        let spec = RelationSpec::from_relation(&r).unwrap();
        let (s1, r1, _) = warm.rehydrate(&spec);
        drop((s1, r1));
        warm.quarantine();
        let (s2, r2, was_warm) = warm.rehydrate(&spec);
        assert!(!was_warm, "a quarantined session is never rehydrated");
        assert!(r2.is_well_defined());
        drop((s2, r2));
        assert_eq!(warm.counts(), (0, 2, 1));
    }

    #[test]
    fn cold_sessions_never_go_warm() {
        let mut cold = WarmSession::cold();
        let space = RelationSpace::new(1, 1);
        let r = BooleanRelation::from_table(&space, "0:{0}\n1:{1}").unwrap();
        let spec = RelationSpec::from_relation(&r).unwrap();
        for _ in 0..3 {
            let (_s, _r, was_warm) = cold.rehydrate(&spec);
            assert!(!was_warm);
        }
        assert_eq!(cold.counts(), (0, 3, 0));
    }

    #[test]
    fn warm_rehydration_matches_cold_gauges() {
        // The engine's determinism hinges on reset being observationally
        // cold: a warm rehydration must report the same kernel gauges as a
        // fresh one.
        let space = RelationSpace::new(3, 2);
        let r = BooleanRelation::from_table(
            &space,
            "000:{00}\n001:{01,10}\n010:{11}\n011:{00}\n100:{10}\n101:{01}\n110:{11,00}\n111:{01}",
        )
        .unwrap();
        let spec = RelationSpec::from_relation(&r).unwrap();
        let gauges = |space: &RelationSpace| {
            let cache = space.mgr().cache_stats();
            let gc = space.gc_stats();
            (
                cache.unique_len,
                cache.unique_capacity,
                cache.cache_slots,
                cache.num_nodes,
                gc.live_nodes,
                gc.var_order_hash,
            )
        };
        let mut warm = WarmSession::new();
        let (s_cold, r_cold, _) = warm.rehydrate(&spec);
        let cold_gauges = gauges(&s_cold);
        drop((s_cold, r_cold));
        let (s_warm, r_warm, was_warm) = warm.rehydrate(&spec);
        assert!(was_warm);
        assert_eq!(gauges(&s_warm), cold_gauges);
        drop((s_warm, r_warm));
    }

    #[test]
    fn prepare_reuses_the_warm_manager_like_rehydrate() {
        let mut warm = WarmSession::new();
        let (s1, was_warm) = warm.prepare(3, 64);
        assert!(!was_warm, "first prepare is cold");
        drop(s1);
        let (s2, was_warm) = warm.prepare(3, 64);
        assert!(was_warm, "second prepare reuses the session");
        drop(s2);
        // prepare and rehydrate share one warm session.
        let space = RelationSpace::new(2, 1);
        let r = BooleanRelation::from_table(&space, "00:{0}\n01:{1}\n10:{1}\n11:{0}").unwrap();
        let spec = RelationSpec::from_relation(&r).unwrap();
        let (s3, r3, was_warm) = warm.rehydrate_stable(&spec);
        assert!(was_warm, "rehydrate_stable reuses the prepared session");
        assert!(r3.is_well_defined());
        drop((s3, r3));
        assert_eq!(warm.counts(), (2, 1, 0));
    }
}
