//! The four workloads and the relation corpora they run.
//!
//! Every corpus is a pure function of `(workload, corpus seed, smoke)`.
//! Corpus seed 0 is the default: it reproduces the repository's pinned
//! cost fingerprints (687 for the mixed Table-2 corpus, 385 for the hard
//! corpus, 81 for the smoke corpus). Any other corpus seed regenerates the
//! random relations (the Table-2 family is fixed by the paper), so a claim
//! can be re-checked on relations it was not tuned on.

use brel_benchdata::random_relation::random_well_defined_relation;
use brel_benchdata::table2 as family;
use brel_engine::{BackendKind, Engine, JobBudget, JobSpec, RelationSpec, SearchStrategy};

/// Worker threads (pool workers, wide-search workers, daemon workers) and
/// closed-loop client connections of every workload.
pub const WORKERS: usize = 2;

/// The corpus seed whose corpora carry pinned fingerprints.
pub const DEFAULT_CORPUS_SEED: u64 = 0;

/// One named benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The mixed Table-2 corpus through the narrow pool, portfolio jobs.
    BatchMixed,
    /// The hard 7x4 corpus, BREL only, through the narrow pool.
    HardNarrow,
    /// The hard 7x4 corpus, BREL only, through the wide work-stealing search.
    HardWide,
    /// The mixed corpus served by an in-process daemon to closed-loop clients.
    ServeClosed,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::BatchMixed,
        Workload::HardNarrow,
        Workload::HardWide,
        Workload::ServeClosed,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::BatchMixed => "batch-mixed",
            Workload::HardNarrow => "hard-narrow",
            Workload::HardWide => "hard-wide",
            Workload::ServeClosed => "serve-closed",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The batch engine a batch workload runs its passes on (`None` for the
    /// serving workload, which runs a daemon instead).
    pub fn engine(self) -> Option<Engine> {
        let narrow = Engine::with_workers(WORKERS);
        match self {
            Workload::BatchMixed | Workload::HardNarrow => Some(narrow),
            Workload::HardWide => Some(narrow.with_wide(brel_engine::WideOptions::default())),
            Workload::ServeClosed => None,
        }
    }
}

/// The jobs of one corpus pass plus the fingerprint they must reproduce.
#[derive(Debug, Clone)]
pub struct Corpus {
    pub jobs: Vec<JobSpec>,
    /// The pinned total winner cost of one pass, known for the default
    /// corpus seed only.
    pub pinned_cost: Option<u64>,
}

/// Mixes the corpus seed into a generator seed; the default corpus seed
/// leaves every generator seed unchanged.
fn relation_seed(corpus_seed: u64, index: u64) -> u64 {
    index.wrapping_add(corpus_seed.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Builds the corpus of `workload` on `WORKERS` threads, the workload's
/// own parallelism, so that set-up time does not depend on which core a
/// single thread happened to land on. The smoke corpus (4 Table-2
/// instances plus 4 random 4x3 relations, portfolio jobs) stands in for
/// every workload's corpus in smoke mode.
pub fn build(workload: Workload, corpus_seed: u64, smoke: bool) -> Corpus {
    let default = corpus_seed == DEFAULT_CORPUS_SEED;
    if smoke {
        return Corpus {
            jobs: mixed(corpus_seed, 4, 4, 4, 0.2),
            pinned_cost: default.then_some(81),
        };
    }
    match workload {
        Workload::BatchMixed | Workload::ServeClosed => Corpus {
            jobs: mixed(corpus_seed, usize::MAX, 8, 5, 0.25),
            pinned_cost: default.then_some(687),
        },
        Workload::HardNarrow | Workload::HardWide => Corpus {
            jobs: hard(corpus_seed),
            pinned_cost: default.then_some(385),
        },
    }
}

/// Table-2 instances (in family order) followed by seeded random
/// `inputs`x3 relations: portfolio jobs under FIFO with the default budget.
fn mixed(
    corpus_seed: u64,
    table2_instances: usize,
    random_relations: u64,
    inputs: usize,
    extra_pair_prob: f64,
) -> Vec<JobSpec> {
    let instances: Vec<_> = family::instances()
        .into_iter()
        .take(table2_instances)
        .collect();
    let count = instances.len() + random_relations as usize;
    in_parallel(count, |i| {
        let (name, relation) = match instances.get(i) {
            Some(instance) => (instance.name.to_string(), family::generate(instance).1),
            None => {
                let index = (i - instances.len()) as u64;
                let seed = relation_seed(corpus_seed, index);
                let relation = random_well_defined_relation(inputs, 3, extra_pair_prob, seed).1;
                (format!("rand{index}"), relation)
            }
        };
        let spec = RelationSpec::from_relation(&relation).expect("corpus spaces are enumerable");
        JobSpec::portfolio(name, spec).with_strategy(SearchStrategy::Fifo)
    })
}

/// Four seeded random 7x4 relations with heavy output flexibility, BREL
/// only under FIFO with a 600-expansion budget.
fn hard(corpus_seed: u64) -> Vec<JobSpec> {
    in_parallel(4, |index| {
        let seed = relation_seed(corpus_seed, 1000 + index as u64);
        let (_space, relation) = random_well_defined_relation(7, 4, 0.35, seed);
        let spec = RelationSpec::from_relation(&relation).expect("random spaces are enumerable");
        JobSpec::single(format!("hard{index}"), spec, BackendKind::Brel)
            .with_strategy(SearchStrategy::Fifo)
            .with_budget(JobBudget {
                max_explored: Some(600),
                fifo_capacity: Some(8192),
                ..JobBudget::default()
            })
    })
}

/// `make(0..count)` in index order, computed on `WORKERS` threads that
/// take the indices round-robin.
fn in_parallel(count: usize, make: impl Fn(usize) -> JobSpec + Sync) -> Vec<JobSpec> {
    let mut jobs: Vec<(usize, JobSpec)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..WORKERS)
            .map(|worker| {
                let make = &make;
                scope.spawn(move || {
                    (worker..count)
                        .step_by(WORKERS)
                        .map(|i| (i, make(i)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("corpus generation does not panic"))
            .collect()
    });
    jobs.sort_by_key(|(i, _)| *i);
    jobs.into_iter().map(|(_, job)| job).collect()
}
