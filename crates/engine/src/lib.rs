//! # brel-engine
//!
//! A parallel, deterministic batch-solving engine for Boolean relations:
//! the throughput layer over the workspace's three solvers (the BREL
//! branch-and-bound solver, the gyocro-style baseline, and the quick
//! output-ordered solver).
//!
//! The BDD substrate is `Send` ([`brel_bdd::BddSession`] owns its manager
//! behind an `Arc<Mutex<..>>`), but the engine still ships *specs*, not
//! BDDs, across threads — rehydration is what makes batch output a pure
//! function of the input:
//!
//! * a [`JobSpec`] carries an owned, manager-free [`RelationSpec`]
//!   (canonical tabular rows, see
//!   [`brel_relation::BooleanRelation::to_rows`]) plus a backend list, a
//!   [`CostSpec`] and a [`JobBudget`];
//! * every job runs through [`Runner::run`]: each pool worker (or wide
//!   batch, or serving worker) owns one [`Runner`], which rehydrates the
//!   relation into its own [`WarmSession`] — kept warm across jobs via
//!   [`brel_bdd::BddSession::reset`], which is observationally cold — and
//!   runs every requested backend; several backends form a *portfolio*
//!   whose cheapest solution (under the job's cost function) is selected
//!   as the winner;
//! * workers share a cross-job *solved-subrelation cache* keyed by the
//!   canonical [`RelationSpec::fingerprint`]: a batch containing the same
//!   relation twice (even with permuted rows or renamed-away irrelevant
//!   inputs) solves it once. Hits are all-or-nothing per job, so cached
//!   reports are byte-identical to recomputation (see [`reuse`]);
//! * the [`Engine`] fans a batch of jobs over a worker pool and collects
//!   [`JobReport`]s sorted by job id, so batch output is byte-identical
//!   regardless of the worker count (see [`report`] for the JSON/CSV
//!   serializations that pin this down); warm/cache provenance is reported
//!   in [`ReuseStats`]/[`BatchReuse`] but serialized only alongside
//!   timings;
//! * each job carries a [`SearchStrategy`] for its BREL backend, and
//!   [`Engine::with_wide`] flips the pool into *wide* mode — an
//!   asynchronous work-stealing search inside each BREL solve (see
//!   [`wide`]) over per-worker warm sessions that persist across jobs,
//!   with the same worker-count determinism guarantee;
//! * the engine is *fault-tolerant*: every attempt runs behind a panic
//!   isolation boundary, a [`FaultPolicy`] per job arms the kernel's
//!   resource governor (live-node quota, wall deadline) and a cooperative
//!   step deadline, faulted sessions are quarantined and rebuilt cold,
//!   transient faults retry with bounded backoff, and a degradation
//!   ladder keeps one verified row per solvable job — classified by
//!   [`JobOutcome`]. A seeded [`FaultPlan`] injects deterministic faults
//!   for chaos testing ([`Engine::with_fault_plan`]).
//!
//! ```
//! use brel_engine::{Engine, JobSpec, RelationSpec};
//! use brel_relation::{BooleanRelation, RelationSpace};
//!
//! // Fig. 1a of the paper, shipped to a 2-worker pool as a portfolio job.
//! let space = RelationSpace::new(2, 2);
//! let r = BooleanRelation::from_table(
//!     &space,
//!     "00 : {00}\n01 : {00}\n10 : {00, 11}\n11 : {10, 11}",
//! ).unwrap();
//! let job = JobSpec::portfolio("fig1", RelationSpec::from_relation(&r).unwrap());
//! let batch = Engine::with_workers(2).solve_batch(&[job]);
//! assert_eq!(batch.num_solved(), 1);
//! let winner = batch.jobs[0].winning().unwrap();
//! assert!(winner.cost > 0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod backend;
mod control;
mod fault;
mod job;
mod pool;
pub mod report;
pub mod reuse;
mod runner;
pub mod wide;

pub use backend::SolutionReport;
pub use brel_core::{CancelToken, SearchStrategy};
pub use control::JobControl;
pub use fault::{FaultInjection, FaultKind, FaultPlan, FaultPolicy, InjectedPanic, JobOutcome};
pub use job::{BackendKind, CostSpec, JobBudget, JobSpec, RelationSpec};
pub use pool::{BatchReport, Engine, EngineConfig};
pub use report::Json;
pub use reuse::{BatchReuse, ReuseStats, WarmSession};
pub use runner::{JobReport, Runner};
pub use wide::{StaggerPlan, WideOptions};
