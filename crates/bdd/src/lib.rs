//! # brel-bdd
//!
//! A self-contained reduced ordered binary decision diagram (ROBDD) package.
//!
//! This crate is the foundational substrate of the BREL reproduction: the
//! paper ("A Recursive Paradigm to Solve Boolean Relations", Baneres,
//! Cortadella, Kishinevsky) represents every Boolean relation by its
//! characteristic function stored as a BDD, and implements all of the
//! solver's primitive steps (projection, splitting, cost evaluation and ISF
//! minimization) as BDD operations. The original implementation used CUDD;
//! this crate provides the equivalent operations from scratch:
//!
//! * canonical node storage with a unique table and operation caches,
//! * the `ite` operator and the usual Boolean connectives,
//! * cofactors, functional composition and variable swapping (the
//!   solver's output-symmetry pruning compares `swap_vars` results),
//! * existential and universal quantification,
//! * the generalized cofactors `constrain` and `restrict` (Coudert–Madre),
//! * Minato–Morreale irredundant sum-of-products (ISOP) generation,
//! * shortest-path (largest-cube) extraction and minterm counting,
//! * a node lifecycle: refcounted external roots and mark-and-sweep
//!   garbage collection with a free list (see [`crate::Bdd`]'s rooting
//!   discipline and [`GcStats`]).
//!
//! The variable order is fixed: a variable's index is its level (see
//! [`Var`]). The paper orders χ(X, Y) inputs first and BREL's default cost
//! is a BDD size under that order, so the kernel carries no dynamic
//! reordering — a cost never depends on when a node-count trigger fired.
//!
//! ## Sessions and handles
//!
//! The low-level [`BddManager`] owns the node store — including its root
//! table — and exposes operations on raw [`NodeId`]s; the whole manager is
//! `Send` and moves freely between threads. Most users should use the
//! owning, clonable [`BddSession`] together with the [`Bdd`] value type,
//! which supports the standard Boolean operators. Lifecycle tuning
//! (automatic GC and its threshold) is set once at session construction
//! through the [`BddConfig`] builder:
//!
//! ```
//! use brel_bdd::BddSession;
//!
//! let mgr = BddSession::new(3);
//! let (a, b, c) = (mgr.var(0), mgr.var(1), mgr.var(2));
//! let f = a.and(&b).or(&a.complement().and(&c));
//! assert!(f.eval(&[true, true, false]));
//! assert!(!f.eval(&[true, false, false]));
//! assert_eq!(f.support(), vec![0.into(), 1.into(), 2.into()]);
//! ```
//!
//! A session can be *reset* ([`BddSession::reset`]) once all of its
//! handles are dropped: the manager rewinds to a cold-start state while
//! keeping its allocations, which is what the engine's warm worker pool
//! uses to reuse one manager across many jobs.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod cache;
mod config;
mod gc;
mod gencof;
mod governor;
mod handle;
mod isop;
mod manager;
mod paths;
mod quant;

pub use cache::CacheStats;
pub use config::BddConfig;
pub use gc::GcStats;
pub use governor::{BddError, ResourceGovernor};
pub use handle::{Bdd, BddSession, KernelSnapshot};
pub use isop::{IsopCube, IsopResult};
pub use manager::{BddManager, NodeId, Var};
pub use paths::PathCube;
