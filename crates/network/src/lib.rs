//! # brel-network
//!
//! A multilevel Boolean-network substrate standing in for the SIS flows the
//! BREL paper uses to post-process solver output (Sections 9.2 and 10):
//!
//! * [`Network`] — a technology-independent network of sum-of-products
//!   nodes with primary inputs/outputs and D flip-flops,
//! * [`algebraic`] — the "algebraic script" stand-in: sweeping, elimination
//!   of cheap nodes, greedy common-divisor (cube) extraction and factored
//!   literal counts,
//! * [`library`] and [`mapper`] — a small `lib2`-like standard-cell library
//!   and a deterministic technology mapper with area and delay models,
//! * [`speedup`] — a delay-oriented restructuring pass (collapse + balanced
//!   re-decomposition of critical functions), standing in for SIS
//!   `speed_up`,
//! * [`decompose`] — the multiway mux-latch decomposition flow of
//!   Section 10: for every flip-flop the next-state function `F(X)` is
//!   re-expressed through the Boolean relation `F(X) ⇔ (A·C̄ + B·C)` and the
//!   three mux inputs are synthesized with the BREL solver.
//!
//! The absolute area/delay numbers differ from SIS + `lib2`; what the
//! benchmark harness relies on (and what the paper's conclusions rest on) is
//! that *both* sides of every comparison go through this identical flow.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod algebraic;
pub mod decompose;
pub mod library;
pub mod mapper;
mod netlist;
pub mod speedup;

pub use library::{Gate, GateKind, Library};
pub use mapper::{MappedNetlist, MappingOptions};
pub use netlist::{GlobalFunctions, Latch, Network, NetworkError, SignalId, SignalKind};
