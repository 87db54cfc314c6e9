//! brel-serve: a fault-contained solver daemon for BREL jobs.
//!
//! This crate turns the batch engine into a long-running service without
//! adding any dependencies: a std-only TCP daemon speaking length-prefixed
//! JSON frames, backed by the warm-session pool and the fault-policy
//! machinery the engine already has.
//!
//! The architecture is four layers, bottom up:
//!
//! - [`json`] — a strict hand-rolled JSON parser (the write side reuses
//!   [`brel_engine::Json::render`]).
//! - [`protocol`] — the frame vocabulary ([`Frame`]) and its total codec:
//!   `submit` / `cancel` / `stats` / `shutdown` inbound, `admitted` /
//!   `rejected` / `incumbent` / `final` / `stats` / `error` outbound,
//!   each a 4-byte big-endian length prefix plus a UTF-8 JSON object.
//! - [`queue`] — bounded admission with per-client budgets and
//!   earliest-deadline-first dispatch; overload is shed *explicitly* with
//!   a jittered `retry_after_ms` hint instead of queuing without bound.
//! - [`server`] — the daemon proper: one accept thread, one reader plus
//!   one writer thread per connection, N worker threads each owning a
//!   [`brel_engine::Runner`]. Faults stay contained exactly as in
//!   batch mode (panic isolation, quarantine, degrade-don't-die), and
//!   shutdown is a drain: stop admitting, cancel cooperatively, emit a
//!   `final` frame for every admitted job, join every thread, exit.
//!
//! [`client`] holds the blocking client the serving tests and the
//! `layerbench` serve workload build on; the `brel_serve` binary runs the
//! daemon.
//!
//! Anytime semantics carry through end to end: every improvement the
//! search finds is streamed to the submitting client as an `incumbent`
//! frame, so a client that cancels — or is cancelled by its deadline —
//! still walks away with the best solution seen so far.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod client;
pub mod json;
pub mod protocol;
pub mod queue;
pub mod server;

pub use client::{Client, SolveOutcome};
pub use protocol::{
    read_frame, FinalReport, Frame, FrameReader, StatsSnapshot, Submit, MAX_FRAME_BYTES,
};
pub use queue::{Admission, AdmissionConfig, JobQueue, QueuedJob, SHED_BACKOFF_MS};
pub use server::{DrainReport, ServeConfig, Server};
