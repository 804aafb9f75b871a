//! Continuous assignment over a dynamic world (the incremental re-solve
//! engine).
//!
//! The paper solves a static instance once; a serving system faces a world
//! that keeps changing — customers arrive and depart, providers move, and
//! capacity is consumed and released. [`ContinuousAssignment`] maintains a
//! feasible matching under a stream of [`WorldEvent`]s and re-optimizes
//! *incrementally*: a bounded-neighbourhood repair around each event
//! (powered by the R-tree's `knn_within` and a small in-memory SSPA),
//! and a dirty-fraction threshold deciding when patching stops paying and
//! the engine re-solves from scratch with IDA — the paper's own answer to
//! the full-graph SSPA (§3.3 vs §2.2), at every instance size.
//!
//! Every event is two-phase: the world change always commits (and stays
//! feasible by construction); only the re-optimization is abortable, so a
//! deadline or I/O-budget abort unwinds to the last committed feasible
//! matching and [`ContinuousAssignment::repair`] finishes the work later.

pub mod engine;
pub mod events;

pub use engine::ContinuousAssignment;
pub use events::{ContinuousConfig, DynamicStats, EventReport, RepairKind, WorldEvent};
