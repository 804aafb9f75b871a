//! Continuous assignment over a dynamic world (the incremental re-solve
//! engine).
//!
//! The paper solves a static instance once; a serving system faces a world
//! that keeps changing — customers arrive and depart, providers move, and
//! capacity is consumed and released. [`ContinuousAssignment`] maintains a
//! minimum-cost matching under a stream of [`WorldEvent`]s. Only the
//! initial solve runs IDA (§3.3). From then on the engine keeps the
//! matching's residual graph contracted onto the providers (the
//! `provider_graph` module), with labels that certify it optimal (§2.2).
//! An event updates the graph's groups and arcs, and the engine restores
//! the certificate from the arcs the event made negative: it cancels
//! negative cycles and augments to γ on a dense graph of |Q| + 2 nodes,
//! in memory.
//!
//! Every event is two-phase: the world change always commits (and stays
//! feasible by construction); only the re-optimisation is abortable, so a
//! deadline, cancellation or I/O-budget abort leaves the committed
//! matching bit-identical and [`ContinuousAssignment::repair`] finishes the
//! work later.

pub mod engine;
pub mod events;
mod provider_graph;

pub use engine::ContinuousAssignment;
pub use events::{ContinuousConfig, DynamicStats, EventReport, RepairKind, WorldEvent};
