//! Exact and approximate Capacity Constrained Assignment.
//!
//! This crate implements the contribution of "Capacity Constrained
//! Assignment in Spatial Databases" (SIGMOD 2008): given customers `P`
//! (disk-resident, R-tree indexed) and providers `Q` with capacities, find
//! the maximal matching of minimum total Euclidean cost.
//!
//! * [`solver`] — the solver pipeline: [`Solver`], [`Problem`],
//!   [`SolverConfig`] and [`SolverRegistry`]; the public entry points.
//! * [`exact`] — RIA, NIA and IDA (§3) over a shared incremental-SSPA
//!   engine, with the PUA (§3.4.1) and grouped-ANN (§3.4.2) optimisations.
//! * `approx` — SA and CA (§4) with NN-based and exclusive-NN refinement and
//!   the error bounds of Theorems 3–4, plus the approximate scale-out tier
//!   (capacity-aware coresets).
//! * [`dynamic`] — the continuous-assignment engine: a feasible matching
//!   maintained incrementally under a stream of world events.
//! * [`matching`] / [`stats`] — result and measurement types shared by all
//!   algorithms and by the benchmark harness.

#![forbid(unsafe_code)]

pub mod approx;
pub mod dynamic;
pub mod exact;
pub mod matching;
pub mod solver;
pub mod stats;

pub use approx::{
    ca, ca_error_bound, coreset, sa, sa_error_bound, CaConfig, CoresetConfig, RefineMethod,
    SaConfig,
};
pub use dynamic::{
    ContinuousAssignment, ContinuousConfig, DynamicStats, EventReport, RepairKind, WorldEvent,
};
pub use exact::{ida, memory_tree, nia, ria, RiaConfig, RtreeSource};
pub use matching::{MatchPair, Matching};
pub use solver::{Outcome, Problem, Solver, SolverConfig, SolverRegistry};
pub use stats::AlgoStats;
