//! Min-cost-flow substrate for the CCA reproduction.
//!
//! CCA reduces to minimum cost flow on a bipartite graph (§2.1). This crate
//! provides the machinery both the paper's baseline and its incremental
//! algorithms are built on:
//!
//! * [`graph::FlowGraph`] — incremental residual graph with paired arcs and
//!   node potentials (`τ`, §2.2) for the incremental algorithms.
//!   Arena-backed SoA layout: arcs live in flat `to`/`cost`/`res`/`next`
//!   columns threaded into intrusive per-node adjacency chains, so the relax
//!   loop streams a handful of columns and `add_edge` never heap-allocates
//!   per node,
//! * [`dijkstra::DijkstraState`] — Dijkstra over reduced costs on a
//!   [`FlowGraph`], resumable with the Path Update Algorithm (PUA,
//!   Algorithm 5 / §3.4.1). The frontier is a private monotone radix queue
//!   on u64 distance bits that falls back to a binary heap on its own when
//!   a push breaks monotonicity,
//! * [`sspa`] — the full-graph Successive Shortest Path baseline
//!   (Algorithm 1) that Figure 8 benchmarks against: one entry point,
//!   [`Sspa::solve`], whose one option is [`Sspa::ctx`]. It keeps the
//!   complete bipartite graph implicit in flat cost/flow matrices and
//!   searches it without a heap, so it uses neither of the two above,
//! * [`hungarian`] — the classical dense assignment solver [8, 11], used as
//!   an independent correctness oracle,
//! * [`validate`] — matching validators and brute-force optima for tests,
//!   and the optimality certificate debug builds check every SSPA solve
//!   against.
//!
//! The CPU-heavy loops are deadline-safe: every search entry point takes an
//! `Option<&QueryContext>` ([`DijkstraState::run_until`],
//! [`DijkstraState::drain_below_sink`]; [`Sspa::solve`] reads [`Sspa::ctx`])
//! and polls the cooperative [`cca_storage::QueryContext`] every few dozen
//! settles (SSPA: at every search head and once per settled provider), so a
//! flow solve on a large drained graph aborts from *inside*
//! the search — with a typed [`cca_storage::Aborted`] and (for SSPA) the
//! committed partial assignment — instead of overshooting its deadline until
//! the next page access.

#![forbid(unsafe_code)]

pub mod dijkstra;
#[cfg(test)]
mod frontier_equivalence;
pub mod graph;
pub mod hungarian;
mod radix;
pub mod sspa;
pub mod validate;

pub use dijkstra::{DijkstraState, EPS};
pub use graph::{ArcId, FlowGraph, NodeId, NO_ARC};
pub use sspa::{
    required_flow, unit_customers, Assignment, FlowAborted, FlowCustomer, FlowProvider, Sspa,
    SspaStats,
};
