//! Min-cost-flow substrate for the CCA reproduction.
//!
//! CCA reduces to minimum cost flow on a bipartite graph (§2.1). This crate
//! holds the paper's baseline and the checks every exact solver is held to:
//!
//! * [`sspa`] — the full-graph Successive Shortest Path baseline
//!   (Algorithm 1) that Figure 8 benchmarks against: one entry point,
//!   [`Sspa::solve`], whose options are [`Sspa::ctx`] and [`Sspa::start`]
//!   — a feasible flow to warm-start from, which it first makes optimal
//!   for its value by cancelling negative cycles. It keeps the complete
//!   bipartite graph implicit in flat cost/flow matrices and searches it
//!   without a heap, settling providers only. The incremental algorithms
//!   run the same provider-only search over their own sparse `Esub` rows
//!   (`cca_core::exact::Engine`), with the same [`EPS`],
//! * [`hungarian`] — the classical dense assignment solver [8, 11], used as
//!   an independent correctness oracle,
//! * [`validate`] — matching validators and brute-force optima for tests,
//!   and the optimality certificate ([`validate::assert_optimal`]) debug
//!   builds check every completed exact solve against.
//!
//! A solve is deadline-safe: [`Sspa::solve`] polls [`Sspa::ctx`], a
//! cooperative [`cca_storage::QueryContext`], at every search head and once
//! per settled provider, so a flow solve on a large instance aborts from
//! *inside* the search — with the typed [`FlowAborted`] carrying the
//! committed partial assignment — instead of overshooting its deadline
//! until the next page access.

#![forbid(unsafe_code)]

pub mod hungarian;
pub mod sspa;
pub mod validate;

pub use sspa::{
    required_flow, unit_customers, Assignment, FlowAborted, FlowCustomer, FlowProvider, Sspa,
    SspaStats, EPS,
};
