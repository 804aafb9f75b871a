//! Min-cost-flow substrate for the CCA reproduction.
//!
//! CCA reduces to minimum cost flow on a bipartite graph (§2.1). This crate
//! holds the one flow kernel, the paper's baseline built on it, and the
//! checks every exact solver is held to:
//!
//! * [`residual`] — the kernel: SSPA's residual state over any set of
//!   `q→p` rows, its provider-only Dijkstra with PUA's resume, a bottleneck
//!   augment with a unit limit, the potential update and the optimality
//!   certificate. RIA, NIA and IDA (`cca_core::exact::Engine`) drive it over
//!   their growing `Esub`;
//! * [`argmin`] — the block-minimum index that picks the kernel's next
//!   provider, and NIA's and IDA's next edge;
//! * [`sspa`] — the full-graph Successive Shortest Path baseline
//!   (Algorithm 1) that Figure 8 benchmarks against: the kernel with every
//!   (q, p) row inserted. Its one entry point, [`Sspa::solve`], has one
//!   option, the abort context [`Sspa::ctx`];
//! * [`hungarian`] — the classical dense assignment solver [8, 11], used as
//!   an independent correctness oracle,
//! * [`validate`] — matching validators and brute-force optima for tests,
//!   and the optimality certificate ([`validate::assert_optimal`]) debug
//!   builds check every completed exact solve against.
//!
//! A solve is deadline-safe: the kernel polls a cooperative
//! [`cca_storage::QueryContext`] at every search head and every 64 settled
//! providers, so a flow solve on a large instance aborts from *inside* the
//! search — for [`Sspa::solve`], with the typed [`FlowAborted`] carrying the
//! committed partial assignment — instead of overshooting its deadline
//! until the next page access.

#![forbid(unsafe_code)]

pub mod argmin;
pub mod hungarian;
pub mod residual;
pub mod sspa;
pub mod validate;

pub use residual::{Residual, EPS};
pub use sspa::{
    required_flow, unit_customers, Assignment, FlowAborted, FlowCustomer, FlowProvider, Sspa,
    SspaStats,
};
