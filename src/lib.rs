//! # cca — Capacity Constrained Assignment in Spatial Databases
//!
//! A Rust reproduction of U, Yiu, Mouratidis & Mamoulis, *"Capacity
//! Constrained Assignment in Spatial Databases"*, SIGMOD 2008.
//!
//! Given a large, disk-resident customer set `P` and a small provider set
//! `Q` where each provider `q` serves at most `q.k` customers, CCA computes
//! the maximum-size matching minimising the total Euclidean distance
//! (Equation 1 of the paper). This crate bundles the whole workspace behind
//! one façade. Algorithms are selected from data through the solver
//! pipeline:
//!
//! ```
//! use cca::{SolverConfig, SpatialAssignment};
//! use cca::geo::Point;
//!
//! let providers = vec![
//!     (Point::new(10.0, 10.0), 2), // a provider with capacity 2
//!     (Point::new(90.0, 90.0), 1),
//! ];
//! let customers = vec![
//!     Point::new(12.0, 11.0),
//!     Point::new(8.0, 9.0),
//!     Point::new(88.0, 91.0),
//! ];
//! let instance = SpatialAssignment::build(providers, customers);
//! let result = instance.run_config(&SolverConfig::new("ida")).unwrap();
//! assert_eq!(result.matching.size(), 3);
//! result.validate().unwrap();
//! ```
//!
//! Many independent queries against one instance are submitted straight to
//! the [`serve`] crate's [`ServingInstance`], each as a closure holding
//! `Arc`s of the instance and its [`Solver`] (see `examples/serving.rs`).
//! The instance schedules **tenant-fair**: weighted deficit-round-robin
//! across tenants first, priority+aging within each tenant second, with
//! per-tenant admission quotas and [`TenantStats`] operator snapshots.
//! Individual runs accept a [`QueryContext`]
//! ([`SpatialAssignment::run_solver`]) carrying a tenant label,
//! deadline, I/O budget and cancellation flag; an aborted run returns its
//! partial matching with exact partial I/O attribution — deadlines are
//! polled inside the CPU-bound flow loops too, so even an all-in-memory
//! solve cannot overshoot.
//!
//! The registry also carries an **approximate tier** for instances beyond
//! exact reach: `SolverConfig::new("coreset")` solves exactly on a
//! capacity-aware importance-sampled coreset and lifts the assignment back
//! (bounded swap refinement in R-tree neighbourhoods) — feasible by
//! construction, context-abortable with partial results, and selectable by
//! name end-to-end.
//!
//! A **dynamic world** is served by [`ContinuousAssignment`]: a
//! minimum-cost matching maintained under a stream of [`WorldEvent`]s
//! (arrivals, departures, capacity changes, provider moves), re-optimised
//! exactly after every event on the residual graph contracted onto the
//! providers, with unwind-on-abort semantics. Event streams
//! for testing and benchmarking come from `cca_datagen::ArrivalProcess`.
//!
//! Sub-crates (re-exported below): [`geo`] geometry, [`storage`] the paged
//! disk + clock (second-chance) buffer, [`rtree`] the spatial index, [`flow`]
//! the min-cost-flow substrate, [`core`] the CCA algorithms and solver
//! pipeline, [`serve`] the admission-controlled serving layer, [`datagen`]
//! the workload generator reproducing the paper's data protocol.

#![forbid(unsafe_code)]

pub use cca_core as core;
pub use cca_datagen as datagen;
pub use cca_flow as flow;
pub use cca_geo as geo;
pub use cca_rtree as rtree;
pub use cca_serve as serve;
pub use cca_storage as storage;

pub use cca_core::dynamic::{
    ContinuousAssignment, ContinuousConfig, DynamicStats, EventReport, RepairKind, WorldEvent,
};
pub use cca_core::solver::{
    Outcome, Problem, Solver, SolverConfig, SolverConfigError, SolverRegistry,
};
pub use cca_serve::{Rejected, ServeConfig, ServingInstance, TenantQuota, TenantStats, Ticket};
pub use cca_storage::{AbortReason, Priority, QueryContext, TenantId};

use cca_core::{AlgoStats, Matching};
use cca_geo::Point;
use cca_rtree::RTree;
use cca_storage::PageStore;

/// The result of one algorithm run: the matching plus the measurements the
/// paper reports (|Esub|, CPU time, charged I/O time).
pub struct RunResult<'a> {
    pub matching: Matching,
    pub stats: AlgoStats,
    /// Why the run aborted (deadline / I/O budget / cancellation through
    /// its [`QueryContext`]), or `None` when it completed. Aborted runs
    /// carry the partial matching and exact partial I/O attribution.
    pub aborted: Option<AbortReason>,
    instance: &'a SpatialAssignment,
}

impl RunResult<'_> {
    /// Assignment cost `Ψ(M)`.
    pub fn cost(&self) -> f64 {
        self.matching.cost()
    }

    /// Validates the matching against the instance.
    pub fn validate(&self) -> Result<(), String> {
        self.matching
            .validate_unit(&self.instance.providers, &self.instance.customers)
    }
}

/// One served query's outcome, as a [`ServingInstance`] worker hands it back
/// through its [`Ticket`] (the result type of the `cca-net` gateway's
/// instance).
#[derive(Clone, Debug)]
pub struct QueryResult {
    /// Position of the query in the batch that submitted it.
    pub index: usize,
    /// The solver's figure label (`"IDA"`, `"CAN"`, …).
    pub label: String,
    /// The config the query was built from.
    pub config: SolverConfig,
    pub matching: Matching,
    /// Algorithm counters, CPU time, and this query's own buffer-pool
    /// traffic (attributed through its [`QueryContext`]).
    pub stats: AlgoStats,
    /// Why the query aborted (deadline / I/O budget / cancellation), or
    /// `None` when it ran to completion. Aborted queries carry their
    /// partial matching and exact partial I/O attribution.
    pub aborted: Option<AbortReason>,
}

/// A CCA instance: providers in memory, customers behind a paged R-tree —
/// the storage layout the paper assumes (§3).
pub struct SpatialAssignment {
    providers: Vec<(Point, u32)>,
    customers: Vec<Point>,
    tree: RTree,
}

impl SpatialAssignment {
    /// Builds the instance with the paper's storage settings: 1 KB pages and
    /// a clock (second-chance) buffer sized at 1 % of the R-tree (§5.1).
    pub fn build(providers: Vec<(Point, u32)>, customers: Vec<Point>) -> Self {
        Self::build_with_storage(providers, customers, 1024, 1.0)
    }

    /// Builds with explicit page size (bytes) and buffer percentage.
    ///
    /// The store is one buffer pool, as in the paper, so fault counts and
    /// charged I/O are identical on every machine; concurrent queries share
    /// it and each is charged its own traffic.
    pub fn build_with_storage(
        providers: Vec<(Point, u32)>,
        customers: Vec<Point>,
        page_size: usize,
        buffer_percent: f64,
    ) -> Self {
        let items: Vec<(Point, u64)> = customers
            .iter()
            .enumerate()
            .map(|(i, &p)| (p, i as u64))
            .collect();
        // Generous provisional buffer during construction; finish_build
        // shrinks it to the experiment setting.
        let store = PageStore::with_config(page_size, 1 << 14);
        let tree = RTree::bulk_load(store, &items);
        tree.finish_build(buffer_percent);
        SpatialAssignment {
            providers,
            customers,
            tree,
        }
    }

    /// [`SpatialAssignment::build_with_storage`]; `shards` must be `1`.
    #[doc(hidden)]
    pub fn build_with_storage_sharded(
        providers: Vec<(Point, u32)>,
        customers: Vec<Point>,
        page_size: usize,
        buffer_percent: f64,
        shards: usize,
    ) -> Self {
        assert_eq!(shards, 1, "the page store has one buffer pool");
        Self::build_with_storage(providers, customers, page_size, buffer_percent)
    }

    /// Providers (position, capacity).
    pub fn providers(&self) -> &[(Point, u32)] {
        &self.providers
    }

    /// Customer positions; ids are indices into this slice.
    pub fn customers(&self) -> &[Point] {
        &self.customers
    }

    /// The underlying R-tree (for I/O statistics and direct queries).
    pub fn tree(&self) -> &RTree {
        &self.tree
    }

    /// `γ = min(|P|, Σ q.k)` — the size every maximal matching must reach.
    pub fn gamma(&self) -> u64 {
        let cap: u64 = self.providers.iter().map(|&(_, k)| u64::from(k)).sum();
        cap.min(self.customers.len() as u64)
    }

    /// This instance as a solver-pipeline [`Problem`]: providers plus both
    /// customer access paths (the R-tree and the in-memory slice).
    pub fn problem(&self) -> Problem<'_> {
        Problem::new(&self.providers)
            .with_tree(&self.tree)
            .with_customers(&self.customers)
    }

    /// Runs the solver selected by `config` (through the
    /// [`SolverRegistry`]) from a cold buffer cache.
    pub fn run_config(&self, config: &SolverConfig) -> Result<RunResult<'_>, SolverConfigError> {
        let solver = SolverRegistry::with_defaults().build(config)?;
        Ok(self.run_solver(&solver, None))
    }

    /// Runs `solver` from a cold buffer cache and returns the matching with
    /// CPU and charged-I/O statistics.
    ///
    /// The run is charged to `ctx`, or to a fresh [`QueryContext`] of its
    /// own when `None`, so `stats.io` is the traffic *this query* caused —
    /// the same attribution path served queries use (for a lone query on a
    /// cold cache it equals the store's global delta). A caller's context
    /// may also abort the run cooperatively: its deadline,
    /// I/O budget or cancellation stop the solver, [`RunResult::aborted`]
    /// then carries the reason and the stats hold the exact partial
    /// attribution (a fault budget is met exactly: `stats.io.faults ==
    /// budget`).
    pub fn run_solver(&self, solver: &Solver, ctx: Option<&QueryContext>) -> RunResult<'_> {
        let ctx = ctx.cloned().unwrap_or_default();
        self.tree.store().clear_cache();
        self.tree.store().reset_stats();
        let outcome = solver.run(&self.problem().with_context(&ctx));
        let aborted = outcome.abort_reason();
        let (matching, stats) = outcome.into_parts();
        RunResult {
            matching,
            stats,
            aborted,
            instance: self,
        }
    }
}
