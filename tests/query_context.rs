//! Integration tests for [`cca::QueryContext`] end to end: deterministic
//! I/O-budget aborts with exact partial attribution, deadline and
//! cancellation aborts, and the batch attribution invariant under aborts.

mod common;

use std::sync::Arc;
use std::time::{Duration, Instant};

use cca::datagen::{CapacitySpec, SpatialDistribution, WorkloadConfig};
use cca::{
    AbortReason, QueryContext, ServeConfig, ServingInstance, Solver, SolverConfig, SolverRegistry,
    SpatialAssignment,
};
use common::run_batch;

fn instance(seed: u64, np: usize) -> Arc<SpatialAssignment> {
    let w = WorkloadConfig {
        num_providers: 12,
        num_customers: np,
        capacity: CapacitySpec::Fixed(20),
        q_dist: SpatialDistribution::Clustered,
        p_dist: SpatialDistribution::Clustered,
        seed,
    }
    .generate();
    Arc::new(SpatialAssignment::build_with_storage(
        w.providers,
        w.customers,
        1024,
        1.0,
    ))
}

fn solver(config: &SolverConfig) -> Solver {
    SolverRegistry::with_defaults().build(config).unwrap()
}

/// The satellite acceptance test: a query exceeding its I/O budget aborts
/// with partial stats whose `io.faults` equals the configured budget —
/// exactly and deterministically.
#[test]
fn io_budget_abort_reports_exactly_the_budget() {
    let instance = instance(500, 4000);
    for name in ["ida", "nia", "ria", "ida-grouped"] {
        let config = SolverConfig::new(name).theta(20.0).group_size(4);
        // Baseline: how many faults does the full run take?
        let full = instance.run_config(&config).unwrap();
        assert!(full.aborted.is_none());
        let full_faults = full.stats.io.faults;
        assert!(full_faults > 2, "{name}: baseline must fault");

        let budget = full_faults / 2;
        let ctx = QueryContext::new().with_io_budget(budget);
        let partial = instance.run_solver(&solver(&config), Some(&ctx));
        assert_eq!(
            partial.aborted,
            Some(AbortReason::IoBudgetExceeded),
            "{name}"
        );
        assert_eq!(
            partial.stats.io.faults, budget,
            "{name}: partial faults must equal the budget"
        );
        assert_eq!(ctx.stats().faults, budget);
        assert!(
            partial.matching.size() <= full.matching.size(),
            "{name}: aborted run returns a partial matching"
        );
    }
}

/// An already-expired deadline aborts before the first page fault; a
/// generous one lets the query complete.
#[test]
fn deadline_governs_the_run() {
    let instance = instance(501, 1500);
    let expired = QueryContext::new().with_deadline(Instant::now() - Duration::from_millis(1));
    let r = instance.run_solver(&solver(&SolverConfig::new("ida")), Some(&expired));
    assert_eq!(r.aborted, Some(AbortReason::DeadlineExceeded));
    assert_eq!(
        r.stats.io.faults, 0,
        "no page was faulted past the deadline"
    );
    assert_eq!(r.matching.size(), 0);

    let generous = QueryContext::new().with_timeout(Duration::from_secs(3600));
    let r = instance.run_solver(&solver(&SolverConfig::new("ida")), Some(&generous));
    assert!(r.aborted.is_none());
    assert!(r.matching.size() > 0);
}

/// Cancelling the context clone held by the caller aborts the run, and the
/// CA partition descent honours the abort too.
#[test]
fn cancellation_and_ca_descent_abort() {
    let instance = instance(502, 1500);
    let ctx = QueryContext::new();
    ctx.cancel();
    for name in ["ida", "ca", "sa"] {
        let r = instance.run_solver(&solver(&SolverConfig::new(name).delta(10.0)), Some(&ctx));
        assert_eq!(r.aborted, Some(AbortReason::Cancelled), "{name}");
    }
}

/// The acceptance criterion: budget-aborted queries in a parallel batch
/// still attribute their partial I/O exactly — per-query faults sum to the
/// batch aggregate, and each aborted query's fault count equals the budget.
#[test]
fn batch_attribution_invariant_holds_under_aborts() {
    let instance = instance(503, 2500);
    let queries = vec![
        SolverConfig::new("ida"),
        SolverConfig::new("nia"),
        SolverConfig::new("ida-grouped").group_size(4),
        SolverConfig::new("ria").theta(20.0),
        SolverConfig::new("ida"),
        SolverConfig::new("nia"),
    ];
    let budget = 8u64;
    let (results, io) = run_batch(
        &ServingInstance::start(ServeConfig::default().workers(4)),
        &instance,
        &queries,
        || QueryContext::new().with_io_budget(budget),
    )
    .unwrap();
    assert_eq!(results.len(), queries.len());
    assert!(
        results.iter().all(|r| r.aborted.is_some()),
        "an 8-fault budget aborts every query of this size"
    );
    for r in &results {
        assert_eq!(
            r.aborted,
            Some(AbortReason::IoBudgetExceeded),
            "query {}",
            r.index
        );
        assert_eq!(
            r.stats.io.faults, budget,
            "query {} ({}) partial faults must equal the budget",
            r.index, r.label
        );
    }
    let fault_sum: u64 = results.iter().map(|r| r.stats.io.faults).sum();
    let hit_sum: u64 = results.iter().map(|r| r.stats.io.hits).sum();
    assert_eq!(
        fault_sum, io.faults,
        "per-query faults must sum to the batch aggregate even under aborts"
    );
    assert_eq!(hit_sum, io.hits);
}

/// A batch-wide zero deadline sheds all work cooperatively: every query
/// aborts with `DeadlineExceeded` and zero I/O.
#[test]
fn batch_deadline_zero_aborts_everything() {
    let instance = instance(504, 1200);
    let queries = vec![SolverConfig::new("ida"), SolverConfig::new("nia")];
    let (results, io) = run_batch(
        &ServingInstance::start(ServeConfig::default().workers(2)),
        &instance,
        &queries,
        || QueryContext::new().with_timeout(Duration::ZERO),
    )
    .unwrap();
    for r in &results {
        assert_eq!(r.aborted, Some(AbortReason::DeadlineExceeded));
        assert_eq!(r.stats.io.faults, 0);
        assert_eq!(r.matching.size(), 0);
    }
    assert_eq!(io.faults, 0);
}

/// An unconstrained batch on the serving path reports no aborts — the
/// scheduler changes nothing about complete runs.
#[test]
fn unconstrained_batch_reports_no_aborts() {
    let instance = instance(505, 1200);
    let queries = vec![
        SolverConfig::new("ida"),
        SolverConfig::new("ca").delta(20.0),
    ];
    let (results, _) = run_batch(
        &ServingInstance::start(ServeConfig::default().workers(2)),
        &instance,
        &queries,
        QueryContext::new,
    )
    .unwrap();
    assert!(results.iter().all(|r| r.aborted.is_none()));
    assert!(results.iter().all(|r| r.matching.size() > 0));
}
