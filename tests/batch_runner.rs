//! Batches of solves submitted straight to a [`cca::ServingInstance`]:
//! determinism against sequential execution, per-query statistics, and
//! error handling.

mod common;

use std::sync::Arc;

use cca::core::RefineMethod;
use cca::datagen::{CapacitySpec, SpatialDistribution, WorkloadConfig};
use cca::{
    QueryContext, QueryResult, ServeConfig, ServingInstance, SolverConfig, SpatialAssignment,
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
    Arc::new(SpatialAssignment::build(w.providers, w.customers))
}

/// A private serving instance with `workers` workers; one worker is the
/// sequential reference.
fn pool(workers: usize) -> ServingInstance<QueryResult> {
    ServingInstance::start(ServeConfig::default().workers(workers))
}

/// A mixed batch touching every solver family.
fn mixed_queries() -> Vec<SolverConfig> {
    vec![
        SolverConfig::new("ida"),
        SolverConfig::new("ca").delta(10.0),
        SolverConfig::new("nia"),
        SolverConfig::new("sa").delta(40.0),
        SolverConfig::new("ida-grouped").group_size(4),
        SolverConfig::new("ca")
            .delta(20.0)
            .refine(RefineMethod::ExclusiveNn),
        SolverConfig::new("ria").theta(20.0),
        SolverConfig::new("ida-grouped").group_size(8),
        SolverConfig::new("sa")
            .delta(20.0)
            .refine(RefineMethod::ExclusiveNn),
        SolverConfig::new("ca").delta(40.0),
    ]
}

fn total_cost(results: &[QueryResult]) -> f64 {
    results.iter().map(|r| r.matching.cost()).sum()
}

/// The acceptance bar: ≥ 8 queries executed concurrently over the shared
/// tree produce results identical to sequential execution, with per-query
/// stats attached.
#[test]
fn parallel_batch_matches_sequential_exactly() {
    let instance = instance(400, 2500);
    let queries = mixed_queries();
    assert!(queries.len() >= 8);

    let (parallel, _) = run_batch(&pool(8), &instance, &queries, QueryContext::new).unwrap();
    let (sequential, _) = run_batch(&pool(1), &instance, &queries, QueryContext::new).unwrap();

    assert_eq!(parallel.len(), queries.len());
    for (p, s) in parallel.iter().zip(&sequential) {
        assert_eq!(p.index, s.index);
        assert_eq!(p.label, s.label);
        assert_eq!(p.config, s.config, "config travels with the result");
        assert_eq!(
            p.matching.pairs, s.matching.pairs,
            "query {} ({}) differs under concurrency",
            p.index, p.label
        );
        assert_eq!(p.stats.esub_edges, s.stats.esub_edges);
        assert_eq!(p.stats.iterations, s.stats.iterations);
        assert_eq!(p.stats.fast_phase_matches, s.stats.fast_phase_matches);
    }
    assert!((total_cost(&parallel) - total_cost(&sequential)).abs() < 1e-9);
}

/// The same guarantees hold with parallel workers faulting through the one
/// store: determinism against sequential execution and exact per-query
/// attribution.
#[test]
fn sharded_pool_keeps_determinism_and_attribution() {
    let w = cca::datagen::WorkloadConfig {
        num_providers: 12,
        num_customers: 2000,
        capacity: CapacitySpec::Fixed(20),
        q_dist: SpatialDistribution::Clustered,
        p_dist: SpatialDistribution::Clustered,
        seed: 406,
    }
    .generate();
    let instance = Arc::new(SpatialAssignment::build_with_storage(
        w.providers,
        w.customers,
        1024,
        1.0,
    ));
    let queries = mixed_queries();
    let (parallel, io) = run_batch(&pool(8), &instance, &queries, QueryContext::new).unwrap();
    let (sequential, _) = run_batch(&pool(1), &instance, &queries, QueryContext::new).unwrap();
    for (p, s) in parallel.iter().zip(&sequential) {
        assert_eq!(p.matching.pairs, s.matching.pairs, "query {}", p.index);
    }
    let fault_sum: u64 = parallel.iter().map(|r| r.stats.io.faults).sum();
    assert_eq!(fault_sum, io.faults);
    assert!(parallel.iter().all(|r| r.stats.io.faults > 0));
}

/// Running the same batch twice is bit-reproducible (queries share a cache
/// but never mutate results through it).
#[test]
fn repeated_batches_are_reproducible() {
    let instance = instance(401, 1500);
    let queries = mixed_queries();
    let pool = pool(4);
    let (a, _) = run_batch(&pool, &instance, &queries, QueryContext::new).unwrap();
    let (b, _) = run_batch(&pool, &instance, &queries, QueryContext::new).unwrap();
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.matching.pairs, y.matching.pairs);
    }
}

#[test]
fn per_query_stats_and_batch_io_are_reported() {
    let instance = instance(402, 2000);
    let queries = mixed_queries();
    let (results, io) = run_batch(&pool(8), &instance, &queries, QueryContext::new).unwrap();

    for r in &results {
        assert!(
            r.matching.size() > 0,
            "query {} produced a matching",
            r.index
        );
        assert!(
            r.stats.iterations > 0 || r.stats.fast_phase_matches > 0,
            "query {} has algorithm counters",
            r.index
        );
        assert!(
            r.stats.io.faults > 0,
            "query {} ({}) must report its own attributed I/O",
            r.index,
            r.label
        );
    }
    assert!(io.faults > 0, "the batch as a whole faulted pages");
    // The attribution invariant: disjoint per-query sessions partition the
    // batch's buffer-pool traffic exactly.
    let fault_sum: u64 = results.iter().map(|r| r.stats.io.faults).sum();
    let hit_sum: u64 = results.iter().map(|r| r.stats.io.hits).sum();
    assert_eq!(
        fault_sum, io.faults,
        "per-query faults must sum to the batch aggregate"
    );
    assert_eq!(
        hit_sum, io.hits,
        "per-query hits must sum to the batch aggregate"
    );
}

/// Results come back in submission order regardless of completion order.
#[test]
fn results_preserve_submission_order() {
    let instance = instance(403, 1200);
    let queries = mixed_queries();
    let (results, _) = run_batch(&pool(8), &instance, &queries, QueryContext::new).unwrap();
    for (i, r) in results.iter().enumerate() {
        assert_eq!(r.index, i);
        assert_eq!(r.config, queries[i]);
    }
}

#[test]
fn unknown_query_fails_the_whole_batch_up_front() {
    let instance = instance(404, 600);
    let mut queries = mixed_queries();
    queries.push(SolverConfig::new("astar"));
    let before = instance.tree().store().io_stats();
    let err = run_batch(&pool(8), &instance, &queries, QueryContext::new)
        .map(|_| ())
        .unwrap_err();
    assert!(err.to_string().contains("astar"));
    assert_eq!(
        instance.tree().store().io_stats(),
        before,
        "no query ran before the bad config was rejected"
    );
}

/// Oversubscription (more workers than queries) and single-query batches
/// both behave.
#[test]
fn degenerate_batch_shapes() {
    let instance = instance(405, 500);
    let one = [SolverConfig::new("ida")];
    let (results, _) = run_batch(&pool(16), &instance, &one, QueryContext::new).unwrap();
    assert_eq!(results.len(), 1);

    let none: [SolverConfig; 0] = [];
    let (results, io) = run_batch(&pool(1), &instance, &none, QueryContext::new).unwrap();
    assert!(results.is_empty());
    assert_eq!(total_cost(&results), 0.0);
    assert_eq!(io.faults, 0);
}
