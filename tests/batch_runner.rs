//! Integration tests for the parallel [`cca::BatchRunner`]: determinism
//! against sequential execution, per-query statistics, and error handling.

use cca::core::RefineMethod;
use cca::datagen::{CapacitySpec, SpatialDistribution, WorkloadConfig};
use cca::{SolverConfig, SpatialAssignment};

fn instance(seed: u64, np: usize) -> SpatialAssignment {
    let w = WorkloadConfig {
        num_providers: 12,
        num_customers: np,
        capacity: CapacitySpec::Fixed(20),
        q_dist: SpatialDistribution::Clustered,
        p_dist: SpatialDistribution::Clustered,
        seed,
    }
    .generate();
    SpatialAssignment::build(w.providers, w.customers)
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
        SolverConfig::new("ida").disable_pua(true),
        SolverConfig::new("sa")
            .delta(20.0)
            .refine(RefineMethod::ExclusiveNn),
        SolverConfig::new("ca").delta(40.0),
    ]
}

/// The acceptance bar: ≥ 8 queries executed concurrently over the shared
/// tree produce results identical to sequential execution, with per-query
/// stats attached.
#[test]
fn parallel_batch_matches_sequential_exactly() {
    let instance = instance(400, 2500);
    let queries = mixed_queries();
    assert!(queries.len() >= 8);

    let runner = instance.batch().threads(8);
    let parallel = runner.run(&queries).unwrap();
    let sequential = runner.run_sequential(&queries).unwrap();

    assert_eq!(parallel.results.len(), queries.len());
    for (p, s) in parallel.results.iter().zip(&sequential.results) {
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
    assert!((parallel.total_cost() - sequential.total_cost()).abs() < 1e-9);
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
    let instance = SpatialAssignment::build_with_storage(w.providers, w.customers, 1024, 1.0);
    let queries = mixed_queries();
    let runner = instance.batch().threads(8);
    let parallel = runner.run(&queries).unwrap();
    let sequential = runner.run_sequential(&queries).unwrap();
    for (p, s) in parallel.results.iter().zip(&sequential.results) {
        assert_eq!(p.matching.pairs, s.matching.pairs, "query {}", p.index);
    }
    let fault_sum: u64 = parallel.results.iter().map(|r| r.stats.io.faults).sum();
    assert_eq!(fault_sum, parallel.io.faults);
    assert!(parallel.results.iter().all(|r| r.stats.io.faults > 0));
}

/// Running the same batch twice is bit-reproducible (queries share a cache
/// but never mutate results through it).
#[test]
fn repeated_batches_are_reproducible() {
    let instance = instance(401, 1500);
    let queries = mixed_queries();
    let runner = instance.batch().threads(4);
    let a = runner.run(&queries).unwrap();
    let b = runner.run(&queries).unwrap();
    for (x, y) in a.results.iter().zip(&b.results) {
        assert_eq!(x.matching.pairs, y.matching.pairs);
    }
}

#[test]
fn per_query_stats_and_batch_io_are_reported() {
    let instance = instance(402, 2000);
    let queries = mixed_queries();
    let report = instance.batch().threads(8).run(&queries).unwrap();

    for r in &report.results {
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
    assert!(report.io.faults > 0, "the batch as a whole faulted pages");
    // The attribution invariant: disjoint per-query sessions partition the
    // batch's buffer-pool traffic exactly.
    let fault_sum: u64 = report.results.iter().map(|r| r.stats.io.faults).sum();
    let hit_sum: u64 = report.results.iter().map(|r| r.stats.io.hits).sum();
    assert_eq!(
        fault_sum, report.io.faults,
        "per-query faults must sum to the batch aggregate"
    );
    assert_eq!(
        hit_sum, report.io.hits,
        "per-query hits must sum to the batch aggregate"
    );
    assert!(report.wall.as_nanos() > 0);
    let agg = report.aggregate_stats();
    assert_eq!(agg.io, report.io);
    assert_eq!(agg.cpu_time, report.total_cpu());
    assert!(
        agg.esub_edges
            >= report
                .results
                .iter()
                .map(|r| r.stats.esub_edges)
                .max()
                .unwrap()
    );
}

/// Results come back in submission order regardless of completion order.
#[test]
fn results_preserve_submission_order() {
    let instance = instance(403, 1200);
    let queries = mixed_queries();
    let report = instance.batch().threads(8).run(&queries).unwrap();
    for (i, r) in report.results.iter().enumerate() {
        assert_eq!(r.index, i);
        assert_eq!(r.config, queries[i]);
    }
}

#[test]
fn unknown_query_fails_the_whole_batch_up_front() {
    let instance = instance(404, 600);
    let mut queries = mixed_queries();
    queries.push(SolverConfig::new("astar"));
    let err = instance.batch().run(&queries).map(|_| ()).unwrap_err();
    assert!(err.to_string().contains("astar"));
}

/// Oversubscription (more workers than queries) and single-query batches
/// both behave.
#[test]
fn degenerate_batch_shapes() {
    let instance = instance(405, 500);
    let one = [SolverConfig::new("ida")];
    let report = instance.batch().threads(16).run(&one).unwrap();
    assert_eq!(report.results.len(), 1);

    let none: [SolverConfig; 0] = [];
    let report = instance.batch().run(&none).unwrap();
    assert!(report.results.is_empty());
    assert_eq!(report.total_cost(), 0.0);
}
