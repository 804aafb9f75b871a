//! Batch serving: one loaded instance answering many assignment queries in
//! parallel over its shared R-tree — the shape of the serving workload the
//! roadmap grows toward.
//!
//! Run with: `cargo run --release --example batch_serving`

use std::sync::Arc;
use std::time::Instant;

use cca::core::RefineMethod;
use cca::datagen::{CapacitySpec, SpatialDistribution, WorkloadConfig};
use cca::{SolverConfig, SpatialAssignment};

fn main() {
    // One shared instance, as a long-lived service would hold.
    let cfg = WorkloadConfig {
        num_providers: 40,
        num_customers: 8_000,
        capacity: CapacitySpec::Fixed(50),
        q_dist: SpatialDistribution::Clustered,
        p_dist: SpatialDistribution::Clustered,
        seed: 42,
    };
    let w = cfg.generate();
    // Concurrent workers share the instance's one buffer pool; each query
    // is still charged exactly its own faults.
    let instance = Arc::new(SpatialAssignment::build_with_storage(
        w.providers,
        w.customers,
        1024,
        1.0,
    ));
    println!(
        "instance: |Q| = {}, |P| = {}, gamma = {}",
        instance.providers().len(),
        instance.customers().len(),
        instance.gamma()
    );

    // A mixed query stream: exact solves next to approximations at several
    // quality/latency trade-offs — every solver goes through the registry.
    let mut queries = Vec::new();
    for delta in [10.0, 20.0, 40.0] {
        queries.push(SolverConfig::new("ca").delta(delta));
        queries.push(
            SolverConfig::new("ca")
                .delta(delta)
                .refine(RefineMethod::ExclusiveNn),
        );
        queries.push(SolverConfig::new("sa").delta(delta));
    }
    queries.push(SolverConfig::new("ida"));
    queries.push(SolverConfig::new("ida-grouped").group_size(8));
    queries.push(SolverConfig::new("nia"));

    let runner = instance.batch();

    let t0 = Instant::now();
    let sequential = runner
        .run_sequential(&queries)
        .expect("all queries name registered solvers");
    let seq_wall = t0.elapsed();

    let t0 = Instant::now();
    let parallel = runner.run(&queries).expect("same queries, same registry");
    let par_wall = t0.elapsed();

    println!(
        "\n{} queries | sequential {:.2?} | parallel {:.2?} ({} workers available)",
        queries.len(),
        seq_wall,
        par_wall,
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
    );
    println!(
        "batch I/O: {} faults, {:.1}% buffer hits",
        parallel.io.faults,
        100.0 * parallel.io.hit_ratio()
    );

    println!(
        "\n{:<6} {:<6} {:>12} {:>10} {:>10} {:>8} {:>9}",
        "query", "algo", "cost", "|Esub|", "cpu", "faults", "io(s)"
    );
    for r in &parallel.results {
        println!(
            "{:<6} {:<6} {:>12.1} {:>10} {:>10.2?} {:>8} {:>9.2}",
            r.index,
            r.label,
            r.matching.cost(),
            r.stats.esub_edges,
            r.stats.cpu_time,
            r.stats.io.faults,
            r.stats.io_time_s()
        );
    }

    // Per-query I/O is attributed through each query's QueryContext, so
    // disjoint queries partition the batch's buffer-pool traffic exactly.
    let fault_sum: u64 = parallel.results.iter().map(|r| r.stats.io.faults).sum();
    assert_eq!(fault_sum, parallel.io.faults);
    println!(
        "\nper-query faults sum to the batch aggregate: {} = {}",
        fault_sum, parallel.io.faults
    );

    // Parallel execution must not change any result.
    for (s, p) in sequential.results.iter().zip(&parallel.results) {
        assert_eq!(s.matching.pairs, p.matching.pairs, "query {}", s.index);
    }
    println!("\nparallel results identical to sequential — determinism holds");
}
