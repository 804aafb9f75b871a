//! Integration tests for PR 5's multi-tenant serving: the flow-loop
//! deadline poll (a CPU-bound solve aborts with no page access involved),
//! tenant labels threaded façade → context → problem, and per-tenant
//! dispatch/attribution through the two-level scheduler.

use std::sync::Arc;
use std::time::{Duration, Instant};

use cca::datagen::{CapacitySpec, SpatialDistribution, WorkloadConfig};
use cca::serve::{Request, ServeConfig, ServingInstance};
use cca::{AbortReason, Outcome};
use cca::{
    Priority, Problem, QueryContext, Solver, SolverConfig, SolverRegistry, SpatialAssignment,
    TenantId, TenantQuota,
};

fn instance(seed: u64, customers: usize) -> Arc<SpatialAssignment> {
    let w = WorkloadConfig {
        num_providers: 16,
        num_customers: customers,
        capacity: CapacitySpec::Fixed(30),
        q_dist: SpatialDistribution::Clustered,
        p_dist: SpatialDistribution::Clustered,
        seed,
    }
    .generate();
    Arc::new(SpatialAssignment::build_with_storage(
        w.providers,
        w.customers,
        1024,
        4.0,
    ))
}

/// The PR's flow-abort acceptance test: a flow-heavy SSPA query on a large
/// *memory-resident* graph with an already-expired deadline aborts from
/// inside the flow loop — `Outcome::Aborted` with partial attribution and
/// not a single page access to trip it. Before the flow-loop poll existed,
/// this run would have burned the whole γ-iteration solve and only then
/// been classified late.
#[test]
fn expired_deadline_aborts_inside_the_flow_loop_without_page_access() {
    let w = WorkloadConfig {
        num_providers: 30,
        num_customers: 3_000,
        capacity: CapacitySpec::Fixed(10),
        q_dist: SpatialDistribution::Uniform,
        p_dist: SpatialDistribution::Uniform,
        seed: 9,
    }
    .generate();
    // Memory-resident problem: no tree, no pages — only the CPU loop can
    // observe the deadline.
    let problem = Problem::new(&w.providers).with_customers(&w.customers);
    let ctx = QueryContext::new().with_deadline(Instant::now() - Duration::from_millis(1));
    let problem = problem.with_context(&ctx);
    let solver = SolverRegistry::with_defaults()
        .build(&SolverConfig::new("sspa"))
        .unwrap();
    let outcome = solver.run(&problem);
    match outcome {
        Outcome::Aborted {
            partial,
            partial_stats,
            reason,
        } => {
            assert_eq!(reason, AbortReason::DeadlineExceeded);
            assert_eq!(
                partial.size(),
                0,
                "the poll fired before the first augmentation — the solve \
                 did not run to completion and get classified late"
            );
            assert_eq!(partial_stats.io.faults, 0, "no page access occurred");
            assert_eq!(partial_stats.iterations, 0);
        }
        Outcome::Complete { .. } => panic!("expired deadline must abort"),
    }
    assert_eq!(ctx.stats().faults, 0);
}

/// Same poll, mid-run: cancelling a CPU-bound SSPA solve from another
/// thread stops it between augmentations with a capacity-feasible partial
/// matching of exactly `iterations` units.
#[test]
fn cancellation_stops_a_cpu_bound_solve_mid_run() {
    let w = WorkloadConfig {
        num_providers: 40,
        num_customers: 2_500,
        capacity: CapacitySpec::Fixed(10),
        q_dist: SpatialDistribution::Uniform,
        p_dist: SpatialDistribution::Uniform,
        seed: 10,
    }
    .generate();
    let problem = Problem::new(&w.providers).with_customers(&w.customers);
    let ctx = QueryContext::new();
    let canceller = ctx.clone();
    let fuse = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(10));
        canceller.cancel();
    });
    let problem = problem.with_context(&ctx);
    let solver = SolverRegistry::with_defaults()
        .build(&SolverConfig::new("sspa"))
        .unwrap();
    let outcome = solver.run(&problem);
    fuse.join().unwrap();
    assert_eq!(outcome.abort_reason(), Some(AbortReason::Cancelled));
    let (partial, stats) = outcome.into_parts();
    assert!(
        partial.size() < 400,
        "γ = 400 augmentations outlast a 10 ms fuse"
    );
    assert_eq!(partial.size(), stats.iterations);
    partial
        .validate_unit_partial(&w.providers, &w.customers)
        .unwrap();
}

/// The memory-resident source carries the context too: every exact solver
/// on an all-in-memory problem observes an expired deadline — through the
/// driver loop-head polls and the engine's flow-loop polls — without a
/// single page access.
#[test]
fn memory_resident_exact_solvers_observe_the_deadline() {
    let w = WorkloadConfig {
        num_providers: 12,
        num_customers: 800,
        capacity: CapacitySpec::Fixed(10),
        q_dist: SpatialDistribution::Uniform,
        p_dist: SpatialDistribution::Uniform,
        seed: 11,
    }
    .generate();
    let registry = SolverRegistry::with_defaults();
    for name in ["ida", "nia", "ria"] {
        let problem = Problem::new(&w.providers).with_customers(&w.customers);
        let ctx = QueryContext::new().with_deadline(Instant::now() - Duration::from_millis(1));
        let problem = problem.with_context(&ctx);
        let solver = registry
            .build(&SolverConfig::new(name).theta(20.0))
            .unwrap();
        let outcome = solver.run(&problem);
        assert_eq!(
            outcome.abort_reason(),
            Some(AbortReason::DeadlineExceeded),
            "{name}: an in-memory solve must still respect its deadline"
        );
        let (partial, stats) = outcome.into_parts();
        assert!(partial.size() < problem.gamma(), "{name}: stopped early");
        assert_eq!(stats.io.faults, 0, "{name}: no page access");
    }
}

/// Tenant labels survive the whole builder chain: context → problem.
#[test]
fn tenant_threads_from_context_to_problem() {
    let providers = vec![(cca::geo::Point::new(0.0, 0.0), 1)];
    let customers = vec![cca::geo::Point::new(1.0, 0.0)];
    let bare = Problem::new(&providers).with_customers(&customers);
    assert_eq!(bare.tenant(), TenantId::DEFAULT, "context-less default");
    let ctx = QueryContext::new().with_tenant(TenantId(42));
    let labelled = bare.with_context(&ctx);
    assert_eq!(labelled.tenant(), TenantId(42));
}

/// Two tenants sharing one instance through the serving layer: dispatch
/// counts and I/O attribution aggregate per tenant, and the disjoint
/// per-tenant fault totals sum exactly to the store's global delta — the
/// PR 3 attribution invariant, lifted to tenants.
#[test]
fn tenant_stats_aggregate_dispatches_and_io() {
    const GOLD: TenantId = TenantId(1);
    const FREE: TenantId = TenantId(2);
    let instance = instance(77, 6_000);
    let registry = SolverRegistry::with_defaults();
    let queries = 6usize;
    let solvers: Vec<Arc<dyn Solver>> = (0..2 * queries)
        .map(|_| Arc::from(registry.build(&SolverConfig::new("ida")).unwrap()))
        .collect();
    instance.tree().store().clear_cache();
    let io_before = instance.tree().store().io_stats();
    let config = ServeConfig::default()
        .workers(2)
        .queue_capacity(64)
        .tenant_quota(GOLD, TenantQuota::default().weight(2));
    let serving = ServingInstance::start(config);
    let tickets: Vec<_> = solvers
        .into_iter()
        .enumerate()
        .map(|(i, solver)| {
            let instance = Arc::clone(&instance);
            let tenant = if i < queries { GOLD } else { FREE };
            serving
                .submit(
                    Request::new(move |ctx: &QueryContext| {
                        solver
                            .run(&instance.problem().with_context(ctx))
                            .is_complete()
                    })
                    .tenant(tenant)
                    .priority(Priority::Normal),
                )
                .expect("queue sized to the burst")
        })
        .collect();
    for t in tickets {
        assert!(t.wait(), "unconstrained queries complete");
    }
    let gold = serving.tenant_stats_for(GOLD).unwrap();
    let free = serving.tenant_stats_for(FREE).unwrap();
    for (name, stats) in [("gold", &gold), ("free", &free)] {
        assert_eq!(stats.submitted, queries as u64, "{name}");
        assert_eq!(stats.dispatched, queries as u64, "{name}");
        assert_eq!(stats.completed, queries as u64, "{name}");
        assert_eq!(stats.aborted, 0, "{name}");
        assert_eq!(stats.queued, 0, "{name}");
        assert_eq!(stats.in_flight, 0, "{name}");
        assert!(stats.io.faults > 0, "{name}: IDA faults on a cold cache");
        assert!(stats.total_latency > Duration::ZERO, "{name}");
        assert!(stats.max_latency <= stats.total_latency, "{name}");
    }
    assert_eq!(gold.weight, 2);
    assert_eq!(free.weight, 1);
    let global = instance.tree().store().io_stats().since(&io_before);
    assert_eq!(
        gold.io.faults + free.io.faults,
        global.faults,
        "disjoint tenant attributions sum to the store delta"
    );
}

/// `BatchRunner::tenant` labels a whole batch; results are unchanged from
/// an unlabelled run (the label governs scheduling and attribution, never
/// the matching).
#[test]
fn batch_runner_tenant_label_does_not_change_results() {
    let instance = instance(31, 2_000);
    let queries = vec![
        SolverConfig::new("ida"),
        SolverConfig::new("ca").delta(10.0),
        SolverConfig::new("nia"),
    ];
    let plain = instance.batch().threads(2).run(&queries).unwrap();
    let labelled = instance
        .batch()
        .threads(2)
        .tenant(TenantId(7))
        .priority(Priority::High)
        .run(&queries)
        .unwrap();
    assert_eq!(plain.results.len(), labelled.results.len());
    for (a, b) in plain.results.iter().zip(&labelled.results) {
        assert_eq!(a.matching.cost(), b.matching.cost(), "{}", a.label);
        assert_eq!(a.aborted, b.aborted);
    }
}
