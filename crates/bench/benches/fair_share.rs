//! Tenant-fairness benchmark: dispatch shares and per-tenant latency under
//! the two-level DRR scheduler.
//!
//! One shared instance, two tenants each flooding an equal burst of
//! budgeted IDA queries at the same priority. For weight ratios 1:1, 2:1
//! and 4:1 the bench records
//!
//! * the throughput of the whole burst (queries/second),
//! * tenant A's share of the dispatches made while *both* tenants were
//!   still backlogged (the DRR share — ≈ w/(w+1)),
//! * each tenant's mean submit→finish latency from [`TenantStats`] (the
//!   weighted tenant should wait less).
//!
//! Writes `BENCH_fair.json` (override the path with `CCA_BENCH_OUT`). Run
//! with `cargo bench --bench fair_share`.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use cca::datagen::{CapacitySpec, SpatialDistribution, WorkloadConfig};
use cca::serve::{Request, ServeConfig, ServingInstance};
use cca::{
    QueryContext, Solver, SolverConfig, SolverRegistry, SpatialAssignment, TenantId, TenantQuota,
};

const A: TenantId = TenantId(1);
const B: TenantId = TenantId(2);
const BURST_PER_TENANT: usize = 32;
const IO_BUDGET: u64 = 300;
const WORKERS: usize = 2;
const REPEATS: usize = 5;

fn build() -> Arc<SpatialAssignment> {
    let w = WorkloadConfig {
        num_providers: 24,
        num_customers: 12_000,
        capacity: CapacitySpec::Fixed(60),
        q_dist: SpatialDistribution::Clustered,
        p_dist: SpatialDistribution::Clustered,
        seed: 11,
    }
    .generate();
    Arc::new(SpatialAssignment::build_with_storage(
        w.providers,
        w.customers,
        1024,
        8.0,
    ))
}

struct Round {
    qps: f64,
    /// Tenant A's dispatch share while both tenants were backlogged.
    share_a: f64,
    mean_latency_a_ms: f64,
    mean_latency_b_ms: f64,
}

fn round(instance: &Arc<SpatialAssignment>, weight_a: u32) -> Round {
    let registry = SolverRegistry::with_defaults();
    let solvers: Vec<Arc<Solver>> = (0..2 * BURST_PER_TENANT)
        .map(|_| Arc::new(registry.build(&SolverConfig::new("ida")).unwrap()))
        .collect();
    instance.tree().store().clear_cache();
    let order: Arc<Mutex<Vec<TenantId>>> = Arc::default();
    let config = ServeConfig::default()
        .workers(WORKERS)
        .queue_capacity(2 * BURST_PER_TENANT)
        .aging_period(8)
        .tenant_quota(A, TenantQuota::default().weight(weight_a));
    let start = Instant::now();
    let serving = ServingInstance::start(config);
    let tickets: Vec<_> = solvers
        .into_iter()
        .enumerate()
        .map(|(i, solver)| {
            let tenant = if i % 2 == 0 { A } else { B };
            let (instance, order) = (Arc::clone(instance), Arc::clone(&order));
            serving
                .submit(
                    Request::new(move |ctx: &QueryContext| {
                        order.lock().unwrap().push(ctx.tenant());
                        let problem = instance.problem().with_context(ctx);
                        solver.run(&problem).is_complete()
                    })
                    .context(
                        QueryContext::new()
                            .with_tenant(tenant)
                            .with_io_budget(IO_BUDGET),
                    ),
                )
                .expect("queue sized to the burst")
        })
        .collect();
    for t in tickets {
        t.wait();
    }
    let stats_a = serving.tenant_stats_for(A).unwrap();
    let stats_b = serving.tenant_stats_for(B).unwrap();
    serving.shutdown();
    let wall = start.elapsed().as_secs_f64();
    // Share while both backlogged: cut the order at the point where either
    // tenant has been fully dispatched.
    let order = order.lock().unwrap();
    let (mut seen_a, mut seen_b, mut a_in_window, mut window) = (0usize, 0usize, 0usize, 0usize);
    for &t in order.iter() {
        if seen_a == BURST_PER_TENANT || seen_b == BURST_PER_TENANT {
            break;
        }
        window += 1;
        if t == A {
            seen_a += 1;
            a_in_window += 1;
        } else {
            seen_b += 1;
        }
    }
    Round {
        qps: (2 * BURST_PER_TENANT) as f64 / wall,
        share_a: a_in_window as f64 / window.max(1) as f64,
        mean_latency_a_ms: stats_a.mean_latency().as_secs_f64() * 1e3,
        mean_latency_b_ms: stats_b.mean_latency().as_secs_f64() * 1e3,
    }
}

fn main() {
    let instance = build();
    println!(
        "# |P|={} pages={} buffer={} pages",
        instance.customers().len(),
        instance.tree().store().num_pages(),
        instance.tree().store().buffer_capacity(),
    );
    let mut rows = Vec::new();
    for weight_a in [1u32, 2, 4] {
        round(&instance, weight_a); // warmup
        let mut best: Option<Round> = None;
        for _ in 0..REPEATS {
            let r = round(&instance, weight_a);
            if best.as_ref().is_none_or(|b| r.qps > b.qps) {
                best = Some(r);
            }
        }
        let best = best.expect("REPEATS > 0");
        println!(
            "weights {weight_a}:1  qps={:7.2}  shareA={:.2} (ideal {:.2})  latA={:6.1}ms latB={:6.1}ms",
            best.qps,
            best.share_a,
            f64::from(weight_a) / f64::from(weight_a + 1),
            best.mean_latency_a_ms,
            best.mean_latency_b_ms,
        );
        rows.push((weight_a, best));
    }

    let body: Vec<String> = rows
        .iter()
        .map(|(w, r)| {
            format!(
                "    {{\"weight_a\": {w}, \"weight_b\": 1, \"qps\": {:.2}, \"share_a\": {:.3}, \
                 \"mean_latency_a_ms\": {:.2}, \"mean_latency_b_ms\": {:.2}}}",
                r.qps, r.share_a, r.mean_latency_a_ms, r.mean_latency_b_ms
            )
        })
        .collect();
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let json = format!(
        "{{\n  \"bench\": \"fair_share\",\n  \"config\": {{\"customers\": 12000, \
         \"providers\": 24, \"page_size\": 1024, \"buffer_percent\": 8.0, \
         \"burst_per_tenant\": {BURST_PER_TENANT}, \"io_budget\": {IO_BUDGET}, \
         \"workers\": {WORKERS}, \"host_cores\": {host_cores}}},\n  \"rows\": [\n{}\n  ]\n}}\n",
        body.join(",\n")
    );
    let out = std::env::var("CCA_BENCH_OUT")
        .unwrap_or_else(|_| format!("{}/../../BENCH_fair.json", env!("CARGO_MANIFEST_DIR")));
    std::fs::write(&out, json).expect("write bench output");
    println!("wrote {out}");
}
