//! Multi-tenant serving demo: two weighted tenants sharing one instance.
//!
//! One loaded instance behind the two-level `cca-serve` scheduler:
//!
//! * **gold** (weight 3) submits a modest mixed-priority batch;
//! * **bronze** (weight 1, 6 queue slots, in-flight cap 1) floods the
//!   scheduler with many high-priority requests.
//!
//! Despite bronze bidding everything at high priority, level 1 dispatches
//! by weighted deficit-round-robin — gold gets ~3× bronze's share while
//! both are backlogged — and bronze's flood beyond its queue-slot quota is
//! shed with `Rejected::TenantQuotaExceeded` while gold keeps submitting
//! freely. The run ends with the operator's per-tenant [`TenantStats`]
//! table: dispatches, aborts, cumulative attributed I/O and latency.
//!
//! Run with: `cargo run --release --example tenants`

use std::sync::Arc;
use std::time::Instant;

use cca::datagen::{CapacitySpec, SpatialDistribution, WorkloadConfig};
use cca::serve::{Rejected, Request, ServeConfig, ServingInstance};
use cca::{
    Priority, QueryContext, Solver, SolverConfig, SolverRegistry, SpatialAssignment, TenantId,
    TenantQuota, TenantStats,
};

const GOLD: TenantId = TenantId(1);
const BRONZE: TenantId = TenantId(2);

fn tenant_name(t: TenantId) -> &'static str {
    match t {
        GOLD => "gold",
        BRONZE => "bronze",
        _ => "anon",
    }
}

fn main() {
    let w = WorkloadConfig {
        num_providers: 24,
        num_customers: 8_000,
        capacity: CapacitySpec::Fixed(40),
        q_dist: SpatialDistribution::Clustered,
        p_dist: SpatialDistribution::Clustered,
        seed: 5,
    }
    .generate();
    let instance = Arc::new(SpatialAssignment::build_with_storage(
        w.providers,
        w.customers,
        1024,
        4.0,
    ));
    println!(
        "instance: |Q| = {}, |P| = {}, gamma = {}\n",
        instance.providers().len(),
        instance.customers().len(),
        instance.gamma()
    );

    let registry = SolverRegistry::with_defaults();
    // gold: a modest batch of mixed priorities. bronze: a flood, all High.
    let gold_burst: Vec<(SolverConfig, Priority)> = vec![
        (SolverConfig::new("ida"), Priority::Normal),
        (SolverConfig::new("ca").delta(10.0), Priority::High),
        (
            SolverConfig::new("ida-grouped").group_size(8),
            Priority::Low,
        ),
        (SolverConfig::new("ida"), Priority::Normal),
        (SolverConfig::new("ca").delta(20.0), Priority::Normal),
        (SolverConfig::new("ida"), Priority::Critical),
    ];
    let bronze_flood: Vec<(SolverConfig, Priority)> = (0..16)
        .map(|_| (SolverConfig::new("ida"), Priority::High))
        .collect();
    let bursts: Vec<(TenantId, &[(SolverConfig, Priority)])> =
        vec![(GOLD, &gold_burst), (BRONZE, &bronze_flood)];
    let solvers: Vec<(TenantId, Priority, Arc<Solver>)> = bursts
        .iter()
        .flat_map(|&(tenant, burst)| {
            let registry = &registry;
            burst.iter().map(move |(config, priority)| {
                (
                    tenant,
                    *priority,
                    Arc::new(registry.build(config).expect("registered")),
                )
            })
        })
        .collect();

    // gold is weighted 3:1 over bronze, and bronze is boxed in: 6 backlog
    // permits, one query running at a time.
    let config = ServeConfig::default()
        .workers(2)
        .queue_capacity(64)
        .aging_period(4)
        .tenant_quota(GOLD, TenantQuota::default().weight(3))
        .tenant_quota(
            BRONZE,
            TenantQuota::default()
                .weight(1)
                .queue_slots(6)
                .max_in_flight(1),
        );
    let t0 = Instant::now();
    let serving = ServingInstance::start(config);
    let mut tickets = Vec::new();
    let mut shed: Vec<(TenantId, Rejected)> = Vec::new();
    for (tenant, priority, solver) in &solvers {
        let (instance, solver) = (Arc::clone(&instance), Arc::clone(solver));
        let request = Request::new(move |ctx: &QueryContext| {
            solver
                .run(&instance.problem().with_context(ctx))
                .is_complete()
        })
        .context(
            QueryContext::new()
                .with_tenant(*tenant)
                .with_priority(*priority),
        );
        match serving.submit(request) {
            Ok(ticket) => tickets.push(ticket),
            Err(rejected) => shed.push((*tenant, rejected)),
        }
    }
    for ticket in tickets {
        ticket.wait();
    }
    let stats = serving.tenant_stats();

    println!(
        "{:<8} {:>6} {:>9} {:>10} {:>8} {:>7} {:>8} {:>11} {:>10}",
        "tenant",
        "weight",
        "submitted",
        "dispatched",
        "complete",
        "shed",
        "faults",
        "io-cost",
        "mean-lat"
    );
    for s in &stats {
        print_row(s);
    }
    if let Some((tenant, rejected)) = shed.first() {
        println!(
            "\n{} request(s) shed, all {}'s: \"{rejected}\"",
            shed.len(),
            tenant_name(*tenant)
        );
    }
    println!("wall {:?}", t0.elapsed());
}

fn print_row(s: &TenantStats) {
    println!(
        "{:<8} {:>6} {:>9} {:>10} {:>8} {:>7} {:>8} {:>9.0}ms {:>8.1}ms",
        tenant_name(s.tenant),
        s.weight,
        s.submitted,
        s.dispatched,
        s.completed,
        s.rejected,
        s.io.faults,
        s.charged_io_ms(),
        s.mean_latency().as_secs_f64() * 1e3,
    );
}
