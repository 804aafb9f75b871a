//! Serving demo: submit / deadline / shed on a mixed workload.
//!
//! One loaded instance behind the `cca-serve` scheduler: a burst of mixed
//! queries is submitted against a deliberately small admission queue, so
//! the run shows all three serving outcomes —
//!
//! * **completed** results (high-priority queries overtake the backlog),
//! * **aborted** partial results (queries carrying a tight I/O budget or
//!   deadline stop cooperatively, with their partial I/O attributed
//!   exactly),
//! * **shed** requests (`Rejected::QueueFull` once the backlog is at
//!   capacity — admission itself is a capacity decision).
//!
//! Run with: `cargo run --release --example serving`

use std::sync::Arc;
use std::time::{Duration, Instant};

use cca::datagen::{CapacitySpec, SpatialDistribution, WorkloadConfig};
use cca::serve::{Rejected, Request, ServeConfig, ServingInstance};
use cca::{Priority, QueryContext, Solver, SolverConfig, SolverRegistry, SpatialAssignment};

/// One query of the burst: config plus its serving parameters.
struct Query {
    name: &'static str,
    config: SolverConfig,
    priority: Priority,
    io_budget: Option<u64>,
    deadline: Option<Duration>,
}

impl Query {
    fn new(name: &'static str, config: SolverConfig, priority: Priority) -> Self {
        Query {
            name,
            config,
            priority,
            io_budget: None,
            deadline: None,
        }
    }

    fn io_budget(mut self, faults: u64) -> Self {
        self.io_budget = Some(faults);
        self
    }

    fn deadline(mut self, d: Duration) -> Self {
        self.deadline = Some(d);
        self
    }
}

/// What one serving request produced (for the summary table).
struct Served {
    name: &'static str,
    priority: Priority,
    outcome: String,
    matched: usize,
    faults: u64,
}

fn main() {
    // One shared instance, as a long-lived service would hold it; every
    // worker faults pages through its one buffer pool.
    let w = WorkloadConfig {
        num_providers: 32,
        num_customers: 10_000,
        capacity: CapacitySpec::Fixed(40),
        q_dist: SpatialDistribution::Clustered,
        p_dist: SpatialDistribution::Clustered,
        seed: 77,
    }
    .generate();
    let instance = Arc::new(SpatialAssignment::build_with_storage(
        w.providers,
        w.customers,
        1024,
        2.0,
    ));
    println!(
        "instance: |Q| = {}, |P| = {}, gamma = {}\n",
        instance.providers().len(),
        instance.customers().len(),
        instance.gamma()
    );

    // A burst of mixed queries: exact solves, approximations, a few
    // latency-capped probes.
    let registry = SolverRegistry::with_defaults();
    let burst = vec![
        Query::new("ida", SolverConfig::new("ida"), Priority::Normal),
        Query::new("ida/budget", SolverConfig::new("ida"), Priority::Normal).io_budget(40),
        Query::new(
            "ca δ=10",
            SolverConfig::new("ca").delta(10.0),
            Priority::High,
        ),
        Query::new("ida/expired", SolverConfig::new("ida"), Priority::Low).deadline(Duration::ZERO),
        Query::new("nia", SolverConfig::new("nia"), Priority::Low),
        Query::new(
            "ida-grouped",
            SolverConfig::new("ida-grouped").group_size(8),
            Priority::Normal,
        ),
        Query::new(
            "sa δ=20",
            SolverConfig::new("sa").delta(20.0),
            Priority::Normal,
        ),
        Query::new(
            "ria θ=20",
            SolverConfig::new("ria").theta(20.0),
            Priority::Low,
        )
        .io_budget(60),
        Query::new("ida #2", SolverConfig::new("ida"), Priority::Critical),
        Query::new(
            "ca δ=20",
            SolverConfig::new("ca").delta(20.0),
            Priority::Normal,
        ),
    ];
    let solvers: Vec<Arc<dyn Solver>> = burst
        .iter()
        .map(|q| Arc::from(registry.build(&q.config).expect("registered")))
        .collect();

    // A small queue (2 workers, 6 backlog permits) so the tail of the
    // burst is shed — the admission decision the serving layer makes
    // explicit instead of queueing unboundedly.
    let config = ServeConfig::default()
        .workers(2)
        .queue_capacity(6)
        .aging_period(4);
    let t0 = Instant::now();
    let serving = ServingInstance::start(config);
    let mut tickets = Vec::new();
    let mut shed = Vec::new();
    for (i, query) in burst.iter().enumerate() {
        let mut ctx = QueryContext::new().with_priority(query.priority);
        if let Some(faults) = query.io_budget {
            ctx = ctx.with_io_budget(faults);
        }
        if let Some(d) = query.deadline {
            ctx = ctx.with_timeout(d);
        }
        let (solver, instance) = (Arc::clone(&solvers[i]), Arc::clone(&instance));
        let request = Request::new(move |ctx: &QueryContext| {
            let outcome = solver.run(&instance.problem().with_context(ctx));
            let reason = outcome.abort_reason();
            let (matching, stats) = outcome.into_parts();
            (matching, stats, reason)
        })
        .context(ctx);
        match serving.submit(request) {
            Ok(ticket) => tickets.push((i, ticket)),
            // Everything here runs as one (default) tenant, so only the
            // global capacity sheds; `examples/tenants.rs` shows the
            // per-tenant quota rejections.
            Err(Rejected::QueueFull { capacity }) => shed.push((query.name, capacity)),
            Err(rejected @ Rejected::TenantQuotaExceeded { .. }) => {
                unreachable!("no tenant quotas configured: {rejected}")
            }
        }
    }
    let served: Vec<Served> = tickets
        .into_iter()
        .map(|(i, ticket)| {
            let (matching, stats, reason) = ticket.wait();
            Served {
                name: burst[i].name,
                priority: burst[i].priority,
                outcome: match reason {
                    None => "complete".to_string(),
                    Some(r) => format!("aborted: {r}"),
                },
                matched: matching.size() as usize,
                faults: stats.io.faults,
            }
        })
        .collect();

    println!(
        "{:<14} {:>9} {:>8} {:>7}  outcome",
        "query", "priority", "matched", "faults"
    );
    for s in &served {
        println!(
            "{:<14} {:>9} {:>8} {:>7}  {}",
            s.name,
            format!("{:?}", s.priority),
            s.matched,
            s.faults,
            s.outcome
        );
    }
    for (name, capacity) in &shed {
        println!(
            "{name:<14} {:>9} {:>8} {:>7}  shed: queue full ({capacity})",
            "-", "-", "-"
        );
    }
    println!(
        "\n{} served ({} complete, {} aborted), {} shed, wall {:?}",
        served.len(),
        served.iter().filter(|s| s.outcome == "complete").count(),
        served.iter().filter(|s| s.outcome != "complete").count(),
        shed.len(),
        t0.elapsed()
    );
}
