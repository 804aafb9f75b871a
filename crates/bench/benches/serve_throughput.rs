//! Serving-layer throughput benchmark: the `cca-serve` scheduler under a
//! sustained mixed query stream.
//!
//! Two workloads over one shared instance:
//!
//! * `batch` — the `BatchRunner` (now a thin adapter over the scheduler)
//!   executing a mixed solver batch at 1/2/4/8 workers; measures the
//!   scheduler's dispatch overhead on the end-to-end serving shape.
//! * `stream` — direct `cca_serve::ServingInstance` submission of a query stream
//!   against a bounded admission queue, with per-query I/O budgets;
//!   completed / budget-aborted / shed requests are counted, so the row
//!   records the throughput of the *admission + abort* machinery, not just
//!   raw solving.
//!
//! Writes the measured throughputs to `BENCH_serve.json` (override the
//! path with `CCA_BENCH_OUT`). Run with `cargo bench --bench
//! serve_throughput`.

use std::sync::Arc;
use std::time::Instant;

use cca::datagen::{CapacitySpec, SpatialDistribution, WorkloadConfig};
use cca::serve::{Priority, Request, ServeConfig, ServingInstance, Ticket};
use cca::{QueryContext, Solver, SolverConfig, SpatialAssignment};

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];
const STREAM_LEN: usize = 64;
const STREAM_BUDGET: u64 = 400;
const REPEATS: usize = 7;

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

/// IDA-heavy mix — the solvers that actually live on the page store.
fn batch_queries() -> Vec<SolverConfig> {
    let mut queries = Vec::new();
    for group_size in [4, 8] {
        queries.push(SolverConfig::new("ida-grouped").group_size(group_size));
    }
    for _ in 0..4 {
        queries.push(SolverConfig::new("ida"));
    }
    for delta in [10.0, 20.0] {
        queries.push(SolverConfig::new("ca").delta(delta));
    }
    queries
}

/// One `BatchRunner` round over the scheduler. Returns queries/second.
fn batch_round(instance: &Arc<SpatialAssignment>, queries: &[SolverConfig], workers: usize) -> f64 {
    let start = Instant::now();
    let report = instance
        .batch()
        .threads(workers)
        .run(queries)
        .expect("registered solvers");
    let wall = start.elapsed().as_secs_f64();
    assert_eq!(report.num_aborted(), 0);
    let fault_sum: u64 = report.results.iter().map(|r| r.stats.io.faults).sum();
    assert_eq!(fault_sum, report.io.faults, "attribution must hold");
    queries.len() as f64 / wall
}

/// One direct serving round: a budgeted query stream through a bounded
/// admission queue. Returns requests/second over (completed + aborted);
/// shed requests are asserted away by pacing submissions with ticket waits.
fn stream_round(instance: &Arc<SpatialAssignment>, workers: usize) -> f64 {
    let registry = cca::SolverRegistry::with_defaults();
    let solvers: Vec<Arc<Solver>> = (0..STREAM_LEN)
        .map(|i| {
            let config = if i % 3 == 0 {
                SolverConfig::new("ida-grouped").group_size(8)
            } else {
                SolverConfig::new("ida")
            };
            Arc::new(registry.build(&config).unwrap())
        })
        .collect();
    instance.tree().store().clear_cache();
    let config = ServeConfig::default()
        .workers(workers)
        .queue_capacity(STREAM_LEN)
        .aging_period(8);
    let start = Instant::now();
    let serving = ServingInstance::start(config);
    let tickets: Vec<Ticket<bool>> = solvers
        .into_iter()
        .enumerate()
        .map(|(i, solver)| {
            let ctx = QueryContext::new()
                .with_priority(if i % 5 == 0 {
                    Priority::High
                } else {
                    Priority::Normal
                })
                .with_io_budget(STREAM_BUDGET);
            let instance = Arc::clone(instance);
            serving
                .submit(
                    Request::new(move |ctx: &QueryContext| {
                        let problem = instance.problem().with_context(ctx);
                        solver.run(&problem).is_complete()
                    })
                    .context(ctx),
                )
                .expect("queue sized to the stream")
        })
        .collect();
    let mut completed = 0usize;
    let mut aborted = 0usize;
    for t in tickets {
        if t.wait() {
            completed += 1;
        } else {
            aborted += 1;
        }
    }
    serving.shutdown();
    let wall = start.elapsed().as_secs_f64();
    assert_eq!(completed + aborted, STREAM_LEN);
    STREAM_LEN as f64 / wall
}

struct Row {
    workload: &'static str,
    workers: usize,
    qps: f64,
}

fn main() {
    let instance = build();
    println!(
        "# |P|={} pages={} buffer={} pages",
        instance.customers().len(),
        instance.tree().store().num_pages(),
        instance.tree().store().buffer_capacity(),
    );
    let queries = batch_queries();
    let mut rows: Vec<Row> = Vec::new();
    for &workers in &THREAD_COUNTS {
        // Warmup (cold allocator/scheduler), then best-of-REPEATS.
        batch_round(&instance, &queries, workers);
        stream_round(&instance, workers);
        let mut best_batch = 0.0f64;
        let mut best_stream = 0.0f64;
        for _ in 0..REPEATS {
            best_batch = best_batch.max(batch_round(&instance, &queries, workers));
            best_stream = best_stream.max(stream_round(&instance, workers));
        }
        println!("workers={workers:2}  batch={best_batch:7.2} q/s  stream={best_stream:7.2} q/s");
        rows.push(Row {
            workload: "batch",
            workers,
            qps: best_batch,
        });
        rows.push(Row {
            workload: "stream",
            workers,
            qps: best_stream,
        });
    }

    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let body: Vec<String> = rows
        .iter()
        .map(|r| {
            // Worker counts beyond the host's cores measure scheduling
            // overhead, not scaling — tag those rows so chart tooling can
            // drop them instead of readers having to know the host.
            let oversub = if r.workers > host_cores {
                ", \"oversubscribed\": true"
            } else {
                ""
            };
            format!(
                "    {{\"workload\": \"{}\", \"workers\": {}, \"qps\": {:.2}{}}}",
                r.workload, r.workers, r.qps, oversub
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"serve_throughput\",\n  \"config\": {{\"customers\": 12000, \
         \"providers\": 24, \"page_size\": 1024, \"buffer_percent\": 8.0, \
         \"stream_len\": {STREAM_LEN}, \"stream_io_budget\": {STREAM_BUDGET}, \
         \"host_cores\": {host_cores}}},\n  \
         \"rows\": [\n{}\n  ]\n}}\n",
        body.join(",\n")
    );
    let out = std::env::var("CCA_BENCH_OUT")
        .unwrap_or_else(|_| format!("{}/../../BENCH_serve.json", env!("CARGO_MANIFEST_DIR")));
    std::fs::write(&out, json).expect("write bench output");
    println!("wrote {out}");
}
