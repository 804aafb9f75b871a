//! Network-serving throughput: requests/second through the full stack —
//! TCP loopback, frame codec, gateway, persistent serving instance — for
//! rising client counts.
//!
//! Three request classes per client count:
//!
//! * `ping_rps` — empty round trips: the wire + scheduling floor.
//! * `inline_rps` — tiny inline solves (the whole problem rides the
//!   request): codec + solve, no storage.
//! * `dataset_rps` — IDA over a preloaded disk-backed dataset with a warm
//!   cache: the serving path a long-lived deployment runs.
//!
//! Writes `BENCH_net.json` (override the path with `CCA_BENCH_OUT`). Run
//! with `cargo bench --bench net_throughput`.

use std::sync::Arc;
use std::time::Instant;

use cca::datagen::{CapacitySpec, SpatialDistribution, WorkloadConfig};
use cca::{ServeConfig, SolverConfig, SpatialAssignment, TenantId};
use cca_net::{Gateway, NetClient, NetServer, ProblemSpec, SolveRequest};

const WORKERS: usize = 4;
const QUEUE: usize = 64;
const PINGS_PER_CLIENT: usize = 2_000;
const INLINE_PER_CLIENT: usize = 200;
const DATASET_PER_CLIENT: usize = 30;
const CLIENT_COUNTS: [usize; 3] = [1, 2, 4];

fn dataset() -> Arc<SpatialAssignment> {
    let w = WorkloadConfig {
        num_providers: 16,
        num_customers: 8_000,
        capacity: CapacitySpec::Fixed(600),
        q_dist: SpatialDistribution::Clustered,
        p_dist: SpatialDistribution::Clustered,
        seed: 33,
    }
    .generate();
    Arc::new(SpatialAssignment::build_with_storage(
        w.providers,
        w.customers,
        1024,
        8.0,
    ))
}

fn inline_problem() -> ProblemSpec {
    let w = WorkloadConfig {
        num_providers: 4,
        num_customers: 60,
        capacity: CapacitySpec::Fixed(20),
        q_dist: SpatialDistribution::Uniform,
        p_dist: SpatialDistribution::Uniform,
        seed: 34,
    }
    .generate();
    ProblemSpec::Inline {
        providers: w.providers,
        customers: w.customers,
    }
}

/// Drives `per_client` requests from each of `clients` threads and
/// returns aggregate requests/second.
fn drive(
    addr: std::net::SocketAddr,
    clients: usize,
    per_client: usize,
    request: impl Fn(&mut NetClient) + Send + Sync + 'static,
) -> f64 {
    let request = Arc::new(request);
    let start = Instant::now();
    let threads: Vec<_> = (0..clients)
        .map(|c| {
            let request = Arc::clone(&request);
            std::thread::spawn(move || {
                let mut client = NetClient::connect(addr, TenantId(c as u32 + 1)).expect("connect");
                for _ in 0..per_client {
                    request(&mut client);
                }
            })
        })
        .collect();
    for t in threads {
        t.join().expect("client thread");
    }
    (clients * per_client) as f64 / start.elapsed().as_secs_f64()
}

fn main() {
    let data = dataset();
    let gateway = Arc::new(
        Gateway::builder()
            .serve_config(
                ServeConfig::default()
                    .workers(WORKERS)
                    .queue_capacity(QUEUE),
            )
            .dataset("paper", Arc::clone(&data))
            .start(),
    );
    let server = NetServer::bind("127.0.0.1:0", Arc::clone(&gateway)).expect("bind");
    let addr = server.local_addr();

    // Warm the buffer pool once so `dataset_rps` measures the steady
    // state, not the first cold scan.
    {
        let mut client = NetClient::connect(addr, TenantId(99)).expect("connect");
        client
            .solve(SolveRequest::new(
                SolverConfig::new("ida"),
                ProblemSpec::Dataset("paper".into()),
            ))
            .expect("warmup solve");
    }

    let mut rows = Vec::new();
    for clients in CLIENT_COUNTS {
        let ping_rps = drive(addr, clients, PINGS_PER_CLIENT, |c| {
            c.ping().expect("ping");
        });
        let inline = inline_problem();
        let inline_rps = drive(addr, clients, INLINE_PER_CLIENT, move |c| {
            c.solve(SolveRequest::new(SolverConfig::new("sspa"), inline.clone()))
                .expect("inline solve");
        });
        let dataset_rps = drive(addr, clients, DATASET_PER_CLIENT, |c| {
            c.solve(SolveRequest::new(
                SolverConfig::new("ida"),
                ProblemSpec::Dataset("paper".into()),
            ))
            .expect("dataset solve");
        });
        println!(
            "clients {clients}: ping {ping_rps:.0} rps, inline {inline_rps:.1} rps, \
             dataset {dataset_rps:.1} rps"
        );
        rows.push(format!(
            "    {{\"clients\": {clients}, \"ping_rps\": {ping_rps:.1}, \
             \"inline_rps\": {inline_rps:.2}, \"dataset_rps\": {dataset_rps:.2}}}"
        ));
    }
    server.shutdown();

    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let json = format!(
        "{{\n  \"bench\": \"net_throughput\",\n  \"config\": {{\"customers\": 8000, \
         \"providers\": 16, \"page_size\": 1024, \"buffer_percent\": 8.0, \
         \"workers\": {WORKERS}, \"queue\": {QUEUE}, \"pings_per_client\": {PINGS_PER_CLIENT}, \
         \"inline_per_client\": {INLINE_PER_CLIENT}, \
         \"dataset_per_client\": {DATASET_PER_CLIENT}, \
         \"host_cores\": {host_cores}}},\n  \"rows\": [\n{}\n  ]\n}}\n",
        rows.join(",\n")
    );
    let out = std::env::var("CCA_BENCH_OUT")
        .unwrap_or_else(|_| format!("{}/../../BENCH_net.json", env!("CARGO_MANIFEST_DIR")));
    std::fs::write(&out, json).expect("write bench output");
    println!("wrote {out}");
}
