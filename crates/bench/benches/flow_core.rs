//! Flow-core microbenchmark: the min-cost-flow substrate in isolation.
//!
//! * `graph_build` — `add_edge` throughput building the complete bipartite
//!   residual graph (arena SoA columns + intrusive adjacency chains; no
//!   per-node allocation).
//! * `sspa_cold` — a full cold SSPA solve (the dense complete-graph
//!   solver), best of the rounds, with the solve's own settled-node count
//!   and settle/augment time split.
//!
//! Writes `BENCH_flow.json` (override with `CCA_BENCH_OUT`). Run with
//! `cargo bench --bench flow_core`; pass `-- --quick` for a CI smoke run.

use std::hint::black_box;
use std::time::Instant;

use cca::flow::{FlowCustomer, FlowGraph, FlowProvider, Sspa, SspaStats};
use cca::geo::Point;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

struct Scale {
    quick: bool,
    customers: usize,
    /// Best-of rounds for every workload.
    rounds: usize,
}

impl Scale {
    fn new(quick: bool) -> Self {
        if quick {
            Scale {
                quick,
                customers: 120,
                rounds: 1,
            }
        } else {
            Scale {
                quick,
                customers: 800,
                rounds: 5,
            }
        }
    }
}

const PROVIDERS: usize = 24;

fn instance(customers: usize) -> (Vec<FlowProvider>, Vec<FlowCustomer>) {
    let mut rng = StdRng::seed_from_u64(11);
    let providers: Vec<FlowProvider> = (0..PROVIDERS)
        .map(|_| FlowProvider {
            pos: Point::new(rng.random_range(0.0..1000.0), rng.random_range(0.0..1000.0)),
            cap: 40,
        })
        .collect();
    let customers: Vec<FlowCustomer> = (0..customers)
        .map(|_| FlowCustomer {
            pos: Point::new(rng.random_range(0.0..1000.0), rng.random_range(0.0..1000.0)),
            weight: 1,
        })
        .collect();
    (providers, customers)
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let scale = Scale::new(quick);
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let (providers, customers) = instance(scale.customers);
    let mut rows: Vec<String> = Vec::new();

    // ---- graph_build: add_edge throughput ---------------------------
    let mut best_edges_per_s = 0.0f64;
    for _ in 0..scale.rounds {
        let start = Instant::now();
        let mut g = FlowGraph::with_nodes(2 + providers.len() + customers.len());
        let mut edges = 0u64;
        for (i, q) in providers.iter().enumerate() {
            g.add_edge(0, (2 + i) as u32, q.cap, 0.0);
            edges += 1;
        }
        for (i, q) in providers.iter().enumerate() {
            for (j, p) in customers.iter().enumerate() {
                g.add_edge(
                    (2 + i) as u32,
                    (2 + providers.len() + j) as u32,
                    p.weight,
                    q.pos.dist(&p.pos),
                );
                edges += 1;
            }
        }
        for (j, p) in customers.iter().enumerate() {
            g.add_edge((2 + providers.len() + j) as u32, 1, p.weight, 0.0);
            edges += 1;
        }
        let rate = edges as f64 / start.elapsed().as_secs_f64() / 1.0e6;
        black_box(&g);
        best_edges_per_s = best_edges_per_s.max(rate);
    }
    println!("graph_build {best_edges_per_s:8.2} Medges/s");
    rows.push(format!(
        "    {{\"workload\": \"graph_build\", \"medges_per_s\": {best_edges_per_s:.2}}}"
    ));

    // ---- sspa_cold: one cold dense SSPA solve -----------------------
    let mut best_ms = f64::INFINITY;
    let mut s = SspaStats::default();
    for _ in 0..scale.rounds {
        let start = Instant::now();
        let (asg, stats) = Sspa::default()
            .solve(&providers, &customers)
            .expect("no context, no abort");
        let ms = start.elapsed().as_secs_f64() * 1e3;
        black_box(&asg);
        if ms < best_ms {
            (best_ms, s) = (ms, stats);
        }
    }
    let (settle_ms, augment_ms) = (s.settle_ns as f64 / 1e6, s.augment_ns as f64 / 1e6);
    println!(
        "sspa_cold {best_ms:8.2} ms  settled={} settle={settle_ms:.2} ms augment={augment_ms:.2} ms",
        s.settled
    );
    rows.push(format!(
        "    {{\"workload\": \"sspa_cold\", \"ms\": {best_ms:.2}, \"settled\": {}, \
         \"settle_ms\": {settle_ms:.2}, \"augment_ms\": {augment_ms:.2}}}",
        s.settled
    ));

    // ---- emit -------------------------------------------------------
    let json = format!(
        "{{\n  \"bench\": \"flow_core\",\n  \"config\": {{\"providers\": {PROVIDERS}, \
         \"customers\": {}, \"provider_cap\": 40, \"quick\": {}, \"host_cores\": {host_cores}}},\n  \
         \"rows\": [\n{}\n  ]\n}}\n",
        scale.customers,
        scale.quick,
        rows.join(",\n")
    );
    let out = std::env::var("CCA_BENCH_OUT")
        .unwrap_or_else(|_| format!("{}/../../BENCH_flow.json", env!("CARGO_MANIFEST_DIR")));
    std::fs::write(&out, &json).expect("write bench output");
    println!("wrote {out}");
}
