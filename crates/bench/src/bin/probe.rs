//! Internal timing probe used to calibrate the experiment scale.
//! `cargo run --release -p cca-bench --bin probe [algos...]`

use std::time::Instant;

use cca_core::{ContinuousAssignment, ContinuousConfig, RefineMethod, WorldEvent};
use cca_datagen::{ArrivalProcess, CapacitySpec, SpatialDistribution, StreamEvent, WorkloadConfig};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let want = |name: &str| args.is_empty() || args.iter().any(|a| a == name);

    let k: u32 = args
        .iter()
        .find_map(|a| a.strip_prefix("k=").map(|v| v.parse().unwrap()))
        .unwrap_or(80);
    let theta: f64 = args
        .iter()
        .find_map(|a| a.strip_prefix("theta=").map(|v| v.parse().unwrap()))
        .unwrap_or(0.8);
    let (nq, np) = (100usize, 10_000usize);
    let cfg = WorkloadConfig {
        num_providers: nq,
        num_customers: np,
        capacity: CapacitySpec::Fixed(k),
        q_dist: SpatialDistribution::Clustered,
        p_dist: SpatialDistribution::Clustered,
        seed: 2008,
    };
    let t0 = Instant::now();
    let w = cfg.generate();
    eprintln!("gen: {:?}", t0.elapsed());
    let t0 = Instant::now();
    let instance = cca::SpatialAssignment::build(w.providers.clone(), w.customers.clone());
    // Scaled-down trees have so few pages that 1% cannot hold the internal
    // levels the paper's 25-page buffer held; floor it (see EXPERIMENTS.md).
    let floor = 16usize;
    let one_pct = (instance.tree().store().num_pages() as f64 / 100.0).ceil() as usize;
    instance
        .tree()
        .store()
        .set_buffer_capacity(one_pct.max(floor));
    eprintln!(
        "build: {:?}; |Q|={nq} |P|={np} k={k} gamma={}",
        t0.elapsed(),
        instance.gamma()
    );
    let registry = cca::SolverRegistry::with_defaults();
    let configs: Vec<(&str, cca::SolverConfig)> = vec![
        ("ida", cca::SolverConfig::new("ida")),
        ("idag", cca::SolverConfig::new("ida-grouped").group_size(8)),
        ("nia", cca::SolverConfig::new("nia")),
        ("ria", cca::SolverConfig::new("ria").theta(theta)),
        (
            "ca",
            cca::SolverConfig::new("ca")
                .delta(10.0)
                .refine(RefineMethod::NnBased),
        ),
        (
            "sa",
            cca::SolverConfig::new("sa")
                .delta(40.0)
                .refine(RefineMethod::NnBased),
        ),
        ("coreset", cca::SolverConfig::new("coreset")),
        ("da", cca::SolverConfig::new("da")),
    ];
    for (name, config) in configs {
        if !want(name) {
            continue;
        }
        let solver = registry.build(&config).unwrap_or_else(|e| panic!("{e}"));
        let t0 = Instant::now();
        let r = instance.run_solver(&*solver, None);
        let wall = t0.elapsed();
        eprintln!(
            "  {:<4} cost={:>12.1} |Esub|={:>9} faults={:>7} iters={:>7} dij={:>7} invalid={:>8} cpu={:>8.2?} wall={wall:?}",
            solver.label(),
            r.cost(),
            r.stats.esub_edges,
            r.stats.io.faults,
            r.stats.iterations,
            r.stats.dijkstra_runs,
            r.stats.invalid_paths,
            r.stats.cpu_time,
        );
    }

    // Flow-core probe: one cold SSPA solve on a mid-size instance, with its
    // settled-node count and solve-phase time breakdown.
    if want("flow") {
        use cca::flow::{FlowCustomer, FlowProvider, Sspa};
        use cca::geo::Point;
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(2008);
        let providers: Vec<FlowProvider> = (0..24)
            .map(|_| FlowProvider {
                pos: Point::new(rng.random_range(0.0..1000.0), rng.random_range(0.0..1000.0)),
                cap: 40,
            })
            .collect();
        let customers: Vec<FlowCustomer> = (0..800)
            .map(|_| FlowCustomer {
                pos: Point::new(rng.random_range(0.0..1000.0), rng.random_range(0.0..1000.0)),
                weight: 1,
            })
            .collect();
        let t0 = Instant::now();
        let (asg, s) = Sspa::default()
            .solve(&providers, &customers)
            .expect("no context, no abort");
        let wall = t0.elapsed();
        eprintln!(
            "  flow cold  cost={:>10.1} wall={wall:?} settled={} settle={:.2?} augment={:.2?}",
            asg.cost,
            s.settled,
            std::time::Duration::from_nanos(s.settle_ns),
            std::time::Duration::from_nanos(s.augment_ns),
        );
    }

    // Dynamic-workload probe: events/sec through the continuous engine on a
    // mixed stream, with the repair-tier breakdown.
    if want("dyn") {
        let mut stream = ArrivalProcess::new(&w, 2008);
        let t0 = Instant::now();
        let mut engine = ContinuousAssignment::build(
            w.providers.clone(),
            w.customers.clone(),
            ContinuousConfig::default(),
        );
        eprintln!("  dyn  build+initial solve: {:?}", t0.elapsed());
        let events = 2_000u64;
        let t0 = Instant::now();
        for _ in 0..events {
            let ev = match stream.next_event() {
                StreamEvent::CustomerArrive { id, pos } => WorldEvent::CustomerArrive { id, pos },
                StreamEvent::CustomerDepart { id, .. } => WorldEvent::CustomerDepart { id },
                StreamEvent::ProviderCapacityDelta { index, delta } => {
                    WorldEvent::ProviderCapacityDelta { index, delta }
                }
                StreamEvent::ProviderMove { index, to } => WorldEvent::ProviderMove { index, to },
            };
            engine.apply(ev, None);
        }
        let wall = t0.elapsed();
        let s = engine.stats();
        eprintln!(
            "  dyn  {events} events in {wall:?} ({:.0} ev/s) local={} expand={} full={} evicted={} deficit={}",
            events as f64 / wall.as_secs_f64(),
            s.local_repairs,
            s.expansions,
            s.full_resolves,
            s.evicted,
            engine.deficit(),
        );
    }
}
