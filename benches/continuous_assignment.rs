//! Dynamic-world benchmark: the continuous-assignment engine against
//! re-solving from scratch on every event.
//!
//! Two regimes:
//!
//! * **Mixed stream at 10⁴ customers** — arrivals, departures, capacity
//!   changes and provider moves in the default `ArrivalProcess` mix. The
//!   row reports incremental events/sec, the repair-tier breakdown (local /
//!   expanded / full) and the final cost against a from-scratch IDA solve
//!   of the final world.
//! * **Single-customer arrivals at 10⁵ customers** — the headline
//!   comparison: incremental events/sec must be ≥ 5× the events/sec a
//!   full-re-solve-per-event baseline could sustain (measured as the wall
//!   time of one from-scratch solve of the final world), with the engine's
//!   final cost within 1 % of that from-scratch optimum. Both bounds are
//!   asserted in the full run; `--quick` shrinks the instances for CI and
//!   asserts only feasibility.
//!
//! Writes `BENCH_dynamic.json` (override with `CCA_BENCH_OUT`). Run with
//! `cargo bench --bench continuous_assignment` (pass `-- --quick` for the
//! CI smoke run).

use std::time::Instant;

use cca::datagen::{ArrivalProcess, CapacitySpec, StreamEvent, WorkloadConfig};
use cca::{ContinuousAssignment, ContinuousConfig, SolverConfig, SpatialAssignment, WorldEvent};

fn world(ev: StreamEvent) -> WorldEvent {
    match ev {
        StreamEvent::CustomerArrive { id, pos } => WorldEvent::CustomerArrive { id, pos },
        StreamEvent::CustomerDepart { id, .. } => WorldEvent::CustomerDepart { id },
        StreamEvent::ProviderCapacityDelta { index, delta } => {
            WorldEvent::ProviderCapacityDelta { index, delta }
        }
        StreamEvent::ProviderMove { index, to } => WorldEvent::ProviderMove { index, to },
    }
}

struct Scale {
    name: &'static str,
    customers: usize,
    providers: usize,
    capacity: u32,
    events: u64,
    arrivals_only: bool,
    /// Force a couple of mid-stream full re-solves instead of the default
    /// 25 % threshold, which a bounded stream never crosses at these sizes.
    dirty_threshold: f64,
}

fn scales(quick: bool) -> Vec<Scale> {
    if quick {
        vec![
            Scale {
                name: "mixed",
                customers: 2_000,
                providers: 24,
                capacity: 20,
                events: 300,
                arrivals_only: false,
                dirty_threshold: 0.05,
            },
            Scale {
                name: "arrivals",
                customers: 5_000,
                providers: 32,
                capacity: 30,
                events: 200,
                arrivals_only: true,
                dirty_threshold: 0.25,
            },
        ]
    } else {
        vec![
            Scale {
                name: "mixed",
                customers: 10_000,
                providers: 100,
                capacity: 80,
                events: 1_500,
                arrivals_only: false,
                dirty_threshold: 0.05,
            },
            Scale {
                name: "arrivals",
                customers: 100_000,
                providers: 200,
                capacity: 80,
                events: 2_000,
                arrivals_only: true,
                dirty_threshold: 0.25,
            },
        ]
    }
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let mut rows: Vec<String> = Vec::new();

    for spec in scales(quick) {
        let w = WorkloadConfig {
            num_providers: spec.providers,
            num_customers: spec.customers,
            capacity: CapacitySpec::Fixed(spec.capacity),
            seed: 2008,
            ..WorkloadConfig::paper_default()
        }
        .generate();
        let mut stream = if spec.arrivals_only {
            ArrivalProcess::arrivals_only(&w, 2008)
        } else {
            ArrivalProcess::new(&w, 2008)
        };
        let cfg = ContinuousConfig {
            dirty_threshold: spec.dirty_threshold,
            ..ContinuousConfig::default()
        };

        let t0 = Instant::now();
        let mut engine = ContinuousAssignment::build(w.providers.clone(), w.customers.clone(), cfg);
        let build_s = t0.elapsed().as_secs_f64();

        let t0 = Instant::now();
        for _ in 0..spec.events {
            engine.apply(world(stream.next_event()), None);
        }
        let wall_s = t0.elapsed().as_secs_f64();
        let events_per_sec = spec.events as f64 / wall_s;
        engine.check_feasible().expect("feasible after the stream");
        assert_eq!(engine.deficit(), 0, "maximal after the stream");

        // From-scratch baseline on the *final* world: its cost is the
        // optimum the engine is judged against, and its wall time is the
        // per-event cost a naive re-solve-everything engine would pay.
        let t0 = Instant::now();
        let scratch = SpatialAssignment::build(
            engine.providers().to_vec(),
            engine.alive_customers().to_vec(),
        );
        let result = scratch
            .run_config(&SolverConfig::new("ida"))
            .expect("ida is registered");
        let scratch_s = t0.elapsed().as_secs_f64();
        assert!(result.aborted.is_none());
        let full_events_per_sec = 1.0 / scratch_s;
        let speedup = events_per_sec / full_events_per_sec;
        let cost_ratio = engine.cost() / result.matching.cost().max(1e-9);
        let s = engine.stats();

        println!(
            "{:9} |P|={} |Q|={} k={}: build {:.2}s, {} events in {:.2}s ({:.1} ev/s), \
             full re-solve {:.2}s ({:.3} ev/s) -> speedup {:.1}x, cost ratio {:.4}",
            spec.name,
            spec.customers,
            spec.providers,
            spec.capacity,
            build_s,
            spec.events,
            wall_s,
            events_per_sec,
            scratch_s,
            full_events_per_sec,
            speedup,
            cost_ratio,
        );
        println!(
            "          repairs: local={} expansions={} full={} evicted={} aborted={}",
            s.local_repairs, s.expansions, s.full_resolves, s.evicted, s.aborted_repairs,
        );

        if !quick && spec.arrivals_only {
            assert!(
                speedup >= 5.0,
                "incremental must beat full re-solve 5x: {speedup:.2}"
            );
            assert!(
                cost_ratio <= 1.01,
                "cost must stay within 1% of from-scratch: {cost_ratio:.4}"
            );
        }

        rows.push(format!(
            "    {{\"workload\": \"{}\", \"customers\": {}, \"providers\": {}, \"capacity\": {}, \
             \"events\": {}, \"events_per_sec\": {:.2}, \"full_resolve_events_per_sec\": {:.4}, \
             \"speedup_vs_full\": {:.1}, \"cost_ratio_vs_scratch\": {:.4}, \"build_s\": {:.2}, \
             \"local_repairs\": {}, \"expansions\": {}, \"full_resolves\": {}, \
             \"evicted\": {}}}",
            spec.name,
            spec.customers,
            spec.providers,
            spec.capacity,
            spec.events,
            events_per_sec,
            full_events_per_sec,
            speedup,
            cost_ratio,
            build_s,
            s.local_repairs,
            s.expansions,
            s.full_resolves,
            s.evicted,
        ));
    }

    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let json = format!(
        "{{\n  \"bench\": \"continuous_assignment\",\n  \"config\": {{\"quick\": {quick}, \
         \"host_cores\": {host_cores}}},\n  \"rows\": [\n{}\n  ]\n}}\n",
        rows.join(",\n")
    );
    let out = std::env::var("CCA_BENCH_OUT")
        .unwrap_or_else(|_| format!("{}/BENCH_dynamic.json", env!("CARGO_MANIFEST_DIR")));
    std::fs::write(&out, &json).expect("write bench output");
    println!("wrote {out}");
}
