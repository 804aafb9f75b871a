//! Approximate-tier benchmark: the coreset solver against the best exact
//! engine.
//!
//! Two disk-backed instances with the skew the tier is built for (Zipf
//! provider capacities, Zipf-clustered customers):
//!
//! * **10⁵ customers** — `ida` and `ida-grouped` still finish, so the row
//!   set carries the headline comparison: the coreset solve must be an
//!   order of magnitude faster at a mean cost ratio within a few percent
//!   of the exact optimum.
//! * **10⁶ customers** — beyond the exact engines' patience budget; the
//!   row reports the coreset alone: wall time, queries/s, cost and peak
//!   attributed I/O (each run is a fresh [`QueryContext`] on a cold
//!   cache). Nothing exact or bounded runs at this size, so the row has
//!   no cost ratio.
//!
//! Writes `BENCH_approx.json` (override with `CCA_BENCH_OUT`). Run with
//! `cargo bench --bench approx_tier`; pass `-- --quick` for a smoke run on
//! shrunken instances (CI uses this to assert the tier runs end-to-end and
//! the JSON stays valid — quick ratios are noisy and not asserted).

use std::time::Instant;

use cca::datagen::{CapacitySpec, SpatialDistribution, WorkloadConfig};
use cca::{QueryContext, SolverConfig, SolverRegistry, SpatialAssignment};

struct ScaleSpec {
    customers: usize,
    providers: usize,
    capacity: CapacitySpec,
    coreset_size: usize,
    /// Run the exact baselines (only at the scale where they finish).
    exact: bool,
}

struct Run {
    solver: &'static str,
    wall_s: f64,
    cost: f64,
    faults: u64,
    size: u64,
}

fn scales(quick: bool) -> Vec<ScaleSpec> {
    if quick {
        vec![
            ScaleSpec {
                customers: 4_000,
                providers: 32,
                capacity: CapacitySpec::Zipf { lo: 20, hi: 400 },
                coreset_size: 512,
                exact: true,
            },
            ScaleSpec {
                customers: 12_000,
                providers: 48,
                capacity: CapacitySpec::Zipf { lo: 50, hi: 800 },
                coreset_size: 1_024,
                exact: false,
            },
        ]
    } else {
        // Both scales follow the paper's regime: γ = Σcap ≪ |P|, so the
        // solvers pick *which* customers to serve. A surplus-capacity
        // instance (γ = |P|) puts the exact engines hours out of reach
        // already at 10⁵ and would leave nothing to compare against.
        vec![
            ScaleSpec {
                customers: 100_000,
                providers: 200,
                capacity: CapacitySpec::Zipf { lo: 20, hi: 400 },
                coreset_size: 4_096,
                exact: true,
            },
            ScaleSpec {
                customers: 1_000_000,
                providers: 600,
                capacity: CapacitySpec::Zipf { lo: 100, hi: 2_000 },
                coreset_size: 8_192,
                exact: false,
            },
        ]
    }
}

/// One cold solve under its own context: exact per-query attribution.
fn timed_run(instance: &SpatialAssignment, solver: &'static str, cfg: &SolverConfig) -> Run {
    let ctx = QueryContext::new();
    let start = Instant::now();
    let solver_impl = SolverRegistry::with_defaults()
        .build(cfg)
        .expect("registered solver");
    let result = instance.run_solver(&solver_impl, Some(&ctx));
    let wall_s = start.elapsed().as_secs_f64();
    assert!(result.aborted.is_none(), "{solver}: no budget, no abort");
    assert_eq!(
        result.matching.size(),
        instance.gamma(),
        "{solver}: matching must be full-size"
    );
    Run {
        solver,
        wall_s,
        cost: result.matching.cost(),
        faults: result.stats.io.faults,
        size: result.matching.size(),
    }
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let mut rows: Vec<String> = Vec::new();

    for spec in scales(quick) {
        let w = WorkloadConfig {
            num_providers: spec.providers,
            num_customers: spec.customers,
            capacity: spec.capacity,
            q_dist: SpatialDistribution::Clustered,
            p_dist: SpatialDistribution::ZipfClustered { clusters: 16 },
            seed: 83,
        }
        .generate();
        let instance = SpatialAssignment::build_with_storage(w.providers, w.customers, 4096, 8.0);
        println!(
            "---- {} customers, {} providers (Σcap {}, γ {}) ----",
            spec.customers,
            spec.providers,
            instance
                .providers()
                .iter()
                .map(|&(_, k)| u64::from(k))
                .sum::<u64>(),
            instance.gamma()
        );

        let mut runs: Vec<Run> = Vec::new();
        if spec.exact {
            for name in ["ida", "ida-grouped"] {
                runs.push(timed_run(&instance, name, &SolverConfig::new(name)));
            }
        }
        runs.push(timed_run(
            &instance,
            "coreset",
            &SolverConfig::new("coreset").coreset_size(spec.coreset_size),
        ));

        // Reference cost: the exact optimum, where it runs.
        let exact_runs: Vec<&Run> = runs
            .iter()
            .filter(|r| r.solver.starts_with("ida"))
            .collect();
        let best_exact_s = exact_runs
            .iter()
            .map(|r| r.wall_s)
            .fold(f64::INFINITY, f64::min);
        let ref_cost = exact_runs.first().map(|r| r.cost);

        for r in &runs {
            let qps = 1.0 / r.wall_s;
            let ratio = ref_cost.map(|exact| r.cost / exact);
            let ratio_field = ratio.map_or(String::new(), |ratio| {
                format!(", \"cost_ratio\": {ratio:.4}, \"ratio_vs\": \"exact\"")
            });
            let speedup = if spec.exact && !r.solver.starts_with("ida") {
                format!(", \"speedup_vs_exact\": {:.1}", best_exact_s / r.wall_s)
            } else {
                String::new()
            };
            let ratio_note = ratio.map_or(String::new(), |ratio| {
                format!(" (ratio {ratio:.4} vs exact)")
            });
            println!(
                "{:12} {:10.2} ms  {:8.3} q/s  cost {:14.1}{ratio_note}  faults {}",
                r.solver,
                r.wall_s * 1e3,
                qps,
                r.cost,
                r.faults
            );
            rows.push(format!(
                "    {{\"workload\": \"approx_tier\", \"customers\": {}, \"providers\": {}, \
                 \"capacity\": \"{}\", \"solver\": \"{}\", \"ms\": {:.2}, \"qps\": {:.3}, \
                 \"cost\": {:.1}{}, \"peak_faults\": {}, \"size\": {}{}}}",
                spec.customers,
                spec.providers,
                spec.capacity.label(),
                r.solver,
                r.wall_s * 1e3,
                qps,
                r.cost,
                ratio_field,
                r.faults,
                r.size,
                speedup
            ));
        }
    }

    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let json = format!(
        "{{\n  \"bench\": \"approx_tier\",\n  \"config\": {{\"page_size\": 4096, \
         \"buffer_percent\": 8.0, \"quick\": {quick}, \
         \"host_cores\": {host_cores}}},\n  \"rows\": [\n{}\n  ]\n}}\n",
        rows.join(",\n")
    );
    let out = std::env::var("CCA_BENCH_OUT")
        .unwrap_or_else(|_| format!("{}/../../BENCH_approx.json", env!("CARGO_MANIFEST_DIR")));
    std::fs::write(&out, &json).expect("write bench output");
    println!("wrote {out}");
}
