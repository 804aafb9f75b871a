//! Benchmark harness for reproducing the paper's evaluation (§5).
//!
//! Every figure of the evaluation has a bench target (`fig08` … `fig18`)
//! that regenerates the corresponding table/series; `cargo bench` runs them
//! all. Absolute numbers differ from the paper (different hardware, a
//! synthetic road map, and a reduced default scale — see EXPERIMENTS.md);
//! the harness reports the same measured quantities (`|Esub|`, CPU time,
//! charged I/O time, quality ratio) so the *shapes* can be compared
//! directly.
//!
//! Scale: every experiment honours the `CCA_SCALE` environment variable
//! (default 0.1 = one tenth of the paper's sizes, preserving the governing
//! ratio `k·|Q|/|P|`).

#![forbid(unsafe_code)]

use std::time::Instant;

use cca::datagen::{CapacitySpec, SpatialDistribution, WorkloadConfig};
use cca::{SolverConfig, SolverRegistry, SpatialAssignment};

/// Experiment scale relative to the paper's Table 2 sizes.
#[derive(Clone, Copy, Debug)]
pub struct Scale(pub f64);

impl Scale {
    /// Reads `CCA_SCALE` (default 0.1). Values are clamped to (0, 1].
    pub fn from_env() -> Self {
        let raw = std::env::var("CCA_SCALE")
            .ok()
            .and_then(|v| v.parse::<f64>().ok())
            .unwrap_or(0.1);
        Scale(raw.clamp(1e-3, 1.0))
    }

    /// Scales a paper-sized count.
    pub fn count(&self, paper: usize) -> usize {
        ((paper as f64 * self.0).round() as usize).max(1)
    }

    /// RIA's θ, fine-tuned like the paper did for its scale (§5.1 fixes 0.8
    /// at |P| = 100 K; sparser scaled instances need proportionally wider
    /// rings — θ ∝ 1/√density).
    pub fn tuned_theta(&self) -> f64 {
        1.6 / self.0.sqrt()
    }
}

/// Buffer floor in pages: the paper's 1 % buffer (≈25 pages at |P| = 100 K)
/// holds the R-tree's internal levels; scaled-down trees need an absolute
/// floor to stay in the same caching regime.
pub const BUFFER_FLOOR_PAGES: usize = 16;

/// Builds the experiment instance with the paper's storage settings plus
/// the scaled buffer floor.
pub fn build_instance(cfg: &WorkloadConfig) -> SpatialAssignment {
    let w = cfg.generate();
    let instance = SpatialAssignment::build(w.providers, w.customers);
    let one_pct = (instance.tree().store().num_pages() as f64 / 100.0).ceil() as usize;
    instance
        .tree()
        .store()
        .set_buffer_capacity(one_pct.max(BUFFER_FLOOR_PAGES));
    instance
}

/// Default workload config at the given scale (Table 2 defaults).
pub fn default_config(scale: Scale) -> WorkloadConfig {
    WorkloadConfig {
        num_providers: scale.count(1000),
        num_customers: scale.count(100_000),
        capacity: CapacitySpec::Fixed(80),
        q_dist: SpatialDistribution::Clustered,
        p_dist: SpatialDistribution::Clustered,
        seed: 2008,
    }
}

/// One measured data point.
#[derive(Clone, Debug)]
pub struct Row {
    /// Series name (algorithm label).
    pub series: String,
    /// X-axis value (k, |Q|, |P|, δ, distribution combo, …).
    pub x: String,
    pub cost: f64,
    pub esub: u64,
    pub faults: u64,
    pub cpu_s: f64,
    pub io_s: f64,
    pub wall_s: f64,
}

impl Row {
    /// The paper's "total time": CPU + charged I/O.
    pub fn total_s(&self) -> f64 {
        self.cpu_s + self.io_s
    }
}

/// Runs one solver config on the instance (through the registry-backed
/// trait pipeline) and collects a row.
pub fn measure(instance: &SpatialAssignment, config: &SolverConfig, x: impl ToString) -> Row {
    let solver = SolverRegistry::with_defaults()
        .build(config)
        .unwrap_or_else(|e| panic!("{e}"));
    let t0 = Instant::now();
    let r = instance.run_solver(&*solver, None);
    let wall = t0.elapsed();
    r.validate()
        .expect("harness runs must produce valid matchings");
    Row {
        series: solver.label(),
        x: x.to_string(),
        cost: r.cost(),
        esub: r.stats.esub_edges,
        faults: r.stats.io.faults,
        cpu_s: r.stats.cpu_time.as_secs_f64(),
        io_s: r.stats.io_time_s(),
        wall_s: wall.as_secs_f64(),
    }
}

/// Prints a figure header with the effective parameters.
pub fn header(fig: &str, what: &str, params: &str) {
    println!("\n================================================================");
    println!("{fig}: {what}");
    println!("  paper: U et al., SIGMOD 2008, §5 — {params}");
    println!("================================================================");
}

/// Prints rows as an exact-experiment table (|Esub| + time split).
pub fn print_exact_table(rows: &[Row]) {
    println!(
        "{:<8} {:<10} {:>12} {:>14} {:>10} {:>10} {:>10} {:>10}",
        "x", "algo", "|Esub|", "cost", "faults", "cpu(s)", "io(s)", "total(s)"
    );
    for r in rows {
        println!(
            "{:<8} {:<10} {:>12} {:>14.1} {:>10} {:>10.2} {:>10.1} {:>10.1}",
            r.x,
            r.series,
            r.esub,
            r.cost,
            r.faults,
            r.cpu_s,
            r.io_s,
            r.total_s()
        );
    }
}

/// Prints rows as an approximate-experiment table (quality vs the exact
/// reference cost supplied per x-value).
pub fn print_approx_table(rows: &[Row], exact_cost: impl Fn(&str) -> f64) {
    println!(
        "{:<8} {:<10} {:>14} {:>9} {:>10} {:>10} {:>10} {:>10}",
        "x", "algo", "cost", "quality", "faults", "cpu(s)", "io(s)", "total(s)"
    );
    for r in rows {
        let base = exact_cost(&r.x);
        println!(
            "{:<8} {:<10} {:>14.1} {:>9.4} {:>10} {:>10.2} {:>10.1} {:>10.1}",
            r.x,
            r.series,
            r.cost,
            r.cost / base,
            r.faults,
            r.cpu_s,
            r.io_s,
            r.total_s()
        );
    }
}

/// Shape-check helper: asserts and reports an expected dominance relation,
/// e.g. "IDA explores no more edges than NIA".
pub fn shape_check(label: &str, ok: bool) {
    println!("shape[{}] {label}", if ok { "ok " } else { "MISMATCH" });
}

/// The five capacity values of Figures 8/9/15 (Table 2 range).
pub const K_RANGE: [u32; 5] = [20, 40, 80, 160, 320];

/// The mixed-capacity ranges of Figure 12.
pub const MIXED_K_RANGES: [(u32, u32); 5] = [(10, 30), (20, 60), (40, 120), (80, 240), (160, 480)];

/// The δ values of Figure 14.
pub const DELTA_RANGE: [f64; 5] = [10.0, 20.0, 40.0, 80.0, 160.0];

/// The four distribution combinations of Figures 13/18.
pub const DIST_COMBOS: [(SpatialDistribution, SpatialDistribution); 4] = [
    (SpatialDistribution::Uniform, SpatialDistribution::Uniform),
    (SpatialDistribution::Uniform, SpatialDistribution::Clustered),
    (SpatialDistribution::Clustered, SpatialDistribution::Uniform),
    (
        SpatialDistribution::Clustered,
        SpatialDistribution::Clustered,
    ),
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_parses_and_clamps() {
        assert_eq!(Scale(0.1).count(1000), 100);
        assert_eq!(Scale(0.1).count(100_000), 10_000);
        assert_eq!(Scale(1.0).count(250), 250);
        assert!(Scale(0.04).count(5) >= 1);
    }

    #[test]
    fn theta_matches_paper_at_full_scale() {
        // At scale 1 the tuned θ is within 2x of the paper's 0.8.
        let t = Scale(1.0).tuned_theta();
        assert!((0.8..=1.6).contains(&t), "theta {t}");
    }

    #[test]
    fn measure_produces_consistent_row() {
        let cfg = WorkloadConfig {
            num_providers: 5,
            num_customers: 200,
            capacity: CapacitySpec::Fixed(10),
            q_dist: SpatialDistribution::Clustered,
            p_dist: SpatialDistribution::Clustered,
            seed: 1,
        };
        let instance = build_instance(&cfg);
        let row = measure(&instance, &SolverConfig::new("ida"), 10);
        assert_eq!(row.series, "IDA");
        assert_eq!(row.x, "10");
        assert!(row.cost > 0.0);
        assert!((row.total_s() - (row.cpu_s + row.io_s)).abs() < 1e-12);
    }
}
