//! Integration tests for the storage model: the paper's I/O accounting must
//! behave like a real buffered disk (cold/warm effects, buffer-size
//! sensitivity), because total time in the evaluation is dominated by
//! charged I/O.

use cca::datagen::{CapacitySpec, SpatialDistribution, WorkloadConfig};
use cca::{RunResult, SolverConfig, SpatialAssignment};

fn build(seed: u64, buffer_percent: f64) -> SpatialAssignment {
    let cfg = WorkloadConfig {
        num_providers: 20,
        num_customers: 4000,
        capacity: CapacitySpec::Fixed(60),
        q_dist: SpatialDistribution::Clustered,
        p_dist: SpatialDistribution::Clustered,
        seed,
    };
    let w = cfg.generate();
    SpatialAssignment::build_with_storage(w.providers, w.customers, 1024, buffer_percent)
}

fn run<'a>(instance: &'a SpatialAssignment, config: &SolverConfig) -> RunResult<'a> {
    instance.run_config(config).expect("registered solver")
}

#[test]
fn larger_buffer_means_fewer_faults() {
    let small = build(200, 1.0);
    let large = build(200, 50.0);
    let r_small = run(&small, &SolverConfig::new("ida"));
    let r_large = run(&large, &SolverConfig::new("ida"));
    assert!(
        (r_small.cost() - r_large.cost()).abs() < 1e-6,
        "buffer size must not affect the matching"
    );
    assert!(
        r_large.stats.io.faults < r_small.stats.io.faults,
        "50% buffer {} faults vs 1% buffer {}",
        r_large.stats.io.faults,
        r_small.stats.io.faults
    );
}

#[test]
fn charged_io_time_follows_fault_count() {
    let instance = build(201, 1.0);
    let r = run(&instance, &SolverConfig::new("ida"));
    let expect_ms = r.stats.io.faults as f64 * 10.0;
    assert!((r.stats.io.charged_io_time_ms() - expect_ms).abs() < 1e-9);
    assert!(r.stats.total_time_s() >= r.stats.io_time_s());
}

#[test]
fn runs_start_cold_every_time() {
    let instance = build(202, 1.0);
    let a = run(&instance, &SolverConfig::new("ida"));
    let b = run(&instance, &SolverConfig::new("ida"));
    assert_eq!(
        a.stats.io.faults, b.stats.io.faults,
        "run_config() must cold-start the cache for fair comparisons"
    );
}

#[test]
fn cold_run_faults_do_not_depend_on_earlier_solves() {
    // Figure 10's |Q| = 50 point at a fiftieth of Table 2's sizes, with
    // `paper_shapes`' 16-page buffer floor. A pool that kept its frames
    // across cold starts made IDA fault 920 times here when it ran first
    // and 915 times after RIA and NIA.
    let cfg = WorkloadConfig {
        num_providers: 50,
        num_customers: 2000,
        capacity: CapacitySpec::Fixed(80),
        q_dist: SpatialDistribution::Clustered,
        p_dist: SpatialDistribution::Clustered,
        seed: 2008,
    };
    let w = cfg.generate();
    let instance = SpatialAssignment::build(w.providers, w.customers);
    instance.tree().store().set_buffer_capacity(16);
    let ida = SolverConfig::new("ida");
    let ria = SolverConfig::new("ria").theta(1.6 / 0.02f64.sqrt());
    let first = run(&instance, &ida).stats.io;
    run(&instance, &ria);
    run(&instance, &SolverConfig::new("nia"));
    let after = run(&instance, &ida).stats.io;
    assert_eq!(first, after, "IDA's cold I/O depends on earlier solves");
}

#[test]
fn page_size_changes_fanout_but_not_results() {
    let cfg = WorkloadConfig {
        num_providers: 10,
        num_customers: 1500,
        capacity: CapacitySpec::Fixed(30),
        q_dist: SpatialDistribution::Uniform,
        p_dist: SpatialDistribution::Uniform,
        seed: 203,
    };
    let w = cfg.generate();
    let small_pages =
        SpatialAssignment::build_with_storage(w.providers.clone(), w.customers.clone(), 512, 1.0);
    let large_pages =
        SpatialAssignment::build_with_storage(w.providers.clone(), w.customers.clone(), 4096, 1.0);
    let rs = run(&small_pages, &SolverConfig::new("ida"));
    let rl = run(&large_pages, &SolverConfig::new("ida"));
    assert!((rs.cost() - rl.cost()).abs() < 1e-6);
    assert!(
        small_pages.tree().store().num_pages() > large_pages.tree().store().num_pages(),
        "smaller pages need more of them"
    );
}

#[test]
fn approximations_do_less_io_than_exact() {
    use cca::core::RefineMethod;
    let instance = build(204, 1.0);
    let exact = run(&instance, &SolverConfig::new("ida"));
    let ca = run(
        &instance,
        &SolverConfig::new("ca")
            .delta(10.0)
            .refine(RefineMethod::NnBased),
    );
    // CA reads the tree once to partition it; IDA performs per-iteration NN
    // I/O. On a clustered 4K-point instance CA must not fault more.
    assert!(
        ca.stats.io.faults <= exact.stats.io.faults,
        "CA {} faults vs IDA {}",
        ca.stats.io.faults,
        exact.stats.io.faults
    );
}

/// A one-member ANN group browses the tree exactly as a plain NN cursor:
/// `ida-grouped` at group size 1 finds the same pairs, cost bits, |Esub|
/// and cold faults as `ida` on disk-resident instances with a small buffer.
#[test]
fn grouped_ida_of_one_member_equals_plain_ida() {
    for (seed, q_dist) in [
        (205, SpatialDistribution::Clustered),
        (206, SpatialDistribution::Uniform),
        (207, SpatialDistribution::Clustered),
    ] {
        let w = WorkloadConfig {
            num_providers: 25,
            num_customers: 3000,
            capacity: CapacitySpec::Fixed(50),
            q_dist,
            p_dist: SpatialDistribution::Clustered,
            seed,
        }
        .generate();
        let instance = SpatialAssignment::build_with_storage(w.providers, w.customers, 1024, 1.0);
        let plain = run(&instance, &SolverConfig::new("ida"));
        let grouped = run(&instance, &SolverConfig::new("ida-grouped").group_size(1));
        let key = |r: &RunResult| -> Vec<(usize, u64, u32, u64)> {
            r.matching
                .pairs
                .iter()
                .map(|p| (p.provider, p.customer, p.units, p.dist.to_bits()))
                .collect()
        };
        assert_eq!(key(&plain), key(&grouped), "seed {seed}: pairs differ");
        assert_eq!(
            plain.cost().to_bits(),
            grouped.cost().to_bits(),
            "seed {seed}"
        );
        assert_eq!(
            plain.stats.esub_edges, grouped.stats.esub_edges,
            "seed {seed}"
        );
        assert!(
            plain.stats.io.faults > 0,
            "seed {seed}: the solve must fault"
        );
        assert_eq!(
            plain.stats.io.faults, grouped.stats.io.faults,
            "seed {seed}"
        );
    }
}
