//! Integration tests for the trait-based solver pipeline at the façade
//! level: registry round-trips, config-driven runs, custom registration and
//! figure labels.

use cca::datagen::{CapacitySpec, SpatialDistribution, WorkloadConfig};
use cca::flow::sspa::{unit_customers, FlowProvider, Sspa};
use cca::{SolverConfig, SolverRegistry, SpatialAssignment};

fn small_instance(seed: u64) -> SpatialAssignment {
    let w = WorkloadConfig {
        num_providers: 6,
        num_customers: 150,
        capacity: CapacitySpec::Fixed(12),
        q_dist: SpatialDistribution::Clustered,
        p_dist: SpatialDistribution::Clustered,
        seed,
    }
    .generate();
    SpatialAssignment::build(w.providers, w.customers)
}

fn oracle_cost(instance: &SpatialAssignment) -> f64 {
    let fps: Vec<FlowProvider> = instance
        .providers()
        .iter()
        .map(|&(pos, cap)| FlowProvider { pos, cap })
        .collect();
    Sspa::default()
        .solve(&fps, &unit_customers(instance.customers()))
        .expect("no context, no abort")
        .0
        .cost
}

/// Registry round-trip: every registered solver name resolves, solves a
/// small instance through the façade, and (with δ driven to ~0 for the
/// approximations, a wide θ for RIA) lands on the SSPA-optimal cost.
/// The approximate tier rides the same loop: `coreset` degenerates to an
/// exact solve at this size (auto coreset size ≥ n), while `da` is only
/// held to a constant-factor band — annealing has no per-instance
/// optimality guarantee.
#[test]
fn every_registered_solver_reaches_the_optimal_cost() {
    let instance = small_instance(301);
    let want = oracle_cost(&instance);
    let registry = SolverRegistry::with_defaults();
    assert_eq!(
        registry.names().count(),
        9,
        "the paper's seven algorithms plus the approximate tier"
    );

    for name in registry.names() {
        let config = SolverConfig::new(name).theta(30.0).delta(1e-9);
        let r = instance
            .run_config(&config)
            .unwrap_or_else(|e| panic!("{e}"));
        r.validate().unwrap_or_else(|e| panic!("{name}: {e}"));
        if name == "da" {
            assert!(
                r.cost() < 3.0 * want,
                "da: cost {} vs oracle {want}",
                r.cost()
            );
        } else {
            assert!(
                (r.cost() - want).abs() < 1e-6,
                "{name}: cost {} vs oracle {want}",
                r.cost()
            );
        }
    }
}

#[test]
fn unknown_solver_name_is_rejected_not_panicked() {
    let instance = small_instance(302);
    let err = instance
        .run_config(&SolverConfig::new("simulated-annealing"))
        .map(|_| ())
        .unwrap_err();
    assert!(err.to_string().contains("simulated-annealing"));
    assert!(err.to_string().contains("sspa"), "lists known solvers");
}

/// Custom solvers slot into the same registry the built-ins use.
#[test]
fn custom_solver_registration() {
    use cca::core::solver::IdaSolver;
    let mut registry = SolverRegistry::with_defaults();
    registry.register("house-special", |_| Box::new(IdaSolver::default()));
    assert!(registry.contains("house-special"));

    let instance = small_instance(304);
    let solver = registry.build_by_name("house-special").unwrap();
    let r = instance.run_solver(&*solver, None);
    r.validate().unwrap();
    assert!((r.cost() - oracle_cost(&instance)).abs() < 1e-6);
}

/// Solver labels follow the paper's figure naming.
#[test]
fn labels_match_paper_figures() {
    use cca::core::RefineMethod;
    let registry = SolverRegistry::with_defaults();
    let cases = [
        ("sspa", "SSPA"),
        ("ria", "RIA"),
        ("nia", "NIA"),
        ("ida", "IDA"),
        ("ida-grouped", "IDA"),
        ("sa", "SAN"),
        ("ca", "CAN"),
    ];
    for (name, label) in cases {
        let solver = registry.build_by_name(name).unwrap();
        assert_eq!(solver.label(), label);
    }
    let solver = registry
        .build(&SolverConfig::new("ca").refine(RefineMethod::ExclusiveNn))
        .unwrap();
    assert_eq!(solver.label(), "CAE");
}
