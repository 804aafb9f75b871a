//! Integration tests for the solver pipeline at the façade level: registry
//! round-trips, config-driven runs and figure labels.

use cca::datagen::{CapacitySpec, SpatialDistribution, WorkloadConfig};
use cca::{SolverConfig, SolverRegistry, SpatialAssignment};
use cca_testutil::optimal_cost;

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
    optimal_cost(instance.providers(), instance.customers())
}

/// Registry round-trip: every registered solver name resolves, solves a
/// small instance through the façade, and (with δ driven to ~0 for the
/// approximations, a wide θ for RIA) lands on the Hungarian optimum.
/// The approximate tier rides the same loop: `coreset` degenerates to an
/// exact solve at this size (auto coreset size ≥ n).
#[test]
fn every_registered_solver_reaches_the_optimal_cost() {
    let instance = small_instance(301);
    let want = oracle_cost(&instance);
    let registry = SolverRegistry::with_defaults();
    assert_eq!(
        registry.names().count(),
        8,
        "the paper's seven algorithms plus the approximate tier"
    );

    for name in registry.names() {
        let config = SolverConfig::new(name).theta(30.0).delta(1e-9);
        let r = instance
            .run_config(&config)
            .unwrap_or_else(|e| panic!("{e}"));
        r.validate().unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(
            (r.cost() - want).abs() < 1e-6,
            "{name}: cost {} vs oracle {want}",
            r.cost()
        );
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
        let solver = registry.build(&SolverConfig::new(name)).unwrap();
        assert_eq!(solver.label(), label);
    }
    let solver = registry
        .build(&SolverConfig::new("ca").refine(RefineMethod::ExclusiveNn))
        .unwrap();
    assert_eq!(solver.label(), "CAE");
}
