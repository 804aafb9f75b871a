//! Differential agreement of the exact solvers.
//!
//! Every exact solver in the registry — `ria`, `nia`, `ida`, `ida-grouped`
//! and the full-graph `sspa` baseline — must return a full-size (γ), valid
//! matching whose cost equals the optimum computed by the Hungarian oracle
//! (`cca_flow::validate::hungarian_optimal_cost`), which shares no code with
//! any of them. Every case checks both capacity regimes: scarce capacity
//! (`Σk < |P|`, some customers stay unmatched) and surplus capacity
//! (`Σk ≥ |P|`, some capacity stays idle).
//!
//! Weighted customers — the concise matching's representatives — are
//! checked too: `ria`, `nia` and `ida` over an in-memory tree of weighted
//! representatives against the Hungarian optimum of the unit expansion,
//! where a weight-`w` representative becomes `w` co-located unit customers.
//! Only weighted customers reach the multi-server reverse-arc relay and
//! IDA's batched re-commit.

use cca_core::{
    ida, memory_tree, nia, ria, Problem, RiaConfig, RtreeSource, SolverConfig, SolverRegistry,
};
use cca_flow::sspa::FlowProvider;
use cca_flow::validate::hungarian_optimal_cost;
use cca_geo::Point;
use cca_testutil::{build_tree, gamma, random_instance, random_points};
use proptest::prelude::*;

/// Runs every exact solver on the tree-backed instance and checks it
/// against the Hungarian optimum.
fn check_agreement(providers: &[(Point, u32)], customers: &[Point], group_size: usize) {
    let fps: Vec<FlowProvider> = providers
        .iter()
        .map(|&(pos, cap)| FlowProvider { pos, cap })
        .collect();
    let want = hungarian_optimal_cost(&fps, customers);
    let tol = 1e-9 * want.abs().max(1.0);
    let tree = build_tree(customers);
    let problem = Problem::new(providers).with_tree(&tree);
    let registry = SolverRegistry::with_defaults();
    let configs = [
        SolverConfig::new("ria"),
        SolverConfig::new("nia"),
        SolverConfig::new("ida"),
        SolverConfig::new("ida-grouped").group_size(group_size),
        SolverConfig::new("sspa"),
    ];
    for config in &configs {
        let name = config.name();
        let solver = registry.build(config).expect("registered exact solver");
        let (m, _) = solver.run(&problem).expect_complete();
        assert_eq!(m.size(), gamma(providers, customers), "{name}: size ≠ γ");
        if let Err(e) = m.validate_unit(providers, customers) {
            panic!("{name}: {e}");
        }
        assert!(
            (m.cost() - want).abs() <= tol,
            "{name}: cost {} vs hungarian {want}",
            m.cost()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn prop_exact_solvers_agree_with_hungarian(
        seed in 0u64..100_000,
        nq in 1usize..=6,
        max_cap in 1u32..=6,
        group_size in 1usize..=4,
        scarce_pick in 0usize..1_000,
        surplus_pick in 0usize..1_000,
    ) {
        let (providers, _) = random_instance(seed, nq, 0, max_cap);
        let total_cap: usize = providers.iter().map(|&(_, k)| k as usize).sum();
        // Σk ≤ 36, so both regimes fit in |P| ≤ 40.
        let scarce_np = total_cap + 1 + scarce_pick % (40 - total_cap);
        let surplus_np = 1 + surplus_pick % total_cap.min(40);
        for np in [scarce_np, surplus_np] {
            let customers = random_points(np, seed.wrapping_add(np as u64));
            check_agreement(&providers, &customers, group_size);
        }
    }
}

/// Runs `ria`, `nia` and `ida` over weighted representatives and checks
/// each against the Hungarian optimum of the unit expansion.
fn check_weighted(providers: &[(Point, u32)], reps: &[(Point, u32)]) {
    let fps: Vec<FlowProvider> = providers
        .iter()
        .map(|&(pos, cap)| FlowProvider { pos, cap })
        .collect();
    let expanded: Vec<Point> = reps
        .iter()
        .flat_map(|&(pos, weight)| std::iter::repeat_n(pos, weight as usize))
        .collect();
    let want = hungarian_optimal_cost(&fps, &expanded);
    let tol = 1e-9 * want.abs().max(1.0);
    let size = gamma(providers, &expanded);
    let qpos: Vec<Point> = providers.iter().map(|&(p, _)| p).collect();
    let tree = memory_tree(reps.iter().map(|&(pos, _)| pos));
    let weights: Vec<u32> = reps.iter().map(|&(_, w)| w).collect();
    let source = || RtreeSource::in_memory(&tree, qpos.clone(), 1, weights.clone(), None);
    let runs = [
        (
            "ria",
            ria(providers, &mut source(), &RiaConfig { theta: 50.0 }).0,
        ),
        ("nia", nia(providers, &mut source()).0),
        ("ida", ida(providers, &mut source()).0),
    ];
    for (name, m) in runs {
        assert_eq!(m.size(), size, "{name}: size ≠ γ");
        assert!(
            (m.cost() - want).abs() <= tol,
            "{name}: weighted cost {} vs hungarian {want}",
            m.cost()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn prop_exact_solvers_agree_on_weighted_customers(
        seed in 0u64..100_000,
        nq in 1usize..=5,
        max_cap in 1u32..=6,
        weights in proptest::collection::vec(1u32..=4, 1..=12),
    ) {
        let (providers, _) = random_instance(seed, nq, 0, max_cap);
        let points = random_points(weights.len(), seed.wrapping_add(1));
        let reps: Vec<(Point, u32)> = points.into_iter().zip(weights).collect();
        check_weighted(&providers, &reps);
    }
}
