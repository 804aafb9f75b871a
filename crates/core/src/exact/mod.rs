//! Exact CCA algorithms (§3): RIA, NIA, IDA over a shared incremental-SSPA
//! engine, each reading its customers through one [`RtreeSource`].

pub mod engine;
pub mod ida;
pub mod nia;
pub mod ria;
pub mod source;

pub use engine::Engine;
pub use ida::ida;
pub use nia::nia;
pub use ria::{ria, RiaConfig};
pub use source::{memory_tree, RtreeSource, SourcedCustomer};

#[cfg(test)]
mod tests {
    use super::*;
    use cca_geo::Point;
    use cca_testutil::{build_tree, optimal_cost, random_instance};
    use proptest::prelude::*;

    /// Runs all three exact algorithms on both kinds of tree and checks that
    /// each yields a valid matching with the optimal cost.
    fn check_all_exact(seed: u64, nq: usize, np: usize, max_cap: u32) {
        let (providers, customers) = random_instance(seed, nq, np, max_cap);
        let want = optimal_cost(&providers, &customers);
        let tree = build_tree(&customers);
        let qpos: Vec<Point> = providers.iter().map(|&(p, _)| p).collect();

        // RIA over the R-tree (large theta keeps the test fast).
        let mut src = RtreeSource::new(&tree, qpos.clone(), None);
        let (m, _) = ria(&providers, &mut src, &RiaConfig { theta: 25.0 });
        m.validate_unit(&providers, &customers).unwrap();
        assert!(
            (m.cost() - want).abs() < 1e-6,
            "seed {seed}: RIA {} vs optimal {want}",
            m.cost()
        );

        // NIA.
        let mut src = RtreeSource::new(&tree, qpos.clone(), None);
        let (m, _) = nia(&providers, &mut src);
        m.validate_unit(&providers, &customers).unwrap();
        assert!(
            (m.cost() - want).abs() < 1e-6,
            "seed {seed}: NIA {} vs optimal {want}",
            m.cost()
        );

        // IDA.
        let mut src = RtreeSource::new(&tree, qpos.clone(), None);
        let (m, _) = ida(&providers, &mut src);
        m.validate_unit(&providers, &customers).unwrap();
        assert!(
            (m.cost() - want).abs() < 1e-6,
            "seed {seed}: IDA {} vs optimal {want}",
            m.cost()
        );

        // IDA over the grouped-ANN source.
        let mut src = RtreeSource::with_ann_groups(&tree, qpos.clone(), 4, None);
        let (m, _) = ida(&providers, &mut src);
        assert!((m.cost() - want).abs() < 1e-6, "seed {seed}: IDA/ANN");

        // IDA over an in-memory tree (the approximation phases rely on
        // this combination).
        let mem_tree = memory_tree(customers.iter().copied());
        let mut src = RtreeSource::in_memory(&mem_tree, qpos, 1, Vec::new(), None);
        let (m, _) = ida(&providers, &mut src);
        assert!((m.cost() - want).abs() < 1e-6, "seed {seed}: IDA/mem");
    }

    #[test]
    fn exact_algorithms_match_sspa_small() {
        check_all_exact(1, 3, 12, 3);
    }

    #[test]
    fn exact_algorithms_match_sspa_surplus_capacity() {
        // Σk > |P|: some providers stay underutilised.
        check_all_exact(2, 4, 6, 5);
    }

    #[test]
    fn exact_algorithms_match_sspa_surplus_customers() {
        // Σk < |P|: some customers stay unmatched.
        check_all_exact(3, 2, 25, 4);
    }

    #[test]
    fn exact_algorithms_match_sspa_unit_capacities() {
        // One-to-one matching (the classical assignment problem).
        check_all_exact(4, 8, 8, 1);
    }

    #[test]
    fn exact_algorithms_match_sspa_medium() {
        check_all_exact(5, 10, 120, 8);
    }

    #[test]
    fn exact_single_provider() {
        check_all_exact(6, 1, 30, 10);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        #[test]
        fn prop_ida_paper_mode_is_optimal(seed in 0u64..100_000,
                                          nq in 1usize..8,
                                          np in 1usize..60,
                                          max_cap in 1u32..6) {
            let (providers, customers) = random_instance(seed, nq, np, max_cap);
            let want = optimal_cost(&providers, &customers);
            let tree = build_tree(&customers);
            let qpos: Vec<Point> = providers.iter().map(|&(p, _)| p).collect();
            let mut src = RtreeSource::new(&tree, qpos, None);
            let (m, _) = ida(&providers, &mut src);
            prop_assert!(m.validate_unit(&providers, &customers).is_ok());
            prop_assert!((m.cost() - want).abs() < 1e-6,
                         "IDA {} vs optimal {}", m.cost(), want);
        }

        #[test]
        fn prop_nia_is_optimal(seed in 0u64..100_000,
                               nq in 1usize..6,
                               np in 1usize..40,
                               max_cap in 1u32..5) {
            let (providers, customers) = random_instance(seed, nq, np, max_cap);
            let want = optimal_cost(&providers, &customers);
            let tree = build_tree(&customers);
            let qpos: Vec<Point> = providers.iter().map(|&(p, _)| p).collect();
            let mut src = RtreeSource::new(&tree, qpos, None);
            let (m, _) = nia(&providers, &mut src);
            prop_assert!((m.cost() - want).abs() < 1e-6,
                         "NIA {} vs optimal {}", m.cost(), want);
        }
    }
}
