//! Approximate CCA: the paper's SA and CA (§4) with NN-based and
//! exclusive-NN refinement and the error bounds of Theorems 3–4, plus the
//! scale-out tier — capacity-aware coresets ([`coreset()`]) for instances
//! where even CA's full partition descent is too slow.

pub mod bounds;
pub mod ca;
pub mod coreset;
pub mod grouping;
mod pgrid;
pub mod refine;
pub mod sa;

pub use bounds::{ca_error_bound, sa_error_bound};
pub use ca::{ca, CaConfig};
pub use coreset::{coreset, coreset_points, CoresetConfig};
pub use grouping::{greedy_hilbert_groups, partition_providers, ProviderGroup};
pub use refine::{RefineMethod, RefineProvider};
pub use sa::{sa, SaConfig};

use cca_geo::Point;
use cca_storage::QueryContext;

use crate::exact::{ida, memory_tree, RtreeSource};
use crate::matching::Matching;
use crate::stats::AlgoStats;

/// The concise matching of CA and the coreset tier: IDA between the
/// providers and weighted customers `(position, weight)` held in memory,
/// read through a [`memory_tree`]. It charges no I/O, but the driver and the
/// engine poll `ctx`, so a deadline or cancellation stops the CPU-bound
/// solve with a feasible partial matching.
fn concise_ida(
    providers: &[(Point, u32)],
    customers: &[(Point, u32)],
    ctx: Option<&QueryContext>,
) -> (Matching, AlgoStats) {
    let tree = memory_tree(customers.iter().map(|&(pos, _)| pos));
    let weights = customers.iter().map(|&(_, w)| w).collect();
    let positions = providers.iter().map(|&(pos, _)| pos).collect();
    ida(
        providers,
        &mut RtreeSource::in_memory(&tree, positions, 1, weights, ctx),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use cca_geo::Point;
    use cca_testutil::{build_tree, gamma, optimal_cost, random_instance};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn sa_produces_valid_matchings_within_bound() {
        for seed in [10, 11, 12, 13] {
            let (providers, customers) = random_instance(seed, 12, 80, 6);
            let tree = build_tree(&customers);
            let opt = optimal_cost(&providers, &customers);
            let g = gamma(&providers, &customers);
            for method in [RefineMethod::NnBased, RefineMethod::ExclusiveNn] {
                for delta in [20.0, 80.0] {
                    let (m, _) = sa(
                        &providers,
                        &tree,
                        &SaConfig {
                            delta,
                            refine: method,
                        },
                        None,
                    );
                    m.validate_unit(&providers, &customers).unwrap();
                    let err = m.cost() - opt;
                    assert!(err >= -1e-6, "approximation cannot beat the optimum");
                    assert!(
                        err <= sa_error_bound(g, delta) + 1e-6,
                        "seed {seed} δ={delta}: err {err} > bound {}",
                        sa_error_bound(g, delta)
                    );
                }
            }
        }
    }

    #[test]
    fn ca_produces_valid_matchings_within_bound() {
        for seed in [20, 21, 22, 23] {
            let (providers, customers) = random_instance(seed, 10, 120, 8);
            let tree = build_tree(&customers);
            let opt = optimal_cost(&providers, &customers);
            let g = gamma(&providers, &customers);
            for method in [RefineMethod::NnBased, RefineMethod::ExclusiveNn] {
                for delta in [15.0, 60.0] {
                    let (m, _) = ca(
                        &providers,
                        &tree,
                        &CaConfig {
                            delta,
                            refine: method,
                        },
                        None,
                    );
                    m.validate_unit(&providers, &customers).unwrap();
                    let err = m.cost() - opt;
                    assert!(err >= -1e-6);
                    assert!(
                        err <= ca_error_bound(g, delta) + 1e-6,
                        "seed {seed} δ={delta}: err {err} > bound {}",
                        ca_error_bound(g, delta)
                    );
                }
            }
        }
    }

    #[test]
    fn tiny_delta_approaches_the_optimum() {
        let (providers, customers) = random_instance(30, 8, 60, 5);
        let tree = build_tree(&customers);
        let opt = optimal_cost(&providers, &customers);
        // δ → 0 makes every group a singleton: SA degenerates to exact CCA.
        let (m, _) = sa(
            &providers,
            &tree,
            &SaConfig {
                delta: 1e-9,
                refine: RefineMethod::NnBased,
            },
            None,
        );
        assert!(
            (m.cost() - opt).abs() < 1e-6,
            "singleton SA {} vs optimal {opt}",
            m.cost()
        );
        // CA with tiny δ: groups may still contain exactly coincident
        // points; quality must be essentially optimal on generic data.
        let (m, _) = ca(
            &providers,
            &tree,
            &CaConfig {
                delta: 1e-9,
                refine: RefineMethod::NnBased,
            },
            None,
        );
        assert!(
            (m.cost() - opt).abs() < 1e-6,
            "singleton CA {} vs {opt}",
            m.cost()
        );
    }

    #[test]
    fn quality_degrades_monotonically_on_average() {
        // Not a per-instance theorem, but across a batch the mean quality
        // ratio at δ=150 must not beat the mean ratio at δ=15.
        let mut small_sum = 0.0;
        let mut large_sum = 0.0;
        for seed in 40..45 {
            let (providers, customers) = random_instance(seed, 10, 100, 6);
            let tree = build_tree(&customers);
            let opt = optimal_cost(&providers, &customers);
            let (m_small, _) = ca(
                &providers,
                &tree,
                &CaConfig {
                    delta: 15.0,
                    refine: RefineMethod::NnBased,
                },
                None,
            );
            let (m_large, _) = ca(
                &providers,
                &tree,
                &CaConfig {
                    delta: 150.0,
                    refine: RefineMethod::NnBased,
                },
                None,
            );
            small_sum += m_small.cost() / opt;
            large_sum += m_large.cost() / opt;
        }
        assert!(
            small_sum <= large_sum + 1e-9,
            "mean quality: δ=15 {small_sum} vs δ=150 {large_sum}"
        );
    }

    #[test]
    fn surplus_capacity_and_surplus_customers() {
        // Σk > |P| and Σk < |P| both produce full-size valid matchings.
        for (nq, np, cap) in [(20, 30, 5), (3, 90, 4)] {
            let (providers, customers) = random_instance(50, nq, np, cap);
            let tree = build_tree(&customers);
            for method in [RefineMethod::NnBased, RefineMethod::ExclusiveNn] {
                let (m, _) = sa(
                    &providers,
                    &tree,
                    &SaConfig {
                        delta: 50.0,
                        refine: method,
                    },
                    None,
                );
                m.validate_unit(&providers, &customers).unwrap();
                let (m, _) = ca(
                    &providers,
                    &tree,
                    &CaConfig {
                        delta: 25.0,
                        refine: method,
                    },
                    None,
                );
                m.validate_unit(&providers, &customers).unwrap();
            }
        }
    }

    #[test]
    fn clustered_data_respects_bounds_too() {
        // Clustered (duplicate-heavy) data stresses the grouping phases.
        let mut rng = StdRng::seed_from_u64(60);
        let mut customers = Vec::new();
        for _ in 0..5 {
            let cx = rng.random_range(100.0..900.0);
            let cy = rng.random_range(100.0..900.0);
            for _ in 0..30 {
                customers.push(Point::new(
                    cx + rng.random_range(-5.0..5.0),
                    cy + rng.random_range(-5.0..5.0),
                ));
            }
        }
        let providers: Vec<(Point, u32)> = (0..8)
            .map(|_| {
                (
                    Point::new(rng.random_range(0.0..1000.0), rng.random_range(0.0..1000.0)),
                    20,
                )
            })
            .collect();
        let tree = build_tree(&customers);
        let opt = optimal_cost(&providers, &customers);
        let g = gamma(&providers, &customers);
        let (m, _) = ca(
            &providers,
            &tree,
            &CaConfig {
                delta: 12.0,
                refine: RefineMethod::ExclusiveNn,
            },
            None,
        );
        m.validate_unit(&providers, &customers).unwrap();
        assert!(m.cost() - opt <= ca_error_bound(g, 12.0) + 1e-6);
    }
}
