//! Shared test scaffolding for the CCA workspace.
//!
//! The exact-algorithm tests, approximation tests and adversarial suites
//! all need the same four ingredients: a seeded random instance, an R-tree
//! over its customers, the independent Hungarian optimum, and `γ`. They
//! used to be copy-pasted per module; this crate is the single home.

#![forbid(unsafe_code)]

use cca_flow::sspa::FlowProvider;
use cca_flow::validate::hungarian_optimal_cost;
use cca_geo::Point;
use cca_rtree::RTree;
use cca_storage::PageStore;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Uniformly random points in the `[0, 1000)²` world.
pub fn random_points(n: usize, seed: u64) -> Vec<Point> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| Point::new(rng.random_range(0.0..1000.0), rng.random_range(0.0..1000.0)))
        .collect()
}

/// A seeded random instance: `nq` providers with capacities in
/// `1..=max_cap`, `np` unit customers, all uniform in the world square.
pub fn random_instance(
    seed: u64,
    nq: usize,
    np: usize,
    max_cap: u32,
) -> (Vec<(Point, u32)>, Vec<Point>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let providers: Vec<(Point, u32)> = (0..nq)
        .map(|_| {
            (
                Point::new(rng.random_range(0.0..1000.0), rng.random_range(0.0..1000.0)),
                rng.random_range(1..=max_cap),
            )
        })
        .collect();
    let customers: Vec<Point> = (0..np)
        .map(|_| Point::new(rng.random_range(0.0..1000.0), rng.random_range(0.0..1000.0)))
        .collect();
    (providers, customers)
}

/// The optimal assignment cost per the Hungarian oracle (the oracle every
/// algorithm is checked against). It shares no code with the flow kernel
/// (`cca_flow::residual`) that RIA, NIA, IDA and `Sspa` all run on, so no
/// solver is ever checked against itself.
pub fn optimal_cost(providers: &[(Point, u32)], customers: &[Point]) -> f64 {
    let fps: Vec<FlowProvider> = providers
        .iter()
        .map(|&(pos, cap)| FlowProvider { pos, cap })
        .collect();
    hungarian_optimal_cost(&fps, customers)
}

/// Bulk-loads customers into an R-tree with the test-default storage
/// settings (1 KB pages, generous buffer).
pub fn build_tree(customers: &[Point]) -> RTree {
    let items: Vec<(Point, u64)> = customers
        .iter()
        .enumerate()
        .map(|(i, &p)| (p, i as u64))
        .collect();
    let tree = RTree::bulk_load(PageStore::with_config(1024, 4096), &items);
    tree.finish_build(1.0);
    tree
}

/// `γ = min(|P|, Σ q.k)` — the size every maximal matching must reach.
pub fn gamma(providers: &[(Point, u32)], customers: &[Point]) -> u64 {
    let cap: u64 = providers.iter().map(|&(_, k)| u64::from(k)).sum();
    cap.min(customers.len() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn instance_shapes_and_determinism() {
        let (q, p) = random_instance(9, 4, 30, 5);
        assert_eq!(q.len(), 4);
        assert_eq!(p.len(), 30);
        assert!(q.iter().all(|&(_, k)| (1..=5).contains(&k)));
        assert_eq!(random_instance(9, 4, 30, 5), (q.clone(), p.clone()));
        assert_eq!(
            gamma(&q, &p),
            q.iter().map(|&(_, k)| u64::from(k)).sum::<u64>().min(30)
        );
        let tree = build_tree(&p);
        assert_eq!(tree.len(), 30);
        assert!(optimal_cost(&q, &p) > 0.0);
    }
}
