//! Adversarial and degenerate-geometry tests for the exact algorithms:
//! ties, duplicates, zero distances and skewed layouts are where
//! floating-point pruning bounds and heap orderings typically break.

use cca_core::exact::{ida, memory_tree, nia, ria, RiaConfig, RtreeSource};
use cca_geo::Point;
use cca_testutil::{build_tree as tree_of, optimal_cost as oracle};

fn check_all(providers: &[(Point, u32)], customers: &[Point], label: &str) {
    let want = oracle(providers, customers);
    let tree = tree_of(customers);
    let qpos: Vec<Point> = providers.iter().map(|&(p, _)| p).collect();

    let mut src = RtreeSource::new(&tree, qpos.clone(), None);
    let (m, _) = ida(providers, &mut src);
    m.validate_unit(providers, customers)
        .unwrap_or_else(|e| panic!("{label}/IDA: {e}"));
    assert!(
        (m.cost() - want).abs() < 1e-6,
        "{label}/IDA: {} vs {want}",
        m.cost()
    );

    let mut src = RtreeSource::new(&tree, qpos.clone(), None);
    let (m, _) = nia(providers, &mut src);
    assert!(
        (m.cost() - want).abs() < 1e-6,
        "{label}/NIA: {} vs {want}",
        m.cost()
    );

    let mut src = RtreeSource::new(&tree, qpos.clone(), None);
    let (m, _) = ria(providers, &mut src, &RiaConfig { theta: 7.0 });
    assert!(
        (m.cost() - want).abs() < 1e-6,
        "{label}/RIA: {} vs {want}",
        m.cost()
    );
}

#[test]
fn all_points_identical() {
    // Every distance is zero; any maximal matching is optimal, but sizes
    // and capacities must still be exact.
    let providers = vec![(Point::new(5.0, 5.0), 3), (Point::new(5.0, 5.0), 2)];
    let customers = vec![Point::new(5.0, 5.0); 8];
    check_all(&providers, &customers, "identical");
}

#[test]
fn providers_on_top_of_customers() {
    let customers: Vec<Point> = (0..10).map(|i| Point::new(i as f64 * 10.0, 0.0)).collect();
    let providers: Vec<(Point, u32)> = customers.iter().take(3).map(|&p| (p, 2)).collect();
    check_all(&providers, &customers, "on-top");
}

#[test]
fn collinear_equidistant_ties() {
    // Customers symmetric around each provider: massive distance ties.
    let providers = vec![(Point::new(100.0, 0.0), 2), (Point::new(200.0, 0.0), 2)];
    let customers = vec![
        Point::new(90.0, 0.0),
        Point::new(110.0, 0.0),
        Point::new(190.0, 0.0),
        Point::new(210.0, 0.0),
        Point::new(150.0, 0.0), // exactly between the providers
    ];
    check_all(&providers, &customers, "ties");
}

#[test]
fn grid_with_exact_ties_everywhere() {
    let mut customers = Vec::new();
    for x in 0..6 {
        for y in 0..6 {
            customers.push(Point::new(x as f64 * 10.0, y as f64 * 10.0));
        }
    }
    let providers = vec![(Point::new(15.0, 15.0), 10), (Point::new(35.0, 35.0), 10)];
    check_all(&providers, &customers, "grid");
}

#[test]
fn single_customer_many_providers() {
    let providers: Vec<(Point, u32)> = (0..6)
        .map(|i| (Point::new(i as f64 * 50.0, 10.0), 4))
        .collect();
    let customers = vec![Point::new(130.0, 10.0)];
    check_all(&providers, &customers, "single-customer");
}

#[test]
fn unit_capacity_assignment_problem() {
    // Classic one-to-one assignment with distractors.
    let providers: Vec<(Point, u32)> = (0..8)
        .map(|i| (Point::new(i as f64 * 13.0, (i % 3) as f64 * 7.0), 1))
        .collect();
    let customers: Vec<Point> = (0..8)
        .map(|i| Point::new(i as f64 * 11.0 + 3.0, ((i + 1) % 4) as f64 * 5.0))
        .collect();
    check_all(&providers, &customers, "one-to-one");
}

#[test]
fn extreme_capacity_skew() {
    // One mega-provider and several tiny ones.
    let providers = vec![
        (Point::new(500.0, 500.0), 50),
        (Point::new(100.0, 100.0), 1),
        (Point::new(900.0, 900.0), 1),
    ];
    let customers: Vec<Point> = (0..40)
        .map(|i| Point::new((i % 8) as f64 * 120.0 + 20.0, (i / 8) as f64 * 180.0 + 30.0))
        .collect();
    check_all(&providers, &customers, "skew");
}

#[test]
fn duplicate_customer_blocks() {
    // Blocks of identical customers larger than any single capacity.
    let mut customers = Vec::new();
    for _ in 0..12 {
        customers.push(Point::new(10.0, 10.0));
    }
    for _ in 0..12 {
        customers.push(Point::new(400.0, 400.0));
    }
    let providers = vec![(Point::new(0.0, 0.0), 8), (Point::new(410.0, 410.0), 8)];
    check_all(&providers, &customers, "dup-blocks");
}

#[test]
fn far_corner_provider_must_reach_across_world() {
    // A provider in a far corner with large capacity must win distant
    // customers; exercises long shortest paths and large τmax.
    let mut customers: Vec<Point> = (0..30)
        .map(|i| Point::new(50.0 + (i % 6) as f64 * 8.0, 50.0 + (i / 6) as f64 * 8.0))
        .collect();
    customers.push(Point::new(990.0, 990.0));
    let providers = vec![
        (Point::new(60.0, 60.0), 5),
        (Point::new(1000.0, 1000.0), 26),
    ];
    check_all(&providers, &customers, "far-corner");
}

#[test]
fn memory_source_agrees_with_rtree_source_on_ties() {
    let providers = vec![(Point::new(50.0, 50.0), 3), (Point::new(60.0, 50.0), 3)];
    let customers = vec![
        Point::new(55.0, 50.0),
        Point::new(55.0, 50.0),
        Point::new(55.0, 50.0),
        Point::new(45.0, 50.0),
        Point::new(65.0, 50.0),
    ];
    let want = oracle(&providers, &customers);
    let tree = tree_of(&customers);
    let qpos: Vec<Point> = providers.iter().map(|&(p, _)| p).collect();
    let mut rt = RtreeSource::new(&tree, qpos.clone(), None);
    let (m1, _) = ida(&providers, &mut rt);
    let mem_tree = memory_tree(customers.iter().copied());
    let mut mem = RtreeSource::in_memory(&mem_tree, qpos, 1, Vec::new(), None);
    let (m2, _) = ida(&providers, &mut mem);
    assert!((m1.cost() - want).abs() < 1e-6);
    assert!((m2.cost() - want).abs() < 1e-6);
}

#[test]
fn ida_never_explores_more_than_nia() {
    // Library-level shape invariant behind Figure 9.
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(33);
    for trial in 0..5 {
        let providers: Vec<(Point, u32)> = (0..10)
            .map(|_| {
                (
                    Point::new(rng.random_range(0.0..1000.0), rng.random_range(0.0..1000.0)),
                    rng.random_range(2..8),
                )
            })
            .collect();
        let customers: Vec<Point> = (0..300)
            .map(|_| Point::new(rng.random_range(0.0..1000.0), rng.random_range(0.0..1000.0)))
            .collect();
        let tree = tree_of(&customers);
        let qpos: Vec<Point> = providers.iter().map(|&(p, _)| p).collect();
        let mut s1 = RtreeSource::new(&tree, qpos.clone(), None);
        let (_, ida_stats) = ida(&providers, &mut s1);
        let mut s2 = RtreeSource::new(&tree, qpos.clone(), None);
        let (_, nia_stats) = nia(&providers, &mut s2);
        assert!(
            ida_stats.esub_edges <= nia_stats.esub_edges,
            "trial {trial}: IDA {} > NIA {}",
            ida_stats.esub_edges,
            nia_stats.esub_edges
        );
    }
}
