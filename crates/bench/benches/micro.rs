//! Criterion microbenchmarks for the substrate components: R-tree
//! operations, flow-graph shortest paths, Hilbert ordering and the
//! refinement heuristics. These guard the constants behind the figure-level
//! experiments.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use std::hint::black_box;

use cca::core::approx::refine::{exclusive_nn, nn_based, RefineProvider};
use cca::flow::{unit_customers, DijkstraState, FlowGraph, FlowProvider, Sspa};
use cca::geo::{hilbert, Point};
use cca::rtree::RTree;
use cca::storage::PageStore;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn random_points(n: usize, seed: u64) -> Vec<Point> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| Point::new(rng.random_range(0.0..1000.0), rng.random_range(0.0..1000.0)))
        .collect()
}

fn items(n: usize, seed: u64) -> Vec<(Point, u64)> {
    random_points(n, seed)
        .into_iter()
        .enumerate()
        .map(|(i, p)| (p, i as u64))
        .collect()
}

fn bench_rtree(c: &mut Criterion) {
    let mut g = c.benchmark_group("rtree");
    for n in [1_000usize, 10_000] {
        let data = items(n, 1);
        g.bench_with_input(BenchmarkId::new("bulk_load", n), &data, |b, data| {
            b.iter_batched(
                || PageStore::with_config(1024, 4096),
                |store| black_box(RTree::bulk_load(store, data)),
                BatchSize::LargeInput,
            );
        });

        let tree = RTree::bulk_load(PageStore::with_config(1024, 8192), &data);
        g.bench_with_input(BenchmarkId::new("range_r50", n), &tree, |b, tree| {
            b.iter(|| black_box(tree.range_search(Point::new(500.0, 500.0), 50.0, None)));
        });
        g.bench_with_input(BenchmarkId::new("knn_100", n), &tree, |b, tree| {
            b.iter(|| black_box(tree.knn(Point::new(500.0, 500.0), 100)));
        });
        g.bench_with_input(BenchmarkId::new("inc_nn_500", n), &tree, |b, tree| {
            b.iter(|| {
                let mut cur = tree.inc_nn(Point::new(250.0, 750.0), None);
                for _ in 0..500 {
                    black_box(cur.next());
                }
            });
        });
    }
    g.finish();
}

fn bench_flow(c: &mut Criterion) {
    let mut g = c.benchmark_group("flow");
    // Dijkstra over a pre-built sparse residual graph.
    let mut graph = FlowGraph::with_nodes(2002);
    let mut rng = StdRng::seed_from_u64(2);
    for u in 0..2000u32 {
        for _ in 0..5 {
            let v = rng.random_range(0..2000u32);
            graph.add_edge(u + 2, v + 2, 1, rng.random_range(0.1..100.0));
        }
    }
    for u in 0..64u32 {
        graph.add_edge(0, u + 2, 4, 0.0);
        graph.add_edge(2000 - u, 1, 4, 0.0);
    }
    g.bench_function("dijkstra_10k_arcs", |b| {
        let mut dij = DijkstraState::new();
        b.iter(|| {
            dij.init(&graph, 0);
            black_box(
                dij.run_until(&graph, 1, None)
                    .expect("no context, no abort"),
            );
        });
    });

    // Full SSPA on a small CCA instance (the Figure 8 baseline's kernel).
    let providers: Vec<FlowProvider> = random_points(20, 3)
        .into_iter()
        .map(|pos| FlowProvider { pos, cap: 5 })
        .collect();
    let customers = unit_customers(&random_points(200, 4));
    g.bench_function("sspa_20x200", |b| {
        b.iter(|| {
            black_box(
                Sspa::default()
                    .solve(&providers, &customers)
                    .expect("no context, no abort"),
            )
        });
    });
    g.finish();
}

fn bench_hilbert(c: &mut Criterion) {
    let mut g = c.benchmark_group("hilbert");
    g.bench_function("xy_to_d", |b| {
        b.iter(|| black_box(hilbert::xy_to_d(black_box(12345), black_box(54321))));
    });
    let pts = random_points(10_000, 5);
    g.bench_function("sort_10k_points", |b| {
        b.iter(|| black_box(hilbert::sort_by_hilbert(&pts, 1000.0)));
    });
    g.finish();
}

fn bench_refine(c: &mut Criterion) {
    let mut g = c.benchmark_group("refine");
    let providers: Vec<RefineProvider> = random_points(10, 6)
        .into_iter()
        .enumerate()
        .map(|(i, pos)| RefineProvider {
            original: i,
            pos,
            quota: 40,
        })
        .collect();
    let customers: Vec<(Point, u64)> = random_points(400, 7)
        .into_iter()
        .enumerate()
        .map(|(i, p)| (p, i as u64))
        .collect();
    g.bench_function("nn_based_10x400", |b| {
        b.iter(|| black_box(nn_based(&providers, &customers)));
    });
    g.bench_function("exclusive_nn_10x400", |b| {
        b.iter(|| black_box(exclusive_nn(&providers, &customers)));
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_rtree, bench_flow, bench_hilbert, bench_refine
}
criterion_main!(benches);
