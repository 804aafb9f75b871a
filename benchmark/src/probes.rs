//! Unit-cost probes of the three layers below `Solver::run`.
//!
//! The program cannot be opened from outside below a solver call, so the
//! traced run reports `cca-flow`, `cca-rtree` and `cca-storage` as exact
//! per-request counts (from `AlgoStats`/`IoStats`) plus the unit costs
//! measured here by calling their public functions directly on the
//! workload's own data. Count × unit cost is an *estimate* of a layer's
//! share until in-program spans exist.

use std::hint::black_box;
use std::time::Instant;

use cca::geo::Point;
use cca::rtree::RTree;
use cca::storage::{PageId, PageStore};
use cca::{Problem, SolverConfig, SolverRegistry};

use crate::stats::median;

const REPS: usize = 3;
const KNN_K: usize = 64;
const FLOW_PROBE_CUSTOMERS: usize = 800;
const HIT_READS: usize = 200_000;

fn items(customers: &[Point]) -> Vec<(Point, u64)> {
    customers
        .iter()
        .enumerate()
        .map(|(i, &p)| (p, i as u64))
        .collect()
}

/// A resident (never evicting) tree over `customers`, as the workloads'
/// `build_with_storage_sharded` makes before it shrinks the buffer.
fn load(customers: &[(Point, u64)]) -> RTree {
    RTree::bulk_load(PageStore::with_config_sharded(1024, 1 << 14, 1), customers)
}

pub struct RtreeProbe {
    pub bulk_load_ms: f64,
    pub knn_us: f64,
    pub pages_per_knn: f64,
    pub insert_us: f64,
    pub delete_us: f64,
}

/// Bulk load of `customers`, `knn(q, 64)` from every query point, and —
/// when `fresh` is non-empty — insertion then deletion of `fresh` on that
/// scratch tree.
pub fn rtree(customers: &[Point], queries: &[Point], fresh: &[Point]) -> RtreeProbe {
    let items = items(customers);
    let mut loads = Vec::new();
    // The first load is an untimed warm-up: it pays the allocator's page-ins.
    let mut tree = load(&items);
    for _ in 0..REPS {
        let t0 = Instant::now();
        tree = load(&items);
        loads.push(t0.elapsed().as_secs_f64() * 1e3);
    }

    let before = tree.io_stats();
    let mut knn = Vec::new();
    for _ in 0..REPS {
        for &q in queries {
            let t0 = Instant::now();
            black_box(tree.knn(black_box(q), KNN_K));
            knn.push(t0.elapsed().as_secs_f64() * 1e6);
        }
    }
    let pages = tree.io_stats().since(&before).logical_reads();

    let base = customers.len() as u64;
    let per_op = |elapsed: f64| match fresh.len() {
        0 => 0.0,
        n => elapsed * 1e6 / n as f64,
    };
    let t0 = Instant::now();
    for (i, &p) in fresh.iter().enumerate() {
        tree.insert(p, base + i as u64);
    }
    let insert_us = per_op(t0.elapsed().as_secs_f64());
    let t0 = Instant::now();
    for (i, &p) in fresh.iter().enumerate() {
        assert!(
            tree.delete(p, base + i as u64),
            "probe deletes what it inserted"
        );
    }
    let delete_us = per_op(t0.elapsed().as_secs_f64());

    RtreeProbe {
        bulk_load_ms: median(&loads),
        knn_us: median(&knn),
        pages_per_knn: pages as f64 / (REPS * queries.len()).max(1) as f64,
        insert_us,
        delete_us,
    }
}

pub struct StorageProbe {
    pub hit_read_ns: f64,
    pub fault_read_ns: f64,
}

/// `PageStore::with_page` on a resident page, and on every page right
/// after `clear_cache` (each read faults), over a tree of `customers`.
pub fn storage(customers: &[Point]) -> StorageProbe {
    let tree = load(&items(customers));
    let store = tree.store();
    let read = |id: u32| store.with_page(PageId(id), |bytes| black_box(bytes[0]));
    let pages = store.num_pages() as u32;

    let mut faults = Vec::new();
    for _ in 0..REPS {
        store.clear_cache();
        let t0 = Instant::now();
        for id in 0..pages {
            read(id);
        }
        faults.push(t0.elapsed().as_secs_f64() * 1e9 / f64::from(pages.max(1)));
    }

    let mut hits = Vec::new();
    for _ in 0..REPS {
        let t0 = Instant::now();
        for i in 0..HIT_READS {
            read(i as u32 % pages);
        }
        hits.push(t0.elapsed().as_secs_f64() * 1e9 / HIT_READS as f64);
    }

    StorageProbe {
        hit_read_ns: median(&hits),
        fault_read_ns: median(&faults),
    }
}

pub struct FlowProbe {
    pub sspa_probe_ms: f64,
    pub settled_per_s: f64,
}

/// Cold registry `sspa` over the first 800 customers held in memory (pure
/// `cca-flow`: graph build + successive shortest paths), and the Dijkstra
/// settle rate of registry `ida` over the same in-memory problem — the
/// unit cost that turns `flow.settled_per_req` into an estimated share.
pub fn flow(providers: &[(Point, u32)], customers: &[Point]) -> FlowProbe {
    let subset = &customers[..customers.len().min(FLOW_PROBE_CUSTOMERS)];
    let problem = Problem::new(providers).with_customers(subset);
    let registry = SolverRegistry::with_defaults();
    let build = |name: &str| {
        registry
            .build(&SolverConfig::new(name))
            .expect("sspa and ida are registered")
    };
    let (sspa, ida) = (build("sspa"), build("ida"));

    let (mut sspa_ms, mut rates) = (Vec::new(), Vec::new());
    for _ in 0..REPS {
        let t0 = Instant::now();
        black_box(sspa.run(&problem));
        sspa_ms.push(t0.elapsed().as_secs_f64() * 1e3);

        let t0 = Instant::now();
        let outcome = ida.run(&problem);
        let secs = t0.elapsed().as_secs_f64();
        rates.push(outcome.stats().settled as f64 / secs);
    }
    FlowProbe {
        sspa_probe_ms: median(&sspa_ms),
        settled_per_s: median(&rates),
    }
}
