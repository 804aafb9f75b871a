//! Hot-path benchmark: the read-path raw-speed levers, measured in
//! isolation and end to end. Cold SSPA is timed by the `flow_core` bench.
//!
//! * `hot_read` — page-*hit* read throughput through the store at 1/2/4/8
//!   threads over a fully resident working set, so the only cost is the
//!   read path itself (one store-mutex acquisition per read). The committed
//!   `"rev": "one-read-path"` rows against the older optimistic-copy rows
//!   are the record of why there is one read path.
//! * `dist_kernel` — the scalar `Point::dist2` loop vs. the batched
//!   struct-of-arrays kernel (`cca_geo::kernel`) the NN traversals use for
//!   leaf expansion, plus the scalar `Rect::mindist2` loop inner nodes are
//!   scored with (its batched rival lost; see the committed `rect_batched`
//!   rows in `BENCH_hotpath.json`).
//! * `hilbert_scan` — a full sequential point scan over the bulk-loaded
//!   tree, whose leaves are placed in Hilbert order; with a small buffer
//!   the fault count shows each page is read exactly once.
//! * `batch` — a single-thread mixed solver batch (IDA variants + CA + SA),
//!   the end-to-end number all levers feed into.
//!
//! Writes `BENCH_hotpath.json` (override with `CCA_BENCH_OUT`). Run with
//! `cargo bench --bench hot_path`; pass `-- --quick` for a smoke run with
//! tiny iteration counts (CI uses this to assert the kernels still run and
//! the JSON stays valid).

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use cca::datagen::{CapacitySpec, SpatialDistribution, WorkloadConfig};
use cca::geo::{kernel, Point, Rect};
use cca::storage::{PageId, PageStore, QueryContext};
use cca::{SolverConfig, SpatialAssignment};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

struct Scale {
    quick: bool,
    /// Page reads per thread in `hot_read`.
    reads_per_thread: usize,
    /// Repetitions of the kernel sweep (each sweep = `KERNEL_N` elements).
    kernel_reps: usize,
    /// Best-of rounds for scan/batch.
    rounds: usize,
}

const KERNEL_N: usize = 4096;

impl Scale {
    fn new(quick: bool) -> Self {
        if quick {
            Scale {
                quick,
                reads_per_thread: 2_000,
                kernel_reps: 20,
                rounds: 1,
            }
        } else {
            Scale {
                quick,
                reads_per_thread: 200_000,
                kernel_reps: 2_000,
                rounds: 5,
            }
        }
    }
}

/// Page-hit reads: every page is resident, so every access is a hit and the
/// only contention is the read path itself. Returns reads/s.
fn hot_read_round(store: &PageStore, pages: &[PageId], threads: usize, reads: usize) -> f64 {
    let start = Instant::now();
    std::thread::scope(|scope| {
        for t in 0..threads {
            scope.spawn(move || {
                let ctx = QueryContext::new();
                let mut rng = StdRng::seed_from_u64(900 + t as u64);
                let mut sum = 0u64;
                for _ in 0..reads {
                    let id = pages[rng.random_range(0..pages.len())];
                    sum += store.with_page_ctx(id, Some(&ctx), |bytes| u64::from(bytes[0]));
                }
                black_box(sum);
            });
        }
    });
    (threads * reads) as f64 / start.elapsed().as_secs_f64()
}

/// Million distance evaluations per second for one kernel variant.
fn kernel_rate(reps: usize, mut sweep: impl FnMut() -> f64) -> f64 {
    let start = Instant::now();
    let mut acc = 0.0;
    for _ in 0..reps {
        acc += sweep();
    }
    black_box(acc);
    (reps * KERNEL_N) as f64 / start.elapsed().as_secs_f64() / 1.0e6
}

fn build_instance() -> Arc<SpatialAssignment> {
    let w = WorkloadConfig {
        num_providers: 24,
        num_customers: 20_000,
        capacity: CapacitySpec::Fixed(100),
        q_dist: SpatialDistribution::Clustered,
        p_dist: SpatialDistribution::Clustered,
        seed: 7,
    }
    .generate();
    Arc::new(SpatialAssignment::build_with_storage(
        w.providers,
        w.customers,
        1024,
        16.0,
    ))
}

/// The mixed batch: IDA variants + CA + SA.
fn batch_queries() -> Vec<SolverConfig> {
    let mut queries = Vec::new();
    for group_size in [4, 8, 16] {
        queries.push(SolverConfig::new("ida-grouped").group_size(group_size));
    }
    for _ in 0..3 {
        queries.push(SolverConfig::new("ida"));
    }
    for delta in [10.0, 20.0] {
        queries.push(SolverConfig::new("ca").delta(delta));
        queries.push(SolverConfig::new("sa").delta(2.0 * delta));
    }
    queries
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let scale = Scale::new(quick);
    let mut rows: Vec<String> = Vec::new();

    // ---- hot_read ---------------------------------------------------
    let store = PageStore::with_config(1024, 4096);
    let pages: Vec<PageId> = (0..1024)
        .map(|i| {
            let id = store.alloc_page();
            store.write_page(id, &vec![(i % 251) as u8; 1024], None);
            id
        })
        .collect();
    // Touch everything once so every page is resident.
    for &id in &pages {
        store.with_page(id, |b| black_box(b[0]));
    }
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    for &threads in &THREAD_COUNTS {
        let qps = hot_read_round(&store, &pages, threads, scale.reads_per_thread);
        println!("hot_read threads={threads}  {qps:12.0} reads/s");
        // More reader threads than host cores measures time-slicing, not
        // parallel scaling — tag those rows for downstream readers.
        let oversub = if threads > host_cores {
            ", \"oversubscribed\": true"
        } else {
            ""
        };
        rows.push(format!(
            "    {{\"workload\": \"hot_read\", \"threads\": {threads}{oversub}, \
             \"reads_per_s\": {qps:.0}}}"
        ));
    }

    // ---- dist_kernel ------------------------------------------------
    let mut rng = StdRng::seed_from_u64(42);
    let pts: Vec<Point> = (0..KERNEL_N)
        .map(|_| Point::new(rng.random_range(0.0..1000.0), rng.random_range(0.0..1000.0)))
        .collect();
    let rects: Vec<Rect> = pts
        .iter()
        .map(|p| {
            Rect::new(
                *p,
                Point::new(
                    p.x + rng.random_range(0.0..50.0),
                    p.y + rng.random_range(0.0..50.0),
                ),
            )
        })
        .collect();
    let q = Point::new(500.0, 500.0);
    let (xs, ys): (Vec<f64>, Vec<f64>) = pts.iter().map(|p| (p.x, p.y)).unzip();
    let mut out = vec![0.0f64; KERNEL_N];

    let variants: Vec<(&str, f64)> = vec![
        (
            "point_scalar",
            kernel_rate(scale.kernel_reps, || pts.iter().map(|p| q.dist2(p)).sum()),
        ),
        ("point_batched", {
            kernel_rate(scale.kernel_reps, || {
                kernel::point_dist2_batch(q.x, q.y, &xs, &ys, &mut out);
                out[KERNEL_N - 1]
            })
        }),
        (
            "rect_scalar",
            kernel_rate(scale.kernel_reps, || {
                rects.iter().map(|r| r.mindist2(&q)).sum()
            }),
        ),
    ];
    for (variant, melems) in &variants {
        println!("dist_kernel {variant:14} {melems:8.1} Melem/s");
        rows.push(format!(
            "    {{\"workload\": \"dist_kernel\", \"variant\": \"{variant}\", \
             \"melems_per_s\": {melems:.1}}}"
        ));
    }

    // ---- hilbert_scan + batch (share the 20k instance) --------------
    let instance = build_instance();
    let tree = instance.tree();
    let mut best_scan_s = f64::INFINITY;
    let mut scan_faults = 0u64;
    for _ in 0..scale.rounds.max(2) {
        tree.store().clear_cache();
        let ctx = QueryContext::new();
        let start = Instant::now();
        let mut n = 0u64;
        tree.for_each_point(&mut |_, _| n += 1, Some(&ctx))
            .expect("no budget, no abort");
        assert_eq!(n, 20_000);
        best_scan_s = best_scan_s.min(start.elapsed().as_secs_f64());
        scan_faults = ctx.stats().faults;
    }
    println!(
        "hilbert_scan {:8.2} ms  faults={scan_faults}",
        best_scan_s * 1e3
    );
    rows.push(format!(
        "    {{\"workload\": \"hilbert_scan\", \"ms\": {:.2}, \"faults\": {scan_faults}}}",
        best_scan_s * 1e3
    ));

    let queries = batch_queries();
    let mut best_batch = 0.0f64;
    for _ in 0..scale.rounds {
        let runner = instance.batch().threads(1);
        let start = Instant::now();
        let report = runner.run(&queries).expect("registered solvers");
        let wall = start.elapsed().as_secs_f64();
        let fault_sum: u64 = report.results.iter().map(|r| r.stats.io.faults).sum();
        assert_eq!(fault_sum, report.io.faults, "per-query faults must sum up");
        best_batch = best_batch.max(queries.len() as f64 / wall);
    }
    println!("batch threads=1  {best_batch:7.2} q/s");
    rows.push(format!(
        "    {{\"workload\": \"batch\", \"threads\": 1, \"qps\": {best_batch:.2}}}"
    ));

    // ---- emit -------------------------------------------------------
    let json = format!(
        "{{\n  \"bench\": \"hot_path\",\n  \"config\": {{\"customers\": 20000, \
         \"providers\": 24, \"page_size\": 1024, \"buffer_percent\": 16.0, \
         \"kernel_n\": {KERNEL_N}, \"quick\": {}, \"host_cores\": {host_cores}}},\n  \
         \"rows\": [\n{}\n  ]\n}}\n",
        scale.quick,
        rows.join(",\n")
    );
    let out = std::env::var("CCA_BENCH_OUT")
        .unwrap_or_else(|_| format!("{}/../../BENCH_hotpath.json", env!("CARGO_MANIFEST_DIR")));
    std::fs::write(&out, &json).expect("write bench output");
    println!("wrote {out}");
}
