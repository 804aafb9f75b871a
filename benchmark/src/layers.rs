//! Per-layer metrics shared by the workloads: program-made counts read
//! through public API, span-derived timings, and the probe results.

use cca::core::AlgoStats;

use crate::probes::{FlowProbe, RtreeProbe, StorageProbe};
use crate::report::Report;
use crate::stats::median;
use crate::trace::SpanTimes;

/// `cca-net` metrics; zero on workloads that never touch the wire.
pub const NET: &[&str] = &[
    "net.req_encode_us",
    "net.req_decode_us",
    "net.resp_encode_us",
    "net.resp_decode_us",
    "net.frame_io_us",
    "net.gateway_self_us",
    "net.ping_rtt_us",
    "net.req_bytes",
    "net.resp_bytes",
    "net.share_pct",
];

/// `cca-serve` metrics; zero on workloads that call the library directly.
pub const SERVE: &[&str] = &[
    "serve.submit_us",
    "serve.queue_wait_us",
    "serve.wake_us",
    "serve.rejected",
    "serve.tenant_share",
    "serve.tenant_mean_latency_ms",
];

/// The dynamic engine's metrics; zero on one-shot solve workloads.
pub const DYNAMIC: &[&str] = &[
    "core.dyn_build_s",
    "core.dyn_local_event_us",
    "core.dyn_full_resolve_ms",
    "core.dyn_local_repairs",
    "core.dyn_expansions",
    "core.dyn_full_resolves",
    "core.dyn_evicted",
];

/// Solve-count metrics `AlgoStats` feeds; the dynamic engine exposes no
/// `AlgoStats`, so they are zero there.
pub const ALGO: &[&str] = &[
    "core.esub_edges_per_req",
    "core.dijkstra_runs_per_req",
    "core.augment_per_dijkstra",
    "flow.settled_per_req",
];

/// The solvers with a `core.<name>_ms` metric and the span that times
/// their `Solver::run`.
const SOLVE_SPANS: [(&str, &str, &str); 5] = [
    ("ida", "core.solve.ida", "core.ida_ms"),
    ("nia", "core.solve.nia", "core.nia_ms"),
    ("ca", "core.solve.ca", "core.ca_ms"),
    ("sa", "core.solve.sa", "core.sa_ms"),
    ("sspa", "core.solve.sspa", "core.sspa_ms"),
];

/// The span name for a solve by registry solver `name`.
pub fn solve_span(name: &str) -> &'static str {
    SOLVE_SPANS
        .iter()
        .find(|(solver, ..)| *solver == name)
        .map(|&(_, span, _)| span)
        .expect("every workload solver has a span name")
}

/// Total time under any solve span, ns.
pub fn solve_total_ns(times: &SpanTimes) -> f64 {
    SOLVE_SPANS.iter().map(|(_, s, _)| times.total_sum(s)).sum()
}

/// `core.<solver>_ms`: p50 of the span around each solver's run (0 for a
/// solver the workload does not use).
pub fn set_solver_times(report: &mut Report, times: &SpanTimes) {
    for (_, span, metric) in SOLVE_SPANS {
        report.set(metric, median(times.total_of(span)) / 1e6);
    }
}

/// Exact program-made counts over a fixed, seed-determined set of
/// requests (a workload's first full cycle), so they repeat exactly.
#[derive(Default)]
pub struct Counts {
    pub requests: u64,
    /// Summed `AlgoStats` of the counted requests (`io` included).
    pub algo: AlgoStats,
}

impl Counts {
    fn accumulate(&mut self, stats: &AlgoStats) {
        self.algo.esub_edges += stats.esub_edges;
        self.algo.dijkstra_runs += stats.dijkstra_runs;
        self.algo.iterations += stats.iterations;
        self.algo.settled += stats.settled;
        self.algo.io = self.algo.io + stats.io;
    }

    pub fn add(&mut self, stats: &AlgoStats) {
        self.requests += 1;
        self.accumulate(stats);
    }

    pub fn merge(&mut self, other: &Counts) {
        self.requests += other.requests;
        self.accumulate(&other.algo);
    }

    fn per_req(&self, count: u64) -> f64 {
        count as f64 / self.requests.max(1) as f64
    }

    pub fn set_algo(&self, report: &mut Report) {
        report.set(
            "core.esub_edges_per_req",
            self.per_req(self.algo.esub_edges),
        );
        report.set(
            "core.dijkstra_runs_per_req",
            self.per_req(self.algo.dijkstra_runs),
        );
        // Useful outcomes per attempt: augmentations per Dijkstra run (0
        // for solvers that report no Dijkstra runs, e.g. `sspa`).
        let runs = self.algo.dijkstra_runs;
        report.set(
            "core.augment_per_dijkstra",
            if runs == 0 {
                0.0
            } else {
                self.algo.iterations as f64 / runs as f64
            },
        );
        report.set("flow.settled_per_req", self.per_req(self.algo.settled));
    }

    /// `lock_acqs_per_kread` is the `PageStore::lock_acquisitions` delta
    /// per thousand logical reads, over whatever span of requests the
    /// workload can bracket.
    pub fn set_storage(&self, report: &mut Report, lock_acqs_per_kread: f64) {
        report.set("storage.faults_per_req", self.per_req(self.algo.io.faults));
        report.set("storage.hits_per_req", self.per_req(self.algo.io.hits));
        report.set("storage.writes_per_req", self.per_req(self.algo.io.writes));
        report.set("storage.hit_ratio", self.algo.io.hit_ratio());
        // The paper's I/O charge: 10 ms per attributed fault.
        report.set(
            "storage.charged_io_ms_per_req",
            self.algo.io.charged_io_time_ms() / self.requests.max(1) as f64,
        );
        report.set("storage.lock_acqs_per_kread", lock_acqs_per_kread);
    }
}

pub fn set_probes(report: &mut Report, r: &RtreeProbe, s: &StorageProbe, f: &FlowProbe) {
    report.set("rtree.bulk_load_ms", r.bulk_load_ms);
    report.set("rtree.knn_us", r.knn_us);
    report.set("rtree.pages_per_knn", r.pages_per_knn);
    report.set("rtree.insert_us", r.insert_us);
    report.set("rtree.delete_us", r.delete_us);
    report.set("storage.hit_read_ns", s.hit_read_ns);
    report.set("storage.fault_read_ns", s.fault_read_ns);
    report.set("flow.sspa_probe_ms", f.sspa_probe_ms);
    report.set("flow.settled_per_s", f.settled_per_s);
}

/// By how much the median latency of requests under spans exceeds that of
/// requests without, in percent.
pub fn overhead_pct(untraced_ms: &[f64], traced_ms: &[f64]) -> f64 {
    let plain = median(untraced_ms);
    (median(traced_ms) - plain) / plain * 100.0
}

/// `trace.overhead_pct` and `trace.covered_pct` (share of the root spans'
/// time that lies under a named child span).
pub fn set_trace_quality(report: &mut Report, times: &SpanTimes, overhead_pct: f64) {
    report.set("trace.overhead_pct", overhead_pct);
    let root = times.total_sum("request");
    report.set(
        "trace.covered_pct",
        (root - times.own_sum("request")) / root * 100.0,
    );
}
