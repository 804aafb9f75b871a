//! The paper's evaluation (U et al., SIGMOD 2008, §5, Figures 8–18) as a
//! gated test: each test regenerates one figure's series on the paper's
//! workload protocol, scaled down from Table 2, prints one line per row
//! (visible with `--nocapture`) and fails if a claim of §5 does not hold.
//!
//! * Claims on |Esub|, page faults, cost ratios and charged I/O (faults ×
//!   10 ms, the paper's cost model) run in every build at [`COUNTS`]; a
//!   "total time" claim is asserted there on its charged-I/O term.
//! * Claims on CPU time, and the CPU + I/O form of each total-time claim,
//!   run in release builds only, at [`TIMING`] (`fig08` and the `*_timing`
//!   tests): `cargo test --release --test paper_shapes -- --nocapture`.
//! * Table 2's default point at scale 0.2 (`paper_default`, release builds)
//!   pins |Esub|, faults and cost bits of RIA, NIA, IDA, CA and SA exactly;
//!   at scale 1.0 (`paper_default_full`, ignored, run by hand) it pins IDA
//!   and CA.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, OnceLock};

use cca::core::RefineMethod;
use cca::datagen::{CapacitySpec, SpatialDistribution, WorkloadConfig};
use cca::{SolverConfig, SolverRegistry, SpatialAssignment};

use CapacitySpec::Fixed;
use SpatialDistribution::{Clustered, Uniform};

/// One evaluation setting: the scale relative to Table 2's sizes (the
/// governing ratio `k·|Q|/|P|` is preserved), how many times each data
/// point's run sequence repeats (a row's CPU time is its best run), and
/// whether claims on CPU time are checked.
#[derive(Clone, Copy)]
struct Setting {
    scale: f64,
    runs: usize,
    cpu: bool,
}

/// The count-based claims, in every build.
const COUNTS: Setting = Setting {
    scale: 0.02,
    runs: 1,
    cpu: false,
};

/// The CPU-time claims, in release builds. At 0.02 Figure 8's 5 × 500
/// instance is small enough for SSPA over its complete rows to beat every
/// incremental algorithm at k ≥ 80. IDA and NIA are close at |Q| = 13, so
/// Figure 8 compares them on runs of their own ([`best_cpu_alternating`]).
const TIMING: Setting = Setting {
    scale: 0.05,
    runs: 5,
    cpu: true,
};

/// Buffer floor in pages: the paper's 1 % buffer (≈ 25 pages at
/// |P| = 100 K) holds the R-tree's internal levels; scaled-down trees need
/// an absolute floor to stay in the same caching regime.
const BUFFER_FLOOR_PAGES: usize = 16;

/// The capacities of Figures 8, 9 and 15 (Table 2 range).
const K_RANGE: [u32; 5] = [20, 40, 80, 160, 320];

/// The paper's |Q| values of Figures 10 and 16.
const Q_RANGE: [usize; 5] = [250, 500, 1000, 2500, 5000];

/// The paper's |P| values of Figures 11 and 17.
const P_RANGE: [usize; 5] = [25_000, 50_000, 100_000, 150_000, 200_000];

/// The δ values of Figure 14.
const DELTA_RANGE: [f64; 5] = [10.0, 20.0, 40.0, 80.0, 160.0];

impl Setting {
    /// Scales a paper-sized count.
    fn count(self, paper: usize) -> usize {
        ((paper as f64 * self.scale).round() as usize).max(1)
    }

    /// RIA's θ, tuned for the scale as the paper tuned it for its own
    /// (§5.1 fixes 0.8 at |P| = 100 K; sparser instances need
    /// proportionally wider rings, θ ∝ 1/√density).
    fn theta(self) -> f64 {
        1.6 / self.scale.sqrt()
    }

    /// RIA, NIA and IDA, the exact algorithms of Figures 8–13.
    fn exact_algorithms(self) -> Vec<SolverConfig> {
        let ria = SolverConfig::new("ria").theta(self.theta());
        vec![ria, SolverConfig::new("nia"), SolverConfig::new("ida")]
    }

    /// A "total time" claim's quantity: CPU + charged I/O where CPU time
    /// is checked, else the charged-I/O term alone.
    fn time(self, row: &Row) -> f64 {
        row.io_s + if self.cpu { row.cpu_s } else { 0.0 }
    }

    fn time_label(self) -> &'static str {
        ["charged I/O", "total time"][usize::from(self.cpu)]
    }
}

/// A clustered/clustered workload (Table 2's distributions and seed).
fn workload(num_providers: usize, num_customers: usize, capacity: CapacitySpec) -> WorkloadConfig {
    WorkloadConfig {
        num_providers,
        num_customers,
        capacity,
        q_dist: Clustered,
        p_dist: Clustered,
        seed: 2008,
    }
}

/// The instance with the paper's storage settings (1 KB pages, a buffer of
/// 1 % of the tree) plus the buffer floor.
fn build_instance(cfg: &WorkloadConfig) -> SpatialAssignment {
    let w = cfg.generate();
    let instance = SpatialAssignment::build(w.providers, w.customers);
    let store = instance.tree().store();
    let one_pct = (store.num_pages() as f64 / 100.0).ceil() as usize;
    store.set_buffer_capacity(one_pct.max(BUFFER_FLOOR_PAGES));
    instance
}

/// One measured row: a solver's run on one data point.
#[derive(Clone)]
struct Row {
    /// The solver's label.
    series: String,
    cost: f64,
    esub: u64,
    faults: u64,
    /// CPU time, the best of the setting's runs.
    cpu_s: f64,
    /// Charged I/O time: faults × 10 ms.
    io_s: f64,
}

/// Runs `config` once from a cold buffer cache through the solver table.
fn measure(instance: &SpatialAssignment, config: &SolverConfig) -> Row {
    let registry = SolverRegistry::with_defaults();
    let solver = registry.build(config).expect("a valid solver config");
    let r = instance.run_solver(&solver, None);
    r.validate().expect("every run yields a valid matching");
    Row {
        series: solver.label(),
        cost: r.cost(),
        esub: r.stats.esub_edges,
        faults: r.stats.io.faults,
        cpu_s: r.stats.cpu_time.as_secs_f64(),
        io_s: r.stats.io_time_s(),
    }
}

/// Runs `configs` in order on a fresh instance of `cfg`, the whole sequence
/// `s.runs` times. A cold run carries no history, so each row's matching
/// and faults must repeat on every pass; its CPU time is the best pass's.
/// Figures that share a data point (Table 2's defaults in Figures 9–11 and
/// 15–17) share its rows.
fn run_sequence(s: Setting, cfg: &WorkloadConfig, configs: &[SolverConfig]) -> Arc<Vec<Row>> {
    type Memo = BTreeMap<String, Arc<OnceLock<Arc<Vec<Row>>>>>;
    static MEMO: Mutex<Memo> = Mutex::new(BTreeMap::new());
    let key = format!("{} {cfg:?} {configs:?}", s.runs);
    let cell = Arc::clone(MEMO.lock().unwrap().entry(key).or_default());
    let rows = cell.get_or_init(|| {
        let instance = build_instance(cfg);
        let mut rows: Vec<Row> = configs.iter().map(|c| measure(&instance, c)).collect();
        for _ in 1..s.runs {
            for (row, config) in rows.iter_mut().zip(configs) {
                let again = measure(&instance, config);
                let answer = |r: &Row| (r.cost.to_bits(), r.esub, r.faults);
                assert_eq!(answer(row), answer(&again), "a repeated solve must repeat");
                row.cpu_s = row.cpu_s.min(again.cpu_s);
            }
        }
        Arc::new(rows)
    });
    Arc::clone(rows)
}

/// One figure's rows by x-value (k, |Q|, |P|, δ, distribution combination,
/// …), the exact optimum per x-value for the approximation figures'
/// quality ratios, and the claims checked on them.
#[derive(Default)]
struct Figure {
    rows: Vec<(String, Row)>,
    exact: Vec<(String, f64)>,
    claims: Vec<(String, bool)>,
}

impl Figure {
    fn add(&mut self, x: impl ToString, rows: &[Row]) {
        let x = x.to_string();
        let tagged = rows.iter().map(|r| (x.clone(), r.clone()));
        self.rows.extend(tagged);
    }

    fn get(&self, series: &str, x: impl ToString) -> &Row {
        let x = x.to_string();
        let mut rows = self.rows.iter();
        let found = rows.find(|(rx, r)| r.series == series && *rx == x);
        let missing = || panic!("no {series} row at {x}");
        found.map(|(_, r)| r).unwrap_or_else(missing)
    }

    fn exact_cost(&self, x: &str) -> Option<f64> {
        self.exact.iter().find(|(e, _)| e == x).map(|&(_, c)| c)
    }

    /// The approximation ratio cost / exact optimum of one row.
    fn quality(&self, series: &str, x: impl ToString) -> f64 {
        let x = x.to_string();
        self.get(series, &x).cost / self.exact_cost(&x).expect("an exact reference")
    }

    fn check(&mut self, holds: bool, claim: impl Into<String>) {
        self.claims.push((claim.into(), holds));
    }

    /// Checks each `(series, |Esub|, faults, cost bits)`, recorded on the
    /// "default" data point, exactly.
    fn check_pins(&mut self, pinned: &[(&str, u64, u64, u64)]) {
        for &(series, esub, faults, cost_bits) in pinned {
            let r = self.get(series, "default");
            let got = (r.esub, r.faults, r.cost.to_bits());
            self.check(
                got == (esub, faults, cost_bits),
                format!("{series}: |Esub|, faults, cost bits {got:?} are the pinned values"),
            );
        }
    }

    /// Prints the rows and every claim, then fails on any that does not
    /// hold.
    fn verify(self, title: &str) {
        let mut out = format!("\n{title}\n");
        out += "x        algo       |Esub|         cost  quality  faults    cpu(s)    io(s)\n";
        for (x, r) in &self.rows {
            let ratio = self.exact_cost(x).map(|c| format!("{:.4}", r.cost / c));
            let (quality, series) = (ratio.unwrap_or("-".into()), &r.series);
            let (esub, cost, faults, cpu_s, io_s) = (r.esub, r.cost, r.faults, r.cpu_s, r.io_s);
            out += &format!(
                "{x:<8} {series:<6} {esub:>10} {cost:>12.1} {quality:>8} {faults:>7} {cpu_s:>9.4} {io_s:>8.2}\n"
            );
        }
        for (claim, holds) in &self.claims {
            out += &format!("[{}] {claim}\n", if *holds { "holds" } else { "FAILS" });
        }
        print!("{out}");
        let failed: Vec<&String> = self.claims.iter().filter(|c| !c.1).map(|c| &c.0).collect();
        assert!(failed.is_empty(), "{title}: {failed:#?}");
    }
}

/// The best CPU time of `a` and of `b` over `runs` runs of each on one
/// fresh instance of `cfg`, the two taking turns (and turns at going
/// first), so a stretch of a slow host slows both.
fn best_cpu_alternating(
    cfg: &WorkloadConfig,
    a: &SolverConfig,
    b: &SolverConfig,
    runs: usize,
) -> (f64, f64) {
    let instance = build_instance(cfg);
    let cpu = |c: &SolverConfig| measure(&instance, c).cpu_s;
    let (mut best_a, mut best_b) = (f64::INFINITY, f64::INFINITY);
    for run in 0..runs {
        if run % 2 == 0 {
            best_a = best_a.min(cpu(a));
            best_b = best_b.min(cpu(b));
        } else {
            best_b = best_b.min(cpu(b));
            best_a = best_a.min(cpu(a));
        }
    }
    (best_a, best_b)
}

/// Runs `configs` on a fresh instance of every data point's workload.
fn sweep<X: ToString>(
    s: Setting,
    configs: &[SolverConfig],
    points: impl IntoIterator<Item = (X, WorkloadConfig)>,
) -> Figure {
    let mut f = Figure::default();
    for (x, cfg) in points {
        f.add(x, &run_sequence(s, &cfg, configs));
    }
    f
}

/// Exact IDA, then the approximations at the paper's best trade-off points
/// (§5.3: SA at δ = 40 and CA at δ = 10, each with both refinement
/// heuristics), on every data point; IDA's cost is the point's reference.
fn approximation_sweep<X: ToString>(
    s: Setting,
    points: impl IntoIterator<Item = (X, WorkloadConfig)>,
) -> Figure {
    let mut configs = vec![SolverConfig::new("ida")];
    for refine in [RefineMethod::NnBased, RefineMethod::ExclusiveNn] {
        configs.push(SolverConfig::new("sa").delta(40.0).refine(refine));
        configs.push(SolverConfig::new("ca").delta(10.0).refine(refine));
    }
    let mut f = sweep(s, &configs, points);
    let ida = f.rows.iter().filter(|(_, r)| r.series == "IDA");
    f.exact = ida.map(|(x, r)| (x.clone(), r.cost)).collect();
    f
}

/// The data points of Figures 13 and 18: the four Q/P distribution
/// combinations at k = 80, at half the scale (cross-distribution instances
/// explore an order of magnitude more edges).
fn distribution_points(s: Setting) -> (Setting, Vec<(String, WorkloadConfig)>) {
    let mut half = s;
    half.scale *= 0.5;
    let (nq, np) = (half.count(1000), half.count(100_000));
    let combos = [Uniform, Clustered].map(|q| [Uniform, Clustered].map(|p| (q, p)));
    let points = combos.as_flattened().iter().map(|&(q_dist, p_dist)| {
        let mut cfg = workload(nq, np, Fixed(80));
        (cfg.q_dist, cfg.p_dist) = (q_dist, p_dist);
        (format!("{}vs{}", q_dist.label(), p_dist.label()), cfg)
    });
    (half, points.collect())
}

// ---------------------------------------------------------------------------
// §5.2, exact algorithms (Figures 8–13).

/// Figure 8: CPU time vs k, SSPA vs the incremental algorithms on a
/// memory-resident instance (paper: |Q| = 250, |P| = 25 K). "Our methods
/// are one to three orders of magnitude faster than SSPA" (§5.2). RIA's
/// weakness is I/O, not CPU (§3.2), so the CPU comparison among them is IDA
/// vs NIA, on the best of three alternating runs of each. Every claim is on
/// CPU time, so the figure runs in release only.
#[test]
#[cfg_attr(debug_assertions, ignore = "timing test: run with --release")]
fn fig08() {
    let s = TIMING;
    let (nq, np) = (s.count(250), s.count(25_000));
    let mut configs = vec![SolverConfig::new("sspa")];
    configs.extend(s.exact_algorithms());
    let points = K_RANGE.map(|k| (k, workload(nq, np, Fixed(k))));
    let title = format!("Figure 8: CPU time vs k (|Q| = {nq}, |P| = {np})");
    let mut f = sweep(s, &configs, points.clone());
    let (ida, nia) = (SolverConfig::new("ida"), SolverConfig::new("nia"));
    for (k, cfg) in points {
        let cpu = |series| f.get(series, k).cpu_s;
        let beat = ["RIA", "NIA", "IDA"]
            .into_iter()
            .all(|a| cpu(a) < cpu("SSPA"));
        let (ida_s, nia_s) = best_cpu_alternating(&cfg, &ida, &nia, 3);
        println!("k={k}: IDA {ida_s:.4} s, NIA {nia_s:.4} s (best of 3 alternating runs)");
        let le_nia = ida_s <= nia_s * 1.05;
        f.check(beat, format!("k={k}: RIA, NIA, IDA beat SSPA in CPU time"));
        f.check(le_nia, format!("k={k}: IDA's CPU time is at most NIA's"));
    }
    f.verify(&title);
}

/// Figure 9: |Esub| and total time vs k. All algorithms use a small
/// fragment of the complete bipartite graph, and IDA explores the fewest
/// edges, most clearly while `k·|Q| < |P|` (§5.2).
#[test]
fn fig09() {
    let s = COUNTS;
    let (nq, np) = (s.count(1000), s.count(100_000));
    let points = K_RANGE.map(|k| (k, workload(nq, np, Fixed(k))));
    let title = "Figure 9: |Esub| and total time vs k";
    let mut f = sweep(s, &s.exact_algorithms(), points);
    let full = (nq * np) as u64;
    for k in K_RANGE {
        let esub = |series| f.get(series, k).esub;
        let fragment = esub("RIA") < full && esub("NIA") < full && esub("IDA") < full;
        let fewest = esub("IDA") <= esub("NIA") && esub("IDA") <= esub("RIA");
        f.check(fragment, format!("k={k}: every |Esub| is below |Q|x|P|"));
        f.check(fewest, format!("k={k}: IDA explores <= NIA and RIA edges"));
    }
    let gap = |k| f.get("NIA", k).esub as f64 / f.get("IDA", k).esub as f64;
    let narrows = gap(20) > gap(320);
    f.check(narrows, "IDA/NIA |Esub| gap is larger at k=20 than 320");
    f.verify(title);
}

/// Figure 10: performance vs |Q| at k = 80. IDA prunes no less than NIA,
/// and "the cost of the problem increases with |Q|, but saturates when
/// k·|Q| > |P|" (§5.2): IDA's growth per |Q| step after the crossover
/// (k·|Q| = |P| at |Q| = |P|/80) is below its growth before it.
fn fig10_shapes(s: Setting) {
    let (np, q) = (s.count(100_000), Q_RANGE.map(|q| s.count(q)));
    let points = q.map(|nq| (nq, workload(nq, np, Fixed(80))));
    let title = format!("Figure 10: performance vs |Q| (|P| = {np})");
    let mut f = sweep(s, &s.exact_algorithms(), points);
    for nq in q {
        let prunes = f.get("IDA", nq).esub <= f.get("NIA", nq).esub;
        f.check(prunes, format!("|Q|={nq}: IDA explores <= NIA's edges"));
    }
    let time = |i: usize| s.time(f.get("IDA", q[i]));
    let saturates = time(4) / time(3) < time(2) / time(1);
    let what = s.time_label();
    f.check(saturates, format!("{what} growth slows once k|Q| > |P|"));
    f.verify(&title);
}

/// Figure 11: performance vs |P| at k = 80. "When |P| increases, the
/// complete flow graph grows but the subgraph explored by our algorithms
/// shrinks" (§5.2): more customers mean closer NNs and an easier problem.
#[test]
fn fig11() {
    let s = COUNTS;
    let (nq, p) = (s.count(1000), P_RANGE.map(|p| s.count(p)));
    let points = p.map(|np| (np, workload(nq, np, Fixed(80))));
    let title = format!("Figure 11: performance vs |P| (|Q| = {nq})");
    let mut f = sweep(s, &s.exact_algorithms(), points);
    let crossover = 80 * nq; // Σk = |P|
    let near_crossover = *p.iter().min_by_key(|np| np.abs_diff(crossover)).unwrap();
    let last = p[p.len() - 1];
    let shrinks = f.get("IDA", last).esub < f.get("IDA", near_crossover).esub;
    let gap = |np| f.get("NIA", np).esub as f64 / f.get("IDA", np).esub as f64;
    let grows = gap(last) >= gap(p[0]);
    f.check(shrinks, "customer surplus shrinks |Esub| past k|Q| = |P|");
    f.check(grows, "IDA's advantage grows as |P| grows past k|Q|");
    f.verify(&title);
}

/// Figure 12: mixed capacities, k drawn uniformly from each range. "Mixed
/// k values do not affect the effectiveness of our pruning techniques"
/// (§5.2).
#[test]
fn fig12() {
    let s = COUNTS;
    let (nq, np) = (s.count(1000), s.count(100_000));
    let mixed = |lo, hi| workload(nq, np, CapacitySpec::Mixed { lo, hi });
    let ranges = [(10, 30), (20, 60), (40, 120), (80, 240), (160, 480)];
    let points = ranges.map(|(lo, hi)| (format!("{lo}~{hi}"), mixed(lo, hi)));
    let title = "Figure 12: mixed capacities";
    let mut f = sweep(s, &s.exact_algorithms(), points);
    for (lo, hi) in ranges {
        let x = format!("{lo}~{hi}");
        let prunes = f.get("IDA", &x).esub <= f.get("NIA", &x).esub;
        f.check(prunes, format!("k={x}: IDA explores <= NIA's edges"));
    }
    f.verify(title);
}

/// Figure 13: the four Q/P distribution combinations. The optimal
/// assignment gets much more expensive when the two sets are distributed
/// differently, and there NIA falls behind RIA in CPU time: its one-by-one
/// edge retrieval is invoked very many times (§5.2).
fn fig13_shapes(s: Setting) {
    let (s, points) = distribution_points(s);
    let title = "Figure 13: Q/P distributions";
    let mut f = sweep(s, &s.exact_algorithms(), points);
    let esub = |x| f.get("IDA", x).esub;
    let cross = esub("UvsC") > esub("UvsU") && esub("CvsU") > esub("CvsC");
    f.check(cross, "UvsC and CvsU explore more edges than matched");
    if s.cpu {
        let slower = |x| f.get("NIA", x).cpu_s > f.get("RIA", x).cpu_s;
        let nia_slower = slower("UvsC") || slower("CvsU");
        f.check(nia_slower, "NIA is slower than RIA on a cross distribution");
    }
    f.verify(title);
}

// ---------------------------------------------------------------------------
// §5.3, approximations (Figures 14–18), against exact IDA.

/// Figure 14: exact IDA once, then SAN/CAN/SAE/CAE at every δ, on Table 2's
/// defaults. Every approximation stays within its quality band; the paper
/// picks δ = 40 for SA and δ = 10 for CA as the best efficiency/accuracy
/// trade-offs, where CA wins on both axes, and both approximations beat
/// exact IDA in time at δ = 40 (§5.3).
fn fig14_shapes(s: Setting) {
    let mut configs = vec![SolverConfig::new("ida")];
    for delta in DELTA_RANGE {
        for refine in [RefineMethod::NnBased, RefineMethod::ExclusiveNn] {
            configs.push(SolverConfig::new("sa").delta(delta).refine(refine));
            configs.push(SolverConfig::new("ca").delta(delta).refine(refine));
        }
    }
    let default = workload(s.count(1000), s.count(100_000), Fixed(80));
    let rows = run_sequence(s, &default, &configs);
    let mut f = Figure::default();
    f.add("ref", &rows[..1]);
    for (delta, rows_at) in DELTA_RANGE.iter().zip(rows[1..].chunks(4)) {
        f.exact.push((delta.to_string(), rows[0].cost));
        f.add(delta, rows_at);
    }
    for delta in DELTA_RANGE {
        let band = f.quality("SAN", delta) >= 1.0 - 1e-9 && f.quality("CAN", delta) >= 1.0 - 1e-9;
        f.check(band, format!("δ={delta}: SAN and CAN quality ratios >= 1"));
    }
    let near_optimal = f.quality("CAN", 10.0) < 1.25;
    let better = f.quality("CAN", 10.0) <= f.quality("SAN", 40.0);
    let time = |series, x: f64| s.time(f.get(series, x));
    let exact = s.time(f.get("IDA", "ref"));
    let faster = time("CAN", 10.0) < time("SAN", 40.0);
    let beats = time("CAN", 40.0) < exact && time("SAN", 40.0) < exact;
    let what = s.time_label();
    f.check(near_optimal, "CA quality at δ=10 is within 25% of optimal");
    f.check(better, "CA@δ=10 beats SA@δ=40 in quality");
    f.check(faster, format!("CA@δ=10 beats SA@δ=40 in {what}"));
    f.check(beats, format!("SA and CA at δ=40 beat exact IDA in {what}"));
    f.verify("Figure 14: approximation quality and time vs δ");
}

/// Figure 15: quality improves as k grows — pair distances grow while the
/// group MBRs stay fixed — and CA stays near-optimal (§5.3; paper: within
/// 12–23 %).
#[test]
fn fig15() {
    let s = COUNTS;
    let (nq, np) = (s.count(1000), s.count(100_000));
    let points = K_RANGE.map(|k| (k, workload(nq, np, Fixed(k))));
    let mut f = approximation_sweep(s, points);
    let improves = f.quality("CAN", 320) <= f.quality("CAN", 20);
    let within = K_RANGE.iter().all(|&k| f.quality("CAN", k) < 1.25);
    f.check(improves, "CA quality improves with k (k=320 vs k=20)");
    f.check(within, "CA stays within 25% of optimal at every k");
    f.verify("Figure 15: approximation vs k");
}

/// Figure 16: CA's N/E variants differ marginally, and CA's quality worsens
/// as |Q| grows — more providers around a customer group raise the chance
/// of suboptimal pairs (§5.3).
#[test]
fn fig16() {
    let s = COUNTS;
    let (np, q) = (s.count(100_000), Q_RANGE.map(|q| s.count(q)));
    let points = q.map(|nq| (nq, workload(nq, np, Fixed(80))));
    let title = format!("Figure 16: approximation vs |Q| (|P| = {np})");
    let mut f = approximation_sweep(s, points);
    let diff = |nq| (f.quality("CAN", nq) - f.quality("CAE", nq)).abs();
    let marginal = q.iter().all(|&nq| diff(nq) < 0.05);
    let degrades = f.quality("CAN", q[q.len() - 1]) >= f.quality("CAN", q[0]) - 1e-9;
    f.check(marginal, "CAN and CAE differ by < 5% at every |Q|");
    f.check(degrades, "CA quality degrades as |Q| grows");
    f.verify(&title);
}

/// Figure 17: growing |P| hurts SA — the space around each provider group
/// gets denser past the `k·|Q| = |P|` crossover — while CA is affected less
/// (§5.3).
#[test]
fn fig17() {
    let s = COUNTS;
    let (nq, p) = (s.count(1000), P_RANGE.map(|p| s.count(p)));
    let points = p.map(|np| (np, workload(nq, np, Fixed(80))));
    let title = format!("Figure 17: approximation vs |P| (|Q| = {nq})");
    let mut f = approximation_sweep(s, points);
    let post: Vec<usize> = p.into_iter().filter(|&np| np >= 80 * nq).collect();
    let degrades = f.quality("SAN", post[post.len() - 1]) >= f.quality("SAN", post[0]) - 1e-9;
    let gap = |np| f.quality("CAN", np) - f.quality("SAN", np);
    let robust = p.iter().all(|&np| gap(np) <= 1e-9);
    f.check(degrades, "SA quality degrades as |P| grows past k|Q|");
    f.check(robust, "CA quality is never worse than SA's at any |P|");
    f.verify(&title);
}

/// Figure 18: the four distribution combinations. CA is more accurate than
/// SA when Q and P are similarly distributed and, overall, "CA typically
/// computes a near-optimal matching, while being orders of magnitude
/// faster than IDA" (§5.3).
fn fig18_shapes(s: Setting) {
    let (s, points) = distribution_points(s);
    let title = "Figure 18: approximation across distributions";
    let mut f = approximation_sweep(s, points);
    let better = |x| f.get("CAN", x).cost <= f.get("SAN", x).cost;
    let accurate = better("CvsC") && better("UvsU");
    let time = |series, x| s.time(f.get(series, x));
    let faster = f.exact.iter().all(|(x, _)| time("CAN", x) < time("IDA", x));
    let what = s.time_label();
    f.check(accurate, "CA is more accurate than SA on UvsU and CvsC");
    f.check(faster, format!("CA beats exact IDA in {what} everywhere"));
    f.verify(title);
}

/// Each figure with claims of both kinds has a count test (every build) and
/// a timing test (release builds).
macro_rules! counts_and_timing {
    ($($counts:ident, $timing:ident: $shapes:ident;)*) => {$(
        #[test]
        fn $counts() {
            $shapes(COUNTS);
        }

        #[test]
        #[cfg_attr(debug_assertions, ignore = "timing test: run with --release")]
        fn $timing() {
            $shapes(TIMING);
        }
    )*};
}

counts_and_timing! {
    fig10, fig10_timing: fig10_shapes;
    fig13, fig13_timing: fig13_shapes;
    fig14, fig14_timing: fig14_shapes;
    fig18, fig18_timing: fig18_shapes;
}

// ---------------------------------------------------------------------------
// I/O ablations (not a figure of the paper).

/// Grouped ANN (§3.4.2) and a larger buffer cut IDA's page faults, at k = 40.
///
/// Only the end points of the group sweep are asserted: at this scale
/// g = 4 and g = 8 fault *more* than plain cursors (g = 1), a small
/// deterministic instance of `ida-grouped`'s open I/O anomaly.
#[test]
fn ablation_buffer_and_group_sweeps() {
    let s = COUNTS;
    let instance = build_instance(&workload(s.count(1000), s.count(100_000), Fixed(40)));
    let mut f = Figure::default();
    let ida = SolverConfig::new("ida");
    f.add("g=1", &[measure(&instance, &ida)]);
    for g in [4, 8, 16, 32] {
        let grouped = SolverConfig::new("ida-grouped").group_size(g);
        f.add(format!("g={g}"), &[measure(&instance, &grouped)]);
    }
    let pages = [4, 16, 64, 256];
    for p in pages {
        instance.tree().store().set_buffer_capacity(p);
        f.add(format!("{p}p"), &[measure(&instance, &ida)]);
    }
    let faults = |x: String| f.get("IDA", x).faults;
    let by_buffer = pages.map(|p| faults(format!("{p}p")));
    let monotone = by_buffer.windows(2).all(|w| w[1] <= w[0]);
    let grouping_cuts = faults("g=32".into()) < faults("g=1".into());
    f.check(monotone, "faults are non-increasing in the buffer size");
    f.check(grouping_cuts, "grouped ANN at g=32 faults less than g=1");
    f.verify("Ablation: ANN group size and buffer size, IDA at k = 40");
}

// ---------------------------------------------------------------------------
// Table 2's default point.

/// Table 2's default point at a fifth of its sizes: clustered vs
/// clustered, k = 80, |Q| = 200, |P| = 20 K. Its |Esub|, faults and cost
/// bits are deterministic, so they are pinned exactly: a change to the
/// flow kernel, the R-tree or the buffer pool that moves one of them shows
/// here. CPU times are printed, not asserted.
#[test]
#[cfg_attr(debug_assertions, ignore = "timing test: run with --release")]
fn paper_default() {
    let s = Setting {
        scale: 0.2,
        runs: 1,
        cpu: true,
    };
    let mut configs = s.exact_algorithms();
    configs.extend([SolverConfig::new("ca"), SolverConfig::new("sa")]);
    let default = workload(s.count(1000), s.count(100_000), Fixed(80));
    let mut f = Figure::default();
    f.add("default", &run_sequence(s, &default, &configs));
    f.check_pins(&[
        ("RIA", 884_577, 363_303, 4_691_607_428_301_279_867),
        ("NIA", 873_964, 24_061, 4_691_607_428_301_279_865),
        ("IDA", 90_210, 3_816, 4_691_607_428_301_279_851),
        ("CAN", 18_295, 505, 4_691_642_787_721_287_180),
        ("SAN", 47_715, 2_042, 4_691_844_773_818_575_934),
    ]);
    let row = |series| f.get(series, "default");
    let (esub, faults) = (|a| row(a).esub, |a| row(a).faults);
    let prunes = esub("IDA") < esub("NIA") && esub("NIA") <= esub("RIA");
    let io = faults("IDA") < faults("NIA") && faults("NIA") < faults("RIA");
    let accurate = row("CAN").cost <= row("SAN").cost;
    let faster = s.time(row("CAN")) < s.time(row("IDA"));
    f.check(prunes, "IDA < NIA <= RIA in |Esub|");
    f.check(io, "IDA < NIA < RIA in faults");
    f.check(accurate, "CA is at least as accurate as SA");
    f.check(faster, "CA beats exact IDA in total time");
    f.verify("Table 2's default point at scale 0.2");
}

/// Table 2's default point at full scale: clustered vs clustered, k = 80,
/// |Q| = 1 000, |P| = 100 K, a 1 % buffer. The yardstick for the exact
/// tier at the paper's sizes: IDA's and CA's |Esub|, faults and cost bits
/// are pinned exactly, CPU times are printed, not asserted. SSPA is left
/// out: its rows cost 24 B per (q, p) pair (a 16 B row entry and an 8 B
/// link to the customer's next edge), 2.4 GB here. RIA and NIA are left out
/// until their CPU time at this size is known. Run by hand:
/// `cargo test --release --test paper_shapes -- --ignored paper_default_full --nocapture`.
#[test]
#[ignore = "minutes of CPU: run by hand with --release --ignored"]
fn paper_default_full() {
    let s = Setting {
        scale: 1.0,
        runs: 1,
        cpu: true,
    };
    let configs = [SolverConfig::new("ida"), SolverConfig::new("ca")];
    let default = workload(s.count(1000), s.count(100_000), Fixed(80));
    let mut f = Figure::default();
    f.add("default", &run_sequence(s, &default, &configs));
    f.check_pins(&[
        ("IDA", 476_867, 21_006, 4_696_824_694_375_930_641),
        ("CAN", 38_851, 2_496, 4_696_980_052_552_646_278),
    ]);
    f.verify("Table 2's default point at scale 1.0");
}
