//! The nine [`Solver`] implementations wrapping the algorithm entry
//! points of [`crate::exact`], [`crate::approx`] and the SSPA baseline.

use std::time::Instant;

use cca_flow::sspa::{FlowCustomer, FlowProvider, Sspa};
use cca_geo::Point;

use crate::approx::{
    ca, coreset_points, da_points, sa, CaConfig, CoresetConfig, DaConfig, SaConfig,
};
use crate::exact::{ida, nia, ria, CustomerSource, IdaConfig, NiaConfig, RiaConfig};
use crate::matching::{MatchPair, Matching};
use crate::solver::{Problem, Solver};
use crate::stats::AlgoStats;

/// Collects the instance's customers as `(position, id)` items: directly
/// from an attached in-memory slice, or by one context-charged full-tree
/// sweep (the approximate tier's only unavoidable I/O). `None` when the
/// sweep aborts.
fn collect_items(problem: &Problem<'_>) -> Option<Vec<(Point, u64)>> {
    match problem.customers() {
        Some(slice) => Some(
            slice
                .iter()
                .enumerate()
                .map(|(i, &pos)| (pos, i as u64))
                .collect(),
        ),
        None => {
            let tree = problem.tree().expect("problems are tree- or slice-backed");
            let mut items = Vec::new();
            tree.for_each_point(|pos, id| items.push((pos, id)), problem.context())
                .ok()?;
            Some(items)
        }
    }
}

/// A source for solvers that never consult one (SA/CA descend the R-tree
/// directly; SSPA reads the customer slice when present). Avoids paying
/// for per-provider NN cursors that would go unused.
struct NoSource;

impl CustomerSource for NoSource {
    fn num_customers(&self) -> usize {
        0
    }

    fn total_weight(&self) -> u64 {
        0
    }

    fn next_nn(&mut self, _qi: usize) -> Option<crate::exact::SourcedCustomer> {
        None
    }

    fn range(
        &mut self,
        _qi: usize,
        _lo: f64,
        _hi: f64,
        _include_lo: bool,
    ) -> Vec<crate::exact::SourcedCustomer> {
        Vec::new()
    }
}

/// Full-graph SSPA baseline (§2.2): materialises the complete bipartite
/// graph between `Q` and `P` and runs successive shortest paths. Exact,
/// memory-hungry, slow — the yardstick of Figure 8.
#[derive(Clone, Copy, Debug, Default)]
pub struct SspaSolver;

impl Solver for SspaSolver {
    fn name(&self) -> &'static str {
        "sspa"
    }

    fn make_source<'a>(&self, problem: &Problem<'a>) -> Box<dyn CustomerSource + 'a> {
        // With an in-memory slice attached, solve() reads it directly.
        if problem.customers().is_some() {
            Box::new(NoSource)
        } else {
            problem.source()
        }
    }

    fn solve(
        &self,
        problem: &Problem<'_>,
        source: &mut dyn CustomerSource,
    ) -> (Matching, AlgoStats) {
        let start = Instant::now();
        let providers = problem.providers();
        if providers.is_empty() {
            return (
                Matching::default(),
                AlgoStats {
                    cpu_time: start.elapsed(),
                    ..Default::default()
                },
            );
        }
        // The baseline builds the complete bipartite graph over the whole
        // customer set. A memory-resident slice (the paper's Figure-8
        // setting) is used directly; otherwise the first provider's NN
        // stream is drained, which visits every customer exactly once and
        // works uniformly for tree- and memory-backed sources.
        let customers: Vec<(u64, cca_geo::Point, u32)> = match problem.customers() {
            Some(slice) => slice
                .iter()
                .enumerate()
                .map(|(i, &pos)| (i as u64, pos, 1))
                .collect(),
            None => {
                let mut drained = Vec::with_capacity(source.num_customers());
                while let Some(c) = source.next_nn(0) {
                    drained.push((c.id, c.pos, c.weight));
                }
                drained
            }
        };
        let fps: Vec<FlowProvider> = providers
            .iter()
            .map(|&(pos, cap)| FlowProvider { pos, cap })
            .collect();
        let fcs: Vec<FlowCustomer> = customers
            .iter()
            .map(|&(_, pos, weight)| FlowCustomer { pos, weight })
            .collect();
        // The context-aware solve polls deadline/cancellation from inside
        // the search and Dijkstra loops, so an expired deadline aborts
        // the CPU-bound flow phase without a single page access; the
        // committed partial assignment is returned and `Solver::run`
        // classifies the outcome off the context's sticky abort state.
        let sspa = Sspa {
            ctx: problem.context(),
        };
        let (asg, sspa_stats) = match sspa.solve(&fps, &fcs) {
            Ok(complete) => complete,
            Err(aborted) => (aborted.partial, aborted.stats),
        };
        let pairs = asg
            .pairs
            .iter()
            .map(|&(qi, cj, units)| MatchPair {
                provider: qi,
                customer: customers[cj].0,
                units,
                dist: providers[qi].0.dist(&customers[cj].1),
                customer_pos: customers[cj].1,
            })
            .collect();
        let stats = AlgoStats {
            esub_edges: sspa_stats.edges,
            iterations: sspa_stats.iterations,
            cpu_time: start.elapsed(),
            ..Default::default()
        };
        (Matching { pairs }, stats)
    }
}

/// Range Incremental Algorithm (§3.1) — exact.
#[derive(Clone, Copy, Debug, Default)]
pub struct RiaSolver {
    pub cfg: RiaConfig,
}

impl Solver for RiaSolver {
    fn name(&self) -> &'static str {
        "ria"
    }

    fn solve(
        &self,
        problem: &Problem<'_>,
        mut source: &mut dyn CustomerSource,
    ) -> (Matching, AlgoStats) {
        ria(problem.providers(), &mut source, &self.cfg)
    }
}

/// Nearest Neighbor Incremental Algorithm (§3.2) — exact.
#[derive(Clone, Copy, Debug, Default)]
pub struct NiaSolver {
    pub cfg: NiaConfig,
}

impl Solver for NiaSolver {
    fn name(&self) -> &'static str {
        "nia"
    }

    fn solve(
        &self,
        problem: &Problem<'_>,
        mut source: &mut dyn CustomerSource,
    ) -> (Matching, AlgoStats) {
        nia(problem.providers(), &mut source, &self.cfg)
    }
}

/// Incremental On-demand Algorithm (§3.3) — exact; the paper's best.
#[derive(Clone, Copy, Debug, Default)]
pub struct IdaSolver {
    pub cfg: IdaConfig,
}

impl Solver for IdaSolver {
    fn name(&self) -> &'static str {
        "ida"
    }

    fn solve(
        &self,
        problem: &Problem<'_>,
        mut source: &mut dyn CustomerSource,
    ) -> (Matching, AlgoStats) {
        ida(problem.providers(), &mut source, &self.cfg)
    }
}

/// IDA over the grouped-ANN source (§3.4.2): identical matching, fewer
/// page faults. The grouping lives in [`Solver::make_source`].
#[derive(Clone, Copy, Debug)]
pub struct IdaGroupedSolver {
    pub cfg: IdaConfig,
    pub group_size: usize,
}

impl Default for IdaGroupedSolver {
    fn default() -> Self {
        IdaGroupedSolver {
            cfg: IdaConfig::default(),
            group_size: 8,
        }
    }
}

impl Solver for IdaGroupedSolver {
    fn name(&self) -> &'static str {
        "ida-grouped"
    }

    fn label(&self) -> String {
        "IDA".into()
    }

    fn make_source<'a>(&self, problem: &Problem<'a>) -> Box<dyn CustomerSource + 'a> {
        problem.grouped_source(self.group_size)
    }

    fn solve(
        &self,
        problem: &Problem<'_>,
        mut source: &mut dyn CustomerSource,
    ) -> (Matching, AlgoStats) {
        ida(problem.providers(), &mut source, &self.cfg)
    }
}

/// Service-provider approximation (§4.1), error ≤ 2γδ.
///
/// Requires a tree-backed problem: the partitioning phase descends the
/// R-tree directly, so [`Solver::solve`] panics on memory-only problems.
#[derive(Clone, Copy, Debug, Default)]
pub struct SaSolver {
    pub cfg: SaConfig,
}

impl Solver for SaSolver {
    fn name(&self) -> &'static str {
        "sa"
    }

    fn label(&self) -> String {
        format!("SA{}", self.cfg.refine.suffix())
    }

    fn make_source<'a>(&self, _problem: &Problem<'a>) -> Box<dyn CustomerSource + 'a> {
        Box::new(NoSource)
    }

    fn solve(
        &self,
        problem: &Problem<'_>,
        _source: &mut dyn CustomerSource,
    ) -> (Matching, AlgoStats) {
        let tree = problem
            .tree()
            .expect("sa requires an R-tree-backed problem");
        sa(problem.providers(), tree, &self.cfg, problem.context())
    }
}

/// Customer approximation (§4.2), error ≤ γδ; the paper's recommended
/// approximate method.
///
/// Requires a tree-backed problem, like [`SaSolver`].
#[derive(Clone, Copy, Debug, Default)]
pub struct CaSolver {
    pub cfg: CaConfig,
}

impl Solver for CaSolver {
    fn name(&self) -> &'static str {
        "ca"
    }

    fn label(&self) -> String {
        format!("CA{}", self.cfg.refine.suffix())
    }

    fn make_source<'a>(&self, _problem: &Problem<'a>) -> Box<dyn CustomerSource + 'a> {
        Box::new(NoSource)
    }

    fn solve(
        &self,
        problem: &Problem<'_>,
        _source: &mut dyn CustomerSource,
    ) -> (Matching, AlgoStats) {
        let tree = problem
            .tree()
            .expect("ca requires an R-tree-backed problem");
        ca(problem.providers(), tree, &self.cfg, problem.context())
    }
}

/// Capacity-aware coreset solver — the approximate scale-out tier. Samples
/// customers into a small weighted set, solves it exactly through the
/// `cca-flow` weighted SSPA / IDA path, lifts back and swap-refines inside
/// R-tree neighbourhoods. Works on both tree- and slice-backed problems
/// (the swap passes need a tree and are skipped otherwise).
#[derive(Clone, Copy, Debug, Default)]
pub struct CoresetSolver {
    pub cfg: CoresetConfig,
}

impl Solver for CoresetSolver {
    fn name(&self) -> &'static str {
        "coreset"
    }

    fn make_source<'a>(&self, _problem: &Problem<'a>) -> Box<dyn CustomerSource + 'a> {
        Box::new(NoSource)
    }

    fn solve(
        &self,
        problem: &Problem<'_>,
        _source: &mut dyn CustomerSource,
    ) -> (Matching, AlgoStats) {
        let start = Instant::now();
        let Some(items) = collect_items(problem) else {
            return (
                Matching::default(),
                AlgoStats {
                    cpu_time: start.elapsed(),
                    ..Default::default()
                },
            );
        };
        coreset_points(
            problem.providers(),
            &items,
            problem.tree(),
            &self.cfg,
            problem.context(),
        )
    }
}

/// Deterministic-annealing solver — the approximate tier's independent
/// baseline. Anneals a capacity-priced soft assignment over each customer's
/// K nearest providers, then hardens it into a feasible γ-unit matching.
/// Works on both tree- and slice-backed problems.
#[derive(Clone, Copy, Debug, Default)]
pub struct DaSolver {
    pub cfg: DaConfig,
}

impl Solver for DaSolver {
    fn name(&self) -> &'static str {
        "da"
    }

    fn make_source<'a>(&self, _problem: &Problem<'a>) -> Box<dyn CustomerSource + 'a> {
        Box::new(NoSource)
    }

    fn solve(
        &self,
        problem: &Problem<'_>,
        _source: &mut dyn CustomerSource,
    ) -> (Matching, AlgoStats) {
        let start = Instant::now();
        let Some(items) = collect_items(problem) else {
            return (
                Matching::default(),
                AlgoStats {
                    cpu_time: start.elapsed(),
                    ..Default::default()
                },
            );
        };
        da_points(problem.providers(), &items, &self.cfg, problem.context())
    }
}
