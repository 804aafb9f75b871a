//! The solver pipeline: every CCA algorithm behind one value, constructible
//! from data.
//!
//! * [`Problem`] — one query: providers plus customer access (R-tree or
//!   in-memory slice), built builder-style, optionally carrying a
//!   [`cca_storage::QueryContext`] (deadline / I/O budget / cancellation).
//! * [`Solver`] — one algorithm plus its tuning: `name()`, `label()` and
//!   `run()`.
//! * [`Outcome`] — what a run produced: a complete result, or a partial
//!   one with the [`AbortReason`].
//! * [`SolverConfig`] — a solver selection as plain data (name + params).
//! * [`SolverRegistry`] — the fixed name → algorithm table, so benches,
//!   examples and the serving layer enumerate and select algorithms
//!   uniformly, and bad parameters fail before a run starts.
//!
//! ```
//! use cca_core::solver::{Problem, SolverConfig, SolverRegistry};
//! use cca_geo::Point;
//!
//! let providers = vec![(Point::new(0.0, 0.0), 1), (Point::new(9.0, 0.0), 1)];
//! let customers = vec![Point::new(1.0, 0.0), Point::new(8.0, 0.0)];
//! let problem = Problem::new(&providers).with_customers(&customers);
//!
//! let registry = SolverRegistry::with_defaults();
//! let solver = registry.build(&SolverConfig::new("ida")).unwrap();
//! let (matching, _stats) = solver.run(&problem).expect_complete();
//! assert_eq!(matching.size(), 2);
//! ```

pub mod config;
pub mod problem;
pub mod registry;

pub use config::SolverConfig;
pub use problem::Problem;
pub use registry::{SolverConfigError, SolverRegistry};

use std::time::Instant;

use cca_flow::sspa::{FlowCustomer, FlowProvider, Sspa};
use cca_geo::Point;
use cca_storage::AbortReason;

use crate::approx::{ca, coreset_points, sa, CaConfig, CoresetConfig, SaConfig};
use crate::exact::{ida, nia, ria, RiaConfig};
use crate::matching::{MatchPair, Matching};
use crate::stats::AlgoStats;

/// The result of one [`Solver::run`]: either the algorithm ran to the
/// optimal (or bounded-approximate) matching, or the query's
/// [`cca_storage::QueryContext`] aborted it — cancellation, deadline or I/O
/// budget — and the run unwound with whatever it had.
///
/// Aborted runs still carry exact partial I/O attribution: `partial_stats.io`
/// is precisely the traffic the query charged before stopping (for a fault
/// budget, `io.faults` equals the budget).
#[derive(Clone, Debug)]
pub enum Outcome {
    /// The algorithm ran to completion.
    Complete {
        matching: Matching,
        stats: AlgoStats,
    },
    /// The query aborted; `partial` is the (possibly empty) matching built
    /// so far and `partial_stats` the measurements up to the abort.
    Aborted {
        partial: Matching,
        partial_stats: AlgoStats,
        reason: AbortReason,
    },
}

impl Outcome {
    /// The matching — complete or partial.
    pub fn matching(&self) -> &Matching {
        match self {
            Outcome::Complete { matching, .. } => matching,
            Outcome::Aborted { partial, .. } => partial,
        }
    }

    /// The run's measurements — complete or partial.
    pub fn stats(&self) -> &AlgoStats {
        match self {
            Outcome::Complete { stats, .. } => stats,
            Outcome::Aborted { partial_stats, .. } => partial_stats,
        }
    }

    /// Why the run aborted, or `None` when it completed.
    pub fn abort_reason(&self) -> Option<AbortReason> {
        match self {
            Outcome::Complete { .. } => None,
            Outcome::Aborted { reason, .. } => Some(*reason),
        }
    }

    /// True when the run finished without aborting.
    pub fn is_complete(&self) -> bool {
        matches!(self, Outcome::Complete { .. })
    }

    /// Unwraps matching and stats regardless of completeness (serving
    /// paths that want the partial result keep the reason via
    /// [`Outcome::abort_reason`] first).
    pub fn into_parts(self) -> (Matching, AlgoStats) {
        match self {
            Outcome::Complete { matching, stats } => (matching, stats),
            Outcome::Aborted {
                partial,
                partial_stats,
                ..
            } => (partial, partial_stats),
        }
    }

    /// Unwraps a completed run.
    ///
    /// # Panics
    /// Panics if the run aborted.
    pub fn expect_complete(self) -> (Matching, AlgoStats) {
        match self {
            Outcome::Complete { matching, stats } => (matching, stats),
            Outcome::Aborted { reason, .. } => {
                panic!("query aborted ({reason}) where completion was required")
            }
        }
    }
}

/// One CCA algorithm with its tuning, built from a [`SolverConfig`] by
/// [`SolverRegistry::build`].
///
/// A solver is a cheap, immutable description (algorithm + the config it
/// was built from); all per-query state lives in the [`Problem`] and the
/// customer source each run builds, so one solver value can serve many
/// queries — including concurrently, which the serving layer relies on.
#[derive(Clone, Debug)]
pub struct Solver {
    algo: Algo,
    config: SolverConfig,
}

/// The eight algorithms, in registry order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Algo {
    Sspa,
    Ria,
    Nia,
    Ida,
    IdaGrouped,
    Sa,
    Ca,
    Coreset,
}

impl Algo {
    const ALL: [Algo; 8] = [
        Algo::Sspa,
        Algo::Ria,
        Algo::Nia,
        Algo::Ida,
        Algo::IdaGrouped,
        Algo::Sa,
        Algo::Ca,
        Algo::Coreset,
    ];

    fn name(self) -> &'static str {
        match self {
            Algo::Sspa => "sspa",
            Algo::Ria => "ria",
            Algo::Nia => "nia",
            Algo::Ida => "ida",
            Algo::IdaGrouped => "ida-grouped",
            Algo::Sa => "sa",
            Algo::Ca => "ca",
            Algo::Coreset => "coreset",
        }
    }
}

impl Solver {
    /// Registry name (`"ida"`, `"ca"`, …).
    pub fn name(&self) -> &'static str {
        self.algo.name()
    }

    /// Chart label matching the paper's figures (`"IDA"`, `"CAN"`, …).
    pub fn label(&self) -> String {
        match self.algo {
            Algo::IdaGrouped => "IDA".into(),
            Algo::Sa => format!("SA{}", self.config.refine.suffix()),
            Algo::Ca => format!("CA{}", self.config.refine.suffix()),
            algo => algo.name().to_uppercase(),
        }
    }

    /// Whether the solver descends the R-tree directly (`sa`, `ca`), so
    /// [`Solver::run`] panics on a problem without one.
    pub fn needs_tree(&self) -> bool {
        matches!(self.algo, Algo::Sa | Algo::Ca)
    }

    /// Builds the customer source the algorithm wants, solves, classifies.
    ///
    /// When the problem carries a [`cca_storage::QueryContext`], the
    /// context traffic accrued during this run (source construction
    /// included — grouped-ANN sources may touch the tree eagerly) is copied
    /// into the returned [`AlgoStats::io`], giving per-query I/O even when
    /// many runs share one buffer pool concurrently; and if the context
    /// aborted (cancellation, deadline, I/O budget) the source dries up and
    /// the result is [`Outcome::Aborted`] carrying the partial matching and
    /// its exact partial attribution.
    ///
    /// Classification is by the context's state *when the run finishes*:
    /// a run whose deadline expires (or that is cancelled) during its
    /// final CPU-only phase is reported `Aborted` even though its matching
    /// is in fact complete — in serving terms the SLA was missed and the
    /// result is treated as late, the deliberate, conservative reading.
    /// Callers that prefer the opposite reading can still use the carried
    /// matching: `Aborted { partial, .. }` always holds everything the
    /// algorithm produced.
    ///
    /// # Panics
    ///
    /// If [`Solver::needs_tree`] and the problem has no R-tree attached.
    pub fn run(&self, problem: &Problem<'_>) -> Outcome {
        let ctx = problem.context();
        let io_before = ctx.map(|c| c.stats());
        let (matching, mut stats) = self.solve(problem);
        if let (Some(ctx), Some(before)) = (ctx, io_before) {
            stats.io = ctx.stats().since(&before);
        }
        match ctx.and_then(|c| c.abort_reason()) {
            Some(reason) => Outcome::Aborted {
                partial: matching,
                partial_stats: stats,
                reason,
            },
            None => Outcome::Complete { matching, stats },
        }
    }

    /// Runs the algorithm over the source it reads. Leaves
    /// [`AlgoStats::io`] untouched; [`Solver::run`] fills it.
    fn solve(&self, problem: &Problem<'_>) -> (Matching, AlgoStats) {
        let c = &self.config;
        let providers = problem.providers();
        let tree = || {
            problem
                .tree()
                .unwrap_or_else(|| panic!("{} requires an R-tree-backed problem", self.name()))
        };
        match self.algo {
            Algo::Sspa => sspa(problem),
            Algo::Ria => problem.with_source(1, |source| {
                ria(providers, source, &RiaConfig { theta: c.theta })
            }),
            Algo::Nia => problem.with_source(1, |source| nia(providers, source)),
            Algo::Ida => problem.with_source(1, |source| ida(providers, source)),
            Algo::IdaGrouped => problem.with_source(c.group_size, |source| ida(providers, source)),
            Algo::Sa => sa(
                providers,
                tree(),
                &SaConfig {
                    delta: c.delta,
                    refine: c.refine,
                },
                problem.context(),
            ),
            Algo::Ca => ca(
                providers,
                tree(),
                &CaConfig {
                    delta: c.delta,
                    refine: c.refine,
                },
                problem.context(),
            ),
            Algo::Coreset => {
                let start = Instant::now();
                let Some(items) = collect_items(problem) else {
                    return empty(start);
                };
                let cfg = CoresetConfig {
                    size: c.coreset_size,
                    seed: c.sample_seed,
                    swap_passes: c.swap_passes,
                    refine: c.refine,
                };
                coreset_points(providers, &items, problem.tree(), &cfg, problem.context())
            }
        }
    }
}

/// An empty result timed from `start`.
fn empty(start: Instant) -> (Matching, AlgoStats) {
    (
        Matching::default(),
        AlgoStats {
            cpu_time: start.elapsed(),
            ..Default::default()
        },
    )
}

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

/// Full-graph SSPA baseline (§2.2): materialises the complete bipartite
/// graph between `Q` and `P` and runs successive shortest paths. Exact,
/// memory-hungry, slow — the yardstick of Figure 8.
fn sspa(problem: &Problem<'_>) -> (Matching, AlgoStats) {
    let start = Instant::now();
    let providers = problem.providers();
    if providers.is_empty() {
        return empty(start);
    }
    // The baseline builds the complete bipartite graph over the whole
    // customer set. A memory-resident slice (the paper's Figure-8 setting)
    // is used directly; otherwise the first provider's NN stream is
    // drained, which visits every customer of the tree exactly once.
    let customers: Vec<(u64, Point, u32)> = match problem.customers() {
        Some(slice) => slice
            .iter()
            .enumerate()
            .map(|(i, &pos)| (i as u64, pos, 1))
            .collect(),
        None => problem.with_source(1, |source| {
            std::iter::from_fn(|| source.next_nn(0))
                .map(|c| (c.id, c.pos, c.weight))
                .collect()
        }),
    };
    let fps: Vec<FlowProvider> = providers
        .iter()
        .map(|&(pos, cap)| FlowProvider { pos, cap })
        .collect();
    let fcs: Vec<FlowCustomer> = customers
        .iter()
        .map(|&(_, pos, weight)| FlowCustomer { pos, weight })
        .collect();
    // The context-aware solve polls deadline/cancellation from inside the
    // search and Dijkstra loops, so an expired deadline aborts the
    // CPU-bound flow phase without a single page access; the committed
    // partial assignment is returned and `Solver::run` classifies the
    // outcome off the context's sticky abort state.
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
    // Each completed search is one Dijkstra run followed by one augment.
    let stats = AlgoStats {
        esub_edges: sspa_stats.edges,
        dijkstra_runs: sspa_stats.iterations,
        settled: sspa_stats.settled,
        iterations: sspa_stats.iterations,
        cpu_time: start.elapsed(),
        ..Default::default()
    };
    (Matching { pairs }, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cca_testutil::{build_tree, gamma, optimal_cost, random_instance};

    /// Every registered solver must solve a small tree-backed instance to
    /// the optimum: δ is driven to ~0 so SA/CA are near-exact, and
    /// `coreset`'s auto size exceeds n here so its coreset is the full set
    /// and it is exact too.
    #[test]
    fn all_registered_solvers_solve_through_the_trait() {
        let (providers, customers) = random_instance(77, 4, 40, 4);
        let want = optimal_cost(&providers, &customers);
        let tree = build_tree(&customers);
        let problem = Problem::new(&providers).with_tree(&tree);
        assert_eq!(problem.gamma(), gamma(&providers, &customers));

        let registry = SolverRegistry::with_defaults();
        for name in registry.names() {
            let solver = registry
                .build(&SolverConfig::new(name).theta(25.0).delta(1e-9))
                .unwrap();
            let outcome = solver.run(&problem);
            assert!(outcome.is_complete(), "{name}: no context, no abort");
            let (matching, stats) = outcome.expect_complete();
            matching
                .validate_unit(&providers, &customers)
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(
                (matching.cost() - want).abs() < 1e-6,
                "{name}: {} vs optimal {want}",
                matching.cost()
            );
            assert!(
                stats.iterations > 0 || stats.fast_phase_matches > 0,
                "{name}"
            );
        }
    }

    /// The baseline reports what its `AlgoStats` fields document: every
    /// (q, p) edge of the complete graph in `esub_edges`, and on unit
    /// customers one search, one settle pass and one augment per unit.
    #[test]
    fn sspa_reports_the_kernel_counts() {
        let (providers, customers) = random_instance(79, 3, 20, 4);
        let problem = Problem::new(&providers).with_customers(&customers);
        let solver = SolverRegistry::with_defaults()
            .build(&SolverConfig::new("sspa"))
            .unwrap();
        let (_, stats) = solver.run(&problem).expect_complete();
        let g = gamma(&providers, &customers);
        assert_eq!(stats.esub_edges, (providers.len() * customers.len()) as u64);
        assert_eq!(stats.dijkstra_runs, g);
        assert_eq!(stats.iterations, g);
        assert!(stats.settled > 0);
    }

    #[test]
    fn memory_backed_problem_serves_exact_solvers() {
        let (providers, customers) = random_instance(78, 3, 25, 3);
        let want = optimal_cost(&providers, &customers);
        let problem = Problem::new(&providers).with_customers(&customers);
        for name in ["sspa", "ria", "nia", "ida", "ida-grouped"] {
            let solver = SolverRegistry::with_defaults()
                .build(&SolverConfig::new(name).theta(25.0))
                .unwrap();
            let (matching, _) = solver.run(&problem).expect_complete();
            assert!(
                (matching.cost() - want).abs() < 1e-6,
                "{name}: {} vs {want}",
                matching.cost()
            );
        }
    }
}
