//! The full-graph Successive Shortest Path Algorithm (Algorithm 1).
//!
//! This is the paper's baseline (§2.2): build the *complete* bipartite flow
//! graph between `Q` and `P` in memory and run γ Dijkstra+augment
//! iterations. It is intentionally faithful to the baseline's weaknesses —
//! O(|Q|·|P|) edges — because Figure 8 measures exactly that. It doubles as
//! the ground-truth oracle for the incremental algorithms' tests.
//!
//! Customers may carry integer weights (> 1) so the same solver performs the
//! concise matching of the CA approximation, where customer representatives
//! have weight `g.w` (§4.2).
//!
//! There is one way to run a solve: [`Sspa::solve`]. Everything that varies
//! between callers — an abort context and the frontier queue — is a field
//! of [`Sspa`].
//!
//! Each shortest-path search pushes the path's *bottleneck*: every unit
//! routed along one shortest path costs the same, and after the push the
//! saturated arc leaves the residual graph while the potential update
//! restores `rc ≥ 0` everywhere — the §2.2 loop invariant — so the result is
//! the exact optimum. On unit-weight customers the sink arc caps the
//! bottleneck at 1, which is Algorithm 1's unit augmentation verbatim; on
//! weighted customers (the coreset tier's representatives) one search moves
//! many units, so a solve needs far fewer than `γ` searches. `|Q| + |P|` is
//! the usual order, but not a bound: a reverse arc can be the bottleneck
//! without saturating any source or sink arc.

// `FlowAborted` carries the committed partial assignment plus the full
// `SspaStats` block by value; it crossed clippy's 128-byte Err threshold
// when the stats gained the solve-phase breakdown. The Ok variant
// `(Assignment, SspaStats)` is just as large, aborts are cold, and boxing
// would churn every public signature, so the lint buys nothing here.
#![allow(clippy::result_large_err)]

use std::time::Instant;

use cca_geo::Point;
use cca_storage::{AbortReason, QueryContext};

use crate::dijkstra::{DijkstraState, FrontierKind, HeapCounters};
use crate::graph::{FlowGraph, NodeId};

/// A provider in a bipartite assignment problem: position + capacity.
#[derive(Clone, Copy, Debug)]
pub struct FlowProvider {
    pub pos: Point,
    pub cap: u32,
}

/// A customer: position + weight (1 for ordinary CCA customers).
#[derive(Clone, Copy, Debug)]
pub struct FlowCustomer {
    pub pos: Point,
    pub weight: u32,
}

/// The assignment produced by a solver: `(provider index, customer index,
/// units)` triples plus the total cost `Ψ(M) = Σ units · dist`.
#[derive(Clone, Debug, Default)]
pub struct Assignment {
    pub pairs: Vec<(usize, usize, u32)>,
    pub cost: f64,
}

impl Assignment {
    /// Total matched units (the matching size `|M|`).
    pub fn size(&self) -> u64 {
        self.pairs.iter().map(|&(_, _, u)| u64::from(u)).sum()
    }

    /// Units assigned per provider.
    pub fn provider_load(&self, num_providers: usize) -> Vec<u64> {
        let mut load = vec![0u64; num_providers];
        for &(q, _, u) in &self.pairs {
            load[q] += u64::from(u);
        }
        load
    }

    /// Units assigned per customer.
    pub fn customer_load(&self, num_customers: usize) -> Vec<u64> {
        let mut load = vec![0u64; num_customers];
        for &(_, p, u) in &self.pairs {
            load[p] += u64::from(u);
        }
        load
    }
}

/// The required flow `γ = min(Σ q.k, Σ p.w)` (§1, §2.1).
pub fn required_flow(providers: &[FlowProvider], customers: &[FlowCustomer]) -> u64 {
    let cap: u64 = providers.iter().map(|q| u64::from(q.cap)).sum();
    let w: u64 = customers.iter().map(|p| u64::from(p.weight)).sum();
    cap.min(w)
}

/// Statistics reported by [`Sspa::solve`].
#[derive(Clone, Copy, Debug, Default)]
pub struct SspaStats {
    /// Completed shortest-path searches, each followed by one bottleneck
    /// augmentation. On unit-weight customers every search installs one
    /// unit, so this equals the installed flow (γ on completion); on
    /// weighted customers it is typically far below γ — read
    /// [`Assignment::size`] for the installed flow.
    pub iterations: u64,
    /// Edges in the flow graph (|Q|·|P| + |Q| + |P| for the baseline).
    pub edges: u64,
    /// Nodes settled across all Dijkstra runs — the dominant work term.
    pub settled: u64,
    /// Wall time inside the shortest-path searches (init + settle loop).
    pub settle_ns: u64,
    /// Wall time augmenting flow and updating potentials.
    pub augment_ns: u64,
    /// Frontier (bucket-queue) pushes across all searches.
    pub heap_pushes: u64,
    /// Frontier pops across all searches (stale entries included).
    pub heap_pops: u64,
    /// Pushes that improved an already-queued node (lazy decrease-keys).
    pub decrease_keys: u64,
    /// Searches that migrated from the radix queue to the binary-heap
    /// fallback because a key went below the last popped minimum.
    pub radix_fallbacks: u64,
}

/// An SSPA solve cut short by its [`QueryContext`] (cancellation or an
/// expired deadline — the flow engine touches no pages, so I/O budgets
/// cannot trip here).
///
/// The partial state is exact: `partial` holds every unit whose augmenting
/// path fully committed before the abort (a valid, capacity-respecting
/// assignment from `stats.iterations` completed searches), and the in-flight
/// search is discarded without mutating the flow.
#[derive(Clone, Debug)]
pub struct FlowAborted {
    pub reason: AbortReason,
    /// Units assigned by the searches that completed before the abort.
    pub partial: Assignment,
    /// Measurements up to the abort (`iterations` = completed searches).
    pub stats: SspaStats,
}

impl std::fmt::Display for FlowAborted {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "flow solve aborted ({}) after {} searches",
            self.reason, self.stats.iterations
        )
    }
}

impl std::error::Error for FlowAborted {}

impl SspaStats {
    /// Copies a finished solve's frontier counters into the stats block.
    fn with_heap(mut self, heap: HeapCounters) -> Self {
        self.heap_pushes = heap.pushes;
        self.heap_pops = heap.pops;
        self.decrease_keys = heap.decrease_keys;
        self.radix_fallbacks = heap.radix_fallbacks;
        self
    }
}

/// The options of one SSPA solve on the complete bipartite graph, run by
/// [`Sspa::solve`]. `Sspa::default()` is Algorithm 1 as published: no
/// context, radix frontier.
#[derive(Clone, Copy, Debug, Default)]
pub struct Sspa<'a> {
    /// Cooperative cancellation: the search driver polls the context at
    /// every search head and the inner Dijkstra polls it every few dozen
    /// settles, so a CPU-bound solve on a large drained graph observes
    /// cancellation or an expired deadline from *inside* the flow loop — no
    /// page access required — and unwinds with the typed [`FlowAborted`]
    /// carrying the partial assignment built so far. Without a context a
    /// solve cannot abort.
    pub ctx: Option<&'a QueryContext>,
    /// Frontier queue of the inner Dijkstra. [`FrontierKind::Binary`]
    /// reproduces the pre-radix engine exactly (same lazy decrease-key heap,
    /// same `(key, node)` tie-break) and exists as the reference the
    /// radix-vs-binary proptests and the `flow_core` bench compare against.
    pub frontier: FrontierKind,
}

impl Sspa<'_> {
    /// Solves the CCA instance optimally with SSPA on the complete
    /// bipartite graph. Errs only when [`Sspa::ctx`] aborts the solve.
    pub fn solve(
        &self,
        providers: &[FlowProvider],
        customers: &[FlowCustomer],
    ) -> Result<(Assignment, SspaStats), FlowAborted> {
        let Sspa { ctx, frontier } = *self;
        let mut g = FlowGraph::with_nodes(2 + providers.len() + customers.len());
        let s: NodeId = 0;
        let t: NodeId = 1;
        let q_node = |i: usize| (2 + i) as NodeId;
        let p_node = |j: usize| (2 + providers.len() + j) as NodeId;

        // Source and sink edges (cost 0, capacities q.k / p.w), §2.1.
        for (i, q) in providers.iter().enumerate() {
            g.add_edge(s, q_node(i), q.cap, 0.0);
        }
        // Complete bipartite distance edges. Edge capacity is the customer's
        // weight: a representative with weight w can receive up to w units from
        // the same provider ("M' may assign instances of a representative to
        // multiple service providers", §4.2); for unit customers this is the
        // paper's capacity-1 edge.
        let mut qp_edges: Vec<(u32, usize, usize)> =
            Vec::with_capacity(providers.len() * customers.len());
        for (i, q) in providers.iter().enumerate() {
            for (j, p) in customers.iter().enumerate() {
                let e = g.add_edge(q_node(i), p_node(j), p.weight, q.pos.dist(&p.pos));
                qp_edges.push((e, i, j));
            }
        }
        for (j, p) in customers.iter().enumerate() {
            g.add_edge(p_node(j), t, p.weight, 0.0);
        }

        let gamma = required_flow(providers, customers);
        let mut dij = DijkstraState::with_frontier(frontier);
        // Phase split: search time vs augment/potential-update time. Two
        // timestamps per search (~µs-scale searches) — cheap enough to keep
        // on unconditionally.
        let mut stats = SspaStats {
            edges: g.num_edges() as u64,
            ..SspaStats::default()
        };
        let extract = |g: &FlowGraph| {
            let mut asg = Assignment::default();
            for &(e, i, j) in &qp_edges {
                let f = g.edge_flow(e);
                if f > 0 {
                    asg.pairs.push((i, j, f));
                    asg.cost += f64::from(f) * providers[i].pos.dist(&customers[j].pos);
                }
            }
            asg
        };
        let mut units = 0u64;
        while units < gamma {
            // Search-head poll, plus stride polls inside the search: the
            // committed units always form a valid partial assignment, and an
            // in-flight (un-augmented) search never mutates the flow, so both
            // abort points unwind to exactly the committed prefix.
            let searched = match ctx.map(|c| c.check()) {
                Some(Err(a)) => Err(a),
                _ => {
                    let t0 = Instant::now();
                    dij.init(&g, s);
                    let searched = dij.run_until(&g, t, ctx);
                    stats.settle_ns += t0.elapsed().as_nanos() as u64;
                    searched
                }
            };
            match searched {
                Ok(Some(alpha_t)) => {
                    stats.settled += dij.settled_nodes().len() as u64;
                    let t0 = Instant::now();
                    let remaining = (gamma - units).min(u64::from(u32::MAX)) as u32;
                    units += u64::from(dij.augment_bottleneck(&mut g, t, remaining));
                    g.update_potentials(dij.settled_nodes(), |v| dij.alpha(v), alpha_t);
                    stats.augment_ns += t0.elapsed().as_nanos() as u64;
                    stats.iterations += 1;
                }
                Ok(None) => unreachable!("complete bipartite graph always admits γ units"),
                Err(a) => {
                    return Err(FlowAborted {
                        reason: a.reason,
                        partial: extract(&g),
                        stats: stats.with_heap(dij.heap_counters()),
                    });
                }
            }
        }

        debug_assert!(
            g.check_reduced_costs(crate::dijkstra::EPS * 100.0).is_ok(),
            "optimality certificate violated"
        );
        Ok((extract(&g), stats.with_heap(dij.heap_counters())))
    }
}

/// Convenience constructor for unit-weight customers.
pub fn unit_customers(points: &[Point]) -> Vec<FlowCustomer> {
    points
        .iter()
        .map(|&pos| FlowCustomer { pos, weight: 1 })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q(x: f64, y: f64, cap: u32) -> FlowProvider {
        FlowProvider {
            pos: Point::new(x, y),
            cap,
        }
    }

    fn p(x: f64, y: f64) -> FlowCustomer {
        FlowCustomer {
            pos: Point::new(x, y),
            weight: 1,
        }
    }

    /// Algorithm 1 with default options; no context, so no abort.
    fn solve(providers: &[FlowProvider], customers: &[FlowCustomer]) -> (Assignment, SspaStats) {
        Sspa::default().solve(providers, customers).unwrap()
    }

    fn with_ctx(ctx: &QueryContext) -> Sspa<'_> {
        Sspa {
            ctx: Some(ctx),
            ..Sspa::default()
        }
    }

    /// Independent reference for weighted instances: the Hungarian optimum
    /// of the *unit expansion*, where a weight-`w` customer becomes `w`
    /// co-located unit customers. Shares no code with SSPA.
    fn unit_expansion_optimum(providers: &[FlowProvider], customers: &[FlowCustomer]) -> f64 {
        let expanded: Vec<Point> = customers
            .iter()
            .flat_map(|c| std::iter::repeat_n(c.pos, c.weight as usize))
            .collect();
        crate::validate::hungarian_optimal_cost(providers, &expanded)
    }

    #[test]
    fn paper_running_example_figure_2() {
        // Figure 2: q1 (k=1), q2 (k=2); dist(q1,p1)=4 ... per the edge labels:
        // w(q1,p1)=4, w(q1,p2)=3, w(q2,p1)=7, w(q2,p2)=10.
        // SSPA's example result: M = {(q1,p1), (q2,p2)}? Let's check the
        // costs: the example augments (q1,p2) first (cost 3), then reroutes:
        // final M = {(q1,p1),(q2,p2)} with cost 14, versus the alternative
        // {(q1,p2),(q2,p1)} with cost 10. The optimum is 10.
        //
        // We can't use Euclidean geometry to realise arbitrary costs, so we
        // place points on a line realising the same optimal structure:
        // q1 at 0, q2 at 100; p1 at 3, p2 at 97.
        let providers = [q(0.0, 0.0, 1), q(100.0, 0.0, 2)];
        let customers = [p(3.0, 0.0), p(97.0, 0.0)];
        let (asg, stats) = solve(&providers, &customers);
        assert_eq!(asg.size(), 2);
        assert_eq!(asg.cost, 6.0);
        assert_eq!(stats.iterations, 2);
        let mut pairs = asg.pairs.clone();
        pairs.sort();
        assert_eq!(pairs, vec![(0, 0, 1), (1, 1, 1)]);
    }

    #[test]
    fn capacity_forces_nonlocal_assignment() {
        // One provider with capacity 1 sits on top of two customers; the
        // other provider is far. The near provider takes the closest
        // customer, the far one serves the rest.
        let providers = [q(0.0, 0.0, 1), q(10.0, 0.0, 1)];
        let customers = [p(0.0, 1.0), p(0.0, 2.0)];
        let (asg, _) = solve(&providers, &customers);
        assert_eq!(asg.size(), 2);
        // Optimal: q0-p0 (1) + q1-p1 (sqrt(104)) vs q0-p1 (2) + q1-p0 (sqrt(101)).
        let alt1 = 1.0 + (104.0f64).sqrt();
        let alt2 = 2.0 + (101.0f64).sqrt();
        assert!((asg.cost - alt1.min(alt2)).abs() < 1e-9);
    }

    #[test]
    fn surplus_capacity_leaves_providers_underutilised() {
        let providers = [q(0.0, 0.0, 5), q(100.0, 0.0, 5)];
        let customers = [p(1.0, 0.0), p(2.0, 0.0), p(99.0, 0.0)];
        let (asg, _) = solve(&providers, &customers);
        assert_eq!(asg.size(), 3, "all customers matched");
        let load = asg.provider_load(2);
        assert_eq!(load[0], 2);
        assert_eq!(load[1], 1);
        assert!((asg.cost - (1.0 + 2.0 + 1.0)).abs() < 1e-9);
    }

    #[test]
    fn surplus_customers_leave_some_unmatched() {
        // γ = Σk = 2 < |P| = 3: exactly one customer stays unmatched
        // (p "is not assigned to any qi, since they are all full", §1).
        let providers = [q(0.0, 0.0, 2)];
        let customers = [p(1.0, 0.0), p(2.0, 0.0), p(3.0, 0.0)];
        let (asg, _) = solve(&providers, &customers);
        assert_eq!(asg.size(), 2);
        assert!((asg.cost - 3.0).abs() < 1e-9, "the two nearest are kept");
        let load = asg.customer_load(3);
        assert_eq!(load, vec![1, 1, 0]);
    }

    #[test]
    fn weighted_customers_can_split_across_providers() {
        // A single representative of weight 3 between two providers with
        // capacities 2 and 2: it must be split 2 + 1.
        let providers = [q(0.0, 0.0, 2), q(10.0, 0.0, 2)];
        let customers = [FlowCustomer {
            pos: Point::new(4.0, 0.0),
            weight: 3,
        }];
        let (asg, _) = solve(&providers, &customers);
        assert_eq!(asg.size(), 3);
        let load = asg.provider_load(2);
        assert_eq!(load[0], 2, "nearer provider takes its full capacity");
        assert_eq!(load[1], 1);
        assert!((asg.cost - (2.0 * 4.0 + 6.0)).abs() < 1e-9);
    }

    #[test]
    fn expired_deadline_aborts_before_the_first_augmentation() {
        use std::time::{Duration, Instant};
        let providers = [q(0.0, 0.0, 2), q(50.0, 0.0, 2)];
        let customers = unit_customers(&[
            Point::new(1.0, 0.0),
            Point::new(2.0, 0.0),
            Point::new(49.0, 0.0),
        ]);
        let ctx = QueryContext::new().with_deadline(Instant::now() - Duration::from_millis(1));
        let err = with_ctx(&ctx).solve(&providers, &customers).unwrap_err();
        assert_eq!(err.reason, AbortReason::DeadlineExceeded);
        assert_eq!(err.partial.size(), 0, "no iteration ran");
        assert_eq!(err.stats.iterations, 0);
        assert!(err.stats.edges > 0, "the graph was built before the poll");
        assert!(err.to_string().contains("deadline"));
    }

    #[test]
    fn clean_context_matches_the_plain_entry_point() {
        let providers = [q(0.0, 0.0, 1), q(100.0, 0.0, 2)];
        let customers = [p(3.0, 0.0), p(97.0, 0.0)];
        let ctx = QueryContext::new();
        let (asg, stats) = with_ctx(&ctx).solve(&providers, &customers).unwrap();
        let (want, want_stats) = solve(&providers, &customers);
        assert_eq!(asg.cost, want.cost);
        assert_eq!(asg.pairs, want.pairs);
        assert_eq!(stats.iterations, want_stats.iterations);
    }

    #[test]
    fn mid_run_cancellation_keeps_a_valid_committed_prefix() {
        // A large instance (γ = 400 over an 80k-edge graph takes well over
        // the canceller's delay) cancelled from another thread: the solve
        // must stop part-way with a prefix that respects every capacity.
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(42);
        let providers: Vec<FlowProvider> = (0..40)
            .map(|_| {
                q(
                    rng.random_range(0.0..1000.0),
                    rng.random_range(0.0..1000.0),
                    10,
                )
            })
            .collect();
        let customers: Vec<FlowCustomer> = (0..2000)
            .map(|_| p(rng.random_range(0.0..1000.0), rng.random_range(0.0..1000.0)))
            .collect();
        let ctx = QueryContext::new();
        let canceller = ctx.clone();
        let handle = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(5));
            canceller.cancel();
        });
        let result = with_ctx(&ctx).solve(&providers, &customers);
        handle.join().unwrap();
        let err = result.expect_err("γ=400 unit augmentations far outlast a 5 ms fuse");
        assert_eq!(err.reason, AbortReason::Cancelled);
        assert_eq!(err.partial.size(), err.stats.iterations);
        assert!(err.stats.iterations < 400, "aborted before completing");
        // Capacity feasibility of the partial assignment.
        for (qi, load) in err
            .partial
            .provider_load(providers.len())
            .iter()
            .enumerate()
        {
            assert!(*load <= u64::from(providers[qi].cap), "provider {qi}");
        }
        for (pj, load) in err
            .partial
            .customer_load(customers.len())
            .iter()
            .enumerate()
        {
            assert!(*load <= u64::from(customers[pj].weight), "customer {pj}");
        }
    }

    fn random_instance(
        seed: u64,
        nq: usize,
        np: usize,
        max_cap: u32,
    ) -> (Vec<FlowProvider>, Vec<FlowCustomer>) {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let providers = (0..nq)
            .map(|_| {
                q(
                    rng.random_range(0.0..1000.0),
                    rng.random_range(0.0..1000.0),
                    rng.random_range(1..=max_cap),
                )
            })
            .collect();
        let customers = (0..np)
            .map(|_| p(rng.random_range(0.0..1000.0), rng.random_range(0.0..1000.0)))
            .collect();
        (providers, customers)
    }

    #[test]
    fn bulk_augmentation_matches_unit_on_weighted_instances() {
        // A weight-3 representative split across two providers: three unit
        // customers at the same spot would need three searches; bottleneck
        // augmentation saturates whole arcs and needs fewer.
        let providers = [q(0.0, 0.0, 2), q(10.0, 0.0, 2)];
        let customers = [FlowCustomer {
            pos: Point::new(4.0, 0.0),
            weight: 3,
        }];
        let (asg, stats) = solve(&providers, &customers);
        assert_eq!(asg.size(), 3);
        let want = unit_expansion_optimum(&providers, &customers);
        assert!((asg.cost - want).abs() < 1e-9, "{} vs {want}", asg.cost);
        assert!(
            stats.iterations < 3,
            "bottleneck pushed more than one unit per search ({} searches)",
            stats.iterations
        );
    }

    #[test]
    fn bulk_augmentation_respects_context_aborts() {
        // A weighted instance under an expired deadline: the search-head
        // poll fires before any bottleneck push, so nothing is installed.
        use std::time::{Duration, Instant};
        let providers = [q(0.0, 0.0, 2)];
        let customers = [FlowCustomer {
            pos: Point::new(1.0, 0.0),
            weight: 2,
        }];
        let ctx = QueryContext::new().with_deadline(Instant::now() - Duration::from_millis(1));
        let err = with_ctx(&ctx).solve(&providers, &customers).unwrap_err();
        assert_eq!(err.reason, AbortReason::DeadlineExceeded);
        assert_eq!(err.partial.size(), 0);
        assert_eq!(err.stats.iterations, 0);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]
        /// Bottleneck augmentation is exact: on any random weighted
        /// instance it reproduces the Hungarian optimum of the unit
        /// expansion (cost and size γ), with no more searches than units.
        /// (`|Q| + |P|` searches is not asserted: it is not a bound once a
        /// reverse arc is the bottleneck, and random instances exceed it.)
        #[test]
        fn prop_bulk_cost_equals_unit(
            seed in 0u64..10_000,
            nq in 1usize..6,
            np in 1usize..20,
            max_cap in 1u32..6,
            max_w in 1u32..5,
        ) {
            use rand::rngs::StdRng;
            use rand::{Rng, SeedableRng};
            let (providers, mut customers) = random_instance(seed, nq, np, max_cap);
            let mut rng = StdRng::seed_from_u64(seed ^ 0xb01d);
            for c in &mut customers {
                c.weight = rng.random_range(1..=max_w);
            }
            let (asg, stats) = solve(&providers, &customers);
            let want = unit_expansion_optimum(&providers, &customers);
            let gamma = required_flow(&providers, &customers);
            let tol = 1e-9 * want.max(1.0);
            proptest::prop_assert_eq!(asg.size(), gamma);
            proptest::prop_assert!(
                (asg.cost - want).abs() <= tol,
                "sspa {} vs hungarian {}", asg.cost, want
            );
            proptest::prop_assert!(stats.iterations <= gamma);
        }
    }

    #[test]
    fn empty_inputs() {
        let (asg, _) = solve(&[], &[]);
        assert_eq!(asg.size(), 0);
        assert_eq!(asg.cost, 0.0);
        let (asg, _) = solve(&[q(0.0, 0.0, 3)], &[]);
        assert_eq!(asg.size(), 0);
        let (asg, _) = solve(&[], &unit_customers(&[Point::new(1.0, 1.0)]));
        assert_eq!(asg.size(), 0);
    }

    #[test]
    fn zero_capacity_provider_is_ignored() {
        let providers = [q(0.0, 0.0, 0), q(5.0, 0.0, 1)];
        let customers = [p(0.0, 0.0)];
        let (asg, _) = solve(&providers, &customers);
        assert_eq!(asg.size(), 1);
        assert_eq!(asg.pairs[0].0, 1, "capacity-0 provider must not serve");
    }

    #[test]
    fn voronoi_violating_example_from_figure_1() {
        // Figure 1's moral: nearest-provider assignment violates capacities;
        // the optimal CCA spills the overflow to farther providers. Build a
        // small instance with that structure: 3 customers around q0 (k=1).
        let providers = [q(0.0, 0.0, 1), q(10.0, 0.0, 2)];
        let customers = [p(0.5, 0.0), p(-0.5, 0.0), p(1.0, 0.0)];
        let (asg, _) = solve(&providers, &customers);
        assert_eq!(asg.size(), 3);
        let load = asg.provider_load(2);
        assert_eq!(load[0], 1, "capacity respected despite 3 nearby customers");
        assert_eq!(load[1], 2);
    }
}
