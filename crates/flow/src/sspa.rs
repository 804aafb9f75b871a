//! The full-graph Successive Shortest Path Algorithm (Algorithm 1).
//!
//! This is the paper's baseline (§2.2): SSPA on the *complete* bipartite
//! flow graph between `Q` and `P`. It is the flow kernel
//! ([`crate::residual`]) with every (q, p) row inserted up front, in
//! provider-major order, and no validity test, because the complete graph
//! needs none. It is intentionally faithful to the baseline's weaknesses —
//! every one of the |Q|·|P| edges is materialised, at 16 B per row entry
//! plus 8 B of incidence — because Figure 8 measures exactly that. It is the
//! exact solver behind the registry's `sspa`.
//!
//! Customers may carry integer weights (> 1). Each search pushes the path's
//! *bottleneck*, capped at the flow still missing: every unit routed along
//! one shortest path costs the same, and the potential update keeps the
//! result exact. On unit-weight customers the sink arc caps the bottleneck
//! at 1, which is Algorithm 1's unit augmentation verbatim; on weighted
//! customers one search moves many units, so a solve needs far fewer than
//! `γ` searches. `|Q| + |P|` is the usual order, but not a bound: a reverse
//! arc can be the bottleneck without saturating any source or sink arc.
//!
//! There is one way to run a solve: [`Sspa::solve`]. The one thing that
//! varies between callers, an abort context, is the field of [`Sspa`].

use cca_geo::Point;
use cca_storage::{AbortReason, Aborted, QueryContext};

use crate::residual::Residual;

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
    /// `q→p` edges in the flow graph: |Q|·|P|.
    pub edges: u64,
    /// Nodes settled across all completed searches — `s`, the settled
    /// providers, the customers labelled below `α(t)` and `t`, per search.
    pub settled: u64,
}

/// An SSPA solve cut short by its [`QueryContext`] (cancellation or an
/// expired deadline — the flow engine touches no pages, so I/O budgets
/// cannot trip here).
///
/// The partial state is exact: `partial` holds every unit whose augmenting
/// path fully committed before the abort (a valid, capacity-respecting
/// assignment from `stats.iterations` completed searches), and the
/// in-flight search is discarded without mutating the flow.
#[derive(Clone, Debug)]
pub struct FlowAborted {
    pub reason: AbortReason,
    /// The flow installed when the solve stopped.
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

/// The options of one SSPA solve on the complete bipartite graph, run by
/// [`Sspa::solve`]. `Sspa::default()` is Algorithm 1 as published: no
/// context.
#[derive(Clone, Copy, Debug, Default)]
pub struct Sspa<'a> {
    /// Cooperative cancellation: the solve polls the context at every
    /// search head and every 64 settled providers, so a CPU-bound solve on a
    /// large instance observes cancellation or an expired deadline from
    /// *inside* the flow loop — no page access required — and unwinds with
    /// the typed [`FlowAborted`] carrying the partial assignment built so
    /// far. Without a context a solve cannot abort.
    pub ctx: Option<&'a QueryContext>,
}

impl Sspa<'_> {
    /// Solves the CCA instance optimally with SSPA on the complete
    /// bipartite graph. Errs only when [`Sspa::ctx`] aborts the solve.
    ///
    /// Debug builds check every completed solve against its optimality
    /// certificate (feasible flow of size γ, non-negative reduced costs
    /// under the final potentials).
    pub fn solve(
        &self,
        providers: &[FlowProvider],
        customers: &[FlowCustomer],
    ) -> Result<(Assignment, SspaStats), FlowAborted> {
        let (net, stats) = self.run(providers, customers)?;
        let asg = assignment(&net);
        if cfg!(debug_assertions) {
            crate::validate::validate_assignment(providers, customers, &asg)
                .and_then(|()| net.certify())
                .unwrap_or_else(|e| panic!("optimality certificate violated: {e}"));
        }
        Ok((asg, stats))
    }

    /// The solve loop: searches and augments until `γ` units are
    /// installed. Returns the final residual state.
    fn run(
        &self,
        providers: &[FlowProvider],
        customers: &[FlowCustomer],
    ) -> Result<(Residual, SspaStats), FlowAborted> {
        let mut net = Residual::complete(providers, customers);
        let gamma = required_flow(providers, customers);
        let mut stats = SspaStats {
            edges: providers.len() as u64 * customers.len() as u64,
            ..SspaStats::default()
        };
        let aborted = |net: &Residual, a: Aborted, stats| FlowAborted {
            reason: a.reason,
            partial: assignment(net),
            stats,
        };
        let mut units = 0u64;
        while units < gamma {
            match net.search(self.ctx) {
                Ok(Some(alpha_t)) => {
                    let remaining = (gamma - units).min(u64::from(u32::MAX)) as u32;
                    units += u64::from(net.augment(remaining));
                    stats.settled += net.update_potentials(alpha_t);
                    stats.iterations += 1;
                }
                Ok(None) => unreachable!("complete bipartite graph always admits γ units"),
                // A search never mutates the flow, so the committed units
                // are exactly the completed searches' prefix.
                Err(a) => return Err(aborted(&net, a, stats)),
            }
        }
        Ok((net, stats))
    }
}

/// The installed flow as `(provider, customer, units)` pairs in
/// provider-major order, with `Ψ(M)` summed in the same order.
fn assignment(net: &Residual) -> Assignment {
    let mut asg = Assignment::default();
    for (i, j, flow, dist) in net.edges() {
        if flow > 0 {
            asg.pairs.push((i, j, flow));
            asg.cost += f64::from(flow) * dist;
        }
    }
    asg
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

    /// Units of `asg` summed per provider or per customer (`side` picks
    /// which index of a pair), over `n` indices.
    fn loads(asg: &Assignment, n: usize, side: fn(&(usize, usize, u32)) -> usize) -> Vec<u64> {
        let mut load = vec![0u64; n];
        for pair in &asg.pairs {
            load[side(pair)] += u64::from(pair.2);
        }
        load
    }

    const PROVIDER: fn(&(usize, usize, u32)) -> usize = |&(q, _, _)| q;
    const CUSTOMER: fn(&(usize, usize, u32)) -> usize = |&(_, p, _)| p;

    /// Algorithm 1 with default options; no context, so no abort.
    fn solve(providers: &[FlowProvider], customers: &[FlowCustomer]) -> (Assignment, SspaStats) {
        Sspa::default().solve(providers, customers).unwrap()
    }

    fn with_ctx(ctx: &QueryContext) -> Sspa<'_> {
        Sspa { ctx: Some(ctx) }
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
        let load = loads(&asg, 2, PROVIDER);
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
        let load = loads(&asg, 3, CUSTOMER);
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
        let load = loads(&asg, 2, PROVIDER);
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
        assert!(
            err.stats.edges > 0,
            "edges are counted before the first poll"
        );
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
        for (qi, load) in loads(&err.partial, providers.len(), PROVIDER)
            .iter()
            .enumerate()
        {
            assert!(*load <= u64::from(providers[qi].cap), "provider {qi}");
        }
        for (pj, load) in loads(&err.partial, customers.len(), CUSTOMER)
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

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]
        /// Small shapes with many zero and spare capacities: 8 providers
        /// with capacities 0–10 and 1–80 unit customers, so both Σk < |P|
        /// and Σk ≥ |P| occur. One search per unit, and the Hungarian
        /// optimum (which shares no code with SSPA).
        #[test]
        fn prop_local_repair_shapes_match_hungarian(
            seed in 0u64..10_000,
            caps in proptest::collection::vec(0u32..=10, 8usize..=8),
            np in 1usize..=80,
        ) {
            let (mut providers, customers) = random_instance(seed, 8, np, 1);
            for (q, cap) in providers.iter_mut().zip(caps) {
                q.cap = cap;
            }
            let (asg, stats) = solve(&providers, &customers);
            let gamma = required_flow(&providers, &customers);
            let pts: Vec<Point> = customers.iter().map(|c| c.pos).collect();
            let want = crate::validate::hungarian_optimal_cost(&providers, &pts);
            proptest::prop_assert_eq!(asg.size(), gamma);
            proptest::prop_assert_eq!(stats.iterations, gamma);
            proptest::prop_assert!(
                (asg.cost - want).abs() <= 1e-9 * want.max(1.0),
                "sspa {} vs hungarian {}", asg.cost, want
            );
        }
    }

    #[test]
    fn certificate_reports_a_shifted_potential_and_swapped_providers() {
        let (providers, customers) = random_instance(5, 4, 30, 5);
        let (net, _) = Sspa::default().run(&providers, &customers).unwrap();
        let asg = assignment(&net);
        let caps: Vec<u32> = providers.iter().map(|q| q.cap).collect();
        let weights: Vec<u32> = customers.iter().map(|p| p.weight).collect();
        let (tau_s, tau_q, tau_p) = net.potentials();
        // The certificate of `asg` on the complete graph under the
        // potentials `(τ(s), τ(q), τ(p))`.
        let certify = |asg: &Assignment, tau_q: &[f64]| {
            let mut rows: Vec<_> = (0..providers.len())
                .flat_map(|i| (0..customers.len()).map(move |j| (i, j)))
                .map(|(i, j)| (i, j, providers[i].pos.dist(&customers[j].pos), 0))
                .collect();
            for &(i, j, units) in &asg.pairs {
                rows[i * customers.len() + j].3 += units;
            }
            crate::validate::assert_optimal(&caps, &weights, &rows, (tau_s, tau_q, &tau_p))
        };
        certify(&asg, &tau_q).unwrap();

        // Shifting any one provider's potential, either way, breaks the
        // reduced-cost invariant on one of its residual arcs.
        for i in 0..providers.len() {
            for shift in [-1e4, 1e4] {
                let mut shifted = tau_q.to_vec();
                shifted[i] += shift;
                let err = certify(&asg, &shifted).unwrap_err();
                assert!(err.contains("reduced cost"), "q{i} {shift:+}: {err}");
            }
        }

        // Swapping the providers of two customers keeps the matching
        // feasible and of size γ, but the old potentials no longer
        // certify it.
        let (a, b) = (0..asg.pairs.len())
            .flat_map(|a| (a + 1..asg.pairs.len()).map(move |b| (a, b)))
            .find(|&(a, b)| {
                let ((qa, pa, _), (qb, pb, _)) = (asg.pairs[a], asg.pairs[b]);
                let d = |q: usize, p: usize| providers[q].pos.dist(&customers[p].pos);
                qa != qb && d(qa, pb) + d(qb, pa) > d(qa, pa) + d(qb, pb) + 1.0
            })
            .expect("a costly swap exists");
        let mut swapped = asg.clone();
        (swapped.pairs[a].0, swapped.pairs[b].0) = (asg.pairs[b].0, asg.pairs[a].0);
        swapped.cost = swapped
            .pairs
            .iter()
            .map(|&(q, p, u)| f64::from(u) * providers[q].pos.dist(&customers[p].pos))
            .sum();
        crate::validate::validate_assignment(&providers, &customers, &swapped).unwrap();
        let err = certify(&swapped, &tau_q).unwrap_err();
        assert!(err.contains("reduced cost"), "{err}");
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
        let load = loads(&asg, 2, PROVIDER);
        assert_eq!(load[0], 1, "capacity respected despite 3 nearby customers");
        assert_eq!(load[1], 2);
    }
}
