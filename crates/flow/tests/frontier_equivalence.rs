//! Radix-vs-binary frontier equivalence.
//!
//! [`FrontierKind::Binary`] is the pre-radix engine: the same lazy
//! decrease-key heap with the same `(key bits, node)` ordering the old
//! `BinaryHeap<Reverse<(OrdF64, NodeId)>>` frontier used. These tests pin
//! the radix queue (including its mid-run fallback migration) against it:
//!
//! * identical settle order up to equal-key ties, with bit-identical
//!   distances, on random weighted graphs — including after PUA edge
//!   inserts and `drain_below_sink` (the paths that trigger the fallback),
//! * bit-identical final matching cost on random SSPA instances, solved by
//!   a test-local graph SSPA (the library's [`Sspa`] is dense and uses no
//!   frontier; it is checked against the same reference here).

use cca_flow::{
    required_flow, Assignment, DijkstraState, FlowCustomer, FlowGraph, FlowProvider, FrontierKind,
    HeapCounters, NodeId, Sspa,
};
use cca_geo::Point;
use proptest::prelude::*;

/// Random sparse digraph from an edge list over `n` nodes, plus one extra
/// edge-less node (id `n`) to use as an unreachable drain target. Costs are
/// non-negative, as Dijkstra requires.
fn build_graph(n: usize, edges: &[(usize, usize, u32, f64)]) -> FlowGraph {
    let mut g = FlowGraph::with_nodes(n + 1);
    for &(u, v, cap, cost) in edges {
        let (u, v) = (u % n, v % n);
        if u != v {
            g.add_edge(u as NodeId, v as NodeId, cap.max(1), cost);
        }
    }
    g
}

/// Settles everything reachable from `source` and returns the settle trace
/// as `(key bits, node)` pairs in settle order.
fn settle_trace(g: &FlowGraph, source: NodeId, kind: FrontierKind) -> Vec<(u64, NodeId)> {
    let mut d = DijkstraState::with_frontier(kind);
    d.init(g, source);
    // The edge-less sentinel node is never settled, so this drains the
    // frontier completely.
    let unreachable = (g.num_nodes() - 1) as NodeId;
    assert_eq!(d.run_until(g, unreachable, None), Ok(None));
    d.settled_nodes()
        .iter()
        .map(|&v| (d.alpha(v).to_bits(), v))
        .collect()
}

/// Asserts two settle traces are equal up to reordering *within* runs of
/// equal keys: the key sequences must match bit-for-bit, and each maximal
/// equal-key run must settle the same set of nodes.
fn assert_traces_equivalent(radix: &[(u64, NodeId)], binary: &[(u64, NodeId)]) {
    let rk: Vec<u64> = radix.iter().map(|&(k, _)| k).collect();
    let bk: Vec<u64> = binary.iter().map(|&(k, _)| k).collect();
    assert_eq!(rk, bk, "settle key sequences diverged");
    let mut i = 0;
    while i < rk.len() {
        let mut j = i + 1;
        while j < rk.len() && rk[j] == rk[i] {
            j += 1;
        }
        let mut rn: Vec<NodeId> = radix[i..j].iter().map(|&(_, n)| n).collect();
        let mut bn: Vec<NodeId> = binary[i..j].iter().map(|&(_, n)| n).collect();
        rn.sort_unstable();
        bn.sort_unstable();
        assert_eq!(
            rn, bn,
            "equal-key tie group {i}..{j} settled different nodes"
        );
        i = j;
    }
}

fn providers_from(raw: &[(f64, f64, u32)]) -> Vec<FlowProvider> {
    raw.iter()
        .map(|&(x, y, cap)| FlowProvider {
            pos: Point::new(x, y),
            cap: cap.clamp(1, 6),
        })
        .collect()
}

fn customers_from(raw: &[(f64, f64, u32)]) -> Vec<FlowCustomer> {
    raw.iter()
        .map(|&(x, y, w)| FlowCustomer {
            pos: Point::new(x, y),
            weight: w.clamp(1, 3),
        })
        .collect()
}

/// Reference SSPA on an explicit residual graph: Algorithm 1's solve loop
/// over a [`FlowGraph`] and a [`DijkstraState`] on the given frontier.
/// Returns the assignment, the number of searches and the frontier counters.
fn solve_on(
    frontier: FrontierKind,
    providers: &[FlowProvider],
    customers: &[FlowCustomer],
) -> (Assignment, u64, HeapCounters) {
    let (s, t) = (0, 1);
    let q_node = |i: usize| (2 + i) as NodeId;
    let p_node = |j: usize| (2 + providers.len() + j) as NodeId;
    let mut g = FlowGraph::with_nodes(2 + providers.len() + customers.len());
    for (i, q) in providers.iter().enumerate() {
        g.add_edge(s, q_node(i), q.cap, 0.0);
    }
    let mut qp_edges = Vec::new();
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
    let mut d = DijkstraState::with_frontier(frontier);
    let (mut units, mut searches) = (0u64, 0u64);
    while units < gamma {
        d.init(&g, s);
        let alpha_t = d.run_until(&g, t, None).unwrap().expect("γ is reachable");
        let limit = (gamma - units).min(u64::from(u32::MAX)) as u32;
        units += u64::from(d.augment_bottleneck(&mut g, t, limit));
        g.update_potentials(d.settled_nodes(), |v| d.alpha(v), alpha_t);
        searches += 1;
    }
    let mut asg = Assignment::default();
    for (e, i, j) in qp_edges {
        let f = g.edge_flow(e);
        if f > 0 {
            asg.pairs.push((i, j, f));
            asg.cost += f64::from(f) * providers[i].pos.dist(&customers[j].pos);
        }
    }
    (asg, searches, d.heap_counters())
}

proptest! {
    /// Cold Dijkstra: both frontiers settle the same nodes at bit-identical
    /// distances, in the same order up to equal-key ties.
    #[test]
    fn prop_settle_order_matches_up_to_ties(
        n in 2usize..24,
        edges in proptest::collection::vec(
            (0usize..24, 0usize..24, 1u32..4, 0.0..50.0f64), 1..80),
    ) {
        let g = build_graph(n, &edges);
        let radix = settle_trace(&g, 0, FrontierKind::Radix);
        let binary = settle_trace(&g, 0, FrontierKind::Binary);
        assert_traces_equivalent(&radix, &binary);
    }

    /// PUA edge insertion + drain: the resumable path that can break radix
    /// monotonicity (and trigger the binary fallback) still yields
    /// bit-identical distances on every node both engines reached.
    #[test]
    fn prop_pua_resume_matches_binary(
        n in 3usize..20,
        edges in proptest::collection::vec(
            (0usize..20, 0usize..20, 1u32..3, 0.0..50.0f64), 1..50),
        inserts in proptest::collection::vec(
            (0usize..20, 0usize..20, 0.0..50.0f64), 1..8),
    ) {
        let mut runs: Vec<Vec<u64>> = Vec::new();
        for kind in [FrontierKind::Radix, FrontierKind::Binary] {
            let mut g = build_graph(n, &edges);
            let sink = (n - 1) as NodeId;
            let mut d = DijkstraState::with_frontier(kind);
            d.init(&g, 0);
            let reached = d.run_until(&g, sink, None).expect("no context, no abort").is_some();
            for &(u, v, cost) in &inserts {
                let (u, v) = (u % n, v % n);
                if u == v {
                    continue;
                }
                let e = g.add_edge(u as NodeId, v as NodeId, 1, cost);
                d.pua_insert_edge(&g, e);
                if reached && d.is_settled(sink) {
                    d.drain_below_sink(&g, sink, None).expect("no context, no abort");
                }
            }
            runs.push((0..n as NodeId).map(|v| d.alpha(v).to_bits()).collect());
        }
        prop_assert_eq!(&runs[0], &runs[1], "PUA-corrected distances diverged");
    }

    /// Cold SSPA on the reference graph solver: the radix engine's final
    /// matching cost is bit-identical to the binary (old) engine's on
    /// random weighted instances, and the dense [`Sspa::solve`] reaches the
    /// same size at the same cost within 1e-9 relative.
    #[test]
    fn prop_sspa_cost_bits_match_binary(
        praw in proptest::collection::vec(
            (0.0..1000.0f64, 0.0..1000.0f64, 1u32..6), 1..6),
        craw in proptest::collection::vec(
            (0.0..1000.0f64, 0.0..1000.0f64, 1u32..3), 1..12),
    ) {
        let providers = providers_from(&praw);
        let customers = customers_from(&craw);
        let (radix, rs, _) = solve_on(FrontierKind::Radix, &providers, &customers);
        let (binary, bs, bc) = solve_on(FrontierKind::Binary, &providers, &customers);
        prop_assert_eq!(
            radix.cost.to_bits(), binary.cost.to_bits(),
            "cost diverged: {} vs {}", radix.cost, binary.cost);
        prop_assert_eq!(radix.size(), binary.size());
        prop_assert_eq!(rs, bs);
        // The binary engine performs no radix operations at all.
        prop_assert_eq!(bc.radix_fallbacks, 0);

        let (dense, _) = Sspa::default()
            .solve(&providers, &customers)
            .expect("no context, no abort");
        prop_assert_eq!(dense.size(), radix.size());
        prop_assert!(
            (dense.cost - radix.cost).abs() <= 1e-9 * radix.cost.max(1.0),
            "dense {} vs graph {}", dense.cost, radix.cost);
    }
}
