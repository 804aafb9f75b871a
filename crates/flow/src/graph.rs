//! Residual flow graph with paired arcs and node potentials.
//!
//! This is the graph substrate of the paper's §2.1–2.2: nodes are
//! `{s, t} ∪ Q ∪ P`, each logical edge is stored as a forward/backward arc
//! pair, and every node `v` carries a potential `v.τ`. The *reduced cost* of
//! an arc is `w(u,v) = cost(u,v) − τ(u) + τ(v)` exactly as defined in §2.2;
//! the paper's "edge reversal" during augmentation is flow pushed on the arc
//! pair.
//!
//! The graph is deliberately *incremental*: the CCA algorithms start from an
//! (almost) empty edge set `Esub` and call [`FlowGraph::add_edge`] as
//! Theorem 1 demands more edges.
//!
//! # Memory layout
//!
//! Everything is struct-of-arrays over flat arenas — there is no per-node or
//! per-arc heap object anywhere:
//!
//! * Arc columns `to`, `cost`, `res`, `next`, indexed by [`ArcId`]. The relax
//!   loop streams `next`/`res`/`to`/`cost` and never touches a second
//!   allocation; `from(a)` is simply `to[a ^ 1]` (the partner arc's head),
//!   one element away in the same column.
//! * Adjacency is an intrusive linked list threaded through the `next`
//!   column: `head[u]` is `u`'s first out-arc, `next[a]` the following one.
//!   `tail[u]` makes `add_edge` O(1) *and* keeps iteration in insertion
//!   order — the order the old `Vec<Vec<ArcId>>` adjacency produced — so
//!   parent-arc choices (and therefore tie-broken optima) are unchanged.
//! * `cap`/`flow` per edge are folded into a single per-arc residual column:
//!   `res[2e]` is the forward slack `cap − flow`, `res[2e+1]` the flow
//!   itself. [`FlowGraph::residual_cap`] becomes a branchless single load —
//!   the quantity every relax step actually needs — and a flow push is two
//!   adjacent updates.

/// Node identifier (dense).
pub type NodeId = u32;

/// Arc identifier. Arcs come in pairs: arc `2e` is the forward arc of edge
/// `e`, arc `2e+1` its reverse.
pub type ArcId = u32;

/// Sentinel for "no arc" (used in parent pointers and adjacency links).
pub const NO_ARC: ArcId = u32::MAX;

/// The residual graph.
pub struct FlowGraph {
    // ---- arc columns (SoA, indexed by ArcId) ----
    /// Head node of each arc. The tail is `to[a ^ 1]`.
    to: Vec<NodeId>,
    /// Base cost (`dist` for q→p edges, 0 for source/sink edges, negated on
    /// the reverse arc).
    cost: Vec<f64>,
    /// Residual capacity per arc: `res[2e] = cap − flow`, `res[2e+1] = flow`.
    res: Vec<u32>,
    /// Next out-arc of the same tail node (`NO_ARC` terminates the list).
    next: Vec<ArcId>,
    // ---- node columns ----
    /// First out-arc per node (`NO_ARC` when none).
    head: Vec<ArcId>,
    /// Last out-arc per node — O(1) append in insertion order.
    tail: Vec<ArcId>,
    /// Node potentials `τ` (§2.2), all zero initially.
    tau: Vec<f64>,
}

impl FlowGraph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        FlowGraph {
            to: Vec::new(),
            cost: Vec::new(),
            res: Vec::new(),
            next: Vec::new(),
            head: Vec::new(),
            tail: Vec::new(),
            tau: Vec::new(),
        }
    }

    /// Creates a graph with `nodes` pre-allocated nodes.
    pub fn with_nodes(nodes: usize) -> Self {
        let mut g = FlowGraph::new();
        g.head.resize(nodes, NO_ARC);
        g.tail.resize(nodes, NO_ARC);
        g.tau.resize(nodes, 0.0);
        g
    }

    /// Adds a node with potential 0; returns its id.
    pub fn add_node(&mut self) -> NodeId {
        let id = NodeId::try_from(self.head.len()).expect("node id overflow");
        self.head.push(NO_ARC);
        self.tail.push(NO_ARC);
        self.tau.push(0.0);
        id
    }

    /// Number of nodes.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.head.len()
    }

    /// Number of logical edges (arc pairs).
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.to.len() / 2
    }

    /// Links arc `a` (already pushed into the arc columns) into `u`'s
    /// adjacency list, preserving insertion order.
    #[inline]
    fn link_arc(&mut self, u: NodeId, a: ArcId) {
        let u = u as usize;
        let t = self.tail[u];
        if t == NO_ARC {
            self.head[u] = a;
        } else {
            self.next[t as usize] = a;
        }
        self.tail[u] = a;
    }

    /// Adds a logical edge `u → v` with the given capacity and base cost;
    /// returns its edge id. The reverse residual arc is created
    /// automatically with cost `−cost` and residual capacity equal to the
    /// edge's flow.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId, cap: u32, cost: f64) -> u32 {
        debug_assert!(cost.is_finite());
        debug_assert!((u as usize) < self.num_nodes() && (v as usize) < self.num_nodes());
        let e = u32::try_from(self.num_edges()).expect("edge id overflow");
        let fwd = 2 * e;
        // Forward arc 2e.
        self.to.push(v);
        self.cost.push(cost);
        self.res.push(cap);
        self.next.push(NO_ARC);
        // Reverse arc 2e+1.
        self.to.push(u);
        self.cost.push(-cost);
        self.res.push(0);
        self.next.push(NO_ARC);
        self.link_arc(u, fwd);
        self.link_arc(v, fwd + 1);
        e
    }

    /// Iterates the outgoing arcs of `u` in insertion order (both
    /// directions; check [`FlowGraph::residual_cap`]). Walks the intrusive
    /// `next` chain — no allocation, no indirection.
    #[inline]
    pub fn arcs_from(&self, u: NodeId) -> ArcsFrom<'_> {
        ArcsFrom {
            next: &self.next,
            cur: self.head[u as usize],
        }
    }

    /// First out-arc of `u`, `NO_ARC` when none. With
    /// [`FlowGraph::next_arc`] this exposes the raw adjacency chain for
    /// hot loops that want to avoid even the iterator.
    #[inline]
    pub fn first_arc(&self, u: NodeId) -> ArcId {
        self.head[u as usize]
    }

    /// Successor of `a` in its tail node's adjacency chain.
    #[inline]
    pub fn next_arc(&self, a: ArcId) -> ArcId {
        self.next[a as usize]
    }

    #[inline]
    pub fn arc_from(&self, a: ArcId) -> NodeId {
        // The partner arc points back at the tail.
        self.to[(a ^ 1) as usize]
    }

    #[inline]
    pub fn arc_to(&self, a: ArcId) -> NodeId {
        self.to[a as usize]
    }

    /// Base (non-reduced) cost of an arc.
    #[inline]
    pub fn arc_cost(&self, a: ArcId) -> f64 {
        self.cost[a as usize]
    }

    /// Edge id an arc belongs to.
    #[inline]
    pub fn arc_edge(&self, a: ArcId) -> u32 {
        a / 2
    }

    /// Residual capacity of an arc — a single branchless load.
    #[inline]
    pub fn residual_cap(&self, a: ArcId) -> u32 {
        self.res[a as usize]
    }

    /// Reduced cost `cost(u,v) − τ(u) + τ(v)` (§2.2).
    #[inline]
    pub fn reduced_cost(&self, a: ArcId) -> f64 {
        let a = a as usize;
        self.cost[a] - self.tau[self.to[a ^ 1] as usize] + self.tau[self.to[a] as usize]
    }

    /// Pushes `amount` units of flow along arc `a` (reverse arcs cancel
    /// forward flow).
    ///
    /// # Panics
    /// Debug-asserts residual capacity.
    pub fn push_flow(&mut self, a: ArcId, amount: u32) {
        debug_assert!(self.residual_cap(a) >= amount, "over-push on arc {a}");
        self.res[a as usize] -= amount;
        self.res[(a ^ 1) as usize] += amount;
    }

    /// Current flow on a logical edge (the reverse arc's residual).
    #[inline]
    pub fn edge_flow(&self, e: u32) -> u32 {
        self.res[(2 * e + 1) as usize]
    }

    /// Capacity of a logical edge (forward slack + flow).
    #[inline]
    pub fn edge_cap(&self, e: u32) -> u32 {
        self.res[(2 * e) as usize] + self.res[(2 * e + 1) as usize]
    }

    /// Potential of a node.
    #[inline]
    pub fn tau(&self, v: NodeId) -> f64 {
        self.tau[v as usize]
    }

    /// Sets a node potential directly (used by IDA's Theorem-2 fast-phase
    /// exit, which installs a closed-form feasible potential).
    #[inline]
    pub fn set_tau(&mut self, v: NodeId, value: f64) {
        self.tau[v as usize] = value;
    }

    /// Applies the SSPA potential update after a valid shortest path: every
    /// settled node `v` receives `τ(v) += max(0, α(t) − α(v))` (Algorithm 1
    /// lines 8–9; the `max` caps updates for nodes settled beyond the sink,
    /// which keeps reduced costs non-negative after PUA-style reruns).
    ///
    /// α values are read through the closure at call time because PUA may
    /// have improved them after the node settled.
    pub fn update_potentials(
        &mut self,
        settled: &[NodeId],
        alpha: impl Fn(NodeId) -> f64,
        alpha_t: f64,
    ) {
        for &v in settled {
            let delta = alpha_t - alpha(v);
            if delta > 0.0 {
                self.tau[v as usize] += delta;
            }
        }
    }

    /// Checks that every residual arc has non-negative reduced cost — the
    /// invariant Dijkstra's correctness rests on (§2.2). Returns the worst
    /// violation if any.
    pub fn check_reduced_costs(&self, eps: f64) -> Result<(), (ArcId, f64)> {
        let mut worst: Option<(ArcId, f64)> = None;
        for a in 0..self.to.len() as ArcId {
            if self.residual_cap(a) > 0 {
                let rc = self.reduced_cost(a);
                if rc < -eps && worst.is_none_or(|(_, w)| rc < w) {
                    worst = Some((a, rc));
                }
            }
        }
        match worst {
            None => Ok(()),
            Some(v) => Err(v),
        }
    }
}

/// Iterator over a node's out-arcs (see [`FlowGraph::arcs_from`]).
pub struct ArcsFrom<'g> {
    next: &'g [ArcId],
    cur: ArcId,
}

impl Iterator for ArcsFrom<'_> {
    type Item = ArcId;

    #[inline]
    fn next(&mut self) -> Option<ArcId> {
        if self.cur == NO_ARC {
            return None;
        }
        let a = self.cur;
        self.cur = self.next[a as usize];
        Some(a)
    }
}

impl Default for FlowGraph {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edges_create_arc_pairs() {
        let mut g = FlowGraph::with_nodes(3);
        let e = g.add_edge(0, 1, 5, 2.5);
        assert_eq!(e, 0);
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.arc_from(0), 0);
        assert_eq!(g.arc_to(0), 1);
        assert_eq!(g.arc_from(1), 1);
        assert_eq!(g.arc_to(1), 0);
        assert_eq!(g.arc_cost(0), 2.5);
        assert_eq!(g.arc_cost(1), -2.5);
    }

    #[test]
    fn residual_caps_track_flow() {
        let mut g = FlowGraph::with_nodes(2);
        let e = g.add_edge(0, 1, 3, 1.0);
        let fwd = 2 * e;
        let rev = 2 * e + 1;
        assert_eq!(g.residual_cap(fwd), 3);
        assert_eq!(g.residual_cap(rev), 0);
        assert_eq!(g.edge_cap(e), 3);
        g.push_flow(fwd, 2);
        assert_eq!(g.residual_cap(fwd), 1);
        assert_eq!(g.residual_cap(rev), 2);
        assert_eq!(g.edge_cap(e), 3, "capacity invariant under pushes");
        g.push_flow(rev, 1); // cancel one unit
        assert_eq!(g.edge_flow(e), 1);
        assert_eq!(g.residual_cap(fwd), 2);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "over-push")]
    fn over_push_panics_in_debug() {
        let mut g = FlowGraph::with_nodes(2);
        let e = g.add_edge(0, 1, 1, 1.0);
        g.push_flow(2 * e, 2);
    }

    #[test]
    fn reduced_cost_uses_potentials() {
        let mut g = FlowGraph::with_nodes(2);
        let e = g.add_edge(0, 1, 1, 10.0);
        assert_eq!(g.reduced_cost(2 * e), 10.0);
        g.set_tau(0, 3.0);
        g.set_tau(1, 1.0);
        // w = 10 - tau(0) + tau(1) = 8
        assert_eq!(g.reduced_cost(2 * e), 8.0);
        // reverse arc: -10 - 1 + 3 = -8
        assert_eq!(g.reduced_cost(2 * e + 1), -8.0);
    }

    #[test]
    fn update_potentials_caps_at_zero() {
        let mut g = FlowGraph::with_nodes(3);
        let alphas = [0.0, 2.0, 7.0];
        g.update_potentials(&[0, 1, 2], |v| alphas[v as usize], 5.0);
        assert_eq!(g.tau(0), 5.0);
        assert_eq!(g.tau(1), 3.0);
        assert_eq!(g.tau(2), 0.0, "nodes settled beyond α(t) get no update");
    }

    #[test]
    fn check_reduced_costs_reports_violations() {
        let mut g = FlowGraph::with_nodes(2);
        let e = g.add_edge(0, 1, 1, 1.0);
        assert!(g.check_reduced_costs(1e-9).is_ok());
        g.set_tau(0, 5.0); // reduced cost of forward arc becomes -4
        let (arc, rc) = g.check_reduced_costs(1e-9).unwrap_err();
        assert_eq!(arc, 2 * e);
        assert!((rc + 4.0).abs() < 1e-12);
        // Saturate the edge: the forward arc leaves the residual graph, the
        // reverse arc (reduced cost +4) enters, and the check passes again.
        g.push_flow(2 * e, 1);
        assert!(g.check_reduced_costs(1e-9).is_ok());
    }

    #[test]
    fn adjacency_includes_reverse_arcs() {
        let mut g = FlowGraph::with_nodes(3);
        g.add_edge(0, 1, 1, 1.0);
        g.add_edge(2, 1, 1, 1.0);
        assert_eq!(g.arcs_from(0).collect::<Vec<_>>(), vec![0]);
        // two reverse arcs
        assert_eq!(g.arcs_from(1).collect::<Vec<_>>(), vec![1, 3]);
        assert_eq!(g.arcs_from(2).collect::<Vec<_>>(), vec![2]);
    }

    #[test]
    fn arc_iteration_preserves_insertion_order() {
        // The linked-arena adjacency must reproduce the Vec<Vec<_>> order
        // exactly: per node, arcs appear in the order add_edge created them.
        let mut g = FlowGraph::with_nodes(4);
        g.add_edge(0, 1, 1, 1.0); // arcs 0 (0→1), 1 (1→0)
        g.add_edge(0, 2, 1, 1.0); // arcs 2 (0→2), 3 (2→0)
        g.add_edge(1, 0, 1, 1.0); // arcs 4 (1→0), 5 (0→1)
        g.add_edge(0, 3, 1, 1.0); // arcs 6 (0→3), 7 (3→0)
        assert_eq!(g.arcs_from(0).collect::<Vec<_>>(), vec![0, 2, 5, 6]);
        assert_eq!(g.arcs_from(1).collect::<Vec<_>>(), vec![1, 4]);
        assert_eq!(g.first_arc(0), 0);
        assert_eq!(g.next_arc(0), 2);
        assert_eq!(g.next_arc(6), NO_ARC);
        assert_eq!(g.first_arc(3), 7);
    }
}
