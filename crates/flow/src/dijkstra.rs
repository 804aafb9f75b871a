//! Dijkstra over reduced costs, with resumable state and the Path Update
//! Algorithm (PUA, Algorithm 5).
//!
//! The incremental algorithms compute each augmenting path with Dijkstra on
//! reduced costs, as SSPA does (§2.2), over the sparse graph `Esub` they
//! grow. They additionally need to *resume* a computation after inserting
//! a new edge instead of restarting (§3.4.1):
//! [`DijkstraState::pua_insert_edge`] runs the bounded relaxation wave of
//! Algorithm 5 and [`DijkstraState::drain_below_sink`] re-settles any node
//! whose corrected distance dropped below the sink's, so the settled set
//! always equals `{v : α(v) < α(t)}` plus the sink — the precondition of the
//! potential update.
//!
//! # Frontier queue
//!
//! The frontier (`Hd`) is a monotone radix queue keyed on the
//! order-preserving u64 bit pattern of the (non-negative) distances —
//! Dijkstra keys never decrease, so bucket operations replace the binary
//! heap's `log n` pointer-chasing sift. PUA's wave and `EPS`-tolerant
//! settles can occasionally violate monotonicity; the first such push
//! migrates the run to a binary heap with identical lazy-decrease-key
//! semantics, so correctness never depends on the monotone assumption.
//! The two frontiers are pinned equivalent by proptest (the crate's
//! `frontier_equivalence` tests, against a binary-only reference state).
//! The wave heap (`Hf`) stays a binary heap: improved settled nodes arrive
//! in arbitrary key order by construction.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use cca_geo::OrdF64;
use cca_storage::{Aborted, QueryContext};

use crate::graph::{ArcId, FlowGraph, NodeId, NO_ARC};
use crate::radix::RadixQueue;

/// Tolerance for floating-point noise in reduced costs. Distances are O(10³)
/// (the normalised world), so 1e-7 absolute slack is ~12 decimal digits of
/// headroom below the signal.
pub const EPS: f64 = 1e-7;

/// Settles between [`QueryContext`] polls in the search loops.
/// A poll is an atomic load plus (at worst) an `Instant::now`; at
/// 64-iteration stride its cost is noise against the loop body, yet a
/// deadline or cancellation is still observed within microseconds — the
/// CPU-bound analogue of the storage layer's poll-before-every-page-access.
const CTX_POLL_STRIDE: u32 = 64;

/// Strided cooperative poll: checks `ctx` every [`CTX_POLL_STRIDE`] calls
/// (counting down through `counter`), erroring with the typed [`Aborted`].
#[inline]
fn poll(ctx: Option<&QueryContext>, counter: &mut u32) -> Result<(), Aborted> {
    if let Some(ctx) = ctx {
        if *counter == 0 {
            *counter = CTX_POLL_STRIDE;
            ctx.check()?;
        }
        *counter -= 1;
    }
    Ok(())
}

/// The frontier queue: a radix queue until monotonicity breaks, a binary
/// heap after (or throughout, for the tests' binary-only reference). Both
/// sides use lazy decrease-key and order entries by `(key bits, node)`,
/// which for the non-negative keys Dijkstra produces is exactly the
/// ordering of the old `BinaryHeap<Reverse<(OrdF64, NodeId)>>` frontier.
struct Frontier {
    radix: RadixQueue,
    binary: BinaryHeap<Reverse<(u64, NodeId)>>,
    /// The current run has migrated to (or started on) the binary heap.
    use_binary: bool,
    /// Every run starts on the binary heap (the tests' reference only).
    prefer_binary: bool,
}

impl Frontier {
    fn new() -> Self {
        Frontier {
            radix: RadixQueue::new(),
            binary: BinaryHeap::new(),
            use_binary: false,
            prefer_binary: false,
        }
    }

    #[cfg(test)]
    fn binary_only() -> Self {
        Frontier {
            use_binary: true,
            prefer_binary: true,
            ..Self::new()
        }
    }

    /// Empties both sides (keeping allocations) and re-arms the preferred
    /// queue for the next run.
    fn clear(&mut self) {
        self.radix.clear();
        self.binary.clear();
        self.use_binary = self.prefer_binary;
    }

    /// Pushes an entry, migrating the run from the radix queue to the
    /// binary heap if the key breaks monotonicity.
    #[inline]
    fn push(&mut self, key: u64, v: NodeId) {
        if self.use_binary {
            self.binary.push(Reverse((key, v)));
            return;
        }
        if let Err((k, n)) = self.radix.push(key, v) {
            // Monotonicity broke: move every queued entry to the binary
            // heap and finish the run there. Nothing is lost or reordered —
            // both sides pop exact minima.
            let binary = &mut self.binary;
            self.radix.drain_into(|k, n| binary.push(Reverse((k, n))));
            binary.push(Reverse((k, n)));
            self.use_binary = true;
        }
    }

    #[inline]
    fn pop(&mut self) -> Option<(u64, NodeId)> {
        if self.use_binary {
            self.binary.pop().map(|Reverse(e)| e)
        } else {
            self.radix.pop()
        }
    }

    #[inline]
    fn peek_min(&mut self) -> Option<(u64, NodeId)> {
        if self.use_binary {
            self.binary.peek().map(|&Reverse(e)| e)
        } else {
            self.radix.peek_min()
        }
    }
}

/// Resumable single-source shortest-path state over a [`FlowGraph`].
///
/// Node bookkeeping uses *epochs* so `init` is O(1) amortised rather than
/// O(|V|): an entry is valid only if its epoch matches the current run's.
pub struct DijkstraState {
    alpha: Vec<f64>,
    parent: Vec<ArcId>,
    settled: Vec<bool>,
    epoch_of: Vec<u32>,
    epoch: u32,
    /// Frontier queue (`Hd` in the paper); lazy decrease-key.
    frontier: Frontier,
    /// Re-relaxation wave over improved *settled* nodes (`Hf`, Algorithm 5).
    wave: BinaryHeap<Reverse<(OrdF64, NodeId)>>,
    /// Settled nodes of the current run, in settle order. α values must be
    /// re-read at use time — PUA may improve them after settling.
    settled_list: Vec<NodeId>,
    source: NodeId,
}

impl DijkstraState {
    pub fn new() -> Self {
        DijkstraState {
            alpha: Vec::new(),
            parent: Vec::new(),
            settled: Vec::new(),
            epoch_of: Vec::new(),
            epoch: 0,
            frontier: Frontier::new(),
            wave: BinaryHeap::new(),
            settled_list: Vec::new(),
            source: 0,
        }
    }

    /// The equivalence tests' reference: every run uses the plain binary
    /// heap, as the pre-radix engine did.
    #[cfg(test)]
    pub(crate) fn binary_only() -> Self {
        DijkstraState {
            frontier: Frontier::binary_only(),
            ..Self::new()
        }
    }

    /// Frontier push of a non-negative distance key.
    #[inline]
    fn fpush(&mut self, key: f64, v: NodeId) {
        debug_assert!(key >= 0.0, "Dijkstra keys are non-negative");
        self.frontier.push(key.to_bits(), v);
    }

    /// Frontier pop, decoding the distance key.
    #[inline]
    fn fpop(&mut self) -> Option<(f64, NodeId)> {
        self.frontier.pop().map(|(k, v)| (f64::from_bits(k), v))
    }

    fn ensure(&mut self, n: usize) {
        if self.alpha.len() < n {
            self.alpha.resize(n, f64::INFINITY);
            self.parent.resize(n, NO_ARC);
            self.settled.resize(n, false);
            self.epoch_of.resize(n, 0);
        }
    }

    #[inline]
    fn fresh(&self, v: NodeId) -> bool {
        self.epoch_of[v as usize] == self.epoch
    }

    fn touch(&mut self, v: NodeId) {
        let i = v as usize;
        if self.epoch_of[i] != self.epoch {
            self.epoch_of[i] = self.epoch;
            self.alpha[i] = f64::INFINITY;
            self.parent[i] = NO_ARC;
            self.settled[i] = false;
        }
    }

    /// Starts a new computation from `source`.
    pub fn init(&mut self, g: &FlowGraph, source: NodeId) {
        self.ensure(g.num_nodes());
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // Extremely rare wrap: hard reset keeps epoch logic sound.
            self.epoch_of.iter_mut().for_each(|e| *e = 0);
            self.epoch = 1;
        }
        self.frontier.clear();
        self.wave.clear();
        self.settled_list.clear();
        self.source = source;
        self.touch(source);
        self.alpha[source as usize] = 0.0;
        self.fpush(0.0, source);
    }

    /// α(v), or `+∞` if unreached in this run.
    #[inline]
    pub fn alpha(&self, v: NodeId) -> f64 {
        if (v as usize) < self.alpha.len() && self.fresh(v) {
            self.alpha[v as usize]
        } else {
            f64::INFINITY
        }
    }

    /// True if `v` has been settled (de-heaped) in this run.
    #[inline]
    pub fn is_settled(&self, v: NodeId) -> bool {
        (v as usize) < self.settled.len() && self.fresh(v) && self.settled[v as usize]
    }

    /// The arc through which `v` was reached, or `NO_ARC`.
    #[inline]
    pub fn parent_arc(&self, v: NodeId) -> ArcId {
        if (v as usize) < self.parent.len() && self.fresh(v) {
            self.parent[v as usize]
        } else {
            NO_ARC
        }
    }

    /// Settled nodes of the current run (the "visited nodes" of Algorithm 1
    /// lines 8–9). Read current α via [`DijkstraState::alpha`].
    pub fn settled_nodes(&self) -> &[NodeId] {
        &self.settled_list
    }

    /// Relaxes one arc; routes improvements to the wave (settled heads) or
    /// the frontier heap (unsettled heads). Returns true on improvement.
    fn relax_arc(&mut self, g: &FlowGraph, a: ArcId) -> bool {
        if g.residual_cap(a) == 0 {
            return false;
        }
        let u = g.arc_from(a);
        debug_assert!(self.is_settled(u), "relaxing from unsettled node");
        let rc = g.reduced_cost(a);
        debug_assert!(
            rc > -EPS,
            "negative reduced cost {rc} on arc {a} ({} -> {})",
            g.arc_from(a),
            g.arc_to(a)
        );
        let v = g.arc_to(a);
        self.touch(v);
        let cand = self.alpha[u as usize] + rc.max(0.0);
        if cand + EPS < self.alpha[v as usize] {
            self.alpha[v as usize] = cand;
            self.parent[v as usize] = a;
            if self.settled[v as usize] {
                self.wave.push(Reverse((OrdF64::new(cand), v)));
            } else {
                self.fpush(cand, v);
            }
            true
        } else {
            false
        }
    }

    /// Relaxes all residual out-arcs of settled node `u` by walking the
    /// graph's intrusive arc chain — no allocation, no re-indexing.
    ///
    /// This is the settle loop's inner loop, so unlike the generic
    /// [`Self::relax_arc`] it hoists the tail's α and τ out of the walk:
    /// per arc it touches only the `next`/`res`/`cost`/`to` columns at `a`
    /// plus the head's τ — never the paired arc `a ^ 1` the generic path
    /// reads to recover the tail.
    fn relax_out(&mut self, g: &FlowGraph, u: NodeId) {
        debug_assert!(self.is_settled(u), "relaxing from unsettled node");
        let alpha_u = self.alpha[u as usize];
        let tau_u = g.tau(u);
        let mut a = g.first_arc(u);
        while a != NO_ARC {
            let next = g.next_arc(a);
            if g.residual_cap(a) != 0 {
                let v = g.arc_to(a);
                let rc = g.arc_cost(a) - tau_u + g.tau(v);
                debug_assert!(rc > -EPS, "negative reduced cost {rc} on arc {a}");
                self.touch(v);
                let cand = alpha_u + rc.max(0.0);
                if cand + EPS < self.alpha[v as usize] {
                    self.alpha[v as usize] = cand;
                    self.parent[v as usize] = a;
                    if self.settled[v as usize] {
                        self.wave.push(Reverse((OrdF64::new(cand), v)));
                    } else {
                        self.fpush(cand, v);
                    }
                }
            }
            a = next;
        }
    }

    /// Processes the re-relaxation wave (`Hf`) until empty: every improved
    /// settled node gets its out-arcs re-relaxed, transitively.
    fn propagate(&mut self, g: &FlowGraph) {
        while let Some(Reverse((key, u))) = self.wave.pop() {
            if key.get() > self.alpha[u as usize] + EPS {
                continue; // stale wave entry
            }
            self.relax_out(g, u);
        }
    }

    /// Runs until `target` is settled (returns immediately if it already
    /// is). Returns `α(target)`, or `None` if the target is unreachable in
    /// the current residual graph.
    ///
    /// With a [`QueryContext`] the settle loop polls it every few dozen
    /// iterations and unwinds with a typed [`Aborted`] on cancellation or an
    /// expired deadline — so a CPU-bound search on a large graph cannot
    /// overshoot its deadline even when it touches no page at all. The state
    /// is left consistent (settled prefix plus frontier); an aborted
    /// computation may simply be dropped, or resumed if the caller clears
    /// the abort source. Without a context it cannot abort.
    pub fn run_until(
        &mut self,
        g: &FlowGraph,
        target: NodeId,
        ctx: Option<&QueryContext>,
    ) -> Result<Option<f64>, Aborted> {
        self.ensure(g.num_nodes());
        if self.is_settled(target) {
            return Ok(Some(self.alpha(target)));
        }
        let mut until_poll = 0u32;
        loop {
            // Poll before de-heaping so an abort leaves the frontier intact.
            poll(ctx, &mut until_poll)?;
            let Some((key, u)) = self.fpop() else {
                return Ok(None);
            };
            // Frontier entries are always fresh (pushed after `touch`), so
            // the per-epoch arrays are directly valid here.
            let ui = u as usize;
            if self.settled[ui] || key > self.alpha[ui] + EPS {
                continue; // settled already, or stale key
            }
            self.settled[ui] = true;
            self.settled_list.push(u);
            if u == target {
                return Ok(Some(self.alpha[ui]));
            }
            self.relax_out(g, u);
            self.propagate(g);
        }
    }

    /// PUA (Algorithm 5): after edge `e` was added to the graph, propagate
    /// any distance improvements through the settled region.
    ///
    /// If the forward arc's tail is not settled the new edge will be relaxed
    /// normally when (if) the tail settles, so there is nothing to do.
    pub fn pua_insert_edge(&mut self, g: &FlowGraph, e: u32) {
        self.ensure(g.num_nodes());
        let fwd: ArcId = 2 * e;
        let q = g.arc_from(fwd);
        if !self.is_settled(q) {
            return;
        }
        self.relax_arc(g, fwd);
        self.propagate(g);
    }

    /// Settles every node whose distance is strictly below the sink's
    /// current α. Called after PUA so the settled set again equals
    /// `{v : α(v) < α(t)} ∪ {t, …}`, which the potential update relies on.
    /// Polls `ctx` like [`DijkstraState::run_until`].
    ///
    /// # Panics
    /// Debug-asserts that the sink is settled.
    pub fn drain_below_sink(
        &mut self,
        g: &FlowGraph,
        t: NodeId,
        ctx: Option<&QueryContext>,
    ) -> Result<(), Aborted> {
        debug_assert!(self.is_settled(t), "drain requires a settled sink");
        self.propagate(g);
        let mut until_poll = 0u32;
        loop {
            poll(ctx, &mut until_poll)?;
            // The bound can shrink while draining (a drained node may relax
            // an arc into t through the wave), so re-read it every step.
            let bound = self.alpha[t as usize];
            let Some((kbits, _)) = self.frontier.peek_min() else {
                return Ok(());
            };
            if f64::from_bits(kbits) + EPS >= bound {
                return Ok(());
            }
            let Some((key, u)) = self.fpop() else {
                return Ok(());
            };
            let ui = u as usize;
            if self.settled[ui] || key > self.alpha[ui] + EPS {
                continue;
            }
            self.settled[ui] = true;
            self.settled_list.push(u);
            self.relax_out(g, u);
            self.propagate(g);
        }
    }

    /// Walks parent arcs from `t` back to the source, returning the arcs in
    /// path order (source first).
    pub fn extract_path(&self, g: &FlowGraph, t: NodeId) -> Vec<ArcId> {
        let mut arcs = Vec::new();
        let mut v = t;
        while v != self.source {
            let a = self.parent_arc(v);
            assert_ne!(a, NO_ARC, "no path recorded to node {v}");
            arcs.push(a);
            v = g.arc_from(a);
        }
        arcs.reverse();
        arcs
    }
}

impl Default for DijkstraState {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frontier_equivalence::augment_bottleneck;

    /// Chain 0 → 1 → 2 → 3 with unit capacities plus a direct 0 → 3 edge.
    fn diamond() -> FlowGraph {
        let mut g = FlowGraph::with_nodes(4);
        g.add_edge(0, 1, 1, 1.0); // e0
        g.add_edge(1, 2, 1, 1.0); // e1
        g.add_edge(2, 3, 1, 1.0); // e2
        g.add_edge(0, 3, 1, 10.0); // e3
        g
    }

    #[test]
    fn shortest_path_simple_chain() {
        let g = diamond();
        let mut d = DijkstraState::new();
        d.init(&g, 0);
        assert_eq!(d.run_until(&g, 3, None), Ok(Some(3.0)));
        let path = d.extract_path(&g, 3);
        assert_eq!(path, vec![0, 2, 4]); // forward arcs of e0, e1, e2
    }

    #[test]
    fn both_frontiers_agree_on_the_diamond() {
        for (mut d, binary) in [
            (DijkstraState::new(), false),
            (DijkstraState::binary_only(), true),
        ] {
            let g = diamond();
            d.init(&g, 0);
            assert_eq!(d.run_until(&g, 3, None), Ok(Some(3.0)), "binary={binary}");
            assert_eq!(d.extract_path(&g, 3), vec![0, 2, 4], "binary={binary}");
            assert_eq!(d.frontier.use_binary, binary, "no fallback on the diamond");
        }
    }

    #[test]
    fn run_until_is_idempotent_once_settled() {
        let g = diamond();
        let mut d = DijkstraState::new();
        d.init(&g, 0);
        assert_eq!(d.run_until(&g, 3, None), Ok(Some(3.0)));
        assert_eq!(d.run_until(&g, 3, None), Ok(Some(3.0)));
    }

    #[test]
    fn unreachable_target_returns_none() {
        let mut g = FlowGraph::with_nodes(3);
        g.add_edge(0, 1, 1, 1.0);
        let mut d = DijkstraState::new();
        d.init(&g, 0);
        assert_eq!(d.run_until(&g, 2, None), Ok(None));
    }

    #[test]
    fn saturated_edges_are_skipped() {
        let mut g = diamond();
        g.push_flow(0, 1); // saturate 0 -> 1
        let mut d = DijkstraState::new();
        d.init(&g, 0);
        assert_eq!(
            d.run_until(&g, 3, None),
            Ok(Some(10.0)),
            "must use the direct edge"
        );
    }

    #[test]
    fn augment_reverses_path() {
        let mut g = diamond();
        let mut d = DijkstraState::new();
        d.init(&g, 0);
        d.run_until(&g, 3, None).unwrap();
        assert_eq!(augment_bottleneck(&d, &mut g, 3, u32::MAX), 1);
        assert_eq!(g.edge_flow(0), 1);
        assert_eq!(g.edge_flow(1), 1);
        assert_eq!(g.edge_flow(2), 1);
        assert_eq!(g.edge_flow(3), 0);
        // Residual arcs now allow the reverse walk.
        assert_eq!(g.residual_cap(1), 1); // reverse of e0
    }

    #[test]
    fn epochs_isolate_runs() {
        let g = diamond();
        let mut d = DijkstraState::new();
        d.init(&g, 0);
        d.run_until(&g, 3, None).unwrap();
        assert!(d.is_settled(1));
        d.init(&g, 2);
        assert!(!d.is_settled(1), "previous run's state must be invisible");
        assert_eq!(d.alpha(0), f64::INFINITY);
        assert_eq!(d.run_until(&g, 3, None), Ok(Some(1.0)));
    }

    #[test]
    fn settled_list_matches_flags_and_order() {
        let g = diamond();
        let mut d = DijkstraState::new();
        d.init(&g, 0);
        d.run_until(&g, 3, None).unwrap();
        for &v in d.settled_nodes() {
            assert!(d.is_settled(v));
        }
        let dists: Vec<f64> = d.settled_nodes().iter().map(|&v| d.alpha(v)).collect();
        assert!(dists.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn pua_improves_distances_after_edge_insert() {
        let mut g = FlowGraph::with_nodes(4);
        g.add_edge(0, 1, 1, 5.0);
        g.add_edge(1, 2, 1, 5.0);
        g.add_edge(2, 3, 1, 0.0);
        let mut d = DijkstraState::new();
        d.init(&g, 0);
        assert_eq!(d.run_until(&g, 3, None), Ok(Some(10.0)));
        // New edge 1 -> 3 with cost 1: path 0->1->3 costs 6.
        let e = g.add_edge(1, 3, 1, 1.0);
        d.pua_insert_edge(&g, e);
        assert_eq!(d.alpha(3), 6.0, "PUA must propagate the improvement");
        d.drain_below_sink(&g, 3, None).unwrap();
        let path = d.extract_path(&g, 3);
        assert_eq!(path.len(), 2);
    }

    #[test]
    fn pua_improvement_propagates_through_settled_chain() {
        // After 0→1→2→3 settles (cost 3 each hop), a cheap edge 0→2 must
        // transitively improve node 3 as well.
        let mut g = FlowGraph::with_nodes(5);
        g.add_edge(0, 1, 1, 3.0);
        g.add_edge(1, 2, 1, 3.0);
        g.add_edge(2, 3, 1, 3.0);
        g.add_edge(3, 4, 1, 0.0);
        let mut d = DijkstraState::new();
        d.init(&g, 0);
        assert_eq!(d.run_until(&g, 4, None), Ok(Some(9.0)));
        let e = g.add_edge(0, 2, 1, 1.0);
        d.pua_insert_edge(&g, e);
        assert_eq!(d.alpha(2), 1.0);
        assert_eq!(d.alpha(3), 4.0, "wave must reach node 3");
        assert_eq!(d.alpha(4), 4.0, "and the sink");
    }

    #[test]
    fn pua_ignores_edges_from_unsettled_tails() {
        let mut g = FlowGraph::with_nodes(4);
        g.add_edge(0, 1, 1, 1.0);
        let mut d = DijkstraState::new();
        d.init(&g, 0);
        d.run_until(&g, 1, None).unwrap();
        // Node 2 was never reached; an edge out of it must be a no-op.
        let e = g.add_edge(2, 3, 1, 1.0);
        d.pua_insert_edge(&g, e);
        assert_eq!(d.alpha(3), f64::INFINITY);
    }

    #[test]
    fn drain_settles_nodes_below_new_sink_distance() {
        // Frontier node 3 (α=9) must be settled once the sink improves past
        // it... here the sink stays at 11 and 3 sits below it.
        let mut g = FlowGraph::with_nodes(5);
        g.add_edge(0, 1, 1, 1.0);
        g.add_edge(0, 3, 1, 9.0);
        g.add_edge(1, 4, 1, 10.0);
        let mut d = DijkstraState::new();
        d.init(&g, 0);
        assert_eq!(d.run_until(&g, 4, None), Ok(Some(11.0)));
        assert!(d.is_settled(3), "3 settles before the sink at α=9");
        // Insert an edge that improves nothing; drain is a no-op.
        let e = g.add_edge(1, 4, 1, 50.0);
        d.pua_insert_edge(&g, e);
        d.drain_below_sink(&g, 4, None).unwrap();
        assert_eq!(d.alpha(4), 11.0);
    }

    #[test]
    fn pua_below_minimum_push_falls_back_to_binary() {
        // Settle a chain, then insert an edge whose relaxation pushes a
        // frontier key *below* the last popped minimum: the radix queue must
        // migrate to the binary heap instead of misfiling.
        let mut g = FlowGraph::with_nodes(5);
        g.add_edge(0, 1, 1, 2.0); // settled at 2
        g.add_edge(1, 2, 1, 6.0); // settled at 8 (last popped minimum)
        g.add_edge(0, 3, 1, 7.0); // frontier... settled at 7 before 8
        g.add_edge(1, 4, 1, 20.0); // far frontier node, stays queued
        let mut d = DijkstraState::new();
        d.init(&g, 0);
        assert_eq!(d.run_until(&g, 2, None), Ok(Some(8.0)));
        assert!(!d.frontier.use_binary, "monotone so far: still on radix");
        // New edge 0 → 4 with cost 3: candidate key 3 < last minimum 8.
        let e = g.add_edge(0, 4, 1, 3.0);
        d.pua_insert_edge(&g, e);
        assert!(d.frontier.use_binary, "the non-monotone push migrated");
        assert!(d.frontier.radix.is_empty(), "every entry moved across");
        assert_eq!(d.alpha(4), 3.0);
        // The migrated frontier still settles correctly.
        assert_eq!(d.run_until(&g, 4, None), Ok(Some(3.0)));
    }

    #[test]
    fn aborted_context_stops_the_settle_loop() {
        use cca_storage::AbortReason;
        let g = diamond();
        let mut d = DijkstraState::new();
        let ctx = QueryContext::new();
        ctx.cancel();
        d.init(&g, 0);
        let err = d.run_until(&g, 3, Some(&ctx)).unwrap_err();
        assert_eq!(err.reason, AbortReason::Cancelled);
        // An expired deadline aborts too — no page access involved.
        let late = QueryContext::new()
            .with_deadline(std::time::Instant::now() - std::time::Duration::from_millis(1));
        d.init(&g, 0);
        assert_eq!(
            d.run_until(&g, 3, Some(&late)).unwrap_err().reason,
            AbortReason::DeadlineExceeded
        );
        // A clean context is invisible: same result as no context.
        let clean = QueryContext::new();
        d.init(&g, 0);
        assert_eq!(d.run_until(&g, 3, Some(&clean)), Ok(Some(3.0)));
        assert_eq!(
            d.drain_below_sink(&g, 3, Some(&clean)),
            Ok(()),
            "drain under a clean context is a no-op here"
        );
    }

    #[test]
    fn resume_after_unreachable_picks_up_new_edges() {
        let mut g = FlowGraph::with_nodes(4);
        g.add_edge(0, 1, 1, 2.0);
        let mut d = DijkstraState::new();
        d.init(&g, 0);
        assert_eq!(d.run_until(&g, 3, None), Ok(None), "sink not yet connected");
        let e = g.add_edge(1, 3, 1, 4.0);
        d.pua_insert_edge(&g, e);
        assert_eq!(d.run_until(&g, 3, None), Ok(Some(6.0)));
    }
}
