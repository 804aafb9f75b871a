//! The shared incremental-SSPA engine behind RIA, NIA and IDA.
//!
//! All three exact algorithms (§3) are SSPA instances that differ only in
//! *how they discover edges* and *how they bound the unexplored edge set*
//! (Theorem 1). This engine owns the shared machinery:
//!
//! * the growing flow graph over `{s, t} ∪ Q ∪ discovered(P)`,
//! * the per-iteration Dijkstra state with PUA re-optimisation,
//! * the Theorem-1 validity test and commit (augment + potential update,
//!   `τmax` maintenance, fullness tracking),
//! * IDA's Theorem-2 fast phase, including the closed-form feasible
//!   potential installed at phase exit (see `fast_phase` notes below).

use cca_flow::{DijkstraState, FlowGraph, NodeId};
use cca_geo::Point;
use cca_storage::QueryContext;

use crate::matching::{MatchPair, Matching};
use crate::stats::AlgoStats;

/// Slack for the Theorem-1 validity test. Accepting a path whose cost
/// exceeds the bound by 1e-9 changes Ψ(M) by at most γ·1e-9 — far below the
/// noise floor of double-precision distance sums.
pub const VALIDITY_EPS: f64 = 1e-9;

/// What a flow edge models; used to update fullness after augmenting.
#[derive(Clone, Copy, Debug)]
enum EdgeKind {
    /// `s → q_i`, capacity `q.k`.
    SourceQ(u32),
    /// `p → t`, capacity = customer weight.
    CustomerT(u32),
    /// `q_i → p`, the distance edges of `Esub`.
    QP,
}

struct ProviderState {
    cap: u32,
    node: NodeId,
    sq_edge: u32,
    full: bool,
}

struct CustomerState {
    id: u64,
    pos: Point,
    weight: u32,
    node: NodeId,
    pt_edge: u32,
    assigned: u32,
    /// Distance of the latest fast-phase match (for the phase-exit
    /// potential).
    last_match_dist: f64,
}

/// A q→p edge of `Esub`.
struct QpRec {
    edge: u32,
    provider: u32,
    cust: u32,
    dist: f64,
}

/// Incremental SSPA engine.
pub struct Engine {
    g: FlowGraph,
    dij: DijkstraState,
    s: NodeId,
    t: NodeId,
    providers: Vec<ProviderState>,
    customers: Vec<CustomerState>,
    /// Customer id → index into `customers` (dense ids; `NONE` sentinel).
    cust_index: Vec<u32>,
    edge_kind: Vec<EdgeKind>,
    qp_edges: Vec<QpRec>,
    /// `τmax = max_{q∈Q} q.τ` (Algorithms 2–4, "the highest potential").
    tau_max: f64,
    num_full_providers: usize,
    /// Cost of the current iteration's shortest path (`vmin.α`), if the sink
    /// has been reached in the current subgraph.
    alpha_t: Option<f64>,
    /// Largest fast-phase match distance (`D` in the phase-exit potential).
    fast_d: f64,
    in_fast_phase: bool,
    /// Arcs of the most recently committed path, for batched re-commits.
    last_path: Vec<u32>,
    /// When true, `check_reduced_costs` runs after every commit (tests).
    pub paranoid: bool,
    pub stats: AlgoStats,
    /// Cooperative abort context polled inside the Dijkstra/PUA loops, so a
    /// CPU-heavy search over a large `Esub` cannot overshoot its deadline
    /// between the drivers' loop-head polls.
    ctx: Option<QueryContext>,
}

const NONE: u32 = u32::MAX;

impl Engine {
    /// Creates the engine: source, sink and provider nodes plus their
    /// `s → q` edges; no customers yet.
    pub fn new(providers: &[(Point, u32)], num_customers_hint: usize) -> Self {
        let mut g = FlowGraph::new();
        let s = g.add_node();
        let t = g.add_node();
        let mut edge_kind = Vec::new();
        let provider_states = providers
            .iter()
            .enumerate()
            .map(|(i, &(_pos, cap))| {
                let node = g.add_node();
                let sq_edge = g.add_edge(s, node, cap, 0.0);
                edge_kind.push(EdgeKind::SourceQ(i as u32));
                ProviderState {
                    cap,
                    node,
                    sq_edge,
                    full: cap == 0,
                }
            })
            .collect::<Vec<_>>();
        let num_full = provider_states.iter().filter(|p| p.full).count();
        Engine {
            g,
            dij: DijkstraState::new(),
            s,
            t,
            providers: provider_states,
            customers: Vec::new(),
            cust_index: vec![NONE; num_customers_hint],
            edge_kind,
            qp_edges: Vec::new(),
            tau_max: 0.0,
            num_full_providers: num_full,
            alpha_t: None,
            fast_d: 0.0,
            in_fast_phase: true,
            last_path: Vec::new(),
            paranoid: false,
            stats: AlgoStats::default(),
            ctx: None,
        }
    }

    /// Attaches the query context whose deadline/cancellation the engine's
    /// Dijkstra and PUA loops poll cooperatively. The drivers pass their
    /// source's context here, so one context governs discovery I/O *and*
    /// the CPU-bound search.
    pub fn set_context(&mut self, ctx: Option<&QueryContext>) {
        self.ctx = ctx.cloned();
    }

    /// Total provider capacity `Σ q.k`.
    pub fn total_capacity(&self) -> u64 {
        self.providers.iter().map(|p| u64::from(p.cap)).sum()
    }

    /// `τmax`, the highest provider potential.
    #[inline]
    pub fn tau_max(&self) -> f64 {
        self.tau_max
    }

    /// Cost of the current shortest path, if the sink is reachable.
    #[inline]
    pub fn alpha_t(&self) -> Option<f64> {
        self.alpha_t
    }

    /// True while no provider is full (Theorem 2's precondition).
    #[inline]
    pub fn no_provider_full(&self) -> bool {
        self.num_full_providers == 0
    }

    /// True if provider `qi` is full (Definition 2).
    #[inline]
    pub fn provider_full(&self, qi: usize) -> bool {
        self.providers[qi].full
    }

    /// Latest Dijkstra α of provider `qi` (∞ if not reached this iteration).
    #[inline]
    pub fn provider_alpha(&self, qi: usize) -> f64 {
        self.dij.alpha(self.providers[qi].node)
    }

    /// True if provider `qi` was settled by the current iteration's search.
    #[inline]
    pub fn provider_settled(&self, qi: usize) -> bool {
        self.dij.is_settled(self.providers[qi].node)
    }

    /// Current potential `τ(q_i)`.
    #[inline]
    pub fn provider_tau(&self, qi: usize) -> f64 {
        self.g.tau(self.providers[qi].node)
    }

    /// The potential lag `τmax − τ(q_i)` of a provider. In raw-distance
    /// terms the cheapest way to reach `q_i` costs `α(q_i) + τ(s) − τ(q_i)`,
    /// and since the Theorem-1 test subtracts `τmax ≤ τ(s)` from the heap's
    /// top key, an IDA key of `α(q_i) + lag + dist` stays a valid lower
    /// bound while pruning far more than `α(q_i) + dist` alone (reduced-cost
    /// α's are marginal and tiny; the lag carries the congestion signal).
    /// Non-full providers have zero lag by construction.
    #[inline]
    pub fn provider_tau_lag(&self, qi: usize) -> f64 {
        (self.tau_max - self.provider_tau(qi)).max(0.0)
    }

    /// True if customer `id` has been discovered and is full (Definition 3).
    pub fn customer_full(&self, id: u64) -> bool {
        match self.lookup_customer(id) {
            Some(c) => self.customers[c as usize].assigned == self.customers[c as usize].weight,
            None => false,
        }
    }

    fn lookup_customer(&self, id: u64) -> Option<u32> {
        let idx = usize::try_from(id).expect("customer id fits usize");
        match self.cust_index.get(idx) {
            Some(&c) if c != NONE => Some(c),
            _ => None,
        }
    }

    fn ensure_customer(&mut self, id: u64, pos: Point, weight: u32) -> u32 {
        if let Some(c) = self.lookup_customer(id) {
            return c;
        }
        let idx = usize::try_from(id).expect("customer id fits usize");
        if idx >= self.cust_index.len() {
            self.cust_index.resize(idx + 1, NONE);
        }
        let node = self.g.add_node();
        let pt_edge = self.g.add_edge(node, self.t, weight, 0.0);
        self.edge_kind
            .push(EdgeKind::CustomerT(self.customers.len() as u32));
        let c = self.customers.len() as u32;
        self.customers.push(CustomerState {
            id,
            pos,
            weight,
            node,
            pt_edge,
            assigned: 0,
            last_match_dist: 0.0,
        });
        self.cust_index[idx] = c;
        c
    }

    /// Inserts edge `e(q_i, p)` into `Esub` (discovering the customer if
    /// new) and returns the flow-graph edge id.
    pub fn insert_edge(&mut self, qi: usize, id: u64, pos: Point, weight: u32, dist: f64) -> u32 {
        let c = self.ensure_customer(id, pos, weight);
        let cap = weight; // a provider may serve up to `weight` units of a rep
        let e = self.g.add_edge(
            self.providers[qi].node,
            self.customers[c as usize].node,
            cap,
            dist,
        );
        self.edge_kind.push(EdgeKind::QP);
        self.qp_edges.push(QpRec {
            edge: e,
            provider: qi as u32,
            cust: c,
            dist,
        });
        self.stats.esub_edges += 1;
        e
    }

    /// Inserts an edge *and* re-optimises the in-flight shortest-path
    /// computation with PUA (§3.4.1). Must be called between
    /// [`Engine::begin_iteration`] and the commit.
    pub fn insert_edge_reoptimize(
        &mut self,
        qi: usize,
        id: u64,
        pos: Point,
        weight: u32,
        dist: f64,
    ) {
        let e = self.insert_edge(qi, id, pos, weight, dist);
        self.dij.pua_insert_edge(&self.g, e);
        self.stats.pua_runs += 1;
        let ctx = self.ctx.as_ref();
        if self.dij.is_settled(self.t) {
            match self.dij.drain_below_sink(&self.g, self.t, ctx) {
                Ok(()) => self.alpha_t = Some(self.dij.alpha(self.t)),
                // The abort is sticky on the context; the driver's next
                // loop-head poll unwinds with the partial matching, and a
                // cleared alpha_t keeps `sp_valid` from committing a path
                // whose search never finished.
                Err(_) => self.alpha_t = None,
            }
        } else {
            self.alpha_t = self.dij.run_until(&self.g, self.t, ctx).unwrap_or_default();
        }
    }

    /// Starts an SSPA iteration: fresh Dijkstra from `s` until the sink
    /// settles (or the frontier empties). Returns the sp cost, if any —
    /// `None` also when the query context aborted mid-search (the abort is
    /// sticky; drivers observe it at their next loop-head poll).
    pub fn begin_iteration(&mut self) -> Option<f64> {
        self.dij.init(&self.g, self.s);
        self.alpha_t = self
            .dij
            .run_until(&self.g, self.t, self.ctx.as_ref())
            .unwrap_or_default();
        self.stats.dijkstra_runs += 1;
        self.alpha_t
    }

    /// The Theorem-1 validity test: is the current sp provably shortest on
    /// the *complete* graph, given that every unexplored edge would
    /// contribute at least `threshold`?
    pub fn sp_valid(&self, threshold: f64) -> bool {
        match self.alpha_t {
            Some(at) => at <= threshold - self.tau_max + VALIDITY_EPS,
            None => false,
        }
    }

    /// Commits the current shortest path: augments one unit, updates
    /// potentials, `τmax` and fullness flags.
    ///
    /// # Panics
    /// Panics if the sink is unreachable (callers must test `sp_valid`
    /// first).
    pub fn commit(&mut self) {
        let alpha_t = self.alpha_t.expect("commit without a shortest path");
        debug_assert!(!self.in_fast_phase, "commit during fast phase");

        // Augment along parent arcs, tracking fullness of touched edges.
        self.last_path = self.dij.extract_path(&self.g, self.t);
        self.augment_last_path();

        // Potential update (Algorithm 1 lines 8–9) and τmax maintenance.
        let dij = &self.dij;
        self.g
            .update_potentials(dij.settled_nodes(), |v| dij.alpha(v), alpha_t);
        for &v in self.dij.settled_nodes() {
            // Provider nodes occupy the contiguous id range [2, 2+|Q|).
            let first = 2;
            let last = 2 + self.providers.len() as NodeId;
            if v >= first && v < last {
                let tau = self.g.tau(v);
                if tau > self.tau_max {
                    self.tau_max = tau;
                }
            }
        }

        self.stats.settled += self.dij.settled_nodes().len() as u64;
        self.stats.iterations += 1;
        self.alpha_t = None;

        if self.paranoid {
            if let Err((arc, rc)) = self.g.check_reduced_costs(1e-6) {
                panic!("reduced-cost invariant broken after commit: arc {arc} rc {rc}");
            }
        }
    }

    /// Pushes one unit along `last_path`, updating fullness and assignment
    /// bookkeeping for every touched edge.
    fn augment_last_path(&mut self) {
        for i in 0..self.last_path.len() {
            let a = self.last_path[i];
            self.g.push_flow(a, 1);
        }
        for i in 0..self.last_path.len() {
            let e = self.g.arc_edge(self.last_path[i]);
            match self.edge_kind[e as usize] {
                EdgeKind::SourceQ(qi) => {
                    let p = &mut self.providers[qi as usize];
                    let now_full = self.g.edge_flow(p.sq_edge) == p.cap;
                    if now_full && !p.full {
                        p.full = true;
                        self.num_full_providers += 1;
                    } else if !now_full && p.full {
                        // A reverse arc on the path un-saturated the edge.
                        p.full = false;
                        self.num_full_providers -= 1;
                    }
                }
                EdgeKind::CustomerT(c) => {
                    let cust = &mut self.customers[c as usize];
                    cust.assigned = self.g.edge_flow(cust.pt_edge);
                }
                EdgeKind::QP => {}
            }
        }
    }

    /// True if the last committed path still has residual capacity on every
    /// arc, i.e. it could be augmented again as-is.
    pub fn last_path_residual(&self) -> bool {
        !self.last_path.is_empty() && self.last_path.iter().all(|&a| self.g.residual_cap(a) >= 1)
    }

    /// The Theorem-1 test for a *zero-length* shortest path. After a commit,
    /// every arc of the committed path has reduced cost 0, so while the path
    /// keeps residual capacity a fresh Dijkstra would find it again at
    /// reduced length exactly 0 (no residual path can be cheaper: all
    /// reduced costs are non-negative). The corresponding potential update
    /// is then a no-op (`α(v) = α_t = 0` for every settled node), so the
    /// whole hypothetical iteration collapses to this test plus a re-push.
    pub fn zero_sp_valid(&self, threshold: f64) -> bool {
        0.0 <= threshold - self.tau_max + VALIDITY_EPS
    }

    /// Re-commits the last committed path without a new Dijkstra: one more
    /// augmentation along the identical arcs, with identical bookkeeping.
    /// Callers must have checked [`Engine::last_path_residual`] and
    /// [`Engine::zero_sp_valid`] first; this is the batched form of the
    /// iteration those tests make redundant.
    pub fn recommit(&mut self) {
        debug_assert!(self.last_path_residual());
        self.augment_last_path();
        self.stats.iterations += 1;
        if self.paranoid {
            if let Err((arc, rc)) = self.g.check_reduced_costs(1e-6) {
                panic!("reduced-cost invariant broken after recommit: arc {arc} rc {rc}");
            }
        }
    }

    /// Marks the current candidate path invalid (Theorem-1 test failed).
    pub fn note_invalid(&mut self) {
        self.stats.invalid_paths += 1;
    }

    // ------------------------------------------------------------------
    // Theorem-2 fast phase (IDA)
    // ------------------------------------------------------------------

    /// Processes one fast-phase edge pop (Theorem 2): inserts the edge and,
    /// if the customer is not full, immediately matches as many units as
    /// both sides allow. Batching is exact: repeating SSPA on the same
    /// cheapest pair augments the identical single-edge path until one side
    /// saturates, so the per-unit iterations are collapsed here.
    ///
    /// Returns the number of units matched (0 for an already-full customer).
    pub fn fast_match(&mut self, qi: usize, id: u64, pos: Point, weight: u32, dist: f64) -> u32 {
        debug_assert!(self.in_fast_phase && self.no_provider_full());
        let e = self.insert_edge(qi, id, pos, weight, dist);
        let c = self.lookup_customer(id).expect("just inserted");
        let cust = &mut self.customers[c as usize];
        if cust.assigned == cust.weight {
            // Full customer: the edge joins Esub but no assignment happens
            // (Theorem 2: "If pj is full, we directly insert it into Esub
            // and de-heap the next entry").
            return 0;
        }
        let sq_edge = self.providers[qi].sq_edge;
        let provider_spare = self.providers[qi].cap - self.g.edge_flow(sq_edge);
        let units = (cust.weight - cust.assigned).min(provider_spare);
        debug_assert!(units >= 1);
        cust.assigned += units;
        cust.last_match_dist = dist;
        let pt_edge = cust.pt_edge;
        self.g.push_flow(2 * sq_edge, units);
        self.g.push_flow(2 * e, units);
        self.g.push_flow(2 * pt_edge, units);
        debug_assert!(
            dist + 1e-9 >= self.fast_d,
            "fast-phase pops must be globally ascending: {dist} < {}",
            self.fast_d
        );
        self.fast_d = self.fast_d.max(dist);
        if self.g.edge_flow(sq_edge) == self.providers[qi].cap {
            self.providers[qi].full = true;
            self.num_full_providers += 1;
        }
        self.stats.fast_phase_matches += u64::from(units);
        self.stats.iterations += u64::from(units);
        units
    }

    /// Ends the fast phase, installing the closed-form feasible potential.
    ///
    /// With `D` = the largest matched distance: `τ(s) = τ(q) = D` for all
    /// providers, `τ(p) = D − lastMatchDist(p)` for *full* customers, 0 for
    /// partially-assigned or unassigned ones, `τ(t) = 0`. Feasibility
    /// argument: matched reverse arcs get reduced cost `D − (D − d) − d = 0`;
    /// explored-but-unmatched edges `(q,p)` all have `dist ≥ lastMatchDist(p)`
    /// because the fast phase pops edges in globally ascending length order
    /// and a non-full customer is matched at its first pop, so
    /// `w = dist − D + τ(p) ≥ 0`; source/sink arcs check directly.
    pub fn finish_fast_phase(&mut self) {
        debug_assert!(self.in_fast_phase);
        self.in_fast_phase = false;
        let d = self.fast_d;
        self.g.set_tau(self.s, d);
        for i in 0..self.providers.len() {
            self.g.set_tau(self.providers[i].node, d);
        }
        for c in &self.customers {
            let tau = if c.assigned == c.weight {
                d - c.last_match_dist
            } else {
                0.0
            };
            self.g.set_tau(c.node, tau);
        }
        self.g.set_tau(self.t, 0.0);
        self.tau_max = d;
        if self.paranoid {
            if let Err((arc, rc)) = self.g.check_reduced_costs(1e-6) {
                panic!("fast-phase exit potential infeasible: arc {arc} rc {rc}");
            }
        }
    }

    /// Declares that no fast phase will run (RIA/NIA); potentials stay 0.
    pub fn skip_fast_phase(&mut self) {
        self.in_fast_phase = false;
    }

    /// Extracts the matching from the final flow.
    pub fn matching(&self) -> Matching {
        let mut pairs = Vec::new();
        for rec in &self.qp_edges {
            let units = self.g.edge_flow(rec.edge);
            if units > 0 {
                pairs.push(MatchPair {
                    provider: rec.provider as usize,
                    customer: self.customers[rec.cust as usize].id,
                    units,
                    dist: rec.dist,
                    customer_pos: self.customers[rec.cust as usize].pos,
                });
            }
        }
        Matching { pairs }
    }

    /// Total units currently assigned (for driver loops).
    pub fn assigned_units(&self) -> u64 {
        self.customers.iter().map(|c| u64::from(c.assigned)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn providers_at(caps: &[u32]) -> Vec<(Point, u32)> {
        caps.iter()
            .enumerate()
            .map(|(i, &k)| (Point::new(i as f64 * 100.0, 0.0), k))
            .collect()
    }

    #[test]
    fn new_engine_has_source_edges_only() {
        let engine = Engine::new(&providers_at(&[2, 3]), 10);
        assert_eq!(engine.total_capacity(), 5);
        assert!(engine.no_provider_full());
        assert_eq!(engine.stats.esub_edges, 0);
        assert_eq!(engine.assigned_units(), 0);
    }

    #[test]
    fn zero_capacity_provider_starts_full() {
        let engine = Engine::new(&providers_at(&[0, 1]), 4);
        assert!(!engine.no_provider_full());
        assert!(engine.provider_full(0));
        assert!(!engine.provider_full(1));
    }

    #[test]
    fn fast_match_assigns_and_fills() {
        let mut engine = Engine::new(&providers_at(&[2]), 4);
        engine.paranoid = true;
        let q = Point::new(0.0, 0.0);
        let p1 = Point::new(1.0, 0.0);
        let p2 = Point::new(2.0, 0.0);
        assert_eq!(engine.fast_match(0, 0, p1, 1, q.dist(&p1)), 1);
        assert!(!engine.provider_full(0));
        assert!(engine.customer_full(0));
        // Re-popping the full customer inserts the edge but matches nothing.
        assert_eq!(engine.fast_match(0, 0, p1, 1, q.dist(&p1)), 0);
        assert_eq!(engine.fast_match(0, 1, p2, 1, q.dist(&p2)), 1);
        assert!(engine.provider_full(0), "capacity 2 reached");
        assert_eq!(engine.assigned_units(), 2);
        engine.finish_fast_phase();
        let m = engine.matching();
        assert_eq!(m.size(), 2);
        assert!((m.cost() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn fast_match_batches_weighted_customers() {
        // One provider (cap 3) pops a representative of weight 5: it must
        // take all 3 units at once.
        let mut engine = Engine::new(&providers_at(&[3]), 2);
        let units = engine.fast_match(0, 0, Point::new(4.0, 0.0), 5, 4.0);
        assert_eq!(units, 3);
        assert!(engine.provider_full(0));
        assert!(!engine.customer_full(0), "2 of 5 units still open");
        engine.finish_fast_phase();
        let m = engine.matching();
        assert_eq!(m.size(), 3);
        assert!((m.cost() - 12.0).abs() < 1e-12);
    }

    #[test]
    fn fast_phase_exit_potential_is_feasible() {
        // Several matches at increasing distances, then validate the
        // closed-form potential with the reduced-cost checker (paranoid
        // mode panics on violation).
        // Capacities of 2 keep every provider non-full throughout (the fast
        // phase ends at the first full provider).
        let mut engine = Engine::new(&providers_at(&[2, 2, 2]), 8);
        engine.paranoid = true;
        engine.fast_match(0, 0, Point::new(1.0, 0.0), 1, 1.0);
        engine.fast_match(1, 1, Point::new(102.0, 0.0), 1, 2.0);
        // An edge to an already-full customer at larger distance.
        assert_eq!(engine.fast_match(2, 0, Point::new(1.0, 0.0), 1, 199.0), 0);
        engine.fast_match(2, 2, Point::new(200.0, 200.0), 1, 200.0);
        engine.finish_fast_phase(); // panics if the potential is infeasible
        assert_eq!(engine.tau_max(), 200.0);
    }

    #[test]
    fn dijkstra_iteration_commit_updates_fullness() {
        // cap-1 provider at x=0; two customers; fast phase disabled so the
        // engine exercises the Dijkstra path.
        let mut engine = Engine::new(&providers_at(&[1, 1]), 4);
        engine.paranoid = true;
        engine.skip_fast_phase();
        engine.insert_edge(0, 0, Point::new(1.0, 0.0), 1, 1.0);
        engine.insert_edge(1, 1, Point::new(101.0, 0.0), 1, 1.0);
        let at = engine.begin_iteration();
        assert_eq!(at, Some(1.0));
        assert!(engine.sp_valid(f64::INFINITY));
        engine.commit();
        // Exactly one of the two providers committed its unit.
        assert_eq!(engine.assigned_units(), 1);
        let full_count = [0, 1].iter().filter(|&&q| engine.provider_full(q)).count();
        assert_eq!(full_count, 1);
        // Second iteration serves the other pair.
        engine.begin_iteration();
        engine.commit();
        assert_eq!(engine.assigned_units(), 2);
        assert!(engine.provider_full(0) && engine.provider_full(1));
        assert_eq!(engine.matching().size(), 2);
    }

    #[test]
    fn sp_valid_applies_theorem_one() {
        let mut engine = Engine::new(&providers_at(&[1]), 4);
        engine.skip_fast_phase();
        engine.insert_edge(0, 0, Point::new(5.0, 0.0), 1, 5.0);
        engine.begin_iteration();
        // alpha_t = 5; with tau_max = 0 the sp is valid iff the unexplored
        // threshold is at least 5.
        assert!(!engine.sp_valid(4.0));
        assert!(engine.sp_valid(5.0));
        assert!(engine.sp_valid(f64::INFINITY));
    }

    #[test]
    fn insert_edge_reoptimize_improves_alpha_t() {
        let mut engine = Engine::new(&providers_at(&[1, 1]), 4);
        engine.skip_fast_phase();
        engine.insert_edge(0, 0, Point::new(9.0, 0.0), 1, 9.0);
        assert_eq!(engine.begin_iteration(), Some(9.0));
        // A cheaper edge from the other provider shows up: PUA must lower
        // alpha_t without a fresh Dijkstra.
        engine.insert_edge_reoptimize(1, 1, Point::new(102.0, 0.0), 1, 2.0);
        assert_eq!(engine.alpha_t(), Some(2.0));
        let runs = engine.stats.dijkstra_runs;
        assert_eq!(runs, 1, "no extra full Dijkstra executions");
        assert!(engine.stats.pua_runs >= 1);
    }

    #[test]
    fn unreachable_sink_reports_none() {
        let mut engine = Engine::new(&providers_at(&[1]), 4);
        engine.skip_fast_phase();
        assert_eq!(engine.begin_iteration(), None);
        assert!(!engine.sp_valid(f64::INFINITY));
    }

    #[test]
    fn matching_extracts_units_per_edge() {
        let mut engine = Engine::new(&providers_at(&[4]), 2);
        engine.fast_match(0, 0, Point::new(3.0, 0.0), 3, 3.0);
        engine.finish_fast_phase();
        let m = engine.matching();
        assert_eq!(m.pairs.len(), 1);
        assert_eq!(m.pairs[0].units, 3);
        assert_eq!(m.pairs[0].customer, 0);
    }
}
