//! The shared incremental-SSPA engine behind RIA, NIA and IDA.
//!
//! All three exact algorithms (§3) are SSPA (Algorithm 1) run on a growing
//! subgraph `Esub`; they differ only in *how they discover edges* and *how
//! they bound the unexplored edge set* (Theorem 1). Everything residual —
//! the search with PUA's resume, the augment, the potential update and the
//! certificate — is the flow kernel [`cca_flow::Residual`], which the
//! complete-graph baseline [`cca_flow::Sspa`] runs too. This engine keeps
//! what discovery needs: the customer id ↔ slot map, positions and the
//! `Esub` insertion order (the matching's pair order); `τmax` and the
//! Theorem-1 test ([`Engine::sp_valid`]); IDA's Theorem-2 fast phase and its
//! exit potential ([`Engine::finish_fast_phase`]); the re-commit of the last
//! path ([`Engine::recommit`]); and the [`AlgoStats`] counters. A commit
//! augments one unit. Debug builds certify every completed solve on `Esub`
//! (see [`Engine::matching`]).

use cca_flow::Residual;
use cca_geo::Point;
use cca_storage::QueryContext;

use crate::matching::{MatchPair, Matching};
use crate::stats::AlgoStats;

/// Slack for the Theorem-1 validity test. Accepting a path whose cost
/// exceeds the bound by 1e-9 changes Ψ(M) by at most γ·1e-9 — far below the
/// noise floor of double-precision distance sums.
pub const VALIDITY_EPS: f64 = 1e-9;

/// "No customer": an undiscovered id in the slot map.
const NONE: u32 = u32::MAX;

/// Incremental SSPA engine.
pub struct Engine {
    flow: Residual,
    // ---- customers, by kernel slot ----
    id: Vec<u64>,
    pos: Vec<Point>,
    /// Distance of the latest fast-phase match (for the phase-exit
    /// potential).
    last_match_dist: Vec<f64>,
    /// Customer id → slot (dense ids; `NONE` sentinel).
    cust_index: Vec<u32>,
    /// Every `Esub` edge in insertion order, by provider and row index: the
    /// matching's pair order.
    order: Vec<(u32, u32)>,
    /// `τmax = max_{q∈Q} q.τ` (Algorithms 2–4, "the highest potential").
    tau_max: f64,
    num_full_providers: usize,
    /// Cost of the current iteration's shortest path (`vmin.α`), if the sink
    /// has been reached in the current subgraph.
    alpha_t: Option<f64>,
    /// Largest fast-phase match distance (`D` in the phase-exit potential).
    fast_d: f64,
    in_fast_phase: bool,
    pub stats: AlgoStats,
    /// Cooperative abort context polled inside the search and PUA loops, so
    /// a CPU-heavy search over a large `Esub` cannot overshoot its deadline
    /// between the drivers' loop-head polls.
    ctx: Option<QueryContext>,
}

impl Engine {
    /// Creates the engine over the providers' capacities; no customers yet.
    pub fn new(providers: &[(Point, u32)], num_customers_hint: usize) -> Self {
        let cap: Vec<u32> = providers.iter().map(|&(_, cap)| cap).collect();
        let num_full_providers = cap.iter().filter(|&&k| k == 0).count();
        Engine {
            flow: Residual::new(cap),
            id: Vec::new(),
            pos: Vec::new(),
            last_match_dist: Vec::new(),
            cust_index: vec![NONE; num_customers_hint],
            order: Vec::new(),
            tau_max: 0.0,
            num_full_providers,
            alpha_t: None,
            fast_d: 0.0,
            in_fast_phase: true,
            stats: AlgoStats::default(),
            ctx: None,
        }
    }

    /// Attaches the query context whose deadline/cancellation the engine's
    /// search and PUA loops poll cooperatively. The drivers pass their
    /// source's context here, so one context governs discovery I/O *and*
    /// the CPU-bound search.
    pub fn set_context(&mut self, ctx: Option<&QueryContext>) {
        self.ctx = ctx.cloned();
    }

    /// The flow kernel: capacities, loads, potentials and the current
    /// search's labels.
    #[inline]
    pub fn flow(&self) -> &Residual {
        &self.flow
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

    /// Empties [`Residual::relabelled`].
    #[inline]
    pub fn clear_relabelled(&mut self) {
        self.flow.clear_relabelled();
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
        (self.tau_max - self.flow.provider_tau(qi)).max(0.0)
    }

    fn lookup_customer(&self, id: u64) -> Option<usize> {
        let idx = usize::try_from(id).expect("customer id fits usize");
        match self.cust_index.get(idx) {
            Some(&c) if c != NONE => Some(c as usize),
            _ => None,
        }
    }

    fn ensure_customer(&mut self, id: u64, pos: Point, weight: u32) -> usize {
        if let Some(c) = self.lookup_customer(id) {
            return c;
        }
        let idx = usize::try_from(id).expect("customer id fits usize");
        if idx >= self.cust_index.len() {
            self.cust_index.resize(idx + 1, NONE);
        }
        let c = self.flow.add_customer(weight);
        self.cust_index[idx] = c as u32;
        self.id.push(id);
        self.pos.push(pos);
        self.last_match_dist.push(0.0);
        c
    }

    /// Inserts edge `e(q_i, p)` into `Esub`, discovering the customer if
    /// new; returns the edge's index in the provider's row.
    pub fn insert_edge(&mut self, qi: usize, id: u64, pos: Point, weight: u32, dist: f64) -> usize {
        let c = self.ensure_customer(id, pos, weight);
        let k = self.flow.insert_edge(qi, c, dist);
        self.order.push((qi as u32, k as u32));
        self.stats.esub_edges += 1;
        k
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
        let k = self.insert_edge(qi, id, pos, weight, dist);
        self.stats.pua_runs += 1;
        // An abort is sticky on the context; the driver's next loop-head
        // poll unwinds with the partial matching, and a cleared alpha_t
        // keeps `sp_valid` from committing a path whose search never
        // finished.
        self.alpha_t = self
            .flow
            .resume(qi, k, self.ctx.as_ref())
            .unwrap_or_default();
    }

    /// Starts an SSPA iteration: a fresh search from `s` until no unsettled
    /// provider is labelled below the sink. Returns the sp cost, if any —
    /// `None` also when the query context aborted mid-search (the abort is
    /// sticky; drivers observe it at their next loop-head poll).
    pub fn begin_iteration(&mut self) -> Option<f64> {
        self.alpha_t = self.flow.search(self.ctx.as_ref()).unwrap_or_default();
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
        self.flow.augment(1);
        self.note_fill(self.flow.path_source());
        self.stats.settled += self.flow.update_potentials(alpha_t);
        for i in 0..self.flow.num_providers() {
            if self.flow.provider_settled(i) {
                self.tau_max = self.tau_max.max(self.flow.provider_tau(i));
            }
        }
        self.stats.iterations += 1;
        self.alpha_t = None;
    }

    /// Counts provider `qi` as full if the last push filled it.
    fn note_fill(&mut self, qi: usize) {
        if self.flow.provider_full(qi) {
            self.num_full_providers += 1;
        }
    }

    /// True if the last committed path still has residual capacity on every
    /// arc, i.e. it could be augmented again as-is.
    pub fn last_path_residual(&self) -> bool {
        self.flow.path_residual()
    }

    /// The Theorem-1 test for a *zero-length* shortest path. After a commit,
    /// every arc of the committed path has reduced cost 0, so while the path
    /// keeps residual capacity a fresh search would find it again at
    /// reduced length exactly 0 (no residual path can be cheaper: all
    /// reduced costs are non-negative). The corresponding potential update
    /// is then a no-op (`α(v) = α_t = 0` for every settled node), so the
    /// whole hypothetical iteration collapses to this test plus a re-push.
    pub fn zero_sp_valid(&self, threshold: f64) -> bool {
        0.0 <= threshold - self.tau_max + VALIDITY_EPS
    }

    /// Re-commits the last committed path without a new search: one more
    /// augmentation along the identical arcs, with identical bookkeeping.
    /// Callers must have checked [`Engine::last_path_residual`] and
    /// [`Engine::zero_sp_valid`] first; this is the batched form of the
    /// iteration those tests make redundant.
    pub fn recommit(&mut self) {
        self.flow.repeat_path();
        self.note_fill(self.flow.path_source());
        self.stats.iterations += 1;
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
        let k = self.insert_edge(qi, id, pos, weight, dist);
        // A full customer's edge joins Esub but no assignment happens
        // (Theorem 2: "If pj is full, we directly insert it into Esub and
        // de-heap the next entry").
        let units = self.flow.fill_edge(qi, k);
        if units == 0 {
            return 0;
        }
        let (c, _, _) = self.flow.edge(qi, k);
        self.last_match_dist[c] = dist;
        debug_assert!(
            dist + 1e-9 >= self.fast_d,
            "fast-phase pops must be globally ascending: {dist} < {}",
            self.fast_d
        );
        self.fast_d = self.fast_d.max(dist);
        self.note_fill(qi);
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
        let tau_q = vec![d; self.flow.num_providers()];
        let tau_p: Vec<f64> = (0..self.id.len())
            .map(|c| {
                if self.flow.customer_full(c) {
                    d - self.last_match_dist[c]
                } else {
                    0.0
                }
            })
            .collect();
        self.flow.set_potentials(d, &tau_q, &tau_p);
        self.tau_max = d;
    }

    /// Declares that no fast phase will run (RIA/NIA); potentials stay 0.
    pub fn skip_fast_phase(&mut self) {
        self.in_fast_phase = false;
    }

    /// Extracts the matching from the final flow, its pairs in `Esub`
    /// insertion order.
    ///
    /// Debug builds first check a solve that no context aborted against
    /// its optimality certificate on `Esub` ([`Residual::certify`]) and
    /// panic if it fails. With the Theorem-1 test bounding every
    /// undiscovered edge, that makes the flow optimal on the complete graph.
    pub fn matching(&self) -> Matching {
        let aborted = self.ctx.as_ref().and_then(QueryContext::recorded_abort);
        if cfg!(debug_assertions) && aborted.is_none() {
            self.flow
                .certify()
                .unwrap_or_else(|e| panic!("optimality certificate violated: {e}"));
        }
        let mut pairs = Vec::new();
        for &(i, k) in &self.order {
            let (c, units, dist) = self.flow.edge(i as usize, k as usize);
            if units > 0 {
                pairs.push(MatchPair {
                    provider: i as usize,
                    customer: self.id[c],
                    units,
                    dist,
                    customer_pos: self.pos[c],
                });
            }
        }
        Matching { pairs }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cca_flow::EPS;
    use proptest::prelude::*;

    fn providers_at(caps: &[u32]) -> Vec<(Point, u32)> {
        caps.iter()
            .enumerate()
            .map(|(i, &k)| (Point::new(i as f64 * 100.0, 0.0), k))
            .collect()
    }

    /// Inserts unit customer `id` at an arbitrary position.
    fn edge(engine: &mut Engine, qi: usize, id: u64, dist: f64) {
        engine.insert_edge(qi, id, Point::new(id as f64, 1.0), 1, dist);
    }

    #[test]
    fn new_engine_has_source_edges_only() {
        let engine = Engine::new(&providers_at(&[2, 3]), 10);
        assert_eq!(engine.flow.total_capacity(), 5);
        assert!(engine.no_provider_full());
        assert_eq!(engine.stats.esub_edges, 0);
        assert_eq!(engine.flow.assigned_units(), 0);
    }

    #[test]
    fn zero_capacity_provider_starts_full() {
        let engine = Engine::new(&providers_at(&[0, 1]), 4);
        assert!(!engine.no_provider_full());
        assert!(engine.flow.provider_full(0));
        assert!(!engine.flow.provider_full(1));
    }

    #[test]
    fn fast_match_assigns_and_fills() {
        let mut engine = Engine::new(&providers_at(&[2]), 4);
        let q = Point::new(0.0, 0.0);
        let p1 = Point::new(1.0, 0.0);
        let p2 = Point::new(2.0, 0.0);
        assert_eq!(engine.fast_match(0, 0, p1, 1, q.dist(&p1)), 1);
        assert!(!engine.flow.provider_full(0));
        assert!(engine.flow.customer_full(0));
        // Re-popping the full customer inserts the edge but matches nothing.
        assert_eq!(engine.fast_match(0, 0, p1, 1, q.dist(&p1)), 0);
        assert_eq!(engine.fast_match(0, 1, p2, 1, q.dist(&p2)), 1);
        assert!(engine.flow.provider_full(0), "capacity 2 reached");
        assert_eq!(engine.flow.assigned_units(), 2);
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
        assert!(engine.flow.provider_full(0));
        assert!(!engine.flow.customer_full(0), "2 of 5 units still open");
        engine.finish_fast_phase();
        let m = engine.matching();
        assert_eq!(m.size(), 3);
        assert!((m.cost() - 12.0).abs() < 1e-12);
    }

    #[test]
    fn fast_phase_exit_potential_is_feasible() {
        // Several matches at increasing distances, then the closed-form
        // potential must certify the flow. Capacities of 2 keep every
        // provider non-full throughout (the fast phase ends at the first
        // full provider).
        let mut engine = Engine::new(&providers_at(&[2, 2, 2]), 8);
        engine.fast_match(0, 0, Point::new(1.0, 0.0), 1, 1.0);
        engine.fast_match(1, 1, Point::new(102.0, 0.0), 1, 2.0);
        // An edge to an already-full customer at larger distance.
        assert_eq!(engine.fast_match(2, 0, Point::new(1.0, 0.0), 1, 199.0), 0);
        engine.fast_match(2, 2, Point::new(200.0, 200.0), 1, 200.0);
        engine.finish_fast_phase();
        engine.flow.certify().unwrap();
        assert_eq!(engine.tau_max, 200.0);
    }

    #[test]
    fn dijkstra_iteration_commit_updates_fullness() {
        // Two cap-1 providers, one customer each; no fast phase, so the
        // engine runs the search path.
        let mut engine = Engine::new(&providers_at(&[1, 1]), 4);
        engine.skip_fast_phase();
        engine.insert_edge(0, 0, Point::new(1.0, 0.0), 1, 1.0);
        engine.insert_edge(1, 1, Point::new(101.0, 0.0), 1, 1.0);
        let at = engine.begin_iteration();
        assert_eq!(at, Some(1.0));
        assert!(engine.sp_valid(f64::INFINITY));
        engine.commit();
        // Exactly one of the two providers committed its unit.
        assert_eq!(engine.flow.assigned_units(), 1);
        let full_count = [0, 1]
            .iter()
            .filter(|&&q| engine.flow.provider_full(q))
            .count();
        assert_eq!(full_count, 1);
        // Second iteration serves the other pair.
        engine.begin_iteration();
        engine.commit();
        assert_eq!(engine.flow.assigned_units(), 2);
        assert!(engine.flow.provider_full(0) && engine.flow.provider_full(1));
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
        // alpha_t without a fresh search.
        engine.insert_edge_reoptimize(1, 1, Point::new(102.0, 0.0), 1, 2.0);
        assert_eq!(engine.alpha_t(), Some(2.0));
        let runs = engine.stats.dijkstra_runs;
        assert_eq!(runs, 1, "no extra full searches");
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

    /// Providers q0, q1 (cap 1) and q2 (cap 2). Two commits fill q0 with
    /// customer 0 and q1 with customer 1, then the chain
    /// `s → q2 → p0 → q0 → p1 → q1 → p2 → t` is the only way to customer 2,
    /// plus the `extra` edges. Returns the engine before its next search.
    fn chain(extra: &[(usize, u64, f64)]) -> Engine {
        let mut engine = Engine::new(&providers_at(&[1, 1, 2]), 8);
        engine.skip_fast_phase();
        edge(&mut engine, 0, 0, 1.0);
        edge(&mut engine, 1, 1, 1.0);
        for _ in 0..2 {
            engine.begin_iteration().expect("a path to t");
            engine.commit();
        }
        assert!(engine.flow.provider_full(0) && engine.flow.provider_full(1));
        edge(&mut engine, 2, 0, 10.0);
        edge(&mut engine, 0, 1, 10.0);
        edge(&mut engine, 1, 2, 10.0);
        for &(qi, id, dist) in extra {
            edge(&mut engine, qi, id, dist);
        }
        engine
    }

    /// The fresh search on `chain(extra)`.
    fn fresh(extra: &[(usize, u64, f64)]) -> Engine {
        let mut engine = chain(extra);
        engine.begin_iteration();
        engine
    }

    #[test]
    fn pua_improvement_propagates_through_settled_chain() {
        let mut engine = fresh(&[]);
        let before = (engine.alpha_t().unwrap(), engine.flow.provider_alpha(1));
        assert!(
            (0..3).all(|q| engine.flow.provider_settled(q)),
            "the chain settles"
        );
        // A shortcut q2 → p1 skips the hop through q0: the improvement must
        // reach the settled q1 and, through it, the sink.
        engine.insert_edge_reoptimize(2, 1, Point::new(1.0, 1.0), 1, 1.0);
        let after = (engine.alpha_t().unwrap(), engine.flow.provider_alpha(1));
        assert!(
            after.0 < before.0 && after.1 < before.1,
            "{before:?} → {after:?}"
        );
        let want = fresh(&[(2, 1, 1.0)]);
        assert_eq!(engine.alpha_t(), want.alpha_t());
        assert_eq!(engine.flow.provider_alpha(1), want.flow.provider_alpha(1));
        assert_eq!(engine.stats.dijkstra_runs, 3, "PUA ran no fresh search");
    }

    #[test]
    fn pua_ignores_edges_from_unsettled_tails() {
        // q1 has no capacity, so no path reaches it: an edge out of it
        // changes nothing.
        let mut engine = Engine::new(&providers_at(&[1, 0]), 4);
        engine.skip_fast_phase();
        edge(&mut engine, 0, 0, 5.0);
        assert_eq!(engine.begin_iteration(), Some(5.0));
        engine.insert_edge_reoptimize(1, 1, Point::new(1.0, 1.0), 1, 1.0);
        assert!(!engine.flow.provider_settled(1));
        assert_eq!(engine.alpha_t(), Some(5.0));
        assert_eq!(engine.flow.provider_alpha(1), f64::INFINITY);
    }

    #[test]
    fn drain_settles_nodes_below_new_sink_distance() {
        // Customer 3 is served by a full q3 that no path reaches; a long
        // detour to customer 4 keeps the sink far away.
        let mut engine = Engine::new(&providers_at(&[1, 1]), 8);
        engine.skip_fast_phase();
        edge(&mut engine, 1, 3, 1.0);
        engine.begin_iteration();
        engine.commit();
        edge(&mut engine, 0, 4, 50.0);
        let sink = engine.begin_iteration().unwrap();
        assert!(!engine.flow.provider_settled(1), "q1 is full and unreached");
        // An edge from the settled q0 to customer 3 labels q1 through the
        // reverse arc, below the sink: resuming must settle it.
        engine.insert_edge_reoptimize(0, 3, Point::new(3.0, 1.0), 1, 2.0);
        assert!(engine.flow.provider_settled(1));
        assert!(engine.flow.provider_alpha(1) < sink);
        assert_eq!(engine.alpha_t(), Some(sink), "no cheaper path to t");
    }

    #[test]
    fn aborted_context_stops_the_settle_loop() {
        use cca_storage::AbortReason;
        use std::time::{Duration, Instant};
        let search = |ctx: &QueryContext| {
            let mut engine = chain(&[]);
            engine.set_context(Some(ctx));
            (engine.begin_iteration(), ctx.recorded_abort())
        };
        let cancelled = QueryContext::new();
        cancelled.cancel();
        assert_eq!(search(&cancelled), (None, Some(AbortReason::Cancelled)));
        // An expired deadline aborts too — no page access involved.
        let late = QueryContext::new().with_deadline(Instant::now() - Duration::from_millis(1));
        assert_eq!(search(&late), (None, Some(AbortReason::DeadlineExceeded)));
        // A clean context is invisible: same result as no context.
        let clean = search(&QueryContext::new());
        assert_eq!(clean, (fresh(&[]).alpha_t(), None));
    }

    #[test]
    fn resume_after_unreachable_picks_up_new_edges() {
        let mut engine = Engine::new(&providers_at(&[1]), 4);
        engine.skip_fast_phase();
        assert_eq!(engine.begin_iteration(), None, "sink not yet connected");
        engine.insert_edge_reoptimize(0, 0, Point::new(4.0, 0.0), 1, 4.0);
        assert_eq!(engine.alpha_t(), Some(4.0));
    }

    #[test]
    fn certificate_catches_a_corrupted_potential() {
        let providers = providers_at(&[2, 1, 3]);
        let mut engine = Engine::new(&providers, 8);
        engine.skip_fast_phase();
        for id in 0..5u64 {
            let pos = Point::new(id as f64 * 40.0, 30.0);
            for (qi, &(q, _)) in providers.iter().enumerate() {
                engine.insert_edge(qi, id, pos, 1, q.dist(&pos));
            }
        }
        while engine.begin_iteration().is_some() {
            engine.commit();
        }
        assert_eq!(engine.flow.assigned_units(), 5);
        engine.flow.certify().unwrap();
        // Shifting any one provider's potential, either way, breaks the
        // reduced-cost invariant on one of its residual arcs.
        let (tau_s, tau_q, tau_p) = engine.flow.potentials();
        for qi in 0..providers.len() {
            for shift in [-1e4, 1e4] {
                let mut shifted = tau_q.clone();
                shifted[qi] += shift;
                engine.flow.set_potentials(tau_s, &shifted, &tau_p);
                let err = engine.flow.certify().unwrap_err();
                assert!(err.contains("reduced cost"), "q{qi} {shift:+}: {err}");
            }
        }
    }

    /// An `Esub` edge of the PUA proptest: provider, customer slot, length.
    type TestEdge = (usize, usize, f64);

    /// NIA's discipline on `sorted` (edges by ascending length): insert the
    /// next edge until Theorem 1 validates the shortest path, then commit,
    /// `commits` times. Every edge left out has a length of at least
    /// `τmax`, so it joins `Esub` with a non-negative reduced cost in any
    /// order. Returns the engine and the number of edges it inserted.
    fn replay(
        providers: &[(Point, u32)],
        customers: &[(Point, u32)],
        sorted: &[TestEdge],
        commits: usize,
    ) -> (Engine, usize) {
        let mut engine = Engine::new(providers, customers.len());
        engine.skip_fast_phase();
        let (mut next, mut done) = (0, 0);
        while done < commits {
            let top = sorted.get(next).map_or(f64::INFINITY, |e| e.2);
            engine.begin_iteration();
            if engine.sp_valid(top) {
                engine.commit();
                done += 1;
            } else if next < sorted.len() {
                insert(&mut engine, customers, sorted[next]);
                next += 1;
            } else {
                break;
            }
        }
        (engine, next)
    }

    fn insert(engine: &mut Engine, customers: &[(Point, u32)], (qi, c, dist): TestEdge) {
        let (pos, weight) = customers[c];
        engine.insert_edge(qi, c as u64, pos, weight, dist);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        /// After every `insert_edge_reoptimize`, `α(t)` and the α of every
        /// provider settled below it equal those of a fresh search on an
        /// engine that replayed the same inserts.
        #[test]
        fn prop_pua_resume_matches_fresh_search(
            raw_q in proptest::collection::vec((0.0..100.0f64, 0.0..100.0f64, 1u32..4), 1..5),
            raw_p in proptest::collection::vec((0.0..100.0f64, 0.0..100.0f64, 1u32..4), 1..10),
            raw_edges in proptest::collection::vec((0usize..5, 0usize..10, 0u32..1000), 1..40),
            commits in 0usize..6,
        ) {
            let point = |&(x, y, n): &(f64, f64, u32)| (Point::new(x, y), n);
            let providers: Vec<_> = raw_q.iter().map(point).collect();
            let customers: Vec<_> = raw_p.iter().map(point).collect();
            // Distinct edges by length, each with a random insertion key.
            let mut edges: Vec<(TestEdge, u32)> = Vec::new();
            for (qi, c, key) in raw_edges {
                let (qi, c) = (qi % providers.len(), c % customers.len());
                if !edges.iter().any(|&((q, p, _), _)| (q, p) == (qi, c)) {
                    let dist = providers[qi].0.dist(&customers[c].0);
                    edges.push(((qi, c, dist), key));
                }
            }
            edges.sort_by(|a, b| a.0 .2.total_cmp(&b.0 .2));
            let sorted: Vec<TestEdge> = edges.iter().map(|&(e, _)| e).collect();
            let (mut engine, used) = replay(&providers, &customers, &sorted, commits);
            let mut later = edges[used..].to_vec();
            later.sort_by_key(|&(_, key)| key);
            engine.begin_iteration();
            for n in 0..later.len() {
                let (qi, c, dist) = later[n].0;
                let (pos, weight) = customers[c];
                engine.insert_edge_reoptimize(qi, c as u64, pos, weight, dist);
                let (mut want, _) = replay(&providers, &customers, &sorted, commits);
                for &(e, _) in &later[..=n] {
                    insert(&mut want, &customers, e);
                }
                want.begin_iteration();
                let (got_t, want_t) = (engine.alpha_t(), want.alpha_t());
                prop_assert_eq!(got_t.is_some(), want_t.is_some(), "insert {}", n);
                let at = got_t.unwrap_or(f64::INFINITY);
                if let (Some(a), Some(b)) = (got_t, want_t) {
                    prop_assert!((a - b).abs() <= EPS, "insert {}: α(t) {} vs {}", n, a, b);
                }
                for q in 0..providers.len() {
                    let (a, b) = (engine.flow.provider_alpha(q), want.flow.provider_alpha(q));
                    let below = |e: &Engine, alpha: f64| e.flow.provider_settled(q) && alpha + EPS < at;
                    if below(&engine, a) || below(&want, b) {
                        prop_assert!(engine.flow.provider_settled(q) && want.flow.provider_settled(q));
                        prop_assert!((a - b).abs() <= EPS, "insert {}: α(q{}) {} vs {}", n, q, a, b);
                    }
                }
            }
        }
    }
}
