//! The full-graph Successive Shortest Path Algorithm (Algorithm 1).
//!
//! This is the paper's baseline (§2.2): SSPA on the *complete* bipartite
//! flow graph between `Q` and `P`, one Dijkstra + augment iteration per
//! shortest path — γ searches on unit customers. It is intentionally
//! faithful to the baseline's weaknesses — every one of the |Q|·|P| edges
//! is materialised — because Figure 8 measures exactly that. It doubles as
//! the ground-truth oracle for the incremental algorithms' tests, and as
//! the exact solver behind the registry's `sspa`, the continuous engine's
//! local repairs and the coreset tier's concise instances.
//!
//! Customers may carry integer weights (> 1) so the same solver performs the
//! concise matching of the CA approximation, where customer representatives
//! have weight `g.w` (§4.2).
//!
//! There is one way to run a solve: [`Sspa::solve`]. The two things that
//! vary between callers — an abort context and a starting flow — are the
//! fields of [`Sspa`].
//!
//! # Dense state
//!
//! The graph is complete, so it is never built as an adjacency structure;
//! every residual arc is implicit in a few flat arrays:
//!
//! * a row-major |Q|×|P| `f64` cost matrix and `u32` flow matrix — 12 B
//!   per (q, p) pair. `q→p` is residual while `f(q, p) < p.w`, its reverse
//!   `p→q` while `f(q, p) > 0`;
//! * `u32` loads of the providers and customers: `s→q` is residual while
//!   `q` has spare capacity, `p→t` while `p` has spare weight;
//! * the potentials `τ(s)`, `τ(q)` and `τ(p)` (`τ(t)` stays 0);
//! * for each customer, the providers serving it (at most one for unit
//!   customers): their number and one of them. Only a weighted customer
//!   split across several providers has its flow column scanned.
//!
//! Each search is Dijkstra over reduced costs from `s`, run over the
//! providers only. It settles the unsettled provider with the smallest
//! label, found by a linear scan (there is no heap), and scans that
//! provider's cost/flow row once to relax its `q→p` arcs. An improved
//! customer label is passed on at once, to `t` if the customer has spare
//! weight and along its reverse arcs to its unsettled serving providers.
//! The search stops when no unsettled provider is labelled below `α(t)`:
//! every label below `α(t)` is then final. A search costs
//! O(|Q|² + settled·|P|), where `settled` counts the providers it settles.
//!
//! Each search pushes the path's *bottleneck*: every unit routed along one
//! shortest path costs the same, and after the push the saturated arc
//! leaves the residual graph while the potential update (Algorithm 1
//! lines 8–9: `τ(v) += α(t) − α(v)` for `s`, the settled providers and the
//! customers labelled below `α(t)`) restores `rc ≥ 0` everywhere — the §2.2
//! loop invariant — so the result is the exact optimum. On unit-weight
//! customers the sink arc caps the bottleneck at 1, which is Algorithm 1's
//! unit augmentation verbatim; on weighted customers (the coreset tier's
//! representatives) one search moves many units, so a solve needs far fewer
//! than `γ` searches. `|Q| + |P|` is the usual order, but not a bound: a
//! reverse arc can be the bottleneck without saturating any source or sink
//! arc.
//!
//! # Warm start
//!
//! [`Sspa::start`] hands the solve a feasible flow, such as the standing
//! assignment of a continuous-engine neighbourhood that one event has
//! perturbed. The solve installs it, then makes it optimal for its value:
//! a queue-based Bellman–Ford (SPFA) from a virtual root runs over the
//! *full* residual graph `{s, Q, P, t}` — `q→s` and `t→p` included, since
//! an event's improvements are mostly "swap a far matched customer for a
//! near unmatched one" (through `t`) and "shift load between providers"
//! (through `s`). A relaxation whose new parent link closes a cycle has
//! found a negative one: its bottleneck is pushed around it and the pass
//! restarts. A pass that converges leaves distances `d` under which
//! `τ(v) = d(t) − d(v)` gives every residual arc `rc ≥ −1e-9`. A flow
//! with no negative residual cycle is a minimum-cost flow of its value
//! (§2.2), and these potentials satisfy the invariant Algorithm 1 keeps,
//! so the unchanged search loop tops the flow up to `γ` from there: the
//! result is the exact optimum, the same one a cold solve reaches up to
//! ties. An empty start skips all of this and runs Algorithm 1 verbatim.

use std::collections::VecDeque;
use std::ops::ControlFlow;

use cca_geo::Point;
use cca_storage::{AbortReason, Aborted, QueryContext};

/// Tolerance for floating-point noise in reduced costs. Distances are O(10³)
/// (the normalised world), so 1e-7 absolute slack is ~12 decimal digits of
/// headroom below the signal.
pub const EPS: f64 = 1e-7;

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
    /// Edges in the flow graph (|Q|·|P| + |Q| + |P| for the baseline).
    pub edges: u64,
    /// Nodes settled across all searches — `s`, the settled providers, the
    /// customers labelled below `α(t)` and `t`, per search.
    pub settled: u64,
}

/// An SSPA solve cut short by its [`QueryContext`] (cancellation or an
/// expired deadline — the flow engine touches no pages, so I/O budgets
/// cannot trip here).
///
/// The partial state is exact: `partial` holds the start flow plus every
/// unit whose augmenting path fully committed before the abort (a valid,
/// capacity-respecting assignment from `stats.iterations` completed
/// searches), and the in-flight search is discarded without mutating the
/// flow. An abort during the warm start leaves a flow of the start's size.
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
/// context, no start.
#[derive(Clone, Copy, Debug, Default)]
pub struct Sspa<'a> {
    /// Cooperative cancellation: the solve polls the context at every
    /// search head and once per settled provider, so a CPU-bound solve on a
    /// large instance observes cancellation or an expired deadline from
    /// *inside* the flow loop — no page access required — and unwinds with
    /// the typed [`FlowAborted`] carrying the partial assignment built so
    /// far. Without a context a solve cannot abort.
    pub ctx: Option<&'a QueryContext>,
    /// A feasible flow to start from, as `(provider, customer, units)`
    /// triples (see the module docs' *Warm start*). Empty — the default — runs
    /// Algorithm 1 from the empty flow. A start that names an unknown
    /// provider or customer, or exceeds a capacity or a weight, panics.
    pub start: &'a [(usize, usize, u32)],
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
        let (dense, stats) = self.run(providers, customers)?;
        let asg = dense.assignment();
        if cfg!(debug_assertions) {
            let np = dense.np;
            let cell = |k: usize| (k / np, k % np, dense.cost[k], dense.flow[k]);
            let rows: Vec<_> = (0..dense.cost.len()).map(cell).collect();
            let tau = (
                dense.tau.source,
                &dense.tau.providers[..],
                &dense.tau.customers[..],
            );
            crate::validate::validate_assignment(providers, customers, &asg)
                .and_then(|()| {
                    crate::validate::assert_optimal(&dense.cap, &dense.weight, &rows, tau)
                })
                .unwrap_or_else(|e| panic!("optimality certificate violated: {e}"));
        }
        Ok((asg, stats))
    }

    /// The solve loop: installs and warms [`Sspa::start`], if any, then
    /// searches and augments until `γ` units are installed. Returns the
    /// final residual state.
    fn run(
        &self,
        providers: &[FlowProvider],
        customers: &[FlowCustomer],
    ) -> Result<(Dense, SspaStats), FlowAborted> {
        let mut dense = Dense::new(providers, customers);
        let (nq, np) = (providers.len() as u64, customers.len() as u64);
        let gamma = required_flow(providers, customers);
        let mut stats = SspaStats {
            edges: nq * np + nq + np,
            ..SspaStats::default()
        };
        let mut units = 0u64;
        if !self.start.is_empty() {
            units = dense.install(self.start);
            // Cycle cancelling keeps the flow feasible and its value at
            // |start|, so the flow at an abort is a valid partial answer.
            if let Err(a) = dense.warm(self.ctx) {
                return Err(FlowAborted {
                    reason: a.reason,
                    partial: dense.assignment(),
                    stats,
                });
            }
        }
        while units < gamma {
            match dense.search(self.ctx) {
                Ok(Some(alpha_t)) => {
                    let remaining = (gamma - units).min(u64::from(u32::MAX)) as u32;
                    units += u64::from(dense.augment(remaining));
                    stats.settled += dense.update_potentials(alpha_t);
                    stats.iterations += 1;
                }
                Ok(None) => unreachable!("complete bipartite graph always admits γ units"),
                // A search never mutates the flow, so the committed units
                // are exactly the completed searches' prefix.
                Err(a) => {
                    return Err(FlowAborted {
                        reason: a.reason,
                        partial: dense.assignment(),
                        stats,
                    });
                }
            }
        }
        Ok((dense, stats))
    }
}

/// Node potentials `τ` of the complete bipartite graph; `τ(t)` stays 0.
#[derive(Clone, Debug)]
pub(crate) struct Potentials {
    pub(crate) source: f64,
    pub(crate) providers: Vec<f64>,
    pub(crate) customers: Vec<f64>,
}

/// "No node": the parent of a provider reached straight from `s`.
const NONE: u32 = u32::MAX;

/// The residual state of one solve (see the module docs), plus the labels
/// of the current search.
struct Dense {
    np: usize,
    cap: Vec<u32>,
    weight: Vec<u32>,
    /// `cost[i·|P| + j] = dist(q_i, p_j)`.
    cost: Vec<f64>,
    /// Units on `q_i → p_j`, same indexing as `cost`.
    flow: Vec<u32>,
    /// Units on `s → q_i` and `p_j → t`.
    q_load: Vec<u32>,
    p_load: Vec<u32>,
    /// Number of providers with flow to each customer, and one of them.
    servers: Vec<u32>,
    server: Vec<u32>,
    tau: Potentials,
    // ---- labels of the current search ----
    alpha_q: Vec<f64>,
    settled_q: Vec<bool>,
    /// The customer each provider was reached from (`NONE`: from `s`).
    parent_q: Vec<u32>,
    alpha_p: Vec<f64>,
    /// The provider each customer was reached from.
    parent_p: Vec<u32>,
    alpha_t: f64,
    /// The customer `t` was reached from.
    parent_t: u32,
}

impl Dense {
    fn new(providers: &[FlowProvider], customers: &[FlowCustomer]) -> Self {
        let (nq, np) = (providers.len(), customers.len());
        let mut cost = Vec::with_capacity(nq * np);
        for q in providers {
            cost.extend(customers.iter().map(|p| q.pos.dist(&p.pos)));
        }
        Dense {
            np,
            cap: providers.iter().map(|q| q.cap).collect(),
            weight: customers.iter().map(|p| p.weight).collect(),
            cost,
            flow: vec![0; nq * np],
            q_load: vec![0; nq],
            p_load: vec![0; np],
            servers: vec![0; np],
            server: vec![NONE; np],
            tau: Potentials {
                source: 0.0,
                providers: vec![0.0; nq],
                customers: vec![0.0; np],
            },
            alpha_q: vec![f64::INFINITY; nq],
            settled_q: vec![false; nq],
            parent_q: vec![NONE; nq],
            alpha_p: vec![f64::INFINITY; np],
            parent_p: vec![NONE; np],
            alpha_t: f64::INFINITY,
            parent_t: NONE,
        }
    }

    /// One Dijkstra from `s` over reduced costs; returns `α(t)`, or `None`
    /// when `t` is unreachable. Polls `ctx` on entry and once per settled
    /// provider; an abort leaves the flow untouched.
    fn search(&mut self, ctx: Option<&QueryContext>) -> Result<Option<f64>, Aborted> {
        if let Some(ctx) = ctx {
            ctx.check()?;
        }
        self.alpha_q.fill(f64::INFINITY);
        self.settled_q.fill(false);
        self.alpha_p.fill(f64::INFINITY);
        self.alpha_t = f64::INFINITY;
        // Settle s (α = 0): relax every residual s→q arc.
        let tau_s = self.tau.source;
        for i in 0..self.cap.len() {
            if self.q_load[i] < self.cap[i] {
                self.alpha_q[i] = (self.tau.providers[i] - tau_s).max(0.0);
                self.parent_q[i] = NONE;
            }
        }
        loop {
            // The unsettled provider labelled lowest below α(t); ties go to
            // the lower index.
            let mut next = None;
            let mut best = self.alpha_t;
            for (i, (&alpha, &settled)) in self.alpha_q.iter().zip(&self.settled_q).enumerate() {
                if !settled && alpha < best {
                    (next, best) = (Some(i), alpha);
                }
            }
            let Some(i) = next else { break };
            if let Some(ctx) = ctx {
                ctx.check()?;
            }
            self.settle(i);
        }
        Ok(self.alpha_t.is_finite().then_some(self.alpha_t))
    }

    /// Settles provider `i`: one pass over its cost/flow row relaxes every
    /// residual `q→p` arc.
    fn settle(&mut self, i: usize) {
        self.settled_q[i] = true;
        let (alpha_i, tau_i) = (self.alpha_q[i], self.tau.providers[i]);
        let row = i * self.np;
        for j in 0..self.np {
            if self.flow[row + j] < self.weight[j] {
                let rc = self.cost[row + j] - tau_i + self.tau.customers[j];
                debug_assert!(rc > -EPS, "negative reduced cost {rc} on q{i}→p{j}");
                let cand = alpha_i + rc.max(0.0);
                if cand + EPS < self.alpha_p[j] {
                    self.alpha_p[j] = cand;
                    self.parent_p[j] = i as u32;
                    self.relay(j);
                }
            }
        }
    }

    /// Passes customer `j`'s improved label on: to `t` if `j` has spare
    /// weight, and along its reverse arcs to the providers serving it.
    fn relay(&mut self, j: usize) {
        if self.p_load[j] < self.weight[j] {
            // rc(p→t) = 0 − τ(p) + τ(t), with τ(t) = 0.
            let cand = self.alpha_p[j] + (-self.tau.customers[j]).max(0.0);
            if cand + EPS < self.alpha_t {
                self.alpha_t = cand;
                self.parent_t = j as u32;
            }
        }
        match self.servers[j] {
            0 => {}
            1 => self.relax_back(j, self.server[j] as usize),
            _ => {
                for i in 0..self.cap.len() {
                    if self.flow[i * self.np + j] > 0 {
                        self.relax_back(j, i);
                    }
                }
            }
        }
    }

    /// Relaxes the reverse arc `p_j → q_i` into an unsettled provider.
    fn relax_back(&mut self, j: usize, i: usize) {
        if self.settled_q[i] {
            return;
        }
        let rc = -self.cost[i * self.np + j] - self.tau.customers[j] + self.tau.providers[i];
        debug_assert!(rc > -EPS, "negative reduced cost {rc} on p{j}→q{i}");
        let cand = self.alpha_p[j] + rc.max(0.0);
        if cand + EPS < self.alpha_q[i] {
            self.alpha_q[i] = cand;
            self.parent_q[i] = j as u32;
        }
    }

    /// Pushes as many units along the shortest path to `t` as its
    /// bottleneck admits, capped at `limit` (Algorithm 1 lines 4–7), and
    /// returns the amount. The path is `s → q → p (→ q → p)* → t`, walked
    /// back from `t` through the parent links.
    fn augment(&mut self, limit: u32) -> u32 {
        let np = self.np;
        let last = self.parent_t as usize;
        let mut units = limit.min(self.weight[last] - self.p_load[last]);
        let mut j = last;
        let first = loop {
            let i = self.parent_p[j] as usize;
            units = units.min(self.weight[j] - self.flow[i * np + j]);
            match self.parent_q[i] {
                NONE => break i,
                prev => {
                    j = prev as usize;
                    units = units.min(self.flow[i * np + j]);
                }
            }
        };
        units = units.min(self.cap[first] - self.q_load[first]);
        debug_assert!(units > 0, "augmenting along a saturated path");
        self.p_load[last] += units;
        self.q_load[first] += units;
        let mut j = last;
        loop {
            let i = self.parent_p[j] as usize;
            self.add_flow(i, j, units);
            match self.parent_q[i] {
                NONE => break,
                prev => {
                    j = prev as usize;
                    self.cancel_flow(i, j, units);
                }
            }
        }
        units
    }

    fn add_flow(&mut self, i: usize, j: usize, units: u32) {
        let f = &mut self.flow[i * self.np + j];
        if *f == 0 {
            self.servers[j] += 1;
            if self.servers[j] == 1 {
                self.server[j] = i as u32;
            }
        }
        *f += units;
    }

    fn cancel_flow(&mut self, i: usize, j: usize, units: u32) {
        let f = &mut self.flow[i * self.np + j];
        *f -= units;
        if *f == 0 {
            self.servers[j] -= 1;
            if self.servers[j] == 1 {
                let np = self.np;
                let left = (0..self.cap.len()).find(|&k| self.flow[k * np + j] > 0);
                self.server[j] = left.expect("one server left") as u32;
            }
        }
    }

    /// Algorithm 1 lines 8–9: `τ(v) += α(t) − α(v)` for every node
    /// labelled below `α(t)` — `s`, the settled providers and those
    /// customers (`τ(t)` gains 0). Returns the search's settled-node count:
    /// those nodes plus `t`.
    fn update_potentials(&mut self, alpha_t: f64) -> u64 {
        let mut settled = 2; // s and t
        if alpha_t > 0.0 {
            self.tau.source += alpha_t;
        }
        for (i, &done) in self.settled_q.iter().enumerate() {
            if done {
                settled += 1;
                let delta = alpha_t - self.alpha_q[i];
                if delta > 0.0 {
                    self.tau.providers[i] += delta;
                }
            }
        }
        for (tau, &alpha) in self.tau.customers.iter_mut().zip(&self.alpha_p) {
            if alpha < alpha_t {
                settled += 1;
                *tau += alpha_t - alpha;
            }
        }
        settled
    }

    /// Installs a start flow and returns its value. Panics on a pair that
    /// names an unknown node or overfills a provider or a customer.
    fn install(&mut self, start: &[(usize, usize, u32)]) -> u64 {
        let (nq, np) = (self.cap.len(), self.np);
        let mut units = 0;
        for &(i, j, u) in start {
            assert!(
                i < nq && j < np,
                "start pair ({i}, {j}) out of range: {nq} providers, {np} customers"
            );
            assert!(
                u <= self.cap[i] - self.q_load[i],
                "start overfills provider {i} (capacity {})",
                self.cap[i]
            );
            assert!(
                u <= self.weight[j] - self.p_load[j],
                "start overfills customer {j} (weight {})",
                self.weight[j]
            );
            if u > 0 {
                self.add_flow(i, j, u);
                self.q_load[i] += u;
                self.p_load[j] += u;
                units += u64::from(u);
            }
        }
        units
    }

    /// Makes the installed flow a minimum-cost flow of its value and sets
    /// potentials under which every residual arc has `rc ≥ −WARM_EPS`.
    ///
    /// Each pass is a queue-based Bellman–Ford (SPFA) from a virtual root
    /// with a zero arc to every node, over the full residual graph
    /// `{s, Q, P, t}` — `q→s` and `t→p` included. When a relaxation's new
    /// parent link closes a cycle, that cycle is negative: its bottleneck is
    /// pushed around it and the pass restarts. A pass that drains its queue
    /// leaves shortest distances `d`, and `τ(v) = d(t) − d(v)`. Polls `ctx`
    /// once per pass and every 64 queue pops.
    fn warm(&mut self, ctx: Option<&QueryContext>) -> Result<(), Aborted> {
        let (nq, np) = (self.cap.len(), self.np);
        let (s, t) = (nq + np, nq + np + 1);
        let mut spfa = Spfa::new(nq + np + 2);
        'pass: loop {
            if let Some(ctx) = ctx {
                ctx.check()?;
            }
            // Customers first: their reverse arcs are the only negative ones
            // under d = 0.
            spfa.reset((nq..s).chain(0..nq).chain([s, t]));
            let mut pops = 0u32;
            while let Some(u) = spfa.pop() {
                pops += 1;
                if pops.is_multiple_of(64) {
                    if let Some(ctx) = ctx {
                        ctx.check()?;
                    }
                }
                if let ControlFlow::Break(v) = self.relax_from(u, &mut spfa) {
                    self.cancel_cycle(&spfa.parent, v);
                    continue 'pass;
                }
            }
            break;
        }
        let d = &spfa.d;
        self.tau.source = d[t] - d[s];
        for (i, tau) in self.tau.providers.iter_mut().enumerate() {
            *tau = d[t] - d[i];
        }
        for (j, tau) in self.tau.customers.iter_mut().enumerate() {
            *tau = d[t] - d[nq + j];
        }
        Ok(())
    }

    /// Relaxes every residual arc out of warm-start node `u` (see
    /// [`Dense::arc`] for the numbering). Breaks with the node whose new
    /// parent link closed a cycle, if one did.
    fn relax_from(&self, u: usize, spfa: &mut Spfa) -> ControlFlow<usize> {
        let (nq, np) = (self.cap.len(), self.np);
        let (s, t) = (nq + np, nq + np + 1);
        let mut relax = |v: usize, c: f64| {
            if spfa.relax(u, v, c) {
                ControlFlow::Break(v)
            } else {
                ControlFlow::Continue(())
            }
        };
        if u < nq {
            if self.q_load[u] > 0 {
                relax(s, 0.0)?;
            }
            let row = u * np;
            for j in 0..np {
                if self.flow[row + j] < self.weight[j] {
                    relax(nq + j, self.cost[row + j])?;
                }
            }
        } else if u < s {
            let j = u - nq;
            if self.p_load[j] < self.weight[j] {
                relax(t, 0.0)?;
            }
            match self.servers[j] {
                0 => {}
                1 => {
                    let i = self.server[j] as usize;
                    relax(i, -self.cost[i * np + j])?;
                }
                _ => {
                    for i in 0..nq {
                        if self.flow[i * np + j] > 0 {
                            relax(i, -self.cost[i * np + j])?;
                        }
                    }
                }
            }
        } else if u == s {
            for i in 0..nq {
                if self.q_load[i] < self.cap[i] {
                    relax(i, 0.0)?;
                }
            }
        } else {
            for j in 0..np {
                if self.p_load[j] > 0 {
                    relax(nq + j, 0.0)?;
                }
            }
        }
        ControlFlow::Continue(())
    }

    /// Pushes the bottleneck around the cycle of parent links through `v`.
    fn cancel_cycle(&mut self, parent: &[u32], v: usize) {
        let mut units = u32::MAX;
        let mut x = v;
        loop {
            let u = parent[x] as usize;
            units = units.min(self.residual(self.arc(u, x)));
            x = u;
            if x == v {
                break;
            }
        }
        debug_assert!(units > 0, "cancelling a cycle with a saturated arc");
        loop {
            let u = parent[x] as usize;
            self.push(self.arc(u, x), units);
            x = u;
            if x == v {
                break;
            }
        }
    }

    /// The residual arc `u → v` between warm-start nodes, numbered
    /// providers `0..|Q|`, customers `|Q|..|Q|+|P|`, then `s`, then `t`.
    fn arc(&self, u: usize, v: usize) -> ResidualArc {
        let nq = self.cap.len();
        let s = nq + self.np;
        match (u, v) {
            (u, v) if u == s => ResidualArc::SourceToProvider(v),
            (u, v) if v == s => ResidualArc::ProviderToSource(u),
            (u, v) if u > s => ResidualArc::SinkToCustomer(v - nq),
            (u, v) if v > s => ResidualArc::CustomerToSink(u - nq),
            (u, v) if u < nq => ResidualArc::Forward(u, v - nq),
            (u, v) => ResidualArc::Backward(v, u - nq),
        }
    }

    /// Units that can still be pushed along `arc`.
    fn residual(&self, arc: ResidualArc) -> u32 {
        match arc {
            ResidualArc::SourceToProvider(i) => self.cap[i] - self.q_load[i],
            ResidualArc::ProviderToSource(i) => self.q_load[i],
            ResidualArc::Forward(i, j) => self.weight[j] - self.flow[i * self.np + j],
            ResidualArc::Backward(i, j) => self.flow[i * self.np + j],
            ResidualArc::CustomerToSink(j) => self.weight[j] - self.p_load[j],
            ResidualArc::SinkToCustomer(j) => self.p_load[j],
        }
    }

    fn push(&mut self, arc: ResidualArc, units: u32) {
        match arc {
            ResidualArc::SourceToProvider(i) => self.q_load[i] += units,
            ResidualArc::ProviderToSource(i) => self.q_load[i] -= units,
            ResidualArc::Forward(i, j) => self.add_flow(i, j, units),
            ResidualArc::Backward(i, j) => self.cancel_flow(i, j, units),
            ResidualArc::CustomerToSink(j) => self.p_load[j] += units,
            ResidualArc::SinkToCustomer(j) => self.p_load[j] -= units,
        }
    }

    /// The installed flow as `(provider, customer, units)` pairs in
    /// provider-major order, with `Ψ(M)` summed in the same order.
    fn assignment(&self) -> Assignment {
        let mut asg = Assignment::default();
        for (k, &f) in self.flow.iter().enumerate() {
            if f > 0 {
                asg.pairs.push((k / self.np, k % self.np, f));
                asg.cost += f64::from(f) * self.cost[k];
            }
        }
        asg
    }
}

/// One residual arc of the complete bipartite graph, by its endpoints'
/// indices: `i` a provider, `j` a customer. `Forward` is `q_i → p_j`,
/// `Backward` its reverse.
#[derive(Clone, Copy)]
enum ResidualArc {
    SourceToProvider(usize),
    ProviderToSource(usize),
    Forward(usize, usize),
    Backward(usize, usize),
    CustomerToSink(usize),
    SinkToCustomer(usize),
}

/// The improvement a warm-start relaxation must make. Well below the
/// searches' `EPS`, so the potentials it leaves pass their reduced-cost
/// check, and well above the rounding of a cycle's cost, so every cycle it
/// closes is truly negative.
const WARM_EPS: f64 = 1e-9;

/// The labels of one warm-start Bellman–Ford pass, allocated once per solve.
struct Spfa {
    d: Vec<f64>,
    /// The node each node was last relaxed from (`NONE`: the virtual root).
    parent: Vec<u32>,
    queued: Vec<bool>,
    queue: VecDeque<u32>,
}

impl Spfa {
    fn new(n: usize) -> Self {
        Spfa {
            d: vec![0.0; n],
            parent: vec![NONE; n],
            queued: vec![false; n],
            queue: VecDeque::with_capacity(n),
        }
    }

    /// Starts a pass: every node at distance 0 from the virtual root, and
    /// queued in `order`.
    fn reset(&mut self, order: impl Iterator<Item = usize>) {
        self.d.fill(0.0);
        self.parent.fill(NONE);
        self.queued.fill(true);
        self.queue.clear();
        self.queue.extend(order.map(|v| v as u32));
    }

    fn pop(&mut self) -> Option<usize> {
        let u = self.queue.pop_front()? as usize;
        self.queued[u] = false;
        Some(u)
    }

    /// Relaxes the arc `u → v` of cost `c`. Returns whether the new parent
    /// link of `v` closes a cycle.
    fn relax(&mut self, u: usize, v: usize, c: f64) -> bool {
        let cand = self.d[u] + c;
        if cand >= self.d[v] - WARM_EPS {
            return false;
        }
        self.d[v] = cand;
        self.parent[v] = u as u32;
        // The parent links were acyclic before this one, so the walk back
        // from `u` ends at the root unless it meets `v`.
        let mut x = u;
        for _ in 0..self.d.len() {
            if x == v {
                return true;
            }
            match self.parent[x] {
                NONE => break,
                p => x = p as usize,
            }
        }
        if !self.queued[v] {
            self.queued[v] = true;
            self.queue.push_back(v as u32);
        }
        false
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
        /// The shapes a continuous-engine local repair sends: 8 providers
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

    fn warm(start: &[(usize, usize, u32)]) -> Sspa<'_> {
        Sspa {
            start,
            ..Sspa::default()
        }
    }

    /// A random feasible flow of `size` units (at most γ): pairs in random
    /// order, each filled as far as its provider and customer allow.
    fn random_flow(
        providers: &[FlowProvider],
        customers: &[FlowCustomer],
        size: u64,
        seed: u64,
    ) -> Vec<(usize, usize, u32)> {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut cap: Vec<u32> = providers.iter().map(|q| q.cap).collect();
        let mut weight: Vec<u32> = customers.iter().map(|p| p.weight).collect();
        let mut order: Vec<(usize, usize)> = (0..providers.len())
            .flat_map(|i| (0..customers.len()).map(move |j| (i, j)))
            .collect();
        let mut rng = StdRng::seed_from_u64(seed);
        for k in (1..order.len()).rev() {
            order.swap(k, rng.random_range(0..=k));
        }
        let (mut flow, mut left) = (Vec::new(), size);
        for (i, j) in order {
            let u = cap[i]
                .min(weight[j])
                .min(left.min(u64::from(u32::MAX)) as u32);
            if u > 0 {
                flow.push((i, j, u));
                (cap[i], weight[j], left) = (cap[i] - u, weight[j] - u, left - u64::from(u));
            }
        }
        assert_eq!(left, 0, "a greedy fill of the complete graph reaches γ");
        flow
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]
        /// A warm solve reaches the cold optimum from any feasible start —
        /// empty, partial, the optimum itself, or a random maximal flow —
        /// on local-repair shapes, unit or weighted (1–5) customers. The
        /// debug-build certificate checks each warm solve as well.
        #[test]
        fn prop_warm_start_matches_cold(
            seed in 0u64..10_000,
            caps in proptest::collection::vec(0u32..=10, 8usize..=8),
            np in 1usize..=80,
            max_w in 1u32..=5,
            kind in 0u8..4,
        ) {
            use rand::rngs::StdRng;
            use rand::{Rng, SeedableRng};
            let (mut providers, mut customers) = random_instance(seed, 8, np, 1);
            for (q, cap) in providers.iter_mut().zip(caps) {
                q.cap = cap;
            }
            let mut rng = StdRng::seed_from_u64(seed ^ 0x3a7);
            for c in &mut customers {
                c.weight = rng.random_range(1..=max_w);
            }
            let gamma = required_flow(&providers, &customers);
            let (cold, _) = solve(&providers, &customers);
            let start = match kind {
                0 => Vec::new(),
                1 => random_flow(&providers, &customers, rng.random_range(0..=gamma), seed),
                2 => cold.pairs.clone(),
                _ => random_flow(&providers, &customers, gamma, seed),
            };
            let (asg, _) = warm(&start).solve(&providers, &customers).unwrap();
            proptest::prop_assert_eq!(asg.size(), gamma);
            proptest::prop_assert!(
                (asg.cost - cold.cost).abs() <= 1e-9 * cold.cost.max(1.0),
                "warm {} vs cold {}", asg.cost, cold.cost
            );
        }
    }

    #[test]
    fn warm_start_swaps_a_far_customer_for_a_near_one_through_the_sink() {
        // γ = 1 is already installed, on the far customer: only the cycle
        // q0 → p1 → t → p0 → q0 improves it, and no search runs.
        let providers = [q(0.0, 0.0, 1)];
        let customers = [p(10.0, 0.0), p(1.0, 0.0)];
        let (asg, stats) = warm(&[(0, 0, 1)]).solve(&providers, &customers).unwrap();
        assert_eq!(asg.pairs, vec![(0, 1, 1)]);
        assert_eq!(asg.cost, 1.0);
        assert_eq!(stats.iterations, 0);
    }

    #[test]
    fn warm_start_shifts_load_between_providers_through_the_source() {
        // The customer sits on q0 but starts on the far q1: only the cycle
        // s → q0 → p0 → q1 → s improves it.
        let providers = [q(0.0, 0.0, 1), q(100.0, 0.0, 1)];
        let customers = [p(1.0, 0.0)];
        let (asg, stats) = warm(&[(1, 0, 1)]).solve(&providers, &customers).unwrap();
        assert_eq!(asg.pairs, vec![(0, 0, 1)]);
        assert_eq!(asg.cost, 1.0);
        assert_eq!(stats.iterations, 0);
    }

    #[test]
    fn cancelled_warm_start_returns_a_feasible_flow_of_the_start_size() {
        let (providers, customers) = random_instance(9, 8, 60, 10);
        let start = random_flow(&providers, &customers, 30, 9);
        let ctx = QueryContext::new();
        ctx.cancel();
        let err = Sspa {
            ctx: Some(&ctx),
            start: &start,
        }
        .solve(&providers, &customers)
        .unwrap_err();
        assert_eq!(err.reason, AbortReason::Cancelled);
        assert_eq!(err.partial.size(), 30);
        assert_eq!(err.stats.iterations, 0);
        let by_provider = loads(&err.partial, providers.len(), PROVIDER);
        for (load, q) in by_provider.iter().zip(&providers) {
            assert!(*load <= u64::from(q.cap));
        }
        let by_customer = loads(&err.partial, customers.len(), CUSTOMER);
        for (load, p) in by_customer.iter().zip(&customers) {
            assert!(*load <= u64::from(p.weight));
        }
    }

    #[test]
    #[should_panic(expected = "start overfills provider 0")]
    fn over_capacity_start_panics() {
        let providers = [q(0.0, 0.0, 1)];
        let customers = [p(1.0, 0.0), p(2.0, 0.0)];
        let _ = warm(&[(0, 0, 1), (0, 1, 1)]).solve(&providers, &customers);
    }

    #[test]
    fn certificate_reports_a_shifted_potential_and_swapped_providers() {
        let (providers, customers) = random_instance(5, 4, 30, 5);
        let (dense, _) = Sspa::default().run(&providers, &customers).unwrap();
        let asg = dense.assignment();
        // The certificate of `asg` on the complete graph under `tau`.
        let certify = |asg: &Assignment, tau: &Potentials| {
            let mut rows: Vec<_> = (0..providers.len())
                .flat_map(|i| (0..customers.len()).map(move |j| (i, j)))
                .map(|(i, j)| (i, j, providers[i].pos.dist(&customers[j].pos), 0))
                .collect();
            for &(i, j, units) in &asg.pairs {
                rows[i * customers.len() + j].3 += units;
            }
            let tau = (tau.source, &tau.providers[..], &tau.customers[..]);
            crate::validate::assert_optimal(&dense.cap, &dense.weight, &rows, tau)
        };
        certify(&asg, &dense.tau).unwrap();

        // Shifting any one provider's potential, either way, breaks the
        // reduced-cost invariant on one of its residual arcs.
        for i in 0..providers.len() {
            for shift in [-1e4, 1e4] {
                let mut tau = dense.tau.clone();
                tau.providers[i] += shift;
                let err = certify(&asg, &tau).unwrap_err();
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
        let err = certify(&swapped, &dense.tau).unwrap_err();
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
