//! The residual core of SSPA (Algorithm 1): the workspace's one flow kernel.
//!
//! SSPA and the incremental algorithms of §3 run the same loop — search,
//! augment, update the potentials — and differ only in which `q→p` edges
//! the graph holds. [`Residual`] is that loop's state over any edge set:
//! [`crate::Sspa`] inserts every (q, p) pair up front, and RIA, NIA and IDA
//! (`cca_core::exact::Engine`) grow `Esub` and decide, by Theorem 1, when a
//! path found here is shortest on the complete graph.
//!
//! The flow graph over `{s, t} ∪ Q ∪ P` is never built as an adjacency
//! structure; its residual arcs are implicit in
//!
//! * one row per provider of its edges (customer slot, flow, distance: 16 B
//!   per edge). `q→p` is residual while the flow is below the customer's
//!   weight, its reverse `p→q` while the flow is positive;
//! * each customer's edges, linked in insertion order (8 B per edge), and
//!   the number of them carrying flow plus one such edge — so a unit
//!   customer's reverse arc is found without a walk;
//! * the loads: `s→q` is residual while `q` has spare capacity, `p→t` while
//!   `p` has spare weight; and the potentials `τ(s)`, `τ(q)`, `τ(p)`, with
//!   `τ(t) = 0`.
//!
//! A search ([`Residual::search`]) is Dijkstra over reduced costs from `s`
//! that settles providers only, the lowest label first (ties to the lower
//! index) from a block-minimum index ([`ArgminIndex`]) in O(√|Q|). It stops
//! when no unsettled provider is labelled below `α(t)`; every label below
//! `α(t)` is then final. PUA (Algorithm 5, §3.4.1) resumes a search after an
//! edge insertion ([`Residual::resume`]). [`Residual::augment`] pushes the
//! path's bottleneck up to a unit limit (Algorithm 1 lines 4–7): RIA, NIA
//! and IDA pass 1, [`crate::Sspa`] the flow still missing.
//! [`Residual::update_potentials`] (lines 8–9) restores `rc ≥ 0` on every
//! residual arc — the §2.2 loop invariant — and [`Residual::certify`]
//! checks it with the flow's value.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use cca_geo::OrdF64;
use cca_storage::{Aborted, QueryContext};

use crate::argmin::ArgminIndex;
use crate::sspa::{FlowCustomer, FlowProvider};
use crate::validate::assert_optimal;

/// Tolerance for floating-point noise in reduced costs. Distances are O(10³)
/// (the normalised world), so 1e-7 absolute slack is ~12 decimal digits of
/// headroom below the signal.
pub const EPS: f64 = 1e-7;

/// Settled providers between [`QueryContext`] polls in the search loop. A
/// poll is an atomic load plus (at worst) an `Instant::now`; at this stride
/// its cost is noise against the loop body, yet a deadline or cancellation
/// is still observed from *inside* a CPU-bound search.
const CTX_POLL_STRIDE: u32 = 64;

/// "No node": the parent of a provider reached straight from `s`.
const NONE: u32 = u32::MAX;

/// A label as its key in the pick: `+ 0.0` turns −0 into +0, so the
/// index's `total_cmp` order agrees with `<` on labels, and the pick takes
/// the lowest label strictly below `α(t)`, ties to the lower index.
#[inline]
fn pick_key(label: f64) -> f64 {
    label + 0.0
}

/// A `q → p` edge, held in its provider's row.
#[derive(Clone, Copy)]
struct Edge {
    cust: u32,
    flow: u32,
    dist: f64,
}

/// An edge by its provider and its index in that provider's row.
type EdgeRef = (u32, u32);

/// "No edge": the end of a customer's edge list.
const NO_EDGE: EdgeRef = (NONE, NONE);

/// Capacities, edges, flow and potentials: everything a search reads and
/// none of what it writes.
struct Network {
    cap: Vec<u32>,
    q_load: Vec<u32>,
    rows: Vec<Vec<Edge>>,
    /// Beside each edge of `rows`, the next edge of the same customer
    /// (`NO_EDGE` after its last).
    next: Vec<Vec<EdgeRef>>,
    // ---- customers, by slot ----
    weight: Vec<u32>,
    p_load: Vec<u32>,
    /// The first and the last of each customer's edges, in insertion order.
    head: Vec<EdgeRef>,
    tail: Vec<EdgeRef>,
    /// Number of a customer's edges with flow, and one of them.
    servers: Vec<u32>,
    server: Vec<EdgeRef>,
    // ---- potentials ----
    tau_s: f64,
    tau_q: Vec<f64>,
    tau_p: Vec<f64>,
}

impl Network {
    fn edge(&self, (i, k): EdgeRef) -> Edge {
        self.rows[i as usize][k as usize]
    }

    /// Customer `c`'s edges, in insertion order.
    fn incident(&self, c: usize) -> impl Iterator<Item = EdgeRef> + '_ {
        let edge = |e: EdgeRef| (e != NO_EDGE).then_some(e);
        let link = move |&(i, k): &EdgeRef| edge(self.next[i as usize][k as usize]);
        std::iter::successors(edge(self.head[c]), link)
    }

    fn add_flow(&mut self, (i, k): EdgeRef, units: u32) {
        let e = &mut self.rows[i as usize][k as usize];
        let c = e.cust as usize;
        if e.flow == 0 {
            self.servers[c] += 1;
            if self.servers[c] == 1 {
                self.server[c] = (i, k);
            }
        }
        e.flow += units;
    }

    fn cancel_flow(&mut self, (i, k): EdgeRef, units: u32) {
        let e = &mut self.rows[i as usize][k as usize];
        let c = e.cust as usize;
        e.flow -= units;
        if e.flow == 0 {
            self.servers[c] -= 1;
            if self.servers[c] == 1 {
                let left = self.incident(c).find(|&e| self.edge(e).flow > 0);
                self.server[c] = left.expect("one server left");
            }
        }
    }

    /// Installs `units` on edge `(i, k)` and on both its endpoints' loads.
    fn assign(&mut self, (i, k): EdgeRef, units: u32) {
        let c = self.edge((i, k)).cust as usize;
        self.q_load[i as usize] += units;
        self.p_load[c] += units;
        self.add_flow((i, k), units);
    }
}

/// The labels of the current search.
struct Labels {
    alpha_q: Vec<f64>,
    settled: Vec<bool>,
    /// The unsettled providers' labels, as [`pick_key`]s; settled ones are
    /// ∞.
    pick: ArgminIndex,
    /// The row index of the reverse arc each provider was reached through
    /// (`NONE`: from `s`).
    parent_q: Vec<u32>,
    alpha_p: Vec<f64>,
    /// The edge each customer was reached through.
    parent_p: Vec<EdgeRef>,
    /// Customers labelled by the current search, if `track`: the first
    /// `num_reached` of one slot per customer.
    reached: Vec<u32>,
    num_reached: usize,
    /// Whether `reached` is kept. A search over the complete graph labels
    /// nearly every customer, so it skips that bookkeeping in the relax
    /// loop and resets and updates the customers by a scan of all of them.
    track: bool,
    sink: f64,
    /// The customer `t` was reached from.
    sink_parent: u32,
    /// Settled providers whose label improved, to re-relax (`Hf`,
    /// Algorithm 5).
    wave: BinaryHeap<Reverse<(OrdF64, u32)>>,
    /// Providers settled, or relabelled while settled, since the current
    /// search began or [`Residual::clear_relabelled`] last ran (repeats
    /// allowed): the only providers whose `α` a search moves.
    relabelled: Vec<u32>,
}

impl Labels {
    fn new(nq: usize, np: usize, track: bool) -> Self {
        Labels {
            alpha_q: vec![f64::INFINITY; nq],
            settled: vec![false; nq],
            pick: ArgminIndex::new(nq),
            parent_q: vec![NONE; nq],
            alpha_p: vec![f64::INFINITY; np],
            parent_p: vec![(NONE, NONE); np],
            reached: vec![0; if track { np } else { 0 }],
            num_reached: 0,
            track,
            sink: f64::INFINITY,
            sink_parent: NONE,
            wave: BinaryHeap::new(),
            relabelled: Vec::new(),
        }
    }

    /// Clears the labels and settles `s` (α = 0): relaxes every residual
    /// `s→q` arc.
    fn start(&mut self, net: &Network) {
        self.alpha_q.fill(f64::INFINITY);
        self.settled.fill(false);
        if self.track {
            for &c in &self.reached[..self.num_reached] {
                self.alpha_p[c as usize] = f64::INFINITY;
            }
        } else {
            self.alpha_p.fill(f64::INFINITY);
        }
        self.num_reached = 0;
        self.sink = f64::INFINITY;
        self.wave.clear();
        self.relabelled.clear();
        for i in 0..net.cap.len() {
            if net.q_load[i] < net.cap[i] {
                self.alpha_q[i] = (net.tau_q[i] - net.tau_s).max(0.0);
                self.parent_q[i] = NONE;
            }
        }
        self.pick
            .assign(self.alpha_q.iter().map(|&alpha| pick_key(alpha)));
    }

    /// Settles providers, lowest label first, until none unsettled is
    /// labelled below `α(t)`. Returns `α(t)`, or `None` when the sink is
    /// unreachable; polls `ctx` every [`CTX_POLL_STRIDE`] settles, the first
    /// time before any.
    fn settle_below_sink(
        &mut self,
        net: &Network,
        ctx: Option<&QueryContext>,
    ) -> Result<Option<f64>, Aborted> {
        let mut until_poll = 0u32;
        loop {
            if let Some(ctx) = ctx {
                if until_poll == 0 {
                    until_poll = CTX_POLL_STRIDE;
                    ctx.check()?;
                }
                until_poll -= 1;
            }
            let Some((i, _)) = self.pick.min_below(pick_key(self.sink)) else {
                break;
            };
            // A settled provider's key is ∞, so no search picks it twice: a
            // pick that did would settle it again, and again, without end.
            debug_assert!(!self.settled[i], "provider {i} picked twice in one search");
            self.settled[i] = true;
            self.relabelled.push(i as u32);
            self.pick.set(i, f64::INFINITY);
            self.relax_row(net, i, 0);
            self.propagate(net);
        }
        Ok(self.sink.is_finite().then_some(self.sink))
    }

    /// Relaxes the `q→p` arcs of settled provider `i`'s row, from edge
    /// `from` on. An improved customer label is relayed at once: to `t` if
    /// the customer has spare weight, and along its reverse arcs to the
    /// providers serving it. A settled provider whose label improves joins
    /// the wave; an unsettled one's key in the pick drops.
    ///
    /// `α(q_i)` and `τ(q_i)` are read once: relaying a customer reached
    /// through this row cannot lower `α(q_i)`. A unit customer reached along
    /// a residual arc carries no flow on it, so it could only relay back to
    /// `q_i` along a second arc from `q_i`, which does not exist; a weighted
    /// customer's round trip costs `|rc| ≥ 0`. Every field the loop touches
    /// is bound to a local first, and the customer columns are cut to one
    /// length, so the loop keeps them in registers and checks one bound.
    fn relax_row(&mut self, net: &Network, i: usize, from: usize) {
        let Labels {
            alpha_q,
            settled,
            pick,
            parent_q,
            alpha_p,
            parent_p,
            reached,
            num_reached,
            track,
            sink,
            sink_parent,
            wave,
            relabelled,
        } = self;
        let n = net.weight.len();
        let (weight, p_load, tau_p) = (&net.weight[..n], &net.p_load[..n], &net.tau_p[..n]);
        let (servers, server) = (&net.servers[..n], &net.server[..n]);
        let (alpha_p, parent_p) = (&mut alpha_p[..n], &mut parent_p[..n]);
        let (alpha, tau, track) = (alpha_q[i], net.tau_q[i], *track);
        let (mut sink_label, mut sink_from, mut reached_n) = (*sink, *sink_parent, *num_reached);
        // The reverse arc `p_c → q_j` of edge `(j, k)`, from `p_c` labelled
        // `label`. `label + EPS` bounds the candidate from below, exactly: a
        // provider labelled no higher (every settled one, in a fresh search)
        // cannot improve, and its edge is not read.
        let mut relax_back = |label: f64, c: usize, (j, k): EdgeRef| {
            let j = j as usize;
            if label + EPS >= alpha_q[j] {
                return;
            }
            let rc = -net.rows[j][k as usize].dist - tau_p[c] + net.tau_q[j];
            debug_assert!(rc > -EPS, "negative reduced cost {rc} on p{c}→q{j}");
            let cand = label + rc.max(0.0);
            if cand + EPS < alpha_q[j] {
                alpha_q[j] = cand;
                parent_q[j] = k;
                if settled[j] {
                    wave.push(Reverse((OrdF64::new(cand), j as u32)));
                    relabelled.push(j as u32);
                } else {
                    pick.set(j, pick_key(cand));
                }
            }
        };
        for (k, e) in net.rows[i][from..].iter().enumerate() {
            let (k, c) = (from + k, e.cust as usize);
            if e.flow < weight[c] {
                let rc = e.dist - tau + tau_p[c];
                debug_assert!(rc > -EPS, "negative reduced cost {rc} on q{i}→p{c}");
                let cand = alpha + rc.max(0.0);
                if cand + EPS < alpha_p[c] {
                    if track && alpha_p[c] == f64::INFINITY {
                        reached[reached_n] = c as u32;
                        reached_n += 1;
                    }
                    alpha_p[c] = cand;
                    parent_p[c] = (i as u32, k as u32);
                    if p_load[c] < weight[c] {
                        // rc(p→t) = 0 − τ(p) + τ(t), with τ(t) = 0.
                        let to_sink = cand + (-tau_p[c]).max(0.0);
                        if to_sink + EPS < sink_label {
                            (sink_label, sink_from) = (to_sink, c as u32);
                        }
                    }
                    match servers[c] {
                        0 => {}
                        1 => relax_back(cand, c, server[c]),
                        _ => {
                            for e in net.incident(c) {
                                if net.edge(e).flow > 0 {
                                    relax_back(cand, c, e);
                                }
                            }
                        }
                    }
                }
            }
        }
        (*sink, *sink_parent, *num_reached) = (sink_label, sink_from, reached_n);
        debug_assert!(
            alpha_q[i].to_bits() == alpha.to_bits(),
            "α(q{i}) fell while its own row was relaxed"
        );
    }

    /// Processes the wave until empty: every settled provider whose label
    /// improved has its row re-relaxed, transitively.
    fn propagate(&mut self, net: &Network) {
        while let Some(Reverse((key, i))) = self.wave.pop() {
            let i = i as usize;
            if key.get() > self.alpha_q[i] + EPS {
                continue; // stale wave entry
            }
            self.relax_row(net, i, 0);
        }
    }
}

/// The last augmented path `s → q → p (→ q → p)* → t`, kept for a repeat
/// push.
#[derive(Default)]
struct Path {
    /// The provider `s` feeds.
    first: u32,
    /// Its `q→p` arcs, walked back from `t`: the first one ends at the
    /// customer that feeds `t`.
    forward: Vec<EdgeRef>,
    /// Its `p→q` reverse arcs.
    back: Vec<EdgeRef>,
}

/// The residual state of one flow solve and its current search (see the
/// module docs). Providers are indexed `0..|Q|`; customers by the slot
/// [`Residual::add_customer`] returns; an edge by its provider and its
/// index in that provider's row.
pub struct Residual {
    net: Network,
    labels: Labels,
    path: Path,
}

impl Residual {
    /// Providers of capacities `cap`, no customers and no edges.
    pub fn new(cap: Vec<u32>) -> Self {
        let nq = cap.len();
        Residual {
            net: Network {
                cap,
                q_load: vec![0; nq],
                rows: (0..nq).map(|_| Vec::new()).collect(),
                next: (0..nq).map(|_| Vec::new()).collect(),
                weight: Vec::new(),
                p_load: Vec::new(),
                head: Vec::new(),
                tail: Vec::new(),
                servers: Vec::new(),
                server: Vec::new(),
                tau_s: 0.0,
                tau_q: vec![0.0; nq],
                tau_p: Vec::new(),
            },
            labels: Labels::new(nq, 0, true),
            path: Path::default(),
        }
    }

    /// The complete bipartite graph: customer `j` in slot `j`, and provider
    /// `i`'s row holding every customer in slot order, so edge `(i, j)` is
    /// `q_i → p_j`. Every vector is sized once.
    pub(crate) fn complete(providers: &[FlowProvider], customers: &[FlowCustomer]) -> Self {
        let (nq, np) = (providers.len(), customers.len());
        let rows = providers.iter().map(|q| {
            let edge = |(j, p): (usize, &FlowCustomer)| Edge {
                cust: j as u32,
                flow: 0,
                dist: q.pos.dist(&p.pos),
            };
            customers.iter().enumerate().map(edge).collect()
        });
        // Customer `j`'s edges are `(i, j)` for every provider `i`, in
        // provider order.
        let next = (1..=nq as u32).map(|i| {
            let below = |j| if (i as usize) < nq { (i, j) } else { NO_EDGE };
            (0..np as u32).map(below).collect()
        });
        let ends = |i: usize| match nq {
            0 => vec![NO_EDGE; np],
            _ => (0..np as u32).map(|j| (i as u32, j)).collect(),
        };
        Residual {
            net: Network {
                cap: providers.iter().map(|q| q.cap).collect(),
                q_load: vec![0; nq],
                rows: rows.collect(),
                next: next.collect(),
                weight: customers.iter().map(|p| p.weight).collect(),
                p_load: vec![0; np],
                head: ends(0),
                tail: ends(nq.saturating_sub(1)),
                servers: vec![0; np],
                server: vec![NO_EDGE; np],
                tau_s: 0.0,
                tau_q: vec![0.0; nq],
                tau_p: vec![0.0; np],
            },
            labels: Labels::new(nq, np, false),
            path: Path::default(),
        }
    }

    /// Adds a customer of weight `weight` with no edges; returns its slot.
    pub fn add_customer(&mut self, weight: u32) -> usize {
        let net = &mut self.net;
        net.weight.push(weight);
        net.p_load.push(0);
        net.head.push(NO_EDGE);
        net.tail.push(NO_EDGE);
        net.servers.push(0);
        net.server.push((NONE, NONE));
        net.tau_p.push(0.0);
        self.labels.alpha_p.push(f64::INFINITY);
        self.labels.reached.push(0);
        self.labels.parent_p.push(NO_EDGE);
        net.weight.len() - 1
    }

    /// Inserts edge `q_i → p_c` of length `dist`; returns its index in
    /// provider `i`'s row.
    pub fn insert_edge(&mut self, i: usize, c: usize, dist: f64) -> usize {
        let net = &mut self.net;
        let k = net.rows[i].len();
        net.rows[i].push(Edge {
            cust: c as u32,
            flow: 0,
            dist,
        });
        net.next[i].push(NO_EDGE);
        let e = (i as u32, k as u32);
        match net.tail[c] {
            NO_EDGE => net.head[c] = e,
            (ti, tk) => net.next[ti as usize][tk as usize] = e,
        }
        net.tail[c] = e;
        k
    }

    /// Edge `(i, k)` as its customer slot, flow and length.
    pub fn edge(&self, i: usize, k: usize) -> (usize, u32, f64) {
        let e = self.net.rows[i][k];
        (e.cust as usize, e.flow, e.dist)
    }

    /// Every edge as `(provider, customer slot, flow, length)`, provider by
    /// provider, each row in insertion order.
    pub(crate) fn edges(&self) -> impl Iterator<Item = (usize, usize, u32, f64)> + '_ {
        self.net.rows.iter().enumerate().flat_map(|(i, row)| {
            row.iter()
                .map(move |e| (i, e.cust as usize, e.flow, e.dist))
        })
    }

    /// Number of providers, |Q|.
    pub fn num_providers(&self) -> usize {
        self.net.cap.len()
    }

    /// Total provider capacity `Σ q.k`.
    pub fn total_capacity(&self) -> u64 {
        self.net.cap.iter().map(|&k| u64::from(k)).sum()
    }

    /// Total units installed.
    pub fn assigned_units(&self) -> u64 {
        self.net.p_load.iter().map(|&l| u64::from(l)).sum()
    }

    /// True if provider `i` has no spare capacity.
    #[inline]
    pub fn provider_full(&self, i: usize) -> bool {
        self.net.q_load[i] == self.net.cap[i]
    }

    /// True if customer `c` has no spare weight.
    #[inline]
    pub fn customer_full(&self, c: usize) -> bool {
        self.net.p_load[c] == self.net.weight[c]
    }

    /// Current potential `τ(q_i)`.
    #[inline]
    pub fn provider_tau(&self, i: usize) -> f64 {
        self.net.tau_q[i]
    }

    /// The potentials `(τ(s), τ(q), τ(p))`.
    pub fn potentials(&self) -> (f64, Vec<f64>, Vec<f64>) {
        let net = &self.net;
        (net.tau_s, net.tau_q.clone(), net.tau_p.clone())
    }

    /// Replaces the potentials; `tau_q` and `tau_p` give one per provider
    /// and one per customer slot.
    pub fn set_potentials(&mut self, tau_s: f64, tau_q: &[f64], tau_p: &[f64]) {
        self.net.tau_s = tau_s;
        self.net.tau_q.copy_from_slice(tau_q);
        self.net.tau_p.copy_from_slice(tau_p);
    }

    /// Installs as many units on edge `(i, k)` as both its provider and its
    /// customer have spare, and returns them.
    pub fn fill_edge(&mut self, i: usize, k: usize) -> u32 {
        let c = self.net.rows[i][k].cust as usize;
        let units =
            (self.net.weight[c] - self.net.p_load[c]).min(self.net.cap[i] - self.net.q_load[i]);
        if units > 0 {
            self.net.assign((i as u32, k as u32), units);
        }
        units
    }

    // ------------------------------------------------------------------
    // Search
    // ------------------------------------------------------------------

    /// A fresh search from `s` until no unsettled provider is labelled
    /// below the sink. Returns `α(t)`, or `None` when `t` is unreachable.
    /// Polls `ctx` first and every 64 settled providers; an abort leaves
    /// the flow untouched.
    pub fn search(&mut self, ctx: Option<&QueryContext>) -> Result<Option<f64>, Aborted> {
        self.labels.start(&self.net);
        self.labels.settle_below_sink(&self.net, ctx)
    }

    /// PUA: resumes the current search after edge `(i, k)` was inserted,
    /// and returns the new `α(t)` as [`Residual::search`] does.
    pub fn resume(
        &mut self,
        i: usize,
        k: usize,
        ctx: Option<&QueryContext>,
    ) -> Result<Option<f64>, Aborted> {
        // An unsettled provider relaxes the new arc when (if) it settles.
        if self.labels.settled[i] {
            self.labels.relax_row(&self.net, i, k);
            self.labels.propagate(&self.net);
        }
        self.labels.settle_below_sink(&self.net, ctx)
    }

    /// The current search's label of provider `i` (∞ if not reached).
    #[inline]
    pub fn provider_alpha(&self, i: usize) -> f64 {
        self.labels.alpha_q[i]
    }

    /// True if provider `i` was settled by the current search.
    #[inline]
    pub fn provider_settled(&self, i: usize) -> bool {
        self.labels.settled[i]
    }

    /// Providers settled, or whose settled label PUA's wave lowered, since
    /// the current search began or the last [`Residual::clear_relabelled`];
    /// a provider may appear more than once.
    #[inline]
    pub fn relabelled(&self) -> &[u32] {
        &self.labels.relabelled
    }

    /// Empties [`Residual::relabelled`].
    #[inline]
    pub fn clear_relabelled(&mut self) {
        self.labels.relabelled.clear();
    }

    // ------------------------------------------------------------------
    // Augment and potentials
    // ------------------------------------------------------------------

    /// Pushes as many units along the current search's path to `t` as its
    /// bottleneck admits, capped at `limit` (Algorithm 1 lines 4–7), and
    /// returns the amount. The path is walked back from `t` through the
    /// parent links and kept for [`Residual::repeat_path`].
    pub fn augment(&mut self, limit: u32) -> u32 {
        let (net, labels, path) = (&self.net, &self.labels, &mut self.path);
        path.forward.clear();
        path.back.clear();
        let mut c = labels.sink_parent as usize;
        let mut units = limit.min(net.weight[c] - net.p_load[c]);
        path.first = loop {
            let (i, k) = labels.parent_p[c];
            path.forward.push((i, k));
            units = units.min(net.weight[c] - net.edge((i, k)).flow);
            match labels.parent_q[i as usize] {
                NONE => break i,
                back => {
                    path.back.push((i, back));
                    let e = net.edge((i, back));
                    units = units.min(e.flow);
                    c = e.cust as usize;
                }
            }
        };
        let first = path.first as usize;
        units = units.min(net.cap[first] - net.q_load[first]);
        debug_assert!(units > 0, "augmenting along a saturated path");
        self.push_path(units);
        units
    }

    /// The provider `s` feeds on the last augmented path.
    #[inline]
    pub fn path_source(&self) -> usize {
        self.path.first as usize
    }

    /// True if the last augmented path still has residual capacity on every
    /// arc, i.e. it could be pushed again as-is.
    pub fn path_residual(&self) -> bool {
        let (net, path) = (&self.net, &self.path);
        let Some(&last) = path.forward.first() else {
            return false;
        };
        let (first, last) = (path.first as usize, net.edge(last).cust as usize);
        net.q_load[first] < net.cap[first]
            && net.p_load[last] < net.weight[last]
            && path.forward.iter().all(|&e| {
                let e = net.edge(e);
                e.flow < net.weight[e.cust as usize]
            })
            && path.back.iter().all(|&e| net.edge(e).flow > 0)
    }

    /// Pushes one more unit along the last augmented path, without a
    /// search. The caller has checked [`Residual::path_residual`].
    pub fn repeat_path(&mut self) {
        debug_assert!(self.path_residual());
        self.push_path(1);
    }

    /// Pushes `units` along the last augmented path.
    fn push_path(&mut self, units: u32) {
        let (net, path) = (&mut self.net, &self.path);
        let last = net.edge(path.forward[0]).cust as usize;
        net.q_load[path.first as usize] += units;
        net.p_load[last] += units;
        // Each customer inside the path loses its reverse arc's flow before
        // it gains its forward arc's, so a unit customer never has two
        // servers and never scans its edges for the one left.
        for (n, &e) in path.forward.iter().enumerate() {
            net.add_flow(e, units);
            if let Some(&back) = path.back.get(n) {
                net.cancel_flow(back, units);
            }
        }
    }

    /// Algorithm 1 lines 8–9 after a search that reached `t` at `alpha_t`:
    /// `τ(v) += α(t) − α(v)` for every node labelled below `α(t)` — `s`,
    /// the settled providers and those customers (`τ(t)` gains 0). Returns
    /// the search's settled-node count: those nodes plus `t`.
    pub fn update_potentials(&mut self, alpha_t: f64) -> u64 {
        let (net, labels) = (&mut self.net, &self.labels);
        let mut settled = 2; // s and t
        if alpha_t > 0.0 {
            net.tau_s += alpha_t;
        }
        for (i, &done) in labels.settled.iter().enumerate() {
            if done {
                settled += 1;
                let delta = alpha_t - labels.alpha_q[i];
                if delta > 0.0 {
                    net.tau_q[i] += delta;
                }
            }
        }
        if labels.track {
            for &c in &labels.reached[..labels.num_reached] {
                let alpha = labels.alpha_p[c as usize];
                if alpha < alpha_t {
                    settled += 1;
                    net.tau_p[c as usize] += alpha_t - alpha;
                }
            }
        } else {
            for (tau, &alpha) in net.tau_p.iter_mut().zip(&labels.alpha_p) {
                if alpha < alpha_t {
                    settled += 1;
                    *tau += alpha_t - alpha;
                }
            }
        }
        settled
    }

    /// The optimality certificate ([`assert_optimal`]) of the installed
    /// flow on this edge set under the current potentials: a flow of value
    /// γ over the customers added, with no negative residual arc.
    pub fn certify(&self) -> Result<(), String> {
        let rows: Vec<_> = self.edges().map(|(i, c, f, d)| (i, c, d, f)).collect();
        let net = &self.net;
        let tau = (net.tau_s, &net.tau_q[..], &net.tau_p[..]);
        assert_optimal(&net.cap, &net.weight, &rows, tau)
    }
}
