//! The provider graph: the residual graph of a unit-weight matching,
//! contracted onto its providers, kept for the dynamic engine's whole life.
//!
//! Every customer of the dynamic engine weighs 1, so in the residual graph
//! of a matching (§2.2) each customer node has exactly one way out: back to
//! its provider when it is matched, on to the sink `t` when it is not. A
//! residual path therefore enters a customer and leaves it by that one
//! exit, and the graph contracts to a dense graph on `{s, t} ∪ Q`:
//!
//! * `s → q` while `q` has spare capacity, and `q → s` while it has load;
//! * `q → q′` costs the minimum over `q′`'s customers `p` of
//!   `d(q, p) − d(q′, p)`: `q` takes `p` over from `q′`;
//! * `q → t` costs the distance to `q`'s nearest unmatched customer, which
//!   `q` takes on;
//! * `t → q′` costs minus the distance to `q′`'s farthest customer, which
//!   `q′` drops.
//!
//! With the unmatched customers as `t`'s group and `d(t, p) = 0`, the last
//! three are one rule: `x → h` costs the minimum over `h`'s group of
//! `d(x, p) − d(h, p)`, and a unit pushed along it moves that argmin
//! customer from group `h` to group `x`. A simple cycle or path enters each
//! node once, so the customers behind its arcs are distinct, and the
//! contracted graph's negative cycles and augmenting paths are exactly
//! those of the full graph. Labels on the contracted nodes extend to the
//! customers (`π(p) = π(h) + d(h, p)` puts every customer's exit at reduced
//! cost 0), so "no contracted arc of negative reduced cost" is the paper's
//! optimality certificate for the whole graph.
//!
//! Each arc keeps its argmin customer and caches the second best, so
//! taking the argmin out of a group rarely forces a rescan of the group.
//! The graph keeps no distance table: it recomputes `d(q, p)` where it
//! needs one, and holds O(|Q|² + |P|) numbers. Building it costs O(|Q|·|P|)
//! distances and reads no pages.
//!
//! # Across events
//!
//! The graph owns the world (provider positions and capacities, customer
//! positions), the matching as its groups, and the labels. After every
//! completed [`ProviderGraph::solve`] no arc has negative reduced cost, and a
//! world change breaks that only on the arcs it touches. Each change marks
//! the nodes whose arcs it may have made negative:
//!
//! * an arrival joins `t`'s group: the arcs into `t`;
//! * a departure leaves its group, and opens `s → q` if its provider `q`
//!   was full: the arcs into `q`. The last slot is renamed into the freed
//!   one;
//! * a capacity rise opens `s → q`: the arcs into `q`. A cut moves `q`'s
//!   farthest customers to `t`: the arcs into `t`;
//! * a move changes every arc into and out of its provider.
//!
//! `solve` scans only the marked nodes' arcs. A customer that a cancelled
//! cycle moves takes its in-arcs, negative ones included, to its new group,
//! so that group is marked in turn. No other step makes an arc negative.

use cca_geo::Point;
use cca_storage::{Aborted, QueryContext};

/// A reduced cost below `-TOL` is negative. Far below the flow kernel's
/// `EPS`, so a graph that leaves this module passes its certificate, and
/// far above the rounding of a label.
const TOL: f64 = 1e-9;

const NONE: u32 = u32::MAX;

/// A customer behind an arc, with the arc cost it gives.
#[derive(Clone, Copy, Debug, PartialEq)]
struct Cand {
    cost: f64,
    slot: u32,
}

/// No customer: an empty group.
const EMPTY: Cand = Cand {
    cost: f64::INFINITY,
    slot: NONE,
};

impl Cand {
    /// Ordered by cost, ties by slot, so an argmin does not depend on the
    /// order customers joined the group. Costs are never NaN.
    fn before(self, other: Cand) -> bool {
        self.cost < other.cost || (self.cost == other.cost && self.slot < other.slot)
    }
}

/// A runner-up nobody knows: the best was taken out and the old runner-up
/// promoted.
const UNKNOWN: u32 = u32::MAX - 1;

/// One `x → h` arc between groups, in 16 bytes: its cost, the customer
/// behind it, and the runner-up's slot (`NONE` when there is none). The
/// runner-up's cost is recomputed when it is needed.
#[derive(Clone, Copy)]
struct Arc {
    cost: f64,
    best: u32,
    second: u32,
}

/// The arc into an empty group.
const NO_ARC: Arc = Arc {
    cost: f64::INFINITY,
    best: NONE,
    second: NONE,
};

impl Arc {
    fn best(self) -> Cand {
        Cand {
            cost: self.cost,
            slot: self.best,
        }
    }
}

/// A world, its matching as the provider graph, and the labels that
/// certify the matching. Nodes are the providers `0..n`, then `t = n`, then
/// `s = n + 1`; groups are the providers and `t`.
pub(super) struct ProviderGraph {
    providers: Vec<(Point, u32)>,
    customers: Vec<Point>,
    /// Customer slot → its group: a provider, or `n` (unmatched).
    group: Vec<u32>,
    /// Customer slot → `d(group, p)`; 0 when unmatched.
    own: Vec<f64>,
    /// Group → its customer slots.
    members: Vec<Vec<u32>>,
    /// Customer slot → its index in its group's `members`.
    at: Vec<u32>,
    /// `arcs[x·(n+1) + h]`, for groups `x ≠ h`.
    arcs: Vec<Arc>,
    label: Vec<f64>,
    /// Nodes whose in-arcs, and nodes whose out-arcs, may be negative.
    dirty_in: Vec<bool>,
    dirty_out: Vec<bool>,
    /// The running solve's moves, as (slot, the group it left), and the
    /// labels it started from: an abort rolls both back.
    undo: Vec<(u32, u32)>,
    saved: Vec<f64>,
    dist: Vec<f64>,
    done: Vec<bool>,
    pred: Vec<u32>,
    pops: u64,
    /// The last solve's negative cycles cancelled.
    cycles: u64,
    /// The last solve's negative arcs fixed by raising labels alone.
    relabels: u64,
    /// The last solve's augmenting paths.
    augments: u64,
}

impl ProviderGraph {
    /// The graph of the feasible matching `assigned` (slot → provider),
    /// with every node marked for the first [`ProviderGraph::solve`].
    pub(super) fn new(
        providers: Vec<(Point, u32)>,
        customers: Vec<Point>,
        assigned: &[Option<u32>],
    ) -> Self {
        let n = providers.len();
        let nodes = n + 2;
        let len = customers.len();
        let mut graph = ProviderGraph {
            providers,
            customers,
            group: vec![NONE; len],
            own: vec![0.0; len],
            members: vec![Vec::new(); n + 1],
            at: vec![0; len],
            arcs: vec![NO_ARC; (n + 1) * (n + 1)],
            label: vec![0.0; nodes],
            dirty_in: vec![true; nodes],
            dirty_out: vec![false; nodes],
            undo: Vec::new(),
            saved: vec![0.0; nodes],
            dist: vec![0.0; nodes],
            done: vec![false; nodes],
            pred: vec![NONE; nodes],
            pops: 0,
            cycles: 0,
            relabels: 0,
            augments: 0,
        };
        for (slot, a) in assigned.iter().enumerate() {
            graph.place(slot, a.map_or(n, |q| q as usize));
        }
        for h in 0..=n {
            for x in (0..=n).filter(|&x| x != h) {
                graph.rescan(x, h);
            }
        }
        graph.seed_labels();
        graph
    }

    /// Labels from shortest paths out of a virtual root with a zero arc to
    /// every node: a dense Bellman–Ford of at most |Q| + 2 rounds. On a
    /// minimum-cost matching (IDA's, in `build`) it converges and leaves no
    /// negative arc, so the first solve only checks; on any other matching
    /// the solve cancels what is left.
    fn seed_labels(&mut self) {
        let nodes = self.label.len();
        for _ in 0..nodes {
            let mut changed = false;
            for u in 0..nodes {
                for v in 0..nodes {
                    if let Some(cand) = self.cost(u, v).map(|c| self.label[u] + c) {
                        if cand < self.label[v] - TOL {
                            self.label[v] = cand;
                            changed = true;
                        }
                    }
                }
            }
            if !changed {
                return;
            }
        }
    }

    pub(super) fn providers(&self) -> &[(Point, u32)] {
        &self.providers
    }

    pub(super) fn customers(&self) -> &[Point] {
        &self.customers
    }

    /// The matched customers as (slot, provider, distance), in slot order.
    pub(super) fn pairs(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        let n = self.providers.len();
        self.group
            .iter()
            .zip(&self.own)
            .enumerate()
            .filter(move |&(_, (&g, _))| g as usize != n)
            .map(|(slot, (&g, &own))| (slot, g as usize, own))
    }

    /// Customers assigned to provider `q`.
    pub(super) fn load(&self, q: usize) -> u32 {
        self.members[q].len() as u32
    }

    /// Matched customers.
    pub(super) fn size(&self) -> u64 {
        (self.customers.len() - self.members[self.providers.len()].len()) as u64
    }

    /// `γ = min(|P|, Σk)`.
    pub(super) fn gamma(&self) -> u64 {
        let cap: u64 = self.providers.iter().map(|&(_, k)| u64::from(k)).sum();
        cap.min(self.customers.len() as u64)
    }

    /// Whether [`ProviderGraph::solve`] has work: a marked node, or a
    /// matching short of γ.
    pub(super) fn pending(&self) -> bool {
        self.dirty_in.iter().chain(&self.dirty_out).any(|&d| d) || self.size() < self.gamma()
    }

    // ------------------------------------------------------------------
    // World changes (phase 1)
    // ------------------------------------------------------------------

    /// A new customer at `pos`, unmatched; returns its slot.
    pub(super) fn arrive(&mut self, pos: Point) -> usize {
        let slot = self.customers.len();
        self.customers.push(pos);
        self.group.push(NONE);
        self.own.push(0.0);
        self.at.push(0);
        let t = self.providers.len();
        self.join(slot, t);
        self.dirty_in[t] = true;
        slot
    }

    /// Removes the customer in `slot`, and moves the last slot's customer
    /// into it.
    pub(super) fn depart(&mut self, slot: usize) {
        let n = self.providers.len();
        let h = self.group[slot] as usize;
        self.leave(slot);
        if h < n {
            self.dirty_in[h] = true;
        }
        let last = self.customers.len() - 1;
        if slot != last {
            self.rename(last, slot);
        }
        self.customers.pop();
        self.group.pop();
        self.own.pop();
        self.at.pop();
    }

    /// Sets provider `q`'s capacity to `cap`, moving its farthest customers
    /// to `t` while it carries more. Returns how many it moved.
    pub(super) fn set_capacity(&mut self, q: usize, cap: u32) -> u64 {
        let t = self.providers.len();
        let old = std::mem::replace(&mut self.providers[q].1, cap);
        let mut evicted = 0;
        while self.load(q) > cap {
            // `t → q` takes `q`'s farthest customer.
            let victim = self.arcs[t * (t + 1) + q].best as usize;
            self.leave(victim);
            self.join(victim, t);
            evicted += 1;
        }
        self.dirty_in[t] |= evicted > 0;
        self.dirty_in[q] |= cap > old;
        evicted
    }

    /// Moves provider `q` to `to`: its customers' own distances and every
    /// arc into and out of it change.
    pub(super) fn move_provider(&mut self, q: usize, to: Point) {
        let n = self.providers.len();
        self.providers[q].0 = to;
        for i in 0..self.members[q].len() {
            let slot = self.members[q][i] as usize;
            self.own[slot] = self.d(q, slot);
        }
        for h in (0..=n).filter(|&h| h != q) {
            self.rescan(q, h);
            self.rescan(h, q);
        }
        self.dirty_in[q] = true;
        self.dirty_out[q] = true;
    }

    // ------------------------------------------------------------------
    // Re-optimisation (phase 2)
    // ------------------------------------------------------------------

    /// Re-optimises the matching to a minimum-cost one of size γ.
    ///
    /// First every arc of negative reduced cost goes, one at a time, most
    /// negative first: a Dijkstra from its head over the arcs of
    /// non-negative reduced cost either reaches its tail by a path that
    /// closes a negative cycle, which is cancelled, or raises the labels
    /// until the arc is non-negative. The flow is then minimum-cost for its
    /// size, and Dijkstra on reduced costs augments it to γ.
    ///
    /// Polls `ctx` up front and every 64 node pops. An abort undoes the
    /// solve's moves and labels, so the matching is as the world changes
    /// left it, bit for bit, and marks every node for the next solve.
    pub(super) fn solve(&mut self, ctx: Option<&QueryContext>) -> Result<(), Aborted> {
        if let Some(ctx) = ctx {
            ctx.check()?;
        }
        self.undo.clear();
        self.saved.clone_from(&self.label);
        if let Err(aborted) = self.optimise(ctx) {
            for (slot, from) in std::mem::take(&mut self.undo).into_iter().rev() {
                self.leave(slot as usize);
                self.join(slot as usize, from as usize);
            }
            self.label.clone_from(&self.saved);
            self.dirty_in.fill(true);
            return Err(aborted);
        }
        self.dirty_in.fill(false);
        self.dirty_out.fill(false);
        self.normalise();
        Ok(())
    }

    fn optimise(&mut self, ctx: Option<&QueryContext>) -> Result<(), Aborted> {
        (self.cycles, self.relabels, self.augments) = (0, 0, 0);
        // Each step removes a negative customer arc or adds a unit, and
        // makes no negative arc: more steps than that is a bug, not work.
        let n = self.providers.len();
        let bound = (n as u64 + 2) * (self.customers.len() as u64 + 2);
        let (s, t) = (n + 1, n);
        while let Some((u, v, rc)) = self.most_negative_arc() {
            self.step(bound);
            self.search(v, u, -rc, ctx)?;
            if self.done[u] && self.dist[u] + rc < -TOL {
                self.relabel(self.dist[u]);
                self.push(v, u, true);
                self.cycles += 1;
            } else {
                self.relabel(-rc);
                self.relabels += 1;
            }
        }
        let gamma = self.gamma();
        while self.size() < gamma {
            self.step(bound);
            self.search(s, t, f64::INFINITY, ctx)?;
            assert!(
                self.done[t],
                "no augmenting path at size {} of γ = {gamma}",
                self.size()
            );
            self.relabel(self.dist[t]);
            self.push(s, t, false);
            self.augments += 1;
        }
        Ok(())
    }

    fn step(&self, bound: u64) {
        debug_assert!(
            self.cycles + self.relabels + self.augments < bound,
            "provider graph: {} cycles, {} relabels and {} augments on {} providers \
             and {} customers; the re-solve is not converging",
            self.cycles,
            self.relabels,
            self.augments,
            self.providers.len(),
            self.customers.len()
        );
    }

    /// `d(x, p)` for a group `x`; 0 for the unmatched group.
    fn d(&self, x: usize, slot: usize) -> f64 {
        match self.providers.get(x) {
            Some(&(pos, _)) => pos.dist(&self.customers[slot]),
            None => 0.0,
        }
    }

    /// The cost of the arc `u → v` between nodes, if the arc exists.
    fn cost(&self, u: usize, v: usize) -> Option<f64> {
        let n = self.providers.len();
        let s = n + 1;
        if u == s {
            let (_, cap) = *self.providers.get(v)?;
            return (self.load(v) < cap).then_some(0.0);
        }
        if v == s {
            return (u < n && !self.members[u].is_empty()).then_some(0.0);
        }
        if u == v {
            return None;
        }
        let arc = self.arcs[u * (n + 1) + v];
        (arc.best != NONE).then_some(arc.cost)
    }

    fn reduced(&self, u: usize, v: usize) -> Option<f64> {
        Some(self.cost(u, v)? + self.label[u] - self.label[v])
    }

    /// The arc of most negative reduced cost into or out of a marked node,
    /// if one is below `-TOL`. Unmarks the nodes it finds clean.
    fn most_negative_arc(&mut self) -> Option<(usize, usize, f64)> {
        let nodes = self.label.len();
        let mut worst = None;
        let mut least = -TOL;
        for x in 0..nodes {
            for (dirty, into) in [(self.dirty_in[x], true), (self.dirty_out[x], false)] {
                if !dirty {
                    continue;
                }
                let mut clean = true;
                for y in 0..nodes {
                    let (u, v) = if into { (y, x) } else { (x, y) };
                    if let Some(rc) = self.reduced(u, v).filter(|&rc| rc < -TOL) {
                        clean = false;
                        if rc < least {
                            least = rc;
                            worst = Some((u, v, rc));
                        }
                    }
                }
                if clean {
                    if into {
                        self.dirty_in[x] = false;
                    } else {
                        self.dirty_out[x] = false;
                    }
                }
            }
        }
        worst
    }

    /// Dense Dijkstra from `from` over the arcs of non-negative reduced
    /// cost, settling nodes closer than `limit` until `to` is settled.
    fn search(
        &mut self,
        from: usize,
        to: usize,
        limit: f64,
        ctx: Option<&QueryContext>,
    ) -> Result<(), Aborted> {
        let nodes = self.label.len();
        self.dist.fill(f64::INFINITY);
        self.done.fill(false);
        self.dist[from] = 0.0;
        loop {
            let mut u = NONE as usize;
            let mut key = limit;
            for (x, (&d, &done)) in self.dist.iter().zip(&self.done).enumerate() {
                if !done && d < key {
                    (u, key) = (x, d);
                }
            }
            if u == NONE as usize {
                return Ok(());
            }
            self.pops += 1;
            if self.pops.is_multiple_of(64) {
                if let Some(ctx) = ctx {
                    ctx.check()?;
                }
            }
            self.done[u] = true;
            if u == to {
                return Ok(());
            }
            for v in 0..nodes {
                if self.done[v] {
                    continue;
                }
                match self.reduced(u, v) {
                    Some(rc) if rc >= -TOL => {
                        let cand = key + rc.max(0.0);
                        if cand < self.dist[v] {
                            self.dist[v] = cand;
                            self.pred[v] = u as u32;
                        }
                    }
                    _ => {}
                }
            }
        }
    }

    /// Lowers each settled node's label by `b − dist`: the labels become
    /// `π + min(dist, b)` up to a constant, which keeps every non-negative
    /// arc non-negative and makes the search tree's arcs tight.
    fn relabel(&mut self, b: f64) {
        for ((label, &d), &done) in self.label.iter_mut().zip(&self.dist).zip(&self.done) {
            if done {
                *label -= b - d;
            }
        }
    }

    /// Pushes one unit from `from` to `to` along the search tree, and on
    /// along the arc `to → from` when it closes a `cycle`. A cycle may carry
    /// negative arcs into the customers it moves, so it marks their new
    /// groups; an augmenting path runs when no arc is negative.
    fn push(&mut self, from: usize, to: usize, cycle: bool) {
        let n = self.providers.len();
        let s = n + 1;
        let mut arcs = Vec::new();
        if cycle {
            arcs.push((to, from));
        }
        let mut x = to;
        while x != from {
            let u = self.pred[x] as usize;
            arcs.push((u, x));
            x = u;
        }
        // The customers behind the arcs, all read before any moves.
        let moves: Vec<(usize, usize)> = arcs
            .iter()
            .filter(|&&(u, v)| u != s && v != s)
            .map(|&(u, v)| (self.arcs[u * (n + 1) + v].best as usize, u))
            .collect();
        for (slot, to) in moves {
            self.undo.push((slot as u32, self.group[slot]));
            self.leave(slot);
            self.join(slot, to);
            self.dirty_in[to] |= cycle;
        }
    }

    /// Keeps the labels bounded across events. A node that no arc enters
    /// is never settled, so every relabel would leave it further behind;
    /// its label only bounds its out-arcs from below, so it drops to the
    /// least that keeps them non-negative. Then all labels shift so the
    /// highest is 0.
    fn normalise(&mut self) {
        let n = self.providers.len();
        let (t, s) = (n, n + 1);
        let nodes = self.label.len();
        for v in 0..nodes {
            let entered = match v {
                _ if v == s => self.members[..n].iter().any(|m| !m.is_empty()),
                _ if v == t => !self.members[t].is_empty(),
                q => !self.members[q].is_empty() || self.providers[q].1 > 0,
            };
            if !entered {
                let least = (0..nodes)
                    .filter_map(|w| Some(self.label[w] - self.cost(v, w)?))
                    .fold(f64::NEG_INFINITY, f64::max);
                self.label[v] = if least.is_finite() { least } else { 0.0 };
            }
        }
        let top = self.label.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        for label in &mut self.label {
            *label -= top;
        }
    }

    // ------------------------------------------------------------------
    // Groups and arcs
    // ------------------------------------------------------------------

    /// Takes `slot` out of its group, updating the arcs into the group.
    fn leave(&mut self, slot: usize) {
        let n = self.providers.len();
        let h = self.group[slot] as usize;
        let i = self.at[slot] as usize;
        self.members[h].swap_remove(i);
        if let Some(&moved) = self.members[h].get(i) {
            self.at[moved as usize] = i as u32;
        }
        let slot = slot as u32;
        for x in (0..=n).filter(|&x| x != h) {
            let at = x * (n + 1) + h;
            let arc = self.arcs[at];
            if arc.best == slot {
                self.arcs[at] = match arc.second {
                    UNKNOWN => {
                        self.rescan(x, h);
                        continue;
                    }
                    NONE => NO_ARC,
                    second => Arc {
                        cost: self.cand(x, second).cost,
                        best: second,
                        second: UNKNOWN,
                    },
                };
            } else if arc.second == slot {
                self.arcs[at].second = UNKNOWN;
            }
        }
    }

    /// Puts `slot` into group `h`, updating the arcs into the group.
    fn join(&mut self, slot: usize, h: usize) {
        let n = self.providers.len();
        self.place(slot, h);
        for x in (0..=n).filter(|&x| x != h) {
            self.offer(x, h, self.cand(x, slot as u32));
        }
    }

    /// Offers `cand`, a customer that is neither the best nor the runner-up
    /// of `x → h`, to that arc.
    fn offer(&mut self, x: usize, h: usize, cand: Cand) {
        let at = x * (self.providers.len() + 1) + h;
        let arc = self.arcs[at];
        if cand.before(arc.best()) {
            // The old best is at most every other member: the new
            // runner-up, whether the old runner-up was known or not.
            self.arcs[at] = Arc {
                cost: cand.cost,
                best: cand.slot,
                second: arc.best,
            };
        } else if arc.second != UNKNOWN && cand.before(self.cand(x, arc.second)) {
            self.arcs[at].second = cand.slot;
        }
    }

    /// Gives the customer in slot `from` the free slot `to`. Its costs stay
    /// and its slot falls, so it can only move ahead in each arc's order.
    fn rename(&mut self, from: usize, to: usize) {
        let n = self.providers.len();
        let h = self.group[from] as usize;
        self.customers[to] = self.customers[from];
        self.group[to] = self.group[from];
        self.own[to] = self.own[from];
        self.at[to] = self.at[from];
        self.members[h][self.at[to] as usize] = to as u32;
        let (from, to) = (from as u32, to as u32);
        for x in (0..=n).filter(|&x| x != h) {
            let at = x * (n + 1) + h;
            let arc = self.arcs[at];
            if arc.best == from {
                self.arcs[at].best = to;
                continue;
            }
            let renamed = self.cand(x, to);
            if arc.second == from {
                if renamed.before(arc.best()) {
                    self.arcs[at] = Arc {
                        cost: renamed.cost,
                        best: to,
                        second: arc.best,
                    };
                } else {
                    self.arcs[at].second = to;
                }
            } else {
                self.offer(x, h, renamed);
            }
        }
    }

    /// The customer in `slot` as a candidate for an arc out of `x`; `NONE`
    /// is no customer.
    fn cand(&self, x: usize, slot: u32) -> Cand {
        match slot {
            NONE => EMPTY,
            _ => Cand {
                cost: self.d(x, slot as usize) - self.own[slot as usize],
                slot,
            },
        }
    }

    /// Puts `slot` into group `h`, leaving the arcs as they are.
    fn place(&mut self, slot: usize, h: usize) {
        self.group[slot] = h as u32;
        self.own[slot] = self.d(h, slot);
        self.at[slot] = self.members[h].len() as u32;
        self.members[h].push(slot as u32);
    }

    /// Recomputes the best two customers behind `x → h`.
    fn rescan(&mut self, x: usize, h: usize) {
        let (mut best, mut second) = (EMPTY, EMPTY);
        for &slot in &self.members[h] {
            let cand = self.cand(x, slot);
            if cand.before(best) {
                (best, second) = (cand, best);
            } else if cand.before(second) {
                second = cand;
            }
        }
        let n = self.providers.len();
        self.arcs[x * (n + 1) + h] = Arc {
            cost: best.cost,
            best: best.slot,
            second: second.slot,
        };
    }

    /// The optimality certificate, checked on the full graph from scratch:
    /// a feasible matching of size γ, and no residual arc of reduced cost
    /// below `-EPS` under the labels, with each customer's label at
    /// `π(h) + d(h, p)`.
    pub(super) fn certify(&self) -> Result<(), String> {
        let n = self.providers.len();
        let s = n + 1;
        let gamma = self.gamma();
        if self.size() != gamma {
            return Err(format!("size {} is not γ = {gamma}", self.size()));
        }
        for (q, &(_, cap)) in self.providers.iter().enumerate() {
            let load = self.load(q);
            if load > cap {
                return Err(format!("provider {q} carries {load} > {cap}"));
            }
            let rc = |u: usize, v: usize| self.label[u] - self.label[v];
            if load < cap && rc(s, q) < -cca_flow::EPS {
                return Err(format!("s→q{q} has reduced cost {}", rc(s, q)));
            }
            if load > 0 && rc(q, s) < -cca_flow::EPS {
                return Err(format!("q{q}→s has reduced cost {}", rc(q, s)));
            }
        }
        for (slot, &h) in self.group.iter().enumerate() {
            let h = h as usize;
            let own = self.d(h, slot);
            for x in (0..=n).filter(|&x| x != h) {
                let rc = self.d(x, slot) - own + self.label[x] - self.label[h];
                if rc < -cca_flow::EPS {
                    return Err(format!(
                        "customer {slot} of group {h} gives {x}→{h} reduced cost {rc}"
                    ));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cca_testutil::{optimal_cost, random_instance};

    fn at(x: f64) -> Point {
        Point::new(x, 0.0)
    }

    fn assigned(graph: &ProviderGraph) -> Vec<Option<u32>> {
        let n = graph.providers.len() as u32;
        graph.group.iter().map(|&g| (g != n).then_some(g)).collect()
    }

    fn cost(graph: &ProviderGraph) -> f64 {
        graph.pairs().map(|(_, _, d)| d).sum()
    }

    /// Solves from `assigned` and returns the graph's work counts
    /// (cycles, relabels, augments) and the new matching.
    fn solve(
        providers: &[(Point, u32)],
        customers: &[Point],
        assigned: &[Option<u32>],
    ) -> ((u64, u64, u64), Vec<Option<u32>>) {
        let mut graph = ProviderGraph::new(providers.to_vec(), customers.to_vec(), assigned);
        graph.solve(None).unwrap();
        graph.certify().unwrap();
        let work = (graph.cycles, graph.relabels, graph.augments);
        (work, self::assigned(&graph))
    }

    /// A capacity rise leaves the matching maximal and every customer
    /// matched; the only improvement moves load from one provider to the
    /// other, a cycle through `s`.
    #[test]
    fn a_capacity_rise_moves_load_through_the_source() {
        // A at 0 was full with p0; its capacity rose to 2, so p1 (at 2,
        // 8 from B) moves over: s → A → B → s.
        let providers = [(at(0.0), 2), (at(10.0), 1)];
        let customers = [at(1.0), at(2.0)];
        let (work, assigned) = solve(&providers, &customers, &[Some(0), Some(1)]);
        assert_eq!(assigned, [Some(0), Some(0)]);
        assert_eq!((work.0, work.2), (1, 0), "one cycle, no augment: {work:?}");
    }

    /// An arrival next to a full provider displaces its farther customer:
    /// a cycle through `t`.
    #[test]
    fn an_arrival_displaces_a_farther_customer_through_the_sink() {
        let providers = [(at(0.0), 1)];
        let customers = [at(5.0), at(1.0)];
        let (work, assigned) = solve(&providers, &customers, &[Some(0), None]);
        assert_eq!(assigned, [None, Some(0)]);
        assert_eq!((work.0, work.2), (1, 0), "one cycle, no augment: {work:?}");
    }

    /// B's customer departed. The deficit is closed by one augmenting
    /// path s → B → A → t: B takes A's customer, and A the unmatched one.
    #[test]
    fn a_matched_departure_is_closed_by_one_augmenting_path() {
        let providers = [(at(0.0), 1), (at(10.0), 1)];
        let customers = [at(1.0), at(-3.0)];
        let (work, assigned) = solve(&providers, &customers, &[Some(0), None]);
        assert_eq!(assigned, [Some(1), Some(0)]);
        assert_eq!((work.0, work.2), (0, 1), "no cycle, one augment: {work:?}");
    }

    /// From the empty matching and from a random feasible one, the graph
    /// reaches the Hungarian optimum.
    #[test]
    fn any_feasible_start_reaches_the_optimum() {
        for seed in 0..20 {
            let (providers, customers) = random_instance(300 + seed, 5, 30, 8);
            let want = optimal_cost(&providers, &customers);
            let mut load = vec![0u32; providers.len()];
            let scattered: Vec<Option<u32>> = (0..customers.len())
                .map(|c| {
                    let q = (c * 7 + seed as usize) % (providers.len() + 1);
                    (q < providers.len() && load[q] < providers[q].1).then(|| {
                        load[q] += 1;
                        q as u32
                    })
                })
                .collect();
            for start in [vec![None; customers.len()], scattered] {
                let (_, assigned) = solve(&providers, &customers, &start);
                let cost: f64 = assigned
                    .iter()
                    .zip(&customers)
                    .filter_map(|(a, p)| a.map(|q| providers[q as usize].0.dist(p)))
                    .sum();
                assert!(
                    (cost - want).abs() <= 1e-9 * want.max(1.0),
                    "seed {seed}: {cost} vs {want}"
                );
            }
        }
    }

    /// A cancelled context stops the solve before it changes anything.
    #[test]
    fn a_cancelled_context_stops_the_solve() {
        let (providers, customers) = random_instance(7, 4, 20, 3);
        let start = vec![None; customers.len()];
        let mut graph = ProviderGraph::new(providers, customers, &start);
        let ctx = QueryContext::new();
        ctx.cancel();
        assert!(graph.solve(Some(&ctx)).is_err());
        assert_eq!(assigned(&graph), start);
        assert!(graph.pending());
    }

    /// Departures rename the last slot into the freed one. Co-located
    /// customers tie on every arc, so a renamed customer must move ahead of
    /// its twin in each arc's order; after every departure the graph must
    /// still certify and stay on the optimum.
    #[test]
    fn renamed_slots_keep_every_arc_exact_under_ties() {
        let providers = vec![(at(0.0), 2), (at(10.0), 2), (at(4.0), 1)];
        let customers: Vec<Point> = [1.0, 1.0, 6.0, 6.0, 9.0, 9.0, 3.0, 3.0]
            .into_iter()
            .map(at)
            .collect();
        let mut graph =
            ProviderGraph::new(providers, customers.clone(), &vec![None; customers.len()]);
        graph.solve(None).unwrap();
        for slot in [0, 3, 1, 0, 2] {
            graph.depart(slot);
            for (x, arc) in graph.arcs.iter().enumerate() {
                let (x, h) = (
                    x / (graph.providers.len() + 1),
                    x % (graph.providers.len() + 1),
                );
                if x == h {
                    continue;
                }
                let want = {
                    let mut g = ProviderGraph::new(
                        graph.providers.clone(),
                        graph.customers.clone(),
                        &assigned(&graph),
                    );
                    g.rescan(x, h);
                    g.arcs[x * (graph.providers.len() + 1) + h].best()
                };
                assert_eq!(arc.best(), want, "arc {x}→{h} after departing slot {slot}");
            }
            graph.solve(None).unwrap();
            graph.certify().unwrap();
            let want = optimal_cost(&graph.providers, &graph.customers);
            assert!((cost(&graph) - want).abs() <= 1e-9 * want.max(1.0));
        }
    }

    /// A provider whose capacity is cut to 0 and stays empty has no arc
    /// into it, so no search settles it, while every relabel lowers the
    /// rest. Normalising keeps all labels within a few world diameters
    /// however many events pass; without it this stream drifts them about
    /// 3 units per solve apart.
    #[test]
    fn labels_stay_bounded_across_many_events() {
        let (mut providers, customers) = random_instance(11, 5, 40, 4);
        providers[0].1 = 0;
        let mut graph = ProviderGraph::new(providers, customers, &vec![None; 40]);
        graph.solve(None).unwrap();
        for i in 0..2_000u32 {
            let slot = graph.arrive(Point::new(
                f64::from(i * 37 % 1000),
                f64::from(i * 91 % 1000),
            ));
            graph.solve(None).unwrap();
            graph.depart(slot / 2);
            graph.solve(None).unwrap();
        }
        let spread = graph.label.iter().fold(0.0f64, |m, l| m.max(l.abs()));
        let diameter = 1000.0 * 2f64.sqrt();
        assert!(spread < 4.0 * diameter, "labels drifted {spread} apart");
        graph.certify().unwrap();
    }
}
