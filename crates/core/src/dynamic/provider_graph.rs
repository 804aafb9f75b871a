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
//! Each arc keeps its argmin customer and caches the second best with its
//! cost, so taking the argmin out of a group rarely forces a rescan of the
//! group. The arc costs sit in one flat matrix, ∞ where there is no arc,
//! beside the customers behind them: 24 bytes per arc in all. The graph
//! keeps no distance table: it computes `d(q, p)` where it needs a new one,
//! and holds O(|Q|² + |P|) numbers. Building it costs O(|Q|·|P|) distances
//! and reads no pages.
//!
//! # The search
//!
//! Re-optimising runs dense Dijkstra on the |Q| + 2 nodes. Each settled
//! node costs two loops over a row of nodes, written without branches so
//! the compiler can vectorise them. Settled nodes hold NaN in the `open`
//! distances, so no comparison picks or relaxes them. The pick is a
//! minimum over several accumulators, then the first position that holds
//! it, so ties go to the lower index. The relax is a select on the row of
//! the cost matrix and writes no parent; only the rows and columns of `s`
//! go through [`ProviderGraph::cost`]. Once the target settles, the path is
//! traced back alone: a node's parent is the earliest settled node whose
//! relaxation gives exactly its distance, which is the node a relax on
//! strict improvement would have recorded. Unit tests check every search
//! against that plain form, bit for bit.
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

/// The runner-up slot of an arc whose best was just promoted.
const UNKNOWN_SECOND: Cand = Cand {
    cost: f64::INFINITY,
    slot: UNKNOWN,
};

/// One `x → h` arc between groups, beside its cost in the cost matrix: the
/// customer behind it, and the runner-up's slot (`NONE` when there is
/// none) and cost. With the cost, 24 bytes.
#[derive(Clone, Copy)]
struct Arc {
    second_cost: f64,
    best: u32,
    second: u32,
}

/// The arc into an empty group.
const NO_ARC: Arc = Arc {
    second_cost: f64::INFINITY,
    best: NONE,
    second: NONE,
};

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
    /// `costs[x·(n+1) + h]`: the cost of `x → h` between groups; ∞ on the
    /// diagonal and into an empty group.
    costs: Vec<f64>,
    /// The customers behind each cost.
    arcs: Vec<Arc>,
    label: Vec<f64>,
    /// Nodes whose in-arcs, and nodes whose out-arcs, may be negative.
    dirty_in: Vec<bool>,
    dirty_out: Vec<bool>,
    /// The running solve's moves, as (slot, the group it left), and the
    /// labels it started from: an abort rolls both back.
    undo: Vec<(u32, u32)>,
    saved: Vec<f64>,
    /// The search's tentative distances; NaN once a node is settled.
    open: Vec<f64>,
    /// The distances of the settled nodes.
    dist: Vec<f64>,
    /// The settled nodes, in the order the search settled them.
    settled: Vec<u32>,
    /// The last search's path, from its target back to its root.
    path: Vec<u32>,
    /// `push`'s customers to move, as (slot, the group it joins).
    moves: Vec<(u32, u32)>,
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
            costs: vec![f64::INFINITY; (n + 1) * (n + 1)],
            arcs: vec![NO_ARC; (n + 1) * (n + 1)],
            label: vec![0.0; nodes],
            dirty_in: vec![true; nodes],
            dirty_out: vec![false; nodes],
            undo: Vec::new(),
            saved: vec![0.0; nodes],
            open: vec![f64::INFINITY; nodes],
            dist: vec![0.0; nodes],
            settled: Vec::with_capacity(nodes),
            path: Vec::with_capacity(nodes),
            moves: Vec::new(),
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
            if self.is_settled(u) && self.dist[u] + rc < -TOL {
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
                self.is_settled(t),
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
        let cost = self.costs[u * (n + 1) + v];
        cost.is_finite().then_some(cost)
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

    /// Whether the last search settled `v`.
    fn is_settled(&self, v: usize) -> bool {
        self.open[v].is_nan()
    }

    /// Dense Dijkstra from `from` over the arcs of non-negative reduced
    /// cost, settling nodes closer than `limit` until `to` is settled, and
    /// then tracing the path to it.
    fn search(
        &mut self,
        from: usize,
        to: usize,
        limit: f64,
        ctx: Option<&QueryContext>,
    ) -> Result<(), Aborted> {
        let n = self.providers.len();
        let s = n + 1;
        self.open.fill(f64::INFINITY);
        self.open[from] = 0.0;
        self.settled.clear();
        self.path.clear();
        loop {
            let key = least(&self.open);
            if key >= limit {
                break;
            }
            let u = self
                .open
                .iter()
                .position(|&d| d == key)
                .expect("the least open distance is in `open`");
            self.pops += 1;
            if self.pops.is_multiple_of(64) {
                if let Some(ctx) = ctx {
                    ctx.check()?;
                }
            }
            self.open[u] = f64::NAN;
            self.dist[u] = key;
            self.settled.push(u as u32);
            if u == to {
                self.trace(from, to);
                break;
            }
            if u == s {
                for q in 0..n {
                    self.relax(s, q, key);
                }
                continue;
            }
            let row = &self.costs[u * (n + 1)..][..n + 1];
            let lu = self.label[u];
            let open = self.open[..=n].iter_mut();
            for ((open, &cost), &lv) in open.zip(row).zip(&self.label[..=n]) {
                let rc = cost + lu - lv;
                let cand = key + rc.max(0.0);
                *open = if (rc >= -TOL) & (cand < *open) {
                    cand
                } else {
                    *open
                };
            }
            self.relax(u, s, key);
        }
        #[cfg(test)]
        self.check_search(from, to, limit);
        Ok(())
    }

    /// Relaxes `u → v` from `u` settled at `key`: the rows and columns of
    /// `s`, one arc at a time.
    fn relax(&mut self, u: usize, v: usize, key: f64) {
        if let Some(rc) = self.reduced(u, v) {
            let cand = key + rc.max(0.0);
            if rc >= -TOL && cand < self.open[v] {
                self.open[v] = cand;
            }
        }
    }

    /// The node the search reached settled node `x` from: the earliest
    /// settled node whose relaxation gives exactly `x`'s distance, which is
    /// the one a relax on strict improvement records.
    fn parent(&self, x: usize) -> usize {
        let gives = |u: usize| {
            self.reduced(u, x)
                .is_some_and(|rc| rc >= -TOL && self.dist[u] + rc.max(0.0) == self.dist[x])
        };
        self.settled
            .iter()
            .map(|&u| u as usize)
            .take_while(|&u| u != x)
            .find(|&u| gives(u))
            .expect("a settled node other than the root has a parent")
    }

    /// Fills `path` with the search tree's path from `to` back to `from`.
    fn trace(&mut self, from: usize, to: usize) {
        let mut x = to;
        self.path.push(x as u32);
        while x != from {
            x = self.parent(x);
            self.path.push(x as u32);
        }
    }

    /// Lowers each settled node's label by `b − dist`: the labels become
    /// `π + min(dist, b)` up to a constant, which keeps every non-negative
    /// arc non-negative and makes the search tree's arcs tight.
    fn relabel(&mut self, b: f64) {
        for &v in &self.settled {
            self.label[v as usize] -= b - self.dist[v as usize];
        }
    }

    /// Pushes one unit from `from` to `to` along the last search's path,
    /// and on along the arc `to → from` when it closes a `cycle`. A cycle
    /// may carry negative arcs into the customers it moves, so it marks
    /// their new groups; an augmenting path runs when no arc is negative.
    fn push(&mut self, from: usize, to: usize, cycle: bool) {
        let n = self.providers.len();
        let s = n + 1;
        let mut moves = std::mem::take(&mut self.moves);
        moves.clear();
        // The customers behind the arcs, all read before any moves.
        let behind = |u: u32, v: u32| {
            let (u, v) = (u as usize, v as usize);
            (u != s && v != s).then(|| (self.arcs[u * (n + 1) + v].best, u as u32))
        };
        if cycle {
            moves.extend(behind(to as u32, from as u32));
        }
        for step in self.path.windows(2) {
            moves.extend(behind(step[1], step[0]));
        }
        for &(slot, to) in &moves {
            let (slot, to) = (slot as usize, to as usize);
            self.undo.push((slot as u32, self.group[slot]));
            self.leave(slot);
            self.join(slot, to);
            self.dirty_in[to] |= cycle;
        }
        self.moves = moves;
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
                match arc.second {
                    UNKNOWN => self.rescan(x, h),
                    NONE => self.set(at, EMPTY, EMPTY),
                    second => {
                        let promoted = Cand {
                            cost: arc.second_cost,
                            slot: second,
                        };
                        self.set(at, promoted, UNKNOWN_SECOND);
                    }
                }
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
        let best = self.best(at);
        if cand.before(best) {
            // The old best is at most every other member: the new
            // runner-up, whether the old runner-up was known or not.
            self.set(at, cand, best);
        } else if self.arcs[at].second != UNKNOWN && cand.before(self.second(at)) {
            self.arcs[at].second = cand.slot;
            self.arcs[at].second_cost = cand.cost;
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
            } else if arc.second == from {
                let renamed = Cand {
                    cost: arc.second_cost,
                    slot: to,
                };
                let best = self.best(at);
                if renamed.before(best) {
                    self.set(at, renamed, best);
                } else {
                    self.arcs[at].second = to;
                }
            } else {
                self.offer(x, h, self.cand(x, to));
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

    /// The best customer behind the arc at `at` in the matrix.
    fn best(&self, at: usize) -> Cand {
        Cand {
            cost: self.costs[at],
            slot: self.arcs[at].best,
        }
    }

    /// The runner-up behind the arc at `at`, unless it is `UNKNOWN`.
    fn second(&self, at: usize) -> Cand {
        Cand {
            cost: self.arcs[at].second_cost,
            slot: self.arcs[at].second,
        }
    }

    /// Sets the arc at `at` to `best` and `second`.
    fn set(&mut self, at: usize, best: Cand, second: Cand) {
        self.costs[at] = best.cost;
        self.arcs[at] = Arc {
            second_cost: second.cost,
            best: best.slot,
            second: second.slot,
        };
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
        self.set(x * (self.providers.len() + 1) + h, best, second);
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

/// The least of `open`, NaN skipped: a minimum over four accumulators, so
/// the loop carries no branch and no chain of dependent compares.
fn least(open: &[f64]) -> f64 {
    let min = |m: f64, d: f64| if d < m { d } else { m };
    let mut lanes = [f64::INFINITY; 4];
    let mut chunks = open.chunks_exact(4);
    for chunk in &mut chunks {
        for (lane, &d) in lanes.iter_mut().zip(chunk) {
            *lane = min(*lane, d);
        }
    }
    let rest = chunks.remainder().iter().copied();
    lanes.into_iter().chain(rest).fold(f64::INFINITY, min)
}

#[cfg(test)]
thread_local! {
    static CHECKED: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// How many searches this thread has checked against the reference.
#[cfg(test)]
pub(super) fn searches_checked() -> u64 {
    CHECKED.with(std::cell::Cell::get)
}

#[cfg(test)]
impl ProviderGraph {
    /// The search in its plain form: every arc through `reduced`, and the
    /// parent written on every strict improvement. Returns the distances,
    /// the settled nodes and the parents.
    fn reference_search(
        &self,
        from: usize,
        to: usize,
        limit: f64,
    ) -> (Vec<f64>, Vec<bool>, Vec<u32>) {
        let nodes = self.label.len();
        let mut dist = vec![f64::INFINITY; nodes];
        let mut done = vec![false; nodes];
        let mut pred = vec![NONE; nodes];
        dist[from] = 0.0;
        loop {
            let mut u = NONE as usize;
            let mut key = limit;
            for (x, (&d, &done)) in dist.iter().zip(&done).enumerate() {
                if !done && d < key {
                    (u, key) = (x, d);
                }
            }
            if u == NONE as usize {
                break;
            }
            done[u] = true;
            if u == to {
                break;
            }
            for v in 0..nodes {
                if done[v] {
                    continue;
                }
                match self.reduced(u, v) {
                    Some(rc) if rc >= -TOL => {
                        let cand = key + rc.max(0.0);
                        if cand < dist[v] {
                            dist[v] = cand;
                            pred[v] = u as u32;
                        }
                    }
                    _ => {}
                }
            }
        }
        (dist, done, pred)
    }

    /// Panics unless the search just run settled the nodes the reference
    /// settles, at the same distance bits, and traces the reference's
    /// parents along the path to `to`.
    fn check_search(&self, from: usize, to: usize, limit: f64) {
        let (dist, done, pred) = self.reference_search(from, to, limit);
        for (v, (&d, &done)) in dist.iter().zip(&done).enumerate() {
            let what = format!("search {from} → {to}, node {v}");
            assert_eq!(self.is_settled(v), done, "{what}: settled");
            if done {
                assert_eq!(self.dist[v].to_bits(), d.to_bits(), "{what}: distance");
            }
        }
        let mut want = Vec::new();
        if done[to] {
            let mut x = to;
            want.push(x as u32);
            while x != from {
                x = pred[x] as usize;
                want.push(x as u32);
            }
        }
        assert_eq!(self.path, want, "search {from} → {to}: path");
        CHECKED.with(|c| c.set(c.get() + 1));
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
            let groups = graph.providers.len() + 1;
            for at in 0..groups * groups {
                let (x, h) = (at / groups, at % groups);
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
                    g.best(at)
                };
                let what = format!("arc {x}→{h} after departing slot {slot}");
                assert_eq!(graph.best(at), want, "{what}");
                let second = graph.second(at);
                if second.slot != UNKNOWN {
                    assert_eq!(second, graph.cand(x, second.slot), "{what}: runner-up");
                }
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
