//! The provider graph: the residual graph of a unit-weight matching,
//! contracted onto its providers.
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
//! The graph holds O(|Q|² + |P|) numbers and reads no pages; building it
//! costs O(|Q|·|P|) distances.

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

/// One `x → h` arc between groups.
#[derive(Clone, Copy)]
struct Arc {
    best: Cand,
    /// The runner-up; `None` when it is unknown, after `best` was taken
    /// out and the old runner-up promoted.
    second: Option<Cand>,
}

/// The provider graph of one matching, with the labels and the search
/// state of a re-optimisation. It owns a copy of the matching, so an abort
/// leaves the caller's matching as it was.
pub(super) struct ProviderGraph<'w> {
    providers: &'w [(Point, u32)],
    customers: &'w [Point],
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
    /// Node labels: providers `0..n`, then `t = n`, then `s = n + 1`.
    label: Vec<f64>,
    dist: Vec<f64>,
    done: Vec<bool>,
    pred: Vec<u32>,
    pops: u64,
    /// Negative cycles cancelled.
    cycles: u64,
    /// Negative arcs fixed by raising labels alone.
    relabels: u64,
    /// Augmenting paths.
    augments: u64,
}

impl<'w> ProviderGraph<'w> {
    /// The graph of the feasible matching `assigned` (slot → provider).
    pub(super) fn new(
        providers: &'w [(Point, u32)],
        customers: &'w [Point],
        assigned: &[Option<u32>],
    ) -> Self {
        let n = providers.len();
        let nodes = n + 2;
        let mut graph = ProviderGraph {
            providers,
            customers,
            group: vec![NONE; customers.len()],
            own: vec![0.0; customers.len()],
            members: vec![Vec::new(); n + 1],
            at: vec![0; customers.len()],
            arcs: vec![
                Arc {
                    best: EMPTY,
                    second: Some(EMPTY),
                };
                (n + 1) * (n + 1)
            ],
            label: vec![0.0; nodes],
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
        graph
    }

    /// Re-optimises the matching to a minimum-cost one of size `gamma`.
    ///
    /// First every arc of negative reduced cost goes, one at a time: a
    /// Dijkstra from its head over the arcs of non-negative reduced cost
    /// either reaches its tail by a path that closes a negative cycle, which
    /// is cancelled, or raises the labels until the arc is non-negative.
    /// Neither step makes a new negative arc. The flow is then minimum-cost
    /// for its size, and Dijkstra on reduced costs augments it to `gamma`.
    ///
    /// Polls `ctx` up front and every 64 node pops. Debug builds check the
    /// result against its certificate and panic if it fails.
    pub(super) fn solve(&mut self, gamma: u64, ctx: Option<&QueryContext>) -> Result<(), Aborted> {
        if let Some(ctx) = ctx {
            ctx.check()?;
        }
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
        if cfg!(debug_assertions) {
            self.certify(gamma)
                .unwrap_or_else(|e| panic!("optimality certificate violated: {e}"));
        }
        Ok(())
    }

    /// The matching as slot → provider, and the providers' loads.
    pub(super) fn matching(&self) -> (Vec<Option<u32>>, Vec<u32>) {
        let n = self.providers.len();
        let assigned = self
            .group
            .iter()
            .map(|&g| (g as usize != n).then_some(g))
            .collect();
        let load = self.members[..n].iter().map(|m| m.len() as u32).collect();
        (assigned, load)
    }

    /// Matched customers.
    fn size(&self) -> u64 {
        (self.customers.len() - self.members[self.providers.len()].len()) as u64
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
            return ((self.members[v].len() as u32) < cap).then_some(0.0);
        }
        if v == s {
            return (u < n && !self.members[u].is_empty()).then_some(0.0);
        }
        if u == v {
            return None;
        }
        let best = self.arcs[u * (n + 1) + v].best;
        (best.slot != NONE).then_some(best.cost)
    }

    fn reduced(&self, u: usize, v: usize) -> Option<f64> {
        Some(self.cost(u, v)? + self.label[u] - self.label[v])
    }

    /// The arc of most negative reduced cost, if one is below `-TOL`.
    fn most_negative_arc(&self) -> Option<(usize, usize, f64)> {
        let nodes = self.label.len();
        let mut worst = None;
        let mut least = -TOL;
        for u in 0..nodes {
            for v in 0..nodes {
                if let Some(rc) = self.reduced(u, v) {
                    if rc < least {
                        least = rc;
                        worst = Some((u, v, rc));
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
    /// along the arc `to → from` when it closes a `cycle`.
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
            .map(|&(u, v)| (self.arcs[u * (n + 1) + v].best.slot as usize, u))
            .collect();
        for (slot, to) in moves {
            self.leave(slot);
            self.join(slot, to);
        }
    }

    /// Takes `slot` out of its group, updating the arcs into the group.
    fn leave(&mut self, slot: usize) {
        let n = self.providers.len();
        let h = self.group[slot] as usize;
        let i = self.at[slot] as usize;
        self.members[h].swap_remove(i);
        if let Some(&moved) = self.members[h].get(i) {
            self.at[moved as usize] = i as u32;
        }
        for x in (0..=n).filter(|&x| x != h) {
            let arc = &mut self.arcs[x * (n + 1) + h];
            if arc.best.slot == slot as u32 {
                match arc.second.take() {
                    Some(second) => arc.best = second,
                    None => self.rescan(x, h),
                }
            } else if arc.second.is_some_and(|c| c.slot == slot as u32) {
                arc.second = None;
            }
        }
    }

    /// Puts `slot` into group `h`, updating the arcs into the group.
    fn join(&mut self, slot: usize, h: usize) {
        let n = self.providers.len();
        self.place(slot, h);
        for x in (0..=n).filter(|&x| x != h) {
            let cand = Cand {
                cost: self.d(x, slot) - self.own[slot],
                slot: slot as u32,
            };
            let arc = &mut self.arcs[x * (n + 1) + h];
            if cand.before(arc.best) {
                // The old best is at most every other member: the new
                // runner-up, whether the old runner-up was known or not.
                arc.second = Some(std::mem::replace(&mut arc.best, cand));
            } else if arc.second.is_some_and(|second| cand.before(second)) {
                arc.second = Some(cand);
            }
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
            let cand = Cand {
                cost: self.d(x, slot as usize) - self.own[slot as usize],
                slot,
            };
            if cand.before(best) {
                (best, second) = (cand, best);
            } else if cand.before(second) {
                second = cand;
            }
        }
        let n = self.providers.len();
        self.arcs[x * (n + 1) + h] = Arc {
            best,
            second: Some(second),
        };
    }

    /// The optimality certificate, checked on the full graph from scratch:
    /// a feasible matching of size `gamma`, and no residual arc of reduced
    /// cost below `-EPS` under the labels, with each customer's label at
    /// `π(h) + d(h, p)`.
    fn certify(&self, gamma: u64) -> Result<(), String> {
        let n = self.providers.len();
        let s = n + 1;
        if self.size() != gamma {
            return Err(format!("size {} is not γ = {gamma}", self.size()));
        }
        for (q, &(_, cap)) in self.providers.iter().enumerate() {
            let load = self.members[q].len() as u32;
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
    use cca_testutil::{gamma, optimal_cost, random_instance};

    fn at(x: f64) -> Point {
        Point::new(x, 0.0)
    }

    /// Solves from `assigned` and returns the graph's work counts
    /// (cycles, relabels, augments) and the new matching.
    fn solve(
        providers: &[(Point, u32)],
        customers: &[Point],
        assigned: &[Option<u32>],
    ) -> ((u64, u64, u64), Vec<Option<u32>>) {
        let mut graph = ProviderGraph::new(providers, customers, assigned);
        graph.solve(gamma(providers, customers), None).unwrap();
        let work = (graph.cycles, graph.relabels, graph.augments);
        (work, graph.matching().0)
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
        let mut graph = ProviderGraph::new(&providers, &customers, &start);
        let ctx = QueryContext::new();
        ctx.cancel();
        let gamma = gamma(&providers, &customers);
        assert!(graph.solve(gamma, Some(&ctx)).is_err());
        assert_eq!(graph.matching().0, start);
    }
}
