//! The incremental re-solve engine.

use std::collections::HashMap;

use cca_flow::sspa::{FlowCustomer, FlowProvider, Sspa};
use cca_geo::Point;
use cca_rtree::RTree;
use cca_storage::{Aborted, PageStore, QueryContext};

use crate::matching::{MatchPair, Matching};
use crate::solver::{Problem, SolverConfig, SolverRegistry};

use super::events::{ContinuousConfig, DynamicStats, EventReport, RepairKind, WorldEvent};

/// A feasible CCA matching maintained under a stream of world events.
///
/// Each [`ContinuousAssignment::apply`] runs in two phases:
///
/// 1. **Commit** — the world change itself (customer list, R-tree
///    maintenance, provider capacities). This phase is infallible and
///    conservative: it only ever *removes* assignment (a
///    departing customer's pair; evictions under a capacity cut), so the
///    matching stays feasible no matter what happens next. Page traffic is
///    charged to the event's [`QueryContext`], but maintenance is atomic —
///    an exhausted budget never tears the index.
/// 2. **Repair** — re-optimization, and the only abortable phase. The
///    engine patches a bounded neighbourhood around the event (K nearest
///    providers, their local assignees and nearby unmatched customers via
///    `knn_within`, then one small SSPA over that sub-instance spliced
///    back), expanding the neighbourhood up to
///    [`ContinuousConfig::max_expansions`] times; when the accumulated
///    dirty fraction crosses [`ContinuousConfig::dirty_threshold`] — or the
///    neighbourhood cannot absorb the deficit — it falls back to a full
///    re-solve: a from-scratch IDA over the live customers. An abort
///    unwinds to the phase-1 matching; [`ContinuousAssignment::repair`]
///    finishes the work later.
///
/// Customers are stored densely (slot order); a departure swaps the last
/// slot into the vacated one.
pub struct ContinuousAssignment {
    cfg: ContinuousConfig,
    providers: Vec<(Point, u32)>,
    /// Dense live-customer positions (slot order).
    customers: Vec<Point>,
    /// Slot → stable external id (ids are never reused).
    ids: Vec<u64>,
    slot_of: HashMap<u64, usize>,
    /// Slot → assigned provider.
    assigned: Vec<Option<u32>>,
    load: Vec<u32>,
    size: u64,
    tree: RTree,
    /// Events since the last full re-solve.
    dirty: usize,
    stats: DynamicStats,
    registry: SolverRegistry,
}

impl ContinuousAssignment {
    /// Bulk-loads the customer index, solves the initial instance from
    /// scratch and starts the engine on that matching. Initial customer ids
    /// are their indices; arrivals continue the sequence.
    pub fn build(
        providers: Vec<(Point, u32)>,
        customers: Vec<Point>,
        cfg: ContinuousConfig,
    ) -> Self {
        let items: Vec<(Point, u64)> = customers
            .iter()
            .enumerate()
            .map(|(i, &p)| (p, i as u64))
            .collect();
        let tree = RTree::bulk_load(
            PageStore::with_config(cfg.page_size, cfg.buffer_pages),
            &items,
        );
        let num_providers = providers.len();
        let mut engine = ContinuousAssignment {
            cfg,
            providers,
            ids: (0..customers.len() as u64).collect(),
            slot_of: customers
                .iter()
                .enumerate()
                .map(|(i, _)| (i as u64, i))
                .collect(),
            assigned: vec![None; customers.len()],
            load: vec![0; num_providers],
            size: 0,
            customers,
            tree,
            dirty: 0,
            stats: DynamicStats::default(),
            registry: SolverRegistry::with_defaults(),
        };
        engine
            .full_resolve(None)
            .expect("no context on the initial solve, no abort");
        engine
    }

    /// Applies one event: commits the world change (always), then repairs
    /// the matching (unless the event's context aborts the repair — the
    /// report says so, and the engine keeps the last feasible matching).
    pub fn apply(&mut self, event: WorldEvent, ctx: Option<&QueryContext>) -> EventReport {
        let (epicenter, needs_opt) = self.commit(event, ctx);
        match self.repair_at(epicenter, needs_opt, ctx) {
            Ok(repair) => EventReport {
                repair,
                aborted: None,
                deficit: self.deficit(),
            },
            Err(aborted) => {
                self.stats.aborted_repairs += 1;
                EventReport {
                    repair: RepairKind::None,
                    aborted: Some(aborted.reason),
                    deficit: self.deficit(),
                }
            }
        }
    }

    /// Phase 1: the infallible world change. Returns the event's epicenter
    /// for the repair phase, plus whether the event can degrade the
    /// matching's *cost* even while it stays maximal (then the repair phase
    /// re-optimizes the neighbourhood even at deficit zero: an arrival may
    /// undercut a standing pair, a matched departure or a capacity change
    /// frees slots others could rebalance into, a move changes every
    /// incident cost).
    fn commit(&mut self, event: WorldEvent, ctx: Option<&QueryContext>) -> (Point, bool) {
        self.dirty += 1;
        match event {
            WorldEvent::CustomerArrive { id, pos } => {
                assert!(
                    !self.slot_of.contains_key(&id),
                    "customer id {id} already live (ids are never reused)"
                );
                self.stats.arrivals += 1;
                let slot = self.customers.len();
                self.customers.push(pos);
                self.ids.push(id);
                self.assigned.push(None);
                self.slot_of.insert(id, slot);
                self.tree.insert_ctx(pos, id, ctx);
                (pos, true)
            }
            WorldEvent::CustomerDepart { id } => {
                let slot = *self
                    .slot_of
                    .get(&id)
                    .unwrap_or_else(|| panic!("departure of unknown customer {id}"));
                self.stats.departures += 1;
                let pos = self.customers[slot];
                let was_matched = self.assigned[slot].is_some();
                if let Some(q) = self.assigned[slot] {
                    self.load[q as usize] -= 1;
                    self.size -= 1;
                }
                self.tree.delete_ctx(pos, id, ctx);
                self.customers.swap_remove(slot);
                self.ids.swap_remove(slot);
                self.assigned.swap_remove(slot);
                self.slot_of.remove(&id);
                if slot < self.ids.len() {
                    self.slot_of.insert(self.ids[slot], slot);
                }
                // An unmatched departure only shrinks the feasible set the
                // old optimum never used — no re-optimization to do.
                (pos, was_matched)
            }
            WorldEvent::ProviderCapacityDelta { index, delta } => {
                self.stats.capacity_events += 1;
                let (pos, old_cap) = self.providers[index];
                let new_cap = u32::try_from((i64::from(old_cap) + i64::from(delta)).max(0))
                    .expect("capacity fits u32");
                self.providers[index].1 = new_cap;
                // Conservative feasibility fix: shed the farthest customers
                // of an over-loaded provider; repair re-homes them.
                while self.load[index] > new_cap {
                    let victim = self
                        .assigned
                        .iter()
                        .enumerate()
                        .filter(|&(_, &a)| a == Some(index as u32))
                        .max_by(|a, b| {
                            let da = pos.dist(&self.customers[a.0]);
                            let db = pos.dist(&self.customers[b.0]);
                            da.total_cmp(&db)
                        })
                        .map(|(slot, _)| slot)
                        .expect("load > 0 implies an assignee");
                    self.assigned[victim] = None;
                    self.load[index] -= 1;
                    self.size -= 1;
                    self.stats.evicted += 1;
                }
                (pos, new_cap != old_cap)
            }
            WorldEvent::ProviderMove { index, to } => {
                self.stats.moves += 1;
                self.providers[index].0 = to;
                (to, true)
            }
        }
    }

    /// Finishes any repair work left behind by an aborted event (or does
    /// nothing when the matching is already maximal). Epicenters are the
    /// unmatched customers themselves.
    pub fn repair(&mut self, ctx: Option<&QueryContext>) -> Result<RepairKind, Aborted> {
        let mut did = RepairKind::None;
        while self.deficit() > 0 {
            let slot = self
                .assigned
                .iter()
                .position(|a| a.is_none())
                .expect("deficit > 0 implies an unmatched customer");
            let kind = self.repair_at(self.customers[slot], false, ctx)?;
            if kind == RepairKind::None {
                // This epicenter's neighbourhood is saturated but capacity
                // exists elsewhere: only a full re-solve can route it.
                self.full_resolve(ctx)?;
                return Ok(RepairKind::Full);
            }
            did = kind;
            if kind == RepairKind::Full {
                break;
            }
        }
        Ok(did)
    }

    /// Phase 2 driver: dirty-threshold fallback, else expanding local
    /// repair, else full re-solve.
    fn repair_at(
        &mut self,
        epicenter: Point,
        force_local: bool,
        ctx: Option<&QueryContext>,
    ) -> Result<RepairKind, Aborted> {
        let live = self.customers.len().max(1);
        if self.dirty as f64 > self.cfg.dirty_threshold * live as f64 {
            self.full_resolve(ctx)?;
            return Ok(RepairKind::Full);
        }
        if self.deficit() == 0 && !force_local {
            return Ok(RepairKind::None);
        }
        if self.providers.is_empty() {
            return Ok(RepairKind::None);
        }
        let before = self.deficit();
        for round in 0..=self.cfg.max_expansions {
            if round > 0 {
                self.stats.expansions += 1;
            }
            self.local_repair(epicenter, round, ctx)?;
            if self.deficit() == 0 {
                return Ok(RepairKind::Local);
            }
        }
        if self.deficit() < before {
            // Progress but not closure: the rest of the deficit is not
            // local to this epicenter.
            return Ok(RepairKind::Local);
        }
        self.full_resolve(ctx)?;
        Ok(RepairKind::Full)
    }

    /// One bounded-neighbourhood repair round: K·2^round nearest providers,
    /// their locally present assignees plus nearby unmatched customers, one
    /// in-memory SSPA over the sub-instance, spliced back.
    ///
    /// The splice can only grow the matching: each local provider's
    /// sub-capacity counts its free slots plus its locally included
    /// assignees, so the sub-instance's γ is at least the number of pairs
    /// the splice removes.
    fn local_repair(
        &mut self,
        epicenter: Point,
        round: u32,
        ctx: Option<&QueryContext>,
    ) -> Result<(), Aborted> {
        self.stats.local_repairs += 1;
        let k = (self.cfg.neighborhood_providers << round).min(self.providers.len());
        let mut order: Vec<(f64, usize)> = self
            .providers
            .iter()
            .enumerate()
            .map(|(i, (p, _))| (p.dist(&epicenter), i))
            .collect();
        order.sort_by(|a, b| a.0.total_cmp(&b.0));
        order.truncate(k);
        let radius = if k == self.providers.len() {
            f64::INFINITY
        } else {
            self.cfg.radius_factor * order[k - 1].0
        };
        let mut in_hood = vec![false; self.providers.len()];
        for &(_, i) in &order {
            in_hood[i] = true;
        }

        // Nearby customers: unmatched ones, and those assigned within the
        // neighbourhood (assignments to outside providers are not touched).
        let scan_cap = self.cfg.candidate_scan_cap << round;
        let scan = self.tree.knn_within(epicenter, scan_cap, radius, ctx)?;
        let mut slots: Vec<usize> = Vec::with_capacity(scan.len());
        let mut local_load = vec![0u32; k];
        let hood_index: HashMap<usize, usize> = order
            .iter()
            .enumerate()
            .map(|(j, &(_, i))| (i, j))
            .collect();
        let mut included = vec![false; self.customers.len()];
        for (_, id, _) in scan {
            let slot = self.slot_of[&id];
            match self.assigned[slot] {
                None => {
                    included[slot] = true;
                    slots.push(slot);
                }
                Some(q) if in_hood[q as usize] => {
                    local_load[hood_index[&(q as usize)]] += 1;
                    included[slot] = true;
                    slots.push(slot);
                }
                Some(_) => {}
            }
        }
        // The spatial scan finds the neighbourhood's *churn*; it can miss
        // the replacement the repair actually needs, because unmatched
        // customers live exactly where providers are not (that is why they
        // are unmatched). Pull the nearest unmatched customers directly so
        // a freed slot can always be refilled locally instead of
        // escalating to a full re-solve.
        if self.deficit() > 0 {
            let want = (16usize << round).min(self.customers.len());
            let mut free: Vec<(f64, usize)> = self
                .assigned
                .iter()
                .enumerate()
                .filter(|&(slot, a)| a.is_none() && !included[slot])
                .map(|(slot, _)| (self.customers[slot].dist(&epicenter), slot))
                .collect();
            free.sort_by(|a, b| a.0.total_cmp(&b.0));
            for &(_, slot) in free.iter().take(want) {
                included[slot] = true;
                slots.push(slot);
            }
        }
        if slots.is_empty() {
            return Ok(());
        }

        let sub_providers: Vec<FlowProvider> = order
            .iter()
            .enumerate()
            .map(|(j, &(_, i))| FlowProvider {
                pos: self.providers[i].0,
                // Free slots + locally included assignees: the splice below
                // can always re-install at least what it removes.
                cap: self.providers[i].1 - self.load[i] + local_load[j],
            })
            .collect();
        let sub_customers: Vec<FlowCustomer> = slots
            .iter()
            .map(|&s| FlowCustomer {
                pos: self.customers[s],
                weight: 1,
            })
            .collect();
        let (asg, _) = Sspa { ctx }
            .solve(&sub_providers, &sub_customers)
            .map_err(|fa| Aborted { reason: fa.reason })?;

        // Splice: release the local pairs, install the sub-solution.
        for &slot in &slots {
            if let Some(q) = self.assigned[slot].take() {
                self.load[q as usize] -= 1;
                self.size -= 1;
            }
        }
        for (qj, pj, units) in asg.pairs {
            debug_assert_eq!(units, 1);
            let q = order[qj].1;
            self.assigned[slots[pj]] = Some(q as u32);
            self.load[q] += 1;
            self.size += 1;
        }
        Ok(())
    }

    /// Full re-solve: a from-scratch IDA over the live customers.
    fn full_resolve(&mut self, ctx: Option<&QueryContext>) -> Result<(), Aborted> {
        self.stats.full_resolves += 1;
        let solver = self
            .registry
            .build(&SolverConfig::new("ida"))
            .expect("ida is registered");
        let problem = Problem::new(&self.providers).with_customers(&self.customers);
        let problem = match ctx {
            Some(c) => problem.with_context(c),
            None => problem,
        };
        let outcome = solver.run(&problem);
        if let Some(reason) = outcome.abort_reason() {
            // Keep the phase-1 matching: the partial solve is discarded
            // (it may be smaller than what we already hold).
            return Err(Aborted { reason });
        }
        let (matching, _) = outcome.into_parts();
        self.assigned.fill(None);
        self.load.fill(0);
        self.size = 0;
        for pair in matching.pairs {
            let slot = usize::try_from(pair.customer).expect("slot fits usize");
            self.assigned[slot] = Some(pair.provider as u32);
            self.load[pair.provider] += 1;
            self.size += 1;
        }
        self.dirty = 0;
        Ok(())
    }

    /// `γ = min(|P|, Σk)` of the current world.
    pub fn gamma(&self) -> u64 {
        let cap: u64 = self.providers.iter().map(|&(_, k)| u64::from(k)).sum();
        cap.min(self.customers.len() as u64)
    }

    /// Units missing from maximality (non-zero only after an aborted or
    /// locally exhausted repair).
    pub fn deficit(&self) -> u64 {
        self.gamma() - self.size
    }

    /// Current matching size in units.
    pub fn size(&self) -> u64 {
        self.size
    }

    /// Cost `Ψ(M)` of the maintained matching.
    pub fn cost(&self) -> f64 {
        self.assigned
            .iter()
            .enumerate()
            .filter_map(|(slot, a)| {
                a.map(|q| self.providers[q as usize].0.dist(&self.customers[slot]))
            })
            .sum()
    }

    /// Materialises the maintained matching (customer ids are *slots* into
    /// [`ContinuousAssignment::alive_customers`], which is exactly what the
    /// validators expect).
    pub fn matching(&self) -> Matching {
        let pairs = self
            .assigned
            .iter()
            .enumerate()
            .filter_map(|(slot, a)| {
                a.map(|q| {
                    let qi = q as usize;
                    MatchPair {
                        provider: qi,
                        customer: slot as u64,
                        units: 1,
                        dist: self.providers[qi].0.dist(&self.customers[slot]),
                        customer_pos: self.customers[slot],
                    }
                })
            })
            .collect();
        Matching { pairs }
    }

    /// Validates every structural invariant of the maintained matching
    /// (distances, capacities, no double assignment) and the internal
    /// load/size accounting. The size may lag γ only by the reported
    /// [`ContinuousAssignment::deficit`].
    pub fn check_feasible(&self) -> Result<(), String> {
        let m = self.matching();
        m.validate_unit_partial(&self.providers, &self.customers)?;
        if m.size() != self.size {
            return Err(format!(
                "size drift: pairs {} vs counter {}",
                m.size(),
                self.size
            ));
        }
        let loads = m.provider_load(self.providers.len());
        for (i, (&tracked, &actual)) in self.load.iter().zip(&loads).enumerate() {
            if u64::from(tracked) != actual {
                return Err(format!("load drift at provider {i}: {tracked} vs {actual}"));
            }
        }
        if self.tree.len() != self.customers.len() {
            return Err(format!(
                "index drift: tree {} vs live {}",
                self.tree.len(),
                self.customers.len()
            ));
        }
        Ok(())
    }

    /// Live customers in slot order.
    pub fn alive_customers(&self) -> &[Point] {
        &self.customers
    }

    /// Stable external id of each live customer, in slot order.
    pub fn customer_ids(&self) -> &[u64] {
        &self.ids
    }

    /// Providers (positions and current capacities).
    pub fn providers(&self) -> &[(Point, u32)] {
        &self.providers
    }

    /// The engine-owned customer index.
    pub fn tree(&self) -> &RTree {
        &self.tree
    }

    /// Event and repair counters.
    pub fn stats(&self) -> DynamicStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cca_testutil::{optimal_cost, random_instance};

    fn engine_cfg() -> ContinuousConfig {
        ContinuousConfig::default()
    }

    /// From-scratch optimum of the engine's current world.
    fn scratch_cost(engine: &ContinuousAssignment) -> f64 {
        optimal_cost(engine.providers(), engine.alive_customers())
    }

    #[test]
    fn build_starts_on_the_optimal_matching() {
        let (providers, customers) = random_instance(101, 6, 60, 3);
        let engine =
            ContinuousAssignment::build(providers.clone(), customers.clone(), engine_cfg());
        engine.check_feasible().unwrap();
        assert_eq!(engine.deficit(), 0);
        let want = optimal_cost(&providers, &customers);
        assert!((engine.cost() - want).abs() < 1e-6 * want.max(1.0));
        engine
            .matching()
            .validate_unit(&providers, &customers)
            .unwrap();
    }

    #[test]
    fn arrivals_stay_exact_when_the_neighbourhood_covers_all_providers() {
        // With |Q| ≤ neighborhood_providers the first repair round covers
        // the entire provider set (radius = ∞), so the local repair *is* a
        // global re-solve restricted to untouched assignments — and since
        // every assignment is local, the engine must track the optimum
        // exactly, event by event.
        let (mut providers, customers) = random_instance(102, 5, 30, 8);
        for (_, cap) in providers.iter_mut() {
            *cap += 20; // capacity surplus: every arrival opens a deficit
        }
        let mut engine = ContinuousAssignment::build(providers, customers, engine_cfg());
        for i in 0..40u64 {
            let pos = Point::new(
                997.0 * ((i * 37 + 11) % 100) as f64 / 100.0,
                31.0 + i as f64 * 13.7 % 900.0,
            );
            let report = engine.apply(WorldEvent::CustomerArrive { id: 1000 + i, pos }, None);
            assert!(report.aborted.is_none());
            assert_eq!(report.deficit, 0);
            engine.check_feasible().unwrap();
            let want = scratch_cost(&engine);
            assert!(
                (engine.cost() - want).abs() < 1e-6 * want.max(1.0),
                "event {i}: engine {} vs scratch {want}",
                engine.cost()
            );
        }
        assert_eq!(engine.stats().arrivals, 40);
    }

    #[test]
    fn departures_and_moves_stay_exact_on_small_instances() {
        let (providers, customers) = random_instance(103, 4, 40, 6);
        let n = customers.len() as u64;
        let mut engine = ContinuousAssignment::build(providers, customers, engine_cfg());
        for i in 0..12u64 {
            let report = engine.apply(WorldEvent::CustomerDepart { id: (i * 3) % n }, None);
            assert!(report.aborted.is_none());
            engine.check_feasible().unwrap();
        }
        for i in 0..4usize {
            let to = Point::new(100.0 + 200.0 * i as f64, 500.0);
            let report = engine.apply(WorldEvent::ProviderMove { index: i, to }, None);
            assert!(report.aborted.is_none());
            engine.check_feasible().unwrap();
            let want = scratch_cost(&engine);
            assert!(
                (engine.cost() - want).abs() < 1e-6 * want.max(1.0),
                "move {i}: engine {} vs scratch {want}",
                engine.cost()
            );
        }
    }

    #[test]
    fn zero_dirty_threshold_forces_a_full_resolve_per_event() {
        let mut cfg = engine_cfg();
        cfg.dirty_threshold = 0.0; // every event crosses the threshold
        let (providers, customers) = random_instance(104, 5, 40, 3);
        let mut engine = ContinuousAssignment::build(providers, customers, cfg);
        for i in 0..5u64 {
            let report = engine.apply(
                WorldEvent::CustomerArrive {
                    id: 5000 + i,
                    pos: Point::new(900.0 + i as f64, 900.0),
                },
                None,
            );
            assert_eq!(report.repair, RepairKind::Full);
            engine.check_feasible().unwrap();
        }
        let stats = engine.stats();
        assert_eq!(stats.full_resolves, 1 + 5, "initial solve + one per event");
        let want = scratch_cost(&engine);
        assert!((engine.cost() - want).abs() < 1e-6 * want.max(1.0));
    }

    #[test]
    fn capacity_cut_evicts_then_repair_rehomes() {
        let (providers, customers) = random_instance(105, 6, 50, 4);
        let mut engine = ContinuousAssignment::build(providers, customers, engine_cfg());
        let loaded = engine
            .load
            .iter()
            .position(|&l| l > 1)
            .expect("some provider carries load");
        let old_size = engine.size();
        let report = engine.apply(
            WorldEvent::ProviderCapacityDelta {
                index: loaded,
                delta: -(engine.providers[loaded].1 as i32),
            },
            None,
        );
        assert!(report.aborted.is_none());
        engine.check_feasible().unwrap();
        assert!(engine.stats().evicted > 0, "cut below load must evict");
        assert_eq!(engine.providers[loaded].1, 0);
        assert_eq!(engine.load[loaded], 0);
        // γ shrank with Σk, and the matching is maximal again.
        assert_eq!(engine.deficit(), 0);
        assert!(engine.size() <= old_size);

        // Growing capacity back re-opens slots; repair fills them.
        let report = engine.apply(
            WorldEvent::ProviderCapacityDelta {
                index: loaded,
                delta: 4,
            },
            None,
        );
        assert!(report.aborted.is_none());
        assert_eq!(engine.deficit(), 0);
        engine.check_feasible().unwrap();
    }

    #[test]
    fn aborted_repair_unwinds_and_recovers() {
        let (mut providers, customers) = random_instance(106, 6, 60, 8);
        for (_, cap) in providers.iter_mut() {
            *cap += 12; // surplus, so the arrival needs (abortable) repair
        }
        let mut engine = ContinuousAssignment::build(providers, customers, engine_cfg());
        let ctx = QueryContext::new();
        ctx.cancel();
        let report = engine.apply(
            WorldEvent::CustomerArrive {
                id: 7000,
                pos: Point::new(500.0, 500.0),
            },
            Some(&ctx),
        );
        // Surplus capacity: the arrival needs repair, which the cancelled
        // context aborts — the event itself stays committed.
        assert!(report.aborted.is_some());
        assert_eq!(report.deficit, 1);
        assert_eq!(engine.alive_customers().len(), 61);
        engine.check_feasible().unwrap();
        assert_eq!(engine.stats().aborted_repairs, 1);

        let kind = engine.repair(None).unwrap();
        assert_ne!(kind, RepairKind::None);
        assert_eq!(engine.deficit(), 0);
        engine.check_feasible().unwrap();
    }

    #[test]
    fn unknown_departure_panics() {
        let (providers, customers) = random_instance(107, 3, 10, 2);
        let mut engine = ContinuousAssignment::build(providers, customers, engine_cfg());
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            engine.apply(WorldEvent::CustomerDepart { id: 999 }, None)
        }));
        assert!(result.is_err(), "departing a dead id is a caller bug");
    }
}
