//! The incremental re-solve engine.

use std::collections::HashMap;

use cca_geo::Point;
use cca_rtree::RTree;
use cca_storage::{Aborted, PageStore, QueryContext};

use crate::exact::{ida, RtreeSource};
use crate::matching::{MatchPair, Matching};

use super::events::{ContinuousConfig, DynamicStats, EventReport, RepairKind, WorldEvent};
use super::provider_graph::ProviderGraph;

/// A minimum-cost CCA matching maintained under a stream of world events.
///
/// The engine keeps the world and its matching as a provider graph (the
/// residual graph contracted onto `{s, t} ∪ Q`) with labels that certify
/// the matching optimal (§2.2). Each [`ContinuousAssignment::apply`] runs
/// in two phases:
///
/// 1. **Commit** — the world change itself: the customer list, R-tree
///    maintenance, provider capacities and positions, and the graph's
///    groups and arcs. This phase is infallible and only ever *removes*
///    assignment (a departing customer's pair; evictions under a capacity
///    cut), so the matching stays feasible whatever happens next. Page
///    traffic is charged to the event's [`QueryContext`], but maintenance is
///    atomic — an exhausted budget never tears the index.
/// 2. **Re-optimise** — the only abortable phase. Starting from the arcs
///    the event made negative, the graph cancels negative cycles and
///    augments to γ, so every completed event leaves a minimum-cost
///    matching of size γ. It reads no pages and polls the event's context.
///    An abort leaves the phase-1 matching bit-identical;
///    [`ContinuousAssignment::repair`] finishes the work later.
///
/// [`ContinuousAssignment::build`] solves the initial instance with IDA
/// over the engine's own R-tree, since there is no matching to re-optimise
/// yet. Debug builds check the optimality certificate after every event
/// that completes.
///
/// Customers are stored densely (slot order); a departure swaps the last
/// slot into the vacated one.
pub struct ContinuousAssignment {
    graph: ProviderGraph,
    /// Slot → stable external id (ids are never reused).
    ids: Vec<u64>,
    slot_of: HashMap<u64, usize>,
    tree: RTree,
    stats: DynamicStats,
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
        // No matching to re-optimise yet: IDA solves over the tree, whose
        // item ids are still the slots.
        let positions = providers.iter().map(|&(p, _)| p).collect();
        let (matching, _) = ida(&providers, &mut RtreeSource::new(&tree, positions, None));
        let mut assigned = vec![None; customers.len()];
        for pair in &matching.pairs {
            assigned[usize::try_from(pair.customer).expect("slot fits usize")] =
                Some(pair.provider as u32);
        }
        let len = customers.len();
        let mut graph = ProviderGraph::new(providers, customers, &assigned);
        // Labels the optimal matching; without a context it cannot abort.
        graph.solve(None).expect("no context, no abort");
        let engine = ContinuousAssignment {
            graph,
            ids: (0..len as u64).collect(),
            slot_of: (0..len).map(|i| (i as u64, i)).collect(),
            tree,
            stats: DynamicStats {
                full_resolves: 1,
                ..DynamicStats::default()
            },
        };
        engine.debug_certify();
        engine
    }

    /// Applies one event: commits the world change (always), then
    /// re-optimises the matching (unless the event's context aborts that —
    /// the report says so, and the engine keeps the phase-1 matching).
    pub fn apply(&mut self, event: WorldEvent, ctx: Option<&QueryContext>) -> EventReport {
        self.commit(event, ctx);
        match self.repair(ctx) {
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

    /// Phase 1: the infallible world change.
    fn commit(&mut self, event: WorldEvent, ctx: Option<&QueryContext>) {
        match event {
            WorldEvent::CustomerArrive { id, pos } => {
                assert!(
                    !self.slot_of.contains_key(&id),
                    "customer id {id} already live (ids are never reused)"
                );
                self.stats.arrivals += 1;
                let slot = self.graph.arrive(pos);
                self.ids.push(id);
                self.slot_of.insert(id, slot);
                self.tree.insert_ctx(pos, id, ctx);
            }
            WorldEvent::CustomerDepart { id } => {
                let slot = *self
                    .slot_of
                    .get(&id)
                    .unwrap_or_else(|| panic!("departure of unknown customer {id}"));
                self.stats.departures += 1;
                self.tree.delete_ctx(self.graph.customers()[slot], id, ctx);
                self.graph.depart(slot);
                self.ids.swap_remove(slot);
                self.slot_of.remove(&id);
                if slot < self.ids.len() {
                    self.slot_of.insert(self.ids[slot], slot);
                }
            }
            WorldEvent::ProviderCapacityDelta { index, delta } => {
                self.stats.capacity_events += 1;
                let old_cap = self.graph.providers()[index].1;
                let new_cap = u32::try_from((i64::from(old_cap) + i64::from(delta)).max(0))
                    .expect("capacity fits u32");
                self.stats.evicted += self.graph.set_capacity(index, new_cap);
            }
            WorldEvent::ProviderMove { index, to } => {
                self.stats.moves += 1;
                self.graph.move_provider(index, to);
            }
        }
    }

    /// Phase 2: re-optimises the matching from what the world changes since
    /// the last completed re-optimisation left, or does nothing when they
    /// left nothing to do. After an aborted event this finishes its work.
    pub fn repair(&mut self, ctx: Option<&QueryContext>) -> Result<RepairKind, Aborted> {
        let kind = if self.graph.pending() {
            self.stats.local_repairs += 1;
            self.graph.solve(ctx)?;
            RepairKind::Local
        } else {
            RepairKind::None
        };
        self.debug_certify();
        Ok(kind)
    }

    /// Debug builds: panics unless the labels certify the matching optimal.
    fn debug_certify(&self) {
        if cfg!(debug_assertions) {
            self.graph
                .certify()
                .unwrap_or_else(|e| panic!("optimality certificate violated: {e}"));
        }
    }

    /// `γ = min(|P|, Σk)` of the current world.
    pub fn gamma(&self) -> u64 {
        self.graph.gamma()
    }

    /// Units missing from maximality (non-zero only after an aborted
    /// event).
    pub fn deficit(&self) -> u64 {
        self.gamma() - self.size()
    }

    /// Current matching size in units.
    pub fn size(&self) -> u64 {
        self.graph.size()
    }

    /// Cost `Ψ(M)` of the maintained matching.
    pub fn cost(&self) -> f64 {
        self.graph.pairs().map(|(_, _, dist)| dist).sum()
    }

    /// Materialises the maintained matching (customer ids are *slots* into
    /// [`ContinuousAssignment::alive_customers`], which is exactly what the
    /// validators expect).
    pub fn matching(&self) -> Matching {
        let customers = self.graph.customers();
        let pairs = self
            .graph
            .pairs()
            .map(|(slot, provider, dist)| MatchPair {
                provider,
                customer: slot as u64,
                units: 1,
                dist,
                customer_pos: customers[slot],
            })
            .collect();
        Matching { pairs }
    }

    /// Validates every structural invariant of the maintained matching
    /// (distances, capacities, no double assignment) against the graph's
    /// group bookkeeping and the index. The size may lag γ only by the
    /// reported [`ContinuousAssignment::deficit`].
    pub fn check_feasible(&self) -> Result<(), String> {
        let m = self.matching();
        m.validate_unit_partial(self.providers(), self.alive_customers())?;
        if m.size() != self.size() {
            return Err(format!(
                "size drift: pairs {} vs groups {}",
                m.size(),
                self.size()
            ));
        }
        let loads = m.provider_load(self.providers().len());
        for (i, &actual) in loads.iter().enumerate() {
            let tracked = self.graph.load(i);
            if u64::from(tracked) != actual {
                return Err(format!("load drift at provider {i}: {tracked} vs {actual}"));
            }
        }
        if self.tree.len() != self.alive_customers().len() {
            return Err(format!(
                "index drift: tree {} vs live {}",
                self.tree.len(),
                self.alive_customers().len()
            ));
        }
        Ok(())
    }

    /// Live customers in slot order.
    pub fn alive_customers(&self) -> &[Point] {
        self.graph.customers()
    }

    /// Providers (positions and current capacities).
    pub fn providers(&self) -> &[(Point, u32)] {
        self.graph.providers()
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
    use crate::dynamic::provider_graph::searches_checked;
    use crate::exact::memory_tree;
    use cca_datagen::{
        ArrivalProcess, CapacitySpec, SpatialDistribution, StreamEvent, Workload, WorkloadConfig,
    };
    use cca_storage::AbortReason;
    use cca_testutil::{optimal_cost, random_instance};

    fn engine_cfg() -> ContinuousConfig {
        ContinuousConfig::default()
    }

    /// Panics unless the engine is feasible, maximal and on the
    /// from-scratch optimum of its current world.
    fn assert_exact(engine: &ContinuousAssignment, at: &str) {
        engine
            .check_feasible()
            .unwrap_or_else(|e| panic!("{at}: {e}"));
        assert_eq!(engine.deficit(), 0, "{at}");
        let want = optimal_cost(engine.providers(), engine.alive_customers());
        assert!(
            (engine.cost() - want).abs() <= 1e-9 * want.max(1.0),
            "{at}: engine {} vs scratch {want}",
            engine.cost()
        );
    }

    type World = (Vec<(Point, u32)>, Vec<Point>);

    /// Two regimes for every per-kind test: Σk < |P|, where a customer
    /// joins the matching only by displacing a farther one through `t`,
    /// and surplus capacity, where load shifts between providers through
    /// `s`.
    fn worlds(seed: u64) -> [World; 2] {
        let scarce = random_instance(seed, 5, 40, 4);
        assert!(scarce.0.iter().map(|&(_, k)| k).sum::<u32>() < 40);
        let (mut providers, customers) = random_instance(seed + 1, 5, 30, 8);
        for (_, cap) in providers.iter_mut() {
            *cap += 12;
        }
        [scarce, (providers, customers)]
    }

    /// Applies `events(engine, i)` 20 times to each of [`worlds`], checking
    /// the engine against the from-scratch optimum after every one.
    fn assert_each_event_exact(
        seed: u64,
        event: impl Fn(&ContinuousAssignment, u64) -> WorldEvent,
    ) {
        for (providers, customers) in worlds(seed) {
            let mut engine = ContinuousAssignment::build(providers, customers, engine_cfg());
            for i in 0..20u64 {
                let event = event(&engine, i);
                let report = engine.apply(event, None);
                assert!(report.aborted.is_none());
                assert_exact(&engine, &format!("event {i} ({event:?})"));
            }
        }
    }

    fn spot(i: u64) -> Point {
        Point::new(
            997.0 * ((i * 37 + 11) % 100) as f64 / 100.0,
            31.0 + i as f64 * 13.7 % 900.0,
        )
    }

    #[test]
    fn build_starts_on_the_optimal_matching() {
        let (providers, customers) = random_instance(101, 6, 60, 3);
        let engine =
            ContinuousAssignment::build(providers.clone(), customers.clone(), engine_cfg());
        assert_exact(&engine, "build");
        engine
            .matching()
            .validate_unit(&providers, &customers)
            .unwrap();
    }

    #[test]
    fn arrivals_stay_exact() {
        assert_each_event_exact(102, |_, i| WorldEvent::CustomerArrive {
            id: 1000 + i,
            pos: spot(i),
        });
    }

    /// The id of a live customer that is matched (`matched`) or not.
    fn live_id(engine: &ContinuousAssignment, matched: bool) -> Option<u64> {
        let paired: std::collections::HashSet<u64> =
            engine.matching().pairs.iter().map(|p| p.customer).collect();
        (0..engine.alive_customers().len())
            .find(|&slot| paired.contains(&(slot as u64)) == matched)
            .map(|slot| engine.ids[slot])
    }

    #[test]
    fn matched_departures_stay_exact() {
        assert_each_event_exact(103, |engine, _| WorldEvent::CustomerDepart {
            id: live_id(engine, true).expect("a matched customer"),
        });
    }

    #[test]
    fn unmatched_departures_stay_exact() {
        // Only the scarce world has unmatched customers: 20 of its 40 and
        // more leave, then the engine must re-route through the rest.
        let (providers, customers) = random_instance(104, 5, 40, 4);
        let mut engine = ContinuousAssignment::build(providers, customers, engine_cfg());
        while let Some(id) = live_id(&engine, false) {
            let report = engine.apply(WorldEvent::CustomerDepart { id }, None);
            assert!(report.aborted.is_none());
            assert_eq!(report.repair, RepairKind::None, "nothing to re-optimise");
            assert_exact(&engine, &format!("departure of {id}"));
        }
        let report = engine.apply(
            WorldEvent::CustomerDepart {
                id: live_id(&engine, true).unwrap(),
            },
            None,
        );
        assert_eq!(report.repair, RepairKind::Local);
        assert_exact(&engine, "a matched departure with no one to take its place");
    }

    #[test]
    fn capacity_cuts_stay_exact() {
        assert_each_event_exact(105, |engine, i| {
            let index = i as usize % engine.providers().len();
            WorldEvent::ProviderCapacityDelta {
                index,
                delta: -(1 + i as i32 % 3),
            }
        });
    }

    #[test]
    fn capacity_rises_stay_exact() {
        assert_each_event_exact(106, |engine, i| WorldEvent::ProviderCapacityDelta {
            index: (i as usize * 3) % engine.providers().len(),
            delta: 1 + i as i32 % 3,
        });
    }

    #[test]
    fn moves_stay_exact() {
        assert_each_event_exact(107, |engine, i| WorldEvent::ProviderMove {
            index: i as usize % engine.providers().len(),
            to: spot(i * 7 + 3),
        });
    }

    #[test]
    fn departures_and_moves_stay_exact_on_small_instances() {
        let (providers, customers) = random_instance(103, 4, 40, 6);
        let n = customers.len() as u64;
        let mut engine = ContinuousAssignment::build(providers, customers, engine_cfg());
        for i in 0..12u64 {
            let report = engine.apply(WorldEvent::CustomerDepart { id: (i * 3) % n }, None);
            assert!(report.aborted.is_none());
            assert_exact(&engine, &format!("departure {i}"));
        }
        for i in 0..4usize {
            let to = Point::new(100.0 + 200.0 * i as f64, 500.0);
            let report = engine.apply(WorldEvent::ProviderMove { index: i, to }, None);
            assert!(report.aborted.is_none());
            assert_exact(&engine, &format!("move {i}"));
        }
    }

    #[test]
    fn capacity_cut_evicts_then_repair_rehomes() {
        let (providers, customers) = random_instance(105, 6, 50, 4);
        let mut engine = ContinuousAssignment::build(providers, customers, engine_cfg());
        let loaded = (0..engine.providers().len())
            .find(|&q| engine.graph.load(q) > 1)
            .expect("some provider carries load");
        let old_size = engine.size();
        let report = engine.apply(
            WorldEvent::ProviderCapacityDelta {
                index: loaded,
                delta: -(engine.providers()[loaded].1 as i32),
            },
            None,
        );
        assert!(report.aborted.is_none());
        assert!(engine.stats().evicted > 0, "cut below load must evict");
        assert_eq!(engine.providers()[loaded].1, 0);
        assert_eq!(engine.graph.load(loaded), 0);
        // γ shrank with Σk, and the matching is maximal again.
        assert_exact(&engine, "cut");
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
        assert_exact(&engine, "rise");
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
        assert_exact(&engine, "repair");
    }

    /// A re-optimisation under a cancelled context returns `Cancelled` and
    /// leaves the matching bit-identical.
    #[test]
    fn cancelled_resolve_leaves_the_matching_bit_identical() {
        let (providers, customers) = random_instance(109, 6, 400, 20);
        let mut engine = ContinuousAssignment::build(providers, customers, engine_cfg());
        let before = (engine.matching().pairs, engine.size(), engine.cost());
        let ctx = QueryContext::new();
        ctx.cancel();
        // A move keeps every pair; the re-optimisation would have work.
        let report = engine.apply(
            WorldEvent::ProviderMove {
                index: 0,
                to: Point::new(10.0, 990.0),
            },
            Some(&ctx),
        );
        assert_eq!(report.aborted, Some(AbortReason::Cancelled));
        assert_eq!(engine.matching().pairs.len(), before.0.len());
        for (now, was) in engine.matching().pairs.iter().zip(&before.0) {
            assert_eq!((now.provider, now.customer), (was.provider, was.customer));
        }
        assert_eq!(engine.size(), before.1);
        engine.repair(None).unwrap();
        assert_ne!(
            engine
                .matching()
                .pairs
                .iter()
                .map(|p| (p.provider, p.customer))
                .collect::<Vec<_>>(),
            before
                .0
                .iter()
                .map(|p| (p.provider, p.customer))
                .collect::<Vec<_>>(),
            "the move had work for it"
        );
        assert_exact(&engine, "repair after the move");
    }

    /// An event reads pages only in its atomic R-tree maintenance. With an
    /// I/O budget of one fault on a two-page pool, an arrival's insert
    /// trips the budget, yet the index is whole and the re-optimisation's
    /// first poll aborts with the phase-1 matching standing.
    #[test]
    fn io_budget_cannot_tear_the_index() {
        let cfg = ContinuousConfig {
            buffer_pages: 2,
            ..engine_cfg()
        };
        let (providers, customers) = random_instance(109, 6, 400, 20);
        let mut engine = ContinuousAssignment::build(providers, customers, cfg);
        let before = engine.matching().pairs;
        for (i, pos) in [Point::new(10.0, 990.0), Point::new(500.0, 20.0)]
            .into_iter()
            .enumerate()
        {
            let ctx = QueryContext::new().with_io_budget(1);
            let report = engine.apply(
                WorldEvent::CustomerArrive {
                    id: 9_000 + i as u64,
                    pos,
                },
                Some(&ctx),
            );
            assert_eq!(report.aborted, Some(AbortReason::IoBudgetExceeded));
            assert!(ctx.stats().faults >= 1);
            engine.check_feasible().unwrap();
            assert_eq!(engine.tree().len(), 401 + i);
            let found = engine.tree().knn(pos, 1);
            assert_eq!(found[0].1, 9_000 + i as u64, "the insert completed");
        }
        let now = engine.matching().pairs;
        assert_eq!(now.len(), before.len());
        for (now, was) in now.iter().zip(&before) {
            assert_eq!((now.provider, now.customer), (was.provider, was.customer));
            assert_eq!(now.dist.to_bits(), was.dist.to_bits());
        }
        engine.repair(None).unwrap();
        assert_exact(&engine, "repair");
    }

    fn world_event(event: StreamEvent) -> WorldEvent {
        match event {
            StreamEvent::CustomerArrive { id, pos } => WorldEvent::CustomerArrive { id, pos },
            StreamEvent::CustomerDepart { id, .. } => WorldEvent::CustomerDepart { id },
            StreamEvent::ProviderCapacityDelta { index, delta } => {
                WorldEvent::ProviderCapacityDelta { index, delta }
            }
            StreamEvent::ProviderMove { index, to } => WorldEvent::ProviderMove { index, to },
        }
    }

    /// A world of `dyn_events`' size: 40 providers, 1 000 clustered
    /// customers, k = 20.
    fn dyn_events_world() -> Workload {
        WorkloadConfig {
            num_providers: 40,
            num_customers: 1_000,
            capacity: CapacitySpec::Fixed(20),
            q_dist: SpatialDistribution::Clustered,
            p_dist: SpatialDistribution::Clustered,
            seed: 2008,
        }
        .generate()
    }

    /// Builds an engine on `world` and applies `events` events of a mixed
    /// stream drawn from `seed`, none of them aborted.
    fn run_stream(world: &Workload, seed: u64, events: usize) -> ContinuousAssignment {
        let mut stream = ArrivalProcess::new(world, seed);
        let (providers, customers) = (world.providers.clone(), world.customers.clone());
        let mut engine = ContinuousAssignment::build(providers, customers, engine_cfg());
        for _ in 0..events {
            let event = world_event(stream.next_event());
            assert!(engine.apply(event, None).aborted.is_none(), "{event:?}");
        }
        engine
    }

    /// At `dyn_events`' size the engine after 250 mixed events holds the
    /// cost of a from-scratch IDA of the same world.
    #[test]
    fn resolve_at_dyn_events_size_equals_a_scratch_ida() {
        let engine = run_stream(&dyn_events_world(), 2009, 250);
        engine.check_feasible().unwrap();
        assert_eq!(engine.deficit(), 0);

        let tree = memory_tree(engine.alive_customers().iter().copied());
        let positions = engine.providers().iter().map(|&(p, _)| p).collect();
        let mut source = RtreeSource::in_memory(&tree, positions, 1, Vec::new(), None);
        let (scratch, _) = ida(engine.providers(), &mut source);
        let want = scratch.cost();
        assert!(
            (engine.cost() - want).abs() <= 1e-9 * want,
            "engine {} vs scratch IDA {want}",
            engine.cost()
        );
    }

    /// Test builds check every search of the provider graph against its
    /// plain form (the same settled nodes, distance bits and path). This
    /// drives mixed streams through both regimes of [`worlds`], each also
    /// snapped to a coarse grid so that customers coincide and searches
    /// meet exact ties, and through one world of `dyn_events`' size, so
    /// every event kind reaches that check. CI also runs it in release,
    /// where the search's loops are vectorised.
    #[test]
    fn every_search_equals_the_plain_search() {
        let snap =
            |p: Point| Point::new((p.x / 250.0).round() * 250.0, (p.y / 250.0).round() * 250.0);
        let before = searches_checked();
        for seed in [201, 202, 203] {
            for (providers, customers) in worlds(seed) {
                let snapped = Workload {
                    providers: providers.iter().map(|&(p, k)| (snap(p), k)).collect(),
                    customers: customers.iter().map(|&p| snap(p)).collect(),
                };
                let plain = Workload {
                    providers,
                    customers,
                };
                for world in [plain, snapped] {
                    let engine = run_stream(&world, seed, 200);
                    assert_exact(&engine, &format!("seed {seed}"));
                    assert!(engine.stats().moves > 0 && engine.stats().capacity_events > 0);
                }
            }
        }
        let small = searches_checked() - before;
        let engine = run_stream(&dyn_events_world(), 2010, 300);
        engine.check_feasible().unwrap();
        let large = searches_checked() - before - small;
        assert!(small > 1_000 && large > 250, "{small} and {large} searches");
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
