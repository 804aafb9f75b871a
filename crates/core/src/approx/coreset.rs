//! Coreset-based approximate CCA — the million-customer tier.
//!
//! The exact algorithms route flow over the *full* instance, so their
//! per-query latency grows super-linearly with `|P|`. This module instead
//! (1) samples customers into a small weighted *coreset* by importance
//! (sensitivity ∝ distance to the nearest provider, the classic
//! capacitated-clustering coreset construction), (2) clusters every
//! customer to its nearest representative so representative weights are
//! exact member counts, (3) rounds weights capacity-awarely (no
//! representative may outweigh the largest single provider capacity — it is
//! split into co-located slots instead, so the concise instance is always
//! feasible), (4) solves the concise weighted instance *exactly* — via
//! `cca-flow`'s bottleneck-augmenting SSPA when the bipartite graph is
//! small, via the incremental IDA engine otherwise, (5) lifts the concise
//! quotas back over each representative's actual members with the §4.3
//! refinement heuristics, and (6) runs bounded swap passes inside R-tree
//! neighbourhoods to repair locally bad lifts.
//!
//! Feasibility is never approximate: every phase preserves "each customer
//! assigned at most once, no provider over capacity, matching size = γ";
//! only the *cost* is. Aborts (deadline / budget / cancel) unwind to the
//! best feasible state reached so far, exactly like SA/CA.

use std::collections::BinaryHeap;
use std::collections::HashMap;
use std::time::Instant;

use cca_flow::sspa::{FlowCustomer, FlowProvider, Sspa};
use cca_geo::{OrdF64, Point};
use cca_rtree::RTree;
use cca_storage::QueryContext;

use crate::approx::pgrid::PointGrid;
use crate::approx::refine::{refine, RefineMethod, RefineProvider};
use crate::exact::{ida, IdaConfig, MemorySource};
use crate::matching::{MatchPair, Matching};
use crate::stats::AlgoStats;

/// Above this edge count (`slots × providers`) the concise solve switches
/// from materialised SSPA to the incremental IDA engine, which never
/// builds the complete bipartite graph.
const BULK_EDGE_LIMIT: usize = 65_536;

/// How often the CPU-bound phases poll the query context.
const POLL_STRIDE: u32 = 4_096;

/// Coreset tuning.
#[derive(Clone, Copy, Debug)]
pub struct CoresetConfig {
    /// Target coreset size `m` (0 = auto: `64·√n`, at least 256, at most
    /// `n`). `m ≥ n` degenerates to an exact solve.
    pub size: usize,
    /// Sampling seed. Cost varies with it; feasibility never does.
    pub seed: u64,
    /// Bounded local-refinement passes over R-tree neighbourhoods after the
    /// lift (0 disables; ignored for memory-only instances).
    pub swap_passes: usize,
    /// Heuristic used to fill concise quotas with member customers.
    pub refine: RefineMethod,
}

impl Default for CoresetConfig {
    fn default() -> Self {
        CoresetConfig {
            size: 0,
            seed: 0xc0_5e7,
            swap_passes: 2,
            refine: RefineMethod::NnBased,
        }
    }
}

fn empty(start: Instant) -> (Matching, AlgoStats) {
    (
        Matching::default(),
        AlgoStats {
            cpu_time: start.elapsed(),
            ..Default::default()
        },
    )
}

/// SplitMix64 step mapped to a uniform f64 in `[0, 1)` — the sampler's
/// only randomness. Self-contained so the deterministic sampling contract
/// (same seed → same coreset) depends on nothing but this file.
fn splitmix_unit(state: &mut u64) -> f64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 31;
    (z >> 11) as f64 / (1u64 << 53) as f64
}

fn poll(ctx: Option<&QueryContext>, counter: &mut u32) -> bool {
    *counter += 1;
    if *counter >= POLL_STRIDE {
        *counter = 0;
        if let Some(c) = ctx {
            return c.check().is_err();
        }
    }
    false
}

/// Runs the coreset solver over R-tree-indexed customers. With a query
/// context the single full-tree sweep that collects customer positions (the
/// only unavoidable I/O) and the swap passes charge their page faults to
/// `ctx`; every CPU-bound phase polls it. An abort during collection
/// returns an empty partial matching; later aborts return the best feasible
/// matching built so far.
pub fn coreset(
    providers: &[(Point, u32)],
    tree: &RTree,
    cfg: &CoresetConfig,
    ctx: Option<&QueryContext>,
) -> (Matching, AlgoStats) {
    let start = Instant::now();
    let mut items = Vec::new();
    if tree
        .for_each_point(|pos, id| items.push((pos, id)), ctx)
        .is_err()
    {
        return empty(start);
    }
    coreset_points(providers, &items, Some(tree), cfg, ctx)
}

/// The coreset pipeline over an explicit `(position, id)` customer slice.
/// `tree` (when present) is used only by the swap-refinement passes; pass
/// `None` for memory-only instances.
pub fn coreset_points(
    providers: &[(Point, u32)],
    items: &[(Point, u64)],
    tree: Option<&RTree>,
    cfg: &CoresetConfig,
    ctx: Option<&QueryContext>,
) -> (Matching, AlgoStats) {
    let start = Instant::now();
    let n = items.len();
    let total_cap: u64 = providers.iter().map(|&(_, c)| u64::from(c)).sum();
    if n == 0 || total_cap == 0 {
        return empty(start);
    }
    let m = if cfg.size > 0 {
        cfg.size.min(n)
    } else {
        ((64.0 * (n as f64).sqrt()) as usize).max(256).min(n)
    };

    // Group assignment: groups[g] = representative position, member lists
    // in CSR form (member_starts / member_order over item indices).
    let mut counter = 0u32;
    let (rep_pos, group_of) = if m >= n {
        // Degenerate: every customer is its own weight-1 representative and
        // the concise solve below is an *exact* solve of the instance.
        (
            items.iter().map(|&(p, _)| p).collect::<Vec<Point>>(),
            (0..n as u32).collect::<Vec<u32>>(),
        )
    } else {
        // Sensitivity σ_i = d(c_i, NN provider) + mean distance: far
        // customers are the expensive ones an optimal assignment must get
        // right, the mean term keeps dense near clusters represented.
        let qgrid = PointGrid::new(providers.iter().map(|&(p, _)| p).collect());
        let mut sens = Vec::with_capacity(n);
        let mut sum = 0.0f64;
        for &(pos, _) in items {
            if poll(ctx, &mut counter) {
                return empty(start);
            }
            let d = qgrid.nearest(pos).map_or(0.0, |(_, d)| d);
            sens.push(d);
            sum += d;
        }
        let mean = sum / n as f64;
        // Weighted sampling without replacement via exponential keys
        // (A-ExpJ): keep the m smallest `-ln(u)/σ`.
        let mut rng_state = cfg.seed;
        let mut heap: BinaryHeap<(OrdF64, u32)> = BinaryHeap::with_capacity(m + 1);
        for (i, &d) in sens.iter().enumerate() {
            let sigma = if d + mean > 0.0 { d + mean } else { 1.0 };
            let u = splitmix_unit(&mut rng_state).max(1e-18);
            let key = -u.ln() / sigma;
            if heap.len() < m {
                heap.push((OrdF64::new(key), i as u32));
            } else if key < heap.peek().expect("non-empty").0.get() {
                heap.pop();
                heap.push((OrdF64::new(key), i as u32));
            }
        }
        let rep_pos: Vec<Point> = heap.into_iter().map(|(_, i)| items[i as usize].0).collect();
        // Cluster every customer to its nearest representative; the
        // representative's weight is its exact member count, so lifted
        // assignments conserve units exactly.
        let rgrid = PointGrid::new(rep_pos.clone());
        let mut group_of = Vec::with_capacity(n);
        for &(pos, _) in items {
            if poll(ctx, &mut counter) {
                return empty(start);
            }
            let (g, _) = rgrid.nearest(pos).expect("m ≥ 1 representative");
            group_of.push(g as u32);
        }
        (rep_pos, group_of)
    };

    let num_groups = rep_pos.len();
    let mut weight = vec![0u32; num_groups];
    for &g in &group_of {
        weight[g as usize] += 1;
    }

    // Capacity-aware weight rounding: a representative heavier than the
    // largest single capacity is split into balanced co-located slots so
    // the concise instance never needs to overfill a provider.
    let cap_max = providers.iter().map(|&(_, c)| c).max().unwrap_or(0).max(1);
    let mut slots: Vec<(Point, u32)> = Vec::with_capacity(num_groups);
    let mut slot_group: Vec<u32> = Vec::with_capacity(num_groups);
    for (g, &w) in weight.iter().enumerate() {
        if w == 0 {
            continue;
        }
        let parts = w.div_ceil(cap_max);
        let base = w / parts;
        let extra = w % parts;
        for s in 0..parts {
            let part = base + u32::from(s < extra);
            slots.push((rep_pos[g], part));
            slot_group.push(g as u32);
        }
    }

    // Exact solve of the concise weighted instance: bottleneck-augmenting
    // SSPA when the materialised graph is small, the incremental IDA engine
    // otherwise. Both poll the context; an abort leaves a feasible partial
    // concise matching that lifts to a feasible partial answer.
    let edges = slots.len().saturating_mul(providers.len());
    let mut stats;
    let concise: Vec<(usize, usize, u32)> = if edges <= BULK_EDGE_LIMIT {
        let fps: Vec<FlowProvider> = providers
            .iter()
            .map(|&(pos, cap)| FlowProvider { pos, cap })
            .collect();
        let fcs: Vec<FlowCustomer> = slots
            .iter()
            .map(|&(pos, weight)| FlowCustomer { pos, weight })
            .collect();
        let sspa = Sspa { ctx };
        let (asg, sspa_stats) = match sspa.solve(&fps, &fcs) {
            Ok(complete) => complete,
            Err(aborted) => (aborted.partial, aborted.stats),
        };
        stats = AlgoStats {
            esub_edges: sspa_stats.edges,
            iterations: sspa_stats.iterations,
            settled: sspa_stats.settled,
            ..Default::default()
        };
        asg.pairs
    } else {
        let q_positions: Vec<Point> = providers.iter().map(|&(p, _)| p).collect();
        let mut source = MemorySource::new(q_positions, slots.clone()).with_context(ctx);
        let (concise, concise_stats) = ida(providers, &mut source, &IdaConfig::default());
        stats = concise_stats;
        concise
            .pairs
            .iter()
            .map(|p| (p.provider, p.customer as usize, p.units))
            .collect()
    };

    // Lift: concise quotas per representative group, filled with the
    // group's actual members by the §4.3 refinement heuristics.
    let mut quotas: Vec<Vec<RefineProvider>> = vec![Vec::new(); num_groups];
    for &(qi, slot, units) in &concise {
        quotas[slot_group[slot] as usize].push(RefineProvider {
            original: qi,
            pos: providers[qi].0,
            quota: units,
        });
    }
    // CSR member lists, built only now so aborted solves skip the work.
    let mut member_starts = vec![0u32; num_groups + 1];
    for &g in &group_of {
        member_starts[g as usize + 1] += 1;
    }
    for g in 0..num_groups {
        member_starts[g + 1] += member_starts[g];
    }
    let mut cursor = member_starts.clone();
    let mut member_order = vec![0u32; n];
    for (i, &g) in group_of.iter().enumerate() {
        member_order[cursor[g as usize] as usize] = i as u32;
        cursor[g as usize] += 1;
    }
    let mut pairs = Vec::new();
    for (g, refine_providers) in quotas.iter().enumerate() {
        if refine_providers.is_empty() {
            continue;
        }
        let members: Vec<(Point, u64)> = member_order
            [member_starts[g] as usize..member_starts[g + 1] as usize]
            .iter()
            .map(|&i| items[i as usize])
            .collect();
        for (original, customer, dist, customer_pos) in
            refine(cfg.refine, refine_providers, &members)
        {
            pairs.push(MatchPair {
                provider: original,
                customer,
                units: 1,
                dist,
                customer_pos,
            });
        }
    }

    // Local repair: bounded swap passes within R-tree neighbourhoods. Every
    // accepted move preserves per-provider loads and per-customer
    // uniqueness, so the matching stays feasible whether the passes finish
    // or abort mid-way.
    if let Some(tree) = tree {
        if cfg.swap_passes > 0 && !pairs.is_empty() {
            swap_refine(providers, tree, &mut pairs, cfg.swap_passes, ctx);
        }
    }

    stats.cpu_time = start.elapsed();
    (Matching { pairs }, stats)
}

/// In-place local refinement: for each provider, probe its R-tree
/// neighbourhood (bounded by its current worst assignment distance) and
/// greedily accept cost-reducing *replace* moves (swap in a nearer
/// unmatched customer) and *exchange* moves (trade customers with another
/// provider). Load-preserving by construction. Stops after `passes`
/// passes, at the first pass without an accepted move, or at a context
/// abort — whichever comes first.
fn swap_refine(
    providers: &[(Point, u32)],
    tree: &RTree,
    pairs: &mut [MatchPair],
    passes: usize,
    ctx: Option<&QueryContext>,
) {
    let mut assign: HashMap<u64, usize> = HashMap::with_capacity(pairs.len());
    let mut by_provider: Vec<Vec<usize>> = vec![Vec::new(); providers.len()];
    for (pi, p) in pairs.iter().enumerate() {
        assign.insert(p.customer, pi);
        by_provider[p.provider].push(pi);
    }
    let remove = |list: &mut Vec<usize>, v: usize| {
        let at = list.iter().position(|&x| x == v).expect("tracked index");
        list.swap_remove(at);
    };
    for _ in 0..passes {
        let mut improved = false;
        for qi in 0..providers.len() {
            if by_provider[qi].is_empty() {
                continue;
            }
            let qpos = providers[qi].0;
            let worst_of = |pairs: &[MatchPair], list: &[usize]| -> (usize, f64) {
                list.iter()
                    .map(|&pi| (pi, pairs[pi].dist))
                    .max_by(|a, b| a.1.total_cmp(&b.1))
                    .expect("non-empty provider list")
            };
            let (_, radius) = worst_of(pairs, &by_provider[qi]);
            let k = (2 * by_provider[qi].len()).clamp(4, 64);
            let hits = match tree.knn_within(qpos, k, radius, ctx) {
                Ok(hits) => hits,
                Err(_) => return, // abort: the current matching stands
            };
            for (pos, id, d) in hits {
                let (wi, wd) = worst_of(pairs, &by_provider[qi]);
                if d + 1e-9 >= wd {
                    break; // ascending distances: no further move can help
                }
                match assign.get(&id).copied() {
                    Some(pi) if pairs[pi].provider == qi => {}
                    Some(pi) => {
                        // Exchange: c (at q2) moves here, our worst c2 goes
                        // to q2. Accept iff the summed cost drops.
                        let q2 = pairs[pi].provider;
                        let d_c_q2 = pairs[pi].dist;
                        let d_c2_q2 = providers[q2].0.dist(&pairs[wi].customer_pos);
                        if d + d_c2_q2 + 1e-9 < d_c_q2 + wd {
                            pairs[pi].provider = qi;
                            pairs[pi].dist = d;
                            pairs[wi].provider = q2;
                            pairs[wi].dist = d_c2_q2;
                            remove(&mut by_provider[q2], pi);
                            by_provider[qi].push(pi);
                            remove(&mut by_provider[qi], wi);
                            by_provider[q2].push(wi);
                            improved = true;
                        }
                    }
                    None => {
                        // Replace: an unmatched nearer customer takes the
                        // worst slot; the displaced one becomes unmatched.
                        assign.remove(&pairs[wi].customer);
                        assign.insert(id, wi);
                        pairs[wi].customer = id;
                        pairs[wi].customer_pos = pos;
                        pairs[wi].dist = d;
                        improved = true;
                    }
                }
            }
        }
        if !improved {
            break;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cca_testutil::{build_tree, gamma, optimal_cost, random_instance};

    #[test]
    fn degenerate_full_coreset_is_exact() {
        for seed in [80, 81, 82] {
            let (providers, customers) = random_instance(seed, 6, 50, 4);
            let tree = build_tree(&customers);
            let opt = optimal_cost(&providers, &customers);
            let (m, stats) = coreset(&providers, &tree, &CoresetConfig::default(), None);
            m.validate_unit(&providers, &customers).unwrap();
            assert!(
                (m.cost() - opt).abs() < 1e-6,
                "seed {seed}: m ≥ n must be exact: {} vs {opt}",
                m.cost()
            );
            assert!(stats.iterations > 0);
        }
    }

    #[test]
    fn subsampled_coreset_is_feasible_and_reasonable() {
        let (providers, customers) = random_instance(90, 10, 400, 8);
        let tree = build_tree(&customers);
        let opt = optimal_cost(&providers, &customers);
        let cfg = CoresetConfig {
            size: 60,
            ..CoresetConfig::default()
        };
        let (m, _) = coreset(&providers, &tree, &cfg, None);
        m.validate_unit(&providers, &customers).unwrap();
        assert_eq!(m.size(), gamma(&providers, &customers));
        assert!(
            m.cost() < 3.0 * opt + 1e-6,
            "60-rep coreset on 400 customers is wildly off: {} vs {opt}",
            m.cost()
        );
    }

    #[test]
    fn swap_passes_only_improve_cost() {
        let (providers, customers) = random_instance(91, 8, 300, 6);
        let tree = build_tree(&customers);
        let base = CoresetConfig {
            size: 40,
            swap_passes: 0,
            ..CoresetConfig::default()
        };
        let (m0, _) = coreset(&providers, &tree, &base, None);
        let (m2, _) = coreset(
            &providers,
            &tree,
            &CoresetConfig {
                swap_passes: 3,
                ..base
            },
            None,
        );
        m2.validate_unit(&providers, &customers).unwrap();
        assert!(
            m2.cost() <= m0.cost() + 1e-9,
            "swaps must not raise cost: {} vs {}",
            m2.cost(),
            m0.cost()
        );
    }

    #[test]
    fn heavy_representatives_split_to_fit_capacities() {
        // 200 coincident customers, largest capacity 3: every concise slot
        // must fit a single provider, and the lift stays feasible.
        let customers: Vec<Point> = (0..200)
            .map(|i| Point::new(5.0 + (i % 3) as f64 * 1e-9, 5.0))
            .collect();
        let providers: Vec<(Point, u32)> =
            (0..40).map(|i| (Point::new(i as f64, 0.0), 3u32)).collect();
        let tree = build_tree(&customers);
        let cfg = CoresetConfig {
            size: 2,
            ..CoresetConfig::default()
        };
        let (m, _) = coreset(&providers, &tree, &cfg, None);
        m.validate_unit(&providers, &customers).unwrap();
        assert_eq!(m.size(), 120, "γ = Σcap = 120 units all placed");
    }

    #[test]
    fn aborted_collection_returns_empty_partial() {
        use std::time::{Duration, Instant};
        let (providers, customers) = random_instance(92, 4, 100, 3);
        let tree = build_tree(&customers);
        let ctx = QueryContext::new().with_deadline(Instant::now() - Duration::from_millis(1));
        let (m, _) = coreset(&providers, &tree, &CoresetConfig::default(), Some(&ctx));
        assert_eq!(m.size(), 0);
        assert!(ctx.check().is_err());
    }

    #[test]
    fn memory_only_instances_skip_swap_refinement() {
        let (providers, customers) = random_instance(93, 5, 80, 4);
        let items: Vec<(Point, u64)> = customers
            .iter()
            .enumerate()
            .map(|(i, &p)| (p, i as u64))
            .collect();
        let (m, _) = coreset_points(&providers, &items, None, &CoresetConfig::default(), None);
        m.validate_unit(&providers, &customers).unwrap();
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]
        /// The acceptance property: the lifted (and swap-refined) coreset
        /// assignment is always *feasible* — every customer assigned at
        /// most once, unit pairs, no provider over capacity, full size γ —
        /// for every sampling seed and coreset size. Only cost may vary.
        #[test]
        fn prop_lift_is_feasible_for_all_seeds(
            seed in 0u64..2_000,
            sample_seed in 0u64..u64::MAX,
            nq in 1usize..8,
            np in 1usize..150,
            max_cap in 1u32..7,
            size in 1usize..50,
            passes in 0usize..3,
        ) {
            let (providers, customers) = random_instance(seed, nq, np, max_cap);
            let tree = build_tree(&customers);
            let cfg = CoresetConfig {
                size,
                seed: sample_seed,
                swap_passes: passes,
                ..CoresetConfig::default()
            };
            let (m, _) = coreset(&providers, &tree, &cfg, None);
            let valid = m.validate_unit(&providers, &customers);
            proptest::prop_assert!(valid.is_ok(), "infeasible: {:?}", valid.err());
        }
    }
}
