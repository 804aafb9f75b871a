//! SA — Service Provider Approximation (§4.1).
//!
//! Three phases: (1) partition `Q` into Hilbert-ordered groups of MBR
//! diagonal ≤ δ; (2) *concise matching* — solve exact CCA (with IDA, "the
//! most efficient among the exact methods") between the group
//! representatives `Q'` and the full customer set `P`; (3) refine each
//! group's customer share among its members with a §4.3 heuristic.
//! Theorem 3 bounds the extra cost by `2·γ·δ`.

use std::time::Instant;

use cca_geo::Point;
use cca_rtree::RTree;
use cca_storage::QueryContext;

use crate::approx::grouping::partition_providers;
use crate::approx::refine::{refine, RefineMethod, RefineProvider};
use crate::exact::{ida, RtreeSource};
use crate::matching::{MatchPair, Matching};
use crate::stats::AlgoStats;

/// SA tuning.
#[derive(Clone, Copy, Debug)]
pub struct SaConfig {
    /// Group-MBR diagonal budget δ (paper default for SA: 40).
    pub delta: f64,
    /// Refinement heuristic ("N" → SAN, "E" → SAE).
    pub refine: RefineMethod,
}

/// Runs SA over providers and the R-tree-indexed customers. With a query
/// context the concise-matching phase's R-tree I/O is charged to `ctx`, and
/// an abort (cancellation / deadline / I/O budget) makes the phase return
/// early with a partial matching — the caller reads the abort state off the
/// context.
pub fn sa(
    providers: &[(Point, u32)],
    tree: &RTree,
    cfg: &SaConfig,
    ctx: Option<&QueryContext>,
) -> (Matching, AlgoStats) {
    let start = Instant::now();

    // Phase 1: partitioning (§4.1).
    let groups = partition_providers(providers, cfg.delta);
    let reps: Vec<(Point, u32)> = groups.iter().map(|g| (g.rep, g.cap)).collect();

    // Phase 2: concise matching — exact CCA between Q' and P via IDA.
    let rep_positions: Vec<Point> = reps.iter().map(|&(p, _)| p).collect();
    let mut source = RtreeSource::new(tree, rep_positions, ctx);
    let (concise, concise_stats) = ida(&reps, &mut source);

    // Phase 3: per-group refinement (§4.3). Each group's customer share is
    // split among its members, whose quotas are their own capacities.
    let mut share: Vec<Vec<(Point, u64)>> = vec![Vec::new(); groups.len()];
    for pair in &concise.pairs {
        debug_assert_eq!(pair.units, 1, "P-side customers are unit weight");
        share[pair.provider].push((pair.customer_pos, pair.customer));
    }
    let mut pairs = Vec::with_capacity(concise.pairs.len());
    for (g, customers) in groups.iter().zip(&share) {
        if customers.is_empty() {
            continue;
        }
        let refine_providers: Vec<RefineProvider> = g
            .members
            .iter()
            .map(|&i| RefineProvider {
                original: i,
                pos: providers[i].0,
                quota: providers[i].1,
            })
            .collect();
        for (original, customer, dist, customer_pos) in
            refine(cfg.refine, &refine_providers, customers)
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

    let mut stats = concise_stats;
    stats.cpu_time = start.elapsed();
    (Matching { pairs }, stats)
}
