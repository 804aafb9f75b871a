//! CA — Customer Approximation (§4.2).
//!
//! Three phases: (1) partition `P` by descending the R-tree until every
//! entry's MBR diagonal is ≤ δ (conceptually halving oversized leaves),
//! then merge entries into hyper-entries under the same δ; (2) *concise
//! matching* — exact CCA (IDA) between `Q` and the weighted customer
//! representatives `P'`, solved in main memory; (3) refine each
//! representative's provider quotas over its actual member customers.
//! Theorem 4 bounds the extra cost by `γ·δ`.

use std::time::Instant;

use cca_geo::{Point, Rect};
use cca_rtree::{CustomerGroup, RTree};
use cca_storage::QueryContext;

use crate::approx::grouping::greedy_hilbert_groups;
use crate::approx::refine::{refine, RefineMethod, RefineProvider};
use crate::exact::{ida, IdaConfig, MemorySource};
use crate::matching::{MatchPair, Matching};
use crate::stats::AlgoStats;

/// CA tuning.
#[derive(Clone, Copy, Debug)]
pub struct CaConfig {
    /// Group-MBR diagonal budget δ (paper default for CA: 10).
    pub delta: f64,
    /// Refinement heuristic ("N" → CAN, "E" → CAE).
    pub refine: RefineMethod,
}

impl Default for CaConfig {
    fn default() -> Self {
        CaConfig {
            delta: 10.0,
            refine: RefineMethod::NnBased,
        }
    }
}

/// A merged customer group (hyper-entry) with its representative.
struct MergedGroup {
    mbr: Rect,
    members: Vec<(Point, u64)>,
}

/// Runs CA over providers and the R-tree-indexed customers. With a query
/// context the partition descent's R-tree I/O is charged to `ctx`. If the
/// descent aborts (cancellation / deadline / I/O budget) CA returns an
/// empty partial matching immediately — the representatives cannot be
/// formed from a truncated partition — and the caller reads the abort state
/// off the context.
pub fn ca(
    providers: &[(Point, u32)],
    tree: &RTree,
    cfg: &CaConfig,
    ctx: Option<&QueryContext>,
) -> (Matching, AlgoStats) {
    let start = Instant::now();

    // Phase 1a: diagonal-bounded partition descent (§4.2).
    let base: Vec<CustomerGroup> = match tree.partition_by_diagonal(cfg.delta, ctx) {
        Ok(groups) => groups,
        Err(_) => {
            return (
                Matching::default(),
                AlgoStats {
                    cpu_time: start.elapsed(),
                    ..Default::default()
                },
            )
        }
    };

    // Phase 1b: merge entries into hyper-entries still satisfying δ.
    let merge = greedy_hilbert_groups(&base, |g| g.mbr.center(), |g| g.mbr, cfg.delta);
    let merged: Vec<MergedGroup> = merge
        .into_iter()
        .map(|idxs| {
            let mbr = idxs
                .iter()
                .fold(Rect::empty(), |acc, &i| acc.union(&base[i].mbr));
            let members = idxs
                .iter()
                .flat_map(|&i| base[i].members.iter().copied())
                .collect();
            MergedGroup { mbr, members }
        })
        .collect();

    // Representatives: geometric centroid of the hyper-entry, weight = the
    // number of points beneath it (§4.2) — giving Theorem 4's δ/2 bound.
    let reps: Vec<(Point, u32)> = merged
        .iter()
        .map(|g| {
            (
                g.mbr.center(),
                u32::try_from(g.members.len()).expect("group size fits u32"),
            )
        })
        .collect();

    // Phase 2: concise matching in main memory between Q and P' (weighted).
    // The source carries the query context even though this phase does no
    // I/O: the IDA driver and engine poll it, so a deadline expiring during
    // the CPU-bound concise matching aborts here (with the partial concise
    // matching refined below) instead of overshooting until the run ends.
    let q_positions: Vec<Point> = providers.iter().map(|&(p, _)| p).collect();
    let mut source = MemorySource::new(q_positions, reps).with_context(ctx);
    let (concise, concise_stats) = ida(providers, &mut source, &IdaConfig::default());

    // Phase 3: per-representative refinement. The concise matching fixes
    // how many instances of rep g go to each provider; those quotas are now
    // filled with g's actual member customers.
    let mut quotas: Vec<Vec<RefineProvider>> = vec![Vec::new(); merged.len()];
    for pair in &concise.pairs {
        let rep = usize::try_from(pair.customer).expect("rep id fits usize");
        quotas[rep].push(RefineProvider {
            original: pair.provider,
            pos: providers[pair.provider].0,
            quota: pair.units,
        });
    }
    let mut pairs = Vec::new();
    for (group, refine_providers) in merged.iter().zip(&quotas) {
        if refine_providers.is_empty() {
            continue;
        }
        for (original, customer, dist, customer_pos) in
            refine(cfg.refine, refine_providers, &group.members)
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
