//! RIA — Range Incremental Algorithm (Algorithm 2, §3.1).
//!
//! Edges are discovered in bulk by `T`-range searches around every provider;
//! when Theorem 1 cannot validate the current shortest path, `T` grows by θ
//! and an annular range search `(T−θ, T]` fetches the next shell of edges.

use std::time::Instant;

use cca_geo::Point;

use crate::exact::engine::Engine;
use crate::exact::source::RtreeSource;
use crate::matching::Matching;
use crate::stats::AlgoStats;

/// RIA tuning.
#[derive(Clone, Copy, Debug)]
pub struct RiaConfig {
    /// Range increment θ. The paper fine-tunes it to 0.8 for its default
    /// workload (§5.1).
    pub theta: f64,
}

/// Runs RIA to the optimal matching.
pub fn ria(
    providers: &[(Point, u32)],
    source: &mut RtreeSource<'_>,
    cfg: &RiaConfig,
) -> (Matching, AlgoStats) {
    assert!(cfg.theta > 0.0, "theta must be positive");
    let start = Instant::now();
    let mut engine = Engine::new(providers, source.num_customers());
    engine.set_context(source.context());
    engine.skip_fast_phase();
    let gamma = engine.flow().total_capacity().min(source.total_weight());
    let max_edges = providers.len() as u64 * source.num_customers() as u64;

    // Initial T-range around every provider (Algorithm 2 lines 1–4).
    let mut t_radius = cfg.theta;
    for qi in 0..providers.len() {
        for c in source.range(qi, 0.0, t_radius, true) {
            engine.insert_edge(qi, c.id, c.pos, c.weight, c.dist);
        }
    }

    let mut done = 0u64;
    while done < gamma {
        if source.abort_reason().is_some() {
            // Aborted (cancelled / deadline / I/O budget): further range
            // extensions would come back empty, so stop with the partial
            // matching instead of growing T forever.
            break;
        }
        engine.begin_iteration();
        // Once every possible edge is present, the unexplored set is empty
        // and any shortest path is trivially valid.
        let threshold = if engine.stats.esub_edges >= max_edges {
            f64::INFINITY
        } else {
            t_radius
        };
        if engine.sp_valid(threshold) {
            engine.commit();
            done += 1;
        } else {
            if source.abort_reason().is_some() {
                // The search itself aborted mid-Dijkstra (deadline or
                // cancellation polled inside the flow loop): not a
                // miscomputed γ. The loop-head poll unwinds next round.
                continue;
            }
            assert!(
                engine.stats.esub_edges < max_edges,
                "sink unreachable with the complete edge set: γ miscomputed"
            );
            engine.note_invalid();
            // Extend T and fetch the annulus (Algorithm 2 lines 12–15).
            let lo = t_radius;
            t_radius += cfg.theta;
            for qi in 0..providers.len() {
                for c in source.range(qi, lo, t_radius, false) {
                    engine.insert_edge(qi, c.id, c.pos, c.weight, c.dist);
                }
            }
        }
    }

    let matching = engine.matching();
    let mut stats = engine.stats;
    stats.cpu_time = start.elapsed();
    (matching, stats)
}
