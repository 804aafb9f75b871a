//! IDA — Incremental On-demand Algorithm (Algorithm 4, §3.3).
//!
//! IDA improves NIA in two ways:
//!
//! 1. **Full-provider keys.** Heap entries of *full* providers are keyed by
//!    `q.α + dist(q, p)`: any path through a full `q` costs at least `q.α`
//!    to reach `q`, so its unexplored edges can be postponed (Φ bound).
//! 2. **Theorem-2 fast phase.** While no provider is full, the shortest
//!    path is a single edge: the globally shortest pending edge with a
//!    non-full customer. Matches are made straight off the heap with no
//!    Dijkstra at all; at phase exit a closed-form feasible potential is
//!    installed (see `Engine::finish_fast_phase`).

use std::time::Instant;

use cca_geo::Point;

use crate::exact::engine::Engine;
use crate::exact::nia::EdgeHeap;
use crate::exact::source::RtreeSource;
use crate::matching::Matching;
use crate::stats::AlgoStats;

/// Runs IDA to the optimal matching.
pub fn ida(providers: &[(Point, u32)], source: &mut RtreeSource<'_>) -> (Matching, AlgoStats) {
    let start = Instant::now();
    let mut engine = Engine::new(providers, source.num_customers());
    engine.set_context(source.context());
    let gamma = engine.flow().total_capacity().min(source.total_weight());
    // NIA's heap `H` with IDA's keys: a full provider's pending edge is
    // keyed `α(q) + (τmax − τ(q)) + dist`, a non-full one's `dist`.
    let mut heap = EdgeHeap::new(providers.len(), source);
    // Last observed Dijkstra α per provider (0 for non-full providers,
    // possibly stale for full ones — Algorithm 4 keeps stale values).
    let mut alpha_raw = vec![0.0; providers.len()];
    let mut done = 0u64;

    // ---- Theorem-2 fast phase --------------------------------------
    while done < gamma && engine.no_provider_full() && source.abort_reason().is_none() {
        let Some((qi, c)) = heap.pop() else {
            break; // NN streams exhausted; every edge is in Esub
        };
        done += u64::from(engine.fast_match(qi, c.id, c.pos, c.weight, c.dist));
        heap.refill(qi, source, 0.0);
    }
    engine.finish_fast_phase();
    if done >= gamma || source.abort_reason().is_some() {
        // Finished — or aborted (cancelled / deadline / I/O budget): return
        // the partial matching built so far with its partial stats.
        let matching = engine.matching();
        let mut stats = engine.stats;
        stats.cpu_time = start.elapsed();
        return (matching, stats);
    }

    // ---- Dijkstra phase (Algorithm 4) -------------------------------
    'outer: while done < gamma {
        if source.abort_reason().is_some() {
            break;
        }
        let mut have_sp = false;
        loop {
            // De-heap the next edge into Esub (Algorithm 4 lines 7–8).
            if let Some((qi, c)) = heap.pop() {
                if have_sp {
                    engine.insert_edge_reoptimize(qi, c.id, c.pos, c.weight, c.dist);
                } else {
                    engine.insert_edge(qi, c.id, c.pos, c.weight, c.dist);
                    have_sp = false;
                }
                // Line 13–14: fetch the next NN *after* α updates so the
                // en-heaped edge has an up-to-date key. Full providers use
                // their current α if this iteration settled them, otherwise
                // the last known value (Algorithm 4 keeps stale α's); the
                // potential lag is always current.
                let (alpha, lag) = if engine.flow().provider_full(qi) {
                    let a = if engine.flow().provider_settled(qi) {
                        engine.flow().provider_alpha(qi)
                    } else {
                        alpha_raw[qi]
                    };
                    (a, engine.provider_tau_lag(qi))
                } else {
                    (0.0, 0.0)
                };
                alpha_raw[qi] = alpha;
                heap.refill(qi, source, alpha + lag);
            }
            // Lines 10–12: refresh keys of full providers whose α changed in
            // this Dijkstra execution. Potentials, τmax and fullness move
            // only at a commit, a re-commit or the fast-phase exit, and a
            // fresh search follows each: after it every full provider is
            // re-keyed, and after a PUA only those the engine settled or
            // relabelled since.
            if have_sp {
                for &qi in engine.flow().relabelled() {
                    refresh_full_key(&engine, &mut heap, &mut alpha_raw, qi as usize);
                }
            } else {
                engine.begin_iteration();
                have_sp = true;
                for qi in 0..providers.len() {
                    refresh_full_key(&engine, &mut heap, &mut alpha_raw, qi);
                }
            }
            engine.clear_relabelled();
            if engine.sp_valid(heap.top_key()) {
                engine.commit();
                done += 1;
                // Batched same-path augmentation: after the commit the path's
                // arcs all have reduced cost 0, so while it keeps residual
                // capacity a fresh Dijkstra would re-find it at reduced
                // length 0 and the potential update would be a no-op. Skip
                // those searches: re-validate with Theorem 1 (α_t = 0,
                // against a conservative Φ that drops possibly-stale α
                // terms) and push another unit along the identical arcs.
                // This collapses the per-unit iterations of weighted
                // instances (e.g. CA's concise matching) into one search.
                while done < gamma
                    && engine.last_path_residual()
                    && engine.zero_sp_valid(conservative_phi(&engine, &heap))
                {
                    engine.recommit();
                    done += 1;
                }
                break;
            }
            engine.note_invalid();
            if source.abort_reason().is_some() {
                // The streams dried up because the query aborted, not
                // because the edge set is complete: stop with what we have.
                break 'outer;
            }
            assert!(
                heap.top_key().is_finite() || engine.alpha_t().is_some(),
                "sink unreachable with the complete edge set: γ miscomputed"
            );
        }
    }

    let matching = engine.matching();
    let mut stats = engine.stats;
    stats.cpu_time = start.elapsed();
    (matching, stats)
}

/// A strictly conservative `Φ(E − Esub)` lower bound for the batched
/// re-commit test: like the heap keys, but with the α term of full providers
/// dropped. Stale α values (which Algorithm 4 keeps) may overestimate the
/// current reduced-cost distance; since true α ≥ 0 always, `lag + dist`
/// never does, so re-commits validated against this bound are exactly as
/// safe as fresh-search iterations.
fn conservative_phi(engine: &Engine, heap: &EdgeHeap) -> f64 {
    let mut phi = f64::INFINITY;
    for (qi, pending) in heap.pending.iter().enumerate() {
        let Some(c) = pending else { continue };
        let key = if engine.flow().provider_full(qi) {
            engine.provider_tau_lag(qi) + c.dist
        } else {
            c.dist
        };
        phi = phi.min(key);
    }
    phi
}

/// Applies Algorithm 4 lines 10–12 to provider `qi`, extended with the
/// potential-lag correction: a full provider's key is kept at
/// `α(q) + (τmax − τ(q)) + dist`, where α is the value observed by the most
/// recent search that settled `q` (stale values persist, as in the paper)
/// and the lag term is recomputed from the current potentials.
fn refresh_full_key(engine: &Engine, heap: &mut EdgeHeap, alpha_raw: &mut [f64], qi: usize) {
    if !engine.flow().provider_full(qi) {
        return;
    }
    if engine.flow().provider_settled(qi) {
        alpha_raw[qi] = engine.flow().provider_alpha(qi);
    }
    let Some(c) = heap.pending[qi] else {
        return;
    };
    let key = alpha_raw[qi] + engine.provider_tau_lag(qi) + c.dist;
    if key != heap.key(qi) {
        heap.set_key(qi, key);
    }
}
