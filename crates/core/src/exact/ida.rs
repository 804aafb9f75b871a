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

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::Instant;

use cca_geo::{OrdF64, Point};

use crate::exact::engine::Engine;
use crate::exact::source::{CustomerSource, SourcedCustomer};
use crate::matching::Matching;
use crate::stats::AlgoStats;

/// How IDA keys heap entries of full providers whose α was not refreshed by
/// the *current* iteration's Dijkstra.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum IdaKeyMode {
    /// Algorithm 4 verbatim: keep the α from the last Dijkstra execution
    /// that visited the provider, even across iterations.
    #[default]
    Paper,
    /// Reset α contributions at the start of every iteration; only fold in
    /// α values observed by the current iteration's search. Strictly
    /// conservative (keys never overestimate Φ), at the price of weaker
    /// pruning. The exact-agreement tests run both modes; the stale-α
    /// overestimate it guards against is the one `conservative_phi`
    /// describes.
    Safe,
}

/// IDA tuning.
#[derive(Clone, Copy, Debug, Default)]
pub struct IdaConfig {
    pub key_mode: IdaKeyMode,
    /// Disable the Theorem-2 fast phase (ablation only).
    pub disable_fast_phase: bool,
    /// Disable PUA reuse (ablation only).
    pub disable_pua: bool,
}

/// Lazy per-provider edge heap with updatable keys.
struct IdaHeap {
    heap: BinaryHeap<Reverse<(OrdF64, u32)>>,
    pending: Vec<Option<SourcedCustomer>>,
    /// Authoritative key per provider; heap entries not matching are stale.
    key: Vec<f64>,
    /// Last observed Dijkstra α per provider (0 for non-full providers,
    /// possibly stale for full ones — Algorithm 4 keeps stale values).
    alpha_raw: Vec<f64>,
}

impl IdaHeap {
    fn new<S: CustomerSource>(num_providers: usize, source: &mut S) -> Self {
        let mut h = IdaHeap {
            heap: BinaryHeap::new(),
            pending: Vec::with_capacity(num_providers),
            key: vec![f64::INFINITY; num_providers],
            alpha_raw: vec![0.0; num_providers],
        };
        for qi in 0..num_providers {
            let c = source.next_nn(qi);
            h.pending.push(c);
            if let Some(c) = h.pending[qi] {
                h.key[qi] = c.dist;
                h.heap.push(Reverse((OrdF64::new(c.dist), qi as u32)));
            }
        }
        h
    }

    fn set_key(&mut self, qi: usize, key: f64) {
        self.key[qi] = key;
        self.heap.push(Reverse((OrdF64::new(key), qi as u32)));
    }

    /// Discards stale heap entries so the top reflects authoritative keys.
    fn clean_top(&mut self) {
        while let Some(&Reverse((k, qi))) = self.heap.peek() {
            let qi = qi as usize;
            if self.pending[qi].is_none() || k.get() != self.key[qi] {
                self.heap.pop();
            } else {
                return;
            }
        }
    }

    /// `Φ(E − Esub)` lower bound: minimum authoritative key, ∞ if exhausted.
    fn top_key(&mut self) -> f64 {
        self.clean_top();
        self.heap
            .peek()
            .map_or(f64::INFINITY, |Reverse((k, _))| k.get())
    }

    /// Pops the minimum-key pending edge; the caller refills via `refill`.
    fn pop(&mut self) -> Option<(usize, SourcedCustomer)> {
        self.clean_top();
        let Reverse((_, qi)) = self.heap.pop()?;
        let qi = qi as usize;
        let cust = self.pending[qi].take().expect("cleaned entry is pending");
        Some((qi, cust))
    }

    /// Refills provider `qi` from its NN stream; the key carries the given
    /// α plus the provider's potential lag.
    fn refill<S: CustomerSource>(&mut self, qi: usize, source: &mut S, alpha: f64, lag: f64) {
        debug_assert!(self.pending[qi].is_none());
        let next = source.next_nn(qi);
        self.pending[qi] = next;
        self.alpha_raw[qi] = alpha;
        if let Some(c) = next {
            self.set_key(qi, alpha + lag + c.dist);
        } else {
            self.key[qi] = f64::INFINITY;
        }
    }
}

/// Runs IDA to the optimal matching.
pub fn ida<S: CustomerSource>(
    providers: &[(Point, u32)],
    source: &mut S,
    cfg: &IdaConfig,
) -> (Matching, AlgoStats) {
    let start = Instant::now();
    let mut engine = Engine::new(providers, source.num_customers());
    engine.set_context(source.context());
    let gamma = engine.total_capacity().min(source.total_weight());
    let mut heap = IdaHeap::new(providers.len(), source);
    let mut done = 0u64;

    // ---- Theorem-2 fast phase --------------------------------------
    if !cfg.disable_fast_phase {
        while done < gamma && engine.no_provider_full() && source.abort_reason().is_none() {
            let Some((qi, c)) = heap.pop() else {
                break; // NN streams exhausted; every edge is in Esub
            };
            done += u64::from(engine.fast_match(qi, c.id, c.pos, c.weight, c.dist));
            heap.refill(qi, source, 0.0, 0.0);
        }
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
        if cfg.key_mode == IdaKeyMode::Safe {
            // Forget cross-iteration α terms; the potential-lag part is
            // always current (it only changes at commits) and therefore
            // kept — `refresh_full_keys` below re-derives it exactly.
            for qi in 0..providers.len() {
                if heap.alpha_raw[qi] != 0.0 {
                    if let Some(c) = heap.pending[qi] {
                        heap.alpha_raw[qi] = 0.0;
                        heap.set_key(qi, engine.provider_tau_lag(qi) + c.dist);
                    }
                }
            }
        }
        let mut have_sp = false;
        loop {
            // De-heap the next edge into Esub (Algorithm 4 lines 7–8).
            if let Some((qi, c)) = heap.pop() {
                if have_sp && !cfg.disable_pua {
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
                let (alpha, lag) = if engine.provider_full(qi) {
                    let a = if engine.provider_settled(qi) {
                        engine.provider_alpha(qi)
                    } else {
                        heap.alpha_raw[qi]
                    };
                    (a, engine.provider_tau_lag(qi))
                } else {
                    (0.0, 0.0)
                };
                heap.refill(qi, source, alpha, lag);
            }
            if !have_sp {
                engine.begin_iteration();
                have_sp = true;
            }
            // Lines 10–12: refresh keys of full providers whose α changed in
            // this Dijkstra execution.
            refresh_full_keys(&engine, &mut heap, providers.len());
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
fn conservative_phi(engine: &Engine, heap: &IdaHeap) -> f64 {
    let mut phi = f64::INFINITY;
    for (qi, pending) in heap.pending.iter().enumerate() {
        let Some(c) = pending else { continue };
        let key = if engine.provider_full(qi) {
            engine.provider_tau_lag(qi) + c.dist
        } else {
            c.dist
        };
        phi = phi.min(key);
    }
    phi
}

/// Applies Algorithm 4 lines 10–12, extended with the potential-lag
/// correction: every full provider's key is kept at
/// `α(q) + (τmax − τ(q)) + dist`, where α is the value observed by the most
/// recent search that settled `q` (stale values persist, as in the paper)
/// and the lag term is recomputed from the current potentials.
fn refresh_full_keys(engine: &Engine, heap: &mut IdaHeap, num_providers: usize) {
    for qi in 0..num_providers {
        if !engine.provider_full(qi) {
            continue;
        }
        if engine.provider_settled(qi) {
            heap.alpha_raw[qi] = engine.provider_alpha(qi);
        }
        let Some(c) = heap.pending[qi] else {
            continue;
        };
        let key = heap.alpha_raw[qi] + engine.provider_tau_lag(qi) + c.dist;
        if key != heap.key[qi] {
            heap.set_key(qi, key);
        }
    }
}
