//! NIA — Nearest Neighbor Incremental Algorithm (Algorithm 3, §3.2).
//!
//! Edges are discovered one at a time by per-provider incremental NN search,
//! merged through a global heap `H` keyed by edge *length*. Its lowest key
//! is exactly `φ(E − Esub)`, so the Theorem-1 test is
//! `vmin.α ≤ TopKey(H) − τmax`.

use std::time::Instant;

use cca_geo::Point;

use crate::exact::engine::Engine;
use crate::exact::source::{RtreeSource, SourcedCustomer};
use crate::matching::Matching;
use crate::stats::AlgoStats;
use cca_flow::argmin::ArgminIndex;

/// The heap `H` of Algorithms 3–4: each provider's next undiscovered edge
/// from its NN stream, keyed by its length plus a per-provider offset (0 in
/// NIA; `α(q) + (τmax − τ(q))` for a full provider in IDA). The keys sit in
/// one [`ArgminIndex`] slot per provider and are updated in place, so the
/// lowest `(key, provider)` is an O(√|Q|) read and no entry is ever stale.
/// A provider without a pending edge has key ∞.
pub(super) struct EdgeHeap {
    pub(super) pending: Vec<Option<SourcedCustomer>>,
    keys: ArgminIndex,
}

impl EdgeHeap {
    /// Every provider's nearest customer, keyed by its distance.
    pub(super) fn new(num_providers: usize, source: &mut RtreeSource<'_>) -> Self {
        let mut heap = EdgeHeap {
            pending: vec![None; num_providers],
            keys: ArgminIndex::new(num_providers),
        };
        for qi in 0..num_providers {
            heap.refill(qi, source, 0.0);
        }
        heap
    }

    /// `TopKey(H)`: the lowest key among undiscovered edges, or ∞ when every
    /// provider's stream is exhausted (then `E − Esub = ∅`).
    pub(super) fn top_key(&self) -> f64 {
        self.keys
            .min_below(f64::INFINITY)
            .map_or(f64::INFINITY, |(_, key)| key)
    }

    /// Provider `qi`'s current key (∞ without a pending edge).
    pub(super) fn key(&self, qi: usize) -> f64 {
        self.keys.key(qi)
    }

    /// Re-keys provider `qi`'s pending edge.
    pub(super) fn set_key(&mut self, qi: usize, key: f64) {
        debug_assert!(self.pending[qi].is_some() && key < f64::INFINITY);
        self.keys.set(qi, key);
    }

    /// Takes the lowest-keyed pending edge, ties to the lower provider;
    /// the caller refills that provider with [`EdgeHeap::refill`].
    pub(super) fn pop(&mut self) -> Option<(usize, SourcedCustomer)> {
        let (qi, _) = self.keys.min_below(f64::INFINITY)?;
        self.keys.set(qi, f64::INFINITY);
        let cust = self.pending[qi]
            .take()
            .expect("a keyed provider is pending");
        Some((qi, cust))
    }

    /// Fetches provider `qi`'s next edge from its NN stream, keyed
    /// `offset + dist`.
    pub(super) fn refill(&mut self, qi: usize, source: &mut RtreeSource<'_>, offset: f64) {
        debug_assert!(self.pending[qi].is_none());
        self.pending[qi] = source.next_nn(qi);
        if let Some(c) = self.pending[qi] {
            self.set_key(qi, offset + c.dist);
        }
    }
}

/// Runs NIA to the optimal matching.
pub fn nia(providers: &[(Point, u32)], source: &mut RtreeSource<'_>) -> (Matching, AlgoStats) {
    let start = Instant::now();
    let mut engine = Engine::new(providers, source.num_customers());
    engine.set_context(source.context());
    engine.skip_fast_phase();
    let gamma = engine.flow().total_capacity().min(source.total_weight());
    let mut heap = EdgeHeap::new(providers.len(), source);

    let mut done = 0u64;
    'outer: while done < gamma {
        // One SSPA iteration (Algorithm 3 lines 6–17): keep de-heaping and
        // inserting edges until the Theorem-1 test validates the sp.
        let mut have_sp = false;
        loop {
            if source.abort_reason().is_some() {
                // Aborted (cancelled / deadline / I/O budget): the streams
                // are dry by construction, so stop with the partial result.
                break 'outer;
            }
            if let Some((qi, c)) = heap.pop() {
                heap.refill(qi, source, 0.0);
                if have_sp {
                    engine.insert_edge_reoptimize(qi, c.id, c.pos, c.weight, c.dist);
                } else {
                    engine.insert_edge(qi, c.id, c.pos, c.weight, c.dist);
                    have_sp = false; // fresh Dijkstra required
                }
            } else {
                assert!(
                    have_sp || engine.stats.esub_edges > 0,
                    "NN streams exhausted before any edge was produced"
                );
            }
            if !have_sp {
                engine.begin_iteration();
                have_sp = true;
            }
            if engine.sp_valid(heap.top_key()) {
                engine.commit();
                done += 1;
                break;
            }
            engine.note_invalid();
            if source.abort_reason().is_some() {
                // The streams dried up because the query aborted mid-pop
                // (e.g. the refill's fault tripped the budget), not because
                // the edge set is complete: stop with what we have.
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
