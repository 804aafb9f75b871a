//! NIA — Nearest Neighbor Incremental Algorithm (Algorithm 3, §3.2).
//!
//! Edges are discovered one at a time by per-provider incremental NN search,
//! merged through a global min-heap keyed by edge *length*. The heap's top
//! is exactly `φ(E − Esub)`, so the Theorem-1 test is
//! `vmin.α ≤ TopKey(H) − τmax`.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::Instant;

use cca_geo::{OrdF64, Point};

use crate::exact::engine::Engine;
use crate::exact::source::{CustomerSource, SourcedCustomer};
use crate::matching::Matching;
use crate::stats::AlgoStats;

/// The per-provider candidate-edge heap shared conceptually with IDA; NIA
/// keys entries by plain edge length.
struct EdgeHeap {
    heap: BinaryHeap<Reverse<(OrdF64, u32)>>,
    pending: Vec<Option<SourcedCustomer>>,
}

impl EdgeHeap {
    fn new<S: CustomerSource>(num_providers: usize, source: &mut S) -> Self {
        let mut heap = BinaryHeap::new();
        let mut pending = Vec::with_capacity(num_providers);
        for qi in 0..num_providers {
            let c = source.next_nn(qi);
            if let Some(c) = c {
                heap.push(Reverse((OrdF64::new(c.dist), qi as u32)));
            }
            pending.push(c);
        }
        EdgeHeap { heap, pending }
    }

    /// `TopKey(H)`: the minimum length among undiscovered edges, or ∞ when
    /// every provider's stream is exhausted (then `E − Esub = ∅`).
    fn top_key(&self) -> f64 {
        self.heap
            .peek()
            .map_or(f64::INFINITY, |Reverse((k, _))| k.get())
    }

    /// Pops the shortest pending edge and refills that provider's slot from
    /// its NN stream.
    fn pop<S: CustomerSource>(&mut self, source: &mut S) -> Option<(usize, SourcedCustomer)> {
        let Reverse((_, qi)) = self.heap.pop()?;
        let qi = qi as usize;
        let cust = self.pending[qi].take().expect("heap entry implies pending");
        let next = source.next_nn(qi);
        if let Some(c) = next {
            self.heap.push(Reverse((OrdF64::new(c.dist), qi as u32)));
        }
        self.pending[qi] = next;
        Some((qi, cust))
    }
}

/// Runs NIA to the optimal matching.
pub fn nia<S: CustomerSource>(providers: &[(Point, u32)], source: &mut S) -> (Matching, AlgoStats) {
    let start = Instant::now();
    let mut engine = Engine::new(providers, source.num_customers());
    engine.set_context(source.context());
    engine.skip_fast_phase();
    let gamma = engine.total_capacity().min(source.total_weight());
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
            if let Some((qi, c)) = heap.pop(source) {
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
