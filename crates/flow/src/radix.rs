//! Monotone radix (bucket) priority queue for Dijkstra frontiers.
//!
//! Dijkstra settles nodes in non-decreasing key order, so its frontier queue
//! is *monotone*: no push carries a key below the last popped minimum. A
//! radix heap exploits that — keys go into one of 65 buckets indexed by the
//! position of the most significant bit in which the key differs from the
//! last popped minimum, pops redistribute one bucket, and every key moves
//! O(64) times total. Per-operation cost is a handful of instructions and a
//! couple of cache lines, against the pointer-chasing `log n` sift of a
//! binary heap.
//!
//! Keys are the **u64 bit patterns** of non-negative `f64` distances:
//! IEEE-754 ordering on non-negative floats equals unsigned integer ordering
//! of their bit patterns, so `f64::to_bits` is an order-preserving (and
//! order-reflecting) embedding — no precision is lost and no comparison
//! changes.
//!
//! The monotonicity assumption can break in this codebase: PUA's
//! re-relaxation wave (Algorithm 5) may improve a settled node and then push
//! frontier keys *below* the last popped minimum, and `EPS`-tolerant settles
//! can admit candidates a hair under it. [`RadixQueue::push`] therefore
//! reports such keys instead of misfiling them, and the frontier wrapper in
//! `dijkstra` migrates the run to a plain binary heap — same semantics,
//! no lost entries. Equivalence between the two is pinned by the crate's
//! `frontier_equivalence` proptests.

use crate::graph::NodeId;

/// Number of buckets: bucket 0 holds keys equal to the last popped minimum,
/// bucket `b ≥ 1` keys whose highest differing bit from it is `b − 1`.
const BUCKETS: usize = 65;

/// A monotone bucket queue over `(u64 key, NodeId)` entries.
///
/// Duplicate entries per node are fine (lazy decrease-key, exactly like the
/// `BinaryHeap` it replaces); stale entries are filtered by the caller.
pub struct RadixQueue {
    buckets: [Vec<(u64, NodeId)>; BUCKETS],
    /// The last popped minimum (0 before any pop): the reference point
    /// bucket indices are computed against. Never decreases.
    last: u64,
    len: usize,
    /// Reusable scratch for redistribution, so steady-state operation
    /// allocates nothing.
    scratch: Vec<(u64, NodeId)>,
}

impl RadixQueue {
    pub fn new() -> Self {
        RadixQueue {
            buckets: std::array::from_fn(|_| Vec::new()),
            last: 0,
            len: 0,
            scratch: Vec::new(),
        }
    }

    /// Bucket for `key` relative to the current reference `last`.
    #[inline]
    fn bucket_of(&self, key: u64) -> usize {
        debug_assert!(key >= self.last);
        // 0 if equal, else 64 − clz(xor) = 1 + index of highest differing bit.
        (64 - (key ^ self.last).leading_zeros()) as usize
    }

    #[cfg(test)]
    pub fn len(&self) -> usize {
        self.len
    }

    #[cfg(test)]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Pushes an entry. Errors with the entry if `key` lies below the last
    /// popped minimum — the monotonicity contract is broken and the caller
    /// must fall back to a comparison heap.
    #[inline]
    pub fn push(&mut self, key: u64, node: NodeId) -> Result<(), (u64, NodeId)> {
        if key < self.last {
            return Err((key, node));
        }
        let b = self.bucket_of(key);
        self.buckets[b].push((key, node));
        self.len += 1;
        Ok(())
    }

    /// Ensures bucket 0 holds the queue minimum (redistributing the first
    /// non-empty bucket if needed). Requires a non-empty queue.
    fn pull_to_front(&mut self) {
        if !self.buckets[0].is_empty() {
            return;
        }
        let b = self
            .buckets
            .iter()
            .position(|v| !v.is_empty())
            .expect("pull_to_front on empty queue");
        // The new reference is this bucket's minimum; relative to it every
        // entry lands in a strictly smaller bucket (the minimum in bucket 0),
        // which is what bounds total moves per key at O(64).
        let min = self.buckets[b]
            .iter()
            .map(|&(k, _)| k)
            .min()
            .expect("non-empty bucket");
        self.last = min;
        std::mem::swap(&mut self.scratch, &mut self.buckets[b]);
        for &(k, n) in &self.scratch {
            let nb = self.bucket_of(k);
            debug_assert!(nb < b);
            self.buckets[nb].push((k, n));
        }
        self.scratch.clear();
    }

    /// Pops a minimum entry. Ties pop in unspecified order.
    pub fn pop(&mut self) -> Option<(u64, NodeId)> {
        if self.len == 0 {
            return None;
        }
        self.pull_to_front();
        let entry = self.buckets[0].pop().expect("bucket 0 filled");
        self.len -= 1;
        Some(entry)
    }

    /// The current minimum key without removing it (redistributes like a
    /// pop, hence `&mut`).
    pub fn peek_min(&mut self) -> Option<(u64, NodeId)> {
        if self.len == 0 {
            return None;
        }
        self.pull_to_front();
        self.buckets[0].last().copied()
    }

    /// Empties the queue and resets the reference point, keeping every
    /// bucket's allocation for reuse.
    pub fn clear(&mut self) {
        for b in &mut self.buckets {
            b.clear();
        }
        self.last = 0;
        self.len = 0;
    }

    /// Drains all entries (in no particular order) into `sink` — used by the
    /// fallback migration to a binary heap.
    pub fn drain_into(&mut self, mut sink: impl FnMut(u64, NodeId)) {
        for b in &mut self.buckets {
            for (k, n) in b.drain(..) {
                sink(k, n);
            }
        }
        self.len = 0;
    }
}

impl Default for RadixQueue {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_nondecreasing_key_order() {
        let mut q = RadixQueue::new();
        let keys = [5.0f64, 1.0, 3.5, 0.0, 2.25, 1.0, 7.75, 0.5];
        for (i, k) in keys.iter().enumerate() {
            q.push(k.to_bits(), i as NodeId).unwrap();
        }
        assert_eq!(q.len(), keys.len());
        let mut popped = Vec::new();
        while let Some((k, _)) = q.pop() {
            popped.push(f64::from_bits(k));
        }
        assert_eq!(popped.len(), keys.len());
        assert!(popped.windows(2).all(|w| w[0] <= w[1]), "{popped:?}");
        let mut sorted = keys.to_vec();
        sorted.sort_by(f64::total_cmp);
        assert_eq!(popped, sorted);
    }

    #[test]
    fn interleaved_monotone_pushes_stay_ordered() {
        let mut q = RadixQueue::new();
        q.push(1.0f64.to_bits(), 0).unwrap();
        q.push(4.0f64.to_bits(), 1).unwrap();
        assert_eq!(q.pop().unwrap().0, 1.0f64.to_bits());
        // Monotone: new keys ≥ last popped (1.0).
        q.push(2.0f64.to_bits(), 2).unwrap();
        q.push(1.0f64.to_bits(), 3).unwrap(); // equal is allowed
        assert_eq!(q.pop().unwrap().0, 1.0f64.to_bits());
        assert_eq!(q.pop().unwrap().0, 2.0f64.to_bits());
        assert_eq!(q.pop().unwrap().0, 4.0f64.to_bits());
        assert!(q.pop().is_none());
    }

    #[test]
    fn below_reference_push_is_rejected() {
        let mut q = RadixQueue::new();
        q.push(3.0f64.to_bits(), 0).unwrap();
        q.push(5.0f64.to_bits(), 1).unwrap();
        q.pop().unwrap(); // last = 3.0
        let err = q.push(2.0f64.to_bits(), 7).unwrap_err();
        assert_eq!(err, (2.0f64.to_bits(), 7));
        assert_eq!(q.len(), 1, "rejected push must not be counted");
    }

    #[test]
    fn peek_matches_next_pop() {
        let mut q = RadixQueue::new();
        for k in [9.0f64, 2.0, 6.0] {
            q.push(k.to_bits(), 0).unwrap();
        }
        let peeked = q.peek_min().unwrap();
        assert_eq!(q.pop().unwrap(), peeked);
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn clear_resets_reference() {
        let mut q = RadixQueue::new();
        q.push(8.0f64.to_bits(), 0).unwrap();
        q.pop().unwrap(); // last = 8.0
        q.clear();
        assert!(q.is_empty());
        // After clear, small keys are accepted again.
        q.push(0.5f64.to_bits(), 1).unwrap();
        assert_eq!(q.pop().unwrap().0, 0.5f64.to_bits());
    }

    #[test]
    fn drain_moves_every_entry() {
        let mut q = RadixQueue::new();
        for i in 0..10u32 {
            q.push(f64::from(i).to_bits(), i).unwrap();
        }
        q.pop().unwrap();
        let mut drained = Vec::new();
        q.drain_into(|k, n| drained.push((k, n)));
        assert_eq!(drained.len(), 9);
        assert!(q.is_empty());
    }

    proptest::proptest! {
        /// Against a sorted-vec model: any monotone push/pop interleaving
        /// pops the exact multiset of keys in non-decreasing order.
        #[test]
        fn prop_matches_sorted_model(
            ops in proptest::collection::vec((proptest::any::<bool>(), 0u64..1u64 << 53), 1..200),
        ) {
            let mut q = RadixQueue::new();
            let mut model: Vec<u64> = Vec::new();
            let mut last = 0u64;
            for (is_pop, raw) in ops {
                if is_pop {
                    match q.pop() {
                        Some((k, _)) => {
                            model.sort_unstable();
                            let want = model.remove(0);
                            proptest::prop_assert_eq!(k, want);
                            last = k;
                        }
                        None => proptest::prop_assert!(model.is_empty()),
                    }
                } else {
                    // Keep the stream monotone relative to the last pop.
                    let key = last.saturating_add(raw % 1024);
                    q.push(key, 0).unwrap();
                    model.push(key);
                }
            }
        }
    }
}
