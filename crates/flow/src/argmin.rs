//! The one argmin of the flow kernel and the exact tier: a block-minimum
//! index over per-provider keys.
//!
//! Three loops pick a lowest key among the |Q| providers: the kernel's
//! search ([`crate::residual`]) settles the unsettled provider with the
//! lowest label, and NIA's and IDA's heap `H` (Algorithms 3–4) hands out the
//! pending edge with the lowest key and reports `TopKey(H)`. [`ArgminIndex`]
//! serves all three. Its
//! slots are cut into blocks of ⌈√n⌉, and each block caches its lowest
//! `(key, slot)`:
//!
//! * lowering a key is O(1);
//! * raising a block's current minimum, or setting it to ∞, rescans that one
//!   block, O(√n);
//! * [`ArgminIndex::min_below`] reads the block minima only, O(√n).
//!
//! Keys order by [`f64::total_cmp`], and equal keys by the lower slot. So
//! the index picks exactly what a `(OrdF64, slot)` min-heap of the same keys
//! would pop. A key of +∞ marks an empty slot, which `min_below` never
//! returns.

/// The key `x` as an integer in [`f64::total_cmp`] order. The map is its
/// own inverse.
#[inline]
fn ord(x: f64) -> i64 {
    let bits = x.to_bits() as i64;
    bits ^ (((bits >> 63) as u64) >> 1) as i64
}

#[inline]
fn unord(k: i64) -> f64 {
    f64::from_bits(ord(f64::from_bits(k as u64)) as u64)
}

/// Per-slot keys with a cached `(lowest key, lowest slot)` per block.
pub struct ArgminIndex {
    /// Each slot's key, in [`ord`] form.
    keys: Vec<i64>,
    block: usize,
    /// Each block's lowest key and the lowest slot holding it.
    mins: Vec<(i64, u32)>,
}

impl ArgminIndex {
    /// `n` empty slots.
    pub fn new(n: usize) -> Self {
        let root = n.isqrt();
        let block = if root * root < n {
            root + 1
        } else {
            root.max(1)
        };
        let empty = ord(f64::INFINITY);
        ArgminIndex {
            keys: vec![empty; n],
            block,
            mins: (0..n.div_ceil(block))
                .map(|b| (empty, (b * block) as u32))
                .collect(),
        }
    }

    /// Slot `i`'s key (∞ when empty).
    #[inline]
    pub fn key(&self, i: usize) -> f64 {
        unord(self.keys[i])
    }

    /// Sets slot `i`'s key; ∞ empties the slot.
    #[inline]
    pub fn set(&mut self, i: usize, key: f64) {
        let (old, new) = (self.keys[i], ord(key));
        self.keys[i] = new;
        let b = i / self.block;
        let (min, at) = self.mins[b];
        if new < min || (new == min && (i as u32) < at) {
            self.mins[b] = (new, i as u32);
        } else if at as usize == i && new > old {
            self.rescan(b);
        }
    }

    /// Sets every slot's key at once, in slot order.
    pub fn assign(&mut self, keys: impl IntoIterator<Item = f64>) {
        let mut n = 0;
        for (slot, key) in self.keys.iter_mut().zip(keys) {
            *slot = ord(key);
            n += 1;
        }
        debug_assert_eq!(n, self.keys.len(), "one key per slot");
        for b in 0..self.mins.len() {
            self.rescan(b);
        }
    }

    /// The lowest slot holding the lowest key strictly below `limit` (in
    /// [`f64::total_cmp`] order), with that key.
    #[inline]
    pub fn min_below(&self, limit: f64) -> Option<(usize, f64)> {
        let mut best = (ord(limit), None);
        for &(key, at) in &self.mins {
            if key < best.0 {
                best = (key, Some(at));
            }
        }
        let (key, at) = best;
        at.map(|i| (i as usize, unord(key)))
    }

    /// Recomputes block `b`'s minimum from its slots.
    fn rescan(&mut self, b: usize) {
        let start = b * self.block;
        let end = (start + self.block).min(self.keys.len());
        let mut min = (self.keys[start], start);
        for (i, &key) in self.keys[start..end].iter().enumerate().skip(1) {
            if key < min.0 {
                min = (key, start + i);
            }
        }
        self.mins[b] = (min.0, min.1 as u32);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The index's contract, naively: the lowest `(key, slot)` under
    /// `total_cmp` among keys strictly below `limit`.
    fn model_min_below(keys: &[f64], limit: f64) -> Option<(usize, f64)> {
        let below = keys
            .iter()
            .enumerate()
            .filter(|(_, k)| k.total_cmp(&limit).is_lt());
        let lowest = below.min_by(|a, b| a.1.total_cmp(b.1).then(a.0.cmp(&b.0)));
        lowest.map(|(i, &k)| (i, k))
    }

    #[derive(Clone, Debug)]
    enum Op {
        Set(usize, f64),
        /// Raises the key of the current overall minimum by the amount.
        RaiseMin(f64),
        MinBelow(f64),
        /// `min_below` at a limit equal to a present slot's key.
        MinBelowKeyOf(usize),
        Assign(Vec<f64>),
    }

    /// Few distinct values, so equal keys meet within and across blocks;
    /// both zeros, which `total_cmp` tells apart; and ∞, the empty slot.
    fn key() -> impl Strategy<Value = f64> {
        prop_oneof![
            (0u8..6).prop_map(f64::from),
            (0u8..6).prop_map(f64::from),
            Just(-0.0),
            Just(-1.5),
            Just(f64::INFINITY),
            Just(f64::INFINITY),
            0.0..10.0f64,
        ]
    }

    fn op() -> impl Strategy<Value = Op> {
        let set = || (any::<usize>(), key()).prop_map(|(i, k)| Op::Set(i, k));
        let raise = prop_oneof![Just(0.5), Just(1.0), Just(f64::INFINITY)];
        prop_oneof![
            set(),
            set(),
            set(),
            raise.prop_map(Op::RaiseMin),
            key().prop_map(Op::MinBelow),
            any::<usize>().prop_map(Op::MinBelowKeyOf),
            proptest::collection::vec(key(), 200..=200).prop_map(Op::Assign),
        ]
    }

    fn same(a: Option<(usize, f64)>, b: Option<(usize, f64)>) -> bool {
        a.map(|(i, k)| (i, k.to_bits())) == b.map(|(i, k)| (i, k.to_bits()))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(400))]

        #[test]
        fn index_matches_naive_argmin(
            n in prop_oneof![Just(1usize), Just(2), Just(3), Just(7), Just(50), Just(200)],
            ops in proptest::collection::vec(op(), 1..120),
        ) {
            let mut index = ArgminIndex::new(n);
            let mut model = vec![f64::INFINITY; n];
            for op in ops {
                match op {
                    Op::Set(i, k) => {
                        index.set(i % n, k);
                        model[i % n] = k;
                    }
                    Op::RaiseMin(by) => {
                        if let Some((i, k)) = model_min_below(&model, f64::INFINITY) {
                            index.set(i, k + by);
                            model[i] = k + by;
                        }
                    }
                    Op::MinBelow(limit) => {
                        let (got, want) = (index.min_below(limit), model_min_below(&model, limit));
                        prop_assert!(same(got, want), "below {limit}: {got:?} vs {want:?}");
                    }
                    Op::MinBelowKeyOf(i) => {
                        let limit = model[i % n];
                        let (got, want) = (index.min_below(limit), model_min_below(&model, limit));
                        prop_assert!(same(got, want), "below {limit}: {got:?} vs {want:?}");
                    }
                    Op::Assign(keys) => {
                        index.assign(keys[..n].iter().copied());
                        model.copy_from_slice(&keys[..n]);
                    }
                }
                for (i, &k) in model.iter().enumerate() {
                    prop_assert_eq!(index.key(i).to_bits(), k.to_bits());
                }
                let (got, want) = (index.min_below(f64::INFINITY), model_min_below(&model, f64::INFINITY));
                prop_assert!(same(got, want), "overall: {got:?} vs {want:?}");
            }
        }
    }

    #[test]
    fn blocks_are_the_ceiling_of_the_square_root() {
        for (n, block, blocks) in [
            (0, 1, 0),
            (1, 1, 1),
            (2, 2, 1),
            (3, 2, 2),
            (7, 3, 3),
            (50, 8, 7),
        ] {
            let index = ArgminIndex::new(n);
            assert_eq!((index.block, index.mins.len()), (block, blocks), "n = {n}");
        }
    }

    #[test]
    fn ties_go_to_the_lower_slot_across_blocks() {
        let mut index = ArgminIndex::new(9);
        for i in [8, 4, 5, 1] {
            index.set(i, 2.0);
        }
        assert_eq!(index.min_below(f64::INFINITY), Some((1, 2.0)));
        assert_eq!(index.min_below(2.0), None, "the limit is strict");
        index.set(1, f64::INFINITY);
        assert_eq!(index.min_below(f64::INFINITY), Some((4, 2.0)));
        index.set(0, -0.0);
        index.set(3, 0.0);
        assert_eq!(index.min_below(0.0), Some((0, -0.0)), "-0 orders below +0");
    }
}
