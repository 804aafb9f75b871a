//! Batched, autovectorizable distance kernel.
//!
//! Best-first NN search spends its CPU time computing `dist(q, p)` for every
//! entry of every visited node. Called one entry at a time through the
//! streaming node decoders, [`crate::Point::dist2`] is a scalar chain the
//! compiler cannot vectorize across entries. The kernel takes the same
//! inputs in struct-of-arrays form (one slice per coordinate) and evaluates
//! fixed-width chunks, which LLVM turns into SIMD on any target with vector
//! `mul`/`add` — no intrinsics, no feature gates.
//!
//! The kernel computes *bit-identical* results to its scalar counterpart on
//! the finite coordinates R-trees store (pinned by proptest), so switching a
//! traversal to the batched path can never change which neighbour is found.
//!
//! Only leaf points are batched: a batched [`crate::Rect::mindist2`] reads
//! five streams per element against two here and measured at or below the
//! scalar loop (`rect_batched` rows of `BENCH_HISTORY.md`).

/// Chunk width. Eight `f64`s span two AVX2 registers or one AVX-512
/// register; on narrower targets the fixed trip count still unrolls cleanly.
pub const LANES: usize = 8;

/// Squared Euclidean distance from `(qx, qy)` to each `(xs[i], ys[i])`,
/// written to `out[i]`. Bit-identical to [`crate::Point::dist2`].
///
/// # Panics
/// If the slice lengths differ.
pub fn point_dist2_batch(qx: f64, qy: f64, xs: &[f64], ys: &[f64], out: &mut [f64]) {
    let n = xs.len();
    assert!(ys.len() == n && out.len() == n, "SoA slice length mismatch");
    let chunks = n / LANES;
    for c in 0..chunks {
        let base = c * LANES;
        // Fixed-size views give the autovectorizer a constant trip count.
        let xs: &[f64; LANES] = xs[base..base + LANES].try_into().expect("chunk");
        let ys: &[f64; LANES] = ys[base..base + LANES].try_into().expect("chunk");
        let out: &mut [f64; LANES] = (&mut out[base..base + LANES]).try_into().expect("chunk");
        for i in 0..LANES {
            let dx = qx - xs[i];
            let dy = qy - ys[i];
            out[i] = dx * dx + dy * dy;
        }
    }
    for i in chunks * LANES..n {
        let dx = qx - xs[i];
        let dy = qy - ys[i];
        out[i] = dx * dx + dy * dy;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Point;
    use proptest::prelude::*;

    fn coord() -> impl Strategy<Value = f64> {
        -1000.0..1000.0f64
    }

    #[test]
    fn empty_batches_are_fine() {
        point_dist2_batch(1.0, 2.0, &[], &[], &mut []);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_lengths_rejected() {
        point_dist2_batch(0.0, 0.0, &[1.0, 2.0], &[1.0], &mut [0.0, 0.0]);
    }

    proptest! {
        /// Batched point distances are bit-identical to Point::dist2 at
        /// every length (covering both the chunked body and the tail).
        #[test]
        fn prop_point_batch_bit_equals_scalar(
            q in (coord(), coord()),
            pts in proptest::collection::vec((coord(), coord()), 0..40),
        ) {
            let query = Point::new(q.0, q.1);
            let xs: Vec<f64> = pts.iter().map(|p| p.0).collect();
            let ys: Vec<f64> = pts.iter().map(|p| p.1).collect();
            let mut out = vec![0.0; pts.len()];
            point_dist2_batch(q.0, q.1, &xs, &ys, &mut out);
            for (i, &(x, y)) in pts.iter().enumerate() {
                let want = query.dist2(&Point::new(x, y));
                prop_assert_eq!(out[i].to_bits(), want.to_bits(),
                                "element {} diverged: {} vs {}", i, out[i], want);
            }
        }
    }
}
