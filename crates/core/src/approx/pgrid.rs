//! A flat uniform hash grid over a static point set.
//!
//! The approximate tier needs millions of cheap nearest-point queries
//! against small-to-medium point sets (providers, coreset representatives)
//! where building per-query R-tree cursors would dominate the runtime.
//! This grid answers `nearest` by scanning Chebyshev rings of
//! cells outward from the query until the ring's minimum possible distance
//! exceeds the best candidate found — exact, allocation-free per query, and
//! `O(1)` amortised on data whose density matches the grid resolution.
//!
//! Purely in-memory and CPU-bound: grid queries never touch the page store,
//! so they charge nothing to a [`cca_storage::QueryContext`]'s I/O budget —
//! exactly right for the coreset's sampling phase, whose attributed I/O
//! must reflect only real page faults.

use cca_geo::Point;

/// A uniform grid over a fixed point set, sized at roughly one point per
/// cell on uniform data.
#[derive(Debug)]
pub struct PointGrid {
    pts: Vec<Point>,
    /// Bucket start offsets (CSR layout): bucket `b` holds
    /// `order[starts[b]..starts[b + 1]]`.
    starts: Vec<u32>,
    order: Vec<u32>,
    ox: f64,
    oy: f64,
    cell: f64,
    cols: usize,
    rows: usize,
}

impl PointGrid {
    /// Builds a grid over `pts`. Degenerate inputs (empty set, coincident
    /// points) collapse to a single cell.
    pub fn new(pts: Vec<Point>) -> Self {
        let n = pts.len();
        let (mut lo_x, mut lo_y) = (f64::INFINITY, f64::INFINITY);
        let (mut hi_x, mut hi_y) = (f64::NEG_INFINITY, f64::NEG_INFINITY);
        for p in &pts {
            lo_x = lo_x.min(p.x);
            lo_y = lo_y.min(p.y);
            hi_x = hi_x.max(p.x);
            hi_y = hi_y.max(p.y);
        }
        if n == 0 {
            return PointGrid {
                pts,
                starts: vec![0, 0],
                order: Vec::new(),
                ox: 0.0,
                oy: 0.0,
                cell: 1.0,
                cols: 1,
                rows: 1,
            };
        }
        let span = (hi_x - lo_x).max(hi_y - lo_y);
        let side = (n as f64).sqrt().ceil().max(1.0);
        let cell = if span > 0.0 { span / side } else { 1.0 };
        let cols = (((hi_x - lo_x) / cell).floor() as usize + 1).max(1);
        let rows = (((hi_y - lo_y) / cell).floor() as usize + 1).max(1);
        let bucket = |p: &Point| -> usize {
            let gx = (((p.x - lo_x) / cell) as usize).min(cols - 1);
            let gy = (((p.y - lo_y) / cell) as usize).min(rows - 1);
            gy * cols + gx
        };
        // Counting sort into CSR buckets: one pass to size, one to place.
        let mut starts = vec![0u32; cols * rows + 1];
        for p in &pts {
            starts[bucket(p) + 1] += 1;
        }
        for b in 0..cols * rows {
            starts[b + 1] += starts[b];
        }
        let mut cursor = starts.clone();
        let mut order = vec![0u32; n];
        for (i, p) in pts.iter().enumerate() {
            let b = bucket(p);
            order[cursor[b] as usize] = i as u32;
            cursor[b] += 1;
        }
        PointGrid {
            pts,
            starts,
            order,
            ox: lo_x,
            oy: lo_y,
            cell,
            cols,
            rows,
        }
    }

    fn clamp_cell(&self, q: Point) -> (usize, usize) {
        let gx = ((q.x - self.ox) / self.cell).floor().max(0.0) as usize;
        let gy = ((q.y - self.oy) / self.cell).floor().max(0.0) as usize;
        (gx.min(self.cols - 1), gy.min(self.rows - 1))
    }

    /// Distance from `q` to its clamped grid cell — the slack the ring
    /// lower bound must absorb for queries outside the indexed bounding
    /// box (triangle inequality).
    fn outside_slack(&self, q: Point, gx: usize, gy: usize) -> f64 {
        let cx = self.ox + (gx as f64 + 0.5) * self.cell;
        let cy = self.oy + (gy as f64 + 0.5) * self.cell;
        let inside = q.x >= self.ox
            && q.y >= self.oy
            && q.x <= self.ox + self.cols as f64 * self.cell
            && q.y <= self.oy + self.rows as f64 * self.cell;
        if inside {
            0.0
        } else {
            q.dist(&Point::new(cx, cy))
        }
    }

    fn for_ring(&self, gx: usize, gy: usize, r: usize, mut f: impl FnMut(u32)) {
        // Border membership is decided on the *unclamped* ring so each cell
        // belongs to exactly one ring (its Chebyshev distance); clamping the
        // border first would re-visit edge cells on every larger ring.
        let (gx, gy, r) = (gx as isize, gy as isize, r as isize);
        let (x0, x1) = (gx - r, gx + r);
        let (y0, y1) = (gy - r, gy + r);
        for y in y0.max(0)..=y1.min(self.rows as isize - 1) {
            for x in x0.max(0)..=x1.min(self.cols as isize - 1) {
                // Only the ring's border cells; the interior was visited by
                // smaller rings.
                if r > 0 && x != x0 && x != x1 && y != y0 && y != y1 {
                    continue;
                }
                let b = y as usize * self.cols + x as usize;
                for &i in &self.order[self.starts[b] as usize..self.starts[b + 1] as usize] {
                    f(i);
                }
            }
        }
    }

    /// Nearest indexed point to `q` among those satisfying `keep`, as
    /// `(index, distance)`. `None` when no point qualifies.
    pub fn nearest_filtered(
        &self,
        q: Point,
        mut keep: impl FnMut(usize) -> bool,
    ) -> Option<(usize, f64)> {
        if self.pts.is_empty() {
            return None;
        }
        let (gx, gy) = self.clamp_cell(q);
        let slack = self.outside_slack(q, gx, gy);
        let max_ring = self.cols.max(self.rows);
        let mut best: Option<(usize, f64)> = None;
        for r in 0..=max_ring {
            if let Some((_, bd)) = best {
                // Any point in ring r is at least (r-1)·cell − slack away.
                if (r as f64 - 1.0) * self.cell - slack > bd {
                    break;
                }
            }
            self.for_ring(gx, gy, r, |i| {
                if keep(i as usize) {
                    let d = q.dist(&self.pts[i as usize]);
                    if best.is_none_or(|(_, bd)| d < bd) {
                        best = Some((i as usize, d));
                    }
                }
            });
        }
        best
    }

    /// Nearest indexed point to `q` (no filter).
    pub fn nearest(&self, q: Point) -> Option<(usize, f64)> {
        self.nearest_filtered(q, |_| true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn brute_nearest(pts: &[Point], q: Point) -> Option<(usize, f64)> {
        pts.iter()
            .enumerate()
            .map(|(i, p)| (i, q.dist(p)))
            .min_by(|a, b| a.1.total_cmp(&b.1))
    }

    #[test]
    fn empty_and_singleton() {
        let g = PointGrid::new(Vec::new());
        assert!(g.nearest(Point::origin()).is_none());
        let g = PointGrid::new(vec![Point::new(2.0, 3.0)]);
        let (i, d) = g.nearest(Point::origin()).unwrap();
        assert_eq!(i, 0);
        assert!((d - 13.0f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn coincident_points_collapse_to_one_cell() {
        let pts = vec![Point::new(5.0, 5.0); 17];
        let g = PointGrid::new(pts);
        let (_, d) = g.nearest(Point::new(4.0, 5.0)).unwrap();
        assert!((d - 1.0).abs() < 1e-12);
    }

    #[test]
    fn nearest_matches_brute_force_including_outside_queries() {
        let mut rng = StdRng::seed_from_u64(11);
        let pts: Vec<Point> = (0..500)
            .map(|_| Point::new(rng.random_range(0.0..100.0), rng.random_range(0.0..100.0)))
            .collect();
        let g = PointGrid::new(pts.clone());
        for _ in 0..300 {
            // Queries inside, near and far outside the indexed bbox.
            let q = Point::new(
                rng.random_range(-150.0..250.0),
                rng.random_range(-150.0..250.0),
            );
            let want = brute_nearest(&pts, q).unwrap();
            let got = g.nearest(q).unwrap();
            assert!(
                (got.1 - want.1).abs() < 1e-9,
                "q={q:?}: got {got:?} want {want:?}"
            );
        }
    }

    #[test]
    fn nearest_filtered_skips_excluded_indices() {
        let pts = vec![
            Point::new(0.0, 0.0),
            Point::new(1.0, 0.0),
            Point::new(2.0, 0.0),
        ];
        let g = PointGrid::new(pts);
        let (i, _) = g.nearest_filtered(Point::origin(), |i| i != 0).unwrap();
        assert_eq!(i, 1);
        assert!(g.nearest_filtered(Point::origin(), |_| false).is_none());
    }
}
