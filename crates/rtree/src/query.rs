//! Range and annular-range search.
//!
//! RIA (§3.1) drives the tree with `T`-range searches around each provider
//! and, on extension, *annular* range searches retrieving customers within
//! `(T − θ, T]` — both implemented here with MBR-based pruning.

use cca_geo::Point;
use cca_storage::{Aborted, PageId, QueryContext};

use crate::entry::ItemId;
use crate::node;
use crate::tree::RTree;

impl RTree {
    /// Returns all points within Euclidean distance `r` of `center`
    /// (inclusive), together with their distances.
    ///
    /// The search's I/O is charged to `ctx`; the descent polls it before
    /// every page visit and returns the typed [`Aborted`] error instead of
    /// traversing on when the query is cancelled, past its deadline or out
    /// of I/O budget. Without a context it cannot abort.
    pub fn range_search(
        &self,
        center: Point,
        r: f64,
        ctx: Option<&QueryContext>,
    ) -> Result<Vec<(Point, ItemId, f64)>, Aborted> {
        let mut out = Vec::new();
        self.range_into(center, 0.0, r, true, ctx, &mut out)?;
        Ok(out)
    }

    /// Annular range search: points `p` with `lo < dist(center, p) <= hi`,
    /// with the same context contract as [`RTree::range_search`].
    ///
    /// The half-open interval matches RIA's extension step, which must not
    /// re-fetch points already retrieved by the previous `T`-range search
    /// (§3.1: "points of P within the distance range (T − θ, T] ... are
    /// identified").
    pub fn annular_range_search(
        &self,
        center: Point,
        lo: f64,
        hi: f64,
        ctx: Option<&QueryContext>,
    ) -> Result<Vec<(Point, ItemId, f64)>, Aborted> {
        let mut out = Vec::new();
        self.range_into(center, lo, hi, false, ctx, &mut out)?;
        Ok(out)
    }

    /// Shared recursion: collects points with `dist ∈ (lo, hi]`, or
    /// `[0, hi]` when `include_lo`.
    fn range_into(
        &self,
        center: Point,
        lo: f64,
        hi: f64,
        include_lo: bool,
        ctx: Option<&QueryContext>,
        out: &mut Vec<(Point, ItemId, f64)>,
    ) -> Result<(), Aborted> {
        if hi < 0.0 {
            return Ok(());
        }
        self.range_rec(
            self.root(),
            self.height(),
            center,
            lo,
            hi,
            include_lo,
            ctx,
            out,
        )
    }

    #[allow(clippy::too_many_arguments)]
    fn range_rec(
        &self,
        page: PageId,
        level_height: u32,
        center: Point,
        lo: f64,
        hi: f64,
        include_lo: bool,
        ctx: Option<&QueryContext>,
        out: &mut Vec<(Point, ItemId, f64)>,
    ) -> Result<(), Aborted> {
        if let Some(ctx) = ctx {
            ctx.check()?;
        }
        if level_height == 1 {
            self.store().with_page_ctx(page, ctx, |bytes| {
                node::for_each_leaf_entry(bytes, |p, id| {
                    let d = center.dist(&p);
                    let above_lo = if include_lo { d >= lo } else { d > lo };
                    if above_lo && d <= hi {
                        out.push((p, id, d));
                    }
                });
            });
            return Ok(());
        }
        // Children that may contain qualifying points: the subtree MBR must
        // intersect the annulus — mindist <= hi and maxdist >= lo (a subtree
        // entirely inside the inner disk cannot contribute).
        let children: Vec<PageId> = self.store().with_page_ctx(page, ctx, |bytes| {
            let mut v = Vec::new();
            node::for_each_inner_entry(bytes, |mbr, child| {
                if mbr.mindist(&center) <= hi && mbr.maxdist(&center) >= lo {
                    v.push(child);
                }
            });
            v
        });
        for c in children {
            self.range_rec(c, level_height - 1, center, lo, hi, include_lo, ctx, out)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cca_storage::PageStore;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_items(n: usize, seed: u64) -> Vec<(Point, ItemId)> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|i| {
                (
                    Point::new(rng.random_range(0.0..1000.0), rng.random_range(0.0..1000.0)),
                    i as ItemId,
                )
            })
            .collect()
    }

    fn brute_range(items: &[(Point, ItemId)], c: Point, r: f64) -> Vec<ItemId> {
        let mut v: Vec<ItemId> = items
            .iter()
            .filter(|(p, _)| c.dist(p) <= r)
            .map(|&(_, id)| id)
            .collect();
        v.sort_unstable();
        v
    }

    fn brute_annulus(items: &[(Point, ItemId)], c: Point, lo: f64, hi: f64) -> Vec<ItemId> {
        let mut v: Vec<ItemId> = items
            .iter()
            .filter(|(p, _)| {
                let d = c.dist(p);
                d > lo && d <= hi
            })
            .map(|&(_, id)| id)
            .collect();
        v.sort_unstable();
        v
    }

    #[test]
    fn range_matches_brute_force() {
        let items = random_items(3000, 11);
        let tree = RTree::bulk_load(PageStore::with_config(1024, 4096), &items);
        for (c, r) in [
            (Point::new(500.0, 500.0), 50.0),
            (Point::new(0.0, 0.0), 200.0),
            (Point::new(999.0, 10.0), 5.0),
            (Point::new(500.0, 500.0), 0.0),
        ] {
            let mut got: Vec<ItemId> = tree
                .range_search(c, r, None)
                .unwrap()
                .into_iter()
                .map(|(_, id, _)| id)
                .collect();
            got.sort_unstable();
            assert_eq!(got, brute_range(&items, c, r), "c={c} r={r}");
        }
    }

    #[test]
    fn range_reports_correct_distances() {
        let items = random_items(500, 12);
        let tree = RTree::bulk_load(PageStore::with_config(1024, 4096), &items);
        let c = Point::new(300.0, 700.0);
        for (p, _, d) in tree.range_search(c, 100.0, None).unwrap() {
            assert!((c.dist(&p) - d).abs() < 1e-12);
            assert!(d <= 100.0);
        }
    }

    #[test]
    fn annulus_matches_brute_force_and_is_half_open() {
        let items = random_items(3000, 13);
        let tree = RTree::bulk_load(PageStore::with_config(1024, 4096), &items);
        let c = Point::new(400.0, 400.0);
        for (lo, hi) in [(0.0, 50.0), (50.0, 100.0), (100.0, 300.0), (200.0, 200.0)] {
            let mut got: Vec<ItemId> = tree
                .annular_range_search(c, lo, hi, None)
                .unwrap()
                .into_iter()
                .map(|(_, id, _)| id)
                .collect();
            got.sort_unstable();
            assert_eq!(got, brute_annulus(&items, c, lo, hi), "lo={lo} hi={hi}");
        }
    }

    #[test]
    fn annulus_union_equals_range() {
        // RIA correctness depends on annuli tiling the disk exactly.
        let items = random_items(2000, 14);
        let tree = RTree::bulk_load(PageStore::with_config(1024, 4096), &items);
        let c = Point::new(250.0, 750.0);
        let theta = 40.0;
        let full: Vec<ItemId> = {
            let mut v: Vec<ItemId> = tree
                .range_search(c, 5.0 * theta, None)
                .unwrap()
                .into_iter()
                .map(|(_, id, _)| id)
                .collect();
            v.sort_unstable();
            v
        };
        let mut tiled: Vec<ItemId> = tree
            .range_search(c, theta, None)
            .unwrap()
            .into_iter()
            .map(|(_, id, _)| id)
            .collect();
        for i in 1..5 {
            tiled.extend(
                tree.annular_range_search(c, i as f64 * theta, (i + 1) as f64 * theta, None)
                    .unwrap()
                    .into_iter()
                    .map(|(_, id, _)| id),
            );
        }
        tiled.sort_unstable();
        assert_eq!(tiled, full);
    }

    #[test]
    fn empty_tree_returns_nothing() {
        let tree = RTree::bulk_load(PageStore::with_config(1024, 16), &[]);
        assert!(tree
            .range_search(Point::new(0.0, 0.0), 1000.0, None)
            .unwrap()
            .is_empty());
        assert!(tree
            .annular_range_search(Point::new(0.0, 0.0), 1.0, 10.0, None)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn negative_radius_returns_nothing() {
        let items = random_items(100, 15);
        let tree = RTree::bulk_load(PageStore::with_config(1024, 64), &items);
        assert!(tree
            .range_search(Point::new(500.0, 500.0), -1.0, None)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn range_prunes_io() {
        // A tiny query must touch far fewer pages than a full scan.
        let items = random_items(20000, 16);
        let tree = RTree::bulk_load(PageStore::with_config(1024, 8192), &items);
        tree.finish_build(100.0); // large buffer; count cold faults only
        tree.range_search(Point::new(500.0, 500.0), 10.0, None)
            .unwrap();
        let small = tree.io_stats().faults;
        tree.store().clear_cache();
        tree.store().reset_stats();
        tree.range_search(Point::new(500.0, 500.0), 2000.0, None)
            .unwrap();
        let full = tree.io_stats().faults;
        assert!(
            small * 10 < full,
            "expected >10x pruning: small={small} full={full}"
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        #[test]
        fn prop_range_equals_brute(seed in 0u64..1000, n in 1usize..400,
                                   cx in 0.0..1000.0f64, cy in 0.0..1000.0f64,
                                   r in 0.0..500.0f64) {
            let items = random_items(n, seed);
            let tree = RTree::bulk_load(PageStore::with_config(1024, 1024), &items);
            let c = Point::new(cx, cy);
            let mut got: Vec<ItemId> =
                tree.range_search(c, r, None).unwrap().into_iter().map(|(_, id, _)| id).collect();
            got.sort_unstable();
            prop_assert_eq!(got, brute_range(&items, c, r));
        }
    }
}
