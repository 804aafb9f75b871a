//! Incremental nearest-neighbour cursors and the kNN queries built on them.
//!
//! The paper's NN access path is the Hjaltason–Samet distance browse it
//! cites as "the state-of-the-art KNN processing technique" (§2.3). A query
//! point is a group of one: its MBR is the point itself, so the grouped
//! browse of Algorithm 6 ([`crate::ann`]) keyed by `mindist(MBR(Gm), ·)` is
//! exactly that browse, and [`IncNn`] is a one-member [`GroupAnn`]. The
//! cursor exposes the *incremental* interface NIA and IDA rely on ("computes
//! the next nearest neighbor of qi", §3.2).

use cca_geo::Point;
use cca_storage::{AbortReason, Aborted, QueryContext};

use crate::ann::GroupAnn;
use crate::entry::ItemId;
use crate::tree::RTree;

/// An incremental nearest-neighbour cursor over the tree.
///
/// Yields the indexed points in ascending distance from the query point, one
/// at a time, reading R-tree pages lazily (each node visit goes through the
/// buffer pool and may fault).
pub struct IncNn<'t>(GroupAnn<'t>);

impl IncNn<'_> {
    /// Why the cursor aborted (context cancelled / deadline / I/O budget),
    /// if it did. An aborted cursor yields `None` from then on; the
    /// neighbours already yielded remain correct.
    pub fn abort_reason(&self) -> Option<AbortReason> {
        self.0.abort_reason()
    }
}

impl Iterator for IncNn<'_> {
    type Item = (Point, ItemId, f64);

    fn next(&mut self) -> Option<Self::Item> {
        self.0.next_nn(0)
    }
}

impl RTree {
    /// Opens an incremental NN cursor at `query`.
    ///
    /// With a context, the cursor's I/O is charged to `ctx` and the cursor
    /// checks it before every node expansion, stopping (and recording
    /// [`IncNn::abort_reason`]) on cancellation, deadline or budget.
    pub fn inc_nn(&self, query: Point, ctx: Option<&QueryContext>) -> IncNn<'_> {
        IncNn(self.group_ann(vec![query], ctx))
    }

    /// The `k` nearest neighbours of `query` in ascending distance order.
    pub fn knn(&self, query: Point, k: usize) -> Vec<(Point, ItemId, f64)> {
        self.inc_nn(query, None).take(k).collect()
    }

    /// Bounded-radius kNN: up to `k` nearest neighbours of `query` whose
    /// distance is at most `max_dist`, in ascending order.
    ///
    /// The incremental cursor yields neighbours nearest-first, so the
    /// search stops expanding the moment the head distance exceeds the
    /// radius — a neighbourhood probe (the approximate tier's swap
    /// refinement) pays only for the pages covering the ball it actually
    /// inspects, not for a full kNN frontier. I/O is charged to `ctx` and
    /// aborts surface as the typed error.
    pub fn knn_within(
        &self,
        query: Point,
        k: usize,
        max_dist: f64,
        ctx: Option<&QueryContext>,
    ) -> Result<Vec<(Point, ItemId, f64)>, Aborted> {
        let mut cursor = self.inc_nn(query, ctx);
        let mut hits = Vec::new();
        for (p, id, d) in cursor.by_ref() {
            if d > max_dist || hits.len() >= k {
                break;
            }
            hits.push((p, id, d));
        }
        match cursor.abort_reason() {
            Some(reason) => Err(Aborted { reason }),
            None => Ok(hits),
        }
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

    fn brute_knn(items: &[(Point, ItemId)], q: Point, k: usize) -> Vec<(ItemId, f64)> {
        let mut v: Vec<(ItemId, f64)> = items.iter().map(|&(p, id)| (id, q.dist(&p))).collect();
        v.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        v.truncate(k);
        v
    }

    #[test]
    fn knn_matches_brute_force() {
        let items = random_items(2000, 21);
        let tree = RTree::bulk_load(PageStore::with_config(1024, 4096), &items);
        let q = Point::new(333.0, 666.0);
        let got = tree.knn(q, 25);
        let want = brute_knn(&items, q, 25);
        assert_eq!(got.len(), 25);
        for (g, w) in got.iter().zip(&want) {
            // Distances must agree exactly; ids may differ only under exact
            // distance ties.
            assert!((g.2 - w.1).abs() < 1e-12, "got {g:?}, want {w:?}");
        }
    }

    #[test]
    fn cursor_yields_ascending_distances() {
        let items = random_items(1500, 22);
        let tree = RTree::bulk_load(PageStore::with_config(1024, 4096), &items);
        let q = Point::new(10.0, 10.0);
        let mut last = 0.0;
        let mut count = 0;
        for (_, _, d) in tree.inc_nn(q, None) {
            assert!(d >= last - 1e-12, "distance regressed: {d} < {last}");
            last = d;
            count += 1;
        }
        assert_eq!(count, 1500, "cursor must exhaust the whole tree");
    }

    #[test]
    fn cursor_is_lazy_in_io() {
        let items = random_items(20000, 23);
        let tree = RTree::bulk_load(PageStore::with_config(1024, 8192), &items);
        tree.finish_build(100.0);
        let mut cur = tree.inc_nn(Point::new(500.0, 500.0), None);
        let _ = cur.next();
        let after_first = tree.io_stats().faults;
        // Exhausting the cursor costs far more I/O than the first NN.
        for _ in cur {}
        let after_all = tree.io_stats().faults;
        assert!(
            after_first * 20 < after_all,
            "first NN should be much cheaper: {after_first} vs {after_all}"
        );
    }

    #[test]
    fn knn_within_respects_both_bounds() {
        let items = random_items(2000, 26);
        let tree = RTree::bulk_load(PageStore::with_config(1024, 4096), &items);
        let q = Point::new(500.0, 500.0);
        let radius = 40.0;
        let within = tree.knn_within(q, usize::MAX, radius, None).unwrap();
        let want: Vec<(ItemId, f64)> = brute_knn(&items, q, 2000)
            .into_iter()
            .filter(|&(_, d)| d <= radius)
            .collect();
        assert_eq!(within.len(), want.len());
        assert!(within.iter().all(|&(_, _, d)| d <= radius));
        assert!(within.windows(2).all(|w| w[0].2 <= w[1].2));
        // The k cap truncates the same prefix.
        let capped = tree.knn_within(q, 3, radius, None).unwrap();
        assert_eq!(capped.len(), 3.min(want.len()));
        for (c, w) in capped.iter().zip(&within) {
            assert_eq!(c.1, w.1);
        }
    }

    #[test]
    fn knn_within_abort_unwinds_typed() {
        let items = random_items(20000, 27);
        let tree = RTree::bulk_load(PageStore::with_config(1024, 8192), &items);
        tree.finish_build(1.0); // cold, tiny buffer: the search must fault

        let ctx = cca_storage::QueryContext::new().with_io_budget(2);
        let err = tree
            .knn_within(Point::new(500.0, 500.0), usize::MAX, 400.0, Some(&ctx))
            .expect_err("a 2-fault budget cannot cover a 400-radius scan");
        assert_eq!(err.reason, cca_storage::AbortReason::IoBudgetExceeded);
        assert_eq!(
            ctx.abort_reason(),
            Some(cca_storage::AbortReason::IoBudgetExceeded)
        );

        // Cancellation surfaces through the same typed path.
        let ctx = cca_storage::QueryContext::new();
        ctx.cancel();
        let err = tree
            .knn_within(Point::new(500.0, 500.0), 5, 400.0, Some(&ctx))
            .expect_err("cancelled context must abort the search");
        assert_eq!(err.reason, cca_storage::AbortReason::Cancelled);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn prop_knn_within_matches_brute_force(
            seed in 0u64..1000,
            n in 1usize..400,
            k in 0usize..30,
            radius in 0.0f64..600.0,
            qx in 0.0f64..1000.0,
            qy in 0.0f64..1000.0,
        ) {
            let items = random_items(n, seed);
            let tree = RTree::bulk_load(PageStore::with_config(1024, 4096), &items);
            let q = Point::new(qx, qy);
            let got = tree.knn_within(q, k, radius, None).unwrap();

            let want: Vec<(ItemId, f64)> = brute_knn(&items, q, n)
                .into_iter()
                .filter(|&(_, d)| d <= radius)
                .take(k)
                .collect();

            prop_assert_eq!(got.len(), want.len());
            // Every result honours the radius and the list is sorted.
            prop_assert!(got.iter().all(|&(_, _, d)| d <= radius));
            prop_assert!(got.windows(2).all(|w| w[0].2 <= w[1].2));
            for (g, w) in got.iter().zip(&want) {
                prop_assert!((g.2 - w.1).abs() < 1e-12, "got {:?}, want {:?}", g, w);
            }
        }
    }

    #[test]
    fn knn_on_empty_tree() {
        let tree = RTree::bulk_load(PageStore::with_config(1024, 16), &[]);
        assert!(tree.knn(Point::new(0.0, 0.0), 5).is_empty());
    }

    #[test]
    fn knn_k_larger_than_size() {
        let items = random_items(10, 25);
        let tree = RTree::bulk_load(PageStore::with_config(1024, 64), &items);
        assert_eq!(tree.knn(Point::new(0.0, 0.0), 100).len(), 10);
    }

    #[test]
    fn exact_query_point_distance_zero() {
        let items = vec![(Point::new(5.0, 5.0), 0), (Point::new(6.0, 6.0), 1)];
        let tree = RTree::bulk_load(PageStore::with_config(1024, 16), &items);
        let nn = tree.knn(Point::new(5.0, 5.0), 1);
        assert_eq!(nn[0].1, 0);
        assert_eq!(nn[0].2, 0.0);
    }

    #[test]
    fn context_sees_exactly_the_cursor_traffic() {
        let items = random_items(5000, 27);
        let tree = RTree::bulk_load(PageStore::with_config(1024, 4096), &items);
        tree.finish_build(100.0);
        let ctx = QueryContext::new();
        let before = tree.io_stats();
        let mut cursor = tree.inc_nn(Point::new(500.0, 500.0), Some(&ctx));
        assert_eq!(cursor.by_ref().take(200).count(), 200);
        assert_eq!(cursor.abort_reason(), None);
        let delta = tree.io_stats().since(&before);
        assert!(ctx.stats().faults > 0, "kNN must fault cold pages");
        assert_eq!(ctx.stats(), delta, "context mirrors the global delta");
        // A context-free search on the same tree charges nothing to it.
        let _ = tree.knn(Point::new(100.0, 100.0), 50);
        assert_eq!(ctx.stats(), delta);
    }

    #[test]
    fn budget_exhausted_cursor_aborts_with_exact_faults() {
        let items = random_items(20000, 28);
        let tree = RTree::bulk_load(PageStore::with_config(1024, 8192), &items);
        tree.finish_build(1.0); // tiny buffer: exhausting the cursor faults a lot
        let budget = 5;
        let ctx = QueryContext::new().with_io_budget(budget);
        let mut cursor = tree.inc_nn(Point::new(500.0, 500.0), Some(&ctx));
        let yielded = cursor.by_ref().count();
        assert_eq!(cursor.abort_reason(), Some(AbortReason::IoBudgetExceeded));
        assert!(yielded < items.len(), "abort must cut the scan short");
        assert_eq!(
            ctx.stats().faults,
            budget,
            "the fault that reaches the budget is the last one charged"
        );
    }

    #[test]
    fn cancelled_cursor_stops_immediately() {
        let items = random_items(2000, 29);
        let tree = RTree::bulk_load(PageStore::with_config(1024, 4096), &items);
        let ctx = QueryContext::new();
        let mut cursor = tree.inc_nn(Point::new(0.0, 0.0), Some(&ctx));
        let first = cursor.next();
        assert!(first.is_some());
        ctx.cancel();
        // The cursor may still yield a neighbour its frontier already
        // certifies, but it refuses to read further pages and soon ends.
        let rest = cursor.by_ref().count();
        assert!(rest < items.len() - 1);
        assert_eq!(cursor.abort_reason(), Some(AbortReason::Cancelled));
    }

    #[test]
    fn multiple_cursors_coexist() {
        let items = random_items(500, 26);
        let tree = RTree::bulk_load(PageStore::with_config(1024, 1024), &items);
        let mut a = tree.inc_nn(Point::new(0.0, 0.0), None);
        let mut b = tree.inc_nn(Point::new(1000.0, 1000.0), None);
        // Interleaved advancement must not interfere.
        let a1 = a.next().unwrap();
        let b1 = b.next().unwrap();
        let a2 = a.next().unwrap();
        let b2 = b.next().unwrap();
        assert!(a1.2 <= a2.2);
        assert!(b1.2 <= b2.2);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        #[test]
        fn prop_knn_distances_match_brute(seed in 0u64..1000, n in 1usize..300,
                                          qx in 0.0..1000.0f64, qy in 0.0..1000.0f64,
                                          k in 1usize..50) {
            let items = random_items(n, seed);
            let tree = RTree::bulk_load(PageStore::with_config(1024, 1024), &items);
            let q = Point::new(qx, qy);
            let got = tree.knn(q, k);
            let want = brute_knn(&items, q, k);
            prop_assert_eq!(got.len(), want.len());
            for (g, w) in got.iter().zip(&want) {
                prop_assert!((g.2 - w.1).abs() < 1e-12);
            }
        }
    }
}
