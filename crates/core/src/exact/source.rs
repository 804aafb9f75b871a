//! The customer source: where the incremental algorithms get their edges.
//!
//! RIA/NIA/IDA read every customer set through an R-tree (§3), one
//! [`RtreeSource`] with three ways in:
//!
//! * the query's disk-resident tree ([`RtreeSource::new`],
//!   [`RtreeSource::with_ann_groups`]), every page read charged to the
//!   query's context;
//! * an in-memory customer list — CA's weighted representatives and the
//!   coreset's slots (§4), or a [`crate::solver::Problem`] over a slice —
//!   STR bulk-loaded by [`memory_tree`] into a tree whose buffer holds every
//!   page ([`RtreeSource::in_memory`]): weights come from a side table by
//!   item id, and no page read is charged, but the drivers and the engine
//!   still poll the context for deadline and cancellation.

use cca_geo::Point;
use cca_rtree::{GroupAnn, RTree};
use cca_storage::{AbortReason, PageStore, QueryContext, DEFAULT_PAGE_SIZE};

/// A customer record yielded by a source.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SourcedCustomer {
    /// Customer index: the tree's item id.
    pub id: u64,
    pub pos: Point,
    /// Weight: 1 for ordinary customers, `g.w` for CA representatives.
    pub weight: u32,
    /// Distance from the querying provider.
    pub dist: f64,
}

/// STR bulk-loads an in-memory customer list into an R-tree whose buffer
/// holds every page, so reads never fault. Item ids are list indices.
pub fn memory_tree(customers: impl IntoIterator<Item = Point>) -> RTree {
    let items: Vec<(Point, u64)> = customers
        .into_iter()
        .enumerate()
        .map(|(i, p)| (p, i as u64))
        .collect();
    RTree::bulk_load(
        PageStore::with_config(DEFAULT_PAGE_SIZE, usize::MAX),
        &items,
    )
}

/// Per-provider incremental access to an R-tree's customers. NN streams
/// are the grouped incremental ANN of §3.4.2; a provider browsing alone is
/// a group of one.
pub struct RtreeSource<'t> {
    tree: &'t RTree,
    providers: Vec<Point>,
    groups: Vec<GroupAnn<'t>>,
    /// provider index → (group, member index within group)
    map: Vec<(u32, u32)>,
    /// Query context shared by every stream and range search this source
    /// issues: the drivers and the engine poll it, and one abort
    /// (cancellation / deadline / I/O budget) stops every stream.
    ctx: Option<QueryContext>,
    /// Whether tree reads are charged to `ctx` (not for a [`memory_tree`]).
    charged: bool,
    /// Customer index → weight; empty when every customer weighs 1.
    weights: Vec<u32>,
}

impl<'t> RtreeSource<'t> {
    /// One independent incremental-NN stream per provider: groups of one.
    /// With a query context all traversal I/O is charged to `ctx` and every
    /// stream is subject to its abort checks.
    pub fn new(tree: &'t RTree, providers: Vec<Point>, ctx: Option<&QueryContext>) -> Self {
        Self::with_ann_groups(tree, providers, 1, ctx)
    }

    /// Grouped incremental ANN (§3.4.2): providers are Hilbert-sorted and cut
    /// into groups of `group_size`; members of a group share R-tree reads.
    /// With a query context all traversal I/O is charged to `ctx` and every
    /// group heap is subject to its abort checks.
    pub fn with_ann_groups(
        tree: &'t RTree,
        providers: Vec<Point>,
        group_size: usize,
        ctx: Option<&QueryContext>,
    ) -> Self {
        Self::open(tree, providers, group_size, ctx, true)
    }

    /// A source over a [`memory_tree`] whose item `i` weighs `weights[i]`
    /// (every item weighs 1 when `weights` is empty). Its reads charge
    /// nothing to `ctx`, which the drivers and the engine only poll.
    pub fn in_memory(
        tree: &'t RTree,
        providers: Vec<Point>,
        group_size: usize,
        weights: Vec<u32>,
        ctx: Option<&QueryContext>,
    ) -> Self {
        assert!(weights.is_empty() || weights.len() == tree.len());
        RtreeSource {
            weights,
            ..Self::open(tree, providers, group_size, ctx, false)
        }
    }

    fn open(
        tree: &'t RTree,
        providers: Vec<Point>,
        group_size: usize,
        ctx: Option<&QueryContext>,
        charged: bool,
    ) -> Self {
        assert!(group_size >= 1);
        // Groups of one share nothing, so their order decides nothing.
        let order = if group_size == 1 {
            (0..providers.len()).collect()
        } else {
            cca_geo::hilbert::sort_by_hilbert(&providers, cca_geo::WORLD_SIZE)
        };
        let io_ctx = ctx.filter(|_| charged);
        let mut groups = Vec::new();
        let mut map = vec![(0u32, 0u32); providers.len()];
        for chunk in order.chunks(group_size) {
            let gidx = groups.len() as u32;
            let members: Vec<Point> = chunk.iter().map(|&i| providers[i]).collect();
            for (m, &i) in chunk.iter().enumerate() {
                map[i] = (gidx, m as u32);
            }
            groups.push(tree.group_ann(members, io_ctx));
        }
        RtreeSource {
            tree,
            providers,
            groups,
            map,
            ctx: ctx.cloned(),
            charged,
            weights: Vec::new(),
        }
    }

    /// Upper bound (exclusive) on customer indices.
    pub fn num_customers(&self) -> usize {
        self.tree.len()
    }

    /// Total customer weight `Σ p.w` (the `|P|` side of γ).
    pub fn total_weight(&self) -> u64 {
        if self.weights.is_empty() {
            self.tree.len() as u64
        } else {
            self.weights.iter().map(|&w| u64::from(w)).sum()
        }
    }

    /// Next nearest unreturned customer of provider `qi`, or `None` when the
    /// set is exhausted for this provider or the query aborted.
    pub fn next_nn(&mut self, qi: usize) -> Option<SourcedCustomer> {
        let (g, m) = self.map[qi];
        let hit = self.groups[g as usize].next_nn(m as usize)?;
        Some(self.customer(hit))
    }

    /// Customers with `lo < dist(q_i, p) ≤ hi` (or `dist ≤ hi` when
    /// `include_lo`), for RIA's (annular) range searches.
    pub fn range(&mut self, qi: usize, lo: f64, hi: f64, include_lo: bool) -> Vec<SourcedCustomer> {
        let q = self.providers[qi];
        let ctx = self.ctx.as_ref().filter(|_| self.charged);
        let hits = if include_lo {
            self.tree.range_search(q, hi, ctx)
        } else {
            self.tree.annular_range_search(q, lo, hi, ctx)
        };
        // An aborted search yields nothing; the driver sees the abort via
        // `abort_reason` and stops extending its range.
        hits.unwrap_or_default()
            .into_iter()
            .map(|hit| self.customer(hit))
            .collect()
    }

    /// The [`QueryContext`] governing this source, if any. The shared
    /// incremental-SSPA engine reads it off the source so its CPU-bound
    /// Dijkstra loops poll the same deadline/cancellation the I/O path
    /// enforces — one context governs the whole query.
    pub fn context(&self) -> Option<&QueryContext> {
        self.ctx.as_ref()
    }

    /// Why the source's query context aborted, if it did. An abort makes
    /// the NN streams of a charged source dry up and its range searches
    /// come back empty; the algorithm drivers poll this at their loop heads
    /// and unwind with a partial matching instead of spinning on an
    /// exhausted source.
    pub fn abort_reason(&self) -> Option<AbortReason> {
        self.ctx.as_ref().and_then(QueryContext::abort_reason)
    }

    /// The record of tree hit `(pos, item id, dist)`.
    fn customer(&self, (pos, id, dist): (Point, u64, f64)) -> SourcedCustomer {
        let weight = if self.weights.is_empty() {
            1
        } else {
            self.weights[usize::try_from(id).expect("id fits usize")]
        };
        SourcedCustomer {
            id,
            pos,
            weight,
            dist,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cca_storage::PageStore;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_points(n: usize, seed: u64) -> Vec<Point> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| Point::new(rng.random_range(0.0..1000.0), rng.random_range(0.0..1000.0)))
            .collect()
    }

    #[test]
    fn memory_source_streams_ascending() {
        let tree = memory_tree(random_points(100, 1));
        let providers = random_points(3, 2);
        let mut src = RtreeSource::in_memory(&tree, providers, 1, Vec::new(), None);
        for qi in 0..3 {
            let mut last = 0.0;
            let mut n = 0;
            while let Some(c) = src.next_nn(qi) {
                assert!(c.dist >= last);
                last = c.dist;
                n += 1;
            }
            assert_eq!(n, 100);
        }
    }

    #[test]
    fn memory_source_range_matches_brute() {
        let customers = random_points(200, 3);
        let providers = random_points(1, 4);
        let q = providers[0];
        let tree = memory_tree(customers.iter().copied());
        let mut src = RtreeSource::in_memory(&tree, providers, 1, Vec::new(), None);
        let got = src.range(0, 0.0, 100.0, true);
        let want = customers.iter().filter(|&&p| q.dist(&p) <= 100.0).count();
        assert_eq!(got.len(), want);
    }

    /// The paged tree and the in-memory tree stream every provider's
    /// customers in the brute-force (distance, id) order.
    #[test]
    fn rtree_source_matches_memory_source_streams() {
        let pts = random_points(500, 5);
        let items: Vec<(Point, u64)> = pts
            .iter()
            .enumerate()
            .map(|(i, &p)| (p, i as u64))
            .collect();
        let tree = RTree::bulk_load(PageStore::with_config(1024, 2048), &items);
        let mem_tree = memory_tree(pts.iter().copied());
        let providers = random_points(4, 6);

        let mut rt = RtreeSource::new(&tree, providers.clone(), None);
        let mut mem = RtreeSource::in_memory(&mem_tree, providers.clone(), 1, Vec::new(), None);
        for (qi, q) in providers.iter().enumerate() {
            let mut want: Vec<(f64, u64)> = items.iter().map(|&(p, id)| (q.dist(&p), id)).collect();
            want.sort_by(|a, b| a.partial_cmp(b).unwrap());
            for &(dist, id) in &want[..50] {
                let a = rt.next_nn(qi).unwrap();
                let b = mem.next_nn(qi).unwrap();
                assert_eq!((a.id, a.dist.to_bits()), (id, dist.to_bits()));
                assert_eq!((b.id, b.dist.to_bits()), (id, dist.to_bits()));
            }
        }
        assert_eq!(rt.total_weight(), 500);
        assert_eq!(mem.total_weight(), 500);
    }

    #[test]
    fn grouped_source_yields_same_distances_as_plain() {
        let pts = random_points(400, 7);
        let items: Vec<(Point, u64)> = pts
            .iter()
            .enumerate()
            .map(|(i, &p)| (p, i as u64))
            .collect();
        let tree = RTree::bulk_load(PageStore::with_config(1024, 2048), &items);
        let providers = random_points(10, 8);

        let mut plain = RtreeSource::new(&tree, providers.clone(), None);
        let mut grouped = RtreeSource::with_ann_groups(&tree, providers.clone(), 4, None);
        for qi in 0..providers.len() {
            for _ in 0..30 {
                let a = plain.next_nn(qi).unwrap();
                let b = grouped.next_nn(qi).unwrap();
                assert!(
                    (a.dist - b.dist).abs() < 1e-12,
                    "qi={qi}: {} vs {}",
                    a.dist,
                    b.dist
                );
            }
        }
    }

    #[test]
    fn weighted_memory_source_total_weight() {
        let tree = memory_tree([Point::new(0.0, 0.0), Point::new(1.0, 1.0)]);
        let mut src =
            RtreeSource::in_memory(&tree, vec![Point::new(2.0, 2.0)], 1, vec![3, 5], None);
        assert_eq!(src.total_weight(), 8);
        assert_eq!(src.num_customers(), 2);
        let nearest = src.next_nn(0).unwrap();
        assert_eq!((nearest.id, nearest.weight), (1, 5));
        let range = src.range(0, 0.0, 10.0, true);
        assert!(range.iter().all(|c| c.weight == [3, 5][c.id as usize]));
    }

    /// An in-memory tree charges the context nothing, but its abort still
    /// shows through the source.
    #[test]
    fn memory_source_charges_nothing_and_polls_the_context() {
        let tree = memory_tree(random_points(300, 9));
        let ctx = QueryContext::new().with_io_budget(1);
        let mut src =
            RtreeSource::in_memory(&tree, random_points(2, 10), 1, Vec::new(), Some(&ctx));
        assert_eq!(std::iter::from_fn(|| src.next_nn(0)).count(), 300);
        assert_eq!(src.range(1, 0.0, 2000.0, true).len(), 300);
        assert_eq!(ctx.stats(), cca_storage::IoStats::default());
        ctx.cancel();
        assert_eq!(src.abort_reason(), Some(AbortReason::Cancelled));
    }
}
