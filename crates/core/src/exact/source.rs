//! Customer sources: where the incremental algorithms get their edges from.
//!
//! RIA/NIA/IDA are defined against a disk-resident, R-tree-indexed customer
//! set (§3), while the approximate algorithms re-run IDA on small in-memory
//! sets (provider representatives vs. `P`, or `Q` vs. customer
//! representatives, §4). [`CustomerSource`] abstracts over both so the same
//! algorithm code serves every phase.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use cca_geo::{OrdF64, Point};
use cca_rtree::{GroupAnn, RTree};
use cca_storage::{AbortReason, QueryContext};

/// A customer record yielded by a source.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SourcedCustomer {
    /// Stable identifier (index into `P`, or representative id).
    pub id: u64,
    pub pos: Point,
    /// Weight: 1 for ordinary customers, `g.w` for CA representatives.
    pub weight: u32,
    /// Distance from the querying provider.
    pub dist: f64,
}

/// Incremental access to customers, per provider.
pub trait CustomerSource {
    /// Upper bound (exclusive) on customer ids.
    fn num_customers(&self) -> usize;

    /// Total customer weight `Σ p.w` (the `|P|` side of γ).
    fn total_weight(&self) -> u64;

    /// Next nearest unreturned customer of provider `qi`, or `None` when the
    /// set is exhausted for this provider.
    fn next_nn(&mut self, qi: usize) -> Option<SourcedCustomer>;

    /// Customers with `lo < dist(q_i, p) ≤ hi` (or `dist ≤ hi` when
    /// `include_lo`), for RIA's (annular) range searches.
    fn range(&mut self, qi: usize, lo: f64, hi: f64, include_lo: bool) -> Vec<SourcedCustomer>;

    /// The [`QueryContext`] governing this source, if any. The shared
    /// incremental-SSPA engine reads it off the source so its CPU-bound
    /// Dijkstra loops poll the same deadline/cancellation the I/O path
    /// enforces — one context governs the whole query.
    fn context(&self) -> Option<&QueryContext> {
        None
    }

    /// Why the source's query context aborted, if it did. A source that
    /// aborts makes its NN streams dry up and its range searches come back
    /// empty; the algorithm drivers poll this at their loop heads and
    /// unwind with a partial matching instead of spinning on an exhausted
    /// source. Sources without a context never abort.
    fn abort_reason(&self) -> Option<AbortReason> {
        self.context().and_then(|c| c.abort_reason())
    }
}

/// Forwarding impl so trait objects (`&mut dyn CustomerSource`) satisfy the
/// generic `ida`/`nia`/`ria` entry points — the [`crate::solver`] pipeline
/// hands sources around as trait objects.
impl<T: CustomerSource + ?Sized> CustomerSource for &mut T {
    fn num_customers(&self) -> usize {
        (**self).num_customers()
    }

    fn total_weight(&self) -> u64 {
        (**self).total_weight()
    }

    fn next_nn(&mut self, qi: usize) -> Option<SourcedCustomer> {
        (**self).next_nn(qi)
    }

    fn range(&mut self, qi: usize, lo: f64, hi: f64, include_lo: bool) -> Vec<SourcedCustomer> {
        (**self).range(qi, lo, hi, include_lo)
    }

    fn context(&self) -> Option<&QueryContext> {
        (**self).context()
    }

    fn abort_reason(&self) -> Option<AbortReason> {
        (**self).abort_reason()
    }
}

/// Customers indexed by the disk-resident R-tree (the paper's primary
/// setting). NN streams are the grouped incremental ANN of §3.4.2; a
/// provider browsing alone is a group of one.
pub struct RtreeSource<'t> {
    tree: &'t RTree,
    providers: Vec<Point>,
    groups: Vec<GroupAnn<'t>>,
    /// provider index → (group, member index within group)
    map: Vec<(u32, u32)>,
    /// Query context shared by every group search and range search this
    /// source issues: the whole query's tree traffic lands in one place, and
    /// one abort (cancellation / deadline / I/O budget) stops every stream.
    ctx: Option<QueryContext>,
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
        assert!(group_size >= 1);
        let order = cca_geo::hilbert::sort_by_hilbert(&providers, cca_geo::WORLD_SIZE);
        let mut groups = Vec::new();
        let mut map = vec![(0u32, 0u32); providers.len()];
        for chunk in order.chunks(group_size) {
            let gidx = groups.len() as u32;
            let members: Vec<Point> = chunk.iter().map(|&i| providers[i]).collect();
            for (m, &i) in chunk.iter().enumerate() {
                map[i] = (gidx, m as u32);
            }
            groups.push(tree.group_ann(members, ctx));
        }
        RtreeSource {
            tree,
            providers,
            groups,
            map,
            ctx: ctx.cloned(),
        }
    }
}

impl CustomerSource for RtreeSource<'_> {
    fn num_customers(&self) -> usize {
        self.tree.len()
    }

    fn total_weight(&self) -> u64 {
        self.tree.len() as u64
    }

    fn next_nn(&mut self, qi: usize) -> Option<SourcedCustomer> {
        let (g, m) = self.map[qi];
        let hit = self.groups[g as usize].next_nn(m as usize);
        hit.map(|(pos, id, dist)| SourcedCustomer {
            id,
            pos,
            weight: 1,
            dist,
        })
    }

    fn range(&mut self, qi: usize, lo: f64, hi: f64, include_lo: bool) -> Vec<SourcedCustomer> {
        let q = self.providers[qi];
        let ctx = self.ctx.as_ref();
        let hits = if include_lo {
            self.tree.range_search(q, hi, ctx)
        } else {
            self.tree.annular_range_search(q, lo, hi, ctx)
        };
        // An aborted search yields nothing; the driver sees the abort via
        // `abort_reason` and stops extending its range.
        hits.unwrap_or_default()
            .into_iter()
            .map(|(pos, id, dist)| SourcedCustomer {
                id,
                pos,
                weight: 1,
                dist,
            })
            .collect()
    }

    fn context(&self) -> Option<&QueryContext> {
        self.ctx.as_ref()
    }
}

/// In-memory customers with optional weights; used for the approximate
/// algorithms' concise matching and refinement phases, and handy in tests.
///
/// Per-provider NN streams are lazily-popped min-heaps: heapify is O(n)
/// where a full sort would be O(n log n), and the incremental algorithms
/// consume only a short prefix of each stream before the Theorem-1 bound
/// cuts discovery off.
///
/// A memory source performs no I/O, but it may still carry a
/// [`QueryContext`] ([`MemorySource::with_context`]): the CPU-bound driver
/// and engine loops then poll the context's deadline/cancellation, so even
/// an all-in-memory solve (SSPA on a drained graph, CA's concise matching)
/// cannot overshoot its deadline.
pub struct MemorySource {
    customers: Vec<(Point, u32)>,
    /// Per provider: min-heap of (dist, id), popped on demand. Ties break on
    /// the lower customer id, matching a stable sort by distance.
    streams: Vec<BinaryHeap<Reverse<(OrdF64, u32)>>>,
    providers: Vec<Point>,
    ctx: Option<QueryContext>,
}

impl MemorySource {
    pub fn new(providers: Vec<Point>, customers: Vec<(Point, u32)>) -> Self {
        let streams = providers
            .iter()
            .map(|q| {
                customers
                    .iter()
                    .enumerate()
                    .map(|(id, &(pos, _))| Reverse((OrdF64::new(q.dist(&pos)), id as u32)))
                    .collect::<BinaryHeap<_>>()
            })
            .collect();
        MemorySource {
            customers,
            streams,
            providers,
            ctx: None,
        }
    }

    /// Attaches the query context whose deadline/cancellation governs the
    /// CPU-bound phases run over this source.
    pub fn with_context(mut self, ctx: Option<&QueryContext>) -> Self {
        self.ctx = ctx.cloned();
        self
    }

    /// Position and weight of customer `id`.
    pub fn customer(&self, id: u64) -> (Point, u32) {
        self.customers[usize::try_from(id).expect("id fits usize")]
    }
}

impl CustomerSource for MemorySource {
    fn num_customers(&self) -> usize {
        self.customers.len()
    }

    fn total_weight(&self) -> u64 {
        self.customers.iter().map(|&(_, w)| u64::from(w)).sum()
    }

    fn next_nn(&mut self, qi: usize) -> Option<SourcedCustomer> {
        let Reverse((dist, id)) = self.streams[qi].pop()?;
        let (pos, weight) = self.customers[id as usize];
        Some(SourcedCustomer {
            id: u64::from(id),
            pos,
            weight,
            dist: dist.get(),
        })
    }

    fn range(&mut self, qi: usize, lo: f64, hi: f64, include_lo: bool) -> Vec<SourcedCustomer> {
        let q = self.providers[qi];
        self.customers
            .iter()
            .enumerate()
            .filter_map(|(id, &(pos, weight))| {
                let d = q.dist(&pos);
                let above = if include_lo { d >= lo } else { d > lo };
                (above && d <= hi).then_some(SourcedCustomer {
                    id: id as u64,
                    pos,
                    weight,
                    dist: d,
                })
            })
            .collect()
    }

    fn context(&self) -> Option<&QueryContext> {
        self.ctx.as_ref()
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
        let customers: Vec<(Point, u32)> =
            random_points(100, 1).into_iter().map(|p| (p, 1)).collect();
        let providers = random_points(3, 2);
        let mut src = MemorySource::new(providers, customers);
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
        let customers: Vec<(Point, u32)> =
            random_points(200, 3).into_iter().map(|p| (p, 1)).collect();
        let providers = random_points(1, 4);
        let q = providers[0];
        let mut src = MemorySource::new(providers, customers.clone());
        let got = src.range(0, 0.0, 100.0, true);
        let want = customers
            .iter()
            .filter(|&&(p, _)| q.dist(&p) <= 100.0)
            .count();
        assert_eq!(got.len(), want);
    }

    #[test]
    fn rtree_source_matches_memory_source_streams() {
        let pts = random_points(500, 5);
        let items: Vec<(Point, u64)> = pts
            .iter()
            .enumerate()
            .map(|(i, &p)| (p, i as u64))
            .collect();
        let tree = RTree::bulk_load(PageStore::with_config(1024, 2048), &items);
        let providers = random_points(4, 6);

        let mut rt = RtreeSource::new(&tree, providers.clone(), None);
        let mut mem = MemorySource::new(providers.clone(), pts.iter().map(|&p| (p, 1)).collect());
        for qi in 0..providers.len() {
            for _ in 0..50 {
                let a = rt.next_nn(qi).unwrap();
                let b = mem.next_nn(qi).unwrap();
                assert!((a.dist - b.dist).abs() < 1e-12);
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
        let customers = vec![(Point::new(0.0, 0.0), 3), (Point::new(1.0, 1.0), 5)];
        let src = MemorySource::new(vec![Point::new(0.0, 0.0)], customers);
        assert_eq!(src.total_weight(), 8);
        assert_eq!(src.num_customers(), 2);
        assert_eq!(src.customer(1).1, 5);
    }
}
