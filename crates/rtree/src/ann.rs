//! Grouped incremental all-nearest-neighbour (ANN) search — Algorithm 6,
//! and the crate's one best-first traversal.
//!
//! §3.4.2: service providers are grouped by Hilbert order; each group `Gm`
//! shares one heap `Hm` of R-tree entries ordered by
//! `mindist(MBR(Gm), MBR(e))`, and each member `qi` keeps a candidate heap
//! `res_i` of already-encountered customers ordered by `dist(qi, ·)`. The
//! next NN of `qi` is final once the top of `res_i` is at most the top key of
//! `Hm`. Sharing `Hm` means each R-tree page is read once per *group* rather
//! than once per provider, which is exactly the I/O saving the paper claims.
//!
//! A query point is a group of one whose MBR is the point, which makes this
//! the Hjaltason–Samet browse of §2.3: [`crate::IncNn`] is a one-member
//! group. Node ties break on the page id and point ties on the item id, and
//! a candidate at the same distance as the nearest node wins.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use cca_geo::{OrdF64, Point, Rect};
use cca_storage::{AbortReason, PageId, QueryContext};

use crate::entry::ItemId;
use crate::node;
use crate::tree::RTree;

/// Shared-heap entry: a node (by group-mindist) awaiting expansion.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
struct GroupHeapKey {
    dist: OrdF64,
    page: u32,
    level_height: u32,
}

/// One provider's candidate queue entry.
#[derive(Clone, Copy, Debug)]
struct Candidate {
    dist: OrdF64,
    point: Point,
    id: ItemId,
}

impl PartialEq for Candidate {
    fn eq(&self, other: &Self) -> bool {
        (self.dist, self.id) == (other.dist, other.id)
    }
}
impl Eq for Candidate {}
impl PartialOrd for Candidate {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Candidate {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.dist, self.id).cmp(&(other.dist, other.id))
    }
}

/// Incremental ANN search over one Hilbert group of providers (Algorithm 6).
pub struct GroupAnn<'t> {
    tree: &'t RTree,
    /// The group MBR: `mindist(MBR(Gm), MBR(e))` keys `Hm`.
    group_mbr: Rect,
    members: Vec<Point>,
    /// `Hm`: shared min-heap of R-tree entries.
    hm: BinaryHeap<Reverse<GroupHeapKey>>,
    /// `res_i`: per-member candidate heaps.
    res: Vec<BinaryHeap<Reverse<Candidate>>>,
    /// Per-query control block for every page this group search reads; the
    /// search stops expanding entries once the context aborts.
    ctx: Option<QueryContext>,
    /// Why the search stopped early, if it did.
    aborted: Option<AbortReason>,
}

impl<'t> GroupAnn<'t> {
    /// Creates the shared search state for a provider group, charging the
    /// search's I/O to `ctx`.
    ///
    /// # Panics
    /// Panics on an empty member list — groups come from Hilbert
    /// partitioning which never emits empty groups.
    pub(crate) fn new(tree: &'t RTree, members: Vec<Point>, ctx: Option<QueryContext>) -> Self {
        assert!(!members.is_empty(), "ANN group must be non-empty");
        let group_mbr: Rect = members.iter().copied().collect();
        let mut hm = BinaryHeap::new();
        if !tree.is_empty() {
            hm.push(Reverse(GroupHeapKey {
                dist: OrdF64::new(0.0),
                page: tree.root().0,
                level_height: tree.height(),
            }));
        }
        let res = members.iter().map(|_| BinaryHeap::new()).collect();
        GroupAnn {
            tree,
            group_mbr,
            members,
            hm,
            res,
            ctx,
            aborted: None,
        }
    }

    /// Why the shared search aborted (cancellation / deadline / I/O
    /// budget), if it did. After an abort `next_nn` returns `None` for every
    /// member; the neighbours already yielded remain correct.
    pub fn abort_reason(&self) -> Option<AbortReason> {
        self.aborted
    }

    /// Retrieves the next nearest neighbour of member `i` (Algorithm 6).
    ///
    /// Returns `None` once the tree is exhausted for this member, or once
    /// the search has aborted.
    pub fn next_nn(&mut self, i: usize) -> Option<(Point, ItemId, f64)> {
        loop {
            let res_top = self.res[i].peek().map(|Reverse(c)| c.dist);
            let hm_top = self.hm.peek().map(|Reverse(k)| k.dist);
            match (res_top, hm_top) {
                // Candidate is final: no unexpanded entry can beat it
                // (candidate key <= group mindist <= member distance of any
                // point below that entry).
                (Some(r), Some(h)) if r <= h => break,
                (Some(_), None) => break,
                (None, None) => return None,
                // Otherwise expand the nearest entry in Hm.
                _ => self.expand_top(),
            }
        }
        let Reverse(c) = self.res[i].pop()?;
        Some((c.point, c.id, c.dist.get()))
    }

    /// De-heaps the top entry of `Hm`; directory entries are expanded, leaf
    /// pages scatter their points into every member's candidate heap.
    fn expand_top(&mut self) {
        if let Some(reason) = self.ctx.as_ref().and_then(|c| c.abort_reason()) {
            // Drop the whole frontier before touching the page: a buffered
            // candidate is no member's certified next neighbour without the
            // entries it would have to beat, so every member sees exhaustion.
            self.aborted = Some(reason);
            self.hm.clear();
            self.res.iter_mut().for_each(BinaryHeap::clear);
            return;
        }
        let Reverse(key) = self.hm.pop().expect("expand_top on empty Hm");
        let page = PageId(key.page);
        let ctx = self.ctx.as_ref();
        if key.level_height == 1 {
            let members = &self.members;
            let res = &mut self.res;
            self.tree.store().with_page_ctx(page, ctx, |bytes| {
                node::for_each_leaf_entry(bytes, |p, id| {
                    for (m, heap) in members.iter().zip(res.iter_mut()) {
                        heap.push(Reverse(Candidate {
                            dist: OrdF64::new(m.dist(&p)),
                            point: p,
                            id,
                        }));
                    }
                });
            });
        } else {
            let gm = self.group_mbr;
            let hm = &mut self.hm;
            self.tree.store().with_page_ctx(page, ctx, |bytes| {
                node::for_each_inner_entry(bytes, |mbr, child| {
                    hm.push(Reverse(GroupHeapKey {
                        dist: OrdF64::new(gm.mindist_rect(&mbr)),
                        page: child.0,
                        level_height: key.level_height - 1,
                    }));
                });
            });
        }
    }
}

impl RTree {
    /// Opens a grouped incremental ANN search for the given provider
    /// positions (one Hilbert group, §3.4.2). The search's I/O is charged
    /// to `ctx`, and the shared heap stops expanding entries once the
    /// context aborts ([`GroupAnn::abort_reason`]).
    pub fn group_ann(&self, members: Vec<Point>, ctx: Option<&QueryContext>) -> GroupAnn<'_> {
        GroupAnn::new(self, members, ctx.cloned())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cca_storage::PageStore;
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

    #[test]
    fn group_ann_yields_same_sequence_as_individual_cursors() {
        let items = random_items(2000, 41);
        let tree = RTree::bulk_load(PageStore::with_config(1024, 4096), &items);
        let members = vec![
            Point::new(100.0, 100.0),
            Point::new(120.0, 90.0),
            Point::new(95.0, 130.0),
        ];
        let mut ann = tree.group_ann(members.clone(), None);
        for (i, m) in members.iter().enumerate() {
            let mut solo = tree.inc_nn(*m, None);
            for step in 0..50 {
                let a = ann.next_nn(i).unwrap();
                let s = solo.next().unwrap();
                assert!(
                    (a.2 - s.2).abs() < 1e-12,
                    "member {i} step {step}: grouped {a:?} vs solo {s:?}"
                );
            }
        }
    }

    #[test]
    fn group_ann_exhausts_tree_per_member() {
        let items = random_items(300, 42);
        let tree = RTree::bulk_load(PageStore::with_config(1024, 1024), &items);
        let mut ann = tree.group_ann(vec![Point::new(0.0, 0.0), Point::new(999.0, 999.0)], None);
        for i in 0..2 {
            let mut n = 0;
            let mut last = 0.0;
            while let Some((_, _, d)) = ann.next_nn(i) {
                assert!(d >= last - 1e-12);
                last = d;
                n += 1;
            }
            assert_eq!(n, 300);
            assert!(ann.next_nn(i).is_none());
        }
    }

    #[test]
    fn grouped_search_saves_io_versus_individual() {
        let items = random_items(30000, 43);
        let tree = RTree::bulk_load(PageStore::with_config(1024, 16384), &items);
        tree.finish_build(1.0);

        // Ten co-located providers each pulling 200 NNs.
        let members: Vec<Point> = (0..10)
            .map(|i| Point::new(500.0 + i as f64, 500.0 - i as f64))
            .collect();

        tree.store().clear_cache();
        tree.store().reset_stats();
        let mut ann = tree.group_ann(members.clone(), None);
        for i in 0..members.len() {
            for _ in 0..200 {
                ann.next_nn(i).unwrap();
            }
        }
        let grouped_faults = tree.io_stats().faults;

        tree.store().clear_cache();
        tree.store().reset_stats();
        for &m in &members {
            let mut cur = tree.inc_nn(m, None);
            for _ in 0..200 {
                cur.next().unwrap();
            }
        }
        let solo_faults = tree.io_stats().faults;

        assert!(
            grouped_faults < solo_faults,
            "grouped ANN should fault less: grouped={grouped_faults} solo={solo_faults}"
        );
    }

    #[test]
    fn single_member_group_equals_inc_nn() {
        let items = random_items(800, 45);
        let tree = RTree::bulk_load(PageStore::with_config(1024, 1024), &items);
        let q = Point::new(42.0, 17.0);
        let mut ann = tree.group_ann(vec![q], None);
        let solo: Vec<f64> = tree.inc_nn(q, None).map(|(_, _, d)| d).collect();
        for (i, want) in solo.iter().enumerate() {
            let (_, _, d) = ann.next_nn(0).unwrap();
            assert!((d - want).abs() < 1e-12, "step {i}");
        }
    }

    #[test]
    fn aborted_group_yields_nothing_more_for_any_member() {
        let items = random_items(20000, 46);
        let tree = RTree::bulk_load(PageStore::with_config(1024, 8192), &items);
        tree.finish_build(1.0); // cold, tiny buffer: the search must fault
        let ctx = QueryContext::new().with_io_budget(6);
        let members: Vec<Point> = (0..4)
            .map(|i| Point::new(500.0 + 3.0 * i as f64, 500.0))
            .collect();
        let mut ann = tree.group_ann(members.clone(), Some(&ctx));
        let yielded = std::iter::from_fn(|| ann.next_nn(0)).count();
        assert!(yielded > 0, "the budget covers the first leaf");
        assert!(yielded < items.len(), "the budget must cut the scan short");
        assert_eq!(ann.abort_reason(), Some(AbortReason::IoBudgetExceeded));
        // Candidates buffered before the abort are not certified as any
        // member's next neighbour: every member's stream has ended.
        for i in 0..members.len() {
            assert_eq!(ann.next_nn(i), None, "member {i}");
        }
    }

    #[test]
    fn empty_tree_gives_no_neighbours() {
        let tree = RTree::bulk_load(PageStore::with_config(1024, 16), &[]);
        let mut ann = tree.group_ann(vec![Point::new(1.0, 1.0)], None);
        assert!(ann.next_nn(0).is_none());
    }
}
