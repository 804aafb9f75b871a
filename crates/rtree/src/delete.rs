//! Dynamic deletion (Guttman `Delete` + `CondenseTree`).
//!
//! Completes the maintenance pair started by [`crate::insert`]: a dynamic
//! world where customers depart needs the index to shrink, not just grow.
//! Underfull nodes are condensed the way Guttman prescribed — the node is
//! dissolved and its surviving points re-inserted from the root — rather
//! than rebalanced in place, which keeps the occupancy invariant without a
//! sibling-borrowing protocol.
//!
//! A dissolved node's page, and a shrunk root's, is freed
//! ([`cca_storage::PageStore::free_page`]): its frame and bytes go, so a
//! long-lived dynamic tree holds memory for its live nodes only. Page ids
//! are not reused, so allocation stays append-only, exactly like the
//! insert path's split pages.

use cca_geo::Point;
use cca_storage::{PageId, QueryContext};

use crate::entry::{ItemId, LeafEntry};
use crate::insert::min_fill;
use crate::node::Node;
use crate::tree::RTree;

impl RTree {
    /// Deletes the entry matching `point` and `id` exactly, condensing
    /// underfull nodes and shrinking the root. Returns `false` (and leaves
    /// the tree untouched) when no such entry exists.
    pub fn delete(&mut self, point: Point, id: ItemId) -> bool {
        self.delete_ctx(point, id, None)
    }

    /// [`RTree::delete`] with the operation's page traffic charged to `ctx`
    /// for per-query I/O attribution under dynamic workloads.
    ///
    /// Like [`RTree::insert_ctx`], maintenance is atomic: the delete always
    /// runs to completion (including orphan re-insertion), so a budget or
    /// deadline trip recorded on `ctx` surfaces at the caller's next
    /// `ctx.check()` poll with the tree in a consistent state.
    pub fn delete_ctx(&mut self, point: Point, id: ItemId, ctx: Option<&QueryContext>) -> bool {
        let mut orphans: Vec<LeafEntry> = Vec::new();
        let found = self
            .delete_rec(self.root(), point, id, ctx, &mut orphans)
            .is_some();
        if !found {
            return false;
        }
        // Root shrink: an inner root left with a single entry promotes its
        // child (repeatedly, if condensation cascaded).
        while self.height() > 1 {
            match self.read_node_ctx(self.root(), ctx) {
                Node::Inner(entries) if entries.len() == 1 => {
                    let (old, child) = (self.root(), entries[0].child);
                    let h = self.height() - 1;
                    self.set_root(child, h);
                    self.store().free_page(old);
                }
                _ => break,
            }
        }
        // Re-home the points of every dissolved node. They never left the
        // tree logically, so they bypass the size counter.
        for e in orphans {
            self.insert_no_count(e.point, e.id, ctx);
        }
        self.dec_size();
        true
    }

    /// Recursive find-leaf + condense. Returns `None` when the entry is not
    /// under `page`; `Some(underflow)` when it was removed, with `underflow`
    /// signalling that `page` fell below minimum fill and should be
    /// dissolved by its parent.
    fn delete_rec(
        &mut self,
        page: PageId,
        point: Point,
        id: ItemId,
        ctx: Option<&QueryContext>,
        orphans: &mut Vec<LeafEntry>,
    ) -> Option<bool> {
        let mut n = self.read_node_ctx(page, ctx);
        match &mut n {
            Node::Leaf(entries) => {
                let pos = entries
                    .iter()
                    .position(|e| e.id == id && e.point == point)?;
                entries.swap_remove(pos);
                let underflow = entries.len() < min_fill(self.leaf_capacity());
                self.write_node_ctx(page, ctx, &n);
                Some(underflow)
            }
            Node::Inner(entries) => {
                // The point may fall inside several overlapping child MBRs;
                // probe each candidate until one owns the entry.
                let mut hit: Option<(usize, bool)> = None;
                for (i, entry) in entries.iter().enumerate() {
                    if !entry.mbr.contains_point(&point) {
                        continue;
                    }
                    if let Some(under) = self.delete_rec(entry.child, point, id, ctx, orphans) {
                        hit = Some((i, under));
                        break;
                    }
                }
                let (i, child_underflow) = hit?;
                if child_underflow && entries.len() > 1 {
                    // Condense: dissolve the underfull child, queueing its
                    // surviving points for re-insertion from the root.
                    let child = entries[i].child;
                    self.collect_leaf_entries(child, ctx, orphans);
                    entries.swap_remove(i);
                } else {
                    // The child absorbed the removal (or is our only child,
                    // left for the root-shrink loop): refresh its exact MBR.
                    entries[i].mbr = self.read_node_ctx(entries[i].child, ctx).mbr();
                }
                let underflow = entries.len() < min_fill(self.inner_capacity());
                self.write_node_ctx(page, ctx, &n);
                Some(underflow)
            }
        }
    }

    /// Flattens a dissolved subtree to its leaf entries and frees its
    /// pages. Unlike [`RTree::for_each_point_under`] this never polls the
    /// context — condensation must finish once the entry is out.
    fn collect_leaf_entries(
        &self,
        page: PageId,
        ctx: Option<&QueryContext>,
        out: &mut Vec<LeafEntry>,
    ) {
        match self.read_node_ctx(page, ctx) {
            Node::Leaf(entries) => out.extend(entries),
            Node::Inner(entries) => {
                for e in entries {
                    self.collect_leaf_entries(e.child, ctx, out);
                }
            }
        }
        self.store().free_page(page);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cca_storage::PageStore;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn fresh_tree() -> RTree {
        RTree::new(PageStore::with_config(1024, 4096))
    }

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
    fn delete_from_single_leaf() {
        let mut t = fresh_tree();
        t.insert(Point::new(5.0, 5.0), 1);
        t.insert(Point::new(6.0, 6.0), 2);
        assert!(t.delete(Point::new(5.0, 5.0), 1));
        assert_eq!(t.len(), 1);
        assert_eq!(t.check_invariants(), 1);
        assert_eq!(t.knn(Point::new(0.0, 0.0), 1)[0].1, 2);
    }

    #[test]
    fn delete_missing_returns_false_and_leaves_tree_alone() {
        let mut t = fresh_tree();
        for &(p, id) in &random_items(100, 7) {
            t.insert(p, id);
        }
        // Same id, wrong position; wrong id, real position; both absent.
        assert!(!t.delete(Point::new(-1.0, -1.0), 0));
        assert!(!t.delete(Point::new(5000.0, 5000.0), 9999));
        assert_eq!(t.len(), 100);
        assert_eq!(t.check_invariants(), 100);
    }

    #[test]
    fn delete_everything_empties_the_tree() {
        let mut t = fresh_tree();
        let items = random_items(500, 8);
        for &(p, id) in &items {
            t.insert(p, id);
        }
        assert!(t.height() > 1);
        for &(p, id) in &items {
            assert!(t.delete(p, id), "every inserted entry must be deletable");
        }
        assert_eq!(t.len(), 0);
        assert_eq!(t.check_invariants(), 0);
        assert_eq!(t.height(), 1, "condense + root shrink must collapse");
        assert!(t.root_mbr().is_empty());
    }

    #[test]
    fn interleaved_insert_delete_keeps_queries_exact() {
        let mut t = fresh_tree();
        let items = random_items(2000, 9);
        let mut live: Vec<(Point, ItemId)> = Vec::new();
        for (i, &(p, id)) in items.iter().enumerate() {
            t.insert(p, id);
            live.push((p, id));
            if i % 3 == 2 {
                // Delete a pseudo-random live entry.
                let victim = (i * 7919) % live.len();
                let (vp, vid) = live.swap_remove(victim);
                assert!(t.delete(vp, vid));
            }
        }
        assert_eq!(t.len(), live.len());
        assert_eq!(t.check_invariants(), live.len());

        let q = Point::new(500.0, 500.0);
        let got = t.knn(q, 20);
        let mut want: Vec<f64> = live.iter().map(|(p, _)| q.dist(p)).collect();
        want.sort_by(f64::total_cmp);
        for (g, w) in got.iter().zip(&want) {
            assert!((g.2 - w).abs() < 1e-12);
        }
    }

    /// Under balanced churn the live tree keeps its size, and so does the
    /// memory it holds: dissolved nodes and shrunk roots give their frames
    /// back, though page ids keep counting up.
    #[test]
    fn churn_frees_dissolved_pages() {
        let mut t = fresh_tree();
        let items = random_items(6000, 11);
        let (start, churn) = items.split_at(1000);
        for &(p, id) in start {
            t.insert(p, id);
        }
        let live_pages = t.store().cached_pages();
        for (i, &(p, id)) in churn.iter().enumerate() {
            t.insert(p, id);
            let (vp, vid) = items[i];
            assert!(t.delete(vp, vid));
        }
        assert_eq!(t.check_invariants(), 1000);
        assert!(
            t.store().num_pages() > 2 * live_pages,
            "the churn split and dissolved nodes"
        );
        assert!(
            t.store().cached_pages() <= 2 * live_pages,
            "{} frames for {live_pages} pages of live nodes",
            t.store().cached_pages()
        );
    }

    #[test]
    fn duplicate_points_delete_one_at_a_time() {
        let mut t = fresh_tree();
        for i in 0..100 {
            t.insert(Point::new(7.0, 7.0), i as ItemId);
        }
        for i in 0..100 {
            assert!(t.delete(Point::new(7.0, 7.0), i as ItemId));
            assert_eq!(t.len(), 99 - i);
            t.check_invariants();
        }
    }

    #[test]
    fn delete_ctx_charges_io_and_stays_atomic_past_budget() {
        let items = random_items(3000, 10);
        let mut t = RTree::bulk_load(PageStore::with_config(1024, 4096), &items);
        t.finish_build(1.0); // tiny cold buffer: every descent faults

        let ctx = QueryContext::new().with_io_budget(1);
        let (p, id) = items[1234];
        assert!(t.delete_ctx(p, id, Some(&ctx)));
        let stats = ctx.stats();
        assert!(
            stats.faults >= 1,
            "cold descent must charge faults to the context: {stats:?}"
        );
        // The budget tripped mid-delete, but the operation completed and the
        // tree is whole; only the *next* poll observes the abort.
        assert_eq!(t.check_invariants(), 2999);
        assert!(ctx.check().is_err(), "budget exhaustion must be recorded");
    }
}
