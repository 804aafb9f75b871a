//! Dynamic insertion (Guttman R-tree with quadratic split).
//!
//! The paper's experiments index a static `P`, but a credible R-tree library
//! supports incremental maintenance; dynamic insertion also lets tests build
//! adversarial trees that STR packing would never produce.

use cca_geo::{Point, Rect};
use cca_storage::{PageId, QueryContext};

use crate::entry::{InnerEntry, ItemId, LeafEntry};
use crate::node::Node;
use crate::tree::RTree;

/// Minimum fill factor for splits, as a fraction of capacity (Guttman's `m`).
const MIN_FILL: f64 = 0.4;

impl RTree {
    /// Inserts one point, splitting nodes (and growing the root) as needed.
    pub fn insert(&mut self, point: Point, id: ItemId) {
        self.insert_ctx(point, id, None);
    }

    /// [`RTree::insert`] with the operation's page traffic charged to `ctx`
    /// for per-query I/O attribution under dynamic workloads.
    ///
    /// Maintenance is atomic: the insert always runs to completion. An
    /// exhausted I/O budget or expired deadline is recorded on the context
    /// — and will trip the caller's next `ctx.check()` poll — but never
    /// tears the tree mid-update.
    pub fn insert_ctx(&mut self, point: Point, id: ItemId, ctx: Option<&QueryContext>) {
        assert!(point.is_finite(), "non-finite point inserted");
        self.insert_no_count(point, id, ctx);
        self.bump_size();
    }

    /// Insert without touching `size` — the delete path re-homes condensed
    /// orphans through this (they never left the tree, logically).
    pub(crate) fn insert_no_count(&mut self, point: Point, id: ItemId, ctx: Option<&QueryContext>) {
        if let Some((left, right)) = self.insert_rec(self.root(), point, id, ctx) {
            // Root split: grow the tree by one level.
            let new_root = self.alloc_node_ctx(ctx, &Node::Inner(vec![left, right]));
            let h = self.height() + 1;
            self.set_root(new_root, h);
        }
    }

    /// Recursive insert; returns `Some((left, right))` when `page` split.
    fn insert_rec(
        &mut self,
        page: PageId,
        point: Point,
        id: ItemId,
        ctx: Option<&QueryContext>,
    ) -> Option<(InnerEntry, InnerEntry)> {
        let mut n = self.read_node_ctx(page, ctx);
        match &mut n {
            Node::Leaf(entries) => {
                entries.push(LeafEntry::new(point, id));
                if entries.len() <= self.leaf_capacity() {
                    self.write_node_ctx(page, ctx, &n);
                    return None;
                }
                let (a, b) = quadratic_split(
                    std::mem::take(entries),
                    |e| Rect::from_point(e.point),
                    min_fill(self.leaf_capacity()),
                );
                let mbr_a = a.iter().map(|e| e.point).collect();
                let mbr_b = b.iter().map(|e| e.point).collect();
                self.write_node_ctx(page, ctx, &Node::Leaf(a));
                let right_page = self.alloc_node_ctx(ctx, &Node::Leaf(b));
                Some((
                    InnerEntry::new(mbr_a, page),
                    InnerEntry::new(mbr_b, right_page),
                ))
            }
            Node::Inner(entries) => {
                let chosen = choose_subtree(entries, point);
                let split = self.insert_rec(entries[chosen].child, point, id, ctx);
                match split {
                    None => {
                        // Child absorbed the point: refresh its MBR.
                        entries[chosen].mbr.expand_point(&point);
                        self.write_node_ctx(page, ctx, &n);
                        None
                    }
                    Some((left, right)) => {
                        entries[chosen] = left;
                        entries.push(right);
                        if entries.len() <= self.inner_capacity() {
                            self.write_node_ctx(page, ctx, &n);
                            return None;
                        }
                        let (a, b) = quadratic_split(
                            std::mem::take(entries),
                            |e| e.mbr,
                            min_fill(self.inner_capacity()),
                        );
                        let mbr_a = a.iter().fold(Rect::empty(), |acc, e| acc.union(&e.mbr));
                        let mbr_b = b.iter().fold(Rect::empty(), |acc, e| acc.union(&e.mbr));
                        self.write_node_ctx(page, ctx, &Node::Inner(a));
                        let right_page = self.alloc_node_ctx(ctx, &Node::Inner(b));
                        Some((
                            InnerEntry::new(mbr_a, page),
                            InnerEntry::new(mbr_b, right_page),
                        ))
                    }
                }
            }
        }
    }
}

pub(crate) fn min_fill(cap: usize) -> usize {
    ((cap as f64 * MIN_FILL) as usize).max(1)
}

/// Guttman's `ChooseSubtree`: least area enlargement, ties by smaller area.
fn choose_subtree(entries: &[InnerEntry], point: Point) -> usize {
    let target = Rect::from_point(point);
    let mut best = 0usize;
    let mut best_enlarge = f64::INFINITY;
    let mut best_area = f64::INFINITY;
    for (i, e) in entries.iter().enumerate() {
        let enlarge = e.mbr.enlargement(&target);
        let area = e.mbr.area();
        if enlarge < best_enlarge || (enlarge == best_enlarge && area < best_area) {
            best = i;
            best_enlarge = enlarge;
            best_area = area;
        }
    }
    best
}

/// Guttman's quadratic split.
///
/// Picks the pair of entries whose combined MBR wastes the most area as
/// seeds, then distributes the rest by maximal preference difference,
/// honouring the minimum fill `m`.
fn quadratic_split<E: Clone>(
    entries: Vec<E>,
    rect_of: impl Fn(&E) -> Rect,
    m: usize,
) -> (Vec<E>, Vec<E>) {
    debug_assert!(entries.len() >= 2);
    // Seed selection: maximise dead area d = area(union) - area(a) - area(b).
    let (mut seed_a, mut seed_b, mut worst) = (0usize, 1usize, f64::NEG_INFINITY);
    for i in 0..entries.len() {
        for j in (i + 1)..entries.len() {
            let ra = rect_of(&entries[i]);
            let rb = rect_of(&entries[j]);
            let d = ra.union(&rb).area() - ra.area() - rb.area();
            if d > worst {
                worst = d;
                seed_a = i;
                seed_b = j;
            }
        }
    }

    let total = entries.len();
    let mut group_a: Vec<E> = Vec::with_capacity(total);
    let mut group_b: Vec<E> = Vec::with_capacity(total);
    let mut mbr_a = rect_of(&entries[seed_a]);
    let mut mbr_b = rect_of(&entries[seed_b]);
    let mut rest: Vec<E> = Vec::with_capacity(total - 2);
    for (i, e) in entries.into_iter().enumerate() {
        if i == seed_a {
            group_a.push(e);
        } else if i == seed_b {
            group_b.push(e);
        } else {
            rest.push(e);
        }
    }

    while let Some(idx) = pick_next(&rest, &rect_of, &mbr_a, &mbr_b) {
        let e = rest.swap_remove(idx);
        let remaining = rest.len();
        // Forced assignment: if a group needs every remaining entry
        // (including this one) to reach minimum fill, it takes them all.
        let need_a = m.saturating_sub(group_a.len());
        let need_b = m.saturating_sub(group_b.len());
        let r = rect_of(&e);
        let to_a = if need_a > remaining {
            true
        } else if need_b > remaining {
            false
        } else {
            let ea = mbr_a.enlargement(&r);
            let eb = mbr_b.enlargement(&r);
            if ea != eb {
                ea < eb
            } else if mbr_a.area() != mbr_b.area() {
                mbr_a.area() < mbr_b.area()
            } else {
                group_a.len() <= group_b.len()
            }
        };
        if to_a {
            mbr_a = mbr_a.union(&r);
            group_a.push(e);
        } else {
            mbr_b = mbr_b.union(&r);
            group_b.push(e);
        }
    }
    (group_a, group_b)
}

/// Guttman's `PickNext`: the entry with maximal |d(a) − d(b)| preference.
fn pick_next<E>(
    rest: &[E],
    rect_of: &impl Fn(&E) -> Rect,
    mbr_a: &Rect,
    mbr_b: &Rect,
) -> Option<usize> {
    if rest.is_empty() {
        return None;
    }
    let mut best = 0usize;
    let mut best_diff = f64::NEG_INFINITY;
    for (i, e) in rest.iter().enumerate() {
        let r = rect_of(e);
        let diff = (mbr_a.enlargement(&r) - mbr_b.enlargement(&r)).abs();
        if diff > best_diff {
            best_diff = diff;
            best = i;
        }
    }
    Some(best)
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

    #[test]
    fn insert_single_point() {
        let mut t = fresh_tree();
        t.insert(Point::new(5.0, 5.0), 1);
        assert_eq!(t.len(), 1);
        assert_eq!(t.check_invariants(), 1);
        let nn = t.knn(Point::new(5.0, 5.0), 1);
        assert_eq!(nn[0].1, 1);
    }

    #[test]
    fn insert_until_leaf_splits() {
        let mut t = fresh_tree();
        for i in 0..43 {
            t.insert(Point::new(i as f64, i as f64), i as ItemId);
        }
        assert_eq!(t.height(), 2, "43rd point must split the 42-entry leaf");
        assert_eq!(t.check_invariants(), 43);
    }

    #[test]
    fn insert_thousands_keeps_invariants() {
        let mut t = fresh_tree();
        let mut rng = StdRng::seed_from_u64(31);
        let items: Vec<(Point, ItemId)> = (0..3000)
            .map(|i| {
                (
                    Point::new(rng.random_range(0.0..1000.0), rng.random_range(0.0..1000.0)),
                    i as ItemId,
                )
            })
            .collect();
        for &(p, id) in &items {
            t.insert(p, id);
        }
        assert_eq!(t.check_invariants(), 3000);
        assert!(t.height() >= 3);

        // Queries agree with brute force after dynamic construction.
        let q = Point::new(500.0, 500.0);
        let got = t.knn(q, 10);
        let mut want: Vec<f64> = items.iter().map(|(p, _)| q.dist(p)).collect();
        want.sort_by(f64::total_cmp);
        for (g, w) in got.iter().zip(&want) {
            assert!((g.2 - w).abs() < 1e-12);
        }
    }

    #[test]
    fn skewed_insertion_order_still_balanced() {
        // Sorted insertion is the classic R-tree worst case; invariants and
        // query correctness must still hold.
        let mut t = fresh_tree();
        for i in 0..2000 {
            t.insert(Point::new(i as f64 * 0.5, 0.0), i as ItemId);
        }
        assert_eq!(t.check_invariants(), 2000);
        let hits = t.range_search(Point::new(100.0, 0.0), 10.0, None).unwrap();
        assert_eq!(hits.len(), 41); // x in [90,110] step 0.5 -> 41 points
    }

    #[test]
    fn duplicate_points_insertable() {
        let mut t = fresh_tree();
        for i in 0..200 {
            t.insert(Point::new(7.0, 7.0), i as ItemId);
        }
        assert_eq!(t.check_invariants(), 200);
        assert_eq!(
            t.range_search(Point::new(7.0, 7.0), 0.0, None)
                .unwrap()
                .len(),
            200
        );
    }

    #[test]
    fn mixed_bulk_and_dynamic() {
        let mut rng = StdRng::seed_from_u64(32);
        let items: Vec<(Point, ItemId)> = (0..1000)
            .map(|i| {
                (
                    Point::new(rng.random_range(0.0..1000.0), rng.random_range(0.0..1000.0)),
                    i as ItemId,
                )
            })
            .collect();
        let mut t = RTree::bulk_load(PageStore::with_config(1024, 4096), &items);
        for i in 1000..1500 {
            t.insert(
                Point::new(rng.random_range(0.0..1000.0), rng.random_range(0.0..1000.0)),
                i as ItemId,
            );
        }
        assert_eq!(t.check_invariants(), 1500);
        assert_eq!(t.len(), 1500);
    }

    #[test]
    fn quadratic_split_respects_min_fill() {
        let entries: Vec<LeafEntry> = (0..43)
            .map(|i| LeafEntry::new(Point::new(i as f64, (i * 7 % 13) as f64), i as ItemId))
            .collect();
        let m = min_fill(42);
        let (a, b) = quadratic_split(entries, |e| Rect::from_point(e.point), m);
        assert_eq!(a.len() + b.len(), 43);
        assert!(a.len() >= m, "group a below min fill: {}", a.len());
        assert!(b.len() >= m, "group b below min fill: {}", b.len());
    }
}
