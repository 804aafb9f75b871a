//! Sort-Tile-Recursive (STR) bulk loading.
//!
//! The paper's evaluation indexes a *static* customer set, for which packed
//! bulk loading is the standard construction. STR packs points into fully
//! filled leaves tiled along x then y, then packs each upper level the same
//! way until a single root remains.
//!
//! Page ids follow STR emission order, level by level from the leaves up.
//! The simulated disk charges a flat count per read, so placement buys no
//! I/O discount; it only decides which of two nodes at equal mindist the
//! best-first search (`ann.rs`, keyed on the page id) expands first.

use cca_geo::{Point, Rect};
use cca_storage::{PageId, PageStore};

use crate::entry::{InnerEntry, ItemId, LeafEntry};
use crate::node::Node;
use crate::tree::RTree;

impl RTree {
    /// Bulk loads a tree from `items` using STR packing.
    ///
    /// Duplicate positions are allowed; ids are the caller's identifiers (the
    /// CCA algorithms use the customer's index in `P`).
    pub fn bulk_load(store: PageStore, items: &[(Point, ItemId)]) -> RTree {
        let mut tree = RTree::new(store);
        if items.is_empty() {
            return tree;
        }
        let leaf_cap = tree.leaf_capacity();
        let inner_cap = tree.inner_capacity();

        // --- Leaf level ------------------------------------------------
        let mut sorted: Vec<LeafEntry> = items
            .iter()
            .map(|&(p, id)| {
                assert!(p.is_finite(), "non-finite point in bulk load");
                LeafEntry::new(p, id)
            })
            .collect();
        let leaves = str_tiles(&mut sorted, leaf_cap, |e| e.point);
        let nodes: Vec<(Rect, Node)> = leaves
            .into_iter()
            .map(|chunk| {
                let mbr = chunk.iter().map(|e| e.point).collect();
                (mbr, Node::Leaf(chunk))
            })
            .collect();
        let mut level = write_level(&tree, nodes);
        let mut height = 1u32;

        // --- Upper levels ----------------------------------------------
        while level.len() > 1 {
            let tiles = str_tiles(&mut level, inner_cap, |e| e.mbr.center());
            let nodes: Vec<(Rect, Node)> = tiles
                .into_iter()
                .map(|chunk| {
                    let mbr = chunk.iter().fold(Rect::empty(), |acc, e| acc.union(&e.mbr));
                    (mbr, Node::Inner(chunk))
                })
                .collect();
            level = write_level(&tree, nodes);
            height += 1;
        }

        let root_entry = level.pop().expect("non-empty input yields a root");
        let root: PageId = root_entry.child;
        tree.set_root(root, height);
        tree.set_size(items.len());
        tree
    }
}

/// Writes one level's nodes to freshly allocated pages, in STR order, and
/// returns the entries that point at them.
fn write_level(tree: &RTree, nodes: Vec<(Rect, Node)>) -> Vec<InnerEntry> {
    nodes
        .into_iter()
        .map(|(mbr, node)| {
            let page = tree.store().alloc_page();
            tree.write_node(page, &node);
            InnerEntry::new(mbr, page)
        })
        .collect()
}

/// Tiles `entries` into chunks of at most `cap` by the STR rule: sort by x,
/// cut into `s = ceil(sqrt(ceil(n / cap)))` vertical slices, sort each slice
/// by y, and cut into runs of `cap`.
fn str_tiles<E: Clone>(entries: &mut [E], cap: usize, key: impl Fn(&E) -> Point) -> Vec<Vec<E>> {
    let n = entries.len();
    let num_nodes = n.div_ceil(cap);
    let slices = (num_nodes as f64).sqrt().ceil() as usize;
    let slice_size = n.div_ceil(slices);

    entries.sort_by(|a, b| key(a).x.total_cmp(&key(b).x));
    let mut out = Vec::with_capacity(num_nodes);
    for slice in entries.chunks_mut(slice_size.max(1)) {
        slice.sort_by(|a, b| key(a).y.total_cmp(&key(b).y));
        for chunk in slice.chunks(cap) {
            out.push(chunk.to_vec());
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
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

    fn build(n: usize, seed: u64) -> (RTree, Vec<(Point, ItemId)>) {
        let items = random_items(n, seed);
        let tree = RTree::bulk_load(PageStore::with_config(1024, 4096), &items);
        (tree, items)
    }

    #[test]
    fn bulk_load_empty() {
        let tree = RTree::bulk_load(PageStore::with_config(1024, 16), &[]);
        assert!(tree.is_empty());
        assert_eq!(tree.check_invariants(), 0);
    }

    #[test]
    fn bulk_load_single_point() {
        let items = vec![(Point::new(5.0, 5.0), 99)];
        let tree = RTree::bulk_load(PageStore::with_config(1024, 16), &items);
        assert_eq!(tree.len(), 1);
        assert_eq!(tree.height(), 1);
        assert_eq!(tree.check_invariants(), 1);
    }

    #[test]
    fn bulk_load_one_full_leaf() {
        let (tree, _) = build(42, 1);
        assert_eq!(tree.height(), 1, "42 points fit in one 1 KB leaf");
        assert_eq!(tree.check_invariants(), 42);
    }

    #[test]
    fn bulk_load_two_levels() {
        let (tree, _) = build(43, 2);
        assert_eq!(tree.height(), 2);
        assert_eq!(tree.check_invariants(), 43);
    }

    #[test]
    fn bulk_load_three_levels() {
        // > 42 * 28 = 1176 points forces height 3.
        let (tree, _) = build(5000, 3);
        assert_eq!(tree.height(), 3);
        assert_eq!(tree.check_invariants(), 5000);
    }

    #[test]
    fn all_points_preserved() {
        let (tree, items) = build(2500, 4);
        let mut got = Vec::new();
        tree.for_each_point(|p, id| got.push((p, id)), None)
            .unwrap();
        assert_eq!(got.len(), items.len());
        let mut got_ids: Vec<ItemId> = got.iter().map(|&(_, id)| id).collect();
        got_ids.sort_unstable();
        let expect: Vec<ItemId> = (0..2500).collect();
        assert_eq!(got_ids, expect);
    }

    #[test]
    fn duplicate_positions_allowed() {
        let items: Vec<(Point, ItemId)> = (0..100).map(|i| (Point::new(1.0, 1.0), i)).collect();
        let tree = RTree::bulk_load(PageStore::with_config(1024, 64), &items);
        assert_eq!(tree.check_invariants(), 100);
    }

    #[test]
    fn page_count_is_near_optimal() {
        let (tree, _) = build(4200, 5);
        // 4200 points / 42 per leaf = 100 leaves; inner overhead is small.
        let pages = tree.store().num_pages();
        assert!(pages >= 101, "too few pages: {pages}");
        assert!(pages <= 115, "packing wasted pages: {pages}");
    }

    #[test]
    fn str_tiles_produces_bounded_chunks() {
        let mut entries: Vec<LeafEntry> = random_items(1000, 7)
            .into_iter()
            .map(|(p, id)| LeafEntry::new(p, id))
            .collect();
        let tiles = str_tiles(&mut entries, 42, |e| e.point);
        assert_eq!(tiles.iter().map(Vec::len).sum::<usize>(), 1000);
        assert!(tiles.iter().all(|t| t.len() <= 42 && !t.is_empty()));
    }
}
