//! The paged R-tree.

use cca_geo::Rect;
use cca_storage::{Aborted, IoStats, PageId, PageStore, QueryContext};

use crate::entry::ItemId;
use crate::node::{self, Node};

/// A disk-resident R-tree over 2-D points, the spatial access method the
/// paper assumes for the customer set `P` (§2.3, §3).
///
/// All page accesses go through the [`PageStore`]'s clock (second-chance)
/// buffer pool, so [`RTree::io_stats`] reports exactly the page faults the
/// paper charges at 10 ms each.
pub struct RTree {
    store: PageStore,
    root: PageId,
    /// Number of levels; 1 means the root is a leaf.
    height: u32,
    /// Number of indexed points.
    size: usize,
    leaf_cap: usize,
    inner_cap: usize,
}

impl RTree {
    /// Creates an empty tree (root = empty leaf) on the given store.
    pub fn new(store: PageStore) -> Self {
        let leaf_cap = node::leaf_capacity(store.page_size());
        let inner_cap = node::inner_capacity(store.page_size());
        assert!(leaf_cap >= 2 && inner_cap >= 2, "page size too small");
        let root = store.alloc_page();
        let empty = node::encode(&Node::Leaf(Vec::new()), store.page_size());
        store.write_page(root, &empty, None);
        RTree {
            store,
            root,
            height: 1,
            size: 0,
            leaf_cap,
            inner_cap,
        }
    }

    /// Number of indexed points.
    #[inline]
    pub fn len(&self) -> usize {
        self.size
    }

    /// True when no points are indexed.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.size == 0
    }

    /// Tree height (1 = the root is a leaf).
    #[inline]
    pub fn height(&self) -> u32 {
        self.height
    }

    /// Root page id.
    #[inline]
    pub fn root(&self) -> PageId {
        self.root
    }

    /// Maximum leaf entries per page.
    #[inline]
    pub fn leaf_capacity(&self) -> usize {
        self.leaf_cap
    }

    /// Maximum inner entries per page.
    #[inline]
    pub fn inner_capacity(&self) -> usize {
        self.inner_cap
    }

    /// The underlying page store.
    #[inline]
    pub fn store(&self) -> &PageStore {
        &self.store
    }

    /// MBR of the whole tree (empty rect if the tree is empty).
    pub fn root_mbr(&self) -> Rect {
        self.read_node(self.root).mbr()
    }

    /// I/O statistics accumulated by the buffer pool.
    pub fn io_stats(&self) -> IoStats {
        self.store.io_stats()
    }

    /// Applies the paper's experimental storage settings after construction:
    /// flushes dirty pages, sizes the buffer at `percent` of the tree's
    /// pages (§5.1 uses 1 %), cold-starts the cache and clears statistics so
    /// that only query I/O is charged.
    pub fn finish_build(&self, percent: f64) {
        self.store.flush();
        let pages = self.store.num_pages() as f64;
        let cap = ((pages * percent / 100.0).ceil() as usize).max(1);
        self.store.set_buffer_capacity(cap);
        self.store.clear_cache();
        self.store.reset_stats();
    }

    /// Reads and materialises a node (insert path, partitioning, debugging).
    pub fn read_node(&self, id: PageId) -> Node {
        self.store.with_page(id, node::decode)
    }

    /// Serialises and writes a node.
    pub fn write_node(&self, id: PageId, n: &Node) {
        let bytes = node::encode(n, self.store.page_size());
        self.store.write_page(id, &bytes, None);
    }

    /// [`RTree::read_node`] with the page access charged to `ctx`.
    ///
    /// Charging never aborts the access itself — maintenance ops stay
    /// atomic; an exhausted budget only surfaces at the next `ctx.check()`.
    pub(crate) fn read_node_ctx(&self, id: PageId, ctx: Option<&QueryContext>) -> Node {
        self.store.with_page_ctx(id, ctx, node::decode)
    }

    /// [`RTree::write_node`] with eviction write-backs charged to `ctx`.
    pub(crate) fn write_node_ctx(&self, id: PageId, ctx: Option<&QueryContext>, n: &Node) {
        let bytes = node::encode(n, self.store.page_size());
        self.store.write_page(id, &bytes, ctx);
    }

    pub(crate) fn alloc_node_ctx(&self, ctx: Option<&QueryContext>, n: &Node) -> PageId {
        let id = self.store.alloc_page();
        self.write_node_ctx(id, ctx, n);
        id
    }

    pub(crate) fn set_root(&mut self, root: PageId, height: u32) {
        self.root = root;
        self.height = height;
    }

    pub(crate) fn set_size(&mut self, size: usize) {
        self.size = size;
    }

    pub(crate) fn bump_size(&mut self) {
        self.size += 1;
    }

    pub(crate) fn dec_size(&mut self) {
        debug_assert!(self.size > 0, "delete on an empty tree slipped through");
        self.size -= 1;
    }

    /// Streams all points of the tree in depth-first order (test helper and
    /// CA-partition support). Charges the same I/O a real scan would.
    ///
    /// The scan's I/O is charged to `ctx`; it polls the context before
    /// every page visit and returns the typed [`Aborted`] error on
    /// cancellation, deadline expiry or an exhausted I/O budget instead of
    /// reading on.
    pub fn for_each_point(
        &self,
        mut f: impl FnMut(cca_geo::Point, ItemId),
        ctx: Option<&QueryContext>,
    ) -> Result<(), Aborted> {
        self.for_each_point_under(self.root, self.height, ctx, &mut f)
    }

    /// Streams all points below the given node.
    pub(crate) fn for_each_point_under(
        &self,
        page: PageId,
        level_height: u32,
        ctx: Option<&QueryContext>,
        f: &mut impl FnMut(cca_geo::Point, ItemId),
    ) -> Result<(), Aborted> {
        if let Some(ctx) = ctx {
            ctx.check()?;
        }
        if level_height == 1 {
            self.store.with_page_ctx(page, ctx, |bytes| {
                node::for_each_leaf_entry(bytes, f);
            });
        } else {
            let children: Vec<PageId> = self.store.with_page_ctx(page, ctx, |bytes| {
                let mut v = Vec::with_capacity(node::entry_count(bytes));
                node::for_each_inner_entry(bytes, |_, c| v.push(c));
                v
            });
            for c in children {
                self.for_each_point_under(c, level_height - 1, ctx, f)?;
            }
        }
        Ok(())
    }

    /// Checks structural invariants; used by tests after bulk load and
    /// inserts. Returns the number of points found.
    ///
    /// Verified invariants:
    /// * every inner entry's MBR equals the MBR of its child's contents,
    /// * all leaves sit at the same depth (`height`),
    /// * node occupancy never exceeds capacity.
    pub fn check_invariants(&self) -> usize {
        self.check_node(self.root, self.height, None)
    }

    fn check_node(&self, page: PageId, level_height: u32, expect_mbr: Option<Rect>) -> usize {
        let n = self.read_node(page);
        if let Some(expected) = expect_mbr {
            let actual = n.mbr();
            assert!(
                rect_close(&expected, &actual),
                "stale MBR at {page}: stored {expected:?} vs actual {actual:?}"
            );
        }
        match n {
            Node::Leaf(entries) => {
                assert_eq!(level_height, 1, "leaf at wrong depth");
                assert!(entries.len() <= self.leaf_cap);
                entries.len()
            }
            Node::Inner(entries) => {
                assert!(level_height > 1, "inner node at leaf depth");
                assert!(entries.len() <= self.inner_cap);
                assert!(!entries.is_empty(), "empty inner node");
                entries
                    .iter()
                    .map(|e| self.check_node(e.child, level_height - 1, Some(e.mbr)))
                    .sum()
            }
        }
    }
}

fn rect_close(a: &Rect, b: &Rect) -> bool {
    let eps = 1e-9;
    (a.lo.x - b.lo.x).abs() < eps
        && (a.lo.y - b.lo.y).abs() < eps
        && (a.hi.x - b.hi.x).abs() < eps
        && (a.hi.y - b.hi.y).abs() < eps
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entry::LeafEntry;
    use cca_geo::Point;

    #[test]
    fn empty_tree_properties() {
        let t = RTree::new(PageStore::with_config(1024, 16));
        assert!(t.is_empty());
        assert_eq!(t.height(), 1);
        assert_eq!(t.check_invariants(), 0);
        assert!(t.root_mbr().is_empty());
    }

    #[test]
    fn capacities_follow_page_size() {
        let t = RTree::new(PageStore::with_config(1024, 16));
        assert_eq!(t.leaf_capacity(), 42);
        assert_eq!(t.inner_capacity(), 28);
    }

    #[test]
    fn finish_build_applies_one_percent_rule() {
        let store = PageStore::with_config(1024, 4096);
        // Allocate ~300 pages by hand to exercise the rule.
        let t = RTree::new(store);
        for _ in 0..299 {
            t.store().alloc_page();
        }
        t.finish_build(1.0);
        assert_eq!(t.store().buffer_capacity(), 3);
        assert_eq!(t.io_stats(), IoStats::default());
    }

    #[test]
    fn for_each_point_on_single_leaf() {
        let mut t = RTree::new(PageStore::with_config(1024, 16));
        let n = Node::Leaf(vec![
            LeafEntry::new(Point::new(1.0, 1.0), 10),
            LeafEntry::new(Point::new(2.0, 2.0), 20),
        ]);
        t.write_node(t.root(), &n);
        t.set_size(2);
        let mut seen = Vec::new();
        t.for_each_point(|p, id| seen.push((p, id)), None).unwrap();
        assert_eq!(seen.len(), 2);
        assert_eq!(seen[0].1, 10);
        assert_eq!(seen[1].1, 20);
    }
}
