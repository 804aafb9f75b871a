//! Diagonal-bounded partition descent for Customer Approximation (§4.2).
//!
//! CA traverses the R-tree from the root and cuts it into entries whose MBR
//! diagonal is at most δ. Oversized leaves are *conceptually* split in half
//! along their longest dimension until each part satisfies δ. The resulting
//! groups carry their member points (needed later by the refinement phase)
//! and expose the representative (MBR centre) and weight (member count) used
//! by the concise matching phase.

use cca_geo::{Point, Rect};
use cca_storage::{Aborted, PageId, QueryContext};

use crate::entry::ItemId;
use crate::node::{self};
use crate::tree::RTree;

/// A group of customers produced by the CA partitioning phase.
#[derive(Clone, Debug)]
pub struct CustomerGroup {
    /// MBR of the group (diagonal ≤ δ by construction).
    pub mbr: Rect,
    /// The actual customers inside the group.
    pub members: Vec<(Point, ItemId)>,
}

impl CustomerGroup {
    /// The group representative: the geometric centroid of the entry
    /// ("a representative point g located at the geometric centroid of e",
    /// §4.2), i.e. the MBR centre — giving the δ/2 bound of Theorem 4.
    pub fn representative(&self) -> Point {
        self.mbr.center()
    }

    /// The representative weight `g.w`: number of points in the subtree.
    pub fn weight(&self) -> usize {
        self.members.len()
    }
}

impl RTree {
    /// Partitions the indexed points into groups of MBR diagonal ≤ `delta`.
    ///
    /// Implements the CA partitioning phase (§4.2) including the conceptual
    /// splitting of oversized leaves. The optional merge step that coalesces
    /// small neighbouring entries into hyper-entries lives in `cca-core`
    /// (it needs Hilbert ordering and is shared with SA grouping).
    ///
    /// Every returned group is non-empty and the groups partition `P`.
    ///
    /// The descent's I/O is charged to `ctx`; it polls the context before
    /// every page visit and returns the typed [`Aborted`] error on
    /// cancellation, deadline expiry or an exhausted I/O budget.
    pub fn partition_by_diagonal(
        &self,
        delta: f64,
        ctx: Option<&QueryContext>,
    ) -> Result<Vec<CustomerGroup>, Aborted> {
        assert!(delta > 0.0, "delta must be positive");
        let mut out = Vec::new();
        if self.is_empty() {
            return Ok(out);
        }
        self.partition_rec(self.root(), self.height(), delta, ctx, &mut out)?;
        Ok(out)
    }

    fn partition_rec(
        &self,
        page: PageId,
        level_height: u32,
        delta: f64,
        ctx: Option<&QueryContext>,
        out: &mut Vec<CustomerGroup>,
    ) -> Result<(), Aborted> {
        if let Some(ctx) = ctx {
            ctx.check()?;
        }
        if level_height > 1 {
            // Inner node: entries small enough become groups wholesale;
            // larger ones are descended into.
            let entries: Vec<(Rect, PageId)> = self.store().with_page_ctx(page, ctx, |bytes| {
                let mut v = Vec::with_capacity(node::entry_count(bytes));
                node::for_each_inner_entry(bytes, |mbr, child| v.push((mbr, child)));
                v
            });
            for (mbr, child) in entries {
                if mbr.diagonal() <= delta {
                    let mut members = Vec::new();
                    self.for_each_point_under(child, level_height - 1, ctx, &mut |p, id| {
                        members.push((p, id));
                    })?;
                    if !members.is_empty() {
                        out.push(CustomerGroup { mbr, members });
                    }
                } else {
                    self.partition_rec(child, level_height - 1, delta, ctx, out)?;
                }
            }
            return Ok(());
        }

        // Leaf: collect the points, then conceptually split until the
        // δ constraint holds.
        let mut members = Vec::new();
        self.store().with_page_ctx(page, ctx, |bytes| {
            node::for_each_leaf_entry(bytes, |p, id| members.push((p, id)));
        });
        if members.is_empty() {
            return Ok(());
        }
        let mbr: Rect = members.iter().map(|&(p, _)| p).collect();
        split_until_delta(mbr, members, delta, out);
        Ok(())
    }
}

/// Recursively halves `region` along its longest dimension until the diagonal
/// of each part's *population MBR* is ≤ δ, emitting non-empty groups.
fn split_until_delta(
    region: Rect,
    members: Vec<(Point, ItemId)>,
    delta: f64,
    out: &mut Vec<CustomerGroup>,
) {
    // The group MBR reported is the tight MBR of the members: it can only be
    // smaller than the conceptual region, preserving the δ guarantee.
    let tight: Rect = members.iter().map(|&(p, _)| p).collect();
    if tight.diagonal() <= delta {
        out.push(CustomerGroup {
            mbr: tight,
            members,
        });
        return;
    }
    let (a, b) = region.split_longest();
    debug_assert!(
        a.diagonal() < region.diagonal(),
        "split must shrink the region"
    );
    let mut left = Vec::new();
    let mut right = Vec::new();
    for (p, id) in members {
        // Assign border points to the left half deterministically.
        if a.contains_point(&p) {
            left.push((p, id));
        } else {
            right.push((p, id));
        }
    }
    if !left.is_empty() {
        split_until_delta(a, left, delta, out);
    }
    if !right.is_empty() {
        split_until_delta(b, right, delta, out);
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

    fn check_partition(items: &[(Point, ItemId)], groups: &[CustomerGroup], delta: f64) {
        // Every group satisfies δ, is non-empty, and the groups partition P.
        let mut seen: Vec<ItemId> = Vec::new();
        for g in groups {
            assert!(!g.members.is_empty());
            assert!(
                g.mbr.diagonal() <= delta + 1e-9,
                "diagonal {} > delta {delta}",
                g.mbr.diagonal()
            );
            for &(p, id) in &g.members {
                assert!(g.mbr.contains_point(&p));
                seen.push(id);
            }
            // Representative is within δ/2 of every member (Theorem 4's
            // geometric premise).
            let rep = g.representative();
            for &(p, _) in &g.members {
                assert!(rep.dist(&p) <= delta / 2.0 + 1e-9);
            }
        }
        seen.sort_unstable();
        let mut want: Vec<ItemId> = items.iter().map(|&(_, id)| id).collect();
        want.sort_unstable();
        assert_eq!(seen, want, "groups must partition P exactly");
    }

    #[test]
    fn partition_various_deltas() {
        let items = random_items(3000, 51);
        let tree = RTree::bulk_load(PageStore::with_config(1024, 4096), &items);
        for delta in [10.0, 40.0, 160.0, 2000.0] {
            let groups = tree.partition_by_diagonal(delta, None).unwrap();
            check_partition(&items, &groups, delta);
        }
    }

    #[test]
    fn tiny_delta_forces_leaf_splitting() {
        let items = random_items(500, 52);
        let tree = RTree::bulk_load(PageStore::with_config(1024, 1024), &items);
        let groups = tree.partition_by_diagonal(5.0, None).unwrap();
        check_partition(&items, &groups, 5.0);
        // With δ=5 on uniform data, most groups are singletons.
        assert!(groups.len() > 300);
    }

    #[test]
    fn huge_delta_gives_few_groups() {
        let items = random_items(2000, 53);
        let tree = RTree::bulk_load(PageStore::with_config(1024, 4096), &items);
        let big = tree.partition_by_diagonal(1e6, None).unwrap().len();
        let small = tree.partition_by_diagonal(20.0, None).unwrap().len();
        assert!(big < small, "bigger delta must give coarser partition");
        // The descent starts from the root *entries* (§4.2), so the coarsest
        // partition has one group per root entry.
        assert_eq!(big, tree.inner_capacity().min(big));
        assert!(big <= tree.inner_capacity());
    }

    #[test]
    fn weights_sum_to_population() {
        let items = random_items(1234, 54);
        let tree = RTree::bulk_load(PageStore::with_config(1024, 4096), &items);
        let groups = tree.partition_by_diagonal(80.0, None).unwrap();
        let total: usize = groups.iter().map(CustomerGroup::weight).sum();
        assert_eq!(total, 1234);
    }

    #[test]
    fn empty_tree_partitions_to_nothing() {
        let tree = RTree::bulk_load(PageStore::with_config(1024, 16), &[]);
        assert!(tree.partition_by_diagonal(10.0, None).unwrap().is_empty());
    }

    #[test]
    fn duplicate_heavy_data_terminates() {
        // All points identical: zero-diagonal group regardless of delta.
        let items: Vec<(Point, ItemId)> = (0..200).map(|i| (Point::new(3.0, 3.0), i)).collect();
        let tree = RTree::bulk_load(PageStore::with_config(1024, 256), &items);
        let groups = tree.partition_by_diagonal(0.5, None).unwrap();
        check_partition(&items, &groups, 0.5);
        assert_eq!(groups.len(), tree.store().num_pages().min(groups.len()));
    }
}
