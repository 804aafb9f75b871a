//! The typed-abort contract of every context-taking R-tree traversal,
//! checked at the R-tree rather than through the solvers built on it.
//!
//! Each traversal takes `ctx: Option<&QueryContext>` as its last parameter.
//! For every one of them:
//!
//! * with `None` it returns the brute-force answer, and a clean context
//!   changes nothing;
//! * with a pre-cancelled context it reports `Cancelled` before reading a
//!   single page (the context is checked before each page access);
//! * with an I/O budget `b` below its cold fault count it reports
//!   `IoBudgetExceeded` having charged exactly `b` faults.

use cca_geo::Point;
use cca_rtree::{ItemId, RTree};
use cca_storage::{AbortReason, IoStats, PageStore, QueryContext};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const N: usize = 20_000;
const CENTER: Point = Point { x: 500.0, y: 500.0 };
const NN_TAKE: usize = 2_000;
const GROUP_TAKE: usize = 500;

type Traversal = fn(&RTree, Option<&QueryContext>) -> Result<Vec<ItemId>, AbortReason>;

fn items() -> Vec<(Point, ItemId)> {
    let mut rng = StdRng::seed_from_u64(31);
    (0..N)
        .map(|i| {
            let p = Point::new(rng.random_range(0.0..1000.0), rng.random_range(0.0..1000.0));
            (p, i as ItemId)
        })
        .collect()
}

fn group_members() -> Vec<Point> {
    vec![
        Point::new(300.0, 300.0),
        Point::new(320.0, 310.0),
        Point::new(310.0, 340.0),
    ]
}

fn sorted(mut ids: Vec<ItemId>) -> Vec<ItemId> {
    ids.sort_unstable();
    ids
}

/// Ids of `items` nearest-first from `q` (ties by id), the first `k`.
fn brute_nearest(items: &[(Point, ItemId)], q: Point, k: usize) -> Vec<ItemId> {
    let mut v: Vec<(f64, ItemId)> = items.iter().map(|&(p, id)| (q.dist(&p), id)).collect();
    v.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    v.into_iter().take(k).map(|(_, id)| id).collect()
}

/// Ids with `lo < dist <= hi` (or `lo <= dist` when `closed_lo`), sorted.
fn brute_band(items: &[(Point, ItemId)], lo: f64, hi: f64, closed_lo: bool) -> Vec<ItemId> {
    sorted(
        items
            .iter()
            .filter(|(p, _)| {
                let d = CENTER.dist(p);
                (if closed_lo { d >= lo } else { d > lo }) && d <= hi
            })
            .map(|&(_, id)| id)
            .collect(),
    )
}

fn inc_nn(tree: &RTree, ctx: Option<&QueryContext>) -> Result<Vec<ItemId>, AbortReason> {
    let mut cursor = tree.inc_nn(CENTER, ctx);
    let ids = cursor.by_ref().take(NN_TAKE).map(|(_, id, _)| id).collect();
    cursor.abort_reason().map_or(Ok(ids), Err)
}

fn knn_within(tree: &RTree, ctx: Option<&QueryContext>) -> Result<Vec<ItemId>, AbortReason> {
    tree.knn_within(CENTER, usize::MAX, 150.0, ctx)
        .map(|hits| hits.into_iter().map(|(_, id, _)| id).collect())
        .map_err(|e| e.reason)
}

fn range_search(tree: &RTree, ctx: Option<&QueryContext>) -> Result<Vec<ItemId>, AbortReason> {
    tree.range_search(CENTER, 150.0, ctx)
        .map(|hits| sorted(hits.into_iter().map(|(_, id, _)| id).collect()))
        .map_err(|e| e.reason)
}

fn annular_range_search(
    tree: &RTree,
    ctx: Option<&QueryContext>,
) -> Result<Vec<ItemId>, AbortReason> {
    tree.annular_range_search(CENTER, 100.0, 200.0, ctx)
        .map(|hits| sorted(hits.into_iter().map(|(_, id, _)| id).collect()))
        .map_err(|e| e.reason)
}

/// Every member's first `GROUP_TAKE` neighbours, members interleaved
/// round-robin, concatenated member by member.
fn group_ann(tree: &RTree, ctx: Option<&QueryContext>) -> Result<Vec<ItemId>, AbortReason> {
    let members = group_members();
    let mut ann = tree.group_ann(members.clone(), ctx);
    let mut per_member = vec![Vec::new(); members.len()];
    for _ in 0..GROUP_TAKE {
        for (i, out) in per_member.iter_mut().enumerate() {
            if let Some((_, id, _)) = ann.next_nn(i) {
                out.push(id);
            }
        }
    }
    ann.abort_reason().map_or(Ok(per_member.concat()), Err)
}

fn partition_by_diagonal(
    tree: &RTree,
    ctx: Option<&QueryContext>,
) -> Result<Vec<ItemId>, AbortReason> {
    tree.partition_by_diagonal(50.0, ctx)
        .map(|groups| {
            assert!(groups.iter().all(|g| g.mbr.diagonal() <= 50.0));
            sorted(
                groups
                    .iter()
                    .flat_map(|g| g.members.iter().map(|&(_, id)| id))
                    .collect(),
            )
        })
        .map_err(|e| e.reason)
}

fn for_each_point(tree: &RTree, ctx: Option<&QueryContext>) -> Result<Vec<ItemId>, AbortReason> {
    let mut ids = Vec::new();
    tree.for_each_point(|_, id| ids.push(id), ctx)
        .map(|()| sorted(ids))
        .map_err(|e| e.reason)
}

/// Runs `traversal` from a cold buffer pool.
fn cold(
    tree: &RTree,
    traversal: Traversal,
    ctx: Option<&QueryContext>,
) -> Result<Vec<ItemId>, AbortReason> {
    tree.store().clear_cache();
    traversal(tree, ctx)
}

#[test]
fn every_traversal_honours_the_typed_abort_contract() {
    let items = items();
    let tree = RTree::bulk_load(PageStore::with_config(1024, 8192), &items);
    tree.finish_build(1.0); // a buffer of 1 % of the tree: searches fault

    let all = sorted(items.iter().map(|&(_, id)| id).collect());
    let group: Vec<ItemId> = group_members()
        .into_iter()
        .flat_map(|m| brute_nearest(&items, m, GROUP_TAKE))
        .collect();
    let within: Vec<ItemId> = brute_nearest(&items, CENTER, N)
        .into_iter()
        .filter(|&id| CENTER.dist(&items[id as usize].0) <= 150.0)
        .collect();
    let table: [(&str, Traversal, Vec<ItemId>); 7] = [
        ("inc_nn", inc_nn, brute_nearest(&items, CENTER, NN_TAKE)),
        ("knn_within", knn_within, within),
        (
            "range_search",
            range_search,
            brute_band(&items, 0.0, 150.0, true),
        ),
        (
            "annular_range_search",
            annular_range_search,
            brute_band(&items, 100.0, 200.0, false),
        ),
        ("group_ann", group_ann, group),
        ("partition_by_diagonal", partition_by_diagonal, all.clone()),
        ("for_each_point", for_each_point, all),
    ];

    for (name, traversal, expected) in table {
        // No context: the brute-force answer; a clean context agrees and
        // sees the cold traffic.
        assert_eq!(cold(&tree, traversal, None), Ok(expected.clone()), "{name}");
        let clean = QueryContext::new();
        assert_eq!(cold(&tree, traversal, Some(&clean)), Ok(expected), "{name}");
        let cold_faults = clean.stats().faults;
        assert!(cold_faults >= 2, "{name}: must fault, got {cold_faults}");

        // Pre-cancelled: the abort is seen before the first page access.
        let cancelled = QueryContext::new();
        cancelled.cancel();
        assert_eq!(
            cold(&tree, traversal, Some(&cancelled)),
            Err(AbortReason::Cancelled),
            "{name}"
        );
        assert_eq!(cancelled.stats(), IoStats::default(), "{name}: no reads");

        // A budget below the cold fault count is met exactly.
        let budget = cold_faults / 2;
        let budgeted = QueryContext::new().with_io_budget(budget);
        assert_eq!(
            cold(&tree, traversal, Some(&budgeted)),
            Err(AbortReason::IoBudgetExceeded),
            "{name}"
        );
        assert_eq!(budgeted.stats().faults, budget, "{name}");
    }
}
