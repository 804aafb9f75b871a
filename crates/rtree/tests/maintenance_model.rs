//! Model-based test for dynamic R-tree maintenance.
//!
//! A `Vec<(Point, ItemId)>` is the reference model: inserts push, deletes
//! remove, and after every batch the tree must answer kNN and range queries
//! exactly like a linear scan over the model — while `check_invariants`
//! pins the structural side (exact MBRs, uniform leaf depth, occupancy).

use cca_geo::Point;
use cca_rtree::{ItemId, RTree};
use cca_storage::PageStore;
use proptest::prelude::*;

/// One maintenance step decoded from fuzz bytes.
#[derive(Debug, Clone, Copy)]
enum Op {
    Insert {
        x: f64,
        y: f64,
    },
    /// Delete the live entry at `pick % live.len()` (no-op when empty).
    Delete {
        pick: usize,
    },
}

fn decode_ops(bytes: &[(u8, u16, u16)]) -> Vec<Op> {
    bytes
        .iter()
        .map(|&(kind, a, b)| {
            // Bias 2:1 towards inserts so the tree actually grows deep
            // enough to exercise splits and condensation together.
            if kind % 3 < 2 {
                Op::Insert {
                    x: f64::from(a) / 65.0,
                    y: f64::from(b) / 65.0,
                }
            } else {
                Op::Delete {
                    pick: usize::from(a) ^ (usize::from(b) << 16),
                }
            }
        })
        .collect()
}

fn brute_knn(model: &[(Point, ItemId)], q: Point, k: usize) -> Vec<f64> {
    let mut d: Vec<f64> = model.iter().map(|(p, _)| q.dist(p)).collect();
    d.sort_by(f64::total_cmp);
    d.truncate(k);
    d
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]
    #[test]
    fn prop_maintenance_agrees_with_linear_scan(
        raw in proptest::collection::vec((any::<u8>(), any::<u16>(), any::<u16>()), 1..400),
        qx in 0.0f64..1000.0,
        qy in 0.0f64..1000.0,
    ) {
        let ops = decode_ops(&raw);
        let mut tree = RTree::new(PageStore::with_config(1024, 4096));
        let mut model: Vec<(Point, ItemId)> = Vec::new();
        let mut next_id: ItemId = 0;

        for op in ops {
            match op {
                Op::Insert { x, y } => {
                    let p = Point::new(x, y);
                    tree.insert(p, next_id);
                    model.push((p, next_id));
                    next_id += 1;
                }
                Op::Delete { pick } => {
                    if model.is_empty() {
                        continue;
                    }
                    let (p, id) = model.swap_remove(pick % model.len());
                    prop_assert!(tree.delete(p, id), "live entry must be deletable");
                }
            }
        }

        prop_assert_eq!(tree.len(), model.len());
        prop_assert_eq!(tree.check_invariants(), model.len());

        // kNN equivalence (distances; ids may swap under exact ties).
        let q = Point::new(qx, qy);
        let got = tree.knn(q, 10);
        let want = brute_knn(&model, q, 10);
        prop_assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(&want) {
            prop_assert!((g.2 - w).abs() < 1e-12, "knn mismatch: {} vs {}", g.2, w);
        }

        // Range equivalence (exact id sets — radius picks no boundary ties
        // because coordinates live on a lattice of the form n/65).
        let radius = 123.456;
        let mut got_ids: Vec<ItemId> = tree
            .range_search(q, radius, None).unwrap()
            .into_iter()
            .map(|(_, id, _)| id)
            .collect();
        got_ids.sort_unstable();
        let mut want_ids: Vec<ItemId> = model
            .iter()
            .filter(|(p, _)| q.dist(p) <= radius)
            .map(|&(_, id)| id)
            .collect();
        want_ids.sort_unstable();
        prop_assert_eq!(got_ids, want_ids);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]
    #[test]
    fn prop_delete_all_in_random_order_collapses(
        raw in proptest::collection::vec((any::<u16>(), any::<u16>()), 50..300),
        order_seed in any::<u64>(),
    ) {
        let mut tree = RTree::new(PageStore::with_config(1024, 4096));
        let mut model: Vec<(Point, ItemId)> = Vec::new();
        for (i, &(a, b)) in raw.iter().enumerate() {
            let p = Point::new(f64::from(a) / 65.0, f64::from(b) / 65.0);
            tree.insert(p, i as ItemId);
            model.push((p, i as ItemId));
        }
        // Deterministic pseudo-shuffle of the deletion order.
        let mut order: Vec<usize> = (0..model.len()).collect();
        let n = order.len();
        for i in 0..n {
            let j = (order_seed as usize)
                .wrapping_mul(6364136223846793005)
                .wrapping_add(i.wrapping_mul(1442695040888963407))
                % n;
            order.swap(i, j);
        }
        for &i in &order {
            let (p, id) = model[i];
            prop_assert!(tree.delete(p, id));
            tree.check_invariants();
        }
        prop_assert_eq!(tree.len(), 0);
        prop_assert_eq!(tree.height(), 1);
        prop_assert!(tree.root_mbr().is_empty());
    }
}
