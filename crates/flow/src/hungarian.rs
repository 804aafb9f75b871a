//! Hungarian / Jonker-Volgenant rectangular assignment.
//!
//! The paper cites the Hungarian algorithm [8, 11] as the classical dense
//! solver that "becomes infeasible even for moderate-sized problems" (§2.1).
//! We implement the potentials-based O(n²·m) variant on an explicit cost
//! matrix: it serves as an *independent* correctness oracle for SSPA (the
//! two implementations share no code) and as the dense baseline it is.

/// Solves the rectangular assignment problem.
///
/// `cost` is an `n × m` matrix with `n ≤ m`; every row is assigned exactly
/// one distinct column so that the total cost is minimal. Returns
/// `(row_to_col, total_cost)`.
///
/// # Panics
/// Panics if `n > m` or rows have inconsistent lengths.
pub fn rectangular_assignment(cost: &[Vec<f64>]) -> (Vec<usize>, f64) {
    let n = cost.len();
    if n == 0 {
        return (Vec::new(), 0.0);
    }
    let m = cost[0].len();
    assert!(cost.iter().all(|r| r.len() == m), "ragged cost matrix");
    assert!(n <= m, "rows must not exceed columns ({n} > {m})");

    // 1-indexed arrays in the classic formulation; p[j] = row matched to
    // column j (0 = free).
    let inf = f64::INFINITY;
    let mut u = vec![0.0f64; n + 1];
    let mut v = vec![0.0f64; m + 1];
    let mut p = vec![0usize; m + 1];
    let mut way = vec![0usize; m + 1];

    // Per-row scratch, hoisted out of the row loop and reset in place: the
    // augmenting inner loop performs no heap allocation at all.
    let mut minv = vec![inf; m + 1];
    let mut used = vec![false; m + 1];

    for i in 1..=n {
        p[0] = i;
        let mut j0 = 0usize;
        minv.iter_mut().for_each(|v| *v = inf);
        used.iter_mut().for_each(|u| *u = false);
        loop {
            used[j0] = true;
            let i0 = p[j0];
            let mut delta = inf;
            let mut j1 = 0usize;
            for j in 1..=m {
                if !used[j] {
                    let cur = cost[i0 - 1][j - 1] - u[i0] - v[j];
                    if cur < minv[j] {
                        minv[j] = cur;
                        way[j] = j0;
                    }
                    if minv[j] < delta {
                        delta = minv[j];
                        j1 = j;
                    }
                }
            }
            for j in 0..=m {
                if used[j] {
                    u[p[j]] += delta;
                    v[j] -= delta;
                } else {
                    minv[j] -= delta;
                }
            }
            j0 = j1;
            if p[j0] == 0 {
                break;
            }
        }
        // Augment along the alternating path.
        loop {
            let j1 = way[j0];
            p[j0] = p[j1];
            j0 = j1;
            if j0 == 0 {
                break;
            }
        }
    }

    let mut row_to_col = vec![usize::MAX; n];
    let mut total = 0.0;
    for j in 1..=m {
        if p[j] != 0 {
            row_to_col[p[j] - 1] = j - 1;
            total += cost[p[j] - 1][j - 1];
        }
    }
    debug_assert!(row_to_col.iter().all(|&c| c != usize::MAX));
    (row_to_col, total)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn square_identity_matrix_prefers_diagonal_zeros() {
        let cost = vec![
            vec![0.0, 1.0, 1.0],
            vec![1.0, 0.0, 1.0],
            vec![1.0, 1.0, 0.0],
        ];
        let (asg, total) = rectangular_assignment(&cost);
        assert_eq!(asg, vec![0, 1, 2]);
        assert_eq!(total, 0.0);
    }

    #[test]
    fn classic_3x3_example() {
        // Known optimum 5 (1+3+1... check: rows->cols (0,1),(1,0),(2,2) =
        // 2+3+? ). Verify against exhaustive search instead.
        let cost = vec![
            vec![4.0, 2.0, 8.0],
            vec![3.0, 7.0, 6.0],
            vec![9.0, 5.0, 1.0],
        ];
        let (_, total) = rectangular_assignment(&cost);
        assert_eq!(total, brute_square(&cost));
    }

    #[test]
    fn rectangular_uses_cheapest_columns() {
        let cost = vec![vec![5.0, 1.0, 3.0, 4.0], vec![6.0, 2.0, 1.0, 9.0]];
        let (asg, total) = rectangular_assignment(&cost);
        assert_eq!(asg, vec![1, 2]);
        assert_eq!(total, 2.0);
    }

    #[test]
    fn single_row_picks_minimum() {
        let cost = vec![vec![9.0, 3.0, 7.0]];
        let (asg, total) = rectangular_assignment(&cost);
        assert_eq!(asg, vec![1]);
        assert_eq!(total, 3.0);
    }

    #[test]
    fn empty_matrix_is_trivial() {
        let (asg, total) = rectangular_assignment(&[]);
        assert!(asg.is_empty());
        assert_eq!(total, 0.0);
    }

    #[test]
    fn ties_still_produce_valid_assignment() {
        let cost = vec![vec![1.0; 4], vec![1.0; 4], vec![1.0; 4]];
        let (asg, total) = rectangular_assignment(&cost);
        assert_eq!(total, 3.0);
        let mut cols = asg.clone();
        cols.sort_unstable();
        cols.dedup();
        assert_eq!(cols.len(), 3, "columns must be distinct");
    }

    /// Exhaustive optimum for square matrices (test oracle's oracle).
    fn brute_square(cost: &[Vec<f64>]) -> f64 {
        fn rec(cost: &[Vec<f64>], row: usize, used: &mut Vec<bool>) -> f64 {
            if row == cost.len() {
                return 0.0;
            }
            let mut best = f64::INFINITY;
            for c in 0..cost[0].len() {
                if !used[c] {
                    used[c] = true;
                    best = best.min(cost[row][c] + rec(cost, row + 1, used));
                    used[c] = false;
                }
            }
            best
        }
        rec(cost, 0, &mut vec![false; cost[0].len()])
    }

    #[test]
    fn random_matrices_match_exhaustive() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(99);
        for trial in 0..200 {
            let n = rng.random_range(1..=6);
            let m = rng.random_range(n..=7);
            let cost: Vec<Vec<f64>> = (0..n)
                .map(|_| (0..m).map(|_| rng.random_range(0.0..100.0)).collect())
                .collect();
            let (asg, total) = rectangular_assignment(&cost);
            // Validity.
            let mut used = vec![false; m];
            for (r, &c) in asg.iter().enumerate() {
                assert!(!used[c], "column reused in trial {trial}");
                used[c] = true;
                let _ = r;
            }
            // Optimality.
            let best = brute_square(&cost);
            assert!(
                (total - best).abs() < 1e-9,
                "trial {trial}: hungarian {total} vs brute {best}"
            );
        }
    }
}
