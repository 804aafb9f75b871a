//! Hilbert space-filling curve.
//!
//! The paper orders service providers "based on their Hilbert space-filling
//! curve ordering" both for the grouped all-nearest-neighbour search
//! (§3.4.2) and for the partitioning phase of the SA approximation (§4.1).
//! This module implements the classic d2xy/xy2d conversion on a `2^ORDER ×
//! 2^ORDER` grid, plus a convenience mapping from continuous world
//! coordinates.

use crate::point::Point;

/// Resolution of the Hilbert grid: the curve visits `2^ORDER * 2^ORDER`
/// cells. 16 gives a 65536×65536 grid — far below a metre of slack in the
/// `[0,1000]²` world, ample for grouping purposes.
pub const ORDER: u32 = 16;

/// Side length of the Hilbert grid.
pub const GRID: u32 = 1 << ORDER;

/// Maps grid cell coordinates `(x, y)`, both `< GRID`, to the cell's index
/// along the Hilbert curve.
pub fn xy_to_d(mut x: u32, mut y: u32) -> u64 {
    debug_assert!(x < GRID && y < GRID);
    let mut rx: u32;
    let mut ry: u32;
    let mut d: u64 = 0;
    let mut s: u32 = GRID / 2;
    while s > 0 {
        rx = u32::from((x & s) > 0);
        ry = u32::from((y & s) > 0);
        d += (s as u64) * (s as u64) * u64::from((3 * rx) ^ ry);
        // Rotate quadrant.
        if ry == 0 {
            if rx == 1 {
                x = s.wrapping_sub(1).wrapping_sub(x) & (GRID - 1);
                y = s.wrapping_sub(1).wrapping_sub(y) & (GRID - 1);
            }
            std::mem::swap(&mut x, &mut y);
        }
        s /= 2;
    }
    d
}

/// Inverse of [`xy_to_d`]: maps a curve index to grid cell coordinates.
pub fn d_to_xy(d: u64) -> (u32, u32) {
    debug_assert!(d < (GRID as u64) * (GRID as u64));
    let mut rx: u64;
    let mut ry: u64;
    let mut t = d;
    let mut x: u64 = 0;
    let mut y: u64 = 0;
    let mut s: u64 = 1;
    while s < GRID as u64 {
        rx = 1 & (t / 2);
        ry = 1 & (t ^ rx);
        // Rotate quadrant.
        if ry == 0 {
            if rx == 1 {
                x = s - 1 - x;
                y = s - 1 - y;
            }
            std::mem::swap(&mut x, &mut y);
        }
        x += s * rx;
        y += s * ry;
        t /= 4;
        s *= 2;
    }
    (x as u32, y as u32)
}

/// Hilbert index of a continuous point inside `[0, world_size]²`.
///
/// Coordinates are clamped into the world first, so slightly out-of-range
/// values (floating point noise at the boundary) are tolerated.
pub fn hilbert_of_point(p: &Point, world_size: f64) -> u64 {
    let scale = (GRID as f64) / world_size;
    let gx = ((p.x.clamp(0.0, world_size) * scale) as u32).min(GRID - 1);
    let gy = ((p.y.clamp(0.0, world_size) * scale) as u32).min(GRID - 1);
    xy_to_d(gx, gy)
}

/// Sorts indices `0..items.len()` by the Hilbert value of the corresponding
/// point. Returns the permutation rather than reordering the input, because
/// callers (SA partitioning, ANN grouping) need to keep the original
/// positions alongside capacities.
pub fn sort_by_hilbert(points: &[Point], world_size: f64) -> Vec<usize> {
    let mut keyed: Vec<(u64, usize)> = points
        .iter()
        .enumerate()
        .map(|(i, p)| (hilbert_of_point(p, world_size), i))
        .collect();
    keyed.sort_unstable();
    keyed.into_iter().map(|(_, i)| i).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn first_cells_of_order_one_pattern() {
        // On the full grid the first four indices form the first-level "U".
        assert_eq!(d_to_xy(0), (0, 0));
        let (x1, y1) = d_to_xy(1);
        // Next cell must be adjacent to (0,0).
        assert_eq!(x1 + y1, 1);
    }

    #[test]
    fn roundtrip_small_indices() {
        for d in 0..4096u64 {
            let (x, y) = d_to_xy(d);
            assert_eq!(xy_to_d(x, y), d, "roundtrip failed at d={d}");
        }
    }

    #[test]
    fn adjacent_indices_are_adjacent_cells() {
        // The defining property of the Hilbert curve: consecutive indices map
        // to grid cells at Manhattan distance exactly 1.
        for d in 0..8192u64 {
            let (x0, y0) = d_to_xy(d);
            let (x1, y1) = d_to_xy(d + 1);
            let manhattan = x0.abs_diff(x1) + y0.abs_diff(y1);
            assert_eq!(manhattan, 1, "cells at d={d} not adjacent");
        }
    }

    #[test]
    fn point_mapping_clamps_out_of_world() {
        let inside = hilbert_of_point(&Point::new(0.0, 0.0), 1000.0);
        let clamped = hilbert_of_point(&Point::new(-5.0, -5.0), 1000.0);
        assert_eq!(inside, clamped);
        // Max corner must not overflow the grid.
        let _ = hilbert_of_point(&Point::new(1000.0, 1000.0), 1000.0);
    }

    #[test]
    fn sort_by_hilbert_groups_nearby_points() {
        // Two tight clusters far apart: the permutation must keep each
        // cluster contiguous.
        let mut pts = Vec::new();
        for i in 0..5 {
            pts.push(Point::new(10.0 + i as f64 * 0.2, 10.0));
        }
        for i in 0..5 {
            pts.push(Point::new(900.0 + i as f64 * 0.2, 900.0));
        }
        let perm = sort_by_hilbert(&pts, 1000.0);
        let first_half: Vec<bool> = perm[..5].iter().map(|&i| i < 5).collect();
        // All of the first five sorted entries come from the same cluster.
        assert!(
            first_half.iter().all(|&b| b) || first_half.iter().all(|&b| !b),
            "clusters interleaved: {perm:?}"
        );
    }

    proptest! {
        #[test]
        fn prop_roundtrip(x in 0u32..GRID, y in 0u32..GRID) {
            let d = xy_to_d(x, y);
            prop_assert_eq!(d_to_xy(d), (x, y));
        }

        #[test]
        fn prop_index_in_range(x in 0u32..GRID, y in 0u32..GRID) {
            let d = xy_to_d(x, y);
            prop_assert!(d < (GRID as u64) * (GRID as u64));
        }

        #[test]
        fn prop_injective_on_random_pairs(x1 in 0u32..GRID, y1 in 0u32..GRID,
                                          x2 in 0u32..GRID, y2 in 0u32..GRID) {
            if (x1, y1) != (x2, y2) {
                prop_assert_ne!(xy_to_d(x1, y1), xy_to_d(x2, y2));
            }
        }
    }
}
