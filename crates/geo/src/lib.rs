//! Geometry primitives shared by every crate in the CCA workspace.
//!
//! The paper ("Capacity Constrained Assignment in Spatial Databases",
//! SIGMOD 2008) works with two-dimensional Euclidean points normalised to the
//! `[0, 1000]²` space. This crate provides:
//!
//! * [`Point`] — a 2-D point with Euclidean distance helpers,
//! * [`Rect`] — axis-aligned rectangles (MBRs) with the `mindist` / `maxdist`
//!   metrics used by best-first R-tree search and the `diagonal` measure used
//!   by the approximate algorithms' partitioning phase (§4.1–4.2),
//! * [`hilbert`] — a Hilbert space-filling curve used to order service
//!   providers for grouping (§3.4.2 and §4.1).

#![forbid(unsafe_code)]

pub mod hilbert;
pub mod num;
pub mod point;
pub mod rect;
#[cfg(feature = "serde")]
mod serde_impls;

pub use num::OrdF64;
pub use point::Point;
pub use rect::Rect;

/// The side length of the normalised workspace used throughout the paper's
/// evaluation (§5.1: "All datasets are normalized to lie in a [0, 1000]²
/// space").
pub const WORLD_SIZE: f64 = 1000.0;

/// The world rectangle `[0, WORLD_SIZE]²`.
pub fn world() -> Rect {
    Rect::new(Point::new(0.0, 0.0), Point::new(WORLD_SIZE, WORLD_SIZE))
}
