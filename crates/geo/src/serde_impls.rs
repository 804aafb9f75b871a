//! `serde` feature: persistence impls for the geometry types.
//!
//! Field-per-field objects via the vendored `serde` shim's
//! `derive_struct!` (see `vendor/README.md`), shaped exactly like the
//! objects `#[derive(Serialize, Deserialize)]` would produce.

use crate::{Point, Rect};

serde::derive_struct!(Point { x, y });
serde::derive_struct!(Rect { hi, lo });

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_and_rect_json_roundtrip() {
        let p = Point::new(12.25, -3.5);
        let back: Point = serde::json::from_str(&serde::json::to_string(&p)).unwrap();
        assert_eq!(back, p);

        let r = Rect::new(Point::new(0.0, 1.0), Point::new(10.0, 11.0));
        let back: Rect = serde::json::from_str(&serde::json::to_string(&r)).unwrap();
        assert_eq!(back, r);

        // Workload-shaped payload: a point list survives persistence.
        let pts = vec![Point::new(1.0, 2.0), Point::new(3.0, 4.0)];
        let back: Vec<Point> = serde::json::from_str(&serde::json::to_string(&pts)).unwrap();
        assert_eq!(back, pts);
    }
}
