//! Polylines: point chains used for street geometry.

use crate::point::Point;
use crate::segment::LineSeg;

/// An open polygonal chain of two or more points.
///
/// Streets in the paper are simple paths of consecutive segments; a
/// `Polyline` is the geometric view of such a path. Distances to a polyline
/// are the minimum over its constituent segments, matching
/// `dist(p, s) = min_{ℓ∈s} dist(p, ℓ)` of Section 3.1.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Polyline {
    points: Vec<Point>,
}

impl Polyline {
    /// Creates a polyline from a point chain.
    ///
    /// Chains with fewer than 2 points are permitted (they have no segments
    /// and infinite distance to everything); this mirrors incremental
    /// construction during network building.
    pub fn new(points: Vec<Point>) -> Self {
        Self { points }
    }

    /// The underlying points.
    pub fn points(&self) -> &[Point] {
        &self.points
    }

    /// Iterates over the constituent segments.
    pub fn segments(&self) -> impl Iterator<Item = LineSeg> + '_ {
        self.points.windows(2).map(|w| LineSeg::new(w[0], w[1]))
    }

    /// Total length: sum of segment lengths.
    pub fn len(&self) -> f64 {
        self.segments().map(|s| s.len()).sum()
    }

    /// Minimum distance from `p` to the polyline (infinity if empty).
    pub fn dist_to_point(&self, p: Point) -> f64 {
        self.segments()
            .map(|s| s.dist_sq_to_point(p))
            .fold(f64::INFINITY, f64::min)
            .sqrt()
    }
}

impl From<Vec<Point>> for Polyline {
    fn from(points: Vec<Point>) -> Self {
        Self::new(points)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l_shape() -> Polyline {
        Polyline::new(vec![
            Point::new(0.0, 0.0),
            Point::new(4.0, 0.0),
            Point::new(4.0, 3.0),
        ])
    }

    #[test]
    fn length_and_segments() {
        let p = l_shape();
        assert_eq!(p.segments().count(), 2);
        assert_eq!(p.len(), 7.0);
    }

    #[test]
    fn empty_and_single_point() {
        let e = Polyline::new(vec![]);
        assert_eq!(e.segments().count(), 0);
        assert_eq!(e.len(), 0.0);
        assert_eq!(e.dist_to_point(Point::ORIGIN), f64::INFINITY);

        let single = Polyline::new(vec![Point::new(1.0, 1.0)]);
        assert_eq!(single.segments().count(), 0);
    }

    #[test]
    fn distance_is_min_over_segments() {
        let p = l_shape();
        // Closest to the horizontal leg.
        assert_eq!(p.dist_to_point(Point::new(2.0, -2.0)), 2.0);
        // Closest to the vertical leg.
        assert_eq!(p.dist_to_point(Point::new(6.0, 2.0)), 2.0);
        // On the corner.
        assert_eq!(p.dist_to_point(Point::new(4.0, 0.0)), 0.0);
    }
}
