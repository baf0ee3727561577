//! Polylines: point chains used for street geometry.

use crate::point::Point;
use crate::rect::Rect;
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

    /// Appends a point to the chain.
    pub fn push(&mut self, p: Point) {
        self.points.push(p);
    }

    /// Number of segments (`points - 1`, saturating).
    pub fn num_segments(&self) -> usize {
        self.points.len().saturating_sub(1)
    }

    /// Iterates over the constituent segments.
    pub fn segments(&self) -> impl Iterator<Item = LineSeg> + '_ {
        self.points.windows(2).map(|w| LineSeg::new(w[0], w[1]))
    }

    /// Total length: sum of segment lengths.
    pub fn len(&self) -> f64 {
        self.segments().map(|s| s.len()).sum()
    }

    /// Returns true if the polyline has no segments.
    pub fn is_empty(&self) -> bool {
        self.num_segments() == 0
    }

    /// Minimum distance from `p` to the polyline (infinity if empty).
    pub fn dist_to_point(&self, p: Point) -> f64 {
        self.segments()
            .map(|s| s.dist_sq_to_point(p))
            .fold(f64::INFINITY, f64::min)
            .sqrt()
    }

    /// Bounding rectangle of the chain (`None` if no points).
    pub fn bounding_rect(&self) -> Option<Rect> {
        Rect::bounding(self.points.iter().copied())
    }

    /// The point at arc-length `t·len()` along the chain, `t ∈ [0, 1]`.
    ///
    /// Returns `None` for an empty polyline.
    pub fn point_at_fraction(&self, t: f64) -> Option<Point> {
        if self.is_empty() {
            return None;
        }
        let total = self.len();
        if total == 0.0 {
            return Some(self.points[0]);
        }
        let target = t.clamp(0.0, 1.0) * total;
        let mut walked = 0.0;
        for seg in self.segments() {
            let l = seg.len();
            if walked + l >= target {
                let local = if l == 0.0 { 0.0 } else { (target - walked) / l };
                return Some(seg.a.lerp(seg.b, local));
            }
            walked += l;
        }
        self.points.last().copied()
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
        assert_eq!(p.num_segments(), 2);
        assert_eq!(p.len(), 7.0);
        assert!(!p.is_empty());
    }

    #[test]
    fn empty_and_single_point() {
        let e = Polyline::new(vec![]);
        assert!(e.is_empty());
        assert_eq!(e.len(), 0.0);
        assert_eq!(e.dist_to_point(Point::ORIGIN), f64::INFINITY);

        let single = Polyline::new(vec![Point::new(1.0, 1.0)]);
        assert!(single.is_empty());
        assert_eq!(single.num_segments(), 0);
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

    #[test]
    fn bounding_rect() {
        let r = l_shape().bounding_rect().unwrap();
        assert_eq!(r.min, Point::new(0.0, 0.0));
        assert_eq!(r.max, Point::new(4.0, 3.0));
        assert!(Polyline::new(vec![]).bounding_rect().is_none());
    }

    #[test]
    fn point_at_fraction_walks_arclength() {
        let p = l_shape();
        assert_eq!(p.point_at_fraction(0.0), Some(Point::new(0.0, 0.0)));
        assert_eq!(p.point_at_fraction(1.0), Some(Point::new(4.0, 3.0)));
        // 4/7 of the way: exactly the corner.
        let corner = p.point_at_fraction(4.0 / 7.0).unwrap();
        assert!(corner.dist(Point::new(4.0, 0.0)) < 1e-12);
        // Halfway: 3.5 along, on the horizontal leg.
        let mid = p.point_at_fraction(0.5).unwrap();
        assert!(mid.dist(Point::new(3.5, 0.0)) < 1e-12);
        assert_eq!(Polyline::new(vec![]).point_at_fraction(0.5), None);
    }

    #[test]
    fn push_extends_chain() {
        let mut p = Polyline::default();
        p.push(Point::new(0.0, 0.0));
        p.push(Point::new(1.0, 0.0));
        assert_eq!(p.num_segments(), 1);
        assert_eq!(p.len(), 1.0);
    }
}
