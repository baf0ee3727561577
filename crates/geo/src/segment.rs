//! Line segments and segment distance computations.

use crate::point::Point;
use crate::rect::Rect;

/// A line segment between two endpoints.
///
/// Street segments (the links `ℓ ∈ L` of the paper's road network) are
/// represented by this geometry; `dist(p, ℓ)` of Definition 1 is
/// [`LineSeg::dist_to_point`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LineSeg {
    /// First endpoint.
    pub a: Point,
    /// Second endpoint.
    pub b: Point,
}

impl LineSeg {
    /// Creates a segment from its endpoints.
    #[inline]
    pub const fn new(a: Point, b: Point) -> Self {
        Self { a, b }
    }

    /// Segment length (Euclidean distance between endpoints).
    #[inline]
    pub fn len(&self) -> f64 {
        self.a.dist(self.b)
    }

    /// Returns true if the segment is degenerate (both endpoints equal).
    #[inline]
    pub fn is_degenerate(&self) -> bool {
        self.a == self.b
    }

    /// The clamped projection parameter `t ∈ [0, 1]` of `p` onto the segment:
    /// the closest point on the segment is `a + t·(b − a)`.
    #[inline]
    pub(crate) fn project_t(&self, p: Point) -> f64 {
        let d = self.b - self.a;
        let len_sq = d.dot(d);
        if len_sq == 0.0 {
            return 0.0;
        }
        ((p - self.a).dot(d) / len_sq).clamp(0.0, 1.0)
    }

    /// The point on the segment closest to `p`.
    #[inline]
    pub fn closest_point(&self, p: Point) -> Point {
        self.a.lerp(self.b, self.project_t(p))
    }

    /// Minimum Euclidean distance from `p` to any point on the segment
    /// (Definition 1's `dist(p, ℓ)`).
    #[inline]
    pub fn dist_to_point(&self, p: Point) -> f64 {
        self.dist_sq_to_point(p).sqrt()
    }

    /// Squared minimum distance from `p` to the segment.
    #[inline]
    pub fn dist_sq_to_point(&self, p: Point) -> f64 {
        self.closest_point(p).dist_sq(p)
    }

    /// Tight axis-aligned bounding rectangle of the segment.
    #[inline]
    pub fn bounding_rect(&self) -> Rect {
        Rect::from_corners(self.a, self.b)
    }

    /// Returns true if this segment properly or improperly intersects `other`.
    pub(crate) fn intersects(&self, other: &LineSeg) -> bool {
        // Orientation-based test with collinear overlap handling.
        fn orient(a: Point, b: Point, c: Point) -> f64 {
            (b - a).cross(c - a)
        }
        fn on_segment(s: &LineSeg, p: Point) -> bool {
            p.x >= s.a.x.min(s.b.x)
                && p.x <= s.a.x.max(s.b.x)
                && p.y >= s.a.y.min(s.b.y)
                && p.y <= s.a.y.max(s.b.y)
        }

        let d1 = orient(other.a, other.b, self.a);
        let d2 = orient(other.a, other.b, self.b);
        let d3 = orient(self.a, self.b, other.a);
        let d4 = orient(self.a, self.b, other.b);

        if ((d1 > 0.0 && d2 < 0.0) || (d1 < 0.0 && d2 > 0.0))
            && ((d3 > 0.0 && d4 < 0.0) || (d3 < 0.0 && d4 > 0.0))
        {
            return true;
        }
        (d1 == 0.0 && on_segment(other, self.a))
            || (d2 == 0.0 && on_segment(other, self.b))
            || (d3 == 0.0 && on_segment(self, other.a))
            || (d4 == 0.0 && on_segment(self, other.b))
    }

    /// Returns true if the segment intersects the closed rectangle
    /// (Liang–Barsky slab clipping; much cheaper than edge-wise tests).
    pub fn intersects_rect(&self, r: &Rect) -> bool {
        let d = self.b - self.a;
        let mut t0 = 0.0f64;
        let mut t1 = 1.0f64;
        for (p0, delta, min, max) in [
            (self.a.x, d.x, r.min.x, r.max.x),
            (self.a.y, d.y, r.min.y, r.max.y),
        ] {
            if delta == 0.0 {
                if p0 < min || p0 > max {
                    return false;
                }
            } else {
                let (mut ta, mut tb) = ((min - p0) / delta, (max - p0) / delta);
                if ta > tb {
                    std::mem::swap(&mut ta, &mut tb);
                }
                t0 = t0.max(ta);
                t1 = t1.min(tb);
                if t0 > t1 {
                    return false;
                }
            }
        }
        true
    }

    /// Minimum Euclidean distance between two segments (0 if they intersect).
    pub fn dist_to_segment(&self, other: &LineSeg) -> f64 {
        if self.intersects(other) {
            return 0.0;
        }
        let d1 = self.dist_sq_to_point(other.a);
        let d2 = self.dist_sq_to_point(other.b);
        let d3 = other.dist_sq_to_point(self.a);
        let d4 = other.dist_sq_to_point(self.b);
        d1.min(d2).min(d3).min(d4).sqrt()
    }
}

impl std::fmt::Display for LineSeg {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{} -> {}]", self.a, self.b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seg(ax: f64, ay: f64, bx: f64, by: f64) -> LineSeg {
        LineSeg::new(Point::new(ax, ay), Point::new(bx, by))
    }

    #[test]
    fn length() {
        assert_eq!(seg(0.0, 0.0, 3.0, 4.0).len(), 5.0);
        assert_eq!(seg(1.0, 1.0, 1.0, 1.0).len(), 0.0);
        assert!(seg(1.0, 1.0, 1.0, 1.0).is_degenerate());
    }

    #[test]
    fn point_distance_interior_projection() {
        // Perpendicular foot lands inside the segment.
        let s = seg(0.0, 0.0, 10.0, 0.0);
        assert_eq!(s.dist_to_point(Point::new(5.0, 3.0)), 3.0);
        assert_eq!(s.closest_point(Point::new(5.0, 3.0)), Point::new(5.0, 0.0));
    }

    #[test]
    fn point_distance_clamps_to_endpoints() {
        let s = seg(0.0, 0.0, 10.0, 0.0);
        assert_eq!(s.dist_to_point(Point::new(-3.0, 4.0)), 5.0);
        assert_eq!(s.dist_to_point(Point::new(13.0, 4.0)), 5.0);
        assert_eq!(s.project_t(Point::new(-3.0, 4.0)), 0.0);
        assert_eq!(s.project_t(Point::new(13.0, 4.0)), 1.0);
    }

    #[test]
    fn point_on_segment_has_zero_distance() {
        let s = seg(0.0, 0.0, 4.0, 4.0);
        assert_eq!(s.dist_to_point(Point::new(2.0, 2.0)), 0.0);
        assert_eq!(s.dist_to_point(Point::new(0.0, 0.0)), 0.0);
        assert_eq!(s.dist_to_point(Point::new(4.0, 4.0)), 0.0);
    }

    #[test]
    fn degenerate_segment_distance_is_point_distance() {
        let s = seg(2.0, 2.0, 2.0, 2.0);
        assert_eq!(s.dist_to_point(Point::new(5.0, 6.0)), 5.0);
    }

    #[test]
    fn intersection_cases() {
        // Crossing.
        assert!(seg(0.0, 0.0, 2.0, 2.0).intersects(&seg(0.0, 2.0, 2.0, 0.0)));
        // Touching at an endpoint.
        assert!(seg(0.0, 0.0, 1.0, 1.0).intersects(&seg(1.0, 1.0, 2.0, 0.0)));
        // Collinear overlap.
        assert!(seg(0.0, 0.0, 3.0, 0.0).intersects(&seg(2.0, 0.0, 5.0, 0.0)));
        // Collinear but disjoint.
        assert!(!seg(0.0, 0.0, 1.0, 0.0).intersects(&seg(2.0, 0.0, 3.0, 0.0)));
        // Parallel.
        assert!(!seg(0.0, 0.0, 2.0, 0.0).intersects(&seg(0.0, 1.0, 2.0, 1.0)));
    }

    #[test]
    fn segment_to_segment_distance() {
        // Parallel horizontal segments one unit apart.
        assert_eq!(
            seg(0.0, 0.0, 2.0, 0.0).dist_to_segment(&seg(0.0, 1.0, 2.0, 1.0)),
            1.0
        );
        // Intersecting => 0.
        assert_eq!(
            seg(0.0, 0.0, 2.0, 2.0).dist_to_segment(&seg(0.0, 2.0, 2.0, 0.0)),
            0.0
        );
        // Endpoint-to-endpoint gap.
        assert_eq!(
            seg(0.0, 0.0, 1.0, 0.0).dist_to_segment(&seg(4.0, 4.0, 5.0, 4.0)),
            5.0
        );
    }

    #[test]
    fn bounding_rect_contains_both_endpoints() {
        let s = seg(3.0, -1.0, 1.0, 5.0);
        let r = s.bounding_rect();
        assert_eq!(r.min, Point::new(1.0, -1.0));
        assert_eq!(r.max, Point::new(3.0, 5.0));
    }
}
