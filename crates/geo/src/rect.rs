//! Axis-aligned rectangles with distance queries.

use crate::point::Point;
use crate::segment::LineSeg;

/// An axis-aligned rectangle defined by its minimum and maximum corners.
///
/// Rectangles serve two roles in the system: grid-cell extents (with
/// half-open membership semantics handled by the grid itself) and street
/// minimum bounding rectangles. Distance queries (`mindist`, `maxdist`)
/// treat the rectangle as a closed region, which keeps the derived bounds
/// conservative in both directions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rect {
    /// Lower-left corner.
    pub min: Point,
    /// Upper-right corner.
    pub max: Point,
}

impl Rect {
    /// Creates a rectangle from min/max corners. Debug-asserts validity.
    #[inline]
    pub fn new(min: Point, max: Point) -> Self {
        debug_assert!(min.x <= max.x && min.y <= max.y, "invalid rect corners");
        Self { min, max }
    }

    /// Creates the rectangle spanned by two arbitrary corners.
    #[inline]
    pub fn from_corners(a: Point, b: Point) -> Self {
        Self {
            min: a.min(b),
            max: a.max(b),
        }
    }

    /// The smallest rectangle containing all `points`.
    ///
    /// Returns `None` for an empty iterator.
    pub fn bounding<I: IntoIterator<Item = Point>>(points: I) -> Option<Self> {
        let mut it = points.into_iter();
        let first = it.next()?;
        let mut min = first;
        let mut max = first;
        for p in it {
            min = min.min(p);
            max = max.max(p);
        }
        Some(Self { min, max })
    }

    /// Rectangle width.
    #[inline]
    pub fn width(&self) -> f64 {
        self.max.x - self.min.x
    }

    /// Rectangle height.
    #[inline]
    pub fn height(&self) -> f64 {
        self.max.y - self.min.y
    }

    /// Center point.
    #[inline]
    pub fn center(&self) -> Point {
        Point::new(
            (self.min.x + self.max.x) / 2.0,
            (self.min.y + self.max.y) / 2.0,
        )
    }

    /// Length of the diagonal.
    #[inline]
    pub fn diagonal(&self) -> f64 {
        self.min.dist(self.max)
    }

    /// The rectangle expanded by `buffer` on every side.
    ///
    /// Used to compute `maxD(s)`: the street MBR "extended with a buffer of
    /// size ε" (Definition 5).
    #[inline]
    pub fn expand(&self, buffer: f64) -> Rect {
        Rect {
            min: Point::new(self.min.x - buffer, self.min.y - buffer),
            max: Point::new(self.max.x + buffer, self.max.y + buffer),
        }
    }

    /// Smallest rectangle containing both `self` and `other`.
    #[inline]
    pub fn union(&self, other: &Rect) -> Rect {
        Rect {
            min: self.min.min(other.min),
            max: self.max.max(other.max),
        }
    }

    /// Closed-region containment test.
    #[inline]
    pub fn contains(&self, p: Point) -> bool {
        p.x >= self.min.x && p.x <= self.max.x && p.y >= self.min.y && p.y <= self.max.y
    }

    /// Minimum distance from `p` to the closed rectangle (0 if inside).
    #[inline]
    pub fn mindist_to_point(&self, p: Point) -> f64 {
        let dx = (self.min.x - p.x).max(0.0).max(p.x - self.max.x);
        let dy = (self.min.y - p.y).max(0.0).max(p.y - self.max.y);
        (dx * dx + dy * dy).sqrt()
    }

    /// Maximum distance from `p` to any point of the closed rectangle.
    ///
    /// This is the `maxdist(r, c)` of Eq. 16: the distance to the farthest
    /// corner.
    #[inline]
    pub fn maxdist_to_point(&self, p: Point) -> f64 {
        let dx = (p.x - self.min.x).abs().max((p.x - self.max.x).abs());
        let dy = (p.y - self.min.y).abs().max((p.y - self.max.y).abs());
        (dx * dx + dy * dy).sqrt()
    }

    /// The four edges of the rectangle as segments.
    pub(crate) fn edges(&self) -> [LineSeg; 4] {
        let bl = self.min;
        let br = Point::new(self.max.x, self.min.y);
        let tr = self.max;
        let tl = Point::new(self.min.x, self.max.y);
        [
            LineSeg::new(bl, br),
            LineSeg::new(br, tr),
            LineSeg::new(tr, tl),
            LineSeg::new(tl, bl),
        ]
    }

    /// Exact test `mindist(self, seg) ≤ dist` — the `dist(c, ℓ) ≤ ε`
    /// predicate used to build the ε-augmented cell↔segment maps
    /// (Sec. 3.2.1) — computed as "does the
    /// segment intersect the `dist`-rounded rectangle": the rounded rect is
    /// the union of the two axis bands and four corner discs, so the test
    /// is two slab clips plus at most four point–segment distances — far
    /// cheaper than computing the distance itself.
    pub fn within_dist_of_segment(&self, seg: &LineSeg, dist: f64) -> bool {
        debug_assert!(dist >= 0.0);
        // Horizontal band: rect widened vertically by dist.
        let band_y = Rect {
            min: Point::new(self.min.x, self.min.y - dist),
            max: Point::new(self.max.x, self.max.y + dist),
        };
        if seg.intersects_rect(&band_y) {
            return true;
        }
        // Vertical band: rect widened horizontally by dist.
        let band_x = Rect {
            min: Point::new(self.min.x - dist, self.min.y),
            max: Point::new(self.max.x + dist, self.max.y),
        };
        if seg.intersects_rect(&band_x) {
            return true;
        }
        // Corner discs.
        let d2 = dist * dist;
        let corners = [
            self.min,
            Point::new(self.max.x, self.min.y),
            self.max,
            Point::new(self.min.x, self.max.y),
        ];
        corners.into_iter().any(|q| seg.dist_sq_to_point(q) <= d2)
    }

    /// Minimum distance between the closed rectangle and a segment
    /// (0 if the segment touches or enters the rectangle).
    ///
    /// Prefer [`Rect::within_dist_of_segment`] when only a threshold test
    /// is needed — it is considerably cheaper.
    pub fn mindist_to_segment(&self, seg: &LineSeg) -> f64 {
        if self.contains(seg.a) || self.contains(seg.b) {
            return 0.0;
        }
        let mut best = f64::INFINITY;
        for edge in self.edges() {
            if edge.intersects(seg) {
                return 0.0;
            }
            best = best.min(edge.dist_to_segment(seg));
        }
        best
    }
}

impl std::fmt::Display for Rect {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{} .. {}]", self.min, self.max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rect(x0: f64, y0: f64, x1: f64, y1: f64) -> Rect {
        Rect::new(Point::new(x0, y0), Point::new(x1, y1))
    }

    #[test]
    fn construction_and_metrics() {
        let r = Rect::from_corners(Point::new(3.0, 0.0), Point::new(1.0, 4.0));
        assert_eq!(r.min, Point::new(1.0, 0.0));
        assert_eq!(r.max, Point::new(3.0, 4.0));
        assert_eq!(r.width(), 2.0);
        assert_eq!(r.height(), 4.0);
        assert_eq!(r.center(), Point::new(2.0, 2.0));
        assert!((r.diagonal() - 20.0_f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn bounding_of_points() {
        let pts = vec![
            Point::new(1.0, 5.0),
            Point::new(-2.0, 0.0),
            Point::new(4.0, 2.0),
        ];
        let r = Rect::bounding(pts).unwrap();
        assert_eq!(r.min, Point::new(-2.0, 0.0));
        assert_eq!(r.max, Point::new(4.0, 5.0));
        assert!(Rect::bounding(std::iter::empty()).is_none());
    }

    #[test]
    fn expand_buffers_every_side() {
        let r = rect(0.0, 0.0, 2.0, 2.0).expand(0.5);
        assert_eq!(r.min, Point::new(-0.5, -0.5));
        assert_eq!(r.max, Point::new(2.5, 2.5));
    }

    #[test]
    fn union_covers_both() {
        let r = rect(0.0, 0.0, 1.0, 1.0).union(&rect(2.0, -1.0, 3.0, 0.5));
        assert_eq!(r.min, Point::new(0.0, -1.0));
        assert_eq!(r.max, Point::new(3.0, 1.0));
    }

    #[test]
    fn containment_is_closed() {
        let r = rect(0.0, 0.0, 2.0, 2.0);
        assert!(r.contains(Point::new(1.0, 1.0)));
        assert!(r.contains(Point::new(2.0, 2.0))); // closed boundary
        assert!(!r.contains(Point::new(2.1, 1.0)));
    }

    #[test]
    fn mindist_to_point() {
        let r = rect(0.0, 0.0, 2.0, 2.0);
        assert_eq!(r.mindist_to_point(Point::new(1.0, 1.0)), 0.0);
        assert_eq!(r.mindist_to_point(Point::new(5.0, 1.0)), 3.0);
        assert_eq!(r.mindist_to_point(Point::new(5.0, 6.0)), 5.0);
    }

    #[test]
    fn maxdist_to_point() {
        let r = rect(0.0, 0.0, 2.0, 2.0);
        // Farthest corner from the origin-corner is the opposite corner.
        assert!((r.maxdist_to_point(Point::new(0.0, 0.0)) - 8.0_f64.sqrt()).abs() < 1e-12);
        // Point inside: farthest corner still counted.
        assert!((r.maxdist_to_point(Point::new(1.0, 1.0)) - 2.0_f64.sqrt()).abs() < 1e-12);
        assert_eq!(r.maxdist_to_point(Point::new(5.0, 1.0)), {
            let dx: f64 = 5.0;
            let dy: f64 = 1.0;
            (dx * dx + dy * dy).sqrt()
        });
    }

    #[test]
    fn mindist_point_never_exceeds_maxdist() {
        let r = rect(-1.0, -2.0, 3.0, 1.0);
        for &(x, y) in &[(0.0, 0.0), (10.0, 10.0), (-5.0, 0.5), (3.0, 1.0)] {
            let p = Point::new(x, y);
            assert!(r.mindist_to_point(p) <= r.maxdist_to_point(p));
        }
    }

    #[test]
    fn mindist_to_segment() {
        let r = rect(0.0, 0.0, 2.0, 2.0);
        // Segment crossing the rect.
        assert_eq!(
            r.mindist_to_segment(&LineSeg::new(Point::new(-1.0, 1.0), Point::new(3.0, 1.0))),
            0.0
        );
        // Segment with an endpoint inside.
        assert_eq!(
            r.mindist_to_segment(&LineSeg::new(Point::new(1.0, 1.0), Point::new(5.0, 5.0))),
            0.0
        );
        // Vertical segment to the right, 1 away.
        assert_eq!(
            r.mindist_to_segment(&LineSeg::new(Point::new(3.0, -1.0), Point::new(3.0, 3.0))),
            1.0
        );
        // Diagonal far away: corner-to-endpoint distance.
        let d = r.mindist_to_segment(&LineSeg::new(Point::new(5.0, 6.0), Point::new(7.0, 8.0)));
        assert!((d - 5.0).abs() < 1e-12);
    }
}
