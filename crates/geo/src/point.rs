//! 2-D points with vector arithmetic.

use std::ops::{Add, Div, Mul, Neg, Sub};

/// A point (or vector) in the planar coordinate space.
///
/// Coordinates are in the dataset's native unit (degrees for the paper's
/// city datasets); all distances are Euclidean.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Point {
    /// Horizontal coordinate (longitude-like).
    pub x: f64,
    /// Vertical coordinate (latitude-like).
    pub y: f64,
}

impl Point {
    /// Creates a point from its coordinates.
    #[inline]
    pub const fn new(x: f64, y: f64) -> Self {
        Self { x, y }
    }

    /// The origin.
    pub const ORIGIN: Point = Point::new(0.0, 0.0);

    /// Euclidean distance to `other`.
    #[inline]
    pub fn dist(self, other: Point) -> f64 {
        self.dist_sq(other).sqrt()
    }

    /// Squared Euclidean distance to `other` (cheaper; use for comparisons).
    #[inline]
    pub fn dist_sq(self, other: Point) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        dx * dx + dy * dy
    }

    /// Dot product, treating both points as vectors.
    #[inline]
    pub(crate) fn dot(self, other: Point) -> f64 {
        self.x * other.x + self.y * other.y
    }

    /// Z-component of the cross product, treating both points as vectors.
    #[inline]
    pub(crate) fn cross(self, other: Point) -> f64 {
        self.x * other.y - self.y * other.x
    }

    /// Linear interpolation: `self + t * (other - self)`.
    #[inline]
    pub fn lerp(self, other: Point, t: f64) -> Point {
        Point::new(
            self.x + t * (other.x - self.x),
            self.y + t * (other.y - self.y),
        )
    }

    /// Component-wise minimum.
    #[inline]
    pub(crate) fn min(self, other: Point) -> Point {
        Point::new(self.x.min(other.x), self.y.min(other.y))
    }

    /// Component-wise maximum.
    #[inline]
    pub(crate) fn max(self, other: Point) -> Point {
        Point::new(self.x.max(other.x), self.y.max(other.y))
    }

    /// Returns true if both coordinates are finite.
    #[inline]
    pub fn is_finite(self) -> bool {
        self.x.is_finite() && self.y.is_finite()
    }
}

impl Add for Point {
    type Output = Point;
    #[inline]
    fn add(self, rhs: Point) -> Point {
        Point::new(self.x + rhs.x, self.y + rhs.y)
    }
}

impl Sub for Point {
    type Output = Point;
    #[inline]
    fn sub(self, rhs: Point) -> Point {
        Point::new(self.x - rhs.x, self.y - rhs.y)
    }
}

impl Mul<f64> for Point {
    type Output = Point;
    #[inline]
    fn mul(self, rhs: f64) -> Point {
        Point::new(self.x * rhs, self.y * rhs)
    }
}

impl Div<f64> for Point {
    type Output = Point;
    #[inline]
    fn div(self, rhs: f64) -> Point {
        Point::new(self.x / rhs, self.y / rhs)
    }
}

impl Neg for Point {
    type Output = Point;
    #[inline]
    fn neg(self) -> Point {
        Point::new(-self.x, -self.y)
    }
}

impl From<(f64, f64)> for Point {
    #[inline]
    fn from((x, y): (f64, f64)) -> Self {
        Point::new(x, y)
    }
}

impl From<Point> for (f64, f64) {
    #[inline]
    fn from(p: Point) -> (f64, f64) {
        (p.x, p.y)
    }
}

impl std::fmt::Display for Point {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "({}, {})", self.x, self.y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distance_is_euclidean() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(3.0, 4.0);
        assert_eq!(a.dist(b), 5.0);
        assert_eq!(a.dist_sq(b), 25.0);
        assert_eq!(b.dist(a), 5.0);
    }

    #[test]
    fn arithmetic() {
        let a = Point::new(1.0, 2.0);
        let b = Point::new(3.0, -1.0);
        assert_eq!(a + b, Point::new(4.0, 1.0));
        assert_eq!(a - b, Point::new(-2.0, 3.0));
        assert_eq!(a * 2.0, Point::new(2.0, 4.0));
        assert_eq!(a / 2.0, Point::new(0.5, 1.0));
        assert_eq!(-a, Point::new(-1.0, -2.0));
    }

    #[test]
    fn dot_and_cross() {
        let a = Point::new(1.0, 0.0);
        let b = Point::new(0.0, 1.0);
        assert_eq!(a.dot(b), 0.0);
        assert_eq!(a.cross(b), 1.0);
        assert_eq!(b.cross(a), -1.0);
    }

    #[test]
    fn lerp_endpoints_and_midpoint() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(2.0, 4.0);
        assert_eq!(a.lerp(b, 0.0), a);
        assert_eq!(a.lerp(b, 1.0), b);
        assert_eq!(a.lerp(b, 0.5), Point::new(1.0, 2.0));
    }

    #[test]
    fn min_max_componentwise() {
        let a = Point::new(1.0, 5.0);
        let b = Point::new(2.0, 3.0);
        assert_eq!(a.min(b), Point::new(1.0, 3.0));
        assert_eq!(a.max(b), Point::new(2.0, 5.0));
    }

    #[test]
    fn conversions() {
        let p: Point = (1.5, 2.5).into();
        assert_eq!(p, Point::new(1.5, 2.5));
        let t: (f64, f64) = p.into();
        assert_eq!(t, (1.5, 2.5));
    }

    #[test]
    fn finiteness() {
        assert!(Point::new(1.0, 2.0).is_finite());
        assert!(!Point::new(f64::NAN, 0.0).is_finite());
        assert!(!Point::new(0.0, f64::INFINITY).is_finite());
    }
}
