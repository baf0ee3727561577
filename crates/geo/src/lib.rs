//! Planar geometry primitives for the streets-of-interest system.
//!
//! The paper works in a planar Euclidean space whose unit is degrees (its
//! distance threshold is ε = 0.0005° ≈ 55 m); this crate follows suit: all
//! coordinates are `f64` pairs and all distances are Euclidean.
//!
//! Contents:
//! - [`Point`]: a 2-D point with vector arithmetic.
//! - [`LineSeg`]: a line segment with point/segment distance computations —
//!   the distance `dist(p, ℓ)` of Definition 1 lives here.
//! - [`Rect`]: an axis-aligned rectangle with `mindist`/`maxdist` queries,
//!   used for grid-cell bounds (Eqs. 15–16) and street MBRs (`maxD(s)`,
//!   Definition 5).
//! - [`Polyline`]: a chain of points (street geometry helper).
//! - [`Grid`]: the uniform grid shared by the POI index (Sec. 3.2.1) and the
//!   photo index (Sec. 4.2.1), with half-open cells and ε-dilation of
//!   segments over cells.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]
// Library code must surface failures as `SoiError`, never panic: unwrap and
// expect are compile errors outside of test code.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod grid;
mod point;
mod polyline;
mod rect;
mod segment;

pub use grid::{CellCoord, Grid};
pub use point::Point;
pub use polyline::Polyline;
pub use rect::Rect;
pub use segment::LineSeg;
