//! A uniform grid with half-open cells.
//!
//! Both of the paper's index structures are built on a uniform spatial grid:
//! the POI index of Section 3.2.1 ("a spatial grid index with arbitrary cell
//! size") and the photo index of Section 4.2.1 (cell side ρ/2). This module
//! provides the shared grid geometry:
//!
//! - point → cell assignment with **half-open** cells
//!   `[x₀+i·h, x₀+(i+1)·h) × [y₀+j·h, y₀+(j+1)·h)`, so every point belongs to
//!   exactly one cell and the 5×5-neighbourhood bound of Eq. 12 is a true
//!   upper bound;
//! - cell ↔ linear [`CellId`] mapping (row-major);
//! - rectangle and ε-dilated-segment → cell-range queries, used to build the
//!   augmented `Lε(c)` / `Cε(ℓ)` maps.

use crate::point::Point;
use crate::rect::Rect;
use crate::segment::LineSeg;
use soi_common::CellId;

/// Integer coordinates of a grid cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CellCoord {
    /// Column index (0-based).
    pub ix: u32,
    /// Row index (0-based).
    pub iy: u32,
}

impl CellCoord {
    /// Creates a cell coordinate.
    #[inline]
    pub const fn new(ix: u32, iy: u32) -> Self {
        Self { ix, iy }
    }

    /// Chebyshev (max-axis) distance in cells to another coordinate.
    #[inline]
    pub fn chebyshev(self, other: CellCoord) -> u32 {
        let dx = (self.ix as i64 - other.ix as i64).unsigned_abs();
        let dy = (self.iy as i64 - other.iy as i64).unsigned_abs();
        dx.max(dy) as u32
    }
}

/// Relative distance the shortcuts of [`Grid::for_each_cell_near_segment`]
/// stay away from the boundaries they are proved at.
const SHORTCUT_MARGIN: f64 = 1e-9;

/// A uniform grid over a rectangular extent.
#[derive(Debug, Clone, PartialEq)]
pub struct Grid {
    origin: Point,
    cell_size: f64,
    nx: u32,
    ny: u32,
}

impl Grid {
    /// Creates a grid with the given origin, cell size, and cell counts.
    ///
    /// # Panics
    /// Panics if `cell_size` is not strictly positive or a cell count is 0.
    pub fn new(origin: Point, cell_size: f64, nx: u32, ny: u32) -> Self {
        assert!(
            cell_size > 0.0 && cell_size.is_finite(),
            "cell_size must be positive and finite"
        );
        assert!(
            nx > 0 && ny > 0,
            "grid must have at least one cell per axis"
        );
        assert!(
            (nx as u64) * (ny as u64) <= u32::MAX as u64,
            "grid too large for CellId"
        );
        Self {
            origin,
            cell_size,
            nx,
            ny,
        }
    }

    /// Creates the smallest grid of `cell_size` cells that covers `extent`,
    /// with one extra cell per axis so that points on the maximum boundary
    /// still fall strictly inside a cell.
    ///
    /// # Panics
    /// Panics if `cell_size` is not strictly positive, or if the grid would
    /// have more cells than a `CellId` can number (see
    /// [`try_covering`](Self::try_covering)).
    pub fn covering(extent: Rect, cell_size: f64) -> Self {
        Self::try_covering(extent, cell_size)
            .unwrap_or_else(|cells| panic!("grid too large for CellId: {cells:e} cells"))
    }

    /// [`covering`](Self::covering) for a cell size that comes from outside
    /// the program: when `extent` needs more cells than a `CellId` can
    /// number, returns that cell count instead of a grid. The counts are
    /// taken in `f64`, where a tiny cell size can neither saturate nor wrap
    /// them.
    ///
    /// # Panics
    /// Panics if `cell_size` is not strictly positive.
    pub fn try_covering(extent: Rect, cell_size: f64) -> Result<Self, f64> {
        assert!(
            cell_size > 0.0 && cell_size.is_finite(),
            "cell_size must be positive and finite"
        );
        let nx = (extent.width() / cell_size).ceil() + 1.0;
        let ny = (extent.height() / cell_size).ceil() + 1.0;
        let cells = nx * ny;
        // Also false for a NaN count (a non-finite extent).
        if cells <= f64::from(u32::MAX) {
            Ok(Self::new(extent.min, cell_size, nx as u32, ny as u32))
        } else {
            Err(cells)
        }
    }

    /// Grid origin (minimum corner).
    #[inline]
    pub fn origin(&self) -> Point {
        self.origin
    }

    /// Side length of each (square) cell.
    #[inline]
    pub fn cell_size(&self) -> f64 {
        self.cell_size
    }

    /// Number of columns.
    #[inline]
    pub fn nx(&self) -> u32 {
        self.nx
    }

    /// Number of rows.
    #[inline]
    pub fn ny(&self) -> u32 {
        self.ny
    }

    /// Total number of cells.
    #[inline]
    pub fn num_cells(&self) -> usize {
        self.nx as usize * self.ny as usize
    }

    /// Linearises a cell coordinate (row-major).
    #[inline]
    pub fn cell_id(&self, c: CellCoord) -> CellId {
        debug_assert!(c.ix < self.nx && c.iy < self.ny, "cell out of range");
        CellId(c.iy * self.nx + c.ix)
    }

    /// Inverse of [`Grid::cell_id`].
    #[inline]
    pub fn coord_of(&self, id: CellId) -> CellCoord {
        let raw = id.raw();
        debug_assert!((raw as usize) < self.num_cells(), "cell id out of range");
        CellCoord::new(raw % self.nx, raw / self.nx)
    }

    /// `p`'s offsets from the origin, in cells, as rounded: the cell
    /// containing `p` is their floor.
    #[inline]
    pub fn cell_offsets(&self, p: Point) -> (f64, f64) {
        (
            (p.x - self.origin.x) / self.cell_size,
            (p.y - self.origin.y) / self.cell_size,
        )
    }

    /// The cell containing `p` under half-open semantics, or `None` if `p`
    /// lies outside the grid extent or has a NaN coordinate.
    #[inline]
    pub fn cell_containing(&self, p: Point) -> Option<CellCoord> {
        let (fx, fy) = self.cell_offsets(p);
        let (fx, fy) = (fx.floor(), fy.floor());
        // Stated as what a cell's offsets satisfy, so that a NaN offset,
        // which fails every comparison, is outside too.
        let inside = |f: f64, n: u32| (0.0..f64::from(n)).contains(&f);
        if !(inside(fx, self.nx) && inside(fy, self.ny)) {
            return None;
        }
        Some(CellCoord::new(fx as u32, fy as u32))
    }

    /// The closed rectangle spanned by cell `c`.
    ///
    /// Membership is half-open (the max edges belong to the next cell), but
    /// distance queries treat the rect as closed, which keeps lower bounds
    /// conservative.
    #[inline]
    pub fn cell_rect(&self, c: CellCoord) -> Rect {
        let min = Point::new(
            self.origin.x + c.ix as f64 * self.cell_size,
            self.origin.y + c.iy as f64 * self.cell_size,
        );
        Rect::new(
            min,
            Point::new(min.x + self.cell_size, min.y + self.cell_size),
        )
    }

    /// Inclusive cell-coordinate ranges of cells overlapping `r`, clipped to
    /// the grid. Returns `None` if `r` lies entirely outside.
    ///
    /// The cell of a coordinate is the floor of its offset in cell units,
    /// taken here without a `floor` call (Alg. 1 asks this of every segment
    /// on every query): the two rejection tests compare against integers,
    /// which the floor cannot change, and past them each offset is clamped
    /// to `[0, n-1]`, where the truncating cast *is* the floor.
    fn clip_range(&self, r: &Rect) -> Option<(u32, u32, u32, u32)> {
        let x0 = (r.min.x - self.origin.x) / self.cell_size;
        let y0 = (r.min.y - self.origin.y) / self.cell_size;
        let x1 = (r.max.x - self.origin.x) / self.cell_size;
        let y1 = (r.max.y - self.origin.y) / self.cell_size;
        if x1 < 0.0 || y1 < 0.0 || x0 >= self.nx as f64 || y0 >= self.ny as f64 {
            return None;
        }
        let x0 = x0.max(0.0) as u32;
        let y0 = y0.max(0.0) as u32;
        let x1 = (x1.min((self.nx - 1) as f64)) as u32;
        let y1 = (y1.min((self.ny - 1) as f64)) as u32;
        Some((x0, y0, x1, y1))
    }

    /// Inclusive `(x0, y0, x1, y1)` cell-index range of cells overlapping
    /// `r`, clipped to the grid (`None` if fully outside).
    pub fn cell_range_in_rect(&self, r: &Rect) -> Option<(u32, u32, u32, u32)> {
        self.clip_range(r)
    }

    /// Number of cells whose (closed) rect overlaps rectangle `r`, in O(1).
    pub fn count_cells_in_rect(&self, r: &Rect) -> usize {
        match self.clip_range(r) {
            Some((x0, y0, x1, y1)) => ((x1 - x0 + 1) as usize) * ((y1 - y0 + 1) as usize),
            None => 0,
        }
    }

    /// All cells within distance `dist` of segment `seg`
    /// (`mindist(cell, seg) ≤ dist`), in row-major order.
    ///
    /// This is the ε-dilation used to build `Cε(ℓ)`: every POI within `dist`
    /// of the segment is guaranteed to lie in one of the returned cells.
    pub fn cells_near_segment(&self, seg: &LineSeg, dist: f64) -> Vec<CellCoord> {
        let mut out = Vec::new();
        self.for_each_cell_near_segment(seg, dist, |c| out.push(c));
        out
    }

    /// Visitor form of [`Grid::cells_near_segment`]: calls `f` for every
    /// cell within `dist` of `seg`, row-major, without allocating.
    ///
    /// The cells are exactly those [`Rect::within_dist_of_segment`] accepts
    /// among the ones under the segment's `dist`-dilated bounding box, but
    /// most are settled by one point–segment distance: with `d` the distance
    /// from a cell's centre to the segment and `r = h·√2 / 2` the cell's
    /// circumradius, `d ≤ dist` puts the centre itself within `dist`, and
    /// `d > dist + r` leaves every point of the cell farther than `dist`
    /// (none is nearer than `d − r`). Both tests keep a relative margin of
    /// `SHORTCUT_MARGIN` (1e-9) from those boundaries — many orders of magnitude
    /// more than the rounding of `d` — and what falls between them goes to
    /// the predicate.
    pub fn for_each_cell_near_segment<F: FnMut(CellCoord)>(
        &self,
        seg: &LineSeg,
        dist: f64,
        mut f: F,
    ) {
        let dist = dist.max(0.0);
        let bbox = seg.bounding_rect().expand(dist);
        let Some((x0, y0, x1, y1)) = self.clip_range(&bbox) else {
            return;
        };
        let circumradius = self.cell_size * std::f64::consts::FRAC_1_SQRT_2;
        let surely_within_sq = (dist * (1.0 - SHORTCUT_MARGIN)).powi(2);
        let maybe_within_sq = ((dist + circumradius) * (1.0 + SHORTCUT_MARGIN)).powi(2);
        for iy in y0..=y1 {
            for ix in x0..=x1 {
                let c = CellCoord::new(ix, iy);
                let rect = self.cell_rect(c);
                let d_sq = seg.dist_sq_to_point(rect.center());
                if d_sq <= surely_within_sq
                    || (d_sq <= maybe_within_sq && rect.within_dist_of_segment(seg, dist))
                {
                    f(c);
                }
            }
        }
    }

    /// Calls `f` for every cell within Chebyshev radius `radius` of `c`
    /// (including `c` itself), clipped to the grid, row-major, without
    /// allocating.
    ///
    /// The photo-index spatial-relevance upper bound (Eq. 12) sums counts
    /// over the radius-2 neighbourhood. Any `radius` is valid: one that
    /// reaches past the grid (Alg. 1 derives it from a caller's ε) visits
    /// the whole grid.
    // Pinned inline: Alg. 1 calls this once per popped cell with a closure
    // that is a few instructions per visited cell.
    #[inline]
    pub fn for_each_in_neighborhood<F: FnMut(CellCoord)>(
        &self,
        c: CellCoord,
        radius: u32,
        mut f: F,
    ) {
        let x0 = c.ix.saturating_sub(radius);
        let y0 = c.iy.saturating_sub(radius);
        let x1 = c.ix.saturating_add(radius).min(self.nx - 1);
        let y1 = c.iy.saturating_add(radius).min(self.ny - 1);
        for iy in y0..=y1 {
            for ix in x0..=x1 {
                f(CellCoord::new(ix, iy));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit_grid() -> Grid {
        // 4x3 grid of unit cells with origin at (0,0).
        Grid::new(Point::ORIGIN, 1.0, 4, 3)
    }

    #[test]
    fn cell_assignment_is_half_open() {
        let g = unit_grid();
        assert_eq!(
            g.cell_containing(Point::new(0.0, 0.0)),
            Some(CellCoord::new(0, 0))
        );
        // A point exactly on an interior boundary belongs to the next cell.
        assert_eq!(
            g.cell_containing(Point::new(1.0, 0.5)),
            Some(CellCoord::new(1, 0))
        );
        assert_eq!(
            g.cell_containing(Point::new(0.5, 2.0)),
            Some(CellCoord::new(0, 2))
        );
        // Outside the extent.
        assert_eq!(g.cell_containing(Point::new(-0.1, 0.0)), None);
        assert_eq!(g.cell_containing(Point::new(4.0, 0.0)), None);
        assert_eq!(g.cell_containing(Point::new(0.0, 3.0)), None);
        // Nor is a point with a NaN or infinite coordinate.
        for p in [(f64::NAN, 0.5), (0.5, f64::NAN), (f64::INFINITY, 0.5)] {
            assert_eq!(g.cell_containing(Point::new(p.0, p.1)), None, "{p:?}");
        }
    }

    #[test]
    fn clip_range_equals_the_floor_of_each_corner() {
        // The reference: floor first, then reject and clamp.
        fn reference(g: &Grid, r: &Rect) -> Option<(u32, u32, u32, u32)> {
            let cell = |v: f64, o: f64| ((v - o) / g.cell_size).floor();
            let (x0, y0) = (cell(r.min.x, g.origin.x), cell(r.min.y, g.origin.y));
            let (x1, y1) = (cell(r.max.x, g.origin.x), cell(r.max.y, g.origin.y));
            if x1 < 0.0 || y1 < 0.0 || x0 >= g.nx as f64 || y0 >= g.ny as f64 {
                return None;
            }
            Some((
                x0.max(0.0) as u32,
                y0.max(0.0) as u32,
                x1.min((g.nx - 1) as f64) as u32,
                y1.min((g.ny - 1) as f64) as u32,
            ))
        }
        let g = Grid::new(Point::new(-1.5, 2.0), 0.25, 7, 5);
        // Corners on, just inside and just outside every cell boundary,
        // well outside the grid, and non-finite.
        let mut xs = vec![
            f64::NEG_INFINITY,
            -1e300,
            1e300,
            f64::INFINITY,
            f64::NAN,
            -0.0,
        ];
        for i in -3..=10 {
            let edge = -1.5 + f64::from(i) * 0.25;
            xs.extend([edge, edge - 1e-12, edge + 1e-12, edge + 0.1]);
        }
        for &ax in &xs {
            for &bx in &xs {
                for (ay, by) in [(2.0, 2.3), (1.0, 1.9), (3.3, 9.0), (2.25, 2.25)] {
                    let r = Rect {
                        min: Point::new(ax, ay),
                        max: Point::new(bx, by),
                    };
                    assert_eq!(g.cell_range_in_rect(&r), reference(&g, &r), "x {ax}..{bx}");
                    let r = Rect {
                        min: Point::new(ay - 3.5, ax + 3.5),
                        max: Point::new(by - 3.5, bx + 3.5),
                    };
                    assert_eq!(g.cell_range_in_rect(&r), reference(&g, &r), "y {ax}..{bx}");
                }
            }
        }
    }

    #[test]
    fn cell_id_roundtrip() {
        let g = unit_grid();
        for iy in 0..3 {
            for ix in 0..4 {
                let c = CellCoord::new(ix, iy);
                assert_eq!(g.coord_of(g.cell_id(c)), c);
            }
        }
        assert_eq!(g.cell_id(CellCoord::new(0, 0)).raw(), 0);
        assert_eq!(g.cell_id(CellCoord::new(3, 2)).raw(), 11);
        assert_eq!(g.num_cells(), 12);
    }

    #[test]
    fn covering_includes_boundary_points() {
        let extent = Rect::new(Point::new(0.0, 0.0), Point::new(10.0, 5.0));
        let g = Grid::covering(extent, 1.0);
        // Every point of the extent, including the max corner, maps to a cell.
        assert!(g.cell_containing(Point::new(10.0, 5.0)).is_some());
        assert!(g.cell_containing(Point::new(0.0, 0.0)).is_some());
    }

    #[test]
    fn covering_counts_cells_without_wrapping() {
        let extent = Rect::new(Point::new(0.0, 0.0), Point::new(10.0, 5.0));
        let g = Grid::try_covering(extent, 1.0).unwrap();
        assert_eq!((g.nx(), g.ny()), (11, 6));
        // 2e9 × 1e9 cells: `as u32` would saturate and `+ 1` wrap to a
        // 1 × 1 grid. The largest grid a `CellId` can number still builds.
        let cells = Grid::try_covering(extent, 5e-9).unwrap_err();
        assert!((2.0e18..2.1e18).contains(&cells), "{cells:e}");
        assert_eq!(Grid::try_covering(extent, 1e-300), Err(f64::INFINITY));
        let line = Rect::new(Point::new(0.0, 0.0), Point::new(4_294_967_293.0, 0.0));
        assert_eq!(Grid::try_covering(line, 1.0).unwrap().nx(), u32::MAX - 1);
        let line = Rect::new(Point::new(0.0, 0.0), Point::new(4_294_967_295.0, 0.0));
        assert!(Grid::try_covering(line, 1.0).is_err());
    }

    #[test]
    #[should_panic(expected = "grid too large for CellId")]
    fn covering_panics_where_it_used_to_wrap() {
        let extent = Rect::new(Point::new(0.0, 0.0), Point::new(10.0, 5.0));
        let _ = Grid::covering(extent, 1e-12);
    }

    #[test]
    fn cell_rect_matches_assignment() {
        let g = unit_grid();
        let c = CellCoord::new(2, 1);
        let r = g.cell_rect(c);
        assert_eq!(r.min, Point::new(2.0, 1.0));
        assert_eq!(r.max, Point::new(3.0, 2.0));
        // Interior points of the rect map back to the cell.
        assert_eq!(g.cell_containing(r.center()), Some(c));
    }

    #[test]
    fn count_cells_in_rect_clips_to_grid() {
        let g = unit_grid();
        let all = Rect::new(Point::new(-5.0, -5.0), Point::new(50.0, 50.0));
        assert_eq!(g.count_cells_in_rect(&all), 12);
        let none = Rect::new(Point::new(10.0, 10.0), Point::new(11.0, 11.0));
        assert_eq!(g.count_cells_in_rect(&none), 0);
        let some = Rect::new(Point::new(0.5, 0.5), Point::new(1.5, 0.6));
        assert_eq!(g.count_cells_in_rect(&some), 2);
        assert_eq!(g.cell_range_in_rect(&some), Some((0, 0, 1, 0)));
    }

    #[test]
    fn cells_near_segment_covers_epsilon_band() {
        let g = unit_grid();
        // Horizontal segment through the middle of row 1.
        let seg = LineSeg::new(Point::new(0.5, 1.5), Point::new(3.5, 1.5));
        let near = g.cells_near_segment(&seg, 0.4);
        // Only row 1 is within 0.4.
        assert!(near.iter().all(|c| c.iy == 1));
        assert_eq!(near.len(), 4);
        // With dist 0.6, rows 0 and 2 are reachable too.
        let wider = g.cells_near_segment(&seg, 0.6);
        assert_eq!(wider.len(), 12);
    }

    #[test]
    fn cells_near_segment_contains_cells_of_near_points() {
        // Coverage invariant: any point within dist of the segment lies in a
        // returned cell.
        let g = Grid::new(Point::ORIGIN, 0.5, 20, 20);
        let seg = LineSeg::new(Point::new(1.3, 2.7), Point::new(7.9, 6.1));
        let dist = 0.9;
        let cells = g.cells_near_segment(&seg, dist);
        for i in 0..200 {
            let t = i as f64 / 199.0;
            let on = seg.a.lerp(seg.b, t);
            // Offset perpendicular-ish by almost dist.
            let p = Point::new(on.x + 0.6, on.y - 0.6);
            if seg.dist_to_point(p) <= dist {
                let c = g.cell_containing(p).expect("inside grid");
                assert!(cells.contains(&c), "cell {c:?} missing for point {p}");
            }
        }
    }

    #[test]
    fn neighborhood_clips_at_edges() {
        let g = unit_grid();
        let neighborhood = |c, radius| {
            let mut out = Vec::new();
            g.for_each_in_neighborhood(c, radius, |n| out.push(n));
            out
        };
        let n = neighborhood(CellCoord::new(0, 0), 2);
        // 3x3 clipped corner block (radius 2 => 3 cols x 3 rows available).
        assert_eq!(n.len(), 9);
        assert!(n.contains(&CellCoord::new(0, 0)));
        assert!(n.contains(&CellCoord::new(2, 2)));
        let center = neighborhood(CellCoord::new(2, 1), 1);
        assert_eq!(center.len(), 9);
    }

    #[test]
    fn neighborhood_of_any_radius_is_the_whole_grid_once() {
        // `ix + radius` used to overflow: a panic in a debug build, and in
        // a release build a ring that ended west of the cell.
        let g = unit_grid();
        let all: Vec<CellCoord> = (0..g.ny)
            .flat_map(|iy| (0..g.nx).map(move |ix| CellCoord::new(ix, iy)))
            .collect();
        for radius in [4, u32::MAX - 1, u32::MAX] {
            // A corner, an edge and an interior cell.
            for c in [
                CellCoord::new(0, 0),
                CellCoord::new(3, 1),
                CellCoord::new(2, 1),
            ] {
                let mut visited = Vec::new();
                g.for_each_in_neighborhood(c, radius, |n| visited.push(n));
                assert_eq!(visited, all, "radius {radius} around {c:?}");
            }
        }
    }

    #[test]
    fn chebyshev_distance() {
        assert_eq!(CellCoord::new(1, 1).chebyshev(CellCoord::new(4, 3)), 3);
        assert_eq!(CellCoord::new(4, 3).chebyshev(CellCoord::new(1, 1)), 3);
        assert_eq!(CellCoord::new(2, 2).chebyshev(CellCoord::new(2, 2)), 0);
    }

    #[test]
    #[should_panic(expected = "cell_size must be positive")]
    fn zero_cell_size_panics() {
        Grid::new(Point::ORIGIN, 0.0, 1, 1);
    }
}
