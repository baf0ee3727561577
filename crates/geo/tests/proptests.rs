//! Property-based tests for the geometry primitives.
//!
//! These check the metric and bounding invariants the indexing layer relies
//! on: point–segment distance behaves like a metric projection, rect
//! mindist/maxdist sandwich true distances, and grid dilation covers every
//! nearby point.

use proptest::prelude::*;
use soi_geo::{CellCoord, Grid, LineSeg, Point, Polyline, Rect};

const COORD: std::ops::Range<f64> = -100.0..100.0;

fn point() -> impl Strategy<Value = Point> {
    (COORD, COORD).prop_map(|(x, y)| Point::new(x, y))
}

fn segment() -> impl Strategy<Value = LineSeg> {
    (point(), point()).prop_map(|(a, b)| LineSeg::new(a, b))
}

fn rect() -> impl Strategy<Value = Rect> {
    (point(), point()).prop_map(|(a, b)| Rect::from_corners(a, b))
}

/// The rasteriser's specification: the exact predicate asked of every cell
/// under the segment's dilated bounding box, row-major.
fn cells_by_predicate(g: &Grid, s: &LineSeg, dist: f64) -> Vec<CellCoord> {
    let Some((x0, y0, x1, y1)) = g.cell_range_in_rect(&s.bounding_rect().expand(dist)) else {
        return Vec::new();
    };
    let mut cells = Vec::new();
    for iy in y0..=y1 {
        for ix in x0..=x1 {
            let c = CellCoord::new(ix, iy);
            if g.cell_rect(c).within_dist_of_segment(s, dist) {
                cells.push(c);
            }
        }
    }
    cells
}

proptest! {
    /// `for_each_cell_near_segment` settles most cells by their centre's
    /// distance to the segment; the cells it yields are the predicate's all
    /// the same. Endpoints sit on cell corners, on cell centres or anywhere
    /// (also outside the grid), segments are lattice-aligned, diagonal or
    /// degenerate, and the distance is 0, a multiple of the circumradius
    /// `h·√2/2` (a lattice point's exact distance to the corners diagonally
    /// off it), half a cell, a cell, exactly the distance from some cell's
    /// centre to the segment, that less the circumradius, far more than the
    /// extent, or anything. CI runs this under the release profile too.
    #[test]
    fn cell_rasteriser_yields_the_cells_the_predicate_accepts(
        a in (0usize..3, -2i32..16, -2i32..14, 0.0f64..1.0, 0.0f64..1.0),
        b in (0usize..4, -2i32..16, -2i32..14, 0.0f64..1.0, 0.0f64..1.0),
        dist in (0usize..10, 0u32..13, 0u32..11, 0.0f64..1.0),
    ) {
        const H: f64 = 0.25;
        let g = Grid::new(Point::new(-1.5, 2.0), H, 13, 11);
        let place = |(kind, i, j, fx, fy): (usize, i32, i32, f64, f64)| {
            let (x, y) = match kind {
                0 => (f64::from(i) * H, f64::from(j) * H),
                1 => ((f64::from(i) + 0.5) * H, (f64::from(j) + 0.5) * H),
                _ => ((fx * 16.0 - 2.0) * H, (fy * 14.0 - 2.0) * H),
            };
            Point::new(-1.5 + x, 2.0 + y)
        };
        let a = place(a);
        let s = LineSeg::new(a, if b.0 == 3 { a } else { place(b) });
        let circumradius = H * std::f64::consts::FRAC_1_SQRT_2;
        let (pick, ix, iy, free) = dist;
        let from_centre = s.dist_to_point(g.cell_rect(CellCoord::new(ix, iy)).center());
        let dist = match pick {
            0 => 0.0,
            1 => circumradius,
            2 => 2.0 * circumradius,
            3 => 4.0 * circumradius,
            4 => H / 2.0,
            5 => H,
            6 => from_centre,
            7 => (from_centre - circumradius).max(0.0),
            8 => 100.0,
            _ => free,
        };
        prop_assert_eq!(g.cells_near_segment(&s, dist), cells_by_predicate(&g, &s, dist));
    }

    #[test]
    fn point_distance_symmetry(a in point(), b in point()) {
        prop_assert!((a.dist(b) - b.dist(a)).abs() < 1e-9);
    }

    #[test]
    fn point_distance_triangle_inequality(a in point(), b in point(), c in point()) {
        prop_assert!(a.dist(c) <= a.dist(b) + b.dist(c) + 1e-9);
    }

    #[test]
    fn segment_distance_at_most_endpoint_distance(s in segment(), p in point()) {
        let d = s.dist_to_point(p);
        prop_assert!(d <= p.dist(s.a) + 1e-9);
        prop_assert!(d <= p.dist(s.b) + 1e-9);
        prop_assert!(d >= 0.0);
    }

    #[test]
    fn closest_point_lies_on_segment_and_realises_distance(s in segment(), p in point()) {
        let cp = s.closest_point(p);
        // cp is on the segment: distance from segment to cp is ~0.
        prop_assert!(s.dist_to_point(cp) < 1e-7);
        // cp realises the reported distance.
        prop_assert!((cp.dist(p) - s.dist_to_point(p)).abs() < 1e-9);
    }

    #[test]
    fn interior_sample_distance_never_below_segment_distance(
        s in segment(), p in point(), t in 0.0f64..1.0
    ) {
        // The distance to any sampled segment point upper-bounds dist(p, s).
        let sample = s.a.lerp(s.b, t);
        prop_assert!(s.dist_to_point(p) <= sample.dist(p) + 1e-9);
    }

    #[test]
    fn segment_pair_distance_symmetric_and_bounded(s1 in segment(), s2 in segment()) {
        let d12 = s1.dist_to_segment(&s2);
        let d21 = s2.dist_to_segment(&s1);
        prop_assert!((d12 - d21).abs() < 1e-9);
        // Bounded above by any endpoint pair distance.
        prop_assert!(d12 <= s1.a.dist(s2.a) + 1e-9);
        prop_assert!(d12 <= s1.b.dist(s2.b) + 1e-9);
    }

    #[test]
    fn rect_min_max_dist_sandwich(r in rect(), p in point(), q in point()) {
        // For any point q inside the rect, mindist <= dist(p, q) <= maxdist.
        let clamped = Point::new(
            q.x.clamp(r.min.x, r.max.x),
            q.y.clamp(r.min.y, r.max.y),
        );
        let d = p.dist(clamped);
        prop_assert!(r.mindist_to_point(p) <= d + 1e-9);
        prop_assert!(d <= r.maxdist_to_point(p) + 1e-9);
    }

    #[test]
    fn rect_mindist_to_segment_consistent_with_samples(r in rect(), s in segment()) {
        let d = r.mindist_to_segment(&s);
        // Sampling points along the segment: their rect-mindist can never be
        // below the segment mindist.
        for i in 0..=10 {
            let t = i as f64 / 10.0;
            let p = s.a.lerp(s.b, t);
            prop_assert!(r.mindist_to_point(p) + 1e-9 >= d);
        }
    }

    #[test]
    fn within_dist_of_segment_matches_mindist(r in rect(), s in segment(), d in 0.0f64..20.0) {
        let fast = r.within_dist_of_segment(&s, d);
        let exact = r.mindist_to_segment(&s) <= d;
        // Allow disagreement only within floating-point slack of the
        // boundary.
        if fast != exact {
            prop_assert!((r.mindist_to_segment(&s) - d).abs() < 1e-9);
        }
    }

    #[test]
    fn segment_rect_intersection_matches_mindist_zero(r in rect(), s in segment()) {
        let slab = s.intersects_rect(&r);
        let exact = r.mindist_to_segment(&s) == 0.0;
        prop_assert_eq!(slab, exact);
    }

    #[test]
    fn rect_expand_monotone(r in rect(), buf in 0.0f64..10.0, p in point()) {
        let e = r.expand(buf);
        prop_assert!(e.mindist_to_point(p) <= r.mindist_to_point(p) + 1e-9);
        prop_assert!(e.contains(p) || !r.contains(p));
    }

    #[test]
    fn grid_assignment_unique_and_consistent(p in (0.0f64..9.99, 0.0f64..9.99)) {
        let g = Grid::covering(Rect::new(Point::new(0.0, 0.0), Point::new(10.0, 10.0)), 0.7);
        let p = Point::new(p.0, p.1);
        let c = g.cell_containing(p).expect("inside extent");
        let r = g.cell_rect(c);
        // Half-open membership: min-corner inclusive, max-corner exclusive.
        prop_assert!(p.x >= r.min.x - 1e-12 && p.x < r.max.x + 1e-12);
        prop_assert!(p.y >= r.min.y - 1e-12 && p.y < r.max.y + 1e-12);
    }

    #[test]
    fn grid_dilation_covers_near_points(
        seg in ((0.5f64..9.5), (0.5f64..9.5), (0.5f64..9.5), (0.5f64..9.5)),
        off in ((-0.4f64..0.4), (-0.4f64..0.4)),
        t in 0.0f64..1.0,
    ) {
        let g = Grid::covering(Rect::new(Point::new(0.0, 0.0), Point::new(10.0, 10.0)), 0.33);
        let s = LineSeg::new(Point::new(seg.0, seg.1), Point::new(seg.2, seg.3));
        let dist = 0.45;
        let p = s.a.lerp(s.b, t) + Point::new(off.0, off.1);
        if s.dist_to_point(p) <= dist {
            if let Some(c) = g.cell_containing(p) {
                let cells = g.cells_near_segment(&s, dist);
                prop_assert!(cells.contains(&c), "dilation missed cell {c:?}");
            }
        }
    }

    #[test]
    fn polyline_distance_is_min_over_segment_distances(
        pts in proptest::collection::vec(point(), 2..6),
        p in point(),
    ) {
        let poly = Polyline::new(pts);
        let expected = poly
            .segments()
            .map(|s| s.dist_to_point(p))
            .fold(f64::INFINITY, f64::min);
        prop_assert!((poly.dist_to_point(p) - expected).abs() < 1e-9);
    }

    #[test]
    fn polyline_length_additive(pts in proptest::collection::vec(point(), 2..6)) {
        let poly = Polyline::new(pts.clone());
        let sum: f64 = pts.windows(2).map(|w| w[0].dist(w[1])).sum();
        prop_assert!((poly.len() - sum).abs() < 1e-9);
    }
}
