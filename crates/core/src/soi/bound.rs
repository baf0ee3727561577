//! `b(ℓ)` and `B(T)`: the default loop's upper bounds of a segment's and a
//! run's interest.

use crate::soi::interest::segment_interest;
use soi_common::CellId;
use soi_geo::{Grid, Rect};
use soi_network::{Segment, SegmentRun};

/// The relative head-room every bound built from `relcount` carries where
/// it is compared with `LBk`.
///
/// A segment's mass and the `relcount`s that bound it add the same
/// non-negative weights in different orders and groupings: the mass per
/// cell in slot order, then over `Cε(ℓ)`; `relcount` per postings run,
/// then over the query keywords (a POI with two of them counts twice),
/// then over the cells bounded. In exact arithmetic the bound is at least
/// the mass. A recursive `f64` sum of `n` non-negative terms is within a
/// factor `1 ± (n−1)·2⁻⁵³` of the exact sum (Higham's `γ`), and a sum that
/// stays subnormal is exact, so over these five sums the computed mass
/// exceeds the computed bound by less than a factor `1 + 5n·2⁻⁵³`, `n` the
/// longest of them. That is below `1 + 1e-9` while `n` stays under a
/// million terms — POIs of one cell, or cells of one dilated box.
pub(super) const HEADROOM: f64 = 1.0 + 1e-9;

/// Query-time 2-D prefix sums over the per-cell relevant weights, giving an
/// O(1) upper bound on the relevant mass inside any rectangle — `b(ℓ)` is
/// this bound over a segment's ε-dilated bounding box, and a run's `B(T)`
/// over its members' union box.
///
/// The sums are integers, so a rectangle's sum is exact whatever surrounds
/// it (in floating point, a light cell next to heavy ones is lost to
/// cancellation): each cell's weight is rounded *up* to whole units of
/// `f64::EPSILON` × the query's total relevant weight, at least one unit if
/// positive. A rectangle of weightless cells sums to exactly 0, so `b = 0`
/// proves an interest of 0.
#[derive(Clone, Copy)]
pub(super) struct RelPrefix<'a> {
    grid: &'a Grid,
    eps: f64,
    nx: usize,
    ny: usize,
    /// `(nx+1) × (ny+1)` inclusive prefix sums of the cells' units,
    /// row-major.
    sums: &'a [u64],
    /// The weight of one unit, with [`HEADROOM`] for the rounding by which
    /// a mass and the `relcount`s bounding it differ.
    unit: f64,
}

impl<'a> RelPrefix<'a> {
    /// Builds the prefix sums of `relcount` over the `reached` cells into
    /// `sums` (a reusable scratch vector), for bounds at `eps`.
    pub(super) fn build(
        grid: &'a Grid,
        relcount: &[f64],
        reached: &[CellId],
        eps: f64,
        sums: &'a mut Vec<u64>,
    ) -> Self {
        let (nx, ny) = (grid.nx() as usize, grid.ny() as usize);
        let total: f64 = reached.iter().map(|c| relcount[c.index()]).sum();
        // At most 2^52 units per cell, and fewer than 2^32 cells: no sum
        // below overflows. (A positive unit even for subnormal weights; an
        // infinite total gives every positive cell one infinite unit.)
        let unit = (total * f64::EPSILON).max(f64::MIN_POSITIVE);
        sums.clear();
        sums.resize((nx + 1) * (ny + 1), 0);
        for &cell in reached {
            let weight = relcount[cell.index()];
            if weight > 0.0 {
                let coord = grid.coord_of(cell);
                sums[(coord.iy as usize + 1) * (nx + 1) + coord.ix as usize + 1] =
                    ((weight / unit).ceil() as u64).max(1);
            }
        }
        for y in 1..=ny {
            let mut row_acc = 0;
            for x in 1..=nx {
                row_acc += sums[y * (nx + 1) + x];
                sums[y * (nx + 1) + x] = sums[(y - 1) * (nx + 1) + x] + row_acc;
            }
        }
        Self {
            grid,
            eps,
            nx,
            ny,
            sums,
            unit: unit * HEADROOM,
        }
    }

    /// Upper bound of the relevant weight of the cells in the inclusive
    /// index range; exactly 0 when every one of them is weightless.
    fn rect_sum(&self, (x0, y0, x1, y1): (u32, u32, u32, u32)) -> f64 {
        debug_assert!(x1 < self.nx as u32 && y1 < self.ny as u32);
        let at = |x: u32, y: u32| self.sums[y as usize * (self.nx + 1) + x as usize];
        let units = (at(x1 + 1, y1 + 1) + at(x0, y0)) - (at(x0, y1 + 1) + at(x1 + 1, y0));
        if units == 0 {
            0.0
        } else {
            units as f64 * self.unit
        }
    }

    /// The interest of a segment of length `len` if every relevant weight of
    /// the ε-dilated `bbox` were within ε of it.
    fn bound(&self, bbox: &Rect, len: f64) -> f64 {
        let dilated = bbox.expand(self.eps);
        self.grid.cell_range_in_rect(&dilated).map_or(0.0, |range| {
            segment_interest(self.rect_sum(range), len, self.eps)
        })
    }

    /// `b(ℓ)` of `segment`: its interest if every relevant weight of its
    /// ε-dilated bounding box were within ε of it.
    pub(super) fn segment_bound(&self, segment: &Segment) -> f64 {
        self.bound(&segment.geom.bounding_rect(), segment.len())
    }

    /// `B(T)` of `run`: [`bound`](Self::bound) over the members' union box
    /// at the shortest member's length. The dilated union box holds each
    /// member's, so its integer sum is at least each member's, and the
    /// interest falls as the length grows: `B(T) ≥ b(ℓ)` for every member.
    pub(super) fn run_bound(&self, run: &SegmentRun) -> f64 {
        self.bound(&run.bbox, run.min_len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::soi::algorithm::Tables;
    use crate::soi::query::SoiQuery;
    use proptest::prelude::*;
    use soi_common::{KeywordId, StreetId};
    use soi_data::{PhotoCollection, PoiCollection, PoiView};
    use soi_geo::Point;
    use soi_index::{DeltaIndex, DeltaOp, IndexView, PoiIndex};
    use soi_network::RoadNetwork;
    use soi_text::KeywordSet;

    /// A xorshift stream.
    struct Draw(u64);

    impl Draw {
        /// The next value in `[0, 1)`.
        fn unit(&mut self) -> f64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            (self.0 >> 11) as f64 / (1u64 << 53) as f64
        }

        /// Up to four of eight keywords, and a non-integer weight: one in
        /// fifty a billion times the rest, one in fifty a billionth of it,
        /// one in fifty exactly zero — a light cell beside heavy ones is
        /// what a floating-point prefix sum loses.
        fn keywords_and_weight(&mut self) -> (KeywordSet, f64) {
            let carried = (self.unit() * 5.0) as usize;
            let keywords: Vec<KeywordId> = (0..carried)
                .map(|_| KeywordId((self.unit() * 8.0) as u32))
                .collect();
            let weight = match (self.unit() * 50.0) as u32 {
                0 => 1e9 * (1.0 + self.unit()),
                1 => 1e-9 * (1.0 + self.unit()),
                2 => 0.0,
                _ => 0.25 + self.unit(),
            };
            (KeywordSet::from_ids(keywords), weight)
        }
    }

    proptest! {
        /// `b(ℓ)` bounds the interest of every segment — what `UB` and every
        /// dismissal rest on. Jittered streets and a diagonal over a grid of
        /// 0.5 cells, POIs of non-integer weight on and off the streets,
        /// 1–6 query keywords of which ids 8 and 9 occur nowhere, ε of 0⁺,
        /// up to 3.5 cells or far beyond the extent, with and without a
        /// delta that deletes and adds POIs.
        #[test]
        fn the_bound_is_at_least_every_interest(
            seed in 1u64..u64::MAX,
            num_pois in 0usize..250,
            query_kws in proptest::collection::vec(0u32..10, 1..7),
            eps_cells in (0u32..8, 0.0f64..3.5),
            with_delta in 0u32..2,
        ) {
            const CELL: f64 = 0.5;
            let mut draw = Draw(seed);
            let mut b = RoadNetwork::builder();
            for i in 0..4 {
                let at = 0.5 + 1.5 * f64::from(i);
                let jitter = |draw: &mut Draw| 0.3 * draw.unit() - 0.15;
                let row: Vec<Point> = (0..4)
                    .map(|j| Point::new(0.5 + 1.5 * f64::from(j), at + jitter(&mut draw)))
                    .collect();
                b.add_street_from_points(format!("h{i}"), &row);
                let column: Vec<Point> = (0..4)
                    .map(|j| Point::new(at + jitter(&mut draw), 0.5 + 1.5 * f64::from(j)))
                    .collect();
                b.add_street_from_points(format!("v{i}"), &column);
            }
            b.add_street_from_points("d", &[Point::new(0.2, 0.3), Point::new(5.9, 5.6)]);
            let network = b.build().expect("valid network");
            let mut pois = PoiCollection::new();
            for _ in 0..num_pois {
                let pos = Point::new(6.0 * draw.unit(), 6.0 * draw.unit());
                let (keywords, weight) = draw.keywords_and_weight();
                pois.add_weighted(pos, keywords, weight);
            }
            let index = PoiIndex::build(&network, &pois, CELL);
            let delta = (with_delta == 1).then(|| {
                let mut ops: Vec<DeltaOp> = pois
                    .iter()
                    .filter(|_| draw.unit() < 0.2)
                    .map(|p| DeltaOp::DeletePoi { id: p.id })
                    .collect();
                for _ in 0..20 {
                    let pos = Point::new(6.0 * draw.unit(), 6.0 * draw.unit());
                    let (keywords, weight) = draw.keywords_and_weight();
                    if index.grid().cell_containing(pos).is_some() {
                        ops.push(DeltaOp::AddPoi { pos, keywords, weight });
                    }
                }
                DeltaIndex::seal(&index, &pois, &PhotoCollection::new(), &ops).expect("valid ops")
            });
            let view = IndexView::new(&index, delta.as_ref());
            let poi_view: PoiView<'_> = match &delta {
                Some(d) => d.poi_view(&pois),
                None => (&pois).into(),
            };
            let eps = match eps_cells.0 {
                0 => 1e-12,
                1 => 1e3,
                _ => CELL * eps_cells.1.max(1e-6),
            };
            let keywords = KeywordSet::from_ids(query_kws.iter().map(|&k| KeywordId(k)));
            let query = SoiQuery::new(keywords, 1, eps).expect("valid query");

            let (mut tables, mut prefix_sums) = (Tables::default(), Vec::new());
            tables.fill_relcount(view, &query);
            let bounds = RelPrefix::build(
                view.grid(),
                &tables.relcount,
                &tables.reached,
                eps,
                &mut prefix_sums,
            );
            for s in network.segments() {
                let mass = view.segment_mass_lazy(poi_view, &network, s.id, &query.keywords, eps);
                let interest = segment_interest(mass, s.len(), eps);
                let bound = bounds.segment_bound(s);
                prop_assert!(interest <= bound, "segment {}: {} > b = {}", s.id, interest, bound);
            }
        }

        /// `B(T)` bounds `b(ℓ)` of every member of every run — what SL2's
        /// lazy expansion rests on — and the runs are what `B` assumes: each
        /// is one street's consecutive segments in path order, within the
        /// length ratio, and together they partition the segments. Random
        /// walks of segments from 1e-6 to 1.5 cells long, a street of
        /// segments whose length is exactly 0, POI weights a billion apart,
        /// ε from 1e-5 to far beyond the extent.
        #[test]
        fn a_run_bound_is_at_least_each_member_bound(
            seed in 1u64..u64::MAX,
            num_pois in 0usize..250,
            query_kws in proptest::collection::vec(0u32..10, 1..7),
            eps_cells in (0u32..8, 0.0f64..3.5),
        ) {
            const CELL: f64 = 0.5;
            let mut draw = Draw(seed);
            let mut b = RoadNetwork::builder();
            for i in 0..8 {
                let mut at = Point::new(0.5 + 5.0 * draw.unit(), 0.5 + 5.0 * draw.unit());
                let mut walk = vec![at];
                for _ in 0..12 {
                    let step = [1e-6, 0.01, 0.1, 0.4][(draw.unit() * 4.0) as usize]
                        * (1.0 + draw.unit() * 0.9);
                    let turn = draw.unit() * std::f64::consts::TAU;
                    at = Point::new(
                        (at.x + step * turn.cos()).clamp(0.0, 6.0),
                        (at.y + step * turn.sin()).clamp(0.0, 6.0),
                    );
                    if walk.last() != Some(&at) {
                        walk.push(at);
                    }
                }
                b.add_street_from_points(format!("w{i}"), &walk);
            }
            // Distinct points whose distance underflows to 0.
            let dots: Vec<Point> = (0..3).map(|i| Point::new(f64::from(i) * 1e-200, 0.0)).collect();
            b.add_street_from_points("dots", &dots);
            let network = b.build().expect("valid network");
            prop_assert!(network.segments().iter().any(|s| s.len() == 0.0));

            let mut covered = vec![0u32; network.num_segments()];
            let mut next = (0usize, 0u32);
            for run in network.runs() {
                let street = &network.street(run.street).segments;
                if run.street.index() != next.0 {
                    prop_assert_eq!(next.1 as usize, network.street(StreetId::from_index(next.0)).segments.len());
                    next = (run.street.index(), 0);
                }
                prop_assert!(run.start == next.1 && run.start < run.end && run.end as usize <= street.len());
                next.1 = run.end;
                let members = network.run_segments(run);
                let lens = members.iter().map(|&m| network.segment(m).len());
                let (min, max) = lens.fold((f64::INFINITY, 0.0f64), |(lo, hi), l| (lo.min(l), hi.max(l)));
                prop_assert!(max <= soi_network::RUN_LENGTH_RATIO * min, "run {:?}", run);
                for &m in members {
                    prop_assert_eq!(network.segment(m).street, run.street);
                    covered[m.index()] += 1;
                }
            }
            prop_assert!(covered.iter().all(|&c| c == 1));

            let mut pois = PoiCollection::new();
            for _ in 0..num_pois {
                let pos = Point::new(6.0 * draw.unit(), 6.0 * draw.unit());
                let (keywords, weight) = draw.keywords_and_weight();
                pois.add_weighted(pos, keywords, weight);
            }
            let index = PoiIndex::build(&network, &pois, CELL);
            let eps = match eps_cells.0 {
                0 => 1e-5,
                1 => 1e3,
                _ => CELL * eps_cells.1.max(1e-6),
            };
            let keywords = KeywordSet::from_ids(query_kws.iter().map(|&k| KeywordId(k)));
            let query = SoiQuery::new(keywords, 1, eps).expect("valid query");
            let view = IndexView::new(&index, None);
            let (mut tables, mut prefix_sums) = (Tables::default(), Vec::new());
            tables.fill_relcount(view, &query);
            let bounds = RelPrefix::build(
                view.grid(),
                &tables.relcount,
                &tables.reached,
                eps,
                &mut prefix_sums,
            );
            for run in network.runs() {
                let run_bound = bounds.run_bound(run);
                for &m in network.run_segments(run) {
                    let bound = bounds.segment_bound(network.segment(m));
                    prop_assert!(bound <= run_bound, "segment {}: b = {} > B = {}", m, bound, run_bound);
                }
            }
        }
    }
}
