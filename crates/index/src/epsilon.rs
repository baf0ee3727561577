//! ε-augmented cell↔segment maps (paper Sec. 3.2.1) — reference
//! implementation: tests and the benchmark's `index.eps_maps_build_ms` row
//! only. Queries derive the same rows lazily: `Cε(ℓ)` per popped segment
//! ([`IndexView::occupied_cells_near_segment_into`](crate::IndexView::occupied_cells_near_segment_into)),
//! and, in `soi-core`'s paper entry only, a superset of `Lε(c)` per popped
//! cell, from a raster of the network that entry builds per query. Nothing
//! builds, stores or persists an `EpsilonMaps`.
//!
//! The paper keeps the raster maps (which cells a segment passes through)
//! static and, once ε is known, augments them so that `Cε(ℓ)` contains
//! every occupied cell within distance ε of segment ℓ and `Lε(c)` every
//! segment within ε of cell c — the rows the SOI algorithm traverses
//! during filtering and refinement.
//!
//! Only *occupied* cells (cells containing at least one POI) enter the maps:
//! empty cells contribute no mass, and excluding them both tightens the
//! `|Cε(ℓ)|` factor of the unseen upper bound and shrinks the traversal.

use crate::poi_index::PoiIndex;
use soi_common::{sort_row_keys, CellId, Csr, SegmentId};
use soi_network::RoadNetwork;

/// The ε-augmented maps for one ε value.
#[derive(Debug, PartialEq)]
pub struct EpsilonMaps {
    eps: f64,
    /// `Cε(ℓ)`: segment → occupied cells within ε of it, ascending.
    segment_to_cells: Csr<CellId>,
    /// `Lε(c)`: cell → segments within ε of it, ascending (empty for an
    /// unoccupied cell).
    cell_to_segments: Csr<SegmentId>,
}

impl EpsilonMaps {
    /// Builds the augmented maps for `eps` over all segments of `network`
    /// and all occupied cells of `index`.
    pub fn build(network: &RoadNetwork, index: &PoiIndex, eps: f64) -> Self {
        assert!(eps >= 0.0 && eps.is_finite(), "eps must be non-negative");
        let grid = index.grid();
        // Both maps from one pass over the segments, as packed (row ‖ item)
        // keys: by segment they are born in order, by cell they need the
        // stable counting pass.
        let mut by_segment: Vec<u64> = Vec::new();
        let mut by_cell: Vec<u64> = Vec::new();
        for seg in network.segments() {
            let mut cells: Vec<CellId> = grid
                .cells_near_segment(&seg.geom, eps)
                .into_iter()
                .map(|c| grid.cell_id(c))
                .filter(|&c| index.is_occupied(c))
                .collect();
            cells.sort_unstable();
            for c in cells {
                by_segment.push(u64::from(seg.id.0) << 32 | u64::from(c.0));
                by_cell.push(u64::from(c.0) << 32 | u64::from(seg.id.0));
            }
        }
        let num_cells = grid.num_cells();
        Self {
            eps,
            segment_to_cells: Csr::from_sorted_keys(network.num_segments(), &by_segment),
            cell_to_segments: Csr::from_sorted_keys(
                num_cells,
                &sort_row_keys(by_cell, num_cells, 1),
            ),
        }
    }

    /// The ε these maps were built for.
    pub fn eps(&self) -> f64 {
        self.eps
    }

    /// `Cε(ℓ)`: occupied cells within ε of segment `seg`, ascending by id.
    pub fn cells_of_segment(&self, seg: SegmentId) -> &[CellId] {
        self.segment_to_cells.row(seg.index())
    }

    /// `Lε(c)`: segments within ε of cell `cell` (empty if none).
    pub fn segments_of_cell(&self, cell: CellId) -> &[SegmentId] {
        self.cell_to_segments.row(cell.index())
    }

    /// Number of segments in the network these maps cover.
    pub fn num_segments(&self) -> usize {
        self.segment_to_cells.rows()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use soi_data::PoiCollection;
    use soi_geo::Point;
    use soi_text::KeywordSet;

    fn setup(eps: f64) -> (RoadNetwork, PoiIndex, EpsilonMaps) {
        let mut b = RoadNetwork::builder();
        b.add_street_from_points("H", &[Point::new(0.0, 0.0), Point::new(4.0, 0.0)]);
        b.add_street_from_points("V", &[Point::new(2.0, -3.0), Point::new(2.0, 3.0)]);
        let network = b.build().unwrap();
        let mut pois = PoiCollection::new();
        pois.add(Point::new(1.0, 0.3), KeywordSet::empty());
        pois.add(Point::new(2.2, 2.5), KeywordSet::empty());
        pois.add(Point::new(3.9, -0.2), KeywordSet::empty());
        let index = PoiIndex::build(&network, &pois, 0.5);
        let maps = EpsilonMaps::build(&network, &index, eps);
        (network, index, maps)
    }

    #[test]
    fn maps_are_mutually_consistent() {
        let (network, _, maps) = setup(0.6);
        // Every (segment, cell) pair appears in both directions.
        for seg in network.segments() {
            for &c in maps.cells_of_segment(seg.id) {
                assert!(
                    maps.segments_of_cell(c).contains(&seg.id),
                    "cell {c:?} missing segment {}",
                    seg.id
                );
            }
        }
        for (c, segs) in maps.cell_to_segments.occupied_rows() {
            for &s in segs {
                assert!(maps.cells_of_segment(s).contains(&CellId::from_index(c)));
            }
        }
    }

    #[test]
    fn only_occupied_cells_included() {
        let (_, index, maps) = setup(0.6);
        for &c in maps.segment_to_cells.items() {
            assert!(index.is_occupied(c), "unoccupied cell {c:?} in Cε");
        }
    }

    #[test]
    fn cells_within_eps_have_near_pois_covered() {
        // Every POI within eps of a segment must lie in some cell of Cε(ℓ).
        let (network, index, maps) = setup(0.8);
        let grid = index.grid();
        let poi_positions = [
            Point::new(1.0, 0.3),
            Point::new(2.2, 2.5),
            Point::new(3.9, -0.2),
        ];
        for seg in network.segments() {
            for &pos in &poi_positions {
                if seg.geom.dist_to_point(pos) <= 0.8 {
                    let cell = grid.cell_id(grid.cell_containing(pos).unwrap());
                    assert!(
                        maps.cells_of_segment(seg.id).contains(&cell),
                        "POI at {pos} within eps of {} but cell not in Cε",
                        seg.id
                    );
                }
            }
        }
    }

    #[test]
    fn zero_eps_still_covers_cells_containing_the_segment() {
        let (_, index, maps) = setup(0.0);
        // The POI at (1.0, 0.3) is 0.3 away: with eps 0, its cell may or may
        // not intersect the segment; the invariant is just that all listed
        // cells are occupied and the maps stay consistent.
        for &c in maps.segment_to_cells.items() {
            assert!(index.is_occupied(c));
        }
    }

    #[test]
    fn larger_eps_yields_superset() {
        let (_, _, small) = setup(0.3);
        let (_, _, large) = setup(1.5);
        for seg in (0..small.num_segments()).map(SegmentId::from_index) {
            for c in small.cells_of_segment(seg) {
                assert!(
                    large.cells_of_segment(seg).contains(c),
                    "eps growth lost cell {c:?}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "eps must be non-negative")]
    fn negative_eps_panics() {
        setup(-1.0);
    }
}
