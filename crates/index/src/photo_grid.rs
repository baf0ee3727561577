//! Dataset-wide photo grid: extracting per-street photo sets.
//!
//! Section 4.1.1 associates with each street `s` the photo set
//! `Rs = {r ∈ R : dist(r, s) ≤ ε}`. This grid accelerates that extraction:
//! candidate cells are found by ε-dilating the street's segments, then
//! photos are filtered by exact distance.

use soi_common::{effective_threads, par_chunk_map, sort_row_keys, CellId, Csr, PhotoId, StreetId};
use soi_data::PhotoCollection;
use soi_geo::Grid;
use soi_network::RoadNetwork;

use crate::poi_index::covered_extent;

/// A uniform grid over all photos of a dataset.
///
/// The fields are crate-visible for the snapshot codec (see
/// [`crate::snapshot`]), which validates `cells` against `grid` and the
/// photo collection before constructing one.
#[derive(Debug, PartialEq)]
pub struct PhotoGrid {
    pub(crate) grid: Grid,
    /// cell → photos located in it, ascending id.
    pub(crate) cells: Csr<PhotoId>,
}

impl PhotoGrid {
    /// Builds the grid over `photos` with the given `cell_size`, covering
    /// the union of the network and photo extents.
    ///
    /// # Panics
    /// Panics if `cell_size` is not strictly positive.
    pub fn build(network: &RoadNetwork, photos: &PhotoCollection, cell_size: f64) -> Self {
        Self::build_with_threads(network, photos, cell_size, 0)
    }

    /// Builds the grid with an explicit worker-thread count (`0` = resolve
    /// automatically, see [`effective_threads`]).
    ///
    /// The build is chunk-partitioned and deterministic: chunks emit packed
    /// (cell ‖ photo) keys in photo order and [`sort_row_keys`] groups them
    /// by cell, so the result is identical for every thread count.
    ///
    /// # Panics
    /// Panics if `cell_size` is not strictly positive.
    pub fn build_with_threads(
        network: &RoadNetwork,
        photos: &PhotoCollection,
        cell_size: f64,
        threads: usize,
    ) -> Self {
        let threads = effective_threads((threads > 0).then_some(threads));
        let grid = Grid::covering(covered_extent(network, photos.extent()), cell_size);
        let keys: Vec<u64> = par_chunk_map(photos.as_slice(), threads, |_, chunk| {
            let mut keys = Vec::with_capacity(chunk.len());
            for photo in chunk {
                // Photos outside the grid (non-finite position) are
                // unindexable.
                if let Some(coord) = grid.cell_containing(photo.pos) {
                    keys.push(u64::from(grid.cell_id(coord).0) << 32 | u64::from(photo.id.0));
                }
            }
            keys
        })
        .into_iter()
        .flatten()
        .collect();
        let num_cells = grid.num_cells();
        let cells = Csr::from_sorted_keys(num_cells, &sort_row_keys(keys, num_cells, threads));
        Self { grid, cells }
    }

    /// The underlying grid.
    pub fn grid(&self) -> &Grid {
        &self.grid
    }

    /// Photos in cell `id` (sorted by id), empty if unoccupied.
    pub fn cell_photos(&self, id: CellId) -> &[PhotoId] {
        self.cells.row(id.index())
    }

    /// Number of occupied cells.
    pub fn num_occupied_cells(&self) -> usize {
        self.cells.occupied_rows().count()
    }

    /// Extracts `Rs`: photos within `eps` of street `street`, sorted by id.
    pub fn photos_near_street(
        &self,
        network: &RoadNetwork,
        photos: &PhotoCollection,
        street: StreetId,
        eps: f64,
    ) -> Vec<PhotoId> {
        let (mut cells, mut result) = (Vec::new(), Vec::new());
        self.photos_near_street_into(network, photos, street, eps, &mut cells, &mut result);
        result
    }

    /// Allocation-reusing form of
    /// [`photos_near_street`](Self::photos_near_street): clears `out` and
    /// fills it with `Rs`; `cells` is scratch for the candidate cells.
    pub fn photos_near_street_into(
        &self,
        network: &RoadNetwork,
        photos: &PhotoCollection,
        street: StreetId,
        eps: f64,
        cells: &mut Vec<CellId>,
        out: &mut Vec<PhotoId>,
    ) {
        let segments = &network.street(street).segments;
        cells.clear();
        for &seg in segments {
            let geom = network.segment(seg).geom;
            self.grid
                .for_each_cell_near_segment(&geom, eps, |c| cells.push(self.grid.cell_id(c)));
        }
        cells.sort_unstable();
        cells.dedup();

        let eps_sq = eps * eps;
        out.clear();
        for &cell in cells.iter() {
            for &pid in self.cell_photos(cell) {
                let pos = photos.get(pid).pos;
                let within = segments
                    .iter()
                    .any(|&s| network.segment(s).geom.dist_sq_to_point(pos) <= eps_sq);
                if within {
                    out.push(pid);
                }
            }
        }
        out.sort_unstable();
        out.dedup();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use soi_geo::Point;
    use soi_text::KeywordSet;

    fn setup() -> (RoadNetwork, PhotoCollection, PhotoGrid) {
        let mut b = RoadNetwork::builder();
        b.add_street_from_points(
            "L",
            &[
                Point::new(0.0, 0.0),
                Point::new(4.0, 0.0),
                Point::new(4.0, 4.0),
            ],
        );
        b.add_street_from_points("Far", &[Point::new(20.0, 20.0), Point::new(24.0, 20.0)]);
        let network = b.build().unwrap();
        let mut photos = PhotoCollection::new();
        photos.add(Point::new(1.0, 0.4), KeywordSet::empty()); // near L
        photos.add(Point::new(4.3, 2.0), KeywordSet::empty()); // near L's vertical leg
        photos.add(Point::new(10.0, 10.0), KeywordSet::empty()); // nowhere
        photos.add(Point::new(21.0, 20.2), KeywordSet::empty()); // near Far
        let grid = PhotoGrid::build(&network, &photos, 1.0);
        (network, photos, grid)
    }

    #[test]
    fn photos_near_street_filters_by_exact_distance() {
        let (network, photos, grid) = setup();
        let near_l = grid.photos_near_street(&network, &photos, StreetId(0), 0.5);
        let raw: Vec<u32> = near_l.iter().map(|p| p.raw()).collect();
        assert_eq!(raw, vec![0, 1]);

        let near_far = grid.photos_near_street(&network, &photos, StreetId(1), 0.5);
        let raw: Vec<u32> = near_far.iter().map(|p| p.raw()).collect();
        assert_eq!(raw, vec![3]);
    }

    #[test]
    fn tight_eps_excludes_photos() {
        let (network, photos, grid) = setup();
        let near = grid.photos_near_street(&network, &photos, StreetId(0), 0.25);
        assert!(near.is_empty());
    }

    #[test]
    fn matches_brute_force() {
        let (network, photos, grid) = setup();
        for street in network.streets() {
            for eps in [0.2, 0.5, 1.0, 3.0] {
                let via_grid = grid.photos_near_street(&network, &photos, street.id, eps);
                let brute: Vec<PhotoId> = photos
                    .iter()
                    .filter(|ph| {
                        street
                            .segments
                            .iter()
                            .any(|&s| network.segment(s).geom.dist_to_point(ph.pos) <= eps)
                    })
                    .map(|ph| ph.id)
                    .collect();
                assert_eq!(via_grid, brute, "street {} eps {eps}", street.id);
            }
        }
    }

    #[test]
    fn into_form_forgets_what_its_buffers_held() {
        let (network, photos, grid) = setup();
        let (mut cells, mut out) = (Vec::new(), Vec::new());
        grid.photos_near_street_into(&network, &photos, StreetId(1), 0.5, &mut cells, &mut out);
        let far = (cells.clone(), out.clone());
        assert_eq!(
            far.1,
            grid.photos_near_street(&network, &photos, StreetId(1), 0.5)
        );
        // The larger street in between leaves nothing behind, in the answer
        // or in the scratch (which would otherwise grow job after job).
        grid.photos_near_street_into(&network, &photos, StreetId(0), 3.0, &mut cells, &mut out);
        assert_eq!(out.len(), 2);
        grid.photos_near_street_into(&network, &photos, StreetId(1), 0.5, &mut cells, &mut out);
        assert_eq!((cells, out), far);
    }

    #[test]
    fn empty_collections() {
        let network = RoadNetwork::builder().build().unwrap();
        let photos = PhotoCollection::new();
        let grid = PhotoGrid::build(&network, &photos, 1.0);
        assert_eq!(grid.num_occupied_cells(), 0);
    }

    #[test]
    fn parallel_build_identical_to_sequential() {
        let mut b = RoadNetwork::builder();
        b.add_street_from_points("S", &[Point::new(0.0, 0.0), Point::new(10.0, 10.0)]);
        let network = b.build().unwrap();
        let mut photos = PhotoCollection::new();
        let mut x: u64 = 0x0123_4567_89AB_CDEF;
        for _ in 0..500 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let px = (x % 1000) as f64 / 100.0;
            let py = ((x >> 13) % 1000) as f64 / 100.0;
            photos.add(Point::new(px, py), KeywordSet::empty());
        }
        let sequential = PhotoGrid::build_with_threads(&network, &photos, 0.5, 1);
        for threads in [2usize, 3, 8] {
            let parallel = PhotoGrid::build_with_threads(&network, &photos, 0.5, threads);
            assert!(
                sequential == parallel,
                "{threads} threads built another grid"
            );
        }
        assert_eq!(sequential.cells.items().len(), photos.len());
    }
}
