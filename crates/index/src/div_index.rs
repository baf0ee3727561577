//! The per-street diversification index (paper Sec. 4.2.1).
//!
//! For a street `s` with photo set `Rs`, the ST_Rel+Div algorithm uses a
//! grid with cell side ρ/2 where each cell stores: the photos in the cell,
//! the union of their tags (`c.Ψ`), and the minimum/maximum number of tags
//! among the cell's photos (`c.ψmin`, `c.ψmax`). These feed the per-cell
//! bounds of Eqs. 11–18, which read nothing else — so the per-cell inverted
//! index the paper also lists is not materialised.
//!
//! The layout is flat: occupied cell ids ascending, and three arrays
//! (photos, tag-count ranges, keyword unions) addressed through them by
//! *cell slot* — a cell's position in the occupied list. A photo's position
//! in the cell-major photo array is its *member slot*, the dense key Alg. 2
//! keeps its per-photo state under. One index is rebuilt in place street
//! after street ([`DiversificationIndex::rebuild`]) without allocating once
//! its arrays have grown to the largest street seen.

use soi_common::{CellId, KeywordId, PhotoId};
use soi_data::PhotoView;
use soi_geo::{CellCoord, Grid, Point, Rect};
use std::ops::Range;

/// One occupied cell of the diversification index, borrowed from it.
#[derive(Debug, Clone, Copy)]
pub struct DivCell<'a> {
    /// Photos in this cell, sorted by id (`c.R`).
    pub photos: &'a [PhotoId],
    /// Union of tags of the cell's photos, ascending (`c.Ψ`).
    pub keywords: &'a [KeywordId],
    /// Minimum number of tags of any photo in the cell (`c.ψmin`).
    pub psi_min: usize,
    /// Maximum number of tags of any photo in the cell (`c.ψmax`).
    pub psi_max: usize,
}

/// The grid index over one street's photo set `Rs`.
#[derive(Debug)]
pub struct DiversificationIndex {
    grid: Grid,
    /// Occupied cell ids, ascending; a cell's position here is its slot.
    occupied: Vec<CellId>,
    /// `photos[starts[slot]..starts[slot + 1]]` are the photos of a cell.
    starts: Vec<usize>,
    /// Indexed photos, cell-major, ascending by id within a cell.
    photos: Vec<PhotoId>,
    /// `(ψmin, ψmax)` per cell slot.
    psi: Vec<(usize, usize)>,
    /// `keywords[kw_starts[slot]..kw_starts[slot + 1]]` is a cell's `c.Ψ`.
    kw_starts: Vec<usize>,
    keywords: Vec<KeywordId>,
    num_photos: usize,
    /// Rebuild scratch: packed (cell ‖ photo) keys, and one cell's tags.
    keys: Vec<u64>,
    tags: Vec<KeywordId>,
}

impl Default for DiversificationIndex {
    /// An index over no photos.
    fn default() -> Self {
        Self {
            grid: Grid::new(Point::ORIGIN, 1.0, 1, 1),
            occupied: Vec::new(),
            starts: Vec::new(),
            photos: Vec::new(),
            psi: Vec::new(),
            kw_starts: Vec::new(),
            keywords: Vec::new(),
            num_photos: 0,
            keys: Vec::new(),
            tags: Vec::new(),
        }
    }
}

impl DiversificationIndex {
    /// Builds the index over the photos `members ⊆ photos` with neighbourhood
    /// radius `rho` (cell side becomes ρ/2 as in the paper).
    ///
    /// `members` must be sorted ascending by id (as produced by
    /// [`PhotoGrid::photos_near_street`](crate::PhotoGrid::photos_near_street)).
    ///
    /// # Panics
    /// Panics if `rho` is not strictly positive.
    pub fn build<'a>(photos: impl Into<PhotoView<'a>>, members: &[PhotoId], rho: f64) -> Self {
        let mut index = Self::default();
        index.rebuild(photos, members, rho);
        index
    }

    /// [`build`](Self::build) in place: the index forgets its previous
    /// street and keeps its capacity.
    ///
    /// Sequential on the calling thread: one street's `Rs` is a few thousand
    /// photos at most, less work than handing it to other threads costs.
    ///
    /// # Panics
    /// Panics if `rho` is not strictly positive.
    pub fn rebuild<'a>(&mut self, photos: impl Into<PhotoView<'a>>, members: &[PhotoId], rho: f64) {
        let photos: PhotoView<'a> = photos.into();
        assert!(rho > 0.0 && rho.is_finite(), "rho must be positive");
        debug_assert!(
            members.windows(2).all(|w| w[0] < w[1]),
            "members must be sorted ascending"
        );
        let extent = Rect::bounding(members.iter().map(|&id| photos.get(id).pos))
            .unwrap_or_else(|| Rect::new(Point::ORIGIN, Point::new(1.0, 1.0)));
        self.grid = Grid::covering(extent, rho / 2.0);
        self.num_photos = members.len();
        self.keys.clear();
        for &pid in members {
            // Photos outside the grid (non-finite position) are
            // unindexable.
            if let Some(coord) = self.grid.cell_containing(photos.get(pid).pos) {
                let cell = self.grid.cell_id(coord);
                self.keys.push(u64::from(cell.0) << 32 | u64::from(pid.0));
            }
        }
        // The keys are unique, so the unstable sort is deterministic: cells
        // ascending, photos ascending within a cell.
        self.keys.sort_unstable();

        self.occupied.clear();
        self.starts.clear();
        self.photos.clear();
        self.psi.clear();
        self.kw_starts.clear();
        self.keywords.clear();
        let mut i = 0;
        while i < self.keys.len() {
            let cell = (self.keys[i] >> 32) as u32;
            self.occupied.push(CellId(cell));
            self.starts.push(self.photos.len());
            self.kw_starts.push(self.keywords.len());
            let (mut psi_min, mut psi_max) = (usize::MAX, 0);
            self.tags.clear();
            while i < self.keys.len() && (self.keys[i] >> 32) as u32 == cell {
                let pid = PhotoId(self.keys[i] as u32);
                let tags = photos.get(pid).tags.ids();
                self.photos.push(pid);
                psi_min = psi_min.min(tags.len());
                psi_max = psi_max.max(tags.len());
                self.tags.extend_from_slice(tags);
                i += 1;
            }
            self.tags.sort_unstable();
            self.tags.dedup();
            self.keywords.extend_from_slice(&self.tags);
            self.psi.push((psi_min, psi_max));
        }
        self.starts.push(self.photos.len());
        self.kw_starts.push(self.keywords.len());
    }

    /// The underlying grid (cell side = ρ/2).
    pub fn grid(&self) -> &Grid {
        &self.grid
    }

    /// Occupied cell ids, ascending.
    pub fn occupied(&self) -> &[CellId] {
        &self.occupied
    }

    /// The slot of cell `id` in [`occupied`](Self::occupied), if occupied.
    pub fn slot_of(&self, id: CellId) -> Option<usize> {
        self.occupied.binary_search(&id).ok()
    }

    /// The cell at `slot` of [`occupied`](Self::occupied).
    ///
    /// # Panics
    /// Panics if `slot` is out of range.
    pub fn cell_at(&self, slot: usize) -> DivCell<'_> {
        let (psi_min, psi_max) = self.psi[slot];
        DivCell {
            photos: &self.photos[self.member_slots(slot)],
            keywords: &self.keywords[self.kw_starts[slot]..self.kw_starts[slot + 1]],
            psi_min,
            psi_max,
        }
    }

    /// The cell with id `id`, if occupied.
    pub fn cell(&self, id: CellId) -> Option<DivCell<'_>> {
        self.slot_of(id).map(|slot| self.cell_at(slot))
    }

    /// The indexed photos, cell-major: a photo's position is its member
    /// slot.
    pub fn photos(&self) -> &[PhotoId] {
        &self.photos
    }

    /// The member slots of the photos of the cell at `slot`.
    pub fn member_slots(&self, slot: usize) -> Range<usize> {
        self.starts[slot]..self.starts[slot + 1]
    }

    /// Total number of photos the index was built over (`|Rs|`).
    pub fn num_photos(&self) -> usize {
        self.num_photos
    }

    /// Calls `f` with the slot of every occupied cell within Chebyshev cell
    /// radius `radius` of `c`, ascending. A grid row's cells have
    /// consecutive ids, so each row is one binary search and a short scan.
    fn for_each_slot_near(&self, c: CellCoord, radius: u32, mut f: impl FnMut(usize)) {
        let nx = self.grid.nx();
        let x0 = c.ix.saturating_sub(radius);
        let x1 = c.ix.saturating_add(radius).min(nx - 1);
        let y1 = c.iy.saturating_add(radius).min(self.grid.ny() - 1);
        let mut slot = 0;
        for iy in c.iy.saturating_sub(radius)..=y1 {
            let (first, last) = (CellId(iy * nx + x0), CellId(iy * nx + x1));
            slot += self.occupied[slot..].partition_point(|&id| id < first);
            while self.occupied.get(slot).is_some_and(|&id| id <= last) {
                f(slot);
                slot += 1;
            }
        }
    }

    /// Total photos within Chebyshev cell radius `radius` of cell `id`
    /// (including `id` itself): the numerator of Eq. 12 for `radius = 2`.
    pub fn neighborhood_count(&self, id: CellId, radius: u32) -> usize {
        let mut count = 0;
        self.for_each_slot_near(self.grid.coord_of(id), radius, |slot| {
            count += self.member_slots(slot).len();
        });
        count
    }

    /// Exact count of member photos within Euclidean distance `radius` of
    /// `center` (the numerator of Definition 4).
    ///
    /// Correct only for `radius ≤ ρ` (the scan is limited to the radius-2
    /// cell neighbourhood, which covers exactly distances up to ρ = 2·cell).
    pub fn count_within<'a>(
        &self,
        photos: impl Into<PhotoView<'a>>,
        center: Point,
        radius: f64,
    ) -> usize {
        let photos: PhotoView<'a> = photos.into();
        debug_assert!(
            radius <= self.grid.cell_size() * 2.0 + 1e-12,
            "count_within only valid up to rho"
        );
        let Some(coord) = self.grid.cell_containing(center) else {
            return 0;
        };
        let r_sq = radius * radius;
        let mut count = 0;
        self.for_each_slot_near(coord, 2, |slot| {
            count += self.photos[self.member_slots(slot)]
                .iter()
                .filter(|&&pid| photos.get(pid).pos.dist_sq(center) <= r_sq)
                .count();
        });
        count
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use soi_data::PhotoCollection;
    use soi_text::KeywordSet;

    fn kids(ids: &[u32]) -> Vec<KeywordId> {
        ids.iter().map(|&i| KeywordId(i)).collect()
    }

    fn tags(ids: &[u32]) -> KeywordSet {
        KeywordSet::from_ids(kids(ids))
    }

    fn setup() -> (PhotoCollection, Vec<PhotoId>, DiversificationIndex) {
        let mut photos = PhotoCollection::new();
        // Cluster A around (0.1..0.3, 0.1): three photos.
        photos.add(Point::new(0.10, 0.10), tags(&[0, 1]));
        photos.add(Point::new(0.20, 0.10), tags(&[0]));
        photos.add(Point::new(0.30, 0.10), tags(&[1, 2, 3]));
        // Lone photo far away at (5, 5).
        photos.add(Point::new(5.0, 5.0), tags(&[4]));
        // Photo not in Rs (excluded from members).
        photos.add(Point::new(0.15, 0.12), tags(&[9]));
        let members: Vec<PhotoId> = [0u32, 1, 2, 3].iter().map(|&i| PhotoId(i)).collect();
        let index = DiversificationIndex::build(&photos, &members, 1.0);
        (photos, members, index)
    }

    #[test]
    fn cells_capture_tag_statistics() {
        let (_, _, index) = setup();
        assert_eq!(index.num_photos(), 4);
        // Cell of the cluster (cell size 0.5 => all three in cell (0,0)).
        let id = index
            .grid()
            .cell_id(index.grid().cell_containing(Point::new(0.2, 0.1)).unwrap());
        let cell = index.cell(id).unwrap();
        assert_eq!(cell.photos.len(), 3);
        assert_eq!(cell.psi_min, 1);
        assert_eq!(cell.psi_max, 3);
        // Excluded photo's tag 9 must not appear.
        assert_eq!(cell.keywords, kids(&[0, 1, 2, 3]));
    }

    #[test]
    fn occupied_is_sorted_and_complete() {
        let (_, _, index) = setup();
        assert_eq!(index.occupied().len(), 2);
        assert!(index.occupied().windows(2).all(|w| w[0] < w[1]));
        let total: usize = index
            .occupied()
            .iter()
            .map(|&c| index.cell(c).unwrap().photos.len())
            .sum();
        assert_eq!(total, index.num_photos());
        // Member slots number the photos cell by cell.
        assert_eq!(index.photos().len(), 4);
        for slot in 0..index.occupied().len() {
            assert_eq!(
                &index.photos()[index.member_slots(slot)],
                index.cell_at(slot).photos
            );
        }
    }

    #[test]
    fn neighborhood_count_sums_nearby_cells() {
        let (_, _, index) = setup();
        let id = index
            .grid()
            .cell_id(index.grid().cell_containing(Point::new(0.2, 0.1)).unwrap());
        // The far photo is many cells away: radius-2 neighbourhood holds only
        // the cluster.
        assert_eq!(index.neighborhood_count(id, 2), 3);
    }

    #[test]
    fn count_within_is_exact() {
        let (photos, _, index) = setup();
        // Around photo 0 at (0.1, 0.1): with radius 0.15, photos 0 and 1.
        assert_eq!(index.count_within(&photos, Point::new(0.10, 0.10), 0.15), 2);
        // Radius 0.25 adds photo 2.
        assert_eq!(index.count_within(&photos, Point::new(0.10, 0.10), 0.25), 3);
        // Excluded photo (id 4) never counted even though it is nearby.
        assert_eq!(index.count_within(&photos, Point::new(0.15, 0.12), 0.10), 2);
    }

    #[test]
    fn empty_members() {
        let photos = PhotoCollection::new();
        let index = DiversificationIndex::build(&photos, &[], 1.0);
        assert_eq!(index.num_photos(), 0);
        assert!(index.occupied().is_empty());
        assert!(index.photos().is_empty());
    }

    #[test]
    #[should_panic(expected = "rho must be positive")]
    fn zero_rho_panics() {
        let photos = PhotoCollection::new();
        DiversificationIndex::build(&photos, &[], 0.0);
    }
}
