//! The per-street diversification index (paper Sec. 4.2.1).
//!
//! For a street `s` with photo set `Rs`, the ST_Rel+Div algorithm uses a
//! grid with cell side ρ/2 where each cell stores: the photos in the cell,
//! the union of their tags (`c.Ψ`), and the minimum/maximum number of tags
//! among the cell's photos (`c.ψmin`, `c.ψmax`). These feed the per-cell
//! bounds of Eqs. 11–18, which read nothing else — so the per-cell inverted
//! index the paper also lists is not materialised.
//!
//! The layout is flat: occupied cell ids ascending, and columns addressed
//! through them by *cell slot* — a cell's position in the occupied list. A
//! photo's position in the cell-major photo array is its *member slot*, the
//! dense key Alg. 2 keeps its per-photo state under. What Alg. 2 reads per
//! scored photo and per bounded cell is such a column, so neither follows a
//! `PhotoId` back to its record:
//!
//! | column | bytes | read by |
//! |---|---|---|
//! | `x`, `y` | 16 / member | [`count_within`](DiversificationIndex::count_within) (Def. 4, once per member when the street's context is built), [`point`](DiversificationIndex::point) |
//! | `near` | 40 / cell | `count_within`, [`neighborhood_count`](DiversificationIndex::neighborhood_count) (Eq. 12, likewise) |
//! | `rects` | 32 / cell | [`cell_rect`](DiversificationIndex::cell_rect) (Eqs. 15–16) |
//! | `kw_masks` | 8 / cell | [`kw_mask`](DiversificationIndex::kw_mask) (`c.Ψ ∩ Ψr` of Eqs. 17–18) |
//! | `tag_masks` | 8 / member | [`member_tag_mask`](DiversificationIndex::member_tag_mask) (Def. 7) |
//!
//! The two mask columns number the street's distinct tags in order of first
//! appearance, one bit each; a street with more than 64 of them (or with a
//! tag id of 65 536 or more, which the build's numbering table does not
//! stretch to) has neither column and its tag sets are intersected by merge.
//! The index keeps the numbering as at most 64 `(tag, bit)` pairs sorted by
//! tag, not as the id-indexed table the build numbers through: an index
//! lives as long as its epoch, and that table would be 64 KB for a street
//! that shows tag id 65 535.
//!
//! **A cell's ρ-neighbourhood is at most five member-slot ranges.** A grid
//! row's cells have consecutive ids and the occupied list ascends, so the
//! occupied cells of columns `[ix − 2, ix + 2]` in one row are one run of
//! cell slots, and their photos — the array is cell-major — one run of
//! member slots, hence one run of `x` / `y`. Five rows, five runs, resolved
//! once per cell when the index is built.
//!
//! **A photo three cells away can still be within ρ in `f64`.** In exact
//! arithmetic a photo within ρ of a cell's photo lies in the cell's
//! radius-2 neighbourhood, but the squared distance is rounded: a photo one
//! ulp past the neighbourhood's far edge can round to exactly ρ away. For
//! two photos three cells apart on an axis to pass the distance test, the
//! rounded offsets of both, in cells, must lie within
//! `8 · f64::EPSILON · (cells across + 2)` of a whole number (the errors of
//! the offset's subtraction and division, and of the squared distance, add
//! up to less): one just below a cell's upper edge, the other just above
//! the lower edge of a cell three further on. Four cells apart none can
//! pass. So the build notes, per axis, whether photos stand that close to
//! both kinds of edge; only then does it pair the photos of cells three
//! apart, and keeps those that pass as the cell's
//! *fringe*, which [`count_within`](DiversificationIndex::count_within) and
//! [`neighborhood_count`](DiversificationIndex::neighborhood_count) add to
//! the five runs. Elsewhere the fringe is empty and allocates nothing.
//!
//! An index holds its columns and nothing else: the build's scratch (member
//! positions in id order, the sort keys, one cell's tags, the numbering
//! table) is dropped when [`DiversificationIndex::build`] returns, and every
//! column is allocated at, or trimmed to, its final length, so
//! [`heap_bytes`](DiversificationIndex::heap_bytes) is linear in `|Rs|`, the
//! occupied cells and the cells' keywords.

use soi_common::{CellId, KeywordId, PhotoId, Result, SoiError};
use soi_data::PhotoView;
use soi_geo::{Grid, Point, Rect};
use soi_text::KeywordSet;
use std::ops::Range;

/// Grid rows a radius-2 cell neighbourhood spans.
const NEAR_ROWS: usize = 5;

/// Street tags a cell's keyword mask has a bit for.
const MASK_BITS: usize = u64::BITS as usize;

/// Tag ids the build's numbering table is indexed by (64 KB at most).
const NUMBERED_IDS: usize = 1 << 16;

/// Numbering-table entry of a tag the street has not shown.
const UNNUMBERED: u8 = u8::MAX;

/// Points per block of [`count_hits`]: a multiple of every vector width in
/// use, as in [`mass_within`](crate::mass_within).
const SCAN_BLOCK: usize = 8;

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
    /// ρ², the squared radius [`count_within`](Self::count_within) tests.
    rho_sq: f64,
    /// Occupied cell ids, ascending; a cell's position here is its slot.
    occupied: Vec<CellId>,
    /// `photos[starts[slot]..starts[slot + 1]]` are the photos of a cell.
    starts: Vec<usize>,
    /// Indexed photos, cell-major, ascending by id within a cell.
    photos: Vec<PhotoId>,
    /// Position of each indexed photo, by member slot.
    x: Vec<f64>,
    y: Vec<f64>,
    /// Per cell slot and grid row of its radius-2 neighbourhood: the member
    /// slots of the row's occupied cells (empty for a row that holds none).
    near: Vec<[(u32, u32); NEAR_ROWS]>,
    /// `(cell slot, member slot)` ascending: the photos outside a cell's
    /// radius-2 neighbourhood within ρ of one of its photos under `f64`
    /// rounding (see the module docs).
    fringe: Vec<(u32, u32)>,
    /// The closed rectangle of each occupied cell, by cell slot.
    rects: Vec<Rect>,
    /// `(ψmin, ψmax)` per cell slot.
    psi: Vec<(usize, usize)>,
    /// `keywords[kw_starts[slot]..kw_starts[slot + 1]]` is a cell's `c.Ψ`.
    kw_starts: Vec<usize>,
    keywords: Vec<KeywordId>,
    /// The street's tag numbering, sorted by tag: `(tag, its mask bit)`,
    /// at most [`MASK_BITS`] pairs; empty for a street of more distinct tags.
    tag_bits: Vec<(KeywordId, u8)>,
    /// `Ψr` per member slot and `c.Ψ` per cell slot as bits over the
    /// numbering; both empty for a street of more distinct tags.
    tag_masks: Vec<u64>,
    kw_masks: Vec<u64>,
    num_photos: usize,
}

/// The build's tag numbering: the street's distinct tags in order of first
/// appearance — a tag's position is its mask bit — and the inverse,
/// `bit[tag id]`, [`UNNUMBERED`] for every other id.
#[derive(Default)]
struct TagNumbering {
    tags: Vec<KeywordId>,
    bit: Vec<u8>,
}

impl TagNumbering {
    /// `tags` as bits, numbering the ones the street has not shown before;
    /// `None` once it has shown more than a mask has bits, or an id beyond
    /// the table.
    fn mask(&mut self, tags: &[KeywordId]) -> Option<u64> {
        let mut mask = 0;
        for tag in tags {
            let id = tag.index();
            if id >= NUMBERED_IDS {
                return None;
            }
            if id >= self.bit.len() {
                self.bit.resize(id + 1, UNNUMBERED);
            }
            if self.bit[id] == UNNUMBERED {
                if self.tags.len() == MASK_BITS {
                    return None;
                }
                self.bit[id] = self.tags.len() as u8;
                self.tags.push(*tag);
            }
            mask |= 1 << self.bit[id];
        }
        Some(mask)
    }

    /// The numbering as `(tag, bit)` pairs sorted by tag.
    fn into_sorted(self) -> Vec<(KeywordId, u8)> {
        let mut pairs: Vec<(KeywordId, u8)> = self.tags.into_iter().zip(0..).collect();
        pairs.sort_unstable();
        pairs
    }
}

/// `#{ i : (x[i] − cx)² + (y[i] − cy)² ≤ r_sq }`, with
/// [`Point::dist_sq`]'s operand order. Each block's tests are taken before
/// any is counted, so the arithmetic vectorises.
fn count_hits(x: &[f64], y: &[f64], cx: f64, cy: f64, r_sq: f64) -> usize {
    let hit = |x: f64, y: f64| {
        let (dx, dy) = (x - cx, y - cy);
        usize::from(dx * dx + dy * dy <= r_sq)
    };
    let (mut xs, mut ys) = (x.chunks_exact(SCAN_BLOCK), y.chunks_exact(SCAN_BLOCK));
    let mut count = 0;
    for (xb, yb) in (&mut xs).zip(&mut ys) {
        let mut hits = [0; SCAN_BLOCK];
        for (i, h) in hits.iter_mut().enumerate() {
            *h = hit(xb[i], yb[i]);
        }
        count += hits.iter().sum::<usize>();
    }
    for (&x, &y) in xs.remainder().iter().zip(ys.remainder()) {
        count += hit(x, y);
    }
    count
}

impl DiversificationIndex {
    /// Builds the index over the photos `members ⊆ photos` with neighbourhood
    /// radius `rho` (cell side becomes ρ/2 as in the paper).
    ///
    /// `members` must be sorted ascending by id (as produced by
    /// [`PhotoGrid::photos_near_street`](crate::PhotoGrid::photos_near_street)).
    /// Sequential on the calling thread: one street's `Rs` is a few thousand
    /// photos at most, less work than handing it to other threads costs.
    ///
    /// # Errors
    /// Rejects a `rho` so small against the extent of `members` that a grid
    /// of ρ/2 cells over it has more cells than a [`CellId`] can number.
    ///
    /// # Panics
    /// Panics if `rho` is not strictly positive.
    pub fn build<'a>(
        photos: impl Into<PhotoView<'a>>,
        members: &[PhotoId],
        rho: f64,
    ) -> Result<Self> {
        let photos: PhotoView<'a> = photos.into();
        assert!(rho > 0.0 && rho.is_finite(), "rho must be positive");
        debug_assert!(
            members.windows(2).all(|w| w[0] < w[1]),
            "members must be sorted ascending"
        );
        let (px, py): (Vec<f64>, Vec<f64>) = members
            .iter()
            .map(|&id| {
                let pos = photos.get(id).pos;
                (pos.x, pos.y)
            })
            .unzip();
        let positions = || px.iter().zip(&py).map(|(&x, &y)| Point::new(x, y));
        let extent = Rect::bounding(positions())
            .unwrap_or_else(|| Rect::new(Point::ORIGIN, Point::new(1.0, 1.0)));
        let grid = Grid::try_covering(extent, rho / 2.0).map_err(|cells| {
            SoiError::invalid(format!(
                "rho {rho} is too small for this street: its photos span {} x {}, and cells \
                 of side rho/2 over that are {cells:e} grid cells (at most {} can be numbered)",
                extent.width(),
                extent.height(),
                u32::MAX
            ))
        })?;
        let mut keys = Vec::with_capacity(members.len());
        // Per axis: whether a photo stands just above a cell's lower edge,
        // three cells or more from the first, and whether one stands just
        // below a cell's upper edge (see the module docs).
        let cells_across = f64::from(grid.nx().max(grid.ny()));
        let edge = 8.0 * f64::EPSILON * (cells_across + 2.0);
        let mut edges = [[false; 2]; 2];
        for (i, pos) in positions().enumerate() {
            // Photos outside the grid (non-finite position) are
            // unindexable.
            if let Some(coord) = grid.cell_containing(pos) {
                keys.push(u64::from(grid.cell_id(coord).0) << 32 | i as u64);
                let (fx, fy) = grid.cell_offsets(pos);
                for (offset, [low, high]) in [fx, fy].into_iter().zip(&mut edges) {
                    let cell = offset.floor();
                    *low |= offset - cell <= edge && cell >= 3.0;
                    *high |= offset - cell >= 1.0 - edge;
                }
            }
        }
        // The keys are unique, so the unstable sort is deterministic: cells
        // ascending, and — `members` ascends — photos ascending within a
        // cell.
        keys.sort_unstable();
        let cell_of = |key: u64| (key >> 32) as u32;
        let cells = keys.chunk_by(|&a, &b| cell_of(a) == cell_of(b)).count();
        let indexed = keys.len();

        let mut index = Self {
            grid,
            rho_sq: rho * rho,
            occupied: Vec::with_capacity(cells),
            starts: Vec::with_capacity(cells + 1),
            photos: Vec::with_capacity(indexed),
            x: Vec::with_capacity(indexed),
            y: Vec::with_capacity(indexed),
            near: Vec::with_capacity(cells),
            fringe: Vec::new(),
            rects: Vec::with_capacity(cells),
            psi: Vec::with_capacity(cells),
            kw_starts: Vec::with_capacity(cells + 1),
            keywords: Vec::new(),
            tag_bits: Vec::new(),
            tag_masks: Vec::with_capacity(indexed),
            kw_masks: Vec::with_capacity(cells),
            num_photos: members.len(),
        };
        let mut numbering = Some(TagNumbering::default());
        let mut cell_tags = Vec::new();
        for run in keys.chunk_by(|&a, &b| cell_of(a) == cell_of(b)) {
            let cell = CellId(cell_of(run[0]));
            index.occupied.push(cell);
            index.starts.push(index.photos.len());
            index.kw_starts.push(index.keywords.len());
            index
                .rects
                .push(index.grid.cell_rect(index.grid.coord_of(cell)));
            let (mut psi_min, mut psi_max) = (usize::MAX, 0);
            let mut kw_mask = 0;
            cell_tags.clear();
            for &key in run {
                let member = key as u32 as usize;
                let pid = members[member];
                let tags = photos.get(pid).tags.ids();
                index.photos.push(pid);
                index.x.push(px[member]);
                index.y.push(py[member]);
                psi_min = psi_min.min(tags.len());
                psi_max = psi_max.max(tags.len());
                cell_tags.extend_from_slice(tags);
                if let Some(numbered) = &mut numbering {
                    match numbered.mask(tags) {
                        Some(mask) => {
                            index.tag_masks.push(mask);
                            kw_mask |= mask;
                        }
                        None => numbering = None,
                    }
                }
            }
            cell_tags.sort_unstable();
            cell_tags.dedup();
            index.keywords.extend_from_slice(&cell_tags);
            index.psi.push((psi_min, psi_max));
            index.kw_masks.push(kw_mask);
        }
        index.starts.push(index.photos.len());
        index.kw_starts.push(index.keywords.len());
        index.keywords.shrink_to_fit();
        match numbering {
            Some(numbered) => index.tag_bits = numbered.into_sorted(),
            None => (index.tag_masks, index.kw_masks) = (Vec::new(), Vec::new()),
        }
        index.resolve_neighbourhoods();
        if edges.iter().any(|&[low, high]| low && high) {
            index.resolve_fringe();
        }
        Ok(index)
    }

    /// Fills `near`. Walking the cells in id order moves each row's window
    /// of cell ids `[first, last]` forward only, so a row keeps one pair of
    /// cursors into `occupied` — `lo` at the first cell not before the
    /// window, `hi` at the first one past it — and the pass is linear in the
    /// cells.
    fn resolve_neighbourhoods(&mut self) {
        let (nx, ny) = (self.grid.nx(), self.grid.ny());
        let cells = self.occupied.len();
        let (mut lo, mut hi) = ([0usize; NEAR_ROWS], [0usize; NEAR_ROWS]);
        self.near.clear();
        for &cell in &self.occupied {
            let c = self.grid.coord_of(cell);
            let x0 = c.ix.saturating_sub(2);
            let x1 = c.ix.saturating_add(2).min(nx - 1);
            let mut ranges = [(0, 0); NEAR_ROWS];
            for (row, range) in ranges.iter_mut().enumerate() {
                // Row `iy − 2 + row`, where the grid has it.
                let iy = match (u64::from(c.iy) + row as u64).checked_sub(2) {
                    Some(iy) if iy < u64::from(ny) => iy as u32,
                    _ => continue,
                };
                let (first, last) = (iy * nx + x0, iy * nx + x1);
                let (lo, hi) = (&mut lo[row], &mut hi[row]);
                while *lo < cells && self.occupied[*lo].0 < first {
                    *lo += 1;
                }
                while *hi < cells && self.occupied[*hi].0 <= last {
                    *hi += 1;
                }
                *range = (self.starts[*lo] as u32, self.starts[*hi] as u32);
            }
            self.near.push(ranges);
        }
    }

    /// Fills `fringe`. Each pair of cells three apart is taken once, from
    /// the one first in id order: its ring cells after it are the one three
    /// to its right in its row and those three away in the three rows above.
    fn resolve_fringe(&mut self) {
        let (nx, ny) = (i64::from(self.grid.nx()), i64::from(self.grid.ny()));
        let after = (0..=3i64)
            .flat_map(|dy| (-3..=3i64).map(move |dx| (dx, dy)))
            .filter(|&(dx, dy)| dx.abs().max(dy) == 3 && (dy > 0 || dx > 0));
        let mut fringe = Vec::new();
        for slot in 0..self.occupied.len() {
            let c = self.grid.coord_of(self.occupied[slot]);
            for (dx, dy) in after.clone() {
                let (x, y) = (i64::from(c.ix) + dx, i64::from(c.iy) + dy);
                if !((0..nx).contains(&x) && (0..ny).contains(&y)) {
                    continue;
                }
                if let Some(other) = self.slot_of(CellId((y * nx + x) as u32)) {
                    self.push_fringe_pairs(slot, other, &mut fringe);
                }
            }
        }
        fringe.sort_unstable();
        fringe.shrink_to_fit();
        self.fringe = fringe;
    }

    /// Adds to `fringe` each photo of either cell that passes the distance
    /// test against a photo of the other, under the other's slot.
    fn push_fringe_pairs(&self, a: usize, b: usize, fringe: &mut Vec<(u32, u32)>) {
        let hit = |centre: usize, other: usize| {
            let (x, y) = (self.x[other], self.y[other]);
            count_hits(&[x], &[y], self.x[centre], self.y[centre], self.rho_sq) > 0
        };
        for (here, there) in [(a, b), (b, a)] {
            for far in self.member_slots(there) {
                if self.member_slots(here).any(|member| hit(member, far)) {
                    fringe.push((here as u32, far as u32));
                }
            }
        }
    }

    /// The fringe of the cell at `slot`.
    fn fringe_of(&self, slot: usize) -> &[(u32, u32)] {
        let slot = slot as u32;
        let start = self.fringe.partition_point(|&(cell, _)| cell < slot);
        let end = self.fringe.partition_point(|&(cell, _)| cell <= slot);
        &self.fringe[start..end]
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

    /// The closed rectangle of the cell at `slot`
    /// ([`Grid::cell_rect`] of its coordinates).
    ///
    /// # Panics
    /// Panics if `slot` is out of range.
    pub fn cell_rect(&self, slot: usize) -> &Rect {
        &self.rects[slot]
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

    /// `(cell slot, member slot)` of photo `id` at `pos`, if the index holds
    /// it.
    pub fn locate(&self, id: PhotoId, pos: Point) -> Option<(usize, usize)> {
        let coord = self.grid.cell_containing(pos)?;
        let slot = self.slot_of(self.grid.cell_id(coord))?;
        let members = self.member_slots(slot);
        let at = self.photos[members.clone()].binary_search(&id).ok()?;
        Some((slot, members.start + at))
    }

    /// Total number of photos the index was built over (`|Rs|`).
    pub fn num_photos(&self) -> usize {
        self.num_photos
    }

    /// Total photos in the cells within Chebyshev cell radius 2 of the cell
    /// at `slot`, itself included, plus its fringe: the numerator of Eq. 12.
    ///
    /// # Panics
    /// Panics if `slot` is out of range.
    pub fn neighborhood_count(&self, slot: usize) -> usize {
        let rows = self.near[slot].iter();
        rows.map(|&(start, end)| (end - start) as usize)
            .sum::<usize>()
            + self.fringe_of(slot).len()
    }

    /// Exact count of indexed photos within Euclidean distance ρ of the
    /// photo at member slot `member` of the cell at `slot`, itself included
    /// (the numerator of Definition 4): a scan of the coordinate runs of the
    /// cell's radius-2 neighbourhood, which covers every point within
    /// ρ = 2 · cell side, and of the cell's fringe.
    ///
    /// # Panics
    /// Panics if `slot` or `member` is out of range.
    pub fn count_within(&self, slot: usize, member: usize) -> usize {
        debug_assert!(self.member_slots(slot).contains(&member));
        let (cx, cy) = (self.x[member], self.y[member]);
        let rows = self.near[slot].iter();
        let near: usize = rows
            .map(|&(start, end)| {
                let run = start as usize..end as usize;
                count_hits(&self.x[run.clone()], &self.y[run], cx, cy, self.rho_sq)
            })
            .sum();
        let fringe = self.fringe_of(slot).iter().map(|&(_, far)| {
            let far = far as usize;
            count_hits(&[self.x[far]], &[self.y[far]], cx, cy, self.rho_sq)
        });
        near + fringe.sum::<usize>()
    }

    /// Position of the photo at member slot `member`.
    ///
    /// # Panics
    /// Panics if `member` is out of range.
    pub fn point(&self, member: usize) -> Point {
        Point::new(self.x[member], self.y[member])
    }

    /// `tags` as bits over the street's tag numbering, or `None` for a
    /// street of more than 64 distinct tags. A tag no photo of the street
    /// carries has no bit: it is in no `c.Ψ` and no `Ψr` to intersect with.
    pub fn tag_mask(&self, tags: &KeywordSet) -> Option<u64> {
        let bit = |tag: &KeywordId| {
            let at = self.tag_bits.binary_search_by_key(tag, |&(t, _)| t);
            at.ok().map(|at| self.tag_bits[at].1)
        };
        self.masked().then(|| {
            tags.ids()
                .iter()
                .filter_map(bit)
                .fold(0, |mask, bit| mask | 1 << bit)
        })
    }

    /// The tags `Ψr` of the photo at member slot `member`, as
    /// [`tag_mask`](Self::tag_mask) gives them.
    ///
    /// # Panics
    /// Panics if `member` is out of range.
    pub fn member_tag_mask(&self, member: usize) -> Option<u64> {
        self.masked().then(|| self.tag_masks[member])
    }

    /// The keywords `c.Ψ` of the cell at `slot`, as
    /// [`tag_mask`](Self::tag_mask) gives them.
    ///
    /// # Panics
    /// Panics if `slot` is out of range.
    pub fn kw_mask(&self, slot: usize) -> Option<u64> {
        self.masked().then(|| self.kw_masks[slot])
    }

    /// The street's tags are numbered: the mask columns are filled. (An
    /// index over no photos has nothing to mask either way.)
    fn masked(&self) -> bool {
        self.kw_masks.len() == self.occupied.len()
    }

    /// Heap bytes the index holds: the capacity of every column.
    pub fn heap_bytes(&self) -> usize {
        fn bytes<T>(v: &Vec<T>) -> usize {
            v.capacity() * std::mem::size_of::<T>()
        }
        bytes(&self.occupied)
            + bytes(&self.starts)
            + bytes(&self.photos)
            + bytes(&self.x)
            + bytes(&self.y)
            + bytes(&self.near)
            + bytes(&self.fringe)
            + bytes(&self.rects)
            + bytes(&self.psi)
            + bytes(&self.kw_starts)
            + bytes(&self.keywords)
            + bytes(&self.tag_bits)
            + bytes(&self.tag_masks)
            + bytes(&self.kw_masks)
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
        let index = DiversificationIndex::build(&photos, &members, 1.0).unwrap();
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
        let (photos, _, index) = setup();
        let (slot, _) = index
            .locate(PhotoId(1), photos.get(PhotoId(1)).pos)
            .unwrap();
        // The far photo is many cells away: radius-2 neighbourhood holds only
        // the cluster.
        assert_eq!(index.neighborhood_count(slot), 3);
    }

    #[test]
    fn counts_within_rho_are_exact() {
        let (photos, members, _) = setup();
        let count = |rho: f64, id: u32| {
            let index = DiversificationIndex::build(&photos, &members, rho).unwrap();
            let (slot, member) = index
                .locate(PhotoId(id), photos.get(PhotoId(id)).pos)
                .unwrap();
            index.count_within(slot, member)
        };
        // Around photo 0 at (0.1, 0.1): with ρ = 0.15, photos 0 and 1.
        assert_eq!(count(0.15, 0), 2);
        // ρ = 0.25 adds photo 2; the excluded photo 4, nearer than either,
        // is never counted.
        assert_eq!(count(0.25, 0), 3);
        assert_eq!(count(0.15, 1), 3);
        // The lone photo counts itself.
        assert_eq!(count(0.25, 3), 1);
    }

    #[test]
    fn a_photo_rounded_to_rho_three_cells_away_is_counted() {
        // ρ = 0.5, cells of 0.25 from (0, −0.5). Photo 2 stands one ulp left
        // of x = 0.25, in column 0, three columns from photo 1 in column 3:
        // 0.5 + 3e-17 away, which `dist_sq` rounds to exactly ρ² = 0.25.
        let mut photos = PhotoCollection::new();
        photos.add(Point::new(0.0, -0.5), tags(&[0]));
        let centre = photos.add(Point::new(0.75, 0.5), tags(&[1]));
        let far = photos.add(Point::new(0.25f64.next_down(), 0.5), tags(&[2]));
        let members: Vec<PhotoId> = photos.iter().map(|p| p.id).collect();
        let index = DiversificationIndex::build(&photos, &members, 0.5).unwrap();
        let (a, b) = (photos.get(centre).pos, photos.get(far).pos);
        assert_eq!(a.dist_sq(b), 0.25);
        let coord = |p| index.grid().cell_containing(p).unwrap();
        assert_eq!(coord(a).chebyshev(coord(b)), 3);
        for (id, pos, within) in [(centre, a, 2), (far, b, 2)] {
            let (slot, member) = index.locate(id, pos).unwrap();
            assert_eq!(index.count_within(slot, member), within, "{id}");
            assert!(index.neighborhood_count(slot) >= within);
        }
        assert_eq!(index.fringe.len(), 2);
        // Anywhere else the fringe is empty and allocates nothing.
        let (_, _, plain) = setup();
        assert_eq!(plain.fringe.capacity(), 0);
    }

    #[test]
    fn locate_finds_members_only() {
        let (photos, members, index) = setup();
        for &id in &members {
            let (slot, member) = index.locate(id, photos.get(id).pos).unwrap();
            assert_eq!(index.photos()[member], id);
            assert!(index.member_slots(slot).contains(&member));
        }
        // Photo 4 shares the cluster's cell but is not in Rs.
        assert_eq!(index.locate(PhotoId(4), photos.get(PhotoId(4)).pos), None);
        assert_eq!(index.locate(PhotoId(0), Point::new(-3.0, 0.0)), None);
    }

    #[test]
    fn masks_number_a_street_of_up_to_64_tags() {
        // 70 distinct tags: more than a mask can number.
        let mut photos = PhotoCollection::new();
        for i in 0..35u32 {
            photos.add(Point::new(f64::from(i), 0.0), tags(&[2 * i, 2 * i + 1, 0]));
        }
        let everyone: Vec<PhotoId> = photos.iter().map(|p| p.id).collect();
        let wide = DiversificationIndex::build(&photos, &everyone, 1.0).unwrap();
        assert_eq!(wide.tag_mask(&tags(&[0])), None);
        assert_eq!((wide.kw_mask(0), wide.member_tag_mask(0)), (None, None));
        // Photos 0..=20 carry tags 0..=41: 42 distinct ones.
        let narrow = DiversificationIndex::build(&photos, &everyone[..21], 1.0).unwrap();
        let size = |mask: Option<u64>| mask.map(u64::count_ones);
        assert_eq!(size(narrow.tag_mask(&tags(&[0, 7, 999]))), Some(2));
        for slot in 0..narrow.occupied().len() {
            let cell = narrow.cell_at(slot);
            assert_eq!(size(narrow.kw_mask(slot)), Some(cell.keywords.len() as u32));
            let mut union = 0;
            for member in narrow.member_slots(slot) {
                let r = photos.get(narrow.photos()[member]);
                assert_eq!(narrow.member_tag_mask(member), narrow.tag_mask(&r.tags));
                assert_eq!(narrow.point(member), r.pos);
                union |= narrow.member_tag_mask(member).unwrap();
            }
            assert_eq!(narrow.kw_mask(slot), Some(union));
        }
    }

    #[test]
    fn a_rho_too_small_for_the_extent_is_an_error_not_a_wrapped_grid() {
        let (photos, members, _) = setup();
        for rho in [1e-8, 1e-12, 1e-300] {
            let err = DiversificationIndex::build(&photos, &members, rho).unwrap_err();
            assert!(err.to_string().contains("rho"), "{err}");
        }
    }

    #[test]
    fn a_high_tag_id_costs_its_pair_not_an_id_sized_table() {
        // Tag 65 000 is within the numbering table's reach, so the street
        // is masked; the index keeps one pair for it, not a 65 001-byte row.
        let mut photos = PhotoCollection::new();
        for i in 0..12u32 {
            let pos = Point::new(f64::from(i) * 0.3, f64::from(i % 3) * 0.2);
            photos.add(pos, tags(&[i % 4, 65_000 - i % 2]));
        }
        let members: Vec<PhotoId> = photos.iter().map(|p| p.id).collect();
        let index = DiversificationIndex::build(&photos, &members, 1.0).unwrap();
        let (r, c, k) = (
            index.photos().len(),
            index.occupied().len(),
            index.keywords.len(),
        );
        assert!(
            index.heap_bytes() <= 128 * (r + c + k),
            "{} heap bytes for |Rs| {r}, {c} cells, {k} cell keywords",
            index.heap_bytes()
        );
        // The id-indexed table the build numbers through, fed the members
        // in the same cell-major order, answers every lookup alike.
        let mut table = TagNumbering::default();
        for &id in index.photos() {
            table
                .mask(photos.get(id).tags.ids())
                .expect("at most 64 tags");
        }
        let by_table = |set: &KeywordSet| {
            set.ids()
                .iter()
                .filter_map(|t| table.bit.get(t.index()).filter(|&&b| b != UNNUMBERED))
                .fold(0u64, |mask, &bit| mask | 1 << bit)
        };
        for member in 0..r {
            let photo = photos.get(index.photos()[member]);
            assert_eq!(index.member_tag_mask(member), Some(by_table(&photo.tags)));
        }
        for set in [
            &[0, 65_000][..],
            &[3, 7, 64_999, 65_001],
            &[],
            &[65_000, 70_000],
        ] {
            assert_eq!(index.tag_mask(&tags(set)), Some(by_table(&tags(set))));
        }
    }

    #[test]
    fn empty_members() {
        let photos = PhotoCollection::new();
        let index = DiversificationIndex::build(&photos, &[], 1.0).unwrap();
        assert_eq!(index.num_photos(), 0);
        assert!(index.occupied().is_empty());
        assert!(index.photos().is_empty());
    }

    #[test]
    #[should_panic(expected = "rho must be positive")]
    fn zero_rho_panics() {
        let photos = PhotoCollection::new();
        let _ = DiversificationIndex::build(&photos, &[], 0.0);
    }
}
