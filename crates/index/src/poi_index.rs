//! The POI grid index (paper Sec. 3.2.1).

use soi_common::{effective_threads, par_chunk_map, sort_row_keys, CellId, Csr, KeywordId, PoiId};
use soi_data::PoiCollection;
use soi_geo::{Grid, Point, Rect};
use soi_network::RoadNetwork;
use soi_text::union_of_postings;

/// The extent a dataset-wide grid covers: the network's united with its
/// items' (`items`, the POI or photo extent), or the unit square when both
/// are empty.
pub(crate) fn covered_extent(network: &RoadNetwork, items: Option<Rect>) -> Rect {
    match (network.extent(), items) {
        (Some(a), Some(b)) => a.union(&b),
        (Some(a), None) => a,
        (None, Some(b)) => b,
        (None, None) => Rect::new(Point::ORIGIN, Point::new(1.0, 1.0)),
    }
}

/// One occupied grid cell of the POI index: a view borrowed from the
/// index's shared columns.
#[derive(Debug, Clone, Copy)]
pub struct PoiCell<'a> {
    /// POIs located in this cell, sorted by id.
    pub pois: &'a [PoiId],
    /// Total POI weight in the cell (`|Pc|` with unit weights).
    pub total_weight: f64,
    /// The cell's distinct keywords, ascending: its slice of the run
    /// directory. Keyword `i`'s postings are row `first_run + i` of
    /// `run_slots`, slots `first_slot..` of which are `pois`.
    keywords: &'a [KeywordId],
    first_run: usize,
    first_slot: usize,
    run_slots: &'a Csr<u32>,
}

impl<'a> PoiCell<'a> {
    /// The distinct keywords carried by the cell's POIs, ascending.
    pub fn keywords(&self) -> &'a [KeywordId] {
        self.keywords
    }

    /// The slots of the cell's POIs carrying `k`, ascending (empty if none
    /// does).
    #[inline]
    fn slots(&self, k: KeywordId) -> &'a [u32] {
        match self.keywords.binary_search(&k) {
            Ok(i) => self.run_slots.row(self.first_run + i),
            Err(_) => &[],
        }
    }

    /// The POI in `slot`, one of the cell's slots.
    #[inline]
    fn poi_in(&self, slot: u32) -> PoiId {
        self.pois[slot as usize - self.first_slot]
    }

    /// The local inverted list for `k`: POIs of this cell carrying the
    /// keyword, ascending id (empty if none does).
    pub fn postings(&self, k: KeywordId) -> impl Iterator<Item = PoiId> + 'a {
        let cell = *self;
        self.slots(k).iter().map(move |&slot| cell.poi_in(slot))
    }

    /// Calls `f` once per distinct POI of the cell carrying any of
    /// `keywords`, in ascending id order (the paper's synchronous
    /// multi-list traversal; ascending slot is ascending id).
    #[inline]
    pub fn for_each_matching<F: FnMut(PoiId)>(&self, keywords: &[KeywordId], mut f: F) {
        union_of_postings(keywords, |k| self.slots(k), |slot| f(self.poi_in(slot)));
    }
}

/// The spatio-textual POI index of Section 3.2.1.
///
/// Holds two of the paper's five offline structures:
/// 1. the spatial grid with per-cell local inverted indexes;
/// 2. the global inverted index (keyword → `(cell, count)` sorted
///    decreasingly on count).
///
/// The other three depend on street geometry alone. The segments sorted
/// increasingly on length live on the network
/// ([`RoadNetwork::segments_by_len`]). The raster cell↔segment maps are
/// read only by the paper's own Alg. 1 (`soi-core`'s paper entry), which
/// rasterises the network over [`PoiIndex::grid`] per query; the default
/// loop reads `Cε(ℓ)` alone.
///
/// Every cell- or keyword-keyed structure is a [`Csr`] column pair over the
/// dense id (a [`PoiCell`] is a borrowed view into them). A snapshot stores
/// three of them — the cell members, the run directory and the postings —
/// and `PoiIndex::from_columns` derives everything else from those and the
/// POIs.
///
/// Queries do not read the index directly: masses and the ε-augmented
/// `Cε(ℓ)` are read through [`IndexView`](crate::IndexView), with or
/// without a live delta, and derived at query time per popped segment
/// ([`IndexView::occupied_cells_near_segment_into`](crate::IndexView::occupied_cells_near_segment_into)).
///
/// Equality compares every column (floats by bit pattern): two equal
/// indexes answer every query identically. The
/// columns are crate-visible for the snapshot codec (see
/// [`crate::snapshot`]), which writes the three primary ones as they are
/// and validates them against each other and the dataset before
/// `PoiIndex::from_columns` derives the rest from them.
#[derive(Debug)]
pub struct PoiIndex {
    pub(crate) grid: Grid,
    /// cell → POIs located in it, ascending id. A *slot* is an index into
    /// `cell_pois.items()`: a cell's slots are one contiguous range, and
    /// ascending slot is ascending id within the cell.
    pub(crate) cell_pois: Csr<PoiId>,
    /// The run directory of the local inverted indexes: cell → its distinct
    /// keywords, ascending. Item `i` of this column is postings run `i`.
    pub(crate) cell_kws: Csr<KeywordId>,
    /// postings run → the slots of the POIs of the run's cell carrying the
    /// run's keyword, ascending: every cell's local lists in one column.
    pub(crate) run_slots: Csr<u32>,
    /// keyword → (cell, summed weight of POIs with that keyword), desc.
    /// Derived by [`derive_global`], not persisted.
    pub(crate) global: Csr<(CellId, f64)>,
    /// slot → `[x, y, weight]` of the POI `cell_pois.items()[slot]`.
    /// Derived by [`derive_from_pois`], not persisted.
    pub(crate) slot_xyw: Vec<[f64; 3]>,
    /// cell → total POI weight (0.0 for an unoccupied cell): its slots'
    /// weights summed in slot order from `0.0`. Derived, not persisted.
    pub(crate) total_weight: Vec<f64>,
}

/// Derives what the index needs of the dataset's POIs, in one pass over
/// them: the cell-major coordinate column Alg. 1's mass path reads
/// (`slot_xyw`), and the keyword id space the global lists are rows over —
/// one past the largest keyword id any POI carries (indexable or not), and
/// at least 1.
///
/// Total over any checksummed input — every lookup is bounds-checked and
/// the work is one pass each over the members and the POIs — and the place
/// the one condition *between* the members and the dataset is enforced: no
/// POI is a member of two cells. That a cell's members ascend, and that a
/// run's slots ascend inside its cell's slot range, are conditions the
/// snapshot reader checks beside the others.
///
/// # Errors
/// A message naming the first violated condition.
fn derive_from_pois(
    cell_pois: &Csr<PoiId>,
    pois: &PoiCollection,
) -> Result<(Vec<[f64; 3]>, usize), String> {
    const UNPLACED: u32 = u32::MAX;
    let members = cell_pois.items();
    // POI → slot first: the coordinate pass below then reads the POI
    // records in id order (sequentially) instead of in cell order.
    let mut slot_of = vec![UNPLACED; pois.len()];
    for (slot, id) in members.iter().enumerate() {
        let placed = slot_of.get_mut(id.index()).ok_or_else(|| {
            format!(
                "poi cell members: id {} out of bounds (limit {})",
                id.0,
                pois.len()
            )
        })?;
        if std::mem::replace(placed, slot as u32) != UNPLACED {
            return Err(format!("poi cell members: POI {} is in two cells", id.0));
        }
    }
    let mut slot_xyw = vec![[0.0; 3]; members.len()];
    let mut num_kws = 1;
    for (poi, &slot) in pois.as_slice().iter().zip(&slot_of) {
        if slot != UNPLACED {
            slot_xyw[slot as usize] = [poi.pos.x, poi.pos.y, poi.weight];
        }
        if let Some(k) = poi.keywords.ids().last() {
            num_kws = num_kws.max(k.index() + 1);
        }
    }
    Ok((slot_xyw, num_kws))
}

/// Derives the global inverted index (Sec. 3.2.1) from the postings: one
/// entry per run, its weight the run's slot weights added in slot order
/// (ascending id) from `0.0`, listed per keyword by weight descending
/// (`total_cmp`), then cell ascending. Alg. 1 reads the lists in that
/// order, and `relcount` and `b(ℓ)` are summed in it, so the order is part
/// of the answer.
///
/// # Errors
/// A run keyword at or past `num_kws`: no POI carries it.
fn derive_global(
    cell_kws: &Csr<KeywordId>,
    run_slots: &Csr<u32>,
    slot_xyw: &[[f64; 3]],
    num_kws: usize,
) -> Result<Csr<(CellId, f64)>, String> {
    let kws = cell_kws.items();
    let mut lens = vec![0u32; num_kws];
    for k in kws {
        *lens.get_mut(k.index()).ok_or_else(|| {
            format!(
                "poi run directory: keyword {} out of bounds (limit {num_kws})",
                k.0
            )
        })? += 1;
    }
    // Each keyword's write cursor: its list's start.
    let mut next: Vec<usize> = lens
        .iter()
        .scan(0, |start, &len| {
            let at = *start;
            *start += len as usize;
            Some(at)
        })
        .collect();
    // Runs come cell-ascending, so every list is filled cell-ascending ...
    let mut items = vec![(CellId(0), 0.0); kws.len()];
    for cell in 0..cell_kws.rows() {
        for run in cell_kws.row_range(cell) {
            let slots = run_slots.row(run).iter();
            let weight = slots.fold(0.0, |sum, &s| sum + slot_xyw[s as usize][2]);
            let at = &mut next[kws[run].index()];
            items[*at] = (CellId::from_index(cell), weight);
            *at += 1;
        }
    }
    // ... and a stable sort by weight keeps equal weights in cell order.
    let mut rest = &mut items[..];
    for &len in &lens {
        let (list, tail) = rest.split_at_mut(len as usize);
        list.sort_by(|a, b| b.1.total_cmp(&a.1));
        rest = tail;
    }
    Ok(Csr::from_row_lens(&lens, items))
}

impl PartialEq for PoiIndex {
    fn eq(&self, other: &Self) -> bool {
        fn weight_bits(w: &[f64]) -> impl Iterator<Item = u64> + '_ {
            w.iter().map(|x| x.to_bits())
        }
        fn entry_bits(g: &Csr<(CellId, f64)>) -> impl Iterator<Item = (CellId, u64)> + '_ {
            g.items().iter().map(|&(c, w)| (c, w.to_bits()))
        }
        self.grid == other.grid
            && self.cell_pois == other.cell_pois
            && self.cell_kws == other.cell_kws
            && self.run_slots == other.run_slots
            && self.global.starts() == other.global.starts()
            && entry_bits(&self.global).eq(entry_bits(&other.global))
            && weight_bits(self.slot_xyw.as_flattened())
                .eq(weight_bits(other.slot_xyw.as_flattened()))
    }
}

impl PoiIndex {
    /// Builds the index over `pois` with the given grid `cell_size`, for the
    /// road network `network`.
    ///
    /// The grid covers the union of the network and POI extents so that every
    /// POI falls into exactly one cell.
    ///
    /// # Panics
    /// Panics if `cell_size` is not strictly positive.
    pub fn build(network: &RoadNetwork, pois: &PoiCollection, cell_size: f64) -> Self {
        Self::build_with_threads(network, pois, cell_size, 0)
    }

    /// Builds the index with an explicit worker-thread count (`0` = resolve
    /// automatically, see [`effective_threads`]).
    ///
    /// The build makes the three primary columns — the cell members, the
    /// run directory and the postings — and `PoiIndex::from_columns` derives
    /// the rest, exactly as a snapshot load does. It is
    /// chunk-partitioned and deterministic: every column is assembled by
    /// sorting globally ordered intermediate keys, and all floating-point
    /// sums run in ascending POI id order, so the result is byte-identical
    /// for every thread count (including 1).
    ///
    /// # Panics
    /// Panics if `cell_size` is not strictly positive.
    pub fn build_with_threads(
        network: &RoadNetwork,
        pois: &PoiCollection,
        cell_size: f64,
        threads: usize,
    ) -> Self {
        let threads = effective_threads((threads > 0).then_some(threads));
        let build_span = soi_obs::trace::span(soi_obs::names::spans::INDEX_BUILD);
        soi_obs::trace::counter(soi_obs::names::tracks::INDEX_BUILD_THREADS, threads as f64);
        let build_start = std::time::Instant::now();
        let alloc_before = soi_obs::alloc::totals();
        let grid = Grid::covering(covered_extent(network, pois.extent()), cell_size);

        let phase1_span = soi_obs::trace::span(soi_obs::names::spans::INDEX_BUILD_FLATTEN);
        // Phase 1 — one cache-friendly pass over the POI slice per chunk:
        // emit the packed (cell ‖ poi) bucket key for every indexable POI,
        // and flatten all keyword sets into a CSR sidecar (per-POI counts +
        // one flat id array) so later phases re-read keywords from a single
        // contiguous array instead of per-POI heap nodes. Chunks flatten in
        // chunk order (= ascending POI order), so the arrays are independent
        // of the thread count.
        let parts = par_chunk_map(pois.as_slice(), threads, |_, chunk| {
            let mut keys: Vec<u64> = Vec::with_capacity(chunk.len());
            let mut counts: Vec<u32> = Vec::with_capacity(chunk.len());
            let mut flat: Vec<KeywordId> = Vec::new();
            for poi in chunk {
                counts.push(poi.keywords.len() as u32);
                flat.extend_from_slice(poi.keywords.ids());
                // POIs outside the grid (non-finite position) are unindexable.
                if let Some(coord) = grid.cell_containing(poi.pos) {
                    keys.push(u64::from(grid.cell_id(coord).0) << 32 | u64::from(poi.id.0));
                }
            }
            (keys, counts, flat)
        });
        let mut keys: Vec<u64> = Vec::with_capacity(pois.len());
        let mut kw_offsets: Vec<u32> = Vec::with_capacity(pois.len() + 1);
        let mut kw_flat: Vec<KeywordId> = Vec::new();
        kw_offsets.push(0);
        let mut off = 0u32;
        for (k, counts, flat) in parts {
            keys.extend(k);
            for c in counts {
                off += c;
                kw_offsets.push(off);
            }
            kw_flat.extend(flat);
        }

        // Order the keys by (cell, poi) — the input is already poi-ascending
        // — and cut them into the cell → POIs column.
        let num_cells = grid.num_cells();
        let cell_pois: Csr<PoiId> =
            Csr::from_sorted_keys(num_cells, &sort_row_keys(keys, num_cells, threads));
        let occupied: Vec<CellId> = cell_pois
            .occupied_rows()
            .map(|(c, _)| CellId::from_index(c))
            .collect();

        drop(phase1_span);
        let phase2_span = soi_obs::trace::span(soi_obs::names::spans::INDEX_BUILD_CELLS);

        // Per-cell (keyword, poi) ordering: with a dense vocabulary, one
        // stable counting pass per cell over a reusable histogram sorts the
        // cell's pairs in O(pairs + vocab); the pairs arrive poi-major (POIs
        // ascending, keywords ascending within each POI), so bucketing by
        // keyword leaves POIs ascending within each keyword run. Cells where
        // the vocabulary dwarfs the pair count (and all builds over huge
        // vocabularies) fall back to a comparison sort of the packed pairs,
        // which (pairs are unique) produces the identical order.
        // The keyword id space: one past the largest keyword any POI
        // carries, as `from_columns` derives it.
        let num_kws = kw_flat.iter().max().map_or(1, |k| k.index() + 1);
        let cell_counting = num_kws <= 65536;

        /// What one chunk of occupied cells contributes to the columns.
        #[derive(Default)]
        struct CellsPart {
            /// One packed (cell ‖ keyword) key per postings run, in
            /// (cell, keyword) order: the run directory.
            run_keys: Vec<u64>,
            /// The length of each run, in run order.
            run_lens: Vec<u32>,
            /// Every run's postings as slots, concatenated in run order.
            slots: Vec<u32>,
        }

        // Phase 2 — per-cell structures: each worker takes a contiguous run
        // of occupied cells and emits each cell's local inverted index as
        // column keys — no per-POI hashing, no per-cell allocation, and
        // every lookup hits the flat keyword sidecar. A posting is its POI's
        // slot, and ascending slot is ascending id within the cell.
        let members = cell_pois.items();
        let per_chunk: Vec<CellsPart> = par_chunk_map(&occupied, threads, |_, chunk| {
            let mut part = CellsPart::default();
            let mut pairs: Vec<u64> = Vec::new();
            let mut sorted: Vec<u64> = Vec::new();
            // Keyword histogram, reused (and re-zeroed) across cells.
            let mut hist: Vec<u32> = vec![0; if cell_counting { num_kws } else { 0 }];
            for &cell_id in chunk {
                pairs.clear();
                for slot in cell_pois.row_range(cell_id.index()) {
                    let pid = members[slot].index();
                    for &k in &kw_flat[kw_offsets[pid] as usize..kw_offsets[pid + 1] as usize] {
                        pairs.push(u64::from(k.0) << 32 | slot as u64);
                    }
                }
                // The histogram fill(0) bounds the per-cell counting
                // cost to O(pairs), so the whole phase stays linear.
                if cell_counting && num_kws <= 8 * pairs.len() + 64 {
                    for &p in &pairs {
                        hist[(p >> 32) as usize] += 1;
                    }
                    let mut sum = 0u32;
                    for c in hist.iter_mut() {
                        let n = *c;
                        *c = sum;
                        sum += n;
                    }
                    sorted.clear();
                    sorted.resize(pairs.len(), 0);
                    for &p in &pairs {
                        let cur = &mut hist[(p >> 32) as usize];
                        sorted[*cur as usize] = p;
                        *cur += 1;
                    }
                    hist.fill(0);
                    std::mem::swap(&mut pairs, &mut sorted);
                } else {
                    pairs.sort_unstable();
                }
                // Run scan: the run directory and the postings column
                // fall out of one pass.
                for run in pairs.chunk_by(|a, b| a >> 32 == b >> 32) {
                    part.slots.extend(run.iter().map(|&p| p as u32));
                    part.run_lens.push(run.len() as u32);
                    part.run_keys
                        .push(u64::from(cell_id.0) << 32 | (run[0] >> 32));
                }
            }
            part
        });

        // Concatenate the chunks in cell order.
        let mut run_keys: Vec<u64> = Vec::new();
        let mut run_lens: Vec<u32> = Vec::new();
        let mut slots: Vec<u32> = Vec::new();
        for part in per_chunk {
            run_lens.extend(part.run_lens);
            slots.extend(part.slots);
            run_keys.extend(part.run_keys);
        }
        let cell_kws: Csr<KeywordId> = Csr::from_sorted_keys(num_cells, &run_keys);
        let run_slots = Csr::from_row_lens(&run_lens, slots);

        drop(phase2_span);
        // The intermediates are as large as the columns about to be
        // derived: freed first, the derive does not raise the build's peak.
        drop((kw_offsets, kw_flat, run_keys, run_lens));
        let index =
            Self::from_columns(grid, cell_pois, cell_kws, run_slots, pois).unwrap_or_else(|why| {
                unreachable!("freshly built columns contradict each other: {why}")
            });
        drop(build_span);
        let m = crate::obs::index_metrics();
        m.builds.inc();
        m.build_seconds.observe_duration(build_start.elapsed());
        crate::obs::record_build_alloc(alloc_before, soi_obs::alloc::totals());
        index
    }

    /// The underlying grid.
    pub fn grid(&self) -> &Grid {
        &self.grid
    }

    /// Whether cell `id` holds at least one POI.
    #[inline]
    pub fn is_occupied(&self, id: CellId) -> bool {
        !self.cell_pois.is_empty_row(id.index())
    }

    /// The cell with id `id`, if occupied.
    #[inline]
    pub fn cell(&self, id: CellId) -> Option<PoiCell<'_>> {
        let pois = self.cell_pois.row(id.index());
        if pois.is_empty() {
            return None;
        }
        let runs = self.cell_kws.row_range(id.index());
        Some(PoiCell {
            pois,
            total_weight: self.total_weight[id.index()],
            first_run: runs.start,
            first_slot: self.cell_pois.row_range(id.index()).start,
            keywords: &self.cell_kws.items()[runs],
            run_slots: &self.run_slots,
        })
    }

    /// Total POI weight in cell `id` (0.0 if unoccupied).
    #[inline]
    pub fn cell_total_weight(&self, id: CellId) -> f64 {
        self.total_weight.get(id.index()).copied().unwrap_or(0.0)
    }

    /// Number of occupied cells.
    pub fn num_occupied_cells(&self) -> usize {
        self.cell_pois.occupied_rows().count()
    }

    /// Iterates over occupied cells in ascending cell id order.
    pub fn occupied_cells(&self) -> impl Iterator<Item = (CellId, PoiCell<'_>)> {
        (0..self.cell_pois.rows())
            .map(CellId::from_index)
            .filter_map(|id| Some((id, self.cell(id)?)))
    }

    /// The global inverted list for keyword `k`: `(cell, count)` sorted
    /// decreasingly on count. Empty if the keyword occurs nowhere.
    pub fn global_postings(&self, k: KeywordId) -> &[(CellId, f64)] {
        self.global.row(k.index())
    }

    /// Assembles an index from its three primary columns — freshly built,
    /// or snapshot-decoded and validated — and derives the rest: `slot_xyw`
    /// and the keyword id space from the members and `pois`; each cell's
    /// total from `slot_xyw`, its slots' weights added in slot order
    /// (ascending id) from `0.0`, so an unoccupied cell's total is exactly
    /// `0.0`; and the global lists from the runs ([`derive_global`]). The
    /// one constructor: no index exists without them, and nothing else
    /// makes the derived columns.
    ///
    /// # Errors
    /// The columns contradict each other or the dataset (see
    /// [`derive_from_pois`] and [`derive_global`]).
    pub(crate) fn from_columns(
        grid: Grid,
        cell_pois: Csr<PoiId>,
        cell_kws: Csr<KeywordId>,
        run_slots: Csr<u32>,
        pois: &PoiCollection,
    ) -> Result<Self, String> {
        let (slot_xyw, num_kws) = derive_from_pois(&cell_pois, pois)?;
        let total_weight = (0..cell_pois.rows())
            .map(|cell| {
                let slots = cell_pois.row_range(cell);
                slots.fold(0.0, |sum, slot| sum + slot_xyw[slot][2])
            })
            .collect();
        let span = soi_obs::trace::span(soi_obs::names::spans::INDEX_BUILD_GLOBAL);
        let global = derive_global(&cell_kws, &run_slots, &slot_xyw, num_kws)?;
        drop(span);
        Ok(Self {
            grid,
            cell_pois,
            cell_kws,
            run_slots,
            global,
            slot_xyw,
            total_weight,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::epsilon::EpsilonMaps;
    use crate::IndexView;
    use soi_common::{KeywordId, SegmentId};
    use soi_geo::LineSeg;
    use soi_text::KeywordSet;

    fn kws(ids: &[u32]) -> KeywordSet {
        KeywordSet::from_ids(ids.iter().map(|&i| KeywordId(i)))
    }

    /// One horizontal street at y=0 from x=0..10, POIs sprinkled around it.
    fn setup() -> (RoadNetwork, PoiCollection, PoiIndex) {
        let mut b = RoadNetwork::builder();
        b.add_street_from_points(
            "Main",
            &[
                Point::new(0.0, 0.0),
                Point::new(5.0, 0.0),
                Point::new(10.0, 0.0),
            ],
        );
        let network = b.build().unwrap();
        let mut pois = PoiCollection::new();
        pois.add(Point::new(1.0, 0.5), kws(&[0])); // near seg 0
        pois.add(Point::new(1.2, 0.6), kws(&[0, 1])); // near seg 0, same cell as above
        pois.add(Point::new(7.0, -0.5), kws(&[1])); // near seg 1
        pois.add(Point::new(7.0, 9.0), kws(&[0])); // far away
        let index = PoiIndex::build(&network, &pois, 1.0);
        (network, pois, index)
    }

    #[test]
    fn cells_are_populated_sorted() {
        let (_, _, index) = setup();
        assert!(index.num_occupied_cells() >= 3);
        let mut previous = None;
        for (id, cell) in index.occupied_cells() {
            assert!(previous < Some(id), "cells must come in ascending id order");
            previous = Some(id);
            assert!(cell.pois.windows(2).all(|w| w[0] < w[1]));
            assert!(cell.total_weight >= cell.pois.len() as f64 - 1e-9);
        }
        assert_eq!(index.occupied_cells().count(), index.num_occupied_cells());
    }

    #[test]
    fn local_postings_equal_a_scan_of_the_cell() {
        let (_, pois) = dense_fixture();
        let network = RoadNetwork::builder().build().unwrap();
        let index = PoiIndex::build(&network, &pois, 0.75);
        let mut indexed = 0;
        for (id, cell) in index.occupied_cells() {
            indexed += cell.pois.len();
            assert_eq!(index.cell_total_weight(id), cell.total_weight);
            let carried: std::collections::BTreeSet<KeywordId> = cell
                .pois
                .iter()
                .flat_map(|&p| pois.get(p).keywords.iter())
                .collect();
            assert_eq!(cell.keywords(), carried.into_iter().collect::<Vec<_>>());
            for k in (0..9).map(KeywordId) {
                let scan: Vec<PoiId> = cell
                    .pois
                    .iter()
                    .copied()
                    .filter(|&p| pois.get(p).keywords.contains(k))
                    .collect();
                let postings: Vec<PoiId> = cell.postings(k).collect();
                assert_eq!(postings, scan, "cell {id:?} keyword {k:?}");
            }
            let mut matched = Vec::new();
            cell.for_each_matching(&[KeywordId(1), KeywordId(4), KeywordId(8)], |p| {
                matched.push(p)
            });
            let scan: Vec<PoiId> = cell
                .pois
                .iter()
                .copied()
                .filter(|&p| pois.get(p).keywords.intersects(&kws(&[1, 4, 8])))
                .collect();
            assert_eq!(matched, scan);
        }
        assert_eq!(indexed, pois.len());
        // Unoccupied and out-of-range cells are absent, weightless, empty.
        let past = CellId::from_index(index.grid().num_cells());
        assert!(index.cell(past).is_none() && !index.is_occupied(past));
        assert_eq!(index.cell_total_weight(past), 0.0);
    }

    #[test]
    fn global_postings_sorted_desc() {
        let (_, _, index) = setup();
        let postings = index.global_postings(KeywordId(0));
        assert!(!postings.is_empty());
        for w in postings.windows(2) {
            assert!(w[0].1 >= w[1].1);
        }
        // Total count across cells for keyword 0 = 3 POIs.
        let total: f64 = postings.iter().map(|&(_, w)| w).sum();
        assert_eq!(total, 3.0);
        assert!(index.global_postings(KeywordId(99)).is_empty());
    }

    #[test]
    fn cell_mass_counts_distinct_matching_pois_within_eps() {
        let (_, pois, index) = setup();
        let coord = index.grid().cell_containing(Point::new(1.0, 0.5)).unwrap();
        let id = index.grid().cell_id(coord);
        let seg = LineSeg::new(Point::new(0.0, 0.0), Point::new(5.0, 0.0));
        let (view, pois) = (IndexView::from(&index), (&pois).into());
        // eps = 0.65: both POIs within reach; multi-keyword query counts each once.
        assert_eq!(
            view.cell_mass_for_segment(pois, id, &seg, &kws(&[0, 1]), 0.65),
            2.0
        );
        // eps = 0.55: only the POI at distance 0.5.
        assert_eq!(
            view.cell_mass_for_segment(pois, id, &seg, &kws(&[0, 1]), 0.55),
            1.0
        );
        // Non-matching query.
        assert_eq!(
            view.cell_mass_for_segment(pois, id, &seg, &kws(&[7]), 1.0),
            0.0
        );
    }

    /// Definition 1 over the reference maps: the mass summed over the
    /// eager `Cε(ℓ)` of `maps` instead of the lazily derived one.
    fn segment_mass_eager(
        index: &PoiIndex,
        pois: &PoiCollection,
        network: &RoadNetwork,
        seg: SegmentId,
        query: &KeywordSet,
        maps: &EpsilonMaps,
    ) -> f64 {
        let (view, geom) = (IndexView::from(index), network.segment(seg).geom);
        maps.cells_of_segment(seg)
            .iter()
            .map(|&c| view.cell_mass_for_segment(pois.into(), c, &geom, query, maps.eps()))
            .sum()
    }

    #[test]
    fn segment_mass_matches_brute_force() {
        let (network, pois, index) = setup();
        let eps = 0.75;
        let maps = EpsilonMaps::build(&network, &index, eps);
        let query = kws(&[0, 1]);
        for seg in network.segments() {
            let brute: f64 = pois
                .iter()
                .filter(|p| p.keywords.intersects(&query))
                .filter(|p| seg.geom.dist_to_point(p.pos) <= eps)
                .map(|p| p.weight)
                .sum();
            let via_index = segment_mass_eager(&index, &pois, &network, seg.id, &query, &maps);
            assert_eq!(via_index, brute, "segment {}", seg.id);
        }
    }

    #[test]
    fn lazy_maps_match_the_eager_reference() {
        let (network, _, index) = setup();
        for eps in [0.0, 0.3, 0.75, 1.5] {
            let maps = EpsilonMaps::build(&network, &index, eps);
            for seg in network.segments() {
                let lazy = IndexView::from(&index).occupied_cells_near_segment(&seg.geom, eps);
                assert_eq!(lazy.as_slice(), maps.cells_of_segment(seg.id), "eps {eps}");
            }
        }
    }

    #[test]
    fn segment_mass_lazy_matches_eager() {
        let (network, pois, index) = setup();
        let eps = 0.7;
        let maps = EpsilonMaps::build(&network, &index, eps);
        let query = kws(&[0, 1]);
        for seg in network.segments() {
            assert_eq!(
                IndexView::from(&index).segment_mass_lazy(
                    (&pois).into(),
                    &network,
                    seg.id,
                    &query,
                    eps
                ),
                segment_mass_eager(&index, &pois, &network, seg.id, &query, &maps)
            );
        }
    }

    /// A denser grid-city fixture than `setup()`, large enough that every
    /// parallel phase actually splits into multiple chunks.
    fn dense_fixture() -> (RoadNetwork, PoiCollection) {
        let mut b = RoadNetwork::builder();
        for i in 0..12 {
            let y = i as f64;
            b.add_street_from_points(
                format!("H{i}"),
                &[Point::new(0.0, y), Point::new(6.0, y), Point::new(12.0, y)],
            );
            b.add_street_from_points(
                format!("V{i}"),
                &[Point::new(y, 0.0), Point::new(y, 6.0), Point::new(y, 12.0)],
            );
        }
        let network = b.build().unwrap();
        let mut pois = PoiCollection::new();
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        for i in 0..600 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let px = (x % 1200) as f64 / 100.0;
            let py = ((x >> 17) % 1200) as f64 / 100.0;
            let k1 = (x % 7) as u32;
            let k2 = ((x >> 11) % 7) as u32;
            let weight = 1.0 + (i % 3) as f64 * 0.5;
            pois.add_weighted(Point::new(px, py), kws(&[k1, k2]), weight);
        }
        (network, pois)
    }

    #[test]
    fn parallel_build_identical_to_sequential() {
        let (network, pois) = dense_fixture();
        let sequential = PoiIndex::build_with_threads(&network, &pois, 0.75, 1);
        for threads in [2usize, 3, 8] {
            let parallel = PoiIndex::build_with_threads(&network, &pois, 0.75, threads);
            assert!(
                sequential == parallel,
                "{threads} threads built another index"
            );
        }
        // The default entry point must agree as well, whatever thread count
        // it resolves to.
        assert!(sequential == PoiIndex::build(&network, &pois, 0.75));
        // Equality sees a single changed weight bit or moved POI.
        let mut other = pois.clone();
        other.add_weighted(Point::new(3.3, 3.3), kws(&[2]), 1.0);
        assert!(sequential != PoiIndex::build_with_threads(&network, &other, 0.75, 1));
        // ... and a POI nudged within its cell, which only the derived
        // coordinate column records.
        let mut nudged = PoiCollection::new();
        for p in pois.iter() {
            let dx = if p.id.index() == 7 { 1e-9 } else { 0.0 };
            nudged.add_weighted(
                Point::new(p.pos.x + dx, p.pos.y),
                p.keywords.clone(),
                p.weight,
            );
        }
        let nudged = PoiIndex::build_with_threads(&network, &nudged, 0.75, 1);
        assert!(sequential.cell_pois == nudged.cell_pois && sequential != nudged);
    }

    #[test]
    fn into_helpers_match_allocating_forms() {
        let (network, _, index) = setup();
        let view = IndexView::from(&index);
        let mut cells_buf = vec![CellId(999); 4];
        for seg in network.segments() {
            view.occupied_cells_near_segment_into(&seg.geom, 0.7, &mut cells_buf);
            assert_eq!(cells_buf, view.occupied_cells_near_segment(&seg.geom, 0.7));
        }
    }

    #[test]
    fn empty_dataset_builds() {
        let network = RoadNetwork::builder().build().unwrap();
        let pois = PoiCollection::new();
        let index = PoiIndex::build(&network, &pois, 1.0);
        assert_eq!(index.num_occupied_cells(), 0);
    }
}
