//! The POI grid index (paper Sec. 3.2.1).

use soi_common::{
    effective_threads, f64_from_total_key, f64_total_key, par_chunk_map, par_sort_by,
    par_sort_unstable_by, sort_row_keys, CellId, Csr, KeywordId, PoiId, SegmentId,
};
use soi_data::PoiCollection;
use soi_geo::{Grid, Point, Rect};
use soi_network::RoadNetwork;
use soi_text::union_of_postings;

/// Packs one global-index entry into a single sortable integer:
/// keyword (high 32) ‖ weight as an order-reversed totalOrder key (middle
/// 64) ‖ cell (low 32). Unsigned order over the packed keys is therefore
/// (keyword asc, weight desc, cell asc) — the global index's list order —
/// and the weight bits are exactly recoverable.
#[inline]
fn pack_global_entry(k: KeywordId, weight: f64, cell: CellId) -> u128 {
    (u128::from(k.0) << 96) | (u128::from(!f64_total_key(weight)) << 32) | u128::from(cell.0)
}

/// Inverse of [`pack_global_entry`], minus the keyword: the `(cell, weight)`
/// pair stored in the per-keyword global list.
#[inline]
fn unpack_global_entry(entry: u128) -> (CellId, f64) {
    let weight = f64_from_total_key(!((entry >> 32) as u64));
    (CellId(entry as u32), weight)
}

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
    /// `run_docs`.
    keywords: &'a [KeywordId],
    first_run: usize,
    run_docs: &'a Csr<PoiId>,
}

impl<'a> PoiCell<'a> {
    /// The distinct keywords carried by the cell's POIs, ascending.
    pub fn keywords(&self) -> &'a [KeywordId] {
        self.keywords
    }

    /// The local inverted list for `k`: POIs of this cell carrying the
    /// keyword, sorted by id (empty if none does).
    #[inline]
    pub fn postings(&self, k: KeywordId) -> &'a [PoiId] {
        match self.keywords.binary_search(&k) {
            Ok(i) => self.run_docs.row(self.first_run + i),
            Err(_) => &[],
        }
    }

    /// Calls `f` once per distinct POI of the cell carrying any of
    /// `keywords`, in ascending id order (the paper's synchronous
    /// multi-list traversal).
    #[inline]
    pub fn for_each_matching<F: FnMut(PoiId)>(&self, keywords: &[KeywordId], f: F) {
        union_of_postings(keywords, |k| self.postings(k), f);
    }
}

/// The spatio-textual POI index of Section 3.2.1.
///
/// Holds the five offline structures the SOI algorithm needs:
/// 1. the spatial grid with per-cell local inverted indexes;
/// 2. the global inverted index (keyword → `(cell, count)` sorted
///    decreasingly on count);
/// 3. the raster cell-to-segment map (segments passing through each cell);
/// 4. the raster segment-to-cell map;
/// 5. the list of segments sorted increasingly on length.
///
/// Every cell- or keyword-keyed structure is a [`Csr`] column pair over the
/// dense id (a [`PoiCell`] is a borrowed view into them), which is also
/// exactly what a snapshot stores.
///
/// Queries do not read the index directly: masses, `Cε(ℓ)` and the
/// ε-augmented versions of maps (3) and (4) are read through
/// [`IndexView`](crate::IndexView), with or without a live delta, and
/// derived at query time per popped cell or segment
/// ([`IndexView::occupied_cells_near_segment_into`](crate::IndexView::occupied_cells_near_segment_into),
/// [`IndexView::for_each_raster_row_near_cell`](crate::IndexView::for_each_raster_row_near_cell)).
///
/// Equality compares every column (floats by bit pattern): two equal
/// indexes answer every query identically. The
/// columns are crate-visible for the snapshot codec (see
/// [`crate::snapshot`]), which writes the persisted ones as they are and
/// validates them against each other and the dataset before
/// `PoiIndex::from_columns` derives the slot columns from them.
#[derive(Debug)]
pub struct PoiIndex {
    pub(crate) grid: Grid,
    /// cell → POIs located in it, ascending id.
    pub(crate) cell_pois: Csr<PoiId>,
    /// cell → total POI weight (0.0 for an unoccupied cell).
    pub(crate) total_weight: Vec<f64>,
    /// The run directory of the local inverted indexes: cell → its distinct
    /// keywords, ascending. Item `i` of this column is postings run `i`.
    pub(crate) cell_kws: Csr<KeywordId>,
    /// postings run → the POIs of the run's cell carrying the run's
    /// keyword, ascending id: every cell's local lists in one docs column.
    pub(crate) run_docs: Csr<PoiId>,
    /// keyword → (cell, summed weight of POIs with that keyword), desc.
    pub(crate) global: Csr<(CellId, f64)>,
    /// Segments sorted increasingly by length (the basis of SL3).
    pub(crate) segments_by_len: Vec<SegmentId>,
    /// The static raster cell-to-segment map (Sec. 3.2.1): segments passing
    /// through each cell (occupied or not), built offline. The ε-augmented
    /// `Lε(c)` is derived from it lazily at query time.
    pub(crate) raster: Csr<SegmentId>,
    /// slot → `[x, y, weight]` of the POI `cell_pois.items()[slot]`. A
    /// *slot* is an index into `cell_pois.items()`: a cell's slots are one
    /// contiguous range, ascending slot = ascending id within the cell.
    /// Derived by [`derive_slot_columns`], not persisted.
    pub(crate) slot_xyw: Vec<[f64; 3]>,
    /// Parallel to `run_docs.items()`: the slot of each posting, so a
    /// run is an ascending list of positions in its cell's slot range.
    /// Derived by [`derive_slot_columns`], not persisted.
    pub(crate) run_slots: Vec<u32>,
}

/// Derives the two cell-major slot columns Alg. 1's mass path reads
/// (`slot_xyw`, `run_slots`) from the persisted columns and the dataset.
///
/// Total over any checksummed input — every lookup is bounds-checked and
/// the work is one pass each over the members, the POIs and the postings — and
/// the place the conditions *between* the columns are enforced: no POI is a
/// member of two cells, and every posting of a run names a member of the
/// run's own cell. That a cell's members ascend, so that ascending slot is
/// ascending id, is a per-column condition the snapshot reader checks
/// beside the others.
///
/// # Errors
/// A message naming the first violated condition.
fn derive_slot_columns(
    cell_pois: &Csr<PoiId>,
    cell_kws: &Csr<KeywordId>,
    run_docs: &Csr<PoiId>,
    pois: &PoiCollection,
) -> Result<(Vec<[f64; 3]>, Vec<u32>), String> {
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
    for (poi, &slot) in pois.as_slice().iter().zip(&slot_of) {
        if slot != UNPLACED {
            slot_xyw[slot as usize] = [poi.pos.x, poi.pos.y, poi.weight];
        }
    }
    let mut run_slots = Vec::with_capacity(run_docs.items().len());
    for cell in 0..cell_kws.rows() {
        let slots = cell_pois.row_range(cell);
        // A cell's runs are consecutive rows, so its postings are one span.
        let runs = cell_kws.row_range(cell);
        if runs.is_empty() {
            continue;
        }
        let postings = run_docs.row_range(runs.start).start..run_docs.row_range(runs.end - 1).end;
        for doc in run_docs.items().get(postings).unwrap_or(&[]) {
            match slot_of.get(doc.index()) {
                Some(&slot) if slots.contains(&(slot as usize)) => run_slots.push(slot),
                _ => {
                    return Err(format!(
                    "poi postings docs: POI {} is in a run of cell {cell} but not a member of it",
                    doc.0
                ))
                }
            }
        }
    }
    Ok((slot_xyw, run_slots))
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
            && weight_bits(&self.total_weight).eq(weight_bits(&other.total_weight))
            && self.cell_kws == other.cell_kws
            && self.run_docs == other.run_docs
            && self.global.starts() == other.global.starts()
            && entry_bits(&self.global).eq(entry_bits(&other.global))
            && self.segments_by_len == other.segments_by_len
            && self.raster == other.raster
            && weight_bits(self.slot_xyw.as_flattened())
                .eq(weight_bits(other.slot_xyw.as_flattened()))
            && self.run_slots == other.run_slots
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
    /// The build is chunk-partitioned and deterministic: every structure is
    /// assembled by sorting globally ordered intermediate pairs, and all
    /// floating-point sums run in ascending POI id order, so the result is
    /// byte-identical for every thread count (including 1).
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
            let mut max_kw = 0u32;
            for poi in chunk {
                counts.push(poi.keywords.len() as u32);
                flat.extend_from_slice(poi.keywords.ids());
                if let Some(&k) = poi.keywords.ids().last() {
                    max_kw = max_kw.max(k.0);
                }
                // POIs outside the grid (non-finite position) are unindexable.
                if let Some(coord) = grid.cell_containing(poi.pos) {
                    keys.push(u64::from(grid.cell_id(coord).0) << 32 | u64::from(poi.id.0));
                }
            }
            (keys, counts, flat, max_kw)
        });
        let mut keys: Vec<u64> = Vec::with_capacity(pois.len());
        let mut kw_offsets: Vec<u32> = Vec::with_capacity(pois.len() + 1);
        let mut kw_flat: Vec<KeywordId> = Vec::new();
        let mut max_kw = 0u32;
        kw_offsets.push(0);
        let mut off = 0u32;
        for (k, counts, flat, m) in parts {
            keys.extend(k);
            for c in counts {
                off += c;
                kw_offsets.push(off);
            }
            kw_flat.extend(flat);
            max_kw = max_kw.max(m);
        }
        let weights: Vec<f64> = pois.as_slice().iter().map(|p| p.weight).collect();

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
        let num_kws = max_kw as usize + 1;
        let cell_counting = num_kws <= 65536;

        /// What one chunk of occupied cells contributes to the columns.
        #[derive(Default)]
        struct CellsPart {
            /// One packed (cell ‖ keyword) key per postings run, in
            /// (cell, keyword) order: the run directory.
            run_keys: Vec<u64>,
            /// The length of each run, in run order.
            run_lens: Vec<u32>,
            /// Every run's postings, concatenated in run order.
            docs: Vec<PoiId>,
            /// Packed (keyword, weight, cell) global-index entries.
            triples: Vec<u128>,
        }

        // Phase 2 — per-cell structures: each worker takes a contiguous run
        // of occupied cells and emits each cell's local inverted index as
        // column keys — no per-POI hashing, no per-cell allocation, and
        // every lookup hits the id-indexed weight array or the flat keyword
        // sidecar. Each run also emits its packed (keyword, weight, cell)
        // contribution to the global index, its weight summed in ascending
        // id order (matching the sequential build bit-for-bit).
        let per_chunk: Vec<CellsPart> = par_chunk_map(&occupied, threads, |_, chunk| {
            let mut part = CellsPart::default();
            let mut pairs: Vec<u64> = Vec::new();
            let mut sorted: Vec<u64> = Vec::new();
            // Keyword histogram, reused (and re-zeroed) across cells.
            let mut hist: Vec<u32> = vec![0; if cell_counting { num_kws } else { 0 }];
            for &cell_id in chunk {
                pairs.clear();
                for &PoiId(pid) in cell_pois.row(cell_id.index()) {
                    let ks = kw_offsets[pid as usize] as usize;
                    let ke = kw_offsets[pid as usize + 1] as usize;
                    for &k in &kw_flat[ks..ke] {
                        pairs.push(u64::from(k.0) << 32 | u64::from(pid));
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
                // Fused run scan: the per-keyword weight sums (in
                // ascending POI order) for the global index, the run
                // directory and the docs column fall out of one pass.
                let mut r = 0;
                while r < pairs.len() {
                    let k = (pairs[r] >> 32) as u32;
                    let run_start = r;
                    let mut weight = 0.0;
                    while r < pairs.len() && (pairs[r] >> 32) as u32 == k {
                        let pid = pairs[r] as u32;
                        weight += weights[pid as usize];
                        part.docs.push(PoiId(pid));
                        r += 1;
                    }
                    part.run_lens.push((r - run_start) as u32);
                    part.triples
                        .push(pack_global_entry(KeywordId(k), weight, cell_id));
                    part.run_keys
                        .push(u64::from(cell_id.0) << 32 | u64::from(k));
                }
            }
            part
        });

        // Concatenate the chunks in cell order.
        let mut run_keys: Vec<u64> = Vec::new();
        let mut run_lens: Vec<u32> = Vec::new();
        let mut docs: Vec<PoiId> = Vec::new();
        let mut all_triples: Vec<u128> = Vec::new();
        for part in per_chunk {
            run_lens.extend(part.run_lens);
            docs.extend(part.docs);
            run_keys.extend(part.run_keys);
            all_triples.extend(part.triples);
        }
        // Per-cell totals, likewise summed in ascending id order from 0.0
        // (an unoccupied cell's total is exactly 0.0).
        let total_weight: Vec<f64> = (0..num_cells)
            .map(|c| {
                let members = cell_pois.row(c).iter();
                members.fold(0.0, |sum, p| sum + weights[p.index()])
            })
            .collect();
        let cell_kws: Csr<KeywordId> = Csr::from_sorted_keys(num_cells, &run_keys);
        let run_docs = Csr::from_row_lens(&run_lens, docs);

        drop(phase2_span);
        let phase3_span = soi_obs::trace::span(soi_obs::names::spans::INDEX_BUILD_GLOBAL);

        // Phase 3 — global inverted index: the packed keys order by
        // (keyword asc, weight desc in totalOrder, cell asc) — the same
        // total order as the sequential per-list sorts — and are unique per
        // (keyword, cell), so one deterministic unstable sort puts every
        // per-keyword list in place.
        par_sort_unstable_by(&mut all_triples, threads, |a, b| a.cmp(b));
        let global = Csr::from_sorted(
            num_kws,
            &all_triples,
            |&t| (t >> 96) as usize,
            |&t| unpack_global_entry(t),
        );

        drop(phase3_span);
        let phase4_span = soi_obs::trace::span(soi_obs::names::spans::INDEX_BUILD_RASTER);

        // Phase 4 — static raster map: rasterise segments in parallel chunks
        // into packed (cell ‖ segment) keys. Keys are unique (a segment hits
        // a cell at most once) and arrive segment-ascending.
        let segs = network.segments();
        let seg_cells: Vec<u64> = par_chunk_map(segs, threads, |_, chunk| {
            let mut out = Vec::new();
            for seg in chunk {
                grid.for_each_cell_near_segment(&seg.geom, 0.0, |coord| {
                    out.push(u64::from(grid.cell_id(coord).0) << 32 | u64::from(seg.id.0));
                });
            }
            out
        })
        .into_iter()
        .flatten()
        .collect();
        let raster: Csr<SegmentId> =
            Csr::from_sorted_keys(num_cells, &sort_row_keys(seg_cells, num_cells, threads));

        drop(phase4_span);
        let phase5_span = soi_obs::trace::span(soi_obs::names::spans::INDEX_BUILD_LENGTHS);

        // Phase 5 — length-sorted segment list (the SL3 order): precompute
        // the keys once and sort by the (length, id) total order.
        let mut len_keys: Vec<(f64, SegmentId)> = segs.iter().map(|s| (s.len(), s.id)).collect();
        par_sort_by(&mut len_keys, threads, |a, b| {
            a.0.total_cmp(&b.0).then_with(|| a.1.cmp(&b.1))
        });
        let segments_by_len = len_keys.into_iter().map(|(_, id)| id).collect();

        drop(phase5_span);
        // The intermediates are as large as the slot columns about to be
        // derived: freed first, the derive does not raise the build's peak.
        drop((
            weights,
            kw_offsets,
            kw_flat,
            run_keys,
            run_lens,
            all_triples,
        ));
        let index = Self::from_columns(
            grid,
            cell_pois,
            total_weight,
            cell_kws,
            run_docs,
            global,
            segments_by_len,
            raster,
            pois,
        )
        .unwrap_or_else(|why| unreachable!("freshly built columns contradict each other: {why}"));
        drop(build_span);
        let m = crate::obs::index_metrics();
        m.builds.inc();
        m.build_seconds.observe_duration(build_start.elapsed());
        crate::obs::record_build_alloc(alloc_before, soi_obs::alloc::totals());
        index
    }

    /// Segments passing through cell `id` (the static raster map; empty if
    /// no segment crosses the cell).
    pub fn raster_segments_of_cell(&self, id: CellId) -> &[SegmentId] {
        self.raster.row(id.index())
    }

    /// O(1) upper bound on `|Cε(ℓ)|`: the number of grid cells overlapping
    /// the ε-dilated bounding box of the segment. SL2's order under the
    /// paper's verbatim bounds, without rasterising every segment at query
    /// time.
    pub fn upper_cell_count(&self, geom: &soi_geo::LineSeg, eps: f64) -> usize {
        self.grid
            .count_cells_in_rect(&geom.bounding_rect().expand(eps))
    }

    /// Chebyshev radius, in cells, of the ring around a cell that holds
    /// every cell a segment within `eps` of it passes through: a point
    /// within `eps` of the cell lies at most `eps` beyond its boundary, i.e.
    /// within `⌊(eps + h) / h⌋` cells (half-open cells). Clamped to the
    /// grid's larger side, which already reaches every cell — `eps` is a
    /// caller's number and may exceed any grid.
    pub(crate) fn ring_radius(&self, eps: f64) -> u32 {
        let h = self.grid.cell_size();
        // The cast saturates (an `eps` near `f64::MAX` divides to `inf`).
        (((eps + h) / h).floor() as u32).min(self.grid.nx().max(self.grid.ny()))
    }

    /// Lazy `Lε(c)`: all segments within `eps` of cell `id`, ascending,
    /// derived from the static raster map by scanning the Chebyshev ring
    /// that holds every cell a segment within `eps` passes through, and
    /// filtering by exact distance.
    pub fn segments_within_eps_of_cell(
        &self,
        network: &RoadNetwork,
        id: CellId,
        eps: f64,
    ) -> Vec<SegmentId> {
        let coord = self.grid.coord_of(id);
        let rect = self.grid.cell_rect(coord);
        let mut out: Vec<SegmentId> = Vec::new();
        self.grid
            .for_each_in_neighborhood(coord, self.ring_radius(eps), |near| {
                out.extend_from_slice(self.raster_segments_of_cell(self.grid.cell_id(near)));
            });
        out.sort_unstable();
        out.dedup();
        let dilated = rect.expand(eps);
        out.retain(|&seg| {
            let geom = network.segment(seg).geom;
            dilated.intersects(&geom.bounding_rect()) && rect.within_dist_of_segment(&geom, eps)
        });
        out
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
            keywords: &self.cell_kws.items()[runs],
            run_docs: &self.run_docs,
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

    /// Segment ids sorted increasingly by segment length (the SL3 order).
    pub fn segments_by_len(&self) -> &[SegmentId] {
        &self.segments_by_len
    }

    /// Assembles an index from its persisted columns — freshly built or
    /// snapshot-decoded and validated — deriving the slot columns from them
    /// and `pois`. The one constructor: no index exists without them.
    ///
    /// # Errors
    /// The columns contradict each other (see [`derive_slot_columns`]).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_columns(
        grid: Grid,
        cell_pois: Csr<PoiId>,
        total_weight: Vec<f64>,
        cell_kws: Csr<KeywordId>,
        run_docs: Csr<PoiId>,
        global: Csr<(CellId, f64)>,
        segments_by_len: Vec<SegmentId>,
        raster: Csr<SegmentId>,
        pois: &PoiCollection,
    ) -> Result<Self, String> {
        let (slot_xyw, run_slots) = derive_slot_columns(&cell_pois, &cell_kws, &run_docs, pois)?;
        Ok(Self {
            grid,
            cell_pois,
            total_weight,
            cell_kws,
            run_docs,
            global,
            segments_by_len,
            raster,
            slot_xyw,
            run_slots,
        })
    }

    /// Checks the weights Alg. 1's upper bounds trust against the members
    /// they sum, as a build sums them: each cell total is its members'
    /// weights, each global entry its run's, both added in ascending id
    /// from `0.0` (so bit for bit), and every run has exactly one global
    /// entry. A lowered total or entry, or a missing one, would let a query
    /// stop on a `UB` that is no upper bound. The snapshot reader asks this
    /// of a decoded index; a build makes it so.
    ///
    /// # Errors
    /// A message naming the first violated condition.
    pub(crate) fn check_weight_sums(&self) -> Result<(), String> {
        let weight = |slot: usize| self.slot_xyw[slot][2];
        for cell in 0..self.cell_pois.rows() {
            let total = self
                .cell_pois
                .row_range(cell)
                .fold(0.0, |sum, s| sum + weight(s));
            let stored = self.total_weight.get(cell).copied();
            if stored.map(f64::to_bits) != Some(total.to_bits()) {
                return Err(format!(
                    "poi cell weights: cell {cell} holds {stored:?}, its members sum to {total}"
                ));
            }
        }
        // `run_slots` is parallel to the postings: a run's weight sums its row.
        let run_weight: Vec<f64> = (0..self.run_docs.rows())
            .map(|run| {
                let slots = &self.run_slots[self.run_docs.row_range(run)];
                slots.iter().fold(0.0, |sum, &s| sum + weight(s as usize))
            })
            .collect();
        // Keyword by keyword, ascending: a cell's run of `k` is its first run
        // no global entry has claimed yet, so each entry claims the run at its
        // cell's cursor — and a missing, repeated or stray entry leaves a
        // cursor on another keyword's run.
        let (kws, runs_of) = (self.cell_kws.items(), |cell| self.cell_kws.row_range(cell));
        let mut next_run: Vec<usize> = (0..self.cell_kws.rows())
            .map(|cell| runs_of(cell).start)
            .collect();
        for k in 0..self.global.rows() {
            for &(cell, weight) in self.global.row(k) {
                let claimed = next_run
                    .get_mut(cell.index())
                    .filter(|&&mut run| run < runs_of(cell.index()).end && kws[run].index() == k);
                let Some(run) = claimed else {
                    return Err(format!(
                        "poi global index: keyword {k} lists cell {}, which has no run of it left",
                        cell.0
                    ));
                };
                if run_weight[*run].to_bits() != weight.to_bits() {
                    return Err(format!(
                        "poi global weights: keyword {k} in cell {} weighs {weight}, \
                         its run sums to {}",
                        cell.0, run_weight[*run]
                    ));
                }
                *run += 1;
            }
        }
        match (0..next_run.len()).find(|&cell| next_run[cell] < runs_of(cell).end) {
            Some(cell) => Err(format!(
                "poi global index: no entry of keyword {} lists cell {cell}",
                kws[next_run[cell]].0
            )),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::epsilon::EpsilonMaps;
    use crate::IndexView;
    use soi_common::KeywordId;
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
                assert_eq!(cell.postings(k), scan, "cell {id:?} keyword {k:?}");
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
        assert!(index.raster_segments_of_cell(past).is_empty());
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
    fn segments_sorted_by_len() {
        let (network, _, index) = setup();
        let by_len = index.segments_by_len();
        assert_eq!(by_len.len(), 2);
        for w in by_len.windows(2) {
            assert!(network.segment(w[0]).len() <= network.segment(w[1]).len());
        }
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
                assert!(index.upper_cell_count(&seg.geom, eps) >= lazy.len());
            }
            for (cell, _) in index.occupied_cells() {
                let lazy = index.segments_within_eps_of_cell(&network, cell, eps);
                let mut eager = maps.segments_of_cell(cell).to_vec();
                eager.sort_unstable();
                assert_eq!(lazy, eager, "eps {eps} cell {cell:?}");
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

    #[test]
    fn raster_contains_crossed_cells() {
        let (network, _, index) = setup();
        let grid = index.grid();
        for seg in network.segments() {
            // The midpoint's cell must list the segment.
            if let Some(c) = grid.cell_containing(seg.geom.a.lerp(seg.geom.b, 0.5)) {
                assert!(
                    index
                        .raster_segments_of_cell(grid.cell_id(c))
                        .contains(&seg.id),
                    "segment {} missing from raster",
                    seg.id
                );
            }
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
        assert!(index.segments_by_len().is_empty());
    }
}
