//! The query-time read path: [`IndexView`].
//!
//! Algorithms 1 and 2 and the baseline read the POI index through an
//! [`IndexView`] alone: a base [`PoiIndex`] overlaid with an optional
//! sealed [`DeltaIndex`]. Without a delta the view reads the base; each
//! reader has one body either way. The overlay rules keep every bound the
//! algorithm relies on *sound and exact*:
//!
//! - Street geometry and the grid are static, so `Cε(ℓ)`'s cells come
//!   from the base grid.
//! - Global postings and per-cell weight totals come from the delta's
//!   replacement aggregates for touched keywords/cells and from the base
//!   otherwise; the delta recomputed them in merged ascending-POI order,
//!   so they are bit-identical to a rebuilt index's aggregates.
//! - Cell occupancy is the union of base-occupied cells and delta-new
//!   cells. A base cell whose POIs were all deleted stays "occupied" with
//!   a zero total — a sound superset that contributes nothing.
//! - Exact masses sum base survivors (ascending id, via the base inverted
//!   postings with deleted POIs skipped) then delta adds (ascending id) —
//!   the same physical-POI order a rebuild over the folded collections
//!   sums in, hence bit-identical masses.
//! - Alg. 1 splits that mass in two: [`IndexView::for_each_relevant_poi`]
//!   yields a cell's relevant POIs once per (query, cell), in exactly that
//!   order, from the base's cell-major slot columns; [`mass_within`] then
//!   scans the gathered coordinates once per (cell, segment) visit.
//!   [`IndexView::cell_mass_for_segment`] stays the one-call reference (and
//!   the baseline's path) the pair is tested against, bit for bit.

use soi_common::{CellId, KeywordId, SegmentId};
use soi_data::PoiView;
use soi_geo::{Grid, LineSeg, Point};
use soi_network::RoadNetwork;
use soi_text::KeywordSet;

use crate::delta::DeltaIndex;
use crate::poi_index::PoiIndex;

/// Slots per window of the several-keyword union in
/// [`IndexView::for_each_relevant_poi`]: one bit each in a 512-byte bitmap
/// on the stack. A larger cell is unioned window after window.
const UNION_WINDOW: usize = 4096;

/// Points per block of [`mass_within`]: small enough for the hit weights
/// to stay in registers, a multiple of every vector width in use.
const SCAN_BLOCK: usize = 8;

/// Summed weight of the points `(x[i], y[i])` within `eps` of `seg`, added
/// in index order: [`IndexView::cell_mass_for_segment`]'s distance test and
/// summation over coordinates gathered beforehand.
///
/// Each block's distances and hit weights are computed before any is
/// added, so the distance arithmetic vectorises while the additions keep
/// their order; a miss adds `+0.0`, which changes no bit of a sum that
/// started at `+0.0`.
///
/// # Panics
/// Panics if the three columns differ in length.
pub fn mass_within(seg: &LineSeg, eps: f64, x: &[f64], y: &[f64], w: &[f64]) -> f64 {
    assert!(x.len() == y.len() && x.len() == w.len());
    let eps_sq = eps * eps;
    let hit_weight = |x: f64, y: f64, w: f64| {
        if seg.dist_sq_to_point(Point::new(x, y)) <= eps_sq {
            w
        } else {
            0.0
        }
    };
    let mut mass = 0.0;
    let (mut xs, mut ys, mut ws) = (
        x.chunks_exact(SCAN_BLOCK),
        y.chunks_exact(SCAN_BLOCK),
        w.chunks_exact(SCAN_BLOCK),
    );
    for ((xb, yb), wb) in (&mut xs).zip(&mut ys).zip(&mut ws) {
        let mut hits = [0.0; SCAN_BLOCK];
        for (i, hit) in hits.iter_mut().enumerate() {
            *hit = hit_weight(xb[i], yb[i], wb[i]);
        }
        for hit in hits {
            mass += hit;
        }
    }
    for ((&x, &y), &w) in xs
        .remainder()
        .iter()
        .zip(ys.remainder())
        .zip(ws.remainder())
    {
        mass += hit_weight(x, y, w);
    }
    mass
}

/// A read-only overlay of an optional sealed delta on a base index.
///
/// `Copy`, and constructible from a plain `&PoiIndex` (empty delta), so
/// query entry points take `impl Into<IndexView<'_>>` and pre-ingestion
/// call sites keep passing the index directly.
#[derive(Debug, Clone, Copy)]
pub struct IndexView<'a> {
    base: &'a PoiIndex,
    delta: Option<&'a DeltaIndex>,
}

impl<'a> From<&'a PoiIndex> for IndexView<'a> {
    fn from(base: &'a PoiIndex) -> Self {
        Self { base, delta: None }
    }
}

impl<'a> IndexView<'a> {
    /// A view of `base` overlaid with `delta` (None = base only).
    pub fn new(base: &'a PoiIndex, delta: Option<&'a DeltaIndex>) -> Self {
        Self { base, delta }
    }

    /// The underlying grid (static street/POI extent fixed at build time).
    pub fn grid(&self) -> &'a Grid {
        self.base.grid()
    }

    /// The global inverted list for keyword `k`: the delta's replacement
    /// list when `k` was touched this epoch, the base list otherwise.
    pub fn global_postings(&self, k: KeywordId) -> &'a [(CellId, f64)] {
        if let Some(d) = self.delta {
            if let Some(list) = d.global_postings(k) {
                return list;
            }
        }
        self.base.global_postings(k)
    }

    /// Total POI weight in cell `id` under this view (0.0 if unoccupied).
    pub fn cell_total_weight(&self, id: CellId) -> f64 {
        if let Some(d) = self.delta {
            if let Some(w) = d.cell_total_weight(id) {
                return w;
            }
        }
        self.base.cell_total_weight(id)
    }

    /// Lazy `Cε(ℓ)` under this view: clears `out` and fills it with the
    /// cells within `eps` of `geom` that the base occupies or the delta
    /// newly occupies, ascending. Alg. 1 calls this once per seen segment
    /// with a scratch vector.
    pub fn occupied_cells_near_segment_into(
        &self,
        geom: &LineSeg,
        eps: f64,
        out: &mut Vec<CellId>,
    ) {
        out.clear();
        let grid = self.base.grid();
        grid.for_each_cell_near_segment(geom, eps, |coord| {
            let c = grid.cell_id(coord);
            if self.base.is_occupied(c) || self.delta.is_some_and(|d| d.occupies_new_cell(c)) {
                out.push(c);
            }
        });
        out.sort_unstable();
    }

    /// Allocating form of
    /// [`occupied_cells_near_segment_into`](Self::occupied_cells_near_segment_into).
    pub fn occupied_cells_near_segment(&self, geom: &LineSeg, eps: f64) -> Vec<CellId> {
        let mut out = Vec::new();
        self.occupied_cells_near_segment_into(geom, eps, &mut out);
        out
    }

    /// Exact weighted mass contribution of cell `id` to segment `seg_geom`
    /// under this view (Procedure UpdateInterest): the summed weight of the
    /// distinct POIs of the cell that match `query` and lie within `eps` of
    /// the segment. Base survivors first (ascending id, deleted POIs
    /// skipped), then delta adds (ascending id) — the merged summation
    /// order, so the result is bit-identical to the rebuilt index's mass.
    pub fn cell_mass_for_segment(
        &self,
        pois: PoiView<'_>,
        id: CellId,
        seg_geom: &LineSeg,
        query: &KeywordSet,
        eps: f64,
    ) -> f64 {
        let eps_sq = eps * eps;
        let mut mass = 0.0;
        if let Some(cell) = self.base.cell(id) {
            cell.for_each_matching(query.ids(), |pid| {
                if !self.delta.is_some_and(|d| d.poi_deleted(pid)) {
                    let poi = pois.get(pid);
                    if seg_geom.dist_sq_to_point(poi.pos) <= eps_sq {
                        mass += poi.weight;
                    }
                }
            });
        }
        if let Some(d) = self.delta {
            for &pid in d.cell_added_pois(id) {
                let poi = pois.get(pid);
                if poi.keywords.intersects(query) && seg_geom.dist_sq_to_point(poi.pos) <= eps_sq {
                    mass += poi.weight;
                }
            }
        }
        mass
    }

    /// Calls `f(x, y, weight)` for exactly the POIs of cell `id` that
    /// [`cell_mass_for_segment`](Self::cell_mass_for_segment) distance-tests
    /// under `query`, in exactly its order: base survivors matching the
    /// query in ascending id, then delta adds matching it in ascending id.
    /// Alg. 1 gathers a cell through this once per query and scans the
    /// result per segment with [`mass_within`].
    ///
    /// Base POIs come from the cell-major slot columns, where ascending
    /// slot is ascending id: one matching keyword run is already the answer;
    /// several are unioned by setting, then scanning, one bit per slot of
    /// the cell's contiguous slot range.
    pub fn for_each_relevant_poi<F: FnMut(f64, f64, f64)>(
        &self,
        pois: PoiView<'_>,
        id: CellId,
        query: &KeywordSet,
        mut f: F,
    ) {
        let base = self.base;
        let slots = base.cell_pois.row_range(id.index());
        let runs = base.cell_kws.row_range(id.index());
        let cell_kws = &base.cell_kws.items()[runs.clone()];
        // The slots of the cell's POIs carrying `k`, ascending.
        let run_slots = |k: &KeywordId| {
            let run = runs.start + cell_kws.binary_search(k).ok()?;
            Some(base.run_slots.row(run))
        };
        let mut emit = |slot: usize| {
            let deleted = self
                .delta
                .is_some_and(|d| d.poi_deleted(base.cell_pois.items()[slot]));
            if !deleted {
                let [x, y, weight] = base.slot_xyw[slot];
                f(x, y, weight);
            }
        };
        let mut matching = query.ids().iter().filter_map(run_slots);
        match (matching.next(), matching.next()) {
            (None, _) => {}
            (Some(only), None) => only.iter().for_each(|&slot| emit(slot as usize)),
            (Some(_), Some(_)) => {
                let mut bits = [0u64; UNION_WINDOW / 64];
                for lo in slots.clone().step_by(UNION_WINDOW) {
                    let hi = slots.end.min(lo + UNION_WINDOW);
                    for run in query.ids().iter().filter_map(run_slots) {
                        let from = run.partition_point(|&slot| (slot as usize) < lo);
                        for &slot in run[from..].iter().take_while(|&&s| (s as usize) < hi) {
                            let bit = slot as usize - lo;
                            bits[bit / 64] |= 1 << (bit % 64);
                        }
                    }
                    let words = &mut bits[..(hi - lo).div_ceil(64)];
                    for (at, word) in words.iter_mut().enumerate() {
                        let mut left = std::mem::take(word);
                        while left != 0 {
                            emit(lo + 64 * at + left.trailing_zeros() as usize);
                            left &= left - 1;
                        }
                    }
                }
            }
        }
        if let Some(d) = self.delta {
            for &pid in d.cell_added_pois(id) {
                let poi = pois.get(pid);
                if poi.keywords.intersects(query) {
                    f(poi.pos.x, poi.pos.y, poi.weight);
                }
            }
        }
    }

    /// Exact weighted mass of a whole segment under this view
    /// (Definition 1), with the ε-dilation computed on the fly.
    pub fn segment_mass_lazy(
        &self,
        pois: PoiView<'_>,
        network: &RoadNetwork,
        seg: SegmentId,
        query: &KeywordSet,
        eps: f64,
    ) -> f64 {
        let geom = network.segment(seg).geom;
        self.occupied_cells_near_segment(&geom, eps)
            .into_iter()
            .map(|c| self.cell_mass_for_segment(pois, c, &geom, query, eps))
            .sum()
    }
}
