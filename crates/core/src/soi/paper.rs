//! Alg. 1 as the paper states it, a reference entry beside
//! [`run_baseline`](crate::soi::run_baseline) that the tests hold the
//! served [`run_soi`](crate::soi::run_soi) against: the practical cycle
//! (`PAPER_CYCLE`) over SL1 (the reached cells by `relcount`
//! descending), SL2 (every segment by the O(1) bound on `|Cε(ℓ)|`
//! descending) and SL3 (every segment by length ascending), the paper's
//! `UB = top(SL1)·top(SL2) / (2ε·top(SL3) + πε²)` over the heads that are
//! not final, and no segment pruned by a bound.
//!
//! A *segment access* (SL2, SL3) visits every cell of the segment's
//! `Cε(ℓ)` not visited yet, making it final. A *cell access* (SL1) runs
//! `UpdateInterest` for each segment the cell can still change, leaving
//! them *partial* until refinement. `Lε(c)` is not stored: each query
//! rasterises the network over the index's grid (the paper's static
//! cell-to-segment map, `Raster`), and a popped cell walks the raster rows
//! of its Chebyshev ring, a superset of `Lε(c)` (a segment whose `Cε(ℓ)`
//! lacks the cell counts a duplicate visit), dropping final segments by one
//! bit each. A rasterised segment keeps one mass per cell of its `Cε(ℓ)`,
//! `+0.0` until visited, and its mass is their sum in ascending cell order:
//! BL's to the bit once final, and a lower bound before, as floating-point
//! addition is monotone.

use crate::budget::QueryBudget;
use crate::soi::algorithm::{access_loop, evaluate, Gathered, Inputs, Shared, Tables};
use crate::soi::explain::ExplainRow;
use crate::soi::interest::segment_interest;
use crate::soi::query::{SoiOutcome, SoiQuery};
use crate::soi::ranked::{Ranked, RankedList};
use crate::soi::stats::QueryStats;
use soi_common::{CellId, Result, SegmentId};
use soi_data::PoiView;
use soi_geo::{Grid, LineSeg};
use soi_index::IndexView;
use soi_network::RoadNetwork;
use std::ops::ControlFlow;

/// Which source list an access targets.
#[derive(Clone, Copy)]
enum Source {
    /// SL1: cells sorted decreasingly on relevant-POI weight.
    Cells,
    /// SL2: segments sorted decreasingly on the number of ε-neighbouring
    /// cells.
    SegmentsByCells,
    /// SL3: segments sorted increasingly on length.
    SegmentsByLen,
}

/// The paper's practical cycle ("we alternate between SL1 and SL3 … We
/// only access segments via the second source SL2 in the case that a few
/// segments with a large number of neighboring cells exist"): SL2 is drawn
/// once per four accesses. While `UB > LBk` no list is exhausted.
const PAPER_CYCLE: [Source; 4] = [
    Source::Cells,
    Source::SegmentsByLen,
    Source::Cells,
    Source::SegmentsByCells,
];

/// The paper's static raster cell-to-segment map (Sec. 3.2.1): the segments
/// passing through each grid cell, occupied or not, id ascending. Street
/// geometry is static, so a delta plays no part in it; it is rebuilt per
/// query all the same, into buffers kept at their high-water mark, so one
/// scratch may serve different networks and grids in turn.
#[derive(Default)]
struct Raster {
    /// One packed (cell ‖ segment) key per cell a segment passes through,
    /// segment-ascending.
    keys: Vec<u64>,
    /// Cell `c`'s row is `segments[starts[c]..starts[c + 1]]`.
    starts: Vec<u32>,
    segments: Vec<SegmentId>,
}

impl Raster {
    /// Rasterises `network`'s segments over `grid`: packed keys, a stable
    /// counting sort by cell, then the row starts.
    fn fill(&mut self, grid: &Grid, network: &RoadNetwork) {
        let Self {
            keys,
            starts,
            segments,
        } = self;
        keys.clear();
        for seg in network.segments() {
            grid.for_each_cell_near_segment(&seg.geom, 0.0, |coord| {
                keys.push(u64::from(grid.cell_id(coord).0) << 32 | u64::from(seg.id.0));
            });
        }
        // `starts[c + 2]` counts cell `c`; summed, `starts[c + 1]` is cell
        // `c`'s start, the cursor its keys advance to cell `c + 1`'s start.
        starts.clear();
        starts.resize(grid.num_cells() + 2, 0);
        for &key in keys.iter() {
            starts[(key >> 32) as usize + 2] += 1;
        }
        for at in 2..starts.len() {
            starts[at] += starts[at - 1];
        }
        segments.clear();
        segments.resize(keys.len(), SegmentId(0));
        for &key in keys.iter() {
            let cursor = &mut starts[(key >> 32) as usize + 1];
            segments[*cursor as usize] = SegmentId(key as u32);
            *cursor += 1;
        }
        starts.pop();
    }

    /// The segments passing through `cell`, ascending.
    fn row(&self, cell: CellId) -> &[SegmentId] {
        let at = cell.index();
        &self.segments[self.starts[at] as usize..self.starts[at + 1] as usize]
    }
}

/// Chebyshev radius, in cells, of the ring around a cell that holds every
/// cell a segment within `eps` of it passes through: a point within `eps`
/// of the cell lies at most `eps` beyond its boundary, i.e. within
/// `⌊(eps + h) / h⌋` cells (half-open cells). Clamped to the grid's larger
/// side, which already reaches every cell — `eps` is a caller's number and
/// may exceed any grid.
fn ring_radius(grid: &Grid, eps: f64) -> u32 {
    let h = grid.cell_size();
    // The cast saturates (an `eps` near `f64::MAX` divides to `inf`).
    (((eps + h) / h).floor() as u32).min(grid.nx().max(grid.ny()))
}

/// O(1) upper bound on `|Cε(ℓ)|`: the number of grid cells overlapping the
/// ε-dilated bounding box of the segment — SL2's order, without
/// rasterising every segment at ε.
fn cell_count_bound(grid: &Grid, geom: &LineSeg, eps: f64) -> usize {
    grid.count_cells_in_rect(&geom.bounding_rect().expand(eps))
}

/// One bit per segment, dense over the ids.
#[derive(Default)]
struct SegmentBits(Vec<u64>);

impl SegmentBits {
    /// Fits the set to `num_segments`; a new bit is clear.
    fn fit(&mut self, num_segments: usize) {
        self.0.resize(num_segments.div_ceil(64), 0);
    }

    fn get(&self, seg: SegmentId) -> bool {
        self.0[seg.index() / 64] & (1 << (seg.index() % 64)) != 0
    }

    fn set(&mut self, seg: SegmentId) {
        self.0[seg.index() / 64] |= 1 << (seg.index() % 64);
    }

    fn clear(&mut self, seg: SegmentId) {
        self.0[seg.index() / 64] &= !(1 << (seg.index() % 64));
    }
}

/// Where a segment's `Cε(ℓ)` list, its per-cell masses and its visited
/// bitset sit in [`Arenas`].
#[derive(Clone, Copy)]
struct Span {
    /// Into `cells` and `masses` alike.
    cells_at: usize,
    bits_at: usize,
    len: usize,
}

/// Backing store of every seen segment's cell list, per-cell masses and
/// visited bitset: three vectors grown by appending, emptied per query,
/// instead of heap allocations per rasterised segment.
#[derive(Default)]
struct Arenas {
    cells: Vec<CellId>,
    masses: Vec<f64>,
    bits: Vec<u64>,
}

/// A segment's slices of the [`Arenas`].
struct Cells<'a> {
    /// `Cε(ℓ)`, ascending.
    ids: &'a [CellId],
    /// Per cell: the mass it contributed, `+0.0` until visited.
    masses: &'a mut [f64],
    /// One visited bit per cell.
    bits: &'a mut [u64],
}

impl Cells<'_> {
    fn is_visited(&self, idx: usize) -> bool {
        self.bits[idx / 64] & (1u64 << (idx % 64)) != 0
    }

    fn set_visited(&mut self, idx: usize) {
        self.bits[idx / 64] |= 1u64 << (idx % 64);
    }

    /// The segment's mass so far: the per-cell masses summed in ascending
    /// cell order from `+0.0` — for a non-empty list exactly BL's sum once
    /// every cell is visited.
    fn mass(&self) -> f64 {
        self.masses.iter().fold(0.0, |sum, &m| sum + m)
    }
}

impl Arenas {
    /// Appends `cells` (ascending) with zero masses and an all-clear
    /// visited bitset.
    fn push(&mut self, cells: &[CellId]) -> Span {
        let span = Span {
            cells_at: self.cells.len(),
            bits_at: self.bits.len(),
            len: cells.len(),
        };
        self.cells.extend_from_slice(cells);
        self.masses.resize(span.cells_at + cells.len(), 0.0);
        self.bits.resize(span.bits_at + cells.len().div_ceil(64), 0);
        span
    }

    /// The slices of `span`.
    fn of(&mut self, span: Span) -> Cells<'_> {
        Cells {
            ids: &self.cells[span.cells_at..][..span.len],
            masses: &mut self.masses[span.cells_at..][..span.len],
            bits: &mut self.bits[span.bits_at..][..span.len.div_ceil(64)],
        }
    }

    fn clear(&mut self) {
        self.cells.clear();
        self.masses.clear();
        self.bits.clear();
    }
}

/// Per-segment state during filtering: the *partial* / *final* states of
/// Section 3.2.2.
struct SegState {
    seg: SegmentId,
    /// [`Cells::mass`] as of the last change: a lower bound of the true
    /// mass, and BL's value once final.
    mass: f64,
    /// `Cε(ℓ)`: the occupied cells within ε (ascending), rasterised when
    /// the segment is first seen (the query-time augmentation of
    /// Sec. 3.2.1), with one mass and one visited bit per cell.
    span: Span,
    /// Number of set bits.
    visited_count: usize,
}

/// The per-segment tables of a query, dense over the ids and emptied by
/// walking what the previous query touched.
#[derive(Default)]
struct SeenTables {
    /// Per segment: 1 + its index in `states`, 0 while unseen.
    slot: Vec<u32>,
    /// Seen segments, in first-seen order.
    states: Vec<SegState>,
    /// Per segment: set once it is *final* — every cell of its `Cε(ℓ)`
    /// visited, so no cell can change it. Only seen segments are final.
    dead: SegmentBits,
    /// The live segments of the cell access under way, ascending and each
    /// once: a segment crosses several cells of a ring.
    ring: Vec<SegmentId>,
    arenas: Arenas,
    /// Rasterisation buffer for one segment's `Cε(ℓ)`.
    near_cells: Vec<CellId>,
}

impl SeenTables {
    /// Empties the tables and fits them to `num_segments`.
    fn reset(&mut self, num_segments: usize) {
        for state in self.states.drain(..) {
            self.slot[state.seg.index()] = 0;
            self.dead.clear(state.seg);
        }
        self.ring.clear();
        self.slot.resize(num_segments, 0);
        self.dead.fit(num_segments);
        self.arenas.clear();
    }
}

/// Reusable working memory for [`run_soi_paper`]: the tables it fills like
/// [`SoiScratch`](crate::soi::SoiScratch) does, plus the raster it rebuilds
/// per query (4 bytes per grid cell and 12 per (segment, cell it passes
/// through) pair), SL1, SL2 and the per-segment tables.
#[derive(Default)]
pub struct PaperScratch {
    tables: Tables,
    raster: Raster,
    sl1: RankedList<CellId>,
    sl2: RankedList<SegmentId>,
    seen: SeenTables,
}

/// Mutable algorithm state shared by the access handlers.
struct Filtering<'s> {
    raster: &'s Raster,
    seen: &'s mut SeenTables,
    shared: &'s mut Shared,
}

impl Filtering<'_> {
    /// Index of `seg`'s state, created on first sight with its `Cε(ℓ)`
    /// rasterised; final at once when that is empty, as nothing is left to
    /// visit.
    fn see(&mut self, inputs: &Inputs<'_>, seg: SegmentId, stats: &mut QueryStats) -> usize {
        let seen = &mut *self.seen;
        if let Some(at) = (seen.slot[seg.index()] as usize).checked_sub(1) {
            return at;
        }
        let geom = &inputs.network.segment(seg).geom;
        inputs
            .index
            .occupied_cells_near_segment_into(geom, inputs.query.eps, &mut seen.near_cells);
        let span = seen.arenas.push(&seen.near_cells);
        stats.segments_seen += 1;
        seen.states.push(SegState {
            seg,
            mass: 0.0,
            span,
            visited_count: 0,
        });
        seen.slot[seg.index()] = seen.states.len() as u32;
        if span.len == 0 {
            seen.dead.set(seg);
        }
        seen.states.len() - 1
    }

    /// A cell access (Alg. 1 lines 9–13): runs `UpdateInterest` for every
    /// segment the popped `cell` can still change. The raster rows of the
    /// cell's ring list a superset of `Lε(c)`, a segment once per ring cell
    /// it crosses; a dead segment is dropped while the rows are merged, the
    /// rest go through [`update_interest`](Self::update_interest) in
    /// ascending id order — the order `states` is filled in, whatever the
    /// rows' order.
    fn access_cell(&mut self, inputs: &Inputs<'_>, cell: CellId, stats: &mut QueryStats) {
        let SeenTables { dead, ring, .. } = &mut *self.seen;
        ring.clear();
        let grid = inputs.index.grid();
        let radius = ring_radius(grid, inputs.query.eps);
        grid.for_each_in_neighborhood(grid.coord_of(cell), radius, |near| {
            let row = self.raster.row(grid.cell_id(near));
            ring.extend(row.iter().filter(|&&seg| !dead.get(seg)));
        });
        ring.sort_unstable();
        ring.dedup();
        for at in 0..self.seen.ring.len() {
            let seg = self.seen.ring[at];
            self.update_interest(inputs, seg, cell, stats);
        }
    }

    /// Effective `UpdateInterest` (procedure in Alg. 1): accounts `cell`
    /// for the live segment `seg` once, keeping the street-level lower bound
    /// current.
    fn update_interest(
        &mut self,
        inputs: &Inputs<'_>,
        seg: SegmentId,
        cell: CellId,
        stats: &mut QueryStats,
    ) {
        debug_assert!(!self.seen.dead.get(seg), "a dead segment reached a cell");
        let at = self.see(inputs, seg, stats);
        let state = &mut self.seen.states[at];
        let mut cells = self.seen.arenas.of(state.span);
        // Not one of the segment's ε-cells, or visited already.
        let idx = cells.ids.binary_search(&cell).ok();
        let Some(idx) = idx.filter(|&idx| !cells.is_visited(idx)) else {
            stats.duplicate_visits += 1;
            return;
        };
        cells.set_visited(idx);
        state.visited_count += 1;
        let s = inputs.network.segment(seg);
        let gained = inputs.cell_mass(&mut self.shared.gathered, cell, &s.geom);
        stats.cell_visits += 1;
        if state.visited_count == state.span.len {
            self.seen.dead.set(seg);
            stats.segments_finalized_filtering += 1;
        }
        if gained > 0.0 {
            cells.masses[idx] = gained;
            state.mass = cells.mass();
            let int_lower = segment_interest(state.mass, s.len(), inputs.query.eps);
            self.shared.streets.raise(s.street, int_lower);
        }
    }

    /// A segment access (SL2/SL3): makes the live `seg` final by visiting
    /// every cell of its `Cε(ℓ)` a cell access has not.
    fn finalize_segment(&mut self, inputs: &Inputs<'_>, seg: SegmentId, stats: &mut QueryStats) {
        debug_assert!(!self.seen.dead.get(seg), "a final segment was accessed");
        let s = inputs.network.segment(seg);
        let at = self.see(inputs, seg, stats);
        let state = &mut self.seen.states[at];
        let mut cells = self.seen.arenas.of(state.span);
        // The street bound is raised once with the final mass, which
        // dominates every per-cell intermediate raise.
        stats.duplicate_visits += state.visited_count;
        state.visited_count = state.span.len;
        let gathered = &mut self.shared.gathered;
        visit_unvisited(inputs, gathered, &mut cells, &s.geom, stats);
        state.mass = cells.mass();
        self.seen.dead.set(seg);
        stats.segments_finalized_filtering += 1;
        if state.mass > 0.0 {
            let int = segment_interest(state.mass, s.len(), inputs.query.eps);
            self.shared.streets.raise(s.street, int);
        }
    }
}

/// Visits every unvisited cell of `cells` for the segment `geom`: records
/// its mass and sets its bit. The cell at position `idx` is bit `idx` of
/// the visited set, so no membership search is needed.
fn visit_unvisited(
    inputs: &Inputs<'_>,
    gathered: &mut Gathered,
    cells: &mut Cells<'_>,
    geom: &LineSeg,
    stats: &mut QueryStats,
) {
    for idx in 0..cells.ids.len() {
        if !cells.is_visited(idx) {
            cells.set_visited(idx);
            cells.masses[idx] = inputs.cell_mass(gathered, cells.ids[idx], geom);
            stats.cell_visits += 1;
        }
    }
}

/// Evaluates a k-SOI query with Alg. 1 as the paper states it: builds SL1
/// and SL2 over the filled `relcount`, runs the cycle until `UB ≤ LBk`,
/// refines, and ranks the seen segments as
/// [`run_soi_full`](crate::soi::run_soi_full) does. Answers equal
/// [`run_soi`]'s and [`run_baseline`](crate::soi::run_baseline)'s to the
/// bit (no ties at the k-th place); the work counters are the paper's. No
/// server, command or benchmark calls it, and, like `run_baseline`, it
/// takes no explain collector or budget and feeds no process metrics.
///
/// # Errors
/// Same contract as [`run_soi`].
///
/// [`run_soi`]: crate::soi::run_soi
pub fn run_soi_paper<'a>(
    network: &RoadNetwork,
    pois: impl Into<PoiView<'a>>,
    index: impl Into<IndexView<'a>>,
    query: &SoiQuery,
    scratch: &mut PaperScratch,
) -> Result<SoiOutcome> {
    let PaperScratch {
        tables,
        raster,
        sl1,
        sl2,
        seen,
    } = scratch;
    let (pois, index) = (pois.into(), index.into());
    let filter = |inputs: &Inputs<'_>, shared: &mut Shared, stats: &mut QueryStats, sources| {
        let (eps, grid) = (query.eps, index.grid());
        raster.fill(grid, network);
        // --- SL1: cells by relevant-POI weight, descending (Alg. 1 lines 1–3).
        sl1.refill(
            inputs
                .reached
                .iter()
                .map(|&cell| Ranked::new(inputs.relcount[cell.index()], cell)),
        );
        // --- SL2 (lines 6–7): every segment, by the O(1) bound on |Cε(ℓ)|.
        sl2.refill(
            network
                .segments()
                .iter()
                .map(|s| Ranked::new(cell_count_bound(grid, &s.geom, eps) as f64, s.id)),
        );
        // --- SL3: segments by length ascending (precomputed with the network).
        let sl3: &[SegmentId] = network.segments_by_len();
        let mut cursor3 = 0usize;
        drop(sources);

        seen.reset(network.num_segments());
        let mut fil = Filtering {
            raster,
            seen,
            shared,
        };
        let mut cycle_pos = 0usize;
        let stopped = access_loop(stats, None, &QueryBudget::unlimited(), |stats| {
            // The heads that are not final: a final segment can change nothing.
            while sl2.peek().is_some_and(|e| fil.seen.dead.get(e.id())) {
                sl2.pop();
            }
            while sl3.get(cursor3).is_some_and(|&s| fil.seen.dead.get(s)) {
                cursor3 += 1;
            }
            let (head1, head2, head3) = (sl1.peek(), sl2.peek(), sl3.get(cursor3));
            let top1 = head1.map_or(0.0, Ranked::score);
            let top2 = head2.map_or(0.0, Ranked::score);
            // Unseen upper bound (line 22), 0 once a list is exhausted: with SL1
            // exhausted every cell with relevant POIs was popped, so every
            // segment with positive mass is seen; with SL2 or SL3 exhausted no
            // segment is left unseen.
            let ub = match head3 {
                Some(&s) if top1 > 0.0 && top2 > 0.0 => {
                    segment_interest(top1 * top2, network.segment(s).len(), eps)
                }
                _ => 0.0,
            };
            let row = ExplainRow {
                ub,
                lbk: fil.shared.streets.lbk(),
                ..ExplainRow::default()
            };
            // `UB > LBk ≥ 0` needs all three heads.
            let (Some(cell), Some(by_cells), Some(&by_len)) = (head1, head2, head3) else {
                return ControlFlow::Break(row);
            };
            if ub <= row.lbk {
                return ControlFlow::Break(row);
            }
            let source = PAPER_CYCLE[cycle_pos % PAPER_CYCLE.len()];
            cycle_pos += 1;
            match source {
                Source::Cells => {
                    sl1.pop();
                    stats.cells_popped += 1;
                    fil.access_cell(inputs, cell.id(), stats);
                }
                Source::SegmentsByCells => {
                    sl2.pop();
                    stats.segments_popped += 1;
                    fil.finalize_segment(inputs, by_cells.id(), stats);
                }
                Source::SegmentsByLen => {
                    cursor3 += 1;
                    stats.segments_popped += 1;
                    fil.finalize_segment(inputs, by_len, stats);
                }
            }
            ControlFlow::Continue(row)
        });

        // --- Refinement (lines 25–28): finalise every seen segment still
        // partial.
        let Filtering { seen, shared, .. } = fil;
        for state in seen.states.iter_mut() {
            if seen.dead.get(state.seg) {
                continue;
            }
            let s = network.segment(state.seg);
            let mut cells = seen.arenas.of(state.span);
            visit_unvisited(inputs, &mut shared.gathered, &mut cells, &s.geom, stats);
            state.mass = cells.mass();
            seen.dead.set(state.seg);
            stats.segments_finalized_refinement += 1;
        }
        shared
            .masses
            .extend(seen.states.iter().map(|state| (state.seg, state.mass)));
        stopped
    };
    evaluate(tables, network, pois, index, query, filter)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use soi_common::KeywordId;
    use soi_data::PoiCollection;
    use soi_geo::Point;
    use soi_index::{EpsilonMaps, PoiIndex};
    use soi_text::KeywordSet;

    /// Three streets across an 8 × 8 extent: a horizontal, a vertical and
    /// a diagonal one, two segments each but the diagonal.
    fn small_network() -> RoadNetwork {
        let mut b = RoadNetwork::builder();
        let h = [(0.0, 2.0), (4.0, 2.0), (8.0, 2.0)].map(|(x, y)| Point::new(x, y));
        let v = [(4.0, 0.0), (4.0, 4.0), (4.0, 8.0)].map(|(x, y)| Point::new(x, y));
        b.add_street_from_points("H", &h);
        b.add_street_from_points("V", &v);
        b.add_street_from_points("D", &[Point::new(0.0, 0.0), Point::new(7.5, 7.5)]);
        b.build().unwrap()
    }

    fn pois_at(points: &[(f64, f64)]) -> PoiCollection {
        let mut pois = PoiCollection::new();
        for &(x, y) in points {
            pois.add(Point::new(x, y), KeywordSet::from_ids([KeywordId(0)]));
        }
        pois
    }

    #[test]
    fn raster_contains_crossed_cells() {
        let network = small_network();
        let index = PoiIndex::build(&network, &pois_at(&[(1.0, 2.5), (7.0, 7.0)]), 0.7);
        let grid = index.grid();
        let mut raster = Raster::default();
        raster.fill(grid, &network);
        for seg in network.segments() {
            // The midpoint's cell must list the segment.
            let mid = grid
                .cell_containing(seg.geom.a.lerp(seg.geom.b, 0.5))
                .unwrap();
            let row = raster.row(grid.cell_id(mid));
            assert!(row.contains(&seg.id), "segment {} missing", seg.id);
        }
        // Every row ascends, and the rows hold exactly the crossed cells.
        let mut pairs = 0;
        for cell in (0..grid.num_cells()).map(CellId::from_index) {
            let row = raster.row(cell);
            assert!(row.windows(2).all(|w| w[0] < w[1]), "cell {cell:?}");
            pairs += row.len();
        }
        let crossed: usize = network
            .segments()
            .iter()
            .map(|s| grid.cells_near_segment(&s.geom, 0.0).len())
            .sum();
        assert_eq!(pairs, crossed);
    }

    proptest! {
        /// Against the eager reference maps: the raster rows of a cell's
        /// ring hold every segment of its `Lε(c)`, and SL2's O(1) bound is
        /// at least `|Cε(ℓ)|`.
        #[test]
        fn ring_rows_cover_l_eps_and_the_cell_bound_covers_c_eps(
            points in proptest::collection::vec((0.0f64..8.0, 0.0f64..8.0), 0..60),
            eps in 0.05f64..1.5,
            cell in 0.3f64..1.2,
        ) {
            let network = small_network();
            let index = PoiIndex::build(&network, &pois_at(&points), cell);
            let maps = EpsilonMaps::build(&network, &index, eps);
            let grid = index.grid();
            let mut raster = Raster::default();
            raster.fill(grid, &network);
            for seg in network.segments() {
                let bound = cell_count_bound(grid, &seg.geom, eps);
                prop_assert!(bound >= maps.cells_of_segment(seg.id).len());
            }
            for (cell_id, _) in index.occupied_cells() {
                let mut ring = Vec::new();
                let radius = ring_radius(grid, eps);
                grid.for_each_in_neighborhood(grid.coord_of(cell_id), radius, |near| {
                    ring.extend_from_slice(raster.row(grid.cell_id(near)));
                });
                for s in maps.segments_of_cell(cell_id) {
                    prop_assert!(ring.contains(s), "cell {:?} misses {}", cell_id, s);
                }
            }
        }
    }
}
