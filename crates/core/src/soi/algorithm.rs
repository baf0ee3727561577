//! The SOI algorithm (paper Algorithm 1).
//!
//! Top-k style evaluation of the k-SOI query over the spatio-textual POI
//! index. The algorithm draws from three ranked source lists —
//!
//! - **SL1**: cells sorted decreasingly on (an upper bound of) the number
//!   of query-relevant POIs they contain,
//! - **SL2**: segments sorted decreasingly on `|Cε(ℓ)|`, the number of
//!   occupied cells within ε,
//! - **SL3**: segments sorted increasingly on length,
//!
//! — maintaining for every *seen* segment a partial mass `mass⁻(ℓ)` (a
//! lower bound of its true mass) and tracking
//!
//! - `LBk`: the k-th best street-level interest lower bound among seen
//!   segments (Lemma 1, first case), and
//! - `UB`: an upper bound on the interest of any unseen segment (Lemma 1,
//!   second case).
//!
//! Accesses stop once `UB ≤ LBk`; the refinement phase then finalises all
//! seen segments and extracts the answer.
//!
//! ### Upper bounds
//! Popping a cell from SL1 touches (marks *seen*) every segment within ε of
//! it, so all ε-cells of an unseen segment are still unpopped, each holding
//! at most `top(SL1)` relevant weight. The paper's bound combines the list
//! heads: `UB_paper = top(SL1)·top(SL2) / (2ε·top(SL3) + πε²)`, pairing the
//! largest surviving cell count with the smallest surviving length — sound
//! but loose, since no single segment attains both extremes. We additionally
//! maintain the *coupled* bound
//! `UB_f = top(SL1) · max_unseen |Cε(ℓ)| / (2ε·len(ℓ) + πε²)`,
//! read off a fourth ranked list sorted by that per-segment factor, and use
//! `UB = min(UB_paper, UB_f)`. Both are upper bounds for every unseen
//! segment, so the combination preserves correctness while terminating much
//! earlier.
//!
//! ### Source lists without a sort
//! The loop reads only a short prefix of each list, so a query never sorts
//! one by comparison. **SL1** is heapified in O(n) and popped in exactly
//! the order a sort would give (see the `ranked` module). **SL2** and
//! **SLf** rank segments by a small integer — the O(1) bound on `|Cε(ℓ)|`
//! — so one counting pass lays out a bucket per distinct count; scattering
//! the segments in id order *is* SL2, and scattering them in SL3's length
//! order leaves each bucket length-ascending (see the `counted` module).
//! For a fixed count the factor `count / (2ε·len + πε²)` is non-increasing
//! in `len` — also as computed, each operation being monotone under IEEE
//! rounding — so a bucket's first unseen segment carries the bucket's
//! largest factor, and `top(SLf)` is the largest of the buckets' heads.
//! **SL3** is the one list that does not depend on the query and stays
//! precomputed.
//!
//! ### Cell accesses
//! `Lε(c)` is not stored: a popped cell walks the static raster rows of its
//! Chebyshev ring, which list a superset of it (a segment that does not
//! list the cell in its own `Cε(ℓ)` ignores the touch). Segments that are
//! *final* — dismissed, or every cell visited — are dropped while the rows
//! are merged, by one bit per segment, so only segments the cell can still
//! change reach `UpdateInterest`.

use crate::budget::{QueryBudget, BUDGET_CHECK_EVERY};
use crate::soi::counted::CountedLists;
use crate::soi::explain::{ExplainRow, SoiExplain};
use crate::soi::interest::segment_interest;
use crate::soi::lbk::KBest;
use crate::soi::query::{SoiConfig, SoiOutcome, SoiQuery, StreetResult};
use crate::soi::ranked::Ranked;
use crate::soi::stats::{phases, QueryStats};
use crate::soi::strategy::Source;
use soi_common::{top_k_by_score, CellId, Result, ScoredItem, SegmentId, StreetId};
use soi_data::PoiView;
use soi_geo::LineSeg;
use soi_index::{mass_within, IndexView};
use soi_network::RoadNetwork;
use std::collections::BinaryHeap;

/// Source accesses between sampled UB/LBk trace-counter emissions: dense
/// enough to show the convergence curve, sparse enough to stay invisible
/// in the timings (a power of two so the modulo folds to a mask).
const UB_SAMPLE_EVERY: usize = 64;

/// `relcount` entry of a cell no query keyword reaches. Negative, so a
/// cell whose relevant weights sum to exactly 0.0 is still told apart
/// (it is an SL1 entry); reads clamp it to 0.
const UNREACHED: f64 = -1.0;

/// Where a segment's `Cε(ℓ)` list and its visited bitset sit in [`Arenas`].
#[derive(Clone, Copy, Default)]
struct Span {
    cells_at: usize,
    bits_at: usize,
    len: usize,
}

/// Backing store of every seen segment's cell list and visited bitset: two
/// vectors grown by appending, emptied per query, instead of two heap
/// allocations per rasterised segment.
#[derive(Default)]
struct Arenas {
    cells: Vec<CellId>,
    bits: Vec<u64>,
}

impl Arenas {
    /// Appends `cells` (ascending) with an all-clear visited bitset.
    fn push(&mut self, cells: &[CellId]) -> Span {
        let span = Span {
            cells_at: self.cells.len(),
            bits_at: self.bits.len(),
            len: cells.len(),
        };
        self.cells.extend_from_slice(cells);
        self.bits.resize(span.bits_at + cells.len().div_ceil(64), 0);
        span
    }

    /// The cell list and visited bitset of `span`.
    fn of(&mut self, span: Span) -> (&[CellId], &mut [u64]) {
        (
            &self.cells[span.cells_at..][..span.len],
            &mut self.bits[span.bits_at..][..span.len.div_ceil(64)],
        )
    }
}

/// The cells of a segment's list whose visited bit is clear, ascending.
fn unvisited<'a>(cells: &'a [CellId], bits: &'a [u64]) -> impl Iterator<Item = CellId> + 'a {
    cells
        .iter()
        .enumerate()
        .filter_map(|(i, &c)| (bits[i / 64] & (1u64 << (i % 64)) == 0).then_some(c))
}

/// Per-segment state during filtering: the *partial* / *final* states of
/// Section 3.2.2.
struct SegState {
    seg: SegmentId,
    /// Accumulated (lower-bound) mass from visited cells.
    mass: f64,
    /// `Cε(ℓ)`: the occupied cells within ε (ascending), rasterised when
    /// the segment is first seen (the query-time augmentation of
    /// Sec. 3.2.1), with one visited bit per cell.
    span: Span,
    /// Number of set bits.
    visited_count: usize,
}

impl SegState {
    /// Marks `cell` visited; returns false if it was already visited or is
    /// not one of the segment's ε-cells.
    fn visit(&mut self, cell: CellId, cells: &[CellId], bits: &mut [u64]) -> bool {
        let Ok(idx) = cells.binary_search(&cell) else {
            return false;
        };
        let (word, bit) = (idx / 64, 1u64 << (idx % 64));
        if bits[word] & bit != 0 {
            return false;
        }
        bits[word] |= bit;
        self.visited_count += 1;
        true
    }

    /// Upper bound on the segment's true mass: accumulated mass plus the
    /// full relevant weight of every unvisited cell.
    fn upper_mass(&self, cells: &[CellId], bits: &[u64], inputs: &Inputs<'_>) -> f64 {
        self.mass
            + unvisited(cells, bits)
                .map(|c| inputs.relcount[c.index()].max(0.0))
                .sum::<f64>()
    }
}

/// What the access handlers read and never change.
struct Inputs<'a> {
    network: &'a RoadNetwork,
    pois: PoiView<'a>,
    index: IndexView<'a>,
    query: &'a SoiQuery,
    /// relcount(c) per grid cell: an upper bound on the relevant weight the
    /// cell can contribute to any segment's mass ([`UNREACHED`] where no
    /// query keyword occurs).
    relcount: &'a [f64],
    relprefix: RelPrefix<'a>,
}

impl Inputs<'_> {
    /// Exact mass `cell` contributes to the segment with geometry `geom`
    /// (Procedure UpdateInterest): which POIs of the cell are relevant, and
    /// where they are, is gathered on the query's first visit to the cell;
    /// every visit then distance-tests the gathered run against its segment.
    fn cell_mass(&self, gathered: &mut Gathered, cell: CellId, geom: &LineSeg) -> f64 {
        let q = self.query;
        let Gathered {
            range,
            cells,
            x,
            y,
            w,
        } = gathered;
        let range = &mut range[cell.index()];
        if *range == UNGATHERED {
            let start = x.len() as u32;
            self.index
                .for_each_relevant_poi(self.pois, cell, &q.keywords, |px, py, weight| {
                    x.push(px);
                    y.push(py);
                    w.push(weight);
                });
            *range = (start, x.len() as u32);
            cells.push(cell);
        }
        let at = range.0 as usize..range.1 as usize;
        mass_within(geom, q.eps, &x[at.clone()], &y[at.clone()], &w[at])
    }
}

/// `Gathered::range` entry of a cell the query has not visited yet (no real
/// range ends before it starts).
const UNGATHERED: (u32, u32) = (u32::MAX, 0);

/// The relevant POIs of every cell the query has visited, as coordinate and
/// weight columns: a cell is gathered once, then scanned once per segment
/// that visits it. Dense over the grid cells and emptied by walking what
/// the previous query gathered.
#[derive(Default)]
struct Gathered {
    /// Per grid cell: its span of the columns, [`UNGATHERED`] until visited.
    range: Vec<(u32, u32)>,
    /// The cells with a range, in first-visit order.
    cells: Vec<CellId>,
    x: Vec<f64>,
    y: Vec<f64>,
    w: Vec<f64>,
}

impl Gathered {
    /// Empties the columns and fits the table to a grid of `num_cells`
    /// holding `num_pois` POIs: room for every one is reserved here, so no
    /// visit reallocates (reserved is address space; a page is touched only
    /// once a query gathers that far).
    fn reset(&mut self, num_cells: usize, num_pois: usize) {
        for cell in self.cells.drain(..) {
            self.range[cell.index()] = UNGATHERED;
        }
        self.range.resize(num_cells, UNGATHERED);
        self.cells.reserve(num_cells);
        for column in [&mut self.x, &mut self.y, &mut self.w] {
            column.clear();
            column.reserve(num_pois);
        }
    }
}

/// One bit per segment, dense over the ids.
#[derive(Default)]
struct SegmentBits(Vec<u64>);

impl SegmentBits {
    /// Fits the set to `num_segments`; a new bit is clear.
    fn fit(&mut self, num_segments: usize) {
        self.0.resize(num_segments.div_ceil(64), 0);
    }

    #[inline]
    fn get(&self, seg: SegmentId) -> bool {
        self.0[seg.index() / 64] & (1 << (seg.index() % 64)) != 0
    }

    #[inline]
    fn set(&mut self, seg: SegmentId) {
        self.0[seg.index() / 64] |= 1 << (seg.index() % 64);
    }

    #[inline]
    fn clear(&mut self, seg: SegmentId) {
        self.0[seg.index() / 64] &= !(1 << (seg.index() % 64));
    }
}

/// The per-segment and per-street tables of a query, dense over the ids
/// and emptied by walking what the previous query touched.
#[derive(Default)]
struct SeenTables {
    /// Per segment: 1 + its index in `states`, 0 while unseen.
    slot: Vec<u32>,
    /// Seen segments, in first-seen order.
    states: Vec<SegState>,
    /// Per segment: set once it is *final* — dismissed, or every cell of
    /// its `Cε(ℓ)` visited, so its interest is settled and no cell can
    /// change it. Only seen segments are ever dead.
    dead: SegmentBits,
    /// The live segments of the cell access under way, ascending once
    /// collected, and one bit per segment that is set while it is listed:
    /// a segment crosses several cells of a ring and is listed once.
    ring: Vec<SegmentId>,
    queued: SegmentBits,
    arenas: Arenas,
    /// Per street: best interest lower bound among its seen segments
    /// (`-∞` until raised); `raised` lists the streets that have one.
    street_best: Vec<f64>,
    raised: Vec<StreetId>,
    /// Rasterisation buffer for one segment's `Cε(ℓ)`.
    near_cells: Vec<CellId>,
}

impl SeenTables {
    /// Empties the tables and fits them to `network`.
    fn reset(&mut self, network: &RoadNetwork) {
        for state in self.states.drain(..) {
            self.slot[state.seg.index()] = 0;
            self.dead.clear(state.seg);
        }
        self.unqueue_ring();
        self.slot.resize(network.num_segments(), 0);
        self.dead.fit(network.num_segments());
        self.queued.fit(network.num_segments());
        for street in self.raised.drain(..) {
            self.street_best[street.index()] = f64::NEG_INFINITY;
        }
        self.street_best
            .resize(network.num_streets(), f64::NEG_INFINITY);
        self.arenas.cells.clear();
        self.arenas.bits.clear();
    }

    /// Empties `ring`, clearing its segments' `queued` bits.
    fn unqueue_ring(&mut self) {
        for seg in self.ring.drain(..) {
            self.queued.clear(seg);
        }
    }
}

/// Mutable algorithm state shared by the access handlers.
struct Filtering<'s> {
    seen: &'s mut SeenTables,
    gathered: &'s mut Gathered,
    /// The k best entries of `street_best`: `LBk` (Alg. 1 lines 23–24) is
    /// always fresh.
    lbk: &'s mut KBest,
}

impl Filtering<'_> {
    fn is_seen(&self, seg: SegmentId) -> bool {
        self.seen.slot[seg.index()] != 0
    }

    fn is_finalized(&self, seg: SegmentId) -> bool {
        self.seen.dead.get(seg)
    }

    /// Raises `street`'s lower bound to `int_lower` if it improves.
    fn raise_street_bound(&mut self, street: StreetId, int_lower: f64) {
        let entry = &mut self.seen.street_best[street.index()];
        if int_lower > *entry {
            let old = (*entry > f64::NEG_INFINITY).then_some(*entry);
            if old.is_none() {
                self.seen.raised.push(street);
            }
            *entry = int_lower;
            self.lbk.raise(street, old, int_lower);
        }
    }

    /// Index of `seg`'s state, created on first sight. `None` when this
    /// call *dismissed* the segment by the O(1) pre-rasterisation bound: if
    /// the full relevant weight of its dilated bounding box cannot lift it
    /// above `lbk`, it is final and its exact cells are never needed.
    fn see(
        &mut self,
        inputs: &Inputs<'_>,
        seg: SegmentId,
        lbk: f64,
        stats: &mut QueryStats,
    ) -> Option<usize> {
        let seen = &mut *self.seen;
        if let Some(at) = (seen.slot[seg.index()] as usize).checked_sub(1) {
            return Some(at);
        }
        stats.segments_seen += 1;
        let s = inputs.network.segment(seg);
        let eps = inputs.query.eps;
        let dismissed = lbk > 0.0
            && inputs
                .index
                .grid()
                .cell_range_in_rect(&s.geom.bounding_rect().expand(eps))
                .is_some_and(|range| {
                    segment_interest(inputs.relprefix.rect_sum(range), s.len(), eps) <= lbk
                });
        let span = if dismissed {
            stats.segments_bounded_out += 1;
            stats.segments_finalized_filtering += 1;
            Span::default()
        } else {
            inputs
                .index
                .occupied_cells_near_segment_into(&s.geom, eps, &mut seen.near_cells);
            seen.arenas.push(&seen.near_cells)
        };
        seen.states.push(SegState {
            seg,
            mass: 0.0,
            span,
            visited_count: 0,
        });
        seen.slot[seg.index()] = seen.states.len() as u32;
        if span.len == 0 {
            // Dismissed, or no occupied cell within ε: nothing left to visit.
            seen.dead.set(seg);
        }
        (!dismissed).then(|| seen.states.len() - 1)
    }

    /// A cell access (Alg. 1 lines 9–13): runs `UpdateInterest` for every
    /// segment the popped `cell` can still change. The raster rows of the
    /// cell's ring list a superset of `Lε(c)`, a segment once per ring cell
    /// it crosses; a dead segment is dropped while the rows are merged, the
    /// rest go through [`update_interest`](Self::update_interest) in
    /// ascending id order — the order `states` is filled in, whatever the
    /// rows' order.
    fn access_cell(&mut self, inputs: &Inputs<'_>, cell: CellId, lbk: f64, stats: &mut QueryStats) {
        let seen = &mut *self.seen;
        seen.unqueue_ring();
        let SeenTables {
            dead, ring, queued, ..
        } = seen;
        inputs
            .index
            .for_each_raster_row_near_cell(cell, inputs.query.eps, |row| {
                for &seg in row {
                    if !(dead.get(seg) || queued.get(seg)) {
                        queued.set(seg);
                        ring.push(seg);
                    }
                }
            });
        ring.sort_unstable();
        for at in 0..self.seen.ring.len() {
            let seg = self.seen.ring[at];
            self.update_interest(inputs, seg, cell, lbk, stats);
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
        lbk: f64,
        stats: &mut QueryStats,
    ) {
        debug_assert!(!self.seen.dead.get(seg), "a dead segment reached a cell");
        let Some(at) = self.see(inputs, seg, lbk, stats) else {
            stats.duplicate_visits += 1;
            return;
        };
        let state = &mut self.seen.states[at];
        let (cells, bits) = self.seen.arenas.of(state.span);
        if !state.visit(cell, cells, bits) {
            stats.duplicate_visits += 1;
            return;
        }
        let s = inputs.network.segment(seg);
        let gained = inputs.cell_mass(self.gathered, cell, &s.geom);
        state.mass += gained;
        stats.cell_visits += 1;
        if state.visited_count == state.span.len {
            self.seen.dead.set(seg);
            stats.segments_finalized_filtering += 1;
        }
        if gained > 0.0 {
            let int_lower = segment_interest(state.mass, s.len(), inputs.query.eps);
            self.raise_street_bound(s.street, int_lower);
        }
    }

    /// Pops a segment from SL2/SL3: lazily computes its Cε cells and either
    /// *bounds it out* — when even attributing every unvisited cell's full
    /// relevant weight cannot lift its interest above `LBk`, the segment is
    /// marked final without any distance computation (its true interest can
    /// affect neither the top-k membership nor a returned street's reported
    /// maximum) — or visits every remaining cell.
    fn finalize_segment(
        &mut self,
        inputs: &Inputs<'_>,
        seg: SegmentId,
        lbk: f64,
        stats: &mut QueryStats,
    ) {
        let fresh = !self.is_seen(seg);
        let Some(at) = self.see(inputs, seg, lbk, stats) else {
            return;
        };
        let s = inputs.network.segment(seg);
        let state = &mut self.seen.states[at];
        if self.seen.dead.get(seg) {
            if fresh {
                // Seen here for the first time and it has no ε-cells.
                stats.segments_finalized_filtering += 1;
            }
            return;
        }
        let (cells, bits) = self.seen.arenas.of(state.span);
        let int_upper = segment_interest(
            state.upper_mass(cells, bits, inputs),
            s.len(),
            inputs.query.eps,
        );
        if int_upper <= lbk && lbk > 0.0 {
            self.seen.dead.set(seg);
            stats.segments_bounded_out += 1;
            stats.segments_finalized_filtering += 1;
            return;
        }
        // Visit every remaining cell in place. The cell at position `idx`
        // is exactly bit `idx` of the visited set, so the membership binary
        // search of `SegState::visit` is unnecessary here. The street bound
        // is raised once with the final mass, which dominates every
        // per-cell intermediate raise.
        for (idx, &cell) in cells.iter().enumerate() {
            let (word, bit) = (idx / 64, 1u64 << (idx % 64));
            if bits[word] & bit != 0 {
                stats.duplicate_visits += 1;
                continue;
            }
            bits[word] |= bit;
            state.visited_count += 1;
            state.mass += inputs.cell_mass(self.gathered, cell, &s.geom);
            stats.cell_visits += 1;
        }
        self.seen.dead.set(seg);
        stats.segments_finalized_filtering += 1;
        let mass = state.mass;
        if mass > 0.0 {
            self.raise_street_bound(s.street, segment_interest(mass, s.len(), inputs.query.eps));
        }
    }
}

/// Query-time 2-D prefix sums over the per-cell relevant weights, giving an
/// O(1) upper bound on the relevant mass inside any rectangle. Lets the
/// algorithm dismiss hopeless segments before even rasterising their ε-cell
/// lists.
struct RelPrefix<'a> {
    nx: usize,
    ny: usize,
    /// `(nx+1) × (ny+1)` inclusive prefix sums, row-major.
    sums: &'a [f64],
}

impl<'a> RelPrefix<'a> {
    /// Builds the prefix sums of `relcount` over the `reached` cells into
    /// `sums` (a reusable scratch vector).
    fn build(
        grid: &soi_geo::Grid,
        relcount: &[f64],
        reached: &[CellId],
        sums: &'a mut Vec<f64>,
    ) -> Self {
        let (nx, ny) = (grid.nx() as usize, grid.ny() as usize);
        sums.clear();
        sums.resize((nx + 1) * (ny + 1), 0.0);
        for &cell in reached {
            let coord = grid.coord_of(cell);
            sums[(coord.iy as usize + 1) * (nx + 1) + coord.ix as usize + 1] =
                relcount[cell.index()];
        }
        for y in 1..=ny {
            let mut row_acc = 0.0;
            for x in 1..=nx {
                row_acc += sums[y * (nx + 1) + x];
                sums[y * (nx + 1) + x] = sums[(y - 1) * (nx + 1) + x] + row_acc;
            }
        }
        Self { nx, ny, sums }
    }

    /// Total relevant weight of cells in the inclusive index range.
    fn rect_sum(&self, (x0, y0, x1, y1): (u32, u32, u32, u32)) -> f64 {
        debug_assert!(x1 < self.nx as u32 && y1 < self.ny as u32);
        let at = |x: usize, y: usize| self.sums[y * (self.nx + 1) + x];
        let (x0, y0, x1, y1) = (x0 as usize, y0 as usize, x1 as usize, y1 as usize);
        // Tiny relative head-room guards against prefix-sum rounding making
        // the upper bound minutely smaller than the true sum.
        (at(x1 + 1, y1 + 1) - at(x0, y1 + 1) - at(x1 + 1, y0) + at(x0, y0)).max(0.0) * (1.0 + 1e-9)
    }
}

/// Reusable working memory for [`run_soi`]: the source lists, the dense
/// per-cell / per-segment / per-street tables, the cell-list arenas, the
/// gathered relevant-POI columns and the k best street bounds, so a warm
/// query allocates none of them.
///
/// Hold one per worker thread and pass it to
/// [`run_soi_with_scratch`]; results are identical to [`run_soi`]. Every
/// table is emptied on entry by walking what the previous query touched
/// and re-fitted to the network and grid at hand, so one scratch may serve
/// different datasets in turn. A worker retains about
/// `16·|grid cells| + 16.25·|segments| + 12·|streets|` bytes of tables (per
/// segment: the slot, the count and the two list entries at 4 bytes each,
/// two bits) plus the high-water marks of the lists, the largest of which
/// is the gathered columns: 24 bytes per distinct relevant POI in the cells
/// visited by the heaviest query served so far (of `24·|POIs|` bytes
/// reserved, untouched beyond that mark).
#[derive(Default)]
pub struct SoiScratch {
    relcount: Vec<f64>,
    /// The cells with a `relcount` entry (SL1's domain), first-reached order.
    reached: Vec<CellId>,
    prefix_sums: Vec<f64>,
    sl1: BinaryHeap<Ranked<CellId>>,
    lists: CountedLists,
    seen: SeenTables,
    gathered: Gathered,
    lbk: KBest,
    /// Rank phase — per street: 1 + its index in `best`, 0 if none.
    street_slot: Vec<u32>,
    best: Vec<StreetResult>,
}

impl std::fmt::Debug for SoiScratch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SoiScratch").finish_non_exhaustive()
    }
}

/// Evaluates a k-SOI query with the SOI algorithm.
///
/// Returns the ranked streets (interest desc, street id asc; zero-interest
/// streets omitted) together with per-phase timings and work counters.
///
/// This is a total function over its inputs: hostile parameters are rejected
/// with a typed error, and degenerate datasets (no streets, no POIs, a
/// keyword set matching nothing) produce an empty result rather than a
/// panic.
///
/// `pois` and `index` accept either the plain base structures (`&PoiCollection`,
/// `&PoiIndex`) or live base+delta views ([`PoiView`], [`IndexView`]); the
/// algorithm reads exclusively through the views, so an epoch's pending
/// delta participates in every bound and mass with rebuild-identical
/// values.
///
/// # Errors
/// Returns [`SoiError::InvalidInput`](soi_common::SoiError::InvalidInput)
/// when the query violates its invariants (`k = 0`, non-positive or
/// non-finite ε) — see [`SoiQuery::validate`].
pub fn run_soi<'a>(
    network: &RoadNetwork,
    pois: impl Into<PoiView<'a>>,
    index: impl Into<IndexView<'a>>,
    query: &SoiQuery,
    config: &SoiConfig,
) -> Result<SoiOutcome> {
    run_soi_with_scratch(
        network,
        pois.into(),
        index.into(),
        query,
        config,
        &mut SoiScratch::default(),
    )
}

/// [`run_soi`] with caller-provided scratch space (see [`SoiScratch`]).
///
/// # Errors
/// Same contract as [`run_soi`].
pub fn run_soi_with_scratch<'a>(
    network: &RoadNetwork,
    pois: impl Into<PoiView<'a>>,
    index: impl Into<IndexView<'a>>,
    query: &SoiQuery,
    config: &SoiConfig,
    scratch: &mut SoiScratch,
) -> Result<SoiOutcome> {
    run_soi_full(
        network,
        pois.into(),
        index.into(),
        query,
        config,
        scratch,
        None,
        QueryBudget::unlimited(),
    )
}

/// [`run_soi_with_scratch`] with an opt-in explain collector and an
/// execution budget.
///
/// When `explain` is `Some`, the run records its bound trajectory (one
/// [`ExplainRow`] per source access, decimated), the post-construction
/// source-list sizes, and a final termination row into the
/// collector; results are identical to [`run_soi`]. With `None` the hooks
/// are a branch on an `Option`.
///
/// `budget` gives anytime semantics. The deadline is checked every
/// [`BUDGET_CHECK_EVERY`] source-list accesses. On expiry the run stops
/// accessing, skips refinement, and returns the *current* lower-bound
/// top-k with [`partial`](SoiOutcome::partial) set: every returned
/// street's interest is a valid lower bound of its true interest and is at
/// least the recorded `LBk` ([`QueryStats::termination_lb`]) — Alg. 1
/// maintains a correct lower-bound ranking at every access, so a deadline
/// hit degrades the answer instead of erroring. With `None` and
/// [`QueryBudget::unlimited`] this *is* [`run_soi_with_scratch`].
///
/// # Errors
/// Same contract as [`run_soi`] — a deadline hit is *not* an error.
#[allow(clippy::too_many_arguments)]
pub fn run_soi_full<'a>(
    network: &RoadNetwork,
    pois: impl Into<PoiView<'a>>,
    index: impl Into<IndexView<'a>>,
    query: &SoiQuery,
    config: &SoiConfig,
    scratch: &mut SoiScratch,
    mut explain: Option<&mut SoiExplain>,
    budget: QueryBudget,
) -> Result<SoiOutcome> {
    let pois: PoiView<'a> = pois.into();
    let index: IndexView<'a> = index.into();
    query.validate()?;
    let _query_span = soi_obs::trace::span(soi_obs::names::spans::SOI_QUERY);
    if let Some(ex) = explain.as_deref_mut() {
        ex.begin(query.k, query.eps, query.keywords.iter().count());
    }
    let mut stats = QueryStats::default();
    stats.timer.enter(phases::CONSTRUCTION);

    let eps = query.eps;

    let sources_span = soi_obs::trace::span(soi_obs::names::spans::SOI_SOURCES);

    // --- SL1: cells by relevant-POI weight, descending (Alg. 1 lines 1–3).
    // relcount(c) sums the query keywords' global postings in keyword
    // order, capped by the cell's total weight.
    let (relcount, reached) = (&mut scratch.relcount, &mut scratch.reached);
    for cell in reached.drain(..) {
        relcount[cell.index()] = UNREACHED;
    }
    relcount.resize(index.grid().num_cells(), UNREACHED);
    for k in query.keywords.iter() {
        for &(cell, w) in index.global_postings(k) {
            let sum = &mut relcount[cell.index()];
            if *sum < 0.0 {
                *sum = 0.0;
                reached.push(cell);
            }
            *sum += w;
        }
    }
    let mut sl1 = Ranked::recycle(&mut scratch.sl1);
    for &cell in reached.iter() {
        let sum = &mut relcount[cell.index()];
        *sum = sum.min(index.cell_total_weight(cell));
        sl1.push(Ranked {
            score: *sum,
            id: cell,
        });
    }
    let relprefix = RelPrefix::build(index.grid(), relcount, reached, &mut scratch.prefix_sums);

    // --- SL3: segments by length ascending (precomputed offline).
    let sl3: &[SegmentId] = index.segments_by_len();
    let mut cursor3 = 0usize;

    // --- SL2: segments by (an O(1) upper bound of) |Cε(ℓ)| descending
    // (lines 6–7). Any sound upper bound keeps the UB valid, and avoids
    // rasterising every segment at query time.
    // --- SLf: segments by the coupled factor |Cε(ℓ)|/(2ε·len+πε²), desc.
    // Never accessed; its top (skipping seen segments) is the tight UB.
    // Neither is sorted by comparison: the bound is a small integer, and
    // SL3 already orders the lengths (see the `counted` module).
    let coupled_factor = |cell_count_ub: u32, seg: SegmentId| {
        segment_interest(f64::from(cell_count_ub), network.segment(seg).len(), eps)
    };
    let lists = &mut scratch.lists;
    lists.build(
        network.num_segments(),
        sl3,
        // At most the grid's cell count, which a `CellId` numbers.
        |seg| index.upper_cell_count(&network.segment(seg).geom, eps) as u32,
        coupled_factor,
    );
    // SL1 is not sorted either: the threshold loop reads a short prefix, so
    // it is heapified in O(n) and popped in list order on demand.
    let mut sl1 = BinaryHeap::from(sl1);
    drop(sources_span);
    if let Some(ex) = explain.as_deref_mut() {
        ex.record_lists(sl1.len(), lists.len(), sl3.len());
    }

    let inputs = Inputs {
        network,
        pois,
        index,
        query,
        relcount,
        relprefix,
    };
    scratch.seen.reset(network);
    scratch.gathered.reset(index.grid().num_cells(), pois.len());
    scratch.lbk.reset(query.k);
    let mut fil = Filtering {
        seen: &mut scratch.seen,
        gathered: &mut scratch.gathered,
        lbk: &mut scratch.lbk,
    };

    stats.timer.enter(phases::FILTERING);

    let cycle = config.strategy.cycle();
    let mut cycle_pos = 0usize;
    let mut lbk = fil.lbk.threshold();
    let mut ub = f64::INFINITY;
    // A deadline that expired before the access loop still yields a valid
    // (empty) lower-bound answer: the loop is simply never entered.
    let mut expired = budget.expired();

    while !expired {
        // Drop finalised (SL2/SL3) or seen (SLf) segments off the list
        // heads so that peeks reflect the best still-relevant entry of each.
        let head2 = lists.top2(|s| fil.is_finalized(s));
        while sl3.get(cursor3).is_some_and(|&s| fil.is_finalized(s)) {
            cursor3 += 1;
        }

        // Unseen upper bound (line 22). Exhausted SL1 means every cell with
        // relevant POIs was popped, so every segment with positive mass is
        // seen; exhausted SL2/SL3/SLf means no unseen segments remain.
        let top1 = sl1.peek().map_or(0.0, |e| e.score);
        let top2 = head2.map_or(0.0, |(_, count)| f64::from(count));
        let top3 = sl3.get(cursor3).map(|&s| network.segment(s).len());
        let ub_paper = match top3 {
            Some(len) if top1 > 0.0 && top2 > 0.0 => segment_interest(top1 * top2, len, eps),
            _ => 0.0,
        };
        let ub_coupled = top1 * lists.top_factor(|s| fil.is_seen(s), coupled_factor);
        ub = if config.paper_bounds_only {
            ub_paper
        } else {
            ub_paper.min(ub_coupled)
        };
        lbk = fil.lbk.threshold();
        // An explain row: these bounds and list heads (the pre-access values
        // that select the access) with the progress counters as of `stats`.
        let explain_row = |source: Option<Source>, stats: &QueryStats| ExplainRow {
            access: stats.accesses,
            source,
            ub,
            ub_paper,
            ub_coupled,
            lbk,
            top_sl1: top1,
            top_sl2: top2,
            top_sl3: top3.unwrap_or(0.0),
            segments_seen: stats.segments_seen,
            cells_popped: stats.cells_popped,
        };

        if ub <= lbk {
            if let Some(ex) = explain.as_deref_mut() {
                // Final row: the state that stopped the access loop. Always
                // recorded, so the table's last row satisfies UB ≤ LBk.
                ex.record(explain_row(None, &stats));
            }
            break;
        }

        // With paper-verbatim bounds, segment dismissal is disabled by
        // passing a zero threshold to the bound-out sites.
        let prune_lbk = if config.paper_bounds_only { 0.0 } else { lbk };

        // Choose the next source per the strategy cycle, falling through to
        // any non-exhausted list.
        let preferred = cycle[cycle_pos % cycle.len()];
        cycle_pos += 1;
        let fallbacks = [
            preferred,
            Source::Cells,
            Source::SegmentsByLen,
            Source::SegmentsByCells,
        ];
        let mut accessed = None;
        for source in fallbacks {
            match source {
                Source::Cells => {
                    let Some(Ranked { id: cell, .. }) = sl1.pop() else {
                        continue;
                    };
                    stats.cells_popped += 1;
                    fil.access_cell(&inputs, cell, prune_lbk, &mut stats);
                }
                Source::SegmentsByCells => {
                    let Some((seg, _)) = head2 else {
                        continue;
                    };
                    lists.pop2();
                    stats.segments_popped += 1;
                    fil.finalize_segment(&inputs, seg, prune_lbk, &mut stats);
                }
                Source::SegmentsByLen => {
                    let Some(&seg) = sl3.get(cursor3) else {
                        continue;
                    };
                    cursor3 += 1;
                    stats.segments_popped += 1;
                    fil.finalize_segment(&inputs, seg, prune_lbk, &mut stats);
                }
            }
            accessed = Some(source);
            break;
        }
        if accessed.is_none() {
            // All lists exhausted: everything is seen; UB is 0 next round.
            continue;
        }
        stats.accesses += 1;
        if let Some(ex) = explain.as_deref_mut() {
            // Progress counters are cumulative after the access.
            ex.record(explain_row(accessed, &stats));
        }
        // Sampled convergence tracks: with tracing on, a Chrome trace shows
        // UB descending onto LBk over the filtering phase.
        if stats.accesses % UB_SAMPLE_EVERY == 0 {
            soi_obs::trace::counter(soi_obs::names::tracks::SOI_UB, ub);
            soi_obs::trace::counter(soi_obs::names::tracks::SOI_LBK, lbk);
        }
        // Deadline check every few accesses: cheap enough to be invisible on
        // the unlimited path (a branch on `None`), frequent enough that an
        // expired budget stops within microseconds. The stale pre-access UB
        // kept here is still a valid upper bound (UB is non-increasing), and
        // the *current* LBk is recorded so returned scores validate against
        // `termination_lb`.
        if stats.accesses % BUDGET_CHECK_EVERY == 0 && budget.expired() {
            expired = true;
            lbk = fil.lbk.threshold();
        }
    }

    stats.termination_ub = ub;
    stats.termination_lb = lbk;
    stats.deadline_expired = expired;

    // --- Refinement (lines 25–28): finalise the seen segments that can
    // still matter. A partial segment whose mass upper bound cannot lift it
    // above LBk is skipped: its true interest can neither enter the top-k
    // nor change a returned street's maximum (returned values are ≥ LBk).
    //
    // Skipped entirely on deadline expiry: the anytime contract is a
    // *lower-bound* top-k, and every accumulated mass is already a valid
    // lower bound — spending more time refining would defeat the deadline.
    let (seen, gathered) = (fil.seen, fil.gathered);
    if !expired {
        stats.timer.enter(phases::REFINEMENT);
        lbk = if config.paper_bounds_only {
            0.0
        } else {
            fil.lbk.threshold()
        };
        for state in seen.states.iter_mut() {
            if seen.dead.get(state.seg) {
                continue;
            }
            let s = network.segment(state.seg);
            let (cells, bits) = seen.arenas.of(state.span);
            let upper = state.upper_mass(cells, bits, &inputs);
            if lbk > 0.0 && segment_interest(upper, s.len(), eps) <= lbk {
                stats.segments_bounded_out += 1;
                continue;
            }
            let mut extra = 0.0;
            for cell in unvisited(cells, bits) {
                extra += inputs.cell_mass(gathered, cell, &s.geom);
                stats.cell_visits += 1;
            }
            state.mass += extra;
            seen.dead.set(state.seg);
            stats.segments_finalized_refinement += 1;
        }
    }

    // Street-level aggregation (Definition 3: max over segments) restricted
    // to seen segments — unseen ones have interest ≤ UB ≤ LBk and cannot
    // change the top-k membership.
    let rank_span = soi_obs::trace::span(soi_obs::names::spans::SOI_RANK);
    let (street_slot, best) = (&mut scratch.street_slot, &mut scratch.best);
    for entry in best.drain(..) {
        street_slot[entry.street.index()] = 0;
    }
    street_slot.resize(network.num_streets(), 0);
    for state in &seen.states {
        let s = network.segment(state.seg);
        let int = segment_interest(state.mass, s.len(), eps);
        let slot = &mut street_slot[s.street.index()];
        if *slot == 0 {
            best.push(StreetResult {
                street: s.street,
                interest: 0.0,
                best_segment: state.seg,
                best_segment_mass: 0.0,
            });
            *slot = best.len() as u32;
        }
        let entry = &mut best[*slot as usize - 1];
        if int > entry.interest || (int == entry.interest && state.seg < entry.best_segment) {
            entry.interest = int;
            entry.best_segment = state.seg;
            entry.best_segment_mass = state.mass;
        }
    }
    let ranked = top_k_by_score(
        best.iter()
            .filter(|entry| entry.interest > 0.0)
            .map(|entry| ScoredItem::new(entry.street, entry.interest)),
        query.k,
    );
    let results = ranked
        .into_iter()
        .map(|item| best[street_slot[item.id.index()] as usize - 1].clone())
        .collect();
    drop(rank_span);

    stats.timer.stop();

    // Hand SL1 (and its capacity) back for the next query.
    scratch.sl1 = sl1;

    crate::obs::absorb_query_stats(&stats);

    if let Some(ex) = explain {
        ex.finish(&stats);
    }

    Ok(SoiOutcome {
        results,
        stats,
        partial: expired,
    })
}
