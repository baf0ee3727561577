//! The SOI algorithm (paper Algorithm 1).
//!
//! Top-k style evaluation of the k-SOI query over the spatio-textual POI
//! index. The algorithm draws from three ranked source lists —
//!
//! - **SL1**: cells sorted decreasingly on (an upper bound of) the number
//!   of query-relevant POIs they contain,
//! - **SL2**: segments sorted decreasingly on `b(ℓ)`, an upper bound of
//!   their interest (below; the paper ranks them on `|Cε(ℓ)|`, the number
//!   of occupied cells within ε),
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
//! Every relevant POI within ε of a segment lies in a cell of the segment's
//! ε-dilated bounding box, and `relcount(c)` caps each cell's relevant
//! weight, so `b(ℓ) = int(Σ_box relcount)` — one lookup in 2-D prefix sums
//! of `relcount` — bounds the interest of every segment, seen or not. SL2
//! lists the segments with `b > 0` ranked by it, and its first *unseen*
//! entry bounds every unseen segment, so `UB = b(head)`, 0 once none is
//! left. A query computes `b` only where it is read: SL2 ranks the network's
//! runs (one street's consecutive segments of similar length) by a bound
//! `B(T) ≥ b(ℓ)` of every member, and bounds a run's members once the run
//! could reach the head, in the order a list of all segments would read.
//! `see()` computes `b` of a segment on first sight. The bound rests on
//! nothing the access loop did — not on which cells were popped, on SL3's
//! order or on `top(SL1)` — and `b` also dismisses a segment on sight when
//! it cannot exceed `LBk` (always when `b = 0`: its interest is 0). This
//! deviates from the paper's SL2 and its
//! `UB = top(SL1)·top(SL2) / (2ε·top(SL3) + πε²)`, which charges every
//! unseen segment the heaviest unpopped cell once per cell of its box and
//! pairs list heads no single segment attains; that bound is kept verbatim
//! under [`SoiConfig::paper_bounds_only`], with SL2 ranked by the O(1)
//! bound on `|Cε(ℓ)|` and a head that skips *final* segments.
//!
//! ### Source lists without a sort
//! The loop reads only a short prefix of SL1 and SL2, so a query never
//! sorts them whole: each is a [`RankedList`] that selects and sorts only
//! as far as it is read, in exactly the order a sort would give (see the
//! `ranked` module). **SL3** is the one list that does not depend on the
//! query and stays precomputed.
//!
//! ### Masses
//! A rasterised segment keeps one mass per cell of its `Cε(ℓ)`, 0.0 until
//! the cell is visited, and its mass is their sum in ascending cell order —
//! `segment_mass_lazy`'s order, so a final segment's mass is the baseline's
//! to the bit whatever the access order. A partial mass is the same sum
//! with the unvisited cells' `+0.0` in it; floating-point addition is
//! monotone, so no lower bound raised on the way exceeds the final value.
//!
//! ### Cell accesses
//! `Lε(c)` is not stored: a popped cell walks the static raster rows of its
//! Chebyshev ring, which list a superset of it (a segment that does not
//! list the cell in its own `Cε(ℓ)` ignores the touch). Segments that are
//! *final* — dismissed, or every cell visited — are dropped while the rows
//! are merged, by one bit per segment, so only segments the cell can still
//! change reach `UpdateInterest`.

use crate::budget::{QueryBudget, BUDGET_CHECK_EVERY};
use crate::soi::explain::{ExplainRow, SoiExplain};
use crate::soi::interest::segment_interest;
use crate::soi::lbk::KBest;
use crate::soi::query::{SoiConfig, SoiOutcome, SoiQuery, StreetResult};
use crate::soi::ranked::{GroupedList, Ranked, RankedList};
use crate::soi::stats::{phases, QueryStats};
use crate::soi::strategy::Source;
use soi_common::{top_k_by_score, CellId, Result, ScoredItem, SegmentId, StreetId};
use soi_data::PoiView;
use soi_geo::{Grid, LineSeg, Rect};
use soi_index::{mass_within, IndexView};
use soi_network::{RoadNetwork, Segment, SegmentRun};

/// Source accesses between sampled UB/LBk trace-counter emissions: dense
/// enough to show the convergence curve, sparse enough to stay invisible
/// in the timings (a power of two so the modulo folds to a mask).
const UB_SAMPLE_EVERY: usize = 64;

/// `relcount` entry of a cell no query keyword reaches. Negative, so a
/// cell whose relevant weights sum to exactly 0.0 is still told apart
/// (it is an SL1 entry); reads clamp it to 0.
const UNREACHED: f64 = -1.0;

/// Where a segment's `Cε(ℓ)` list, its per-cell masses and its visited
/// bitset sit in [`Arenas`].
#[derive(Clone, Copy, Default)]
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
    /// cell order from `+0.0` — for a non-empty list exactly
    /// `segment_mass_lazy`'s `sum()` once every cell is visited.
    fn mass(&self) -> f64 {
        self.masses.iter().fold(0.0, |sum, &m| sum + m)
    }

    /// The cells whose visited bit is clear, ascending.
    fn unvisited(&self) -> impl Iterator<Item = CellId> + '_ {
        (0..self.ids.len())
            .filter(|&i| !self.is_visited(i))
            .map(|i| self.ids[i])
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
    /// mass, and the baseline's value once final.
    mass: f64,
    /// `Cε(ℓ)`: the occupied cells within ε (ascending), rasterised when
    /// the segment is first seen (the query-time augmentation of
    /// Sec. 3.2.1), with one mass and one visited bit per cell.
    span: Span,
    /// Number of set bits.
    visited_count: usize,
}

impl SegState {
    /// Marks `cell` visited; returns its index in `cells`, or `None` if it
    /// was already visited or is not one of the segment's ε-cells.
    fn visit(&mut self, cell: CellId, cells: &mut Cells<'_>) -> Option<usize> {
        let idx = cells.ids.binary_search(&cell).ok()?;
        if cells.is_visited(idx) {
            return None;
        }
        cells.set_visited(idx);
        self.visited_count += 1;
        Some(idx)
    }

    /// Upper bound on the segment's true mass: accumulated mass plus the
    /// full relevant weight of every unvisited cell.
    fn upper_mass(&self, cells: &Cells<'_>, inputs: &Inputs<'_>) -> f64 {
        self.mass
            + cells
                .unvisited()
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
    /// `b(ℓ)` of any segment, on demand.
    bounds: RelPrefix<'a>,
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
        self.arenas.clear();
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
    /// call *dismissed* the segment by its O(1) bound `b(ℓ)`: if the full
    /// relevant weight of its dilated bounding box cannot lift it above
    /// `lbk`, it is final and its exact cells are never needed. `b(ℓ)` is
    /// computed here, once per seen segment; no bound is at or below −∞, so
    /// with paper bounds none is.
    ///
    /// Here and below, `lbk` is the pruning threshold: an upper bound at or
    /// below it settles a segment. It is −∞ under
    /// [`SoiConfig::paper_bounds_only`], which prunes nothing.
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
        let dismissed = lbk > f64::NEG_INFINITY
            && inputs.bounds.segment_bound(inputs.network.segment(seg)) <= lbk;
        let span = if dismissed {
            stats.segments_bounded_out += 1;
            stats.segments_finalized_filtering += 1;
            Span::default()
        } else {
            let geom = &inputs.network.segment(seg).geom;
            inputs.index.occupied_cells_near_segment_into(
                geom,
                inputs.query.eps,
                &mut seen.near_cells,
            );
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
        let mut cells = self.seen.arenas.of(state.span);
        let Some(idx) = state.visit(cell, &mut cells) else {
            stats.duplicate_visits += 1;
            return;
        };
        let s = inputs.network.segment(seg);
        let gained = inputs.cell_mass(self.gathered, cell, &s.geom);
        stats.cell_visits += 1;
        if state.visited_count == state.span.len {
            self.seen.dead.set(seg);
            stats.segments_finalized_filtering += 1;
        }
        if gained > 0.0 {
            cells.masses[idx] = gained;
            state.mass = cells.mass();
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
        let mut cells = self.seen.arenas.of(state.span);
        let int_upper =
            segment_interest(state.upper_mass(&cells, inputs), s.len(), inputs.query.eps);
        if int_upper <= lbk {
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
        stats.duplicate_visits += state.visited_count;
        state.visited_count = state.span.len;
        visit_unvisited(inputs, self.gathered, &mut cells, &s.geom, stats);
        state.mass = cells.mass();
        self.seen.dead.set(seg);
        stats.segments_finalized_filtering += 1;
        if state.mass > 0.0 {
            let int = segment_interest(state.mass, s.len(), inputs.query.eps);
            self.raise_street_bound(s.street, int);
        }
    }
}

/// Visits every unvisited cell of `cells` for the segment `geom`: records
/// its mass and sets its bit.
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
struct RelPrefix<'a> {
    grid: &'a Grid,
    eps: f64,
    nx: usize,
    ny: usize,
    /// `(nx+1) × (ny+1)` inclusive prefix sums of the cells' units,
    /// row-major.
    sums: &'a [u64],
    /// The weight of one unit, with a relative head-room of 1e-9 for the
    /// rounding by which a mass and the `relcount`s bounding it differ.
    unit: f64,
}

impl<'a> RelPrefix<'a> {
    /// Builds the prefix sums of `relcount` over the `reached` cells into
    /// `sums` (a reusable scratch vector), for bounds at `eps`.
    fn build(
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
            unit: unit * (1.0 + 1e-9),
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
    fn segment_bound(&self, segment: &Segment) -> f64 {
        self.bound(&segment.geom.bounding_rect(), segment.len())
    }

    /// `B(T)` of `run`: [`bound`](Self::bound) over the members' union box
    /// at the shortest member's length. The dilated union box holds each
    /// member's, so its integer sum is at least each member's, and the
    /// interest falls as the length grows: `B(T) ≥ b(ℓ)` for every member.
    fn run_bound(&self, run: &SegmentRun) -> f64 {
        self.bound(&run.bbox, run.min_len)
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
/// `24·|grid cells| + 4.25·|segments| + 8·|runs| + 12·|streets|` bytes of
/// tables (per cell: `relcount`, the gathered range and the prefix sum at
/// 8 bytes each; per segment: the slot at 4 bytes and two bits; per run: an
/// SL2 entry at 8 bytes) plus the high-water marks of SL1, of SL2's heap of
/// expanded members (8 bytes per member, of `8·|segments|` reserved), the
/// arenas (12 bytes and a bit per rasterised cell) and the gathered
/// columns, the largest: 24 bytes per distinct relevant POI in the cells
/// visited by the heaviest query served so far (of `24·|POIs|` bytes
/// reserved, untouched beyond that mark).
#[derive(Default)]
pub struct SoiScratch {
    relcount: Vec<f64>,
    /// The cells with a `relcount` entry (SL1's domain), first-reached order.
    reached: Vec<CellId>,
    prefix_sums: Vec<u64>,
    sl1: RankedList<CellId>,
    /// Runs (by index into [`RoadNetwork::runs`]) and their members.
    sl2: GroupedList<u32, SegmentId>,
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

impl SoiScratch {
    /// Construction's query-wide table: `relcount` over the cells a query
    /// keyword reaches (SL1's domain, listed in `reached`).
    fn fill_relcount(&mut self, index: IndexView<'_>, query: &SoiQuery) {
        // relcount(c) sums the query keywords' global postings in keyword
        // order, capped by the cell's total weight.
        let (relcount, reached) = (&mut self.relcount, &mut self.reached);
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
        for &cell in reached.iter() {
            let sum = &mut relcount[cell.index()];
            *sum = sum.min(index.cell_total_weight(cell));
        }
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
        ex.begin(
            query.k,
            query.eps,
            query.keywords.iter().count(),
            config.paper_bounds_only,
        );
    }
    let mut stats = QueryStats::default();
    stats.timer.enter(phases::CONSTRUCTION);

    let eps = query.eps;

    let sources_span = soi_obs::trace::span(soi_obs::names::spans::SOI_SOURCES);

    // --- SL1: cells by relevant-POI weight, descending (Alg. 1 lines 1–3).
    scratch.fill_relcount(index, query);
    let relcount = &scratch.relcount;
    let bounds = RelPrefix::build(
        index.grid(),
        relcount,
        &scratch.reached,
        eps,
        &mut scratch.prefix_sums,
    );
    let sl1 = &mut scratch.sl1;
    sl1.refill(
        scratch
            .reached
            .iter()
            .map(|&cell| Ranked::new(relcount[cell.index()], cell)),
    );

    // --- SL3: segments by length ascending (precomputed offline).
    let sl3: &[SegmentId] = index.segments_by_len();
    let mut cursor3 = 0usize;

    // --- SL2 (lines 6–7): the segments with `b > 0`, ranked by `b`. It
    // lists the runs with `B > 0`, ranked by `B`, and bounds a run's members
    // only once the run could reach the head (see `GroupedList`), so the
    // reads are those of a list of every such segment. With paper-verbatim
    // bounds SL2 ranks every segment by the O(1) bound on |Cε(ℓ)| instead,
    // as the paper does.
    let sl2 = &mut scratch.sl2;
    let runs = network.runs();
    if config.paper_bounds_only {
        sl2.refill(
            [],
            network
                .segments()
                .iter()
                .map(|s| Ranked::new(index.upper_cell_count(&s.geom, eps) as f64, s.id)),
            0,
        );
    } else {
        let listed = runs.iter().enumerate().filter_map(|(at, run)| {
            let b = bounds.run_bound(run);
            (b > 0.0).then(|| Ranked::new(b, at as u32))
        });
        sl2.refill(listed, [], network.num_segments());
    }
    // A run's members with `b > 0`, ranked by `b`.
    let expand = move |run: u32| {
        let members = network.run_segments(&runs[run as usize]);
        members.iter().filter_map(move |&seg| {
            let b = bounds.segment_bound(network.segment(seg));
            (b > 0.0).then(|| Ranked::new(b, seg))
        })
    };
    // Neither SL1 nor SL2 is sorted here: the threshold loop reads a short
    // prefix, sorted as far as it reads (see the `ranked` module).
    drop(sources_span);
    if let Some(ex) = explain.as_deref_mut() {
        ex.record_lists(sl1.len(), sl2.len(), sl3.len());
    }

    let inputs = Inputs {
        network,
        pois,
        index,
        query,
        relcount,
        bounds,
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
        // Drop the entries no access may take off the list heads, so that
        // peeks reflect the best still-relevant entry of each: final
        // segments off SL3, seen ones off SL2 — final ones with paper
        // bounds, where an SL2 access finalises a partial segment too.
        let passed = |seg| {
            if config.paper_bounds_only {
                fil.is_finalized(seg)
            } else {
                fil.is_seen(seg)
            }
        };
        while sl2.peek(expand).is_some_and(|e| passed(e.id())) {
            sl2.pop(expand);
        }
        while sl3.get(cursor3).is_some_and(|&s| fil.is_finalized(s)) {
            cursor3 += 1;
        }

        // Unseen upper bound (line 22): SL2's head, 0 once it is exhausted.
        // With paper bounds, the heads combined: exhausted SL1 means every
        // cell with relevant POIs was popped, so every segment with positive
        // mass is seen; exhausted SL2/SL3 means no unseen segments remain.
        let top1 = sl1.peek().map_or(0.0, |e| e.score());
        let top2 = sl2.peek(expand).map_or(0.0, |e| e.score());
        let top3 = sl3.get(cursor3).map(|&s| network.segment(s).len());
        ub = if !config.paper_bounds_only {
            top2
        } else {
            match top3 {
                Some(len) if top1 > 0.0 && top2 > 0.0 => segment_interest(top1 * top2, len, eps),
                _ => 0.0,
            }
        };
        lbk = fil.lbk.threshold();
        // An explain row: these bounds and list heads (the pre-access values
        // that select the access) with the progress counters as of `stats`.
        let explain_row = |source: Option<Source>, stats: &QueryStats| ExplainRow {
            access: stats.accesses,
            source,
            ub,
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

        // With paper-verbatim bounds, segment dismissal is disabled by a
        // threshold no bound is at or below.
        let prune_lbk = if config.paper_bounds_only {
            f64::NEG_INFINITY
        } else {
            lbk
        };

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
                    let Some(cell) = sl1.pop().map(Ranked::id) else {
                        continue;
                    };
                    stats.cells_popped += 1;
                    fil.access_cell(&inputs, cell, prune_lbk, &mut stats);
                }
                Source::SegmentsByCells => {
                    let Some(seg) = sl2.pop(expand).map(Ranked::id) else {
                        continue;
                    };
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
        let prune_lbk = if config.paper_bounds_only {
            f64::NEG_INFINITY
        } else {
            fil.lbk.threshold()
        };
        for state in seen.states.iter_mut() {
            if seen.dead.get(state.seg) {
                continue;
            }
            let s = network.segment(state.seg);
            let mut cells = seen.arenas.of(state.span);
            let upper = state.upper_mass(&cells, &inputs);
            if segment_interest(upper, s.len(), eps) <= prune_lbk {
                stats.segments_bounded_out += 1;
                continue;
            }
            visit_unvisited(&inputs, gathered, &mut cells, &s.geom, &mut stats);
            state.mass = cells.mass();
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

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use soi_common::KeywordId;
    use soi_data::{PhotoCollection, PoiCollection};
    use soi_geo::Point;
    use soi_index::{DeltaIndex, DeltaOp, PoiIndex};
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

            let mut scratch = SoiScratch::default();
            scratch.fill_relcount(view, &query);
            let bounds = RelPrefix::build(
                view.grid(),
                &scratch.relcount,
                &scratch.reached,
                eps,
                &mut scratch.prefix_sums,
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
            let mut scratch = SoiScratch::default();
            scratch.fill_relcount(view, &query);
            let bounds = RelPrefix::build(
                view.grid(),
                &scratch.relcount,
                &scratch.reached,
                eps,
                &mut scratch.prefix_sums,
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
