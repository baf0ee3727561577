//! The SOI algorithm (paper Algorithm 1).
//!
//! Top-k evaluation of the k-SOI query over the spatio-textual POI index:
//! Alg. 1 reads ranked source lists, keeps `LBk`, the k-th best street
//! interest lower bound among seen segments, and `UB`, an upper bound on
//! the interest of every unseen segment (Lemma 1), and stops once
//! `UB ≤ LBk`. The paper leaves the access order open ("the correctness of
//! our method is not affected by the access strategy"). [`run_soi`] runs
//! one best-first loop. The paper's cycle and bound are a reference entry
//! of their own,
//! [`paper::run_soi_paper`](crate::soi::paper::run_soi_paper), called like
//! [`run_baseline`](crate::soi::run_baseline) on its own scratch. Both
//! entries run through this module's `evaluate`, which fills the
//! `relcount` table, resets the gathered POI columns and the street bounds,
//! and ranks the seen segments once the entry's own access loop stops.
//!
//! ### The default loop
//! SL2 lists the segments with `b(ℓ) > 0` ranked by `b`, an upper bound of
//! their interest (the `bound` module), so `UB` is `b` of its head. While
//! `UB > LBk` the head is popped and settled at once. It is *bounded out*,
//! with no distance computed, when `b(ℓ) ≤ LBk` (SL2 ranks on `b` rounded
//! up, so even its head may be) or when the `relcount` of its `Cε(ℓ)`,
//! with the `bound` module's head-room, gives an interest ≤ `LBk`: it can
//! neither enter the top-k nor change a returned street's maximum.
//! Otherwise its mass is `cell_mass` summed over `Cε(ℓ)` in ascending cell
//! order — BL's order, so BL's bits — and its
//! street's bound is raised. No segment is ever partial, so nothing is left
//! to refine. SL2 lists the runs (one street's consecutive segments of
//! similar length) by a bound `B(T)` of every member and bounds a run's
//! members once the run could reach the head, reading what one list of all
//! segments would (the `ranked` module). SL1 and SL3 are not read. Of six
//! orders measured on the benchmark's queries (DESIGN §5) this one is the
//! fastest.

use crate::budget::{QueryBudget, BUDGET_CHECK_EVERY};
use crate::soi::bound::{RelPrefix, HEADROOM};
use crate::soi::explain::{ExplainRow, SoiExplain};
use crate::soi::interest::segment_interest;
use crate::soi::lbk::KBest;
use crate::soi::query::{SoiConfig, SoiOutcome, SoiQuery, StreetResult};
use crate::soi::ranked::{GroupedList, Ranked};
use crate::soi::stats::{phases, QueryStats};
use soi_common::{top_k_by_score, CellId, Result, ScoredItem, SegmentId, StreetId};
use soi_data::PoiView;
use soi_geo::LineSeg;
use soi_index::{mass_within, IndexView};
use soi_network::RoadNetwork;
use soi_obs::trace::Span as TraceSpan;
use std::ops::ControlFlow;

/// Source accesses between sampled UB/LBk trace-counter emissions: dense
/// enough to show the convergence curve, sparse enough to stay invisible
/// in the timings (a power of two so the modulo folds to a mask).
const UB_SAMPLE_EVERY: usize = 64;

/// `relcount` entry of a cell no query keyword reaches. Negative, so a
/// cell whose relevant weights sum to exactly 0.0 is still told apart
/// (it is an SL1 entry); reads clamp it to 0.
const UNREACHED: f64 = -1.0;

/// What the access handlers read and never change.
pub(super) struct Inputs<'a> {
    pub network: &'a RoadNetwork,
    pub pois: PoiView<'a>,
    pub index: IndexView<'a>,
    pub query: &'a SoiQuery,
    /// relcount(c) per grid cell: an upper bound on the relevant weight the
    /// cell can contribute to any segment's mass ([`UNREACHED`] where no
    /// query keyword occurs).
    pub relcount: &'a [f64],
    /// The cells with a `relcount` entry, first-reached order.
    pub reached: &'a [CellId],
}

impl Inputs<'_> {
    /// Exact mass `cell` contributes to the segment with geometry `geom`
    /// (Procedure UpdateInterest): which POIs of the cell are relevant, and
    /// where they are, is gathered on the query's first visit to the cell;
    /// every visit then distance-tests the gathered run against its segment.
    pub fn cell_mass(&self, gathered: &mut Gathered, cell: CellId, geom: &LineSeg) -> f64 {
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
pub(super) struct Gathered {
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

/// Per street: the best interest lower bound among its seen segments, and
/// the k best of them, `LBk` (Alg. 1 lines 23–24), always fresh.
#[derive(Default)]
pub(super) struct Streets {
    /// `-∞` until raised; `raised` lists the streets that have one.
    best: Vec<f64>,
    raised: Vec<StreetId>,
    lbk: KBest,
}

impl Streets {
    /// Forgets every bound, fits the table to `num_streets` and tracks the
    /// `k` best.
    fn reset(&mut self, num_streets: usize, k: usize) {
        for street in self.raised.drain(..) {
            self.best[street.index()] = f64::NEG_INFINITY;
        }
        self.best.resize(num_streets, f64::NEG_INFINITY);
        self.lbk.reset(k);
    }

    /// Raises `street`'s lower bound to `int_lower` if it improves.
    pub fn raise(&mut self, street: StreetId, int_lower: f64) {
        let entry = &mut self.best[street.index()];
        if int_lower > *entry {
            let old = (*entry > f64::NEG_INFINITY).then_some(*entry);
            if old.is_none() {
                self.raised.push(street);
            }
            *entry = int_lower;
            self.lbk.raise(street, old, int_lower);
        }
    }

    /// `LBk`: the k-th best street bound, 0.0 while fewer than k have one.
    pub fn lbk(&self) -> f64 {
        self.lbk.threshold()
    }
}

/// The query state both access orders fill and the rank phase reads.
#[derive(Default)]
pub(super) struct Shared {
    pub gathered: Gathered,
    pub streets: Streets,
    /// Every seen segment with its mass once filtering ends — exact, or a
    /// lower bound where the deadline expired.
    pub masses: Vec<(SegmentId, f64)>,
}

/// The filtering phase, under either access order. Each `turn` returns the
/// bounds it read, as an explain row: `Continue` once it has made an access
/// under them, `Break` when `UB ≤ LBk` stopped the loop instead. The loop
/// counts each access, numbers the row, records it in `explain`
/// (decimated), samples `UB` and `LBk` into the trace's convergence tracks
/// every [`UB_SAMPLE_EVERY`] accesses and checks the deadline every
/// [`BUDGET_CHECK_EVERY`]. A loop that stops records its termination row
/// and enters the refinement phase. Returns the last `UB` read (∞ if none;
/// a stale one still bounds, as `UB` never rises) and whether the deadline
/// expired.
pub(super) fn access_loop(
    stats: &mut QueryStats,
    mut explain: Option<&mut SoiExplain>,
    budget: &QueryBudget,
    mut turn: impl FnMut(&mut QueryStats) -> ControlFlow<ExplainRow, ExplainRow>,
) -> (f64, bool) {
    stats.timer.enter(phases::FILTERING);
    let mut ub = f64::INFINITY;
    // A deadline that expired before the access loop still yields a valid
    // (empty) lower-bound answer: the loop is simply never entered.
    let mut expired = budget.expired();
    while !expired {
        let (mut row, stopped) = match turn(stats) {
            ControlFlow::Continue(row) => (row, false),
            ControlFlow::Break(row) => (row, true),
        };
        stats.accesses += usize::from(!stopped);
        row.access = stats.accesses;
        if let Some(ex) = explain.as_deref_mut() {
            ex.record(row, stopped);
        }
        ub = row.ub;
        if stopped {
            stats.timer.enter(phases::REFINEMENT);
            break;
        }
        if stats.accesses.is_multiple_of(UB_SAMPLE_EVERY) {
            soi_obs::trace::counter(soi_obs::names::tracks::SOI_UB, row.ub);
            soi_obs::trace::counter(soi_obs::names::tracks::SOI_LBK, row.lbk);
        }
        // Cheap enough to be invisible on the unlimited path, frequent
        // enough that an expired budget stops within microseconds.
        if stats.accesses.is_multiple_of(BUDGET_CHECK_EVERY) && budget.expired() {
            expired = true;
        }
    }
    (ub, expired)
}

/// The tables both entries fill the same way: construction's `relcount`,
/// the query state the access loop fills, and the rank phase's. Each
/// entry's scratch embeds one.
#[derive(Default)]
pub(super) struct Tables {
    pub relcount: Vec<f64>,
    pub reached: Vec<CellId>,
    shared: Shared,
    /// Rank phase — per street: 1 + its index in `best`, 0 if none.
    street_slot: Vec<u32>,
    best: Vec<StreetResult>,
}

impl Tables {
    /// Construction's query-wide table: `relcount` over the cells a query
    /// keyword reaches (listed in `reached`).
    pub fn fill_relcount(&mut self, index: IndexView<'_>, query: &SoiQuery) {
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

/// One k-SOI evaluation around an entry's filtering phase. Validates the
/// query, fills `relcount` and empties the shared state (construction),
/// runs `filter`, then aggregates the seen segments per street
/// (Definition 3) and ranks the top k. `filter` gets the query's inputs,
/// the shared state, the stats and the open construction span, to close
/// once its lists are built; it leaves every seen segment's mass in
/// `Shared::masses` and returns what [`access_loop`] returns.
pub(super) fn evaluate(
    tables: &mut Tables,
    network: &RoadNetwork,
    pois: PoiView<'_>,
    index: IndexView<'_>,
    query: &SoiQuery,
    filter: impl FnOnce(&Inputs<'_>, &mut Shared, &mut QueryStats, TraceSpan) -> (f64, bool),
) -> Result<SoiOutcome> {
    query.validate()?;
    let _query_span = soi_obs::trace::span(soi_obs::names::spans::SOI_QUERY);
    let mut stats = QueryStats::default();
    stats.timer.enter(phases::CONSTRUCTION);
    let sources = soi_obs::trace::span(soi_obs::names::spans::SOI_SOURCES);
    tables.fill_relcount(index, query);
    let Tables {
        relcount,
        reached,
        shared,
        street_slot,
        best,
    } = tables;
    shared.masses.clear();
    shared.gathered.reset(index.grid().num_cells(), pois.len());
    shared.streets.reset(network.num_streets(), query.k);
    let inputs = Inputs {
        network,
        pois,
        index,
        query,
        relcount,
        reached,
    };
    let (ub, expired) = filter(&inputs, shared, &mut stats, sources);
    stats.termination_ub = ub;
    stats.termination_lb = shared.streets.lbk();
    stats.deadline_expired = expired;

    // Street-level aggregation (Definition 3: max over segments) restricted
    // to seen segments — unseen ones have interest ≤ UB ≤ LBk and cannot
    // change the top-k membership.
    let rank_span = soi_obs::trace::span(soi_obs::names::spans::SOI_RANK);
    for entry in best.drain(..) {
        street_slot[entry.street.index()] = 0;
    }
    street_slot.resize(network.num_streets(), 0);
    for &(seg, mass) in &shared.masses {
        let s = network.segment(seg);
        let int = segment_interest(mass, s.len(), query.eps);
        let slot = &mut street_slot[s.street.index()];
        if *slot == 0 {
            best.push(StreetResult {
                street: s.street,
                interest: 0.0,
                best_segment: seg,
                best_segment_mass: 0.0,
            });
            *slot = best.len() as u32;
        }
        let entry = &mut best[*slot as usize - 1];
        if int > entry.interest || (int == entry.interest && seg < entry.best_segment) {
            entry.interest = int;
            entry.best_segment = seg;
            entry.best_segment_mass = mass;
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
    Ok(SoiOutcome {
        results,
        stats,
        partial: expired,
    })
}

/// Reusable working memory for [`run_soi`]: the dense per-cell /
/// per-segment / per-street tables, SL2, the gathered relevant-POI columns
/// and the k best street bounds, so a warm query allocates none of them.
///
/// Hold one per worker thread and pass it to
/// [`run_soi_full`]; results are identical to [`run_soi`]. Every
/// table is emptied on entry by walking what the previous query touched
/// and re-fitted to the network and grid at hand, so one scratch may serve
/// different datasets in turn. A worker retains about
/// `24·|grid cells| + 8·|runs| + 12·|streets|` bytes of tables (per cell:
/// `relcount`, the gathered range and the prefix sum at 8 bytes each; per
/// run: an SL2 entry at 8 bytes)
/// plus the high-water marks of SL2's heap of expanded members (8 bytes per
/// member, of `8·|segments|` reserved), of the popped segments' masses (16
/// bytes each) and of the gathered columns, the largest: 24 bytes per
/// distinct relevant POI in the cells visited by the heaviest query served
/// so far (of `24·|POIs|` bytes reserved, untouched beyond that mark).
#[derive(Default)]
pub struct SoiScratch {
    tables: Tables,
    prefix_sums: Vec<u64>,
    /// Runs (by index into [`RoadNetwork::runs`]) and their members.
    sl2: GroupedList<u32, SegmentId>,
    /// Rasterisation buffer for one segment's `Cε(ℓ)`.
    near_cells: Vec<CellId>,
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
) -> Result<SoiOutcome> {
    run_soi_full(
        network,
        pois,
        index,
        query,
        &mut SoiScratch::default(),
        None,
        QueryBudget::unlimited(),
    )
}

/// [`run_soi`] with caller-provided scratch space (see [`SoiScratch`]).
/// `_config` is inert ([`SoiConfig`] has no field).
///
/// # Errors
/// Same contract as [`run_soi`].
pub fn run_soi_with_scratch<'a>(
    network: &RoadNetwork,
    pois: impl Into<PoiView<'a>>,
    index: impl Into<IndexView<'a>>,
    query: &SoiQuery,
    _config: &SoiConfig,
    scratch: &mut SoiScratch,
) -> Result<SoiOutcome> {
    run_soi_full(
        network,
        pois,
        index,
        query,
        scratch,
        None,
        QueryBudget::unlimited(),
    )
}

/// [`run_soi`] with caller-provided scratch space (see [`SoiScratch`]), an
/// opt-in explain collector and an execution budget.
///
/// When `explain` is `Some`, the run records its bound trajectory (one
/// [`ExplainRow`] per source access, decimated), the runs SL2 lists after
/// construction, and a final termination row into the collector; results
/// are identical to [`run_soi`]. With `None` the hooks are a branch on an
/// `Option`.
///
/// `budget` gives anytime semantics. The deadline is checked every
/// [`BUDGET_CHECK_EVERY`] source-list accesses. On expiry the run stops
/// accessing, skips refinement, and returns the *current* lower-bound
/// top-k with [`partial`](SoiOutcome::partial) set: every returned
/// street's interest is a valid lower bound of its true interest and is at
/// least the recorded `LBk` ([`QueryStats::termination_lb`]) — Alg. 1
/// maintains a correct lower-bound ranking at every access, so a deadline
/// hit degrades the answer instead of erroring. With `None` and
/// [`QueryBudget::unlimited`] this *is* [`run_soi`] on a kept scratch.
///
/// # Errors
/// Same contract as [`run_soi`] — a deadline hit is *not* an error.
pub fn run_soi_full<'a>(
    network: &RoadNetwork,
    pois: impl Into<PoiView<'a>>,
    index: impl Into<IndexView<'a>>,
    query: &SoiQuery,
    scratch: &mut SoiScratch,
    mut explain: Option<&mut SoiExplain>,
    budget: QueryBudget,
) -> Result<SoiOutcome> {
    let SoiScratch {
        tables,
        prefix_sums,
        sl2,
        near_cells,
    } = scratch;
    let (pois, index) = (pois.into(), index.into());
    let eps = query.eps;
    let filter = |inputs: &Inputs<'_>, shared: &mut Shared, stats: &mut QueryStats, sources| {
        let (relcount, reached) = (inputs.relcount, inputs.reached);
        // --- SL2 (Alg. 1 lines 6–7): the segments with `b > 0`, ranked by
        // `b`, through the runs with `B > 0`, ranked by `B`.
        let bounds = RelPrefix::build(index.grid(), relcount, reached, eps, prefix_sums);
        let runs = network.runs();
        let listed = runs.iter().enumerate().filter_map(|(at, run)| {
            let b = bounds.run_bound(run);
            (b > 0.0).then(|| Ranked::new(b, at as u32))
        });
        sl2.refill(listed, network.num_segments());
        // A run's members with `b > 0`, ranked by `b`.
        let expand = move |run: u32| {
            let members = network.run_segments(&runs[run as usize]);
            members.iter().filter_map(move |&seg| {
                let b = bounds.segment_bound(network.segment(seg));
                (b > 0.0).then(|| Ranked::new(b, seg))
            })
        };
        drop(sources);
        if let Some(ex) = explain.as_deref_mut() {
            ex.sl2_runs = sl2.len();
        }

        access_loop(stats, explain.as_deref_mut(), &budget, |stats| {
            let head = sl2.peek(expand);
            let row = ExplainRow {
                ub: head.map_or(0.0, Ranked::score),
                lbk: shared.streets.lbk(),
                ..ExplainRow::default()
            };
            let Some(head) = head.filter(|_| row.ub > row.lbk) else {
                return ControlFlow::Break(row);
            };
            sl2.pop(expand);
            let seg = head.id();
            let s = network.segment(seg);
            stats.segments_popped += 1;
            stats.segments_seen += 1;
            stats.segments_finalized_filtering += 1;
            let mut mass = 0.0;
            if bounds.segment_bound(s) <= row.lbk {
                stats.segments_bounded_out += 1;
            } else {
                index.occupied_cells_near_segment_into(&s.geom, eps, near_cells);
                let upper: f64 = near_cells
                    .iter()
                    .map(|c| relcount[c.index()].max(0.0))
                    .sum();
                // A segment with no ε-cell is final on sight, not bounded
                // out. `upper` adds the weights in another order than the
                // mass does, so it is compared with its head-room.
                let upper = upper * HEADROOM;
                if !near_cells.is_empty() && segment_interest(upper, s.len(), eps) <= row.lbk {
                    stats.segments_bounded_out += 1;
                } else {
                    for &cell in near_cells.iter() {
                        mass += inputs.cell_mass(&mut shared.gathered, cell, &s.geom);
                    }
                    stats.cell_visits += near_cells.len();
                }
            }
            shared.masses.push((seg, mass));
            if mass > 0.0 {
                let int = segment_interest(mass, s.len(), eps);
                shared.streets.raise(s.street, int);
            }
            ControlFlow::Continue(row)
        })
    };
    let outcome = evaluate(tables, network, pois, index, query, filter)?;
    if let Some(ex) = explain {
        ex.finish(query, &outcome.stats);
    }
    crate::obs::absorb_query_stats(&outcome.stats);
    Ok(outcome)
}
