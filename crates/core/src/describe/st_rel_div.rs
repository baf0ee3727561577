//! The ST_Rel+Div algorithm (paper Algorithm 2).
//!
//! Same greedy `mmr` loop as [`greedy_select`](crate::describe::greedy_select)
//! but each step first operates on grid cells:
//!
//! 1. **Filtering**: compute `[Bmin(c), Bmax(c)]` — the per-cell `mmr`
//!    bounds of Eqs. 11–18 — for every cell that still has unselected
//!    photos; discard cells with `Bmax(c) < max_c Bmin(c)`.
//! 2. **Refinement**: visit surviving cells in decreasing `Bmax` order,
//!    evaluating the exact `mmr` of their unselected photos and tightening
//!    the running best; once a cell's `Bmax` drops below the best exact
//!    value, all remaining cells are pruned.
//!
//! Unlike the naive baseline, the per-cell relevance bounds and each
//! photo's relevance (which depend on the street alone) are read from the
//! street's context and only blended with `w` — a cell's once per run, a
//! photo's when it is scored — the per-cell diversity-bound sums accumulate incrementally as photos are selected,
//! and each photo's running diversity sum is cached — so an iteration costs
//! `O(#cells)` bound work plus exact evaluations only for the photos of
//! surviving cells.
//!
//! The tie-break (higher `mmr`, then lower photo id) matches the baseline,
//! so both produce identical selections; summation order also matches,
//! keeping the floating-point results bit-identical.

use crate::budget::QueryBudget;
use crate::describe::bounds::{div_bounds_at, rel_bounds_at};
use crate::describe::context::StreetContext;
use crate::describe::explain::{DescribeExplain, DescribeRound};
use crate::describe::measures::{self, Picked};
use crate::describe::objective::objective;
use crate::describe::{DescribeOutcome, DescribeParams, DescribeStats};
use soi_common::{PhotoId, Result, SoiError};
use soi_data::PhotoView;
use soi_obs::names::phases;

/// Per-cell incremental bound state, one per slot of the index's occupied
/// list (so the table is in ascending cell-id order).
struct CellAcc {
    /// Unselected photos remaining in the cell.
    remaining: usize,
    /// Static combined relevance bounds (Eqs. 11–14).
    rel_lo: f64,
    rel_hi: f64,
    /// Accumulated diversity-bound sums against the selected photos
    /// (Eqs. 15–18, summed over the selection).
    div_lo_sum: f64,
    div_hi_sum: f64,
}

/// Per-photo incremental state, one per member slot of the index.
#[derive(Default, Clone, Copy)]
struct PhotoAcc {
    /// Diversity sum over the first `upto` selected photos.
    div_sum: f64,
    upto: usize,
    /// The photo is part of the selection.
    chosen: bool,
}

/// Reusable allocations for [`st_rel_div`], letting a batch of describe
/// calls share buffers instead of re-allocating the per-cell accumulators,
/// the per-photo table, the per-iteration candidate list and the selection
/// on every call. What depends on the street alone is not here: it is a
/// column of the [`StreetContext`].
///
/// Hold one per worker thread and pass it to [`st_rel_div_with_scratch`];
/// results are identical to [`st_rel_div`] (the buffers are cleared on
/// entry, never read).
#[derive(Default)]
pub struct DescribeScratch {
    cells: Vec<CellAcc>,
    /// `(cell slot, Bmax)` of the round's surviving cells.
    candidates: Vec<(usize, f64)>,
    photo_acc: Vec<PhotoAcc>,
    /// The selection so far, as the bounds and the exact `div` read it.
    picked: Vec<Picked>,
}

impl std::fmt::Debug for DescribeScratch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DescribeScratch").finish_non_exhaustive()
    }
}

/// Selects up to `params.k` photos with the bound-accelerated greedy.
///
/// This is a total function: hostile parameters and inconsistent inputs are
/// rejected with a typed error, and an empty street (no member photos)
/// yields an empty selection.
///
/// # Errors
/// Returns [`SoiError::InvalidInput`] when `params` violates its invariants
/// (`k = 0`, λ or w outside `[0, 1]`; see `DescribeParams::validate`) or
/// when `ctx` references photo ids outside `photos`.
pub fn st_rel_div<'a>(
    ctx: &StreetContext,
    photos: impl Into<PhotoView<'a>>,
    params: &DescribeParams,
) -> Result<DescribeOutcome> {
    st_rel_div_with_scratch(ctx, photos, params, &mut DescribeScratch::default())
}

/// [`st_rel_div`] with caller-provided scratch space (see
/// [`DescribeScratch`]).
///
/// # Errors
/// Same contract as [`st_rel_div`].
pub fn st_rel_div_with_scratch<'a>(
    ctx: &StreetContext,
    photos: impl Into<PhotoView<'a>>,
    params: &DescribeParams,
    scratch: &mut DescribeScratch,
) -> Result<DescribeOutcome> {
    st_rel_div_full(ctx, photos, params, scratch, None, QueryBudget::unlimited())
}

/// [`st_rel_div_with_scratch`] with an opt-in explain collector and an
/// execution budget.
///
/// When `explain` is `Some`, the run records one [`DescribeRound`] per
/// greedy selection round — candidate cells, filtering/refinement pruning,
/// photos scored, the winning `mmr` — into the collector; results are
/// identical to [`st_rel_div`]. With `None` the hooks are a branch on an
/// `Option`.
///
/// `budget` gives anytime semantics. The deadline is checked once per
/// greedy round. On expiry the run stops selecting and returns the photos
/// chosen so far with [`partial`](DescribeOutcome::partial) set — the
/// greedy selection is incremental, so every prefix is itself the exact
/// greedy answer for its length. With `None` and
/// [`QueryBudget::unlimited`] this *is* [`st_rel_div_with_scratch`].
///
/// # Errors
/// Same contract as [`st_rel_div`] — a deadline hit is *not* an error.
pub fn st_rel_div_full<'a>(
    ctx: &StreetContext,
    photos: impl Into<PhotoView<'a>>,
    params: &DescribeParams,
    scratch: &mut DescribeScratch,
    mut explain: Option<&mut DescribeExplain>,
    budget: QueryBudget,
) -> Result<DescribeOutcome> {
    let photos: PhotoView<'a> = photos.into();
    params.validate()?;
    if let Some(&max_member) = ctx.members.iter().max() {
        if max_member.index() >= photos.len() {
            return Err(SoiError::invalid(format!(
                "street context references photo {max_member} but the collection has {} photos",
                photos.len()
            )));
        }
    }
    let _query_span = soi_obs::trace::span(soi_obs::names::spans::DESCRIBE_QUERY);
    let mut stats = DescribeStats::default();
    let index = &ctx.index;

    let mut selected: Vec<PhotoId> = Vec::with_capacity(params.k.min(ctx.members.len()));
    let DescribeScratch {
        cells,
        candidates,
        photo_acc,
        picked,
    } = scratch;
    picked.clear();
    photo_acc.clear();
    photo_acc.resize(index.photos().len(), PhotoAcc::default());

    stats.timer.enter(phases::FILTERING);
    cells.clear();
    cells.extend((0..index.occupied().len()).map(|slot| {
        let (rel_lo, rel_hi) = rel_bounds_at(ctx, params.w, slot);
        CellAcc {
            remaining: index.member_slots(slot).len(),
            rel_lo,
            rel_hi,
            div_lo_sum: 0.0,
            div_hi_sum: 0.0,
        }
    }));
    let div_scale = if params.k > 1 {
        params.lambda / (params.k as f64 - 1.0)
    } else {
        0.0
    };
    let one_minus_lambda = 1.0 - params.lambda;
    stats.timer.stop();

    // Exact mmr from the context's relevance column and incrementally
    // topped-up div sums. Summation order equals the baseline's (selection
    // order), so results are bit-identical.
    let exact_mmr = |r: PhotoId, member: usize, picked: &[Picked], acc: &mut PhotoAcc| -> f64 {
        let rel = measures::rel_at(ctx, params.w, member);
        let mut div_sum = acc.div_sum;
        for r2 in &picked[acc.upto..] {
            div_sum += measures::div_at(ctx, photos, params.w, (r, member), r2);
        }
        acc.div_sum = div_sum;
        acc.upto = picked.len();
        let mut score = one_minus_lambda * rel;
        if params.k > 1 && !picked.is_empty() {
            score += div_scale * div_sum;
        }
        score
    };

    // Checked once per greedy round: each completed round's selection is a
    // valid (exact) greedy prefix, so stopping between rounds degrades the
    // summary length, never its per-photo quality.
    let mut expired = budget.expired();
    while !expired && selected.len() < params.k && selected.len() < ctx.members.len() {
        let round_no = selected.len() + 1;
        // Per-round span: traces resolve greedy rounds individually below
        // describe.query (drops on every loop exit).
        let _round_span = soi_obs::trace::span(soi_obs::names::spans::DESCRIBE_ROUND);
        // Round-start counter snapshot, so the explain row can report the
        // refinement work attributable to this round alone.
        let snap = (
            stats.cells_refined,
            stats.cells_pruned_refinement,
            stats.photos_evaluated,
        );
        // --- Filtering phase: per-cell mmr bounds from the accumulators.
        stats.timer.enter(phases::FILTERING);
        let use_div = params.k > 1 && !selected.is_empty();
        candidates.clear();
        let mut mmr_min = f64::NEG_INFINITY;
        for (slot, cell) in cells.iter().enumerate() {
            if cell.remaining == 0 {
                continue;
            }
            let mut lo = one_minus_lambda * cell.rel_lo;
            let mut hi = one_minus_lambda * cell.rel_hi;
            if use_div {
                lo += div_scale * cell.div_lo_sum;
                hi += div_scale * cell.div_hi_sum;
            }
            if lo > mmr_min {
                mmr_min = lo;
            }
            candidates.push((slot, hi));
        }
        let before = candidates.len();
        // Keep candidate cells whose upper bound can reach the best lower
        // bound (Alg. 2 line 9; non-strict to preserve ties).
        candidates.retain(|&(_, hi)| hi >= mmr_min);
        stats.cells_pruned_filtering += before - candidates.len();
        // Priority order: descending upper bound, ties by ascending cell id
        // (= ascending slot). The keys are distinct, so the unstable sort
        // yields the one possible order.
        candidates.sort_unstable_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));

        // --- Refinement phase: exact mmr over surviving cells.
        stats.timer.enter(phases::REFINEMENT);
        // (mmr, photo, member slot, cell slot) of the running best.
        let mut best: Option<(f64, PhotoId, usize, usize)> = None;
        for (idx, &(slot, hi)) in candidates.iter().enumerate() {
            if let Some((bv, ..)) = best {
                if hi < bv {
                    // Cells are sorted by Bmax: everything after is pruned too.
                    stats.cells_pruned_refinement += candidates.len() - idx;
                    break;
                }
            }
            stats.cells_refined += 1;
            for member in index.member_slots(slot) {
                let acc = &mut photo_acc[member];
                if acc.chosen {
                    continue;
                }
                let r = index.photos()[member];
                let v = exact_mmr(r, member, picked, acc);
                stats.photos_evaluated += 1;
                let better = match best {
                    None => true,
                    Some((bv, bid, ..)) => v > bv || (v == bv && r < bid),
                };
                if better {
                    best = Some((v, r, member, slot));
                }
            }
        }
        stats.timer.stop();

        if let Some(ex) = explain.as_deref_mut() {
            ex.record(DescribeRound {
                round: round_no,
                cells_candidate: before,
                cells_pruned_filtering: before - candidates.len(),
                cells_refined: stats.cells_refined - snap.0,
                cells_pruned_refinement: stats.cells_pruned_refinement - snap.1,
                photos_scored: stats.photos_evaluated - snap.2,
                mmr_min,
                best_mmr: best.map(|(v, ..)| v),
                selected: best.map(|(_, p, ..)| p),
            });
        }

        // No evaluable candidate left (every remaining cell is empty):
        // the selection is as large as it can get.
        let Some((_, next, next_member, next_cell)) = best else {
            stats.timer.stop();
            break;
        };
        selected.push(next);
        picked.push(Picked::new(ctx, photos, next));
        photo_acc[next_member].chosen = true;

        // --- Incremental updates for the new selection.
        stats.timer.enter(phases::FILTERING);
        cells[next_cell].remaining -= 1;
        if params.k > 1 {
            let next = &picked[picked.len() - 1];
            for (slot, cell) in cells.iter_mut().enumerate() {
                if cell.remaining > 0 {
                    let (dl, du) = div_bounds_at(ctx, photos, params.w, slot, next);
                    cell.div_lo_sum += dl;
                    cell.div_hi_sum += du;
                }
            }
        }
        stats.timer.stop();

        if budget.expired() {
            expired = true;
        }
    }
    stats.deadline_expired = expired;

    let objective = objective(ctx, photos, params, &selected);

    crate::obs::absorb_describe_stats(&stats);

    if let Some(ex) = explain {
        ex.finish(&stats);
    }

    Ok(DescribeOutcome {
        selected,
        objective,
        stats,
        partial: expired,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::describe::context::{ContextBuilder, PhiSource};
    use crate::describe::greedy::greedy_select;
    use soi_common::{KeywordId, StreetId};
    use soi_data::PhotoCollection;
    use soi_geo::Point;
    use soi_index::PhotoGrid;
    use soi_network::RoadNetwork;
    use soi_text::KeywordSet;

    fn tags(ids: &[u32]) -> KeywordSet {
        KeywordSet::from_ids(ids.iter().map(|&i| KeywordId(i)))
    }

    fn build_ctx(photo_specs: &[(f64, f64, Vec<u32>)]) -> (PhotoCollection, StreetContext) {
        let mut b = RoadNetwork::builder();
        b.add_street_from_points("Main", &[Point::new(0.0, 0.0), Point::new(10.0, 0.0)]);
        let network = b.build().unwrap();
        let mut photos = PhotoCollection::new();
        for (x, y, ts) in photo_specs {
            photos.add(Point::new(*x, *y), tags(ts));
        }
        let grid = PhotoGrid::build(&network, &photos, 1.0);
        let ctx = ContextBuilder {
            network: &network,
            photos: &photos,
            photo_grid: &grid,
            pois: None,
            eps: 0.5,
            rho: 0.4,
            phi_source: PhiSource::Photos,
        }
        .build(StreetId(0))
        .unwrap();
        (photos, ctx)
    }

    fn spread_specs() -> Vec<(f64, f64, Vec<u32>)> {
        vec![
            (1.0, 0.0, vec![0, 1]),
            (1.1, 0.05, vec![0, 1]),
            (1.2, -0.05, vec![0]),
            (3.0, 0.2, vec![2]),
            (5.0, -0.3, vec![3, 4]),
            (7.0, 0.1, vec![0, 5]),
            (9.0, 0.0, vec![6]),
            (9.2, 0.1, vec![6, 7]),
        ]
    }

    #[test]
    fn matches_greedy_baseline_exactly() {
        let (photos, ctx) = build_ctx(&spread_specs());
        for &(k, lambda, w) in &[
            (1usize, 0.5, 0.5),
            (3, 0.0, 0.5),
            (3, 1.0, 0.5),
            (4, 0.5, 0.0),
            (4, 0.5, 1.0),
            (5, 0.25, 0.75),
            (8, 0.5, 0.5),
        ] {
            let params = DescribeParams::new(k, lambda, w).unwrap();
            let fast = st_rel_div(&ctx, &photos, &params).unwrap();
            let slow = greedy_select(&ctx, &photos, &params);
            assert_eq!(
                fast.selected, slow.selected,
                "mismatch at k={k} lambda={lambda} w={w}"
            );
            assert_eq!(fast.objective, slow.objective);
        }
    }

    #[test]
    fn prunes_work_relative_to_baseline() {
        let (photos, ctx) = build_ctx(&spread_specs());
        let params = DescribeParams::new(3, 0.5, 0.5).unwrap();
        let fast = st_rel_div(&ctx, &photos, &params).unwrap();
        let slow = greedy_select(&ctx, &photos, &params);
        // The accelerated version must never evaluate more photos.
        assert!(fast.stats.photos_evaluated <= slow.stats.photos_evaluated);
    }

    #[test]
    fn all_zero_mmr_still_selects_deterministically() {
        // Photos with no tags and lambda = 1 (first pick has mmr 0 for all).
        let (photos, ctx) =
            build_ctx(&[(1.0, 0.0, vec![]), (2.0, 0.0, vec![]), (3.0, 0.0, vec![])]);
        let params = DescribeParams::new(2, 1.0, 0.5).unwrap();
        let fast = st_rel_div(&ctx, &photos, &params).unwrap();
        let slow = greedy_select(&ctx, &photos, &params);
        assert_eq!(fast.selected, slow.selected);
        assert_eq!(fast.selected.len(), 2);
    }

    #[test]
    fn single_photo_street() {
        let (photos, ctx) = build_ctx(&[(1.0, 0.0, vec![0])]);
        let params = DescribeParams::new(3, 0.5, 0.5).unwrap();
        let out = st_rel_div(&ctx, &photos, &params).unwrap();
        assert_eq!(out.selected.len(), 1);
    }
}
