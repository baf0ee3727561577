//! Per-cell bounds for the ST_Rel+Div algorithm (paper Eqs. 11–18).
//!
//! For a grid cell `c` of the diversification index, these functions bound
//! each component of the `mmr` objective over *all photos in the cell*,
//! using only the cell's aggregates: photo count, keyword set `c.Ψ`, and
//! tag-count range `[c.ψmin, c.ψmax]`. Since the bounds hold for every
//! member photo, they remain valid for any not-yet-selected subset.
//!
//! The relevance bounds (Eqs. 11–14) depend on the street alone: the
//! context's build takes them once per cell, and a request only blends
//! them with its `w`.

use crate::describe::context::StreetContext;
use crate::describe::measures::Picked;
use crate::describe::DescribeParams;
use soi_common::{CellId, PhotoId};
use soi_data::PhotoView;
use soi_geo::Point;
use soi_index::DivCell;
use soi_text::sorted_intersection_size;

/// Bounds on the spatial relevance of any photo in the cell at `slot`
/// (Eqs. 11–12).
///
/// Lower: the cell's own photos all lie within ρ (cell side is ρ/2).
/// Upper: the radius-2 cell neighbourhood covers every point within ρ.
fn spatial_rel_bounds(ctx: &StreetContext, slot: usize) -> (f64, f64) {
    let n = ctx.index.num_photos();
    let lower = ctx.index.member_slots(slot).len() as f64 / n as f64;
    let upper = ctx.index.neighborhood_count(slot) as f64 / n as f64;
    (lower, upper)
}

/// Bounds on the textual relevance of any photo in `cell` (Eqs. 13–14),
/// via the extremal keyword sets `Ψ−(c|s)` / `Ψ+(c|s)`; `positive` is
/// scratch.
///
/// Any photo in the cell has between `ψmin` and `ψmax` tags, all drawn from
/// `c.Ψ`. The minimum Φs-sum takes zero-weight keywords first, then the
/// cheapest positive ones; the maximum takes the `ψmax` heaviest.
fn textual_rel_bounds(ctx: &StreetContext, cell: &DivCell, positive: &mut Vec<f64>) -> (f64, f64) {
    let l1 = ctx.phi.l1_norm();
    if l1 == 0.0 {
        return (0.0, 0.0);
    }
    positive.clear();
    positive.extend(
        cell.keywords
            .iter()
            .map(|&k| ctx.phi.weight(k))
            .filter(|&w| w > 0.0),
    );
    // Ascending. Weights equal under `total_cmp` are the same bits, so the
    // unstable sort yields the one possible sequence.
    positive.sort_unstable_by(f64::total_cmp);

    let zero_count = cell.keywords.len() - positive.len();
    let must_take = cell.psi_min.saturating_sub(zero_count);
    let lower: f64 = positive.iter().take(must_take).sum();

    let take_upper = cell.psi_max.min(positive.len());
    let upper: f64 = positive.iter().rev().take(take_upper).sum();

    (lower / l1, upper / l1)
}

/// Bounds on the spatial diversity between the photo at `pos` and any photo
/// in the cell at `slot` (Eqs. 15–16): min/max point-to-rect distance over
/// `maxD(s)`.
fn spatial_div_bounds(ctx: &StreetContext, slot: usize, pos: Point) -> (f64, f64) {
    if ctx.max_d == 0.0 {
        return (0.0, 0.0);
    }
    let rect = ctx.index.cell_rect(slot);
    (
        rect.mindist_to_point(pos) / ctx.max_d,
        rect.maxdist_to_point(pos) / ctx.max_d,
    )
}

/// Bounds on the textual (Jaccard) diversity between a photo `r` with `nr`
/// tags, `m = |c.Ψ ∩ Ψr|` of them among the cell's, and any photo in `cell`
/// (Eqs. 17–18).
///
/// Derivation: a cell photo has `n′ ∈ [ψmin, ψmax]` tags from `c.Ψ`, of
/// which `m` could be shared.
/// - Similarity is maximised (diversity minimised) by `i* = min(m, ψmax)`
///   shared tags and the fewest extras: `sim = i*/(|Ψr| + max(i*, ψmin) − i*)`.
/// - Similarity is minimised (diversity maximised) by avoiding shared tags:
///   with `z = |c.Ψ \ Ψr|` avoidable tags, diversity is 1 when `z ≥ ψmin`,
///   else `1 − (ψmin − z)/(|Ψr| + z)`.
fn textual_div_bounds(cell: &DivCell, m: usize, nr: usize) -> (f64, f64) {
    let i_star = m.min(cell.psi_max);
    let denom = nr + cell.psi_min.max(i_star) - i_star;
    let lower = if denom == 0 {
        0.0 // both sets can be empty: identical by convention
    } else {
        1.0 - i_star as f64 / denom as f64
    };

    let z = cell.keywords.len() - m;
    let upper = if z >= cell.psi_min {
        1.0
    } else {
        let denom = nr + z;
        if denom == 0 {
            1.0 // r untagged, cell photos necessarily tagged: fully diverse
        } else {
            1.0 - (cell.psi_min - z) as f64 / denom as f64
        }
    };

    (lower, upper)
}

/// The context's cell relevance column: `[sl, su, tl, tu]` of Eqs. 11–14
/// for every occupied cell, by cell slot. Only the context's build calls
/// this; every later read is its `cell_rel`.
pub(crate) fn cell_relevance_bounds(ctx: &StreetContext) -> Vec<[f64; 4]> {
    let cells = ctx.index.occupied().len();
    let widest = (0..cells).map(|slot| ctx.index.cell_at(slot).keywords.len());
    let mut weights = Vec::with_capacity(widest.max().unwrap_or(0));
    let mut column = Vec::with_capacity(cells);
    for slot in 0..cells {
        let (sl, su) = spatial_rel_bounds(ctx, slot);
        let (tl, tu) = textual_rel_bounds(ctx, &ctx.index.cell_at(slot), &mut weights);
        column.push([sl, su, tl, tu]);
    }
    column
}

/// [`cell_rel_bounds`] of the cell at `slot` of the index's occupied list.
pub(crate) fn rel_bounds_at(ctx: &StreetContext, w: f64, slot: usize) -> (f64, f64) {
    let [sl, su, tl, tu] = ctx.cell_rel[slot];
    (w * sl + (1.0 - w) * tl, w * su + (1.0 - w) * tu)
}

/// [`cell_div_bounds`] of the cell at `slot` of the index's occupied list
/// against the selected photo `r`.
pub(crate) fn div_bounds_at(
    ctx: &StreetContext,
    photos: PhotoView<'_>,
    w: f64,
    slot: usize,
    r: &Picked,
) -> (f64, f64) {
    let (sl, su) = spatial_div_bounds(ctx, slot, r.pos);
    let cell = ctx.index.cell_at(slot);
    let m = match (ctx.index.kw_mask(slot), r.tag_mask) {
        (Some(keywords), Some(tags)) => (keywords & tags).count_ones() as usize,
        _ => sorted_intersection_size(cell.keywords, photos.get(r.id).tags.ids()),
    };
    let (tl, tu) = textual_div_bounds(&cell, m, r.num_tags);
    (w * sl + (1.0 - w) * tl, w * su + (1.0 - w) * tu)
}

/// Bounds on the combined relevance `w·spatial_rel + (1−w)·textual_rel` of
/// any photo in cell `id` (`(0, 0)` for an unoccupied cell: no photos to
/// bound).
pub fn cell_rel_bounds(ctx: &StreetContext, w: f64, id: CellId) -> (f64, f64) {
    match ctx.index.slot_of(id) {
        Some(slot) => rel_bounds_at(ctx, w, slot),
        None => (0.0, 0.0),
    }
}

/// Bounds on the combined diversity `w·spatial_div + (1−w)·textual_div`
/// between photo `r` and any photo in cell `id` (`(0, 0)` for an unoccupied
/// cell).
pub fn cell_div_bounds<'a>(
    ctx: &StreetContext,
    photos: impl Into<PhotoView<'a>>,
    w: f64,
    id: CellId,
    r: PhotoId,
) -> (f64, f64) {
    let photos: PhotoView<'a> = photos.into();
    match ctx.index.slot_of(id) {
        Some(slot) => div_bounds_at(ctx, photos, w, slot, &Picked::new(ctx, photos, r)),
        None => (0.0, 0.0),
    }
}

/// Bounds on the `mmr` score (Eq. 10) of any photo in cell `id` against the
/// partially built selection.
pub fn cell_mmr_bounds<'a>(
    ctx: &StreetContext,
    photos: impl Into<PhotoView<'a>>,
    params: &DescribeParams,
    id: CellId,
    selected: &[PhotoId],
) -> (f64, f64) {
    let photos: PhotoView<'a> = photos.into();
    let (rl, ru) = cell_rel_bounds(ctx, params.w, id);
    let mut lower = (1.0 - params.lambda) * rl;
    let mut upper = (1.0 - params.lambda) * ru;
    if params.k > 1 && !selected.is_empty() {
        let scale = params.lambda / (params.k as f64 - 1.0);
        for &r in selected {
            let (dl, du) = cell_div_bounds(ctx, photos, params.w, id, r);
            lower += scale * dl;
            upper += scale * du;
        }
    }
    (lower, upper)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::describe::context::tests::assert_relevance_columns_equal_the_records;
    use crate::describe::context::{ContextBuilder, PhiSource};
    use crate::describe::{measures, objective};
    use soi_common::{KeywordId, StreetId};
    use soi_data::PhotoCollection;
    use soi_geo::Point;
    use soi_index::PhotoGrid;
    use soi_network::RoadNetwork;
    use soi_text::KeywordSet;

    fn tags(ids: &[u32]) -> KeywordSet {
        KeywordSet::from_ids(ids.iter().map(|&i| KeywordId(i)))
    }

    fn setup() -> (PhotoCollection, StreetContext) {
        let mut b = RoadNetwork::builder();
        b.add_street_from_points("Main", &[Point::new(0.0, 0.0), Point::new(10.0, 0.0)]);
        let network = b.build().unwrap();
        let mut photos = PhotoCollection::new();
        photos.add(Point::new(0.5, 0.1), tags(&[0, 1]));
        photos.add(Point::new(0.55, 0.12), tags(&[0]));
        photos.add(Point::new(0.6, 0.05), tags(&[1, 2, 3]));
        photos.add(Point::new(4.0, -0.2), tags(&[2]));
        photos.add(Point::new(8.0, 0.3), tags(&[4, 5]));
        photos.add(Point::new(8.1, 0.25), tags(&[]));
        let grid = PhotoGrid::build(&network, &photos, 1.0);
        let ctx = ContextBuilder {
            network: &network,
            photos: &photos,
            photo_grid: &grid,
            pois: None,
            eps: 0.5,
            rho: 0.3,
            phi_source: PhiSource::Photos,
        }
        .build(StreetId(0))
        .unwrap();
        (photos, ctx)
    }

    /// Streets whose relevance bounds are easiest to get wrong by an ulp,
    /// one per ρ: a street shorter than ρ, photos on a lattice of the ρ/2
    /// cell edges (pairs of them exactly ρ apart) and one ulp either side
    /// of an edge, and coincident photos.
    fn adversarial() -> Vec<(PhotoCollection, StreetContext)> {
        [0.4, 0.5, 0.3, 1e-4]
            .into_iter()
            .map(|rho: f64| {
                let mut b = RoadNetwork::builder();
                b.add_street_from_points(
                    "Short",
                    &[Point::new(0.0, 0.0), Point::new(0.75 * rho, 0.0)],
                );
                let network = b.build().unwrap();
                let half = rho / 2.0;
                let mut photos = PhotoCollection::new();
                for i in 0..5u32 {
                    for j in 0..5u32 {
                        let at = Point::new(f64::from(i) * half, (f64::from(j) - 2.0) * half);
                        photos.add(at, tags(&[i % 3, 3 + (i + j) % 2]));
                    }
                }
                for i in 0..4u32 {
                    photos.add(Point::new(half, half), tags(&[i]));
                }
                let edge = half;
                for x in [edge.next_down(), edge.next_up()] {
                    photos.add(Point::new(x, rho), tags(&[0, 1, 2, 3]));
                }
                let grid = PhotoGrid::build(&network, &photos, 2.0 * rho);
                let ctx = ContextBuilder {
                    network: &network,
                    photos: &photos,
                    photo_grid: &grid,
                    pois: None,
                    eps: 2.0 * rho,
                    rho,
                    phi_source: PhiSource::Photos,
                }
                .build(StreetId(0))
                .unwrap();
                assert_eq!(ctx.members.len(), photos.len(), "rho {rho}");
                assert_relevance_columns_equal_the_records(&ctx, (&photos).into());
                (photos, ctx)
            })
            .collect()
    }

    /// Under `PhiSource::Photos` every weight of `Φs` is a count, so the
    /// sums of Eqs. 13–14 and of Definition 6 are exact, and `f64` rounding
    /// is monotone under the non-negative division and blend: the bounds
    /// hold to the bit, with no tolerance.
    #[test]
    fn rel_bounds_sandwich_exact_values() {
        for (photos, ctx) in std::iter::once(setup()).chain(adversarial()) {
            for w in [0.0, 0.3, 1.0] {
                for &id in ctx.index.occupied() {
                    let (lo, hi) = cell_rel_bounds(&ctx, w, id);
                    assert!(lo <= hi);
                    for &r in ctx.index.cell(id).unwrap().photos {
                        let exact = measures::rel(&ctx, &photos, w, r);
                        assert!(
                            lo <= exact && exact <= hi,
                            "rel bound violated: rho={} w={w} cell={id:?} r={r} \
                             lo={lo} exact={exact} hi={hi}",
                            2.0 * ctx.index.grid().cell_size()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn div_bounds_sandwich_exact_values() {
        let (photos, ctx) = setup();
        for w in [0.0, 0.5, 1.0] {
            for &id in ctx.index.occupied() {
                for &probe in &ctx.members {
                    let (lo, hi) = cell_div_bounds(&ctx, &photos, w, id, probe);
                    assert!(lo <= hi + 1e-12);
                    for &r in ctx.index.cell(id).unwrap().photos {
                        let exact = measures::div(&ctx, &photos, w, probe, r);
                        assert!(
                            lo <= exact + 1e-9 && exact <= hi + 1e-9,
                            "div bound violated: w={w} cell={id:?} probe={probe} r={r} \
                             lo={lo} exact={exact} hi={hi}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn mmr_bounds_sandwich_exact_values() {
        let (photos, ctx) = setup();
        let params = DescribeParams::new(3, 0.5, 0.5).unwrap();
        let selected = [ctx.members[0], ctx.members[3]];
        for &id in ctx.index.occupied() {
            let (lo, hi) = cell_mmr_bounds(&ctx, &photos, &params, id, &selected);
            for &r in ctx.index.cell(id).unwrap().photos {
                let exact = objective::mmr(&ctx, &photos, &params, r, &selected);
                assert!(
                    lo <= exact + 1e-9 && exact <= hi + 1e-9,
                    "mmr bound violated: cell={id:?} r={r} lo={lo} exact={exact} hi={hi}"
                );
            }
        }
    }

    #[test]
    fn textual_div_bounds_edge_cases() {
        // Cell with untagged photos only.
        let cell = DivCell {
            photos: &[],
            keywords: &[],
            psi_min: 0,
            psi_max: 0,
        };
        // r untagged too: both can be empty -> lower 0; upper 1 (sound).
        let (lo, hi) = textual_div_bounds(&cell, 0, 0);
        assert_eq!(lo, 0.0);
        assert!(hi >= 0.0);
        // r tagged: all cell photos empty -> jaccard distance exactly 1.
        let (lo, hi) = textual_div_bounds(&cell, 0, 2);
        assert_eq!(lo, 1.0);
        assert_eq!(hi, 1.0);
    }

    #[test]
    fn textual_div_bounds_forced_overlap() {
        // Cell keywords all shared with r, psi_min = psi_max = 2, so every
        // cell photo shares >= ... diversity is constrained below 1.
        let cell = DivCell {
            photos: &[],
            keywords: &[KeywordId(0), KeywordId(1)],
            psi_min: 2,
            psi_max: 2,
        };
        let (lo, hi) = textual_div_bounds(&cell, 2, 2);
        // Cell photo must be exactly {0,1} = Ψr: diversity 0.
        assert_eq!(lo, 0.0);
        assert_eq!(hi, 0.0);
    }
}
