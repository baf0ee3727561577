//! Exhaustive optimal selection (for tests and quality analysis).
//!
//! MaxSum diversification is NP-hard (related to the dispersion problem
//! \[22\]); this module enumerates all `C(|Rs|, k)` subsets to find the true
//! optimum of Eq. 2 on *small* inputs, giving the test suite a yardstick
//! for the greedy heuristics.

use crate::describe::context::StreetContext;
use crate::describe::objective::objective;
use crate::describe::DescribeParams;
use soi_common::{PhotoId, Result, SoiError};
use soi_data::PhotoView;

/// Hard cap on `|Rs|` for exhaustive search.
pub(crate) const MAX_EXACT_MEMBERS: usize = 20;

/// Finds the subset of size `min(k, |Rs|)` maximising the objective `F`.
///
/// Ties are broken towards the lexicographically smallest id set. Returns
/// the optimal subset (ascending ids) and its objective value.
///
/// # Errors
/// Refuses inputs with more than `MAX_EXACT_MEMBERS` (20) member photos.
pub fn exact_select<'a>(
    ctx: &StreetContext,
    photos: impl Into<PhotoView<'a>>,
    params: &DescribeParams,
) -> Result<(Vec<PhotoId>, f64)> {
    let photos: PhotoView<'a> = photos.into();
    let n = ctx.members.len();
    if n > MAX_EXACT_MEMBERS {
        return Err(SoiError::invalid(format!(
            "exact_select is exponential; refusing |Rs| = {n} > {MAX_EXACT_MEMBERS}"
        )));
    }
    let k = params.k.min(n);
    if k == 0 {
        return Ok((Vec::new(), 0.0));
    }

    let mut best_set: Vec<PhotoId> = Vec::new();
    let mut best_val = f64::NEG_INFINITY;
    let mut current: Vec<PhotoId> = Vec::with_capacity(k);

    fn recurse(
        members: &[PhotoId],
        start: usize,
        k: usize,
        current: &mut Vec<PhotoId>,
        best_set: &mut Vec<PhotoId>,
        best_val: &mut f64,
        eval: &mut dyn FnMut(&[PhotoId]) -> f64,
    ) {
        if current.len() == k {
            let v = eval(current);
            if v > *best_val {
                *best_val = v;
                *best_set = current.clone();
            }
            return;
        }
        let needed = k - current.len();
        for i in start..=members.len().saturating_sub(needed) {
            current.push(members[i]);
            recurse(members, i + 1, k, current, best_set, best_val, eval);
            current.pop();
        }
    }

    let mut eval = |set: &[PhotoId]| objective(ctx, photos, params, set);
    recurse(
        &ctx.members,
        0,
        k,
        &mut current,
        &mut best_set,
        &mut best_val,
        &mut eval,
    );
    Ok((best_set, best_val))
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

    fn setup() -> (PhotoCollection, StreetContext) {
        let mut b = RoadNetwork::builder();
        b.add_street_from_points("Main", &[Point::new(0.0, 0.0), Point::new(10.0, 0.0)]);
        let network = b.build().unwrap();
        let mut photos = PhotoCollection::new();
        photos.add(Point::new(1.0, 0.0), tags(&[0, 1]));
        photos.add(Point::new(1.1, 0.0), tags(&[0, 1]));
        photos.add(Point::new(4.0, 0.2), tags(&[2]));
        photos.add(Point::new(6.0, -0.2), tags(&[3]));
        photos.add(Point::new(9.0, 0.0), tags(&[4, 5]));
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

    #[test]
    fn exact_upper_bounds_greedy() {
        let (photos, ctx) = setup();
        for &(k, lambda) in &[(2usize, 0.5), (3, 0.25), (3, 0.75)] {
            let params = DescribeParams::new(k, lambda, 0.5).unwrap();
            let (_, exact_val) = exact_select(&ctx, &photos, &params).unwrap();
            let greedy = greedy_select(&ctx, &photos, &params);
            assert!(
                exact_val >= greedy.objective - 1e-12,
                "exact {exact_val} < greedy {}",
                greedy.objective
            );
        }
    }

    #[test]
    fn pure_relevance_greedy_is_optimal() {
        let (photos, ctx) = setup();
        let params = DescribeParams::new(3, 0.0, 0.5).unwrap();
        let (exact_set, exact_val) = exact_select(&ctx, &photos, &params).unwrap();
        let greedy = greedy_select(&ctx, &photos, &params);
        // With lambda = 0, F is the mean relevance: greedy top-k is optimal.
        assert!((exact_val - greedy.objective).abs() < 1e-12);
        let mut g = greedy.selected.clone();
        g.sort();
        assert_eq!(g, exact_set);
    }

    #[test]
    fn k_at_least_members_selects_everything() {
        let (photos, ctx) = setup();
        let params = DescribeParams::new(10, 0.5, 0.5).unwrap();
        let (set, _) = exact_select(&ctx, &photos, &params).unwrap();
        assert_eq!(set.len(), ctx.members.len());
    }

    #[test]
    fn refuses_large_inputs() {
        let mut b = RoadNetwork::builder();
        b.add_street_from_points("Main", &[Point::new(0.0, 0.0), Point::new(30.0, 0.0)]);
        let network = b.build().unwrap();
        let mut photos = PhotoCollection::new();
        for i in 0..25 {
            photos.add(Point::new(i as f64, 0.1), tags(&[i as u32]));
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
        let params = DescribeParams::new(3, 0.5, 0.5).unwrap();
        assert!(exact_select(&ctx, &photos, &params).is_err());
    }
}
