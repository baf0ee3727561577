//! The relevance–diversity trade-off (paper Fig. 5).
//!
//! The paper frames choosing λ as an investment problem: "in order to
//! increase the diversity of the result set (the return), we have to
//! sacrifice its relevance (the investment) … the goal is to figure out an
//! acceptable investment that is 'value for money'". This module runs the
//! λ sweep and picks the knee of the resulting curve — the λ after which
//! additional diversity costs disproportionate relevance.

use crate::describe::context::StreetContext;
use crate::describe::objective::{set_diversity, set_relevance};
use crate::describe::st_rel_div::st_rel_div;
use crate::describe::DescribeParams;
use soi_common::{Result, SoiError};
use soi_data::PhotoView;

/// One point of the trade-off curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TradeoffPoint {
    /// The λ used for selection.
    pub(crate) lambda: f64,
    /// The selection's set relevance (Eq. 4).
    pub relevance: f64,
    /// The selection's set diversity (Eq. 5).
    pub diversity: f64,
}

/// Runs the λ sweep: selects a k-photo summary per λ and measures its
/// relevance and diversity (both with weight `w`).
///
/// # Errors
/// Propagates parameter validation errors; requires at least one λ.
pub fn sweep_lambda<'a>(
    ctx: &StreetContext,
    photos: impl Into<PhotoView<'a>>,
    k: usize,
    w: f64,
    lambdas: &[f64],
) -> Result<Vec<TradeoffPoint>> {
    let photos: PhotoView<'a> = photos.into();
    if lambdas.is_empty() {
        return Err(SoiError::invalid("need at least one lambda"));
    }
    let mut out = Vec::with_capacity(lambdas.len());
    for &lambda in lambdas {
        let params = DescribeParams::new(k, lambda, w)?;
        let selection = st_rel_div(ctx, photos, &params)?;
        out.push(TradeoffPoint {
            lambda,
            relevance: set_relevance(ctx, photos, w, &selection.selected),
            diversity: set_diversity(ctx, photos, w, &selection.selected),
        });
    }
    Ok(out)
}

/// Picks the knee of a trade-off curve: the point with the largest
/// perpendicular distance to the chord between the first and last points
/// in (relevance, diversity) space, each axis normalised to `[0, 1]`.
///
/// Returns the index into `points` (`None` for fewer than 3 points —
/// there is no interior to pick from).
pub fn knee(points: &[TradeoffPoint]) -> Option<usize> {
    if points.len() < 3 {
        return None;
    }
    let (min_r, max_r) = points
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), p| {
            (lo.min(p.relevance), hi.max(p.relevance))
        });
    let (min_d, max_d) = points
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), p| {
            (lo.min(p.diversity), hi.max(p.diversity))
        });
    let span_r = (max_r - min_r).max(1e-12);
    let span_d = (max_d - min_d).max(1e-12);
    let norm = |p: &TradeoffPoint| {
        (
            (p.relevance - min_r) / span_r,
            (p.diversity - min_d) / span_d,
        )
    };

    let (x0, y0) = norm(&points[0]);
    let Some(last) = points.last() else {
        return None; // unreachable: len >= 3 checked above
    };
    let (x1, y1) = norm(last);
    let (dx, dy) = (x1 - x0, y1 - y0);
    let chord = (dx * dx + dy * dy).sqrt().max(1e-12);

    let mut best: Option<(usize, f64)> = None;
    for (i, p) in points.iter().enumerate().skip(1).take(points.len() - 2) {
        let (x, y) = norm(p);
        // Perpendicular distance from (x, y) to the chord.
        let dist = ((x - x0) * dy - (y - y0) * dx).abs() / chord;
        if best.is_none_or(|(_, d)| dist > d) {
            best = Some((i, dist));
        }
    }
    best.map(|(i, _)| i)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pt(lambda: f64, relevance: f64, diversity: f64) -> TradeoffPoint {
        TradeoffPoint {
            lambda,
            relevance,
            diversity,
        }
    }

    #[test]
    fn knee_finds_the_elbow() {
        // Diversity rises steeply then flattens: the knee is where the
        // curve bends (index 1).
        let curve = [
            pt(0.0, 1.00, 0.10),
            pt(0.25, 0.95, 0.80),
            pt(0.5, 0.85, 0.88),
            pt(0.75, 0.70, 0.94),
            pt(1.0, 0.50, 1.00),
        ];
        assert_eq!(knee(&curve), Some(1));
    }

    #[test]
    fn knee_of_straight_line_is_stable() {
        // On a perfectly straight trade-off, every interior point has
        // distance ~0; the first interior point wins deterministically.
        let curve = [pt(0.0, 1.0, 0.0), pt(0.5, 0.5, 0.5), pt(1.0, 0.0, 1.0)];
        assert_eq!(knee(&curve), Some(1));
    }

    #[test]
    fn knee_requires_three_points() {
        assert_eq!(knee(&[]), None);
        assert_eq!(knee(&[pt(0.0, 1.0, 0.0)]), None);
        assert_eq!(knee(&[pt(0.0, 1.0, 0.0), pt(1.0, 0.0, 1.0)]), None);
    }

    #[test]
    fn degenerate_flat_curve_does_not_crash() {
        let curve = [pt(0.0, 0.5, 0.5), pt(0.5, 0.5, 0.5), pt(1.0, 0.5, 0.5)];
        // All points coincide after normalisation; any interior index is
        // acceptable, but it must not panic or return None.
        assert!(knee(&curve).is_some());
    }
}
