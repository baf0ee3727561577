//! k-SOI query and result types.

use crate::soi::stats::QueryStats;
use soi_common::{Result, SegmentId, SoiError, StreetId};
use soi_text::KeywordSet;

/// The k-SOI query `q = ⟨Ψ, k, ε⟩` (Problem 1).
#[derive(Debug, Clone)]
pub struct SoiQuery {
    /// The query keyword set `Ψ` (interned ids).
    pub keywords: KeywordSet,
    /// Number of streets to return.
    pub k: usize,
    /// Distance threshold ε: a POI contributes to a segment's mass when it
    /// lies within ε of the segment.
    pub eps: f64,
}

impl SoiQuery {
    /// Creates a validated query.
    ///
    /// # Errors
    /// Rejects `k = 0` and non-positive or non-finite ε.
    pub fn new(keywords: KeywordSet, k: usize, eps: f64) -> Result<Self> {
        let q = Self { keywords, k, eps };
        q.validate()?;
        Ok(q)
    }

    /// Re-checks the query invariants (`k ≥ 1`, `ε` positive and finite).
    ///
    /// The fields are public, so [`run_soi`](crate::soi::run_soi) revalidates at
    /// the API boundary rather than trusting construction-time checks.
    ///
    /// # Errors
    /// Rejects `k = 0` and non-positive or non-finite ε.
    pub fn validate(&self) -> Result<()> {
        if self.k == 0 {
            return Err(SoiError::invalid("k must be at least 1"));
        }
        if !(self.eps > 0.0 && self.eps.is_finite()) {
            return Err(SoiError::invalid(format!(
                "eps must be positive and finite, got {}",
                self.eps
            )));
        }
        Ok(())
    }
}

/// Inert: has no field and is read by nothing. Kept only because the
/// frozen `benchmark/` package passes one to
/// [`run_soi_with_scratch`](crate::soi::run_soi_with_scratch) (ROADMAP
/// 16(c)). The paper's Alg. 1 as stated is its own entry,
/// [`run_soi_paper`](crate::soi::paper::run_soi_paper).
#[derive(Debug, Clone, Default)]
pub struct SoiConfig {}

/// One ranked street in a k-SOI result.
#[derive(Debug, Clone, PartialEq)]
pub struct StreetResult {
    /// The street.
    pub street: StreetId,
    /// The street's interest (exact, per the configured aggregate).
    pub interest: f64,
    /// The segment realising the street's interest (for `Max` aggregation).
    pub best_segment: SegmentId,
    /// The mass of that segment.
    pub best_segment_mass: f64,
}

/// The outcome of a k-SOI evaluation: ranked streets plus run statistics.
#[derive(Debug, Clone)]
pub struct SoiOutcome {
    /// Streets in rank order (interest desc, street id asc). Streets with
    /// zero interest are never reported, so fewer than `k` entries may be
    /// returned.
    pub results: Vec<StreetResult>,
    /// Phase timings and work counters.
    pub stats: QueryStats,
    /// True when a [`QueryBudget`](crate::QueryBudget) deadline expired
    /// before the bounds converged: `results` holds the current
    /// lower-bound top-k (each entry's interest is a valid lower bound of
    /// the street's true interest, and at least the recorded
    /// [`QueryStats::termination_lb`]) rather than the exact answer.
    pub partial: bool,
}

impl SoiOutcome {
    /// The interest of the lowest-ranked returned street (0 if empty).
    pub fn min_interest(&self) -> f64 {
        self.results.last().map_or(0.0, |r| r.interest)
    }

    /// The returned street ids in rank order.
    pub fn street_ids(&self) -> Vec<StreetId> {
        self.results.iter().map(|r| r.street).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_validation() {
        assert!(SoiQuery::new(KeywordSet::empty(), 1, 0.5).is_ok());
        assert!(SoiQuery::new(KeywordSet::empty(), 0, 0.5).is_err());
        assert!(SoiQuery::new(KeywordSet::empty(), 1, 0.0).is_err());
        assert!(SoiQuery::new(KeywordSet::empty(), 1, -1.0).is_err());
        assert!(SoiQuery::new(KeywordSet::empty(), 1, f64::NAN).is_err());
        assert!(SoiQuery::new(KeywordSet::empty(), 1, f64::INFINITY).is_err());
    }

    #[test]
    fn outcome_helpers() {
        let outcome = SoiOutcome {
            results: vec![
                StreetResult {
                    street: StreetId(3),
                    interest: 2.0,
                    best_segment: SegmentId(1),
                    best_segment_mass: 4.0,
                },
                StreetResult {
                    street: StreetId(1),
                    interest: 1.0,
                    best_segment: SegmentId(7),
                    best_segment_mass: 2.0,
                },
            ],
            stats: QueryStats::default(),
            partial: false,
        };
        assert_eq!(outcome.min_interest(), 1.0);
        assert_eq!(outcome.street_ids(), vec![StreetId(3), StreetId(1)]);
    }
}
