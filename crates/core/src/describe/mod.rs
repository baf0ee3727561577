//! SOI description: diversified photo selection (paper Section 4).
//!
//! Given a street's photo set `Rs`, select `k` photos maximising
//! `F(Rk) = (1−λ)·rel(Rk) + λ·div(Rk)` (Eq. 2) — an NP-hard MaxSum
//! diversification problem solved greedily via maximal marginal relevance
//! (`mmr`, Eq. 10). [`greedy_select`] is the naive greedy (the paper's BL);
//! [`st_rel_div()`](st_rel_div()) is Algorithm 2, which prunes with per-cell bounds.

pub mod bounds;
pub mod context;
pub mod exact;
pub mod explain;
pub mod greedy;
pub mod measures;
pub mod objective;
pub mod st_rel_div;
pub mod tradeoff;
pub mod variants;

pub use bounds::{cell_div_bounds, cell_mmr_bounds, cell_rel_bounds};
pub use context::{ContextBuilder, PhiSource, StreetContext, StreetContexts};
pub use exact::exact_select;
pub use explain::{DescribeExplain, DescribeRound};
pub use greedy::greedy_select;
pub use objective::{mmr, objective, set_diversity, set_relevance};
pub use st_rel_div::{st_rel_div, st_rel_div_full, st_rel_div_with_scratch, DescribeScratch};
pub use tradeoff::{knee, sweep_lambda, TradeoffPoint};
pub use variants::{Aspect, Criterion, MethodSpec};

use soi_common::{PhaseTimer, PhotoId, Result, SoiError};

/// Parameters of a description query (Problem 2).
#[derive(Debug, Clone, Copy)]
pub struct DescribeParams {
    /// Number of photos to select (`k`; unrelated to the k of k-SOI).
    pub k: usize,
    /// Relevance–diversity trade-off `λ ∈ [0, 1]` (0 = pure relevance).
    pub lambda: f64,
    /// Spatial–textual weight `w ∈ [0, 1]` (1 = purely spatial).
    pub w: f64,
}

impl DescribeParams {
    /// Creates validated parameters.
    ///
    /// # Errors
    /// Rejects `k = 0` and λ or w outside `[0, 1]`.
    pub fn new(k: usize, lambda: f64, w: f64) -> Result<Self> {
        let p = Self { k, lambda, w };
        p.validate()?;
        Ok(p)
    }

    /// Re-checks the parameter invariants (`k ≥ 1`, `λ, w ∈ [0, 1]`).
    ///
    /// The fields are public, so [`st_rel_div()`](st_rel_div()) revalidates
    /// at the API boundary rather than trusting construction-time checks.
    /// NaN fails the range checks.
    ///
    /// # Errors
    /// Rejects `k = 0` and λ or w outside `[0, 1]`.
    pub fn validate(&self) -> Result<()> {
        if self.k == 0 {
            return Err(SoiError::invalid("k must be at least 1"));
        }
        if !(0.0..=1.0).contains(&self.lambda) {
            return Err(SoiError::invalid(format!(
                "lambda must be in [0, 1], got {}",
                self.lambda
            )));
        }
        if !(0.0..=1.0).contains(&self.w) {
            return Err(SoiError::invalid(format!(
                "w must be in [0, 1], got {}",
                self.w
            )));
        }
        Ok(())
    }
}

/// Work counters of a description query.
#[derive(Debug, Clone, Default)]
pub struct DescribeStats {
    /// Phase timings (`filtering` / `refinement` per greedy step are
    /// accumulated across iterations).
    pub timer: PhaseTimer,
    /// Exact `mmr` evaluations performed.
    pub photos_evaluated: usize,
    /// Cells discarded by the filtering phase (Bmax < max Bmin).
    pub cells_pruned_filtering: usize,
    /// Cells skipped during refinement (bound below the running best).
    pub cells_pruned_refinement: usize,
    /// Cells whose photos were refined.
    pub cells_refined: usize,
    /// True when a [`QueryBudget`](crate::QueryBudget) deadline expired
    /// before `k` photos were selected: the run stopped between greedy
    /// rounds and returned the photos selected so far.
    pub deadline_expired: bool,
}

/// The result of a description query: the selected photo summary.
#[derive(Debug, Clone)]
pub struct DescribeOutcome {
    /// Selected photos in selection order.
    pub selected: Vec<PhotoId>,
    /// The objective value `F` of the selection under the query parameters.
    pub objective: f64,
    /// Work counters.
    pub stats: DescribeStats,
    /// True when a [`QueryBudget`](crate::QueryBudget) deadline expired
    /// mid-selection: `selected` is the prefix chosen by the completed
    /// greedy rounds (each prefix is itself the exact greedy selection for
    /// its length) rather than the full `k`-photo summary.
    pub partial: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn params_validation() {
        assert!(DescribeParams::new(3, 0.5, 0.5).is_ok());
        assert!(DescribeParams::new(0, 0.5, 0.5).is_err());
        assert!(DescribeParams::new(1, -0.1, 0.5).is_err());
        assert!(DescribeParams::new(1, 1.1, 0.5).is_err());
        assert!(DescribeParams::new(1, 0.5, -0.1).is_err());
        assert!(DescribeParams::new(1, 0.5, 1.5).is_err());
        assert!(DescribeParams::new(1, 0.0, 1.0).is_ok());
    }
}
