//! Run statistics of a k-SOI evaluation.

use soi_common::PhaseTimer;
use std::time::Duration;

/// Phase names used by the SOI algorithm (matching Fig. 4's breakdown).
///
/// These are the workspace-wide canonical constants from
/// [`soi_obs::names::phases`], re-exported here so existing
/// `stats::phases::…` call sites keep working while timers, traces, and
/// logs all agree on the same strings.
pub use soi_obs::names::phases;

/// Work counters and phase timings of one query evaluation.
#[derive(Debug, Clone, Default)]
pub struct QueryStats {
    /// Wall-clock time per phase.
    pub timer: PhaseTimer,
    /// Cells popped from SL1.
    pub cells_popped: usize,
    /// Segments popped from SL2/SL3.
    pub segments_popped: usize,
    /// Effective `UpdateInterest` executions (cell newly visited for a
    /// segment).
    pub cell_visits: usize,
    /// `UpdateInterest` calls that changed nothing. A popped cell's ring
    /// lists a superset of the segments near it, and segments already
    /// *final* are dropped before the call (uncounted); what is counted is
    /// a survivor that was first seen and dismissed at once, that is live
    /// but does not list the cell in its `Cε(ℓ)`, or whose cell was already
    /// visited (the last also when a segment access meets a visited cell).
    pub duplicate_visits: usize,
    /// Segments that entered the *partial* state (seen at least once).
    pub segments_seen: usize,
    /// Segments whose exact interest was computed during filtering.
    pub segments_finalized_filtering: usize,
    /// Segments finalised during refinement.
    pub segments_finalized_refinement: usize,
    /// Segments dismissed by the mass upper bound without distance work
    /// (their interest provably cannot reach `LBk`).
    pub segments_bounded_out: usize,
    /// The unseen upper bound at termination.
    pub termination_ub: f64,
    /// The seen lower bound at termination.
    pub termination_lb: f64,
    /// Total source-list accesses performed.
    pub accesses: usize,
    /// True when a [`QueryBudget`](crate::QueryBudget) deadline expired
    /// before `UB ≤ LBk`: the run stopped early and returned its current
    /// lower-bound top-k.
    pub deadline_expired: bool,
}

impl QueryStats {
    /// Total measured wall-clock time across phases.
    pub fn total_time(&self) -> Duration {
        self.timer.total()
    }

    /// Total segments finalised (filtering + refinement).
    pub fn segments_finalized(&self) -> usize {
        self.segments_finalized_filtering + self.segments_finalized_refinement
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_zero() {
        let s = QueryStats::default();
        assert_eq!(s.cells_popped, 0);
        assert_eq!(s.segments_finalized(), 0);
        assert_eq!(s.total_time(), Duration::ZERO);
    }

    #[test]
    fn finalized_sums() {
        let s = QueryStats {
            segments_finalized_filtering: 3,
            segments_finalized_refinement: 4,
            ..Default::default()
        };
        assert_eq!(s.segments_finalized(), 7);
    }
}
