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
///
/// Each counter's doc states its value on [`run_soi`](crate::soi::run_soi),
/// which pops SL2's head on every access: `cells_popped`,
/// `duplicate_visits` and `segments_finalized_refinement` are 0 there, and
/// `segments_popped`, `segments_seen` and `segments_finalized_filtering`
/// equal `accesses`. Those six count work of the paper's cycle
/// ([`run_soi_paper`](crate::soi::paper::run_soi_paper)); they stay fields
/// only because the benchmark's layer pass (`benchmark/src/layers.rs`)
/// reads them by name (ROADMAP item 17(b)).
#[derive(Debug, Clone, Default)]
pub struct QueryStats {
    /// Wall-clock time per phase.
    pub timer: PhaseTimer,
    /// Cells popped from SL1. 0 on `run_soi`.
    pub cells_popped: usize,
    /// Segments popped from SL2/SL3. Equals `accesses` on `run_soi`.
    pub segments_popped: usize,
    /// Effective `UpdateInterest` executions (cell newly visited for a
    /// segment).
    pub cell_visits: usize,
    /// `UpdateInterest` calls that changed nothing. A popped cell's ring
    /// lists a superset of the segments near it, and segments already
    /// *final* are dropped before the call (uncounted); what is counted is
    /// a live segment that does not list the cell in its `Cε(ℓ)`, or whose
    /// cell was already visited (the last also when a segment access meets
    /// a cell a cell access visited). Both need cell accesses: 0 on
    /// `run_soi`.
    pub duplicate_visits: usize,
    /// Segments that entered the *partial* state (seen at least once).
    /// Equals `accesses` on `run_soi`.
    pub segments_seen: usize,
    /// Segments whose exact interest was computed during filtering. Equals
    /// `accesses` on `run_soi`.
    pub segments_finalized_filtering: usize,
    /// Segments finalised during refinement. 0 on `run_soi`.
    pub segments_finalized_refinement: usize,
    /// Segments a segment access finalised on first sight without distance
    /// work, as `b(ℓ)` or their `Cε(ℓ)`'s relevant weight cannot exceed
    /// `LBk` (also counted as finalised); 0 under paper bounds.
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
    pub(crate) fn total_time(&self) -> Duration {
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
