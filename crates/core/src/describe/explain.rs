//! Query explain for Algorithm 2: opt-in per-greedy-round collection of
//! cell filter effectiveness.
//!
//! A [`DescribeExplain`] passed to
//! [`st_rel_div_full`](crate::describe::st_rel_div_full) records,
//! for every greedy selection round, how the per-cell `[Bmin, Bmax]`
//! bounds of Eqs. 11–18 pruned the search: how many candidate cells
//! entered the round, how many the filtering phase discarded, how many
//! refinement actually opened versus pruned, and how many exact `mmr`
//! evaluations that cost — the direct measure of Alg. 2's advantage over
//! the naive greedy (which scores every unselected photo every round).

use crate::describe::DescribeStats;
use soi_common::PhotoId;
use soi_obs::json::JsonWriter;

/// One greedy selection round of Alg. 2.
#[derive(Debug, Clone, Copy)]
pub struct DescribeRound {
    /// 1-based round number (= size of the selection after the round).
    pub round: usize,
    /// Cells holding unselected photos when the round started.
    pub cells_candidate: usize,
    /// Candidate cells discarded by filtering (`Bmax < max Bmin`).
    pub cells_pruned_filtering: usize,
    /// Cells whose photos were exactly evaluated this round.
    pub cells_refined: usize,
    /// Cells skipped during refinement (bound below the running best).
    pub cells_pruned_refinement: usize,
    /// Exact `mmr` evaluations this round.
    pub photos_scored: usize,
    /// The filtering threshold `max_c Bmin(c)` of the round.
    pub(crate) mmr_min: f64,
    /// The winning exact `mmr` value (`None` when no candidate remained).
    pub best_mmr: Option<f64>,
    /// The photo selected this round (`None` when the loop stopped early).
    pub selected: Option<PhotoId>,
}

/// Collects the explain record of one Alg. 2 evaluation.
///
/// Create one ([`DescribeExplain::default`]) and pass it to
/// [`st_rel_div_full`](crate::describe::st_rel_div_full);
/// afterwards render it with [`DescribeExplain::to_json`] or walk
/// [`DescribeExplain::rounds`] directly. Rounds are bounded by the query's
/// `k`, so no decimation is needed.
#[derive(Debug, Default)]
pub struct DescribeExplain {
    /// Per-round filter effectiveness, in selection order.
    pub rounds: Vec<DescribeRound>,
    /// A copy of the finished run's stats.
    pub stats: Option<DescribeStats>,
    /// Whether this job built its street context (`true`: the first
    /// describe of the street in its epoch) or read a stored one; `None`
    /// when the caller supplied the context.
    pub context_built: Option<bool>,
}

impl DescribeExplain {
    pub(crate) fn record(&mut self, round: DescribeRound) {
        self.rounds.push(round);
    }

    pub(crate) fn finish(&mut self, stats: &DescribeStats) {
        self.stats = Some(stats.clone());
    }

    /// Renders the collected record as a self-contained JSON object (the
    /// `describe` section of the `soi explain --json` artifact).
    pub fn to_json(&self) -> String {
        let mut obj = JsonWriter::object();
        let mut rounds = JsonWriter::array();
        for r in &self.rounds {
            let mut row = JsonWriter::object();
            row.field_u64("round", r.round as u64);
            row.field_u64("cells_candidate", r.cells_candidate as u64);
            row.field_u64("cells_pruned_filtering", r.cells_pruned_filtering as u64);
            row.field_u64("cells_refined", r.cells_refined as u64);
            row.field_u64("cells_pruned_refinement", r.cells_pruned_refinement as u64);
            row.field_u64("photos_scored", r.photos_scored as u64);
            row.field_f64("mmr_min", r.mmr_min);
            if let Some(best) = r.best_mmr {
                row.field_f64("best_mmr", best);
            }
            if let Some(p) = r.selected {
                row.field_u64("selected", p.index() as u64);
            }
            rounds.elem_raw(&row.finish());
        }
        obj.field_raw("rounds", &rounds.finish());
        if let Some(s) = &self.stats {
            let mut c = JsonWriter::object();
            c.field_u64("photos_evaluated", s.photos_evaluated as u64);
            c.field_u64("cells_pruned_filtering", s.cells_pruned_filtering as u64);
            c.field_u64("cells_pruned_refinement", s.cells_pruned_refinement as u64);
            c.field_u64("cells_refined", s.cells_refined as u64);
            obj.field_raw("counters", &c.finish());
            let mut p = JsonWriter::object();
            for phase in [
                soi_obs::names::phases::FILTERING,
                soi_obs::names::phases::REFINEMENT,
            ] {
                p.field_f64(phase, s.timer.duration(phase).as_secs_f64() * 1e3);
            }
            obj.field_raw("phases_ms", &p.finish());
        }
        if let Some(built) = self.context_built {
            obj.field_bool("context_built", built);
        }
        obj.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_round_trips_through_the_parser() {
        let mut ex = DescribeExplain::default();
        ex.record(DescribeRound {
            round: 1,
            cells_candidate: 10,
            cells_pruned_filtering: 4,
            cells_refined: 2,
            cells_pruned_refinement: 4,
            photos_scored: 7,
            mmr_min: 0.25,
            best_mmr: Some(0.5),
            selected: Some(PhotoId(3)),
        });
        ex.finish(&DescribeStats {
            photos_evaluated: 7,
            cells_pruned_filtering: 4,
            cells_pruned_refinement: 4,
            cells_refined: 2,
            ..Default::default()
        });
        assert!(!ex.to_json().contains("context_built"));
        ex.context_built = Some(true);
        let doc = soi_obs::json::parse(&ex.to_json()).expect("valid JSON");
        assert_eq!(
            doc.get("context_built"),
            Some(&soi_obs::json::Json::Bool(true))
        );
        let rounds = doc.get("rounds").unwrap().as_arr().unwrap();
        assert_eq!(rounds.len(), 1);
        assert_eq!(rounds[0].get("selected").unwrap().as_f64(), Some(3.0));
        assert_eq!(
            doc.get("counters")
                .unwrap()
                .get("photos_evaluated")
                .unwrap()
                .as_f64(),
            Some(7.0)
        );
    }

    #[test]
    fn early_stop_round_serializes_without_selection() {
        let mut ex = DescribeExplain::default();
        ex.record(DescribeRound {
            round: 2,
            cells_candidate: 0,
            cells_pruned_filtering: 0,
            cells_refined: 0,
            cells_pruned_refinement: 0,
            photos_scored: 0,
            mmr_min: f64::NEG_INFINITY,
            best_mmr: None,
            selected: None,
        });
        let doc = soi_obs::json::parse(&ex.to_json()).expect("valid JSON");
        let rounds = doc.get("rounds").unwrap().as_arr().unwrap();
        assert!(rounds[0].get("selected").is_none());
        assert!(rounds[0].get("best_mmr").is_none());
    }
}
