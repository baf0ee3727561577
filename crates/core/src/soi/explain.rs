//! Query explain for Algorithm 1: opt-in collection of the bound
//! trajectory and pruning effectiveness of one k-SOI evaluation.
//!
//! A [`SoiExplain`] passed to
//! [`run_soi_full`](crate::soi::run_soi_full) records, per
//! source-list access, the termination bounds `UB` and `LBk`, the raw
//! material of a bound-convergence table. Every access pops SL2's head, and
//! `UB` is that head's `b(ℓ)`. Rows are decimated on the fly (stride
//! doubling) so a long filtering phase cannot grow the collector beyond
//! [`SoiExplain::max_rows`]; the final pre-termination state is always
//! recorded as its own row, so the last row of the table provably
//! satisfies `UB ≤ LBk` and matches the query's actual termination.
//!
//! The collector also captures a copy of the finished [`QueryStats`],
//! giving the `soi explain` CLI command one
//! self-contained artifact.

use crate::soi::query::SoiQuery;
use crate::soi::stats::QueryStats;
use soi_obs::json::JsonWriter;

/// Default row capacity of a collector (see [`SoiExplain::with_max_rows`]).
pub(crate) const DEFAULT_MAX_ROWS: usize = 1024;

/// One recorded turn of the access loop: the bounds it was taken under.
/// The termination row repeats the last access's number, with the bounds
/// that stopped the loop.
#[derive(Debug, Clone, Copy, Default)]
pub struct ExplainRow {
    /// Accesses made once the turn is done: 1-based on an access row.
    pub access: usize,
    /// The unseen upper bound `UB`: SL2's head.
    pub ub: f64,
    /// The k-th best seen street lower bound `LBk`.
    pub lbk: f64,
}

/// The query's termination state: the bounds that stopped the access loop.
#[derive(Debug, Clone, Copy)]
pub struct Termination {
    /// Total source accesses performed.
    pub accesses: usize,
    /// Final unseen upper bound (`≤ lbk`).
    pub ub: f64,
    /// Final k-th seen lower bound.
    pub lbk: f64,
}

/// Collects the explain record of one k-SOI evaluation.
///
/// Create one (e.g. [`SoiExplain::default`]) and pass it to
/// [`run_soi_full`](crate::soi::run_soi_full); afterwards render
/// it with [`SoiExplain::to_json`] or walk [`SoiExplain::rows`] directly.
#[derive(Debug)]
pub struct SoiExplain {
    /// Bound-trajectory rows in access order (decimated; the termination
    /// row is always last).
    pub rows: Vec<ExplainRow>,
    /// Query parameters (`k`, ε, keyword count), filled in by the run.
    pub k: usize,
    /// Query ε.
    pub eps: f64,
    /// Number of query keywords.
    pub keywords: usize,
    /// The runs SL2 lists after construction: one street's consecutive
    /// segments of similar length with `B(T) > 0`, whose members are bounded
    /// only as the head reaches them.
    pub sl2_runs: usize,
    /// Termination bounds (`None` until the run finishes).
    pub termination: Option<Termination>,
    /// A copy of the finished run's stats.
    pub stats: Option<QueryStats>,
    max_rows: usize,
    /// Record every `stride`-th access (doubled whenever `rows` fills).
    stride: usize,
}

impl Default for SoiExplain {
    fn default() -> Self {
        Self::with_max_rows(DEFAULT_MAX_ROWS)
    }
}

impl SoiExplain {
    /// A collector keeping at most `max_rows` trajectory rows (≥ 2: the
    /// first access and the termination row are always kept).
    pub(crate) fn with_max_rows(max_rows: usize) -> Self {
        Self {
            rows: Vec::new(),
            k: 0,
            eps: 0.0,
            keywords: 0,
            sl2_runs: 0,
            termination: None,
            stats: None,
            max_rows: max_rows.max(2),
            stride: 1,
        }
    }

    /// The row-capacity bound this collector decimates to.
    pub fn max_rows(&self) -> usize {
        self.max_rows
    }

    /// Records one row, decimating (drop every other row, double the
    /// stride) whenever the buffer is full. An access row is kept only on
    /// the stride; the termination row (`stopped`) always is.
    pub(crate) fn record(&mut self, row: ExplainRow, stopped: bool) {
        let off_stride = |stride: usize| !stopped && !(row.access - 1).is_multiple_of(stride);
        if off_stride(self.stride) {
            return;
        }
        if self.rows.len() >= self.max_rows {
            // Keep even-indexed rows (the first row survives), then only
            // record every 2·stride-th access from here on.
            let mut i = 0;
            self.rows.retain(|_| {
                let keep = i % 2 == 0;
                i += 1;
                keep
            });
            self.stride *= 2;
            if off_stride(self.stride) {
                return;
            }
        }
        self.rows.push(row);
    }

    /// Fills in the query and the finished run's termination and stats.
    pub(crate) fn finish(&mut self, query: &SoiQuery, stats: &QueryStats) {
        self.k = query.k;
        self.eps = query.eps;
        self.keywords = query.keywords.iter().count();
        self.termination = Some(Termination {
            accesses: stats.accesses,
            ub: stats.termination_ub,
            lbk: stats.termination_lb,
        });
        self.stats = Some(stats.clone());
    }

    /// Renders the collected record as a self-contained JSON object (the
    /// `soi` section of the `soi explain --json` artifact).
    pub fn to_json(&self) -> String {
        let mut obj = JsonWriter::object();
        let mut q = JsonWriter::object();
        q.field_u64("k", self.k as u64);
        q.field_f64("eps", self.eps);
        q.field_u64("keywords", self.keywords as u64);
        obj.field_raw("query", &q.finish());
        obj.field_u64("sl2_runs", self.sl2_runs as u64);
        let mut rows = JsonWriter::array();
        for r in &self.rows {
            let mut row = JsonWriter::object();
            row.field_u64("access", r.access as u64);
            row.field_f64("ub", r.ub);
            row.field_f64("lbk", r.lbk);
            rows.elem_raw(&row.finish());
        }
        obj.field_raw("rows", &rows.finish());
        if let Some(t) = self.termination {
            let mut term = JsonWriter::object();
            term.field_u64("accesses", t.accesses as u64);
            term.field_f64("ub", t.ub);
            term.field_f64("lbk", t.lbk);
            term.field_bool("converged", t.ub <= t.lbk);
            obj.field_raw("termination", &term.finish());
        }
        if let Some(s) = &self.stats {
            let mut c = JsonWriter::object();
            c.field_u64("accesses", s.accesses as u64);
            c.field_u64("cell_visits", s.cell_visits as u64);
            c.field_u64("segments_bounded_out", s.segments_bounded_out as u64);
            obj.field_raw("counters", &c.finish());
            let mut p = JsonWriter::object();
            for phase in [
                crate::soi::stats::phases::CONSTRUCTION,
                crate::soi::stats::phases::FILTERING,
                crate::soi::stats::phases::REFINEMENT,
            ] {
                p.field_f64(phase, s.timer.duration(phase).as_secs_f64() * 1e3);
            }
            obj.field_raw("phases_ms", &p.finish());
        }
        obj.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use soi_common::KeywordId;
    use soi_text::KeywordSet;

    fn row(access: usize, ub: f64, lbk: f64) -> ExplainRow {
        ExplainRow { access, ub, lbk }
    }

    #[test]
    fn decimation_keeps_first_row_and_bounds_memory() {
        let mut ex = SoiExplain::with_max_rows(8);
        for a in 1..=1000 {
            ex.record(row(a, 1000.0 - a as f64, a as f64), false);
        }
        assert!(ex.rows.len() <= 8, "rows grew to {}", ex.rows.len());
        assert_eq!(ex.rows[0].access, 1, "first access must survive");
        // Strictly increasing access order is preserved.
        assert!(ex.rows.windows(2).all(|w| w[0].access < w[1].access));
    }

    #[test]
    fn termination_row_is_always_recorded() {
        let mut ex = SoiExplain::with_max_rows(4);
        for a in 1..=100 {
            ex.record(row(a, 100.0 - a as f64, a as f64), false);
        }
        ex.record(row(100, 0.5, 50.0), true);
        let last = ex.rows.last().unwrap();
        assert_eq!((last.access, last.ub, last.lbk), (100, 0.5, 50.0));
    }

    #[test]
    fn json_round_trips_through_the_parser() {
        let mut ex = SoiExplain {
            sl2_runs: 7,
            ..SoiExplain::default()
        };
        ex.record(row(1, 9.0, 0.0), false);
        let stats = QueryStats {
            accesses: 1,
            termination_ub: 0.5,
            termination_lb: 1.5,
            ..Default::default()
        };
        let keywords = KeywordSet::from_ids([KeywordId(0), KeywordId(1)]);
        let query = SoiQuery::new(keywords, 10, 0.0005).unwrap();
        ex.finish(&query, &stats);
        let doc = soi_obs::json::parse(&ex.to_json()).expect("valid JSON");
        let q = doc.get("query").unwrap();
        assert_eq!(q.get("k").unwrap().as_f64(), Some(10.0));
        assert_eq!(q.get("keywords").unwrap().as_f64(), Some(2.0));
        assert_eq!(doc.get("sl2_runs").unwrap().as_f64(), Some(7.0));
        let rows = doc.get("rows").unwrap().as_arr().unwrap();
        let soi_obs::json::Json::Obj(fields) = &rows[0] else {
            panic!("row is not an object");
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["access", "ub", "lbk"]);
        let term = doc.get("termination").unwrap();
        assert_eq!(
            term.get("converged"),
            Some(&soi_obs::json::Json::Bool(true))
        );
        let soi_obs::json::Json::Obj(counters) = doc.get("counters").unwrap() else {
            panic!("counters is not an object");
        };
        let keys: Vec<&str> = counters.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["accesses", "cell_visits", "segments_bounded_out"]);
    }
}
