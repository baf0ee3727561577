//! Query explain for Algorithm 1: opt-in collection of the bound
//! trajectory and pruning effectiveness of one k-SOI evaluation.
//!
//! A [`SoiExplain`] passed to
//! [`run_soi_full`](crate::soi::run_soi_full) records, per
//! source-list access, the termination bounds `UB` and `LBk` together with
//! the surviving heads of the three source lists — the raw material of a
//! bound-convergence table. Which `UB` is in effect is recorded once
//! ([`SoiExplain::paper_bounds`]): SL2's head `b(ℓ)` by default, the
//! paper's `top(SL1)·top(SL2)/(2ε·top(SL3)+πε²)` under
//! `SoiConfig::paper_bounds_only`. Rows are decimated on the fly (stride
//! doubling) so a long filtering phase cannot grow the collector beyond
//! [`SoiExplain::max_rows`]; the final pre-termination state is always
//! recorded as its own row, so the last row of the table provably
//! satisfies `UB ≤ LBk` and matches the query's actual termination.
//!
//! The collector also captures a copy of the finished [`QueryStats`],
//! giving the `soi explain` CLI command one
//! self-contained artifact.

use crate::soi::stats::QueryStats;
use crate::soi::strategy::Source;
use soi_obs::json::JsonWriter;

/// Default row capacity of a collector (see [`SoiExplain::with_max_rows`]).
pub const DEFAULT_MAX_ROWS: usize = 1024;

/// One recorded access: the algorithm state *before* the access was
/// performed, plus which source the access then drew from.
#[derive(Debug, Clone, Copy)]
pub struct ExplainRow {
    /// 1-based access count this row describes (the access being made).
    pub access: usize,
    /// The source list the access drew from (`None` for the final
    /// termination row, where no further access happens).
    pub source: Option<Source>,
    /// The unseen upper bound `UB` in effect (see
    /// [`SoiExplain::paper_bounds`]).
    pub ub: f64,
    /// The k-th best seen street lower bound `LBk`.
    pub lbk: f64,
    /// Head of SL1: largest surviving per-cell relevant weight.
    pub top_sl1: f64,
    /// Head of SL2: the largest `b(ℓ)` of an unseen segment (`UB` itself),
    /// or with paper bounds the largest `|Cε(ℓ)|` bound of a segment that
    /// is not final.
    pub top_sl2: f64,
    /// Head of SL3: smallest surviving segment length (0 when exhausted).
    pub top_sl3: f64,
    /// Segments in the partial/final state so far.
    pub segments_seen: usize,
    /// SL1 cells popped so far.
    pub cells_popped: usize,
}

/// Source-list sizes after Alg. 1's construction phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct ListSizes {
    /// Cells in SL1 (cells holding query-relevant weight).
    pub sl1: usize,
    /// Entries SL2 lists: the runs with `B(T) > 0`, whose members are
    /// bounded only as the head reaches them (every segment with paper
    /// bounds).
    pub sl2: usize,
    /// Segments in SL3.
    pub sl3: usize,
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
    /// Whether `UB` is the paper's verbatim bound
    /// (`SoiConfig::paper_bounds_only`) rather than SL2's head `b(ℓ)`.
    pub paper_bounds: bool,
    /// Source-list sizes after construction.
    pub lists: ListSizes,
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
    pub fn with_max_rows(max_rows: usize) -> Self {
        Self {
            rows: Vec::new(),
            k: 0,
            eps: 0.0,
            keywords: 0,
            paper_bounds: false,
            lists: ListSizes::default(),
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

    pub(crate) fn begin(&mut self, k: usize, eps: f64, keywords: usize, paper_bounds: bool) {
        self.k = k;
        self.eps = eps;
        self.keywords = keywords;
        self.paper_bounds = paper_bounds;
    }

    pub(crate) fn record_lists(&mut self, sl1: usize, sl2: usize, sl3: usize) {
        self.lists = ListSizes { sl1, sl2, sl3 };
    }

    /// Records one access row, decimating (drop every other row, double
    /// the stride) whenever the buffer is full.
    pub(crate) fn record(&mut self, row: ExplainRow) {
        let off_stride = |stride: usize| !(row.access - 1).is_multiple_of(stride);
        if row.source.is_some() && off_stride(self.stride) {
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
            if row.source.is_some() && off_stride(self.stride) {
                return;
            }
        }
        self.rows.push(row);
    }

    pub(crate) fn finish(&mut self, stats: &QueryStats) {
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
        // Which `UB` the rows carry: the paper's, or SL2's head.
        obj.field_str(
            "bound",
            if self.paper_bounds {
                "paper"
            } else {
                "segment"
            },
        );
        let mut lists = JsonWriter::object();
        lists.field_u64("sl1", self.lists.sl1 as u64);
        lists.field_u64("sl2", self.lists.sl2 as u64);
        lists.field_u64("sl3", self.lists.sl3 as u64);
        obj.field_raw("lists", &lists.finish());
        let mut rows = JsonWriter::array();
        for r in &self.rows {
            let mut row = JsonWriter::object();
            row.field_u64("access", r.access as u64);
            row.field_str("source", source_label(r.source));
            row.field_f64("ub", r.ub);
            row.field_f64("lbk", r.lbk);
            row.field_f64("top_sl1", r.top_sl1);
            row.field_f64("top_sl2", r.top_sl2);
            row.field_f64("top_sl3", r.top_sl3);
            row.field_u64("segments_seen", r.segments_seen as u64);
            row.field_u64("cells_popped", r.cells_popped as u64);
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
            c.field_u64("cells_popped", s.cells_popped as u64);
            c.field_u64("segments_popped", s.segments_popped as u64);
            c.field_u64("cell_visits", s.cell_visits as u64);
            c.field_u64("duplicate_visits", s.duplicate_visits as u64);
            c.field_u64("segments_seen", s.segments_seen as u64);
            c.field_u64("segments_bounded_out", s.segments_bounded_out as u64);
            c.field_u64(
                "segments_finalized_filtering",
                s.segments_finalized_filtering as u64,
            );
            c.field_u64(
                "segments_finalized_refinement",
                s.segments_finalized_refinement as u64,
            );
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

/// Short human label of a source (used by the table and the JSON rows).
pub fn source_label(source: Option<Source>) -> &'static str {
    match source {
        Some(Source::Cells) => "SL1",
        Some(Source::SegmentsByCells) => "SL2",
        Some(Source::SegmentsByLen) => "SL3",
        None => "-",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(access: usize, ub: f64, lbk: f64) -> ExplainRow {
        ExplainRow {
            access,
            source: Some(Source::Cells),
            ub,
            lbk,
            top_sl1: 1.0,
            top_sl2: 2.0,
            top_sl3: 3.0,
            segments_seen: access,
            cells_popped: access,
        }
    }

    #[test]
    fn decimation_keeps_first_row_and_bounds_memory() {
        let mut ex = SoiExplain::with_max_rows(8);
        for a in 1..=1000 {
            ex.record(row(a, 1000.0 - a as f64, a as f64));
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
            ex.record(row(a, 100.0 - a as f64, a as f64));
        }
        let mut term = row(101, 0.5, 50.0);
        term.source = None;
        ex.record(term);
        let last = ex.rows.last().unwrap();
        assert!(last.source.is_none());
        assert!(last.ub <= last.lbk);
    }

    #[test]
    fn json_round_trips_through_the_parser() {
        let mut ex = SoiExplain::default();
        ex.begin(10, 0.0005, 2, false);
        ex.record_lists(5, 7, 7);
        ex.record(row(1, 9.0, 0.0));
        let stats = QueryStats {
            accesses: 1,
            termination_ub: 0.5,
            termination_lb: 1.5,
            ..Default::default()
        };
        ex.finish(&stats);
        let doc = soi_obs::json::parse(&ex.to_json()).expect("valid JSON");
        assert_eq!(
            doc.get("query").unwrap().get("k").unwrap().as_f64(),
            Some(10.0)
        );
        assert_eq!(doc.get("rows").unwrap().as_arr().unwrap().len(), 1);
        assert_eq!(
            doc.get("bound"),
            Some(&soi_obs::json::Json::Str("segment".into()))
        );
        let term = doc.get("termination").unwrap();
        assert_eq!(
            term.get("converged"),
            Some(&soi_obs::json::Json::Bool(true))
        );
        assert!(doc.get("counters").is_some());
    }

    #[test]
    fn source_labels_are_stable() {
        assert_eq!(source_label(Some(Source::Cells)), "SL1");
        assert_eq!(source_label(Some(Source::SegmentsByCells)), "SL2");
        assert_eq!(source_label(Some(Source::SegmentsByLen)), "SL3");
        assert_eq!(source_label(None), "-");
    }
}
