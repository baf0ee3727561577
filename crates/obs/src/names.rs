//! Canonical span and phase names.
//!
//! Every layer that times, traces, or logs a unit of work refers to it by
//! one of these constants, so a phase shows up under the same string in
//! `QueryStats` timers, Chrome traces, metric labels, and JSON logs. The
//! full taxonomy (and how to read a trace built from it) is documented in
//! DESIGN.md § Observability.

/// Algorithm phase names (the paper's per-phase runtime breakdowns).
pub mod phases {
    /// Alg. 1 source-list construction (lines 1–7).
    pub const CONSTRUCTION: &str = "construction";
    /// Alg. 1 filtering: source accesses until `UB ≤ LBk` (lines 8–24);
    /// also Alg. 2's per-step cell-bound filtering.
    pub const FILTERING: &str = "filtering";
    /// Alg. 1 refinement: finalising seen segments (lines 25–28); also
    /// Alg. 2's exact-`mmr` refinement of surviving cells.
    pub const REFINEMENT: &str = "refinement";
    /// Whole-scan phase of the BL baselines.
    pub const SCAN: &str = "scan";
}

/// Span names (dotted hierarchy: `layer.operation[.phase]`).
pub mod spans {
    /// One k-SOI query evaluation (`run_soi`), all phases.
    pub const SOI_QUERY: &str = "soi.query";
    /// One diversified-description query (`st_rel_div`), all steps.
    pub const DESCRIBE_QUERY: &str = "describe.query";
    /// Alg. 1 source-list assembly inside construction (SL1, the per-segment
    /// bounds and SL2).
    pub const SOI_SOURCES: &str = "soi.sources";
    /// Alg. 1 street-level aggregation and top-k ranking after refinement.
    pub const SOI_RANK: &str = "soi.rank";
    /// Building one street's description context ahead of Alg. 2: `Rs`
    /// extraction, `Φs`, and the diversification index (once per street
    /// and epoch when served).
    pub const DESCRIBE_CONTEXT: &str = "describe.context";
    /// One greedy diversification round of Alg. 2 (per selected photo).
    pub const DESCRIBE_ROUND: &str = "describe.round";
    /// One engine batch, fan-out to join.
    pub const ENGINE_BATCH: &str = "engine.batch";
    /// One query inside an engine batch (per worker thread).
    pub const ENGINE_QUERY: &str = "engine.query";
    /// Root span of an engine worker thread: its chunk-claim loop inside a
    /// batch, or one claimed job on a `soi serve` engine worker.
    pub const ENGINE_WORKER: &str = "engine.worker";
    /// Offline POI index construction, all phases.
    pub const INDEX_BUILD: &str = "index.build";
    /// Index build phase 1: per-POI flatten into packed keys + CSR sidecar.
    pub const INDEX_BUILD_FLATTEN: &str = "index.build.flatten";
    /// Index build phase 2: per-cell structures (local inverted indexes).
    pub const INDEX_BUILD_CELLS: &str = "index.build.cells";
    /// Deriving the global inverted index from the postings, on a build or
    /// a snapshot load.
    pub const INDEX_BUILD_GLOBAL: &str = "index.build.global";
    /// Loading an index bundle from a snapshot file (cold start).
    pub const SNAPSHOT_LOAD: &str = "index.snapshot.load";
    /// Writing an index bundle to a snapshot file.
    pub const SNAPSHOT_WRITE: &str = "index.snapshot.write";
    /// Dataset load from disk.
    pub const CLI_LOAD: &str = "cli.load";
    /// One HTTP request handled by the serving layer (parse to response).
    pub const SERVE_REQUEST: &str = "serve.request";
}

/// Metric names that more than one crate refers to (the instrument and the
/// tests or tools that read it).
pub mod metrics {
    /// `/describe` jobs that built their street's context: the first touch
    /// of the street in its epoch.
    pub const DESCRIBE_CONTEXTS_BUILT: &str = "soi_serve_describe_contexts_built_total";
    /// `/describe` jobs that read a street context an earlier job of the
    /// same epoch built.
    pub const DESCRIBE_CONTEXTS_REUSED: &str = "soi_serve_describe_contexts_reused_total";
}

/// Counter-track names (sampled values plotted over time in a trace).
pub mod tracks {
    /// Alg. 1 unseen upper bound `UB`, sampled during filtering.
    pub const SOI_UB: &str = "soi.UB";
    /// Alg. 1 k-th seen lower bound `LBk`, sampled during filtering.
    pub const SOI_LBK: &str = "soi.LBk";
    /// Worker-thread count of an index build.
    pub const INDEX_BUILD_THREADS: &str = "index.build.threads";
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_names_are_distinct() {
        let all = [
            phases::CONSTRUCTION,
            phases::FILTERING,
            phases::REFINEMENT,
            phases::SCAN,
        ];
        for (i, a) in all.iter().enumerate() {
            for b in &all[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }

    #[test]
    fn span_names_follow_dotted_taxonomy() {
        for name in [
            spans::SOI_QUERY,
            spans::DESCRIBE_QUERY,
            spans::ENGINE_BATCH,
            spans::ENGINE_QUERY,
            spans::INDEX_BUILD,
            spans::INDEX_BUILD_FLATTEN,
            spans::INDEX_BUILD_CELLS,
            spans::INDEX_BUILD_GLOBAL,
            spans::SNAPSHOT_LOAD,
            spans::SNAPSHOT_WRITE,
            spans::CLI_LOAD,
            spans::SERVE_REQUEST,
            spans::SOI_SOURCES,
            spans::SOI_RANK,
            spans::DESCRIBE_CONTEXT,
            spans::DESCRIBE_ROUND,
            spans::ENGINE_WORKER,
        ] {
            assert!(name.contains('.'), "{name} is not dotted");
        }
    }
}
