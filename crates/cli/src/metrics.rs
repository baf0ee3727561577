//! `soi metrics`: the process metrics in Prometheus text format.

use crate::args::Args;
use crate::{bundle_params, load, parse_keywords, DEFAULT_EPS};
use soi_common::Result;
use soi_core::soi::SoiQuery;
use soi_engine::{QueryContext, QueryEngine};
use soi_index::PoiIndex;
use std::io::Write;

pub(crate) fn run(args: &Args) -> Result<()> {
    // Force-register every series so a gather before the first query still
    // exposes the full set (with zero values).
    soi_core::obs::register_metrics();
    soi_index::obs::register_metrics();
    soi_engine::obs::register_metrics();
    // Pins the process epoch and registers the uptime / build-info /
    // trace-dropped-events series.
    soi_obs::metrics::publish_process_metrics(env!("CARGO_PKG_VERSION"));
    if args.get("data").is_some() {
        // Populate the instruments with a small real workload: an index
        // build and — when keywords are given — one k-SOI query through
        // the engine (which also feeds the per-query allocation
        // histograms).
        let dataset = load(args)?;
        let eps: f64 = args.get_parsed("eps", DEFAULT_EPS)?;
        bundle_params(2.0 * eps, 0).check(&dataset, ["--eps", "default"])?;
        let index = PoiIndex::build(&dataset.network, &dataset.pois, 2.0 * eps);
        if args.get("keywords").is_some() {
            let keywords = parse_keywords(&dataset, args)?;
            let query = SoiQuery::new(keywords, 10, eps)?;
            let engine = QueryEngine::new(1);
            let ctx =
                std::sync::Arc::new(QueryContext::new(&dataset.network, &dataset.pois, &index));
            let batch = engine.run_soi_batch(&ctx, std::slice::from_ref(&query));
            for result in batch.results {
                result?;
            }
        }
    }
    // Export allocator totals last so the gauges reflect the workload
    // above, and refresh the uptime gauge just before the gather.
    soi_obs::alloc::publish_metrics();
    soi_obs::metrics::publish_process_metrics(env!("CARGO_PKG_VERSION"));
    let mut out = std::io::stdout().lock();
    out.write_all(soi_obs::metrics::gather().as_bytes())?;
    Ok(())
}
