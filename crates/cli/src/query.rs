//! `soi query`: one k-SOI query, printed as ranked streets.

use crate::args::Args;
use crate::{acquire_bundle, bundle_params, load, parse_keywords, run_query, DEFAULT_EPS};
use soi_common::{Result, SoiError};
use soi_core::soi::{run_baseline, SoiOutcome, SoiQuery, StreetAggregate};
use soi_data::Dataset;
use soi_obs::log::{self, Value};
use soi_obs::names::phases;
use std::io::Write;

pub(crate) fn run(args: &Args) -> Result<()> {
    let dataset = load(args)?;
    let keywords = parse_keywords(&dataset, args)?;
    let k: usize = args.get_parsed("k", 10)?;
    let eps: f64 = args.get_parsed("eps", DEFAULT_EPS)?;
    let query = SoiQuery::new(keywords, k, eps)?;
    let index = acquire_bundle(args, &dataset, &bundle_params(2.0 * eps, 0), "--eps")?.poi;
    let outcome = match args.get("algo").unwrap_or("soi") {
        "soi" => run_query(&dataset, &index, &query)?,
        "bl" => run_baseline(
            &dataset.network,
            &dataset.pois,
            &index,
            &query,
            StreetAggregate::Max,
        ),
        other => return Err(SoiError::invalid(format!("unknown --algo {other:?}"))),
    };
    print_outcome(&dataset, &outcome)
}

fn print_outcome(dataset: &Dataset, outcome: &SoiOutcome) -> Result<()> {
    let mut out = std::io::stdout().lock();
    writeln!(out, "rank  interest      mass  street")?;
    for (i, r) in outcome.results.iter().enumerate() {
        writeln!(
            out,
            "{:>4}  {:>12.1}  {:>6.1}  {}",
            i + 1,
            r.interest,
            r.best_segment_mass,
            dataset.network.street(r.street).name
        )?;
    }
    let t = &outcome.stats.timer;
    let ms = |d: std::time::Duration| d.as_secs_f64() * 1e3;
    log::event(
        "query.done",
        "query done",
        &[
            ("results", Value::U64(outcome.results.len() as u64)),
            ("total_ms", Value::F64(ms(t.total()))),
            (
                "construction_ms",
                Value::F64(ms(t.duration(phases::CONSTRUCTION))),
            ),
            (
                "filtering_ms",
                Value::F64(ms(t.duration(phases::FILTERING))),
            ),
            (
                "refinement_ms",
                Value::F64(ms(t.duration(phases::REFINEMENT))),
            ),
        ],
    );
    Ok(())
}
