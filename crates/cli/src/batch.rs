//! `soi batch`: a file of k-SOI queries through the multi-threaded engine.

use crate::args::Args;
use crate::{acquire_bundle, bundle_params, load, DEFAULT_EPS};
use soi_common::{Result, ResultExt, SoiError};
use soi_core::soi::SoiQuery;
use soi_data::Dataset;
use soi_engine::{QueryContext, QueryEngine};
use soi_obs::log::{self, Value};
use std::io::Write;

pub(crate) fn run(args: &Args) -> Result<()> {
    let path = args
        .positional()
        .or(args.get("queries"))
        .ok_or_else(|| SoiError::invalid("batch needs a queries file: soi batch FILE.tsv"))?;
    let dataset = load(args)?;
    let eps: f64 = args.get_parsed("eps", DEFAULT_EPS)?;
    let threads: usize = args.get_parsed("threads", 0)?;

    // Parse every line, keeping failures as per-input error records
    // instead of aborting the whole batch on the first bad line. A record
    // carries the 0-based input slot (position among query lines) so it
    // lines up with the engine's `error_records`, plus the 1-based file
    // line in the message for humans.
    let text = std::fs::read_to_string(path).at_path(path)?;
    let mut queries = Vec::new();
    let mut slot_of_valid = Vec::new();
    let mut parse_records = Vec::new();
    let mut input_slots = 0usize;
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let slot = input_slots;
        input_slots += 1;
        match parse_batch_line(&dataset, i + 1, line, eps) {
            Ok(query) => {
                slot_of_valid.push(slot);
                queries.push(query);
            }
            Err(e) => parse_records.push(soi_engine::BatchErrorRecord {
                index: slot,
                stage: "parse",
                category: e.category().to_string(),
                message: e.to_string(),
            }),
        }
    }
    if input_slots == 0 {
        return Err(SoiError::invalid(format!("{path}: no queries found")));
    }
    if queries.is_empty() {
        return Err(SoiError::invalid(format!(
            "{path}: every query line failed to parse ({} errors); first: {}",
            parse_records.len(),
            parse_records[0].message
        )));
    }

    let index = acquire_bundle(args, &dataset, &bundle_params(2.0 * eps, threads), "--eps")?.poi;
    let engine = QueryEngine::new(threads);
    let ctx = std::sync::Arc::new(QueryContext::new(&dataset.network, &dataset.pois, &index));
    let mut batch = engine.run_soi_batch(&ctx, &queries);

    let mut out = std::io::stdout().lock();
    for rec in &parse_records {
        writeln!(out, "query {}: parse error: {}", rec.index + 1, rec.message)?;
    }
    for (i, (query, result)) in queries.iter().zip(&batch.results).enumerate() {
        let slot = slot_of_valid[i];
        match result {
            Ok(outcome) => {
                writeln!(
                    out,
                    "query {}: k={} -> {} streets",
                    slot + 1,
                    query.k,
                    outcome.results.len()
                )?;
                for (rank, r) in outcome.results.iter().enumerate() {
                    writeln!(
                        out,
                        "  {:>3}. {:>10.1}  {}",
                        rank + 1,
                        r.interest,
                        dataset.network.street(r.street).name
                    )?;
                }
            }
            Err(e) => writeln!(out, "query {}: error: {e}", slot + 1)?,
        }
    }
    // The stats artifact reports every failure of the run against its
    // input slot: engine records are remapped from valid-query indices to
    // input slots, then merged with the parse-stage records.
    for rec in &mut batch.telemetry.error_records {
        rec.index = slot_of_valid[rec.index];
    }
    let parse_errors = parse_records.len();
    parse_records.append(&mut batch.telemetry.error_records);
    parse_records.sort_by_key(|r| r.index);
    batch.telemetry.error_records = parse_records;
    if let Some(stats_path) = args.get("stats-json") {
        std::fs::write(stats_path, batch.telemetry.to_json()).at_path(stats_path)?;
    }
    let s = &batch.stats;
    log::event(
        "batch.done",
        "batch done",
        &[
            ("queries", Value::U64(s.queries as u64)),
            ("threads", Value::U64(s.threads as u64)),
            ("wall_ms", Value::F64(s.wall_time.as_secs_f64() * 1e3)),
            ("queries_per_second", Value::F64(s.queries_per_second())),
            ("errors", Value::U64(s.errors as u64)),
            ("parse_errors", Value::U64(parse_errors as u64)),
            ("partials", Value::U64(s.partials as u64)),
        ],
    );
    Ok(())
}

/// Parses one query file line (`keywords<TAB>k[<TAB>eps]`) into a query.
fn parse_batch_line(
    dataset: &Dataset,
    lineno: usize,
    line: &str,
    default_eps: f64,
) -> Result<SoiQuery> {
    let invalid = |what: &str| SoiError::invalid(format!("queries line {lineno}: {what}"));
    let mut fields = line.split('\t');
    let keywords = dataset
        .parse_keyword_list(fields.next().unwrap_or(""))
        .ok_or_else(|| invalid("missing keywords"))?;
    let k: usize = match fields.next() {
        None => 10,
        Some(raw) => raw
            .trim()
            .parse()
            .map_err(|_| invalid(&format!("invalid k {raw:?}")))?,
    };
    let eps: f64 = match fields.next() {
        None => default_eps,
        Some(raw) => raw
            .trim()
            .parse()
            .map_err(|_| invalid(&format!("invalid eps {raw:?}")))?,
    };
    if let Some(extra) = fields.next() {
        return Err(invalid(&format!("unexpected extra field {extra:?}")));
    }
    SoiQuery::new(keywords, k, eps).map_err(|e| invalid(&format!("invalid query ({e})")))
}
