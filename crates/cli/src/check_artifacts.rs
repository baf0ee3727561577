//! `soi check-artifacts`: offline validation of traces, telemetry,
//! explain artifacts and index snapshots.

use crate::args::Args;
use soi_common::{Result, ResultExt, SoiError};
use soi_obs::json;
use std::io::Write;

pub(crate) fn run(args: &Args) -> Result<()> {
    let trace_path = args.get("trace");
    let stats_path = args.get("stats");
    let explain_path = args.get("explain");
    let snapshot_path = args.get("snapshot");
    if trace_path.is_none()
        && stats_path.is_none()
        && explain_path.is_none()
        && snapshot_path.is_none()
    {
        return Err(SoiError::invalid(
            "check-artifacts needs --trace FILE, --stats FILE, --explain FILE, \
             and/or --snapshot FILE",
        ));
    }
    let mut out = std::io::stdout().lock();
    if let Some(path) = snapshot_path {
        let (sections, bytes) = check_snapshot_file(path)?;
        writeln!(
            out,
            "snapshot ok: {path} ({sections} sections, {bytes} bytes, all checksums verified)"
        )?;
    }
    if let Some(path) = trace_path {
        let events = check_trace_file(path)?;
        writeln!(out, "trace ok: {path} ({events} events)")?;
    }
    if let Some(path) = stats_path {
        let queries = check_stats_file(path)?;
        writeln!(out, "stats ok: {path} ({queries} queries)")?;
    }
    if let Some(path) = explain_path {
        let rows = check_explain_file(path)?;
        writeln!(out, "explain ok: {path} ({rows} trajectory rows)")?;
    }
    Ok(())
}

/// Validates a Chrome trace file written by `--trace-out`: well-formed
/// JSON with a non-empty `traceEvents` array whose events all carry the
/// fields the trace viewers require. Returns the event count.
fn check_trace_file(path: &str) -> Result<u64> {
    let text = std::fs::read_to_string(path).at_path(path)?;
    let bad = |what: &str| SoiError::invalid(format!("{path}: {what}"));
    let doc = json::parse(&text).map_err(|e| bad(&format!("not valid JSON ({e})")))?;
    let events = doc
        .get("traceEvents")
        .and_then(json::Json::as_arr)
        .ok_or_else(|| bad("missing traceEvents array"))?;
    if events.is_empty() {
        return Err(bad("traceEvents is empty"));
    }
    for (i, ev) in events.iter().enumerate() {
        let has_str = |k: &str| ev.get(k).and_then(json::Json::as_str).is_some();
        let has_num = |k: &str| ev.get(k).and_then(json::Json::as_f64).is_some();
        if !(has_str("name") && has_str("ph") && has_num("ts") && has_num("pid") && has_num("tid"))
        {
            return Err(bad(&format!(
                "traceEvents[{i}] is missing name/ph/ts/pid/tid"
            )));
        }
    }
    Ok(events.len() as u64)
}

/// Validates a telemetry file written by `batch --stats-json`. Returns
/// the query count.
fn check_stats_file(path: &str) -> Result<u64> {
    let text = std::fs::read_to_string(path).at_path(path)?;
    let bad = |what: &str| SoiError::invalid(format!("{path}: {what}"));
    let doc = json::parse(&text).map_err(|e| bad(&format!("not valid JSON ({e})")))?;
    let queries = doc
        .get("queries")
        .and_then(json::Json::as_f64)
        .ok_or_else(|| bad("missing numeric queries field"))?;
    for section in ["counters", "latency"] {
        if doc.get(section).is_none() {
            return Err(bad(&format!("missing {section} object")));
        }
    }
    if doc.get("latency").and_then(|l| l.get("samples")).is_none() {
        return Err(bad("latency object is missing samples"));
    }
    Ok(queries as u64)
}

/// Validates an explain artifact written by `explain --json`. Checks that
/// the bound trajectory is well-formed and actually converged: every row
/// carries numeric bounds, and the recorded termination satisfies
/// UB ≤ LBk. Returns the row count.
fn check_explain_file(path: &str) -> Result<u64> {
    let text = std::fs::read_to_string(path).at_path(path)?;
    let bad = |what: &str| SoiError::invalid(format!("{path}: {what}"));
    let doc = json::parse(&text).map_err(|e| bad(&format!("not valid JSON ({e})")))?;
    let soi = doc.get("soi").ok_or_else(|| bad("missing soi object"))?;
    let rows = soi
        .get("rows")
        .and_then(json::Json::as_arr)
        .ok_or_else(|| bad("soi object is missing rows array"))?;
    if rows.is_empty() {
        return Err(bad("soi.rows is empty"));
    }
    for (i, row) in rows.iter().enumerate() {
        let has_num = |k: &str| row.get(k).and_then(json::Json::as_f64).is_some();
        if !(has_num("access") && has_num("ub") && has_num("lbk")) {
            return Err(bad(&format!("soi.rows[{i}] is missing access/ub/lbk")));
        }
    }
    let term = soi
        .get("termination")
        .ok_or_else(|| bad("soi object is missing termination"))?;
    let num = |k: &str| {
        term.get(k)
            .and_then(json::Json::as_f64)
            .ok_or_else(|| bad(&format!("termination is missing numeric {k}")))
    };
    let (ub, lbk) = (num("ub")?, num("lbk")?);
    if ub > lbk + 1e-9 {
        return Err(bad(&format!(
            "termination did not converge: UB {ub} > LBk {lbk}"
        )));
    }
    if term.get("converged") != Some(&json::Json::Bool(true)) {
        return Err(bad("termination.converged is not true"));
    }
    // The trajectory's last row must itself satisfy the bound condition.
    if let Some(last) = rows.last() {
        let row_num = |k: &str| last.get(k).and_then(json::Json::as_f64).unwrap_or(f64::NAN);
        let (row_ub, row_lbk) = (row_num("ub"), row_num("lbk"));
        let row_converged = row_ub.is_finite() && row_lbk.is_finite() && row_ub <= row_lbk + 1e-9;
        if !row_converged {
            return Err(bad("final trajectory row has UB > LBk"));
        }
    }
    if let Some(describe) = doc.get("describe") {
        if describe
            .get("rounds")
            .and_then(json::Json::as_arr)
            .is_none()
        {
            return Err(bad("describe object is missing rounds array"));
        }
    }
    Ok(rows.len() as u64)
}

/// Validates an index snapshot offline: container magic/version/endianness,
/// the section table (bounds, alignment, overlaps), and every section's
/// payload checksum — all enforced eagerly by [`soi_snapshot::Snapshot::open`].
/// Returns (section count, file bytes).
fn check_snapshot_file(path: &str) -> Result<(u64, u64)> {
    let snapshot = soi_snapshot::Snapshot::open(path)?;
    Ok((snapshot.sections().len() as u64, snapshot.file_len()))
}
