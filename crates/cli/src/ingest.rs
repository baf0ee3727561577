//! `soi ingest`: a JSON-lines delta file streamed to a running server.

use crate::args::Args;
use soi_common::{Result, ResultExt, SoiError};
use soi_obs::json;
use std::io::Write;

/// `soi ingest FILE --addr HOST:PORT`: streams a JSON-lines delta file to
/// a running server's `POST /ingest`, in batches.
pub(crate) fn run(args: &Args) -> Result<()> {
    use std::time::Duration;
    let path = args.positional().or(args.get("file")).ok_or_else(|| {
        SoiError::invalid("ingest needs a delta file: soi ingest FILE --addr ...")
    })?;
    let addr: std::net::SocketAddr = args
        .require("addr")?
        .parse()
        .map_err(|_| SoiError::invalid("--addr must be HOST:PORT"))?;
    let timeout = Duration::from_millis(args.get_parsed("timeout-ms", 5000u64)?);
    let batch: usize = args.get_parsed("batch", 256usize)?;
    let text = std::fs::read_to_string(path).at_path(path)?;
    let lines: Vec<&str> = text
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty())
        .collect();
    if lines.is_empty() {
        return Err(SoiError::invalid(format!("no delta lines in {path}")));
    }
    let mut out = std::io::stdout().lock();
    let mut sent = 0usize;
    let mut folds = 0u64;
    let mut last_epoch = 0u64;
    for chunk in lines.chunks(batch.max(1)) {
        let body = chunk.join("\n");
        let response = soi_serve::client::request(addr, "POST", "/ingest", Some(&body), timeout)?;
        if response.status != 200 {
            return Err(SoiError::invalid(format!(
                "/ingest answered {} after {} of {} ops accepted: {}",
                response.status,
                sent,
                lines.len(),
                response.body
            )));
        }
        sent += chunk.len();
        if let Ok(doc) = json::parse(&response.body) {
            if let Some(e) = doc.get("epoch").and_then(|v| v.as_f64()) {
                last_epoch = e as u64;
            }
            if doc.get("folded").and_then(|v| v.as_bool()) == Some(true) {
                folds += 1;
            }
        }
    }
    writeln!(
        out,
        "ingested {} ops in {} batches ({} folds); server epoch {}",
        sent,
        lines.len().div_ceil(batch.max(1)),
        folds,
        last_epoch
    )?;
    Ok(())
}
