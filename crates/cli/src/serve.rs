//! `soi serve`: the HTTP server, until SIGTERM.

use crate::args::Args;
use crate::{cache_mode, load, DEFAULT_EPS, DEFAULT_RHO};
use soi_common::{Result, ResultExt};
use soi_index::CacheMode;
use std::io::Write;

pub(crate) fn run(args: &Args) -> Result<()> {
    use std::time::Duration;
    let dataset = load(args)?;
    let slow_query_ms: u64 = args.get_parsed("slow-query-ms", 0u64)?;
    let mut config = soi_serve::ServeConfig {
        addr: args.get("addr").unwrap_or("127.0.0.1:7878").to_string(),
        engine_threads: args.get_parsed("threads", 0usize)?,
        io_threads: args.get_parsed("io-threads", 4usize)?,
        queue_capacity: args.get_parsed("queue", 64usize)?,
        default_deadline: Duration::from_millis(args.get_parsed("deadline-ms", 250u64)?),
        max_deadline: Duration::from_millis(args.get_parsed("max-deadline-ms", 10_000u64)?),
        eps: args.get_parsed("eps", DEFAULT_EPS)?,
        rho: args.get_parsed("rho", DEFAULT_RHO)?,
        index_cache: args.get("index-cache").map(std::path::PathBuf::from),
        trace_sample: args.get_parsed("trace-sample", 0u64)?,
        slow_query: (slow_query_ms > 0).then(|| Duration::from_millis(slow_query_ms)),
        ring_capacity: args.get_parsed("ring-capacity", 256usize)?,
        epoch_max_delta: args.get_parsed("epoch-max-delta", 4096usize)?,
        ingest_log: args.get("ingest-log").map(std::path::PathBuf::from),
        ..soi_serve::ServeConfig::default()
    };
    config.index_cache_strict = cache_mode(args)? == CacheMode::Strict;
    soi_serve::signal::install_handlers();
    let report = soi_serve::serve(
        &dataset,
        &config,
        soi_serve::signal::shutdown_flag(),
        |addr| {
            // Scripts scrape this line for the bound port (port 0 picks a
            // free one), so it must reach the pipe before traffic starts.
            let mut out = std::io::stdout().lock();
            let _ = writeln!(out, "listening on {addr}");
            let _ = out.flush();
        },
    )?;
    if let Some(stats_path) = args.get("stats-json") {
        std::fs::write(stats_path, report.to_json()).at_path(stats_path)?;
    }
    let mut out = std::io::stdout().lock();
    writeln!(
        out,
        "drained: {} requests ({} shed, {} rejected, {} partial, {} errors, {} panics)",
        report.requests,
        report.sheds,
        report.rejected,
        report.partials,
        report.errors,
        report.panics
    )?;
    Ok(())
}
