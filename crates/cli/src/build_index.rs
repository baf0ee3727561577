//! `soi build-index`: the index bundle, built and persisted as a snapshot.

use crate::args::Args;
use crate::{load, DEFAULT_EPS, POI_CELL};
use soi_common::{Result, ResultExt, SoiError};
use soi_index::{BundleParams, CacheMode, IndexCache};
use std::io::Write;

pub(crate) fn run(args: &Args) -> Result<()> {
    let dataset = load(args)?;
    let eps: f64 = args.get_parsed("eps", DEFAULT_EPS)?;
    let threads: usize = args.get_parsed("threads", 0)?;
    let params = BundleParams {
        poi_cell: args.get_parsed("poi-cell", 2.0 * eps)?,
        pg_cell: args.get_parsed("pg-cell", POI_CELL)?,
        eps: None,
        with_ir: false,
        threads,
    };
    let poi_option = match args.get("poi-cell") {
        Some(_) => "--poi-cell",
        None => "--eps",
    };
    let pg_option = match args.get("pg-cell") {
        Some(_) => "--pg-cell",
        None => "default",
    };
    params.check(&dataset, [poi_option, pg_option])?;

    let build_started = std::time::Instant::now();
    let bundle = soi_index::build_bundle(&dataset, &params);
    let build = build_started.elapsed();

    let path = match (args.get("out"), args.get("index-cache")) {
        (Some(out), _) => std::path::PathBuf::from(out),
        (None, Some(dir)) => {
            let cache = IndexCache::new(dir, CacheMode::Lenient);
            std::fs::create_dir_all(cache.dir()).at_path(dir)?;
            cache.snapshot_path(&dataset, &params)
        }
        (None, None) => {
            return Err(SoiError::invalid(
                "build-index needs --out FILE or --index-cache DIR",
            ))
        }
    };
    let bytes = soi_index::write_bundle(&path, &dataset, &bundle, &params)?;

    // Reload immediately: verifies the file end-to-end and measures the
    // cold-start win over the fresh build. Stop the clock before the
    // outcome is dropped — tearing down the decoded bundle is not load
    // time (the fresh-build figure does not include its drop either).
    let load_started = std::time::Instant::now();
    let outcome = soi_index::read_bundle(&path, &dataset, &params)?;
    let loaded = load_started.elapsed();
    match outcome {
        soi_index::ReadOutcome::Loaded(_) => {}
        soi_index::ReadOutcome::Stale(reason) => {
            return Err(SoiError::invalid(format!(
                "freshly written snapshot reads back stale: {reason}"
            )))
        }
    }

    let mut out = std::io::stdout().lock();
    writeln!(
        out,
        "wrote {} ({bytes} bytes, {} sections: poi grid + photo grid)",
        path.display(),
        soi_snapshot::Snapshot::open(&path)?.sections().len(),
    )?;
    writeln!(
        out,
        "build {:.3}s, snapshot load {:.3}s ({:.1}x faster)",
        build.as_secs_f64(),
        loaded.as_secs_f64(),
        build.as_secs_f64() / loaded.as_secs_f64().max(1e-9)
    )?;
    Ok(())
}
