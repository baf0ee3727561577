//! `soi explain`: a k-SOI query under the explain collector (and, with
//! `--describe`, Alg. 2 on the top street), printed as tables.

use crate::args::Args;
use crate::{acquire_bundle, bundle_params, load, parse_keywords, DEFAULT_EPS, DEFAULT_RHO};
use soi_common::{Result, ResultExt};
use soi_core::describe::{
    st_rel_div_full, ContextBuilder, DescribeExplain, DescribeParams, DescribeScratch,
};
use soi_core::soi::{run_soi_full, SoiExplain, SoiQuery, SoiScratch};
use soi_core::QueryBudget;
use soi_obs::names::phases;
use soi_obs::{json, log};
use std::io::Write;

pub(crate) fn run(args: &Args) -> Result<()> {
    let dataset = load(args)?;
    let keywords = parse_keywords(&dataset, args)?;
    let k: usize = args.get_parsed("k", 10)?;
    let eps: f64 = args.get_parsed("eps", DEFAULT_EPS)?;
    let query = SoiQuery::new(keywords, k, eps)?;
    let bundle = acquire_bundle(args, &dataset, &bundle_params(2.0 * eps, 0), "--eps")?;
    let index = bundle.poi;

    let mut explain = SoiExplain::default();
    // Registered before the scope opens: the query's allocation count is
    // the query's alone.
    soi_core::obs::register_metrics();
    let scope = soi_obs::AllocScope::start();
    let outcome = run_soi_full(
        &dataset.network,
        &dataset.pois,
        &index,
        &query,
        &mut SoiScratch::default(),
        Some(&mut explain),
        QueryBudget::unlimited(),
    )?;
    let alloc = scope.finish();

    // Optionally explain Alg. 2 on the winning street.
    let mut describe: Option<(String, DescribeExplain)> = None;
    if args.flag("describe") {
        match outcome.results.first() {
            None => log::event(
                "explain.describe",
                "no street matched the query; nothing to describe",
                &[],
            ),
            Some(top) => {
                let ctx = ContextBuilder::for_dataset(
                    &dataset,
                    &bundle.photo_grid,
                    eps,
                    args.get_parsed("rho", DEFAULT_RHO)?,
                )
                .build(top.street)?;
                let params = DescribeParams::new(args.get_parsed("photos", 5)?, 0.5, 0.5)?;
                let mut dex = DescribeExplain::default();
                let _ = st_rel_div_full(
                    &ctx,
                    &dataset.photos,
                    &params,
                    &mut DescribeScratch::default(),
                    Some(&mut dex),
                    QueryBudget::unlimited(),
                )?;
                let name = dataset.network.street(top.street).name.clone();
                describe = Some((name, dex));
            }
        }
    }

    let mut out = std::io::stdout().lock();
    writeln!(
        out,
        "k-SOI explain: k={} eps={} keywords={}",
        explain.k, explain.eps, explain.keywords
    )?;
    print_soi_explain(&mut out, &explain, 40)?;
    writeln!(
        out,
        "memory: {} allocations, {} bytes allocated, peak {} bytes above baseline",
        alloc.allocs, alloc.allocated_bytes, alloc.peak_bytes
    )?;
    writeln!(out, "\ntop-{} streets:", outcome.results.len())?;
    for (i, r) in outcome.results.iter().enumerate() {
        writeln!(
            out,
            "{:>4}  {:>12.1}  {}",
            i + 1,
            r.interest,
            dataset.network.street(r.street).name
        )?;
    }
    if let Some((name, dex)) = &describe {
        print_describe_explain(&mut out, name, dex)?;
    }

    if let Some(path) = args.get("json") {
        let mut doc = json::JsonWriter::object();
        doc.field_raw("soi", &explain.to_json());
        if let Some((_, dex)) = &describe {
            doc.field_raw("describe", &dex.to_json());
        }
        let mut mem = json::JsonWriter::object();
        mem.field_u64("allocations", alloc.allocs);
        mem.field_u64("allocated_bytes", alloc.allocated_bytes);
        mem.field_u64("peak_bytes", alloc.peak_bytes);
        doc.field_raw("alloc", &mem.finish());
        std::fs::write(path, doc.finish()).at_path(path)?;
        writeln!(out, "\nwrote explain artifact to {path}")?;
    }
    Ok(())
}

/// Renders the bound-convergence table of one explained k-SOI run, showing
/// at most `max_printed` evenly spaced rows (the termination row always
/// prints last).
fn print_soi_explain(out: &mut impl Write, explain: &SoiExplain, max_printed: usize) -> Result<()> {
    writeln!(out, "lists: SL2={} runs", explain.sl2_runs)?;
    writeln!(
        out,
        "\nbound convergence ({} rows recorded; every access pops SL2's head, \
         and UB is its prefix-sum bound b):",
        explain.rows.len()
    )?;
    writeln!(out, "{:>7}  {:>12}  {:>12}", "access", "UB", "LBk")?;
    let step = explain.rows.len().div_ceil(max_printed.max(1)).max(1);
    for (i, row) in explain.rows.iter().enumerate() {
        if i % step != 0 && i != explain.rows.len() - 1 {
            continue;
        }
        writeln!(
            out,
            "{:>7}  {:>12.4}  {:>12.4}",
            row.access, row.ub, row.lbk
        )?;
    }
    if let Some(t) = explain.termination {
        writeln!(
            out,
            "termination: UB {:.6} <= LBk {:.6} after {} accesses",
            t.ub, t.lbk, t.accesses
        )?;
    }
    if let Some(s) = &explain.stats {
        writeln!(
            out,
            "\ncounters: accesses={} cell_visits={} bounded_out={}",
            s.accesses, s.cell_visits, s.segments_bounded_out
        )?;
        let ms = |p: &str| s.timer.duration(p).as_secs_f64() * 1e3;
        writeln!(
            out,
            "phases: construction {:.2}ms, filtering {:.2}ms, refinement {:.2}ms",
            ms(phases::CONSTRUCTION),
            ms(phases::FILTERING),
            ms(phases::REFINEMENT)
        )?;
    }
    Ok(())
}

/// Renders the per-greedy-round cell-filter report of one explained Alg. 2
/// run.
fn print_describe_explain(
    out: &mut impl Write,
    street_name: &str,
    explain: &DescribeExplain,
) -> Result<()> {
    writeln!(
        out,
        "\ndescribe explain for {street_name:?} ({} rounds):",
        explain.rounds.len()
    )?;
    writeln!(
        out,
        "{:>5}  {:>5}  {:>8}  {:>8}  {:>8}  {:>7}  {:>10}  {:>7}",
        "round", "cells", "prunedF", "refined", "prunedR", "photos", "best_mmr", "photo"
    )?;
    for r in &explain.rounds {
        writeln!(
            out,
            "{:>5}  {:>5}  {:>8}  {:>8}  {:>8}  {:>7}  {:>10}  {:>7}",
            r.round,
            r.cells_candidate,
            r.cells_pruned_filtering,
            r.cells_refined,
            r.cells_pruned_refinement,
            r.photos_scored,
            r.best_mmr
                .map_or_else(|| "-".to_string(), |v| format!("{v:.4}")),
            r.selected
                .map_or_else(|| "-".to_string(), |p| format!("#{}", p.raw()))
        )?;
    }
    if let Some(s) = &explain.stats {
        writeln!(
            out,
            "totals: photos_evaluated={} cells_refined={} pruned_filtering={} pruned_refinement={}",
            s.photos_evaluated,
            s.cells_refined,
            s.cells_pruned_filtering,
            s.cells_pruned_refinement
        )?;
    }
    Ok(())
}
