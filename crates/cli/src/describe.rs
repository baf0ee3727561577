//! `soi describe`: a diversified photo summary of one street.

use crate::args::Args;
use crate::{
    acquire_bundle, bundle_params, load, parse_keywords, photo_tags, run_query, DEFAULT_EPS,
    DEFAULT_RHO, POI_CELL,
};
use soi_common::{Result, SoiError};
use soi_core::describe::{st_rel_div, ContextBuilder, DescribeParams};
use soi_core::soi::SoiQuery;
use soi_data::Dataset;
use soi_index::PoiIndex;
use std::io::Write;

pub(crate) fn run(args: &Args) -> Result<()> {
    let dataset = load(args)?;
    let eps: f64 = args.get_parsed("eps", DEFAULT_EPS)?;
    let rho: f64 = args.get_parsed("rho", DEFAULT_RHO)?;
    let k: usize = args.get_parsed("photos", 5)?;
    let lambda: f64 = args.get_parsed("lambda", 0.5)?;
    let w: f64 = args.get_parsed("w", 0.5)?;

    let bundle = acquire_bundle(args, &dataset, &bundle_params(POI_CELL, 0), "default")?;
    let street = match args.get("street") {
        Some(name) => dataset
            .street_by_name(name)
            .ok_or_else(|| SoiError::not_found(format!("street {name:?}")))?,
        None => {
            let keywords = parse_keywords(&dataset, args)?;
            top_street(&dataset, &bundle.poi, keywords, eps)?
        }
    };

    let ctx = ContextBuilder::for_dataset(&dataset, &bundle.photo_grid, eps, rho).build(street)?;
    let params = DescribeParams::new(k, lambda, w)?;
    let out = st_rel_div(&ctx, &dataset.photos, &params)?;

    let mut stdout = std::io::stdout().lock();
    writeln!(
        stdout,
        "street: {} ({} photos within ε)",
        dataset.network.street(street).name,
        ctx.members.len()
    )?;
    writeln!(
        stdout,
        "summary of {} photos (F = {:.4}):",
        out.selected.len(),
        out.objective
    )?;
    for &pid in &out.selected {
        let photo = dataset.photos.get(pid);
        let tags = photo_tags(&dataset, photo);
        writeln!(
            stdout,
            "  photo #{} at ({:.5}, {:.5}) tags: {}",
            pid.raw(),
            photo.pos.x,
            photo.pos.y,
            tags.join(", ")
        )?;
    }
    Ok(())
}

fn top_street(
    dataset: &Dataset,
    index: &PoiIndex,
    keywords: soi_text::KeywordSet,
    eps: f64,
) -> Result<soi_common::StreetId> {
    let query = SoiQuery::new(keywords, 1, eps)?;
    let out = run_query(dataset, index, &query)?;
    out.results
        .first()
        .map(|r| r.street)
        .ok_or_else(|| SoiError::not_found("no street matches the query keywords"))
}
