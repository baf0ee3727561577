//! `soi export`: the top-k streets and a photo summary as GeoJSON.

use crate::args::Args;
use crate::{
    acquire_bundle, bundle_params, load, parse_keywords, photo_tags, run_query, DEFAULT_EPS,
    DEFAULT_RHO,
};
use soi_common::{Result, ResultExt};
use soi_core::describe::{st_rel_div, ContextBuilder, DescribeParams};
use soi_core::soi::SoiQuery;
use soi_obs::json;
use std::io::Write;

pub(crate) fn run(args: &Args) -> Result<()> {
    let dataset = load(args)?;
    let out = args.require("out")?;
    let keywords = parse_keywords(&dataset, args)?;
    let k: usize = args.get_parsed("k", 10)?;
    let n_photos: usize = args.get_parsed("photos", 5)?;
    let eps: f64 = args.get_parsed("eps", DEFAULT_EPS)?;

    let bundle = acquire_bundle(args, &dataset, &bundle_params(2.0 * eps, 0), "--eps")?;
    let query = SoiQuery::new(keywords, k, eps)?;
    let outcome = run_query(&dataset, &bundle.poi, &query)?;
    let network = &dataset.network;
    let streets_doc = feature_collection(outcome.results.iter().enumerate().map(|(i, r)| {
        // One line per segment, robust to any segment orientation.
        let street = network.street(r.street);
        let mut lines = json::JsonWriter::array();
        for &sid in &street.segments {
            let g = network.segment(sid).geom;
            let mut line = json::JsonWriter::array();
            line.elem_raw(&position(g.a));
            line.elem_raw(&position(g.b));
            lines.elem_raw(&line.finish());
        }
        let mut props = json::JsonWriter::object();
        props.field_str("name", &street.name);
        props.field_u64("street_id", u64::from(r.street.raw()));
        props.field_u64("rank", i as u64 + 1);
        props.field_f64("interest", r.interest);
        feature("MultiLineString", &lines.finish(), props)
    }));
    std::fs::write(out, &streets_doc).at_path(out)?;
    let mut stdout = std::io::stdout().lock();
    writeln!(stdout, "wrote {} streets to {out}", outcome.results.len())?;

    if let Some(top) = outcome.results.first().map(|r| r.street) {
        let ctx = ContextBuilder::for_dataset(&dataset, &bundle.photo_grid, eps, DEFAULT_RHO)
            .build(top)?;
        if !ctx.members.is_empty() {
            let params = DescribeParams::new(n_photos, 0.5, 0.5)?;
            let summary = st_rel_div(&ctx, &dataset.photos, &params)?;
            let photo_doc = feature_collection(summary.selected.iter().map(|&pid| {
                let photo = dataset.photos.get(pid);
                let tags = photo_tags(&dataset, photo);
                let mut props = json::JsonWriter::object();
                props.field_u64("photo_id", u64::from(pid.raw()));
                props.field_str("tags", &tags.join(","));
                feature("Point", &position(photo.pos), props)
            }));
            let photo_path = format!("{out}.photos.geojson");
            std::fs::write(&photo_path, &photo_doc).at_path(&photo_path)?;
            writeln!(
                stdout,
                "wrote {}-photo summary of {:?} to {photo_path}",
                summary.selected.len(),
                dataset.network.street(top).name
            )?;
        }
    }
    Ok(())
}

/// A GeoJSON FeatureCollection of rendered features.
fn feature_collection(features: impl Iterator<Item = String>) -> String {
    let mut list = json::JsonWriter::array();
    for f in features {
        list.elem_raw(&f);
    }
    let mut doc = json::JsonWriter::object();
    doc.field_str("type", "FeatureCollection");
    doc.field_raw("features", &list.finish());
    doc.finish()
}

/// A GeoJSON Feature of one geometry and its properties.
fn feature(geometry: &str, coordinates: &str, properties: json::JsonWriter) -> String {
    let mut geom = json::JsonWriter::object();
    geom.field_str("type", geometry);
    geom.field_raw("coordinates", coordinates);
    let mut f = json::JsonWriter::object();
    f.field_str("type", "Feature");
    f.field_raw("geometry", &geom.finish());
    f.field_raw("properties", &properties.finish());
    f.finish()
}

/// A GeoJSON position `[x, y]`.
fn position(p: soi_geo::Point) -> String {
    let mut w = json::JsonWriter::array();
    w.elem_f64(p.x);
    w.elem_f64(p.y);
    w.finish()
}
