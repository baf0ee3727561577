//! Quickstart: generate a city, find the top shopping streets, and
//! summarise the best one with a handful of diverse photos.
//!
//! Run with: `cargo run --release --example quickstart`

use streets_of_interest::prelude::*;

fn main() {
    // 1. A small synthetic Vienna (deterministic: same seed, same city).
    let (dataset, _truth) = soi_datagen::generate(&soi_datagen::vienna(0.02));
    println!(
        "generated {}: {} streets / {} segments, {} POIs, {} photos",
        dataset.name,
        dataset.network.num_streets(),
        dataset.network.num_segments(),
        dataset.pois.len(),
        dataset.photos.len()
    );

    // 2. Build the spatio-textual POI index (offline structure).
    let eps = 0.0005; // the paper's ε ≈ 55 m
    let index = PoiIndex::build(&dataset.network, &dataset.pois, 2.0 * eps);

    // 3. Identify: top-5 streets for "shop".
    let query = SoiQuery::new(dataset.query_keywords(&["shop"]), 5, eps).expect("valid query");
    let outcome = run_soi(&dataset.network, &dataset.pois, &index, &query).expect("valid query");
    println!("\ntop shopping streets:");
    for (rank, r) in outcome.results.iter().enumerate() {
        println!(
            "  {}. {:<22} interest {:>12.1} ({:.1} relevant-POI weight at its best segment)",
            rank + 1,
            dataset.network.street(r.street).name,
            r.interest,
            r.best_segment_mass
        );
    }

    // 4. Describe: a 4-photo spatio-textually diverse summary of the winner.
    let top = outcome.results[0].street;
    let photo_grid = PhotoGrid::build(&dataset.network, &dataset.photos, 2.0 * eps);
    let ctx = ContextBuilder {
        network: &dataset.network,
        photos: &dataset.photos,
        photo_grid: &photo_grid,
        pois: Some(&dataset.pois),
        eps,
        rho: 0.0001, // the paper's ρ
        phi_source: PhiSource::Photos,
    }
    .build(top)
    .expect("valid context inputs");
    let params = DescribeParams::new(4, 0.5, 0.5).expect("valid params");
    let summary = st_rel_div(&ctx, &dataset.photos, &params).expect("valid params");

    println!(
        "\nphoto summary of {} ({} candidate photos, objective {:.4}):",
        dataset.network.street(top).name,
        ctx.members.len(),
        summary.objective
    );
    for &pid in &summary.selected {
        let photo = dataset.photos.get(pid);
        let tags: Vec<&str> = photo
            .tags
            .iter()
            .filter_map(|t| dataset.vocab.term(t))
            .collect();
        println!(
            "  photo #{:<5} at ({:>8.5}, {:>8.5})  [{}]",
            pid.raw(),
            photo.pos.x,
            photo.pos.y,
            tags.join(", ")
        );
    }
}
