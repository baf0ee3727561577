//! Large-scale smoke test (ignored by default; run with
//! `cargo test --release -- --ignored`). Exercises the full pipeline at
//! half the paper's London size: generation, indexing, identification,
//! description — asserting correctness-preserving invariants rather than
//! timings.

use std::time::Instant;
use streets_of_interest::prelude::*;

#[test]
#[ignore = "several-minute large-scale run; invoke explicitly"]
fn half_scale_london_end_to_end() {
    let start = Instant::now();
    let (dataset, truth) = soi_datagen::generate(&soi_datagen::london(0.5));
    println!(
        "generated {} segments / {} POIs / {} photos in {:?}",
        dataset.network.num_segments(),
        dataset.pois.len(),
        dataset.photos.len(),
        start.elapsed()
    );
    assert!(dataset.network.num_segments() > 40_000);
    assert!(dataset.pois.len() > 1_000_000);

    let eps = 0.0005;
    let t = Instant::now();
    let index = PoiIndex::build(&dataset.network, &dataset.pois, 2.0 * eps);
    println!("POI index built in {:?}", t.elapsed());

    // Identification at paper defaults.
    let query = SoiQuery::new(dataset.query_keywords(&["shop"]), 10, eps).unwrap();
    let t = Instant::now();
    let soi = run_soi(&dataset.network, &dataset.pois, &index, &query).unwrap();
    let soi_time = t.elapsed();
    let t = Instant::now();
    let bl = run_baseline(
        &dataset.network,
        &dataset.pois,
        &index,
        &query,
        StreetAggregate::Max,
    );
    let bl_time = t.elapsed();
    println!("SOI {soi_time:?} vs BL {bl_time:?}");
    assert_eq!(soi.street_ids(), bl.street_ids());
    assert!(
        soi_time < bl_time,
        "SOI should beat BL at this density: {soi_time:?} vs {bl_time:?}"
    );

    // The planted destinations dominate the ranking.
    let planted = truth.for_category("shop");
    let hits = soi
        .results
        .iter()
        .filter(|r| planted.contains(&r.street))
        .count();
    assert!(hits >= 4, "only {hits}/5 planted streets in the top 10");

    // Description of the winner.
    let photo_grid = PhotoGrid::build(&dataset.network, &dataset.photos, 2.0 * eps);
    let ctx = ContextBuilder {
        network: &dataset.network,
        photos: &dataset.photos,
        photo_grid: &photo_grid,
        pois: Some(&dataset.pois),
        eps,
        rho: 0.0001,
        phi_source: PhiSource::Photos,
    }
    .build(soi.results[0].street)
    .unwrap();
    assert!(
        ctx.members.len() > 100,
        "top street has {} photos",
        ctx.members.len()
    );
    let t = Instant::now();
    let summary = st_rel_div(
        &ctx,
        &dataset.photos,
        &DescribeParams::new(20, 0.5, 0.5).unwrap(),
    )
    .unwrap();
    println!(
        "ST_Rel+Div over |Rs|={} in {:?}",
        ctx.members.len(),
        t.elapsed()
    );
    assert_eq!(summary.selected.len(), 20);
    assert!(t.elapsed().as_secs_f64() < 1.0, "paper claims sub-second");
}
