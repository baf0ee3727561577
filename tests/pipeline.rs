//! End-to-end integration tests across the whole workspace: generator →
//! indexes → identification → description, on realistically structured
//! synthetic cities.

use streets_of_interest::prelude::*;

const EPS: f64 = 0.0005;
const RHO: f64 = 0.0001;

fn city() -> (Dataset, soi_datagen::GroundTruth) {
    soi_datagen::generate(&soi_datagen::berlin(0.02))
}

#[test]
fn soi_and_baseline_agree_on_generated_city() {
    let (dataset, _) = city();
    let index = PoiIndex::build(&dataset.network, &dataset.pois, 2.0 * EPS);
    for keywords in [vec!["shop"], vec!["food", "culture"], vec!["religion"]] {
        for k in [1usize, 5, 25] {
            let query = SoiQuery::new(dataset.query_keywords(&keywords), k, EPS).unwrap();
            let soi = run_soi(&dataset.network, &dataset.pois, &index, &query).unwrap();
            let bl = run_baseline(
                &dataset.network,
                &dataset.pois,
                &index,
                &query,
                StreetAggregate::Max,
            );
            assert_eq!(
                soi.street_ids(),
                bl.street_ids(),
                "keywords {keywords:?} k={k}"
            );
            for (a, b) in soi.results.iter().zip(bl.results.iter()) {
                assert!((a.interest - b.interest).abs() < 1e-9);
            }
        }
    }
}

#[test]
fn description_pipeline_is_deterministic_and_consistent() {
    let (dataset, _) = city();
    let index = PoiIndex::build(&dataset.network, &dataset.pois, 2.0 * EPS);
    let photo_grid = PhotoGrid::build(&dataset.network, &dataset.photos, 2.0 * EPS);

    let query = SoiQuery::new(dataset.query_keywords(&["shop"]), 1, EPS).unwrap();
    let top = run_soi(&dataset.network, &dataset.pois, &index, &query)
        .unwrap()
        .results[0]
        .street;

    let builder = ContextBuilder {
        network: &dataset.network,
        photos: &dataset.photos,
        photo_grid: &photo_grid,
        pois: Some(&dataset.pois),
        eps: EPS,
        rho: RHO,
        phi_source: PhiSource::Photos,
    };
    let ctx = builder.build(top).unwrap();
    assert!(!ctx.members.is_empty(), "top shop street has no photos");

    let params = DescribeParams::new(8, 0.5, 0.5).unwrap();
    let fast = st_rel_div(&ctx, &dataset.photos, &params).unwrap();
    let slow = greedy_select(&ctx, &dataset.photos, &params);
    assert_eq!(fast.selected, slow.selected);
    assert_eq!(fast.selected.len(), 8.min(ctx.members.len()));

    // Deterministic across a rebuild of the context.
    let ctx2 = builder.build(top).unwrap();
    let again = st_rel_div(&ctx2, &dataset.photos, &params).unwrap();
    assert_eq!(fast.selected, again.selected);

    // All selected photos really belong to the street's photo set.
    for pid in &fast.selected {
        assert!(ctx.members.contains(pid));
    }
}
