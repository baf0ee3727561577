//! Persistence round-trip: saving and reloading a dataset must not change
//! any query answer.

use streets_of_interest::prelude::*;

const EPS: f64 = 0.0005;

#[test]
fn saved_and_reloaded_dataset_answers_identically() {
    let (dataset, _) = soi_datagen::generate(&soi_datagen::vienna(0.015));
    let dir = std::env::temp_dir().join("soi_roundtrip_integration");
    soi_data::io::save_dataset(&dataset, &dir).unwrap();
    let reloaded = soi_data::io::load_dataset(&dir).unwrap();
    std::fs::remove_dir_all(&dir).ok();

    assert_eq!(reloaded.pois.len(), dataset.pois.len());
    assert_eq!(reloaded.photos.len(), dataset.photos.len());
    assert_eq!(reloaded.vocab.len(), dataset.vocab.len());

    let index_a = PoiIndex::build(&dataset.network, &dataset.pois, 2.0 * EPS);
    let index_b = PoiIndex::build(&reloaded.network, &reloaded.pois, 2.0 * EPS);

    for keywords in [vec!["shop"], vec!["food", "services"]] {
        let qa = SoiQuery::new(dataset.query_keywords(&keywords), 10, EPS).unwrap();
        let qb = SoiQuery::new(reloaded.query_keywords(&keywords), 10, EPS).unwrap();
        let a = run_soi(&dataset.network, &dataset.pois, &index_a, &qa).unwrap();
        let b = run_soi(&reloaded.network, &reloaded.pois, &index_b, &qb).unwrap();
        assert_eq!(a.street_ids(), b.street_ids(), "keywords {keywords:?}");
        for (ra, rb) in a.results.iter().zip(b.results.iter()) {
            assert_eq!(ra.interest, rb.interest);
            assert_eq!(ra.best_segment, rb.best_segment);
        }
    }

    // Description side too.
    let grid_a = PhotoGrid::build(&dataset.network, &dataset.photos, 2.0 * EPS);
    let grid_b = PhotoGrid::build(&reloaded.network, &reloaded.photos, 2.0 * EPS);
    let q = SoiQuery::new(dataset.query_keywords(&["shop"]), 1, EPS).unwrap();
    let top = run_soi(&dataset.network, &dataset.pois, &index_a, &q)
        .unwrap()
        .results[0]
        .street;
    let make_ctx = |d: &Dataset, g: &PhotoGrid| {
        ContextBuilder {
            network: &d.network,
            photos: &d.photos,
            photo_grid: g,
            pois: Some(&d.pois),
            eps: EPS,
            rho: 0.0001,
            phi_source: PhiSource::Photos,
        }
        .build(top)
        .unwrap()
    };
    let ctx_a = make_ctx(&dataset, &grid_a);
    let ctx_b = make_ctx(&reloaded, &grid_b);
    assert_eq!(ctx_a.members, ctx_b.members);
    let params = DescribeParams::new(5, 0.5, 0.5).unwrap();
    let sa = st_rel_div(&ctx_a, &dataset.photos, &params).unwrap();
    let sb = st_rel_div(&ctx_b, &reloaded.photos, &params).unwrap();
    assert_eq!(sa.selected, sb.selected);
    assert_eq!(sa.objective, sb.objective);
}
