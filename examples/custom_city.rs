//! Building a dataset by hand — no generator involved. Shows the builder
//! APIs a user would call to load their own road network, POIs, and photos
//! (e.g. from an OpenStreetMap extract), then runs both tasks on it.
//!
//! The toy city: two parallel main streets and a connector. "Cafe Row" is
//! packed with cafés; "Office Drive" has offices; the connector is empty.
//!
//! Run with: `cargo run --release --example custom_city`

use streets_of_interest::prelude::*;

fn main() {
    // --- Road network.
    let mut builder = RoadNetwork::builder();
    let cafe_row = builder.add_street_from_points(
        "Cafe Row",
        &[
            Point::new(0.0, 0.0),
            Point::new(0.002, 0.0),
            Point::new(0.004, 0.0),
        ],
    );
    let office_drive = builder.add_street_from_points(
        "Office Drive",
        &[
            Point::new(0.0, 0.003),
            Point::new(0.002, 0.003),
            Point::new(0.004, 0.003),
        ],
    );
    builder.add_street_from_points(
        "Connector Lane",
        &[Point::new(0.002, 0.0), Point::new(0.002, 0.003)],
    );
    let network = builder.build().expect("valid network");
    let _ = (cafe_row, office_drive);

    // --- Vocabulary and POIs.
    let mut vocab = Vocabulary::new();
    let cafe = vocab.intern("cafe");
    let food = vocab.intern("food");
    let office = vocab.intern("office");

    let mut pois = PoiCollection::new();
    // A café every ~40 m along Cafe Row, slightly off the centreline.
    for i in 0..10 {
        pois.add(
            Point::new(i as f64 * 0.0004, 0.0002),
            KeywordSet::from_ids([cafe, food]),
        );
    }
    // Offices along Office Drive.
    for i in 0..4 {
        pois.add(
            Point::new(i as f64 * 0.001, 0.0032),
            KeywordSet::from_ids([office]),
        );
    }
    // One heavyweight POI: a famous food market (weight 5).
    pois.add_weighted(
        Point::new(0.0038, 0.0001),
        KeywordSet::from_ids([food]),
        5.0,
    );

    // --- Photos with tags.
    let mut photos = PhotoCollection::new();
    let latte = vocab.intern("latte");
    let brunch = vocab.intern("brunch");
    let market = vocab.intern("market");
    for i in 0..6 {
        photos.add(
            Point::new(i as f64 * 0.0006, 0.00015),
            KeywordSet::from_ids(if i % 2 == 0 {
                [cafe, latte]
            } else {
                [cafe, brunch]
            }),
        );
    }
    photos.add(
        Point::new(0.0038, 0.00012),
        KeywordSet::from_ids([food, market]),
    );

    let dataset = Dataset::new("toytown", network, vocab, pois, photos);

    // --- Identify: best street for "food".
    let eps = 0.0005;
    let index = PoiIndex::build(&dataset.network, &dataset.pois, 2.0 * eps);
    let query = SoiQuery::new(dataset.query_keywords(&["food"]), 3, eps).unwrap();
    let outcome = run_soi(&dataset.network, &dataset.pois, &index, &query).expect("valid query");
    println!("food streets:");
    for r in &outcome.results {
        println!(
            "  {:<16} interest {:>10.1} (best-segment mass {})",
            dataset.network.street(r.street).name,
            r.interest,
            r.best_segment_mass
        );
    }
    assert_eq!(
        dataset.network.street(outcome.results[0].street).name,
        "Cafe Row"
    );

    // --- Describe Cafe Row with 3 photos.
    let photo_grid = PhotoGrid::build(&dataset.network, &dataset.photos, 2.0 * eps);
    let ctx = ContextBuilder {
        network: &dataset.network,
        photos: &dataset.photos,
        photo_grid: &photo_grid,
        pois: Some(&dataset.pois),
        eps,
        rho: 0.0004,
        phi_source: PhiSource::PhotosAndPois,
    }
    .build(outcome.results[0].street)
    .expect("valid context inputs");
    let summary = st_rel_div(
        &ctx,
        &dataset.photos,
        &DescribeParams::new(3, 0.5, 0.5).unwrap(),
    )
    .expect("valid params");
    println!("\nCafe Row in 3 photos:");
    for &pid in &summary.selected {
        let photo = dataset.photos.get(pid);
        let tags: Vec<&str> = photo
            .tags
            .iter()
            .filter_map(|t| dataset.vocab.term(t))
            .collect();
        println!("  photo #{} [{}]", pid.raw(), tags.join(", "));
    }
}
