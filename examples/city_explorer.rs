//! Exploring a city across categories: the exploratory-search workflow the
//! paper's introduction motivates — identify interesting streets per
//! category, then across two categories for an evening out.
//!
//! Run with: `cargo run --release --example city_explorer`

use streets_of_interest::prelude::*;

fn main() {
    let (dataset, _truth) = soi_datagen::generate(&soi_datagen::vienna(0.05));
    let eps = 0.0005;
    let index = PoiIndex::build(&dataset.network, &dataset.pois, 2.0 * eps);

    println!("exploring {} by category:\n", dataset.name);
    for category in ["shop", "food", "culture", "entertainment"] {
        let query = SoiQuery::new(dataset.query_keywords(&[category]), 3, eps).unwrap();
        let outcome =
            run_soi(&dataset.network, &dataset.pois, &index, &query).expect("valid query");
        println!("{category}:");
        for r in &outcome.results {
            println!(
                "  {:<22} interest {:>12.1}",
                dataset.network.street(r.street).name,
                r.interest
            );
        }
    }

    // Multi-keyword query: anywhere good for an evening out.
    let query = SoiQuery::new(dataset.query_keywords(&["food", "entertainment"]), 8, eps).unwrap();
    let outcome = run_soi(&dataset.network, &dataset.pois, &index, &query).expect("valid query");
    println!("\nevening-out streets (food ∪ entertainment):");
    for r in &outcome.results {
        println!(
            "  {:<22} interest {:>12.1}",
            dataset.network.street(r.street).name,
            r.interest
        );
    }
}
