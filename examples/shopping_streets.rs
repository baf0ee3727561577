//! The paper's Table 2 / Figure 1(b) scenario: identify the top-20
//! shopping streets of (a synthetic) Berlin and compare against the
//! generator's planted ground truth, reporting precision/recall.
//!
//! Run with: `cargo run --release --example shopping_streets`

use streets_of_interest::prelude::*;

fn main() {
    let (dataset, truth) = soi_datagen::generate(&soi_datagen::berlin(0.05));
    let planted = truth.for_category("shop");
    println!(
        "{}: {} streets; planted shopping destinations:",
        dataset.name,
        dataset.network.num_streets()
    );
    for &s in planted {
        println!("  - {}", dataset.network.street(s).name);
    }

    let eps = 0.0005;
    let index = PoiIndex::build(&dataset.network, &dataset.pois, 2.0 * eps);
    let query = SoiQuery::new(dataset.query_keywords(&["shop"]), 20, eps).unwrap();
    let outcome = run_soi(&dataset.network, &dataset.pois, &index, &query).expect("valid query");

    println!("\ntop-20 SOIs for \"shop\" (✓ = planted destination):");
    let mut hits_at = vec![0usize; outcome.results.len() + 1];
    let mut hits = 0;
    for (rank, r) in outcome.results.iter().enumerate() {
        let hit = planted.contains(&r.street);
        if hit {
            hits += 1;
        }
        hits_at[rank + 1] = hits;
        println!(
            "  {:>2}. {} {:<22} interest {:>12.1}",
            rank + 1,
            if hit { "✓" } else { " " },
            dataset.network.street(r.street).name,
            r.interest
        );
    }

    let denom = planted.len().max(1) as f64;
    println!(
        "\nrecall@10: {:.2}",
        hits_at.get(10).copied().unwrap_or(hits) as f64 / denom
    );
    println!("recall@20: {:.2}", hits as f64 / denom);
    println!(
        "(the paper reports recall 0.8 at rank 10 against each of its two \
         authoritative web lists, and argues the apparent false positives \
         were genuine shopping streets — here, streets that organically \
         accumulated shop POIs)"
    );
}
