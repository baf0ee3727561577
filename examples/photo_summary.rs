//! The paper's Figure 3 scenario: summarise the top shopping street with
//! three photos under different criteria, showing why spatio-textual
//! relevance *and* diversity are both needed.
//!
//! - `S_Rel` drowns in a near-duplicate landmark burst (the "HMV effect");
//! - `T_Rel` drowns in one loud event's tags (the "demonstration effect");
//! - `ST_Rel+Div` mixes viewpoints.
//!
//! Run with: `cargo run --release --example photo_summary`

use streets_of_interest::prelude::*;

fn describe_with(name: &str, dataset: &Dataset, ctx: &StreetContext, params: &DescribeParams) {
    let out = st_rel_div(ctx, &dataset.photos, params).expect("valid params");
    println!("\n{name} (λ = {}, w = {}):", params.lambda, params.w);
    for &pid in &out.selected {
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
    // Score every method's pick with the balanced objective for comparison.
    let eval = DescribeParams::new(params.k, 0.5, 0.5).unwrap();
    let f = soi_core::describe::objective(ctx, &dataset.photos, &eval, &out.selected);
    println!("  balanced objective F = {f:.4}");
}

fn main() {
    let (dataset, _truth) = soi_datagen::generate(&soi_datagen::london(0.05));
    let eps = 0.0005;
    let index = PoiIndex::build(&dataset.network, &dataset.pois, 2.0 * eps);

    // The street to describe: the top "shop" SOI (our Oxford Street).
    let query = SoiQuery::new(dataset.query_keywords(&["shop"]), 1, eps).unwrap();
    let top = run_soi(&dataset.network, &dataset.pois, &index, &query)
        .expect("valid query")
        .results[0]
        .street;
    println!(
        "describing {} with 3 photos under different criteria",
        dataset.network.street(top).name
    );

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
    .build(top)
    .expect("valid context inputs");
    println!(
        "({} candidate photos within ε of the street)",
        ctx.members.len()
    );

    let k = 3;
    // The three headline methods of Figure 3; MethodSpec::all() has all nine.
    for method in [
        MethodSpec {
            aspect: soi_core::describe::Aspect::S,
            criterion: soi_core::describe::Criterion::Rel,
        },
        MethodSpec {
            aspect: soi_core::describe::Aspect::T,
            criterion: soi_core::describe::Criterion::Rel,
        },
        MethodSpec::st_rel_div(),
    ] {
        let params = method.params(k, 0.5, 0.5);
        describe_with(method.name(), &dataset, &ctx, &params);
    }
}
