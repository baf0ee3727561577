//! The paper's evaluation (Sec. 5) as assertions.
//!
//! Each test states one table or figure of the paper as a relation on a
//! fixed fixture: the synthetic london, berlin and vienna at scale 0.02,
//! with the paper's ε = 0.0005° and ρ = 0.0001°. The relations compare
//! answers and deterministic work counters (source-list accesses, finalised
//! segments, exact `mmr` evaluations), never wall-clock time, so a claim
//! that breaks fails the suite on any host. README's "paper claim → test"
//! table lists the values each relation reads on this fixture.

use soi_core::describe::{
    greedy_select, knee, objective, st_rel_div, sweep_lambda, ContextBuilder, DescribeParams,
    MethodSpec, PhiSource, StreetContext,
};
use soi_core::soi::paper::{run_soi_paper, PaperScratch};
use soi_core::soi::{run_baseline, run_soi, SoiOutcome, SoiQuery, StreetAggregate};
use soi_data::Dataset;
use soi_datagen::GroundTruth;
use soi_index::{PhotoGrid, PoiIndex};
use std::sync::OnceLock;

/// Dataset scale relative to the paper's Table 1 sizes.
const SCALE: f64 = 0.02;
/// The paper's distance threshold ε (≈ 55 m).
const EPS: f64 = 0.0005;
/// The paper's photo neighbourhood radius ρ.
const RHO: f64 = 0.0001;
/// Cell size of the POI index and of the photo grid.
const CELL: f64 = 2.0 * EPS;
/// The paper's keyword prefix for Table 4 and Fig. 4.
const KEYWORDS: [&str; 4] = ["religion", "education", "food", "services"];
/// The λ values of Fig. 5 and Fig. 6.
const LAMBDAS: [f64; 5] = [0.0, 0.25, 0.5, 0.75, 1.0];

/// One generated city with the indexes the claims query.
struct City {
    dataset: Dataset,
    truth: GroundTruth,
    index: PoiIndex,
    photo_grid: PhotoGrid,
}

impl City {
    fn name(&self) -> &str {
        &self.dataset.name
    }

    fn soi(&self, keywords: &[&str], k: usize) -> SoiOutcome {
        let query = self.query(keywords, k);
        let d = &self.dataset;
        run_soi(&d.network, &d.pois, &self.index, &query).unwrap()
    }

    /// The paper's Alg. 1 as stated, on `scratch`.
    fn soi_paper(&self, keywords: &[&str], k: usize, scratch: &mut PaperScratch) -> SoiOutcome {
        let query = self.query(keywords, k);
        let d = &self.dataset;
        run_soi_paper(&d.network, &d.pois, &self.index, &query, scratch).unwrap()
    }

    fn query(&self, keywords: &[&str], k: usize) -> SoiQuery {
        SoiQuery::new(self.dataset.query_keywords(keywords), k, EPS).unwrap()
    }

    /// The description context of the city's top "shop" street, the street
    /// every description claim summarises.
    fn top_shop_context(&self) -> StreetContext {
        let street = self.soi(&["shop"], 1).results[0].street;
        ContextBuilder {
            network: &self.dataset.network,
            photos: &self.dataset.photos,
            photo_grid: &self.photo_grid,
            pois: Some(&self.dataset.pois),
            eps: EPS,
            rho: RHO,
            phi_source: PhiSource::Photos,
        }
        .build(street)
        .unwrap()
    }
}

/// london, berlin and vienna, each generated and indexed once per test
/// process, in the paper's (descending size) order.
fn cities() -> [&'static City; 3] {
    static CITIES: [OnceLock<City>; 3] = [OnceLock::new(), OnceLock::new(), OnceLock::new()];
    let configs = [
        soi_datagen::london,
        soi_datagen::berlin,
        soi_datagen::vienna,
    ];
    std::array::from_fn(|i| {
        CITIES[i].get_or_init(|| {
            let (dataset, truth) = soi_datagen::generate(&configs[i](SCALE));
            let index = PoiIndex::build(&dataset.network, &dataset.pois, CELL);
            let photo_grid = PhotoGrid::build(&dataset.network, &dataset.photos, CELL);
            City {
                dataset,
                truth,
                index,
                photo_grid,
            }
        })
    })
}

/// Table 1: the three datasets keep the paper's size order in segments,
/// POIs and photos.
#[test]
fn table1_city_sizes_keep_the_papers_order() {
    let sizes: Vec<[usize; 3]> = cities()
        .iter()
        .map(|c| {
            let d = &c.dataset;
            [d.network.num_segments(), d.pois.len(), d.photos.len()]
        })
        .collect();
    for (column, what) in ["segments", "POIs", "photos"].iter().enumerate() {
        for pair in sizes.windows(2) {
            assert!(
                pair[0][column] > pair[1][column],
                "{what} not ordered london > berlin > vienna: {sizes:?}"
            );
        }
    }
}

/// Table 2: the 10-SOI "shop" query finds at least 4 of the 5 planted
/// shopping destinations (the paper's recall@10 of 0.8).
#[test]
fn table2_shop_query_recalls_the_planted_destinations() {
    for city in cities() {
        let planted = city.truth.for_category("shop");
        assert!(
            !planted.is_empty(),
            "{}: no planted shop streets",
            city.name()
        );
        let hits = city
            .soi(&["shop"], 10)
            .results
            .iter()
            .filter(|r| planted.contains(&r.street))
            .count();
        assert!(
            hits as f64 / planted.len() as f64 >= 0.8,
            "{}: recall@10 {hits}/{}",
            city.name(),
            planted.len()
        );
    }
}

/// Table 3: scored by the balanced objective (k = 5, λ = w = 0.5),
/// ST_Rel+Div's summary is at least as good as each of the other eight
/// methods', with no slack.
#[test]
fn table3_st_rel_div_is_the_row_maximum_of_the_nine_methods() {
    const K: usize = 5;
    for city in cities() {
        let ctx = city.top_shop_context();
        let photos = &city.dataset.photos;
        let eval = DescribeParams::new(K, 0.5, 0.5).unwrap();
        let score = |method: MethodSpec| {
            let out = st_rel_div(&ctx, photos, &method.params(K, 0.5, 0.5)).unwrap();
            assert_eq!(out.selected.len(), K, "{}: {method}", city.name());
            objective(&ctx, photos, &eval, &out.selected)
        };
        let st = score(MethodSpec::st_rel_div());
        for method in MethodSpec::all() {
            let other = score(method);
            assert!(
                st >= other,
                "{}: {method} scores {other}, above ST_Rel+Div's {st}",
                city.name()
            );
        }
    }
}

/// Table 4: each keyword of the prefix religion, education, food, services
/// adds relevant POIs.
#[test]
fn table4_relevant_pois_grow_with_the_keyword_prefix() {
    for city in cities() {
        let counts: Vec<usize> = (1..=KEYWORDS.len())
            .map(|n| {
                let q = city.dataset.query_keywords(&KEYWORDS[..n]);
                city.dataset.pois.count_relevant(&q)
            })
            .collect();
        assert!(
            counts.windows(2).all(|w| w[0] < w[1]),
            "{}: {counts:?}",
            city.name()
        );
    }
}

/// Fig. 4: over k ∈ {10, 20, 50, 100, 200} at |Ψ| = 3 and over
/// |Ψ| ∈ {1, 2, 3, 4} at k = 50, SOI answers BL's query exactly while
/// finalising fewer segments than BL scores (all of them); its accesses
/// grow with k and |Ψ|, and it finalises no more segments and visits no
/// more cells than the paper's own bounds and access cycle
/// (`run_soi_paper`), whose accesses grow with k. (An access is not a
/// common unit: a default access finalises one segment, a paper-entry cell
/// access touches every segment near the cell.)
#[test]
fn fig4_soi_answers_like_bl_and_its_accesses_grow_with_k_and_keywords() {
    let mut paper = PaperScratch::default();
    // (|Ψ|, k) settings.
    let vary_k: Vec<(usize, usize)> = [10, 20, 50, 100, 200].map(|k| (3, k)).to_vec();
    let vary_psi: Vec<(usize, usize)> = (1..=4).map(|n| (n, 50)).collect();
    for city in cities() {
        let d = &city.dataset;
        // Default and paper-entry accesses of one sweep.
        let mut run = |settings: &[(usize, usize)]| -> (Vec<usize>, Vec<usize>) {
            let mut accesses = (Vec::new(), Vec::new());
            for &(n, k) in settings {
                let at = format!("{} |Ψ|={n} k={k}", city.name());
                let bl = run_baseline(
                    &d.network,
                    &d.pois,
                    &city.index,
                    &city.query(&KEYWORDS[..n], k),
                    StreetAggregate::Max,
                );
                let soi = city.soi(&KEYWORDS[..n], k);
                let verbatim = city.soi_paper(&KEYWORDS[..n], k, &mut paper);
                assert_eq!(soi.street_ids(), bl.street_ids(), "{at}");
                assert_eq!(verbatim.street_ids(), bl.street_ids(), "{at}: paper entry");
                assert!(
                    soi.stats.segments_finalized() < d.network.num_segments(),
                    "{at}: finalised {} of {} segments",
                    soi.stats.segments_finalized(),
                    d.network.num_segments()
                );
                assert!(
                    soi.stats.segments_finalized() <= verbatim.stats.segments_finalized(),
                    "{at}: finalised {}, paper entry {}",
                    soi.stats.segments_finalized(),
                    verbatim.stats.segments_finalized()
                );
                assert!(
                    soi.stats.cell_visits <= verbatim.stats.cell_visits,
                    "{at}: {} cell visits, paper entry {}",
                    soi.stats.cell_visits,
                    verbatim.stats.cell_visits
                );
                accesses.0.push(soi.stats.accesses);
                accesses.1.push(verbatim.stats.accesses);
            }
            accesses
        };
        let non_decreasing = |v: &[usize]| v.windows(2).all(|w| w[0] <= w[1]);
        let (by_k, paper_by_k) = run(&vary_k);
        let (by_psi, _) = run(&vary_psi);
        assert!(non_decreasing(&by_k), "{}: by k {by_k:?}", city.name());
        assert!(
            non_decreasing(&paper_by_k),
            "{}: paper entry by k {paper_by_k:?}",
            city.name()
        );
        assert!(
            non_decreasing(&by_psi),
            "{}: by |Ψ| {by_psi:?}",
            city.name()
        );
    }
}

/// Fig. 5: raising λ from 0 to 1 (k = 20, w = 0.5) trades the top shop
/// street's summary relevance for diversity, with the knee strictly inside
/// the sweep.
#[test]
fn fig5_lambda_trades_relevance_for_diversity_with_an_interior_knee() {
    for city in cities() {
        let ctx = city.top_shop_context();
        let points = sweep_lambda(&ctx, &city.dataset.photos, 20, 0.5, &LAMBDAS).unwrap();
        for pair in points.windows(2) {
            assert!(
                pair[1].relevance <= pair[0].relevance,
                "{}: relevance rises {pair:?}",
                city.name()
            );
            assert!(
                pair[1].diversity >= pair[0].diversity,
                "{}: diversity falls {pair:?}",
                city.name()
            );
        }
        let knee = knee(&points);
        assert!(
            knee.is_some_and(|i| i > 0 && i + 1 < points.len()),
            "{}: knee {knee:?}",
            city.name()
        );
    }
}

/// Fig. 6: on the 13 settings of k, λ and w, ST_Rel+Div picks the naive
/// greedy's photos with at most half its exact `mmr` evaluations (the
/// paper's lower end of 2–64×).
#[test]
fn fig6_st_rel_div_picks_the_greedy_photos_with_half_the_evaluations() {
    let mut settings: Vec<(usize, f64, f64)> = Vec::new();
    for k in [5, 10, 20, 30, 40] {
        settings.push((k, 0.5, 0.5));
    }
    for x in LAMBDAS {
        settings.push((20, x, 0.5));
        settings.push((20, 0.5, x));
    }
    settings.sort_by(|a, b| a.partial_cmp(b).unwrap());
    settings.dedup();
    assert_eq!(settings.len(), 13);
    for city in cities() {
        let ctx = city.top_shop_context();
        let photos = &city.dataset.photos;
        for &(k, lambda, w) in &settings {
            let params = DescribeParams::new(k, lambda, w).unwrap();
            let greedy = greedy_select(&ctx, photos, &params);
            let st = st_rel_div(&ctx, photos, &params).unwrap();
            let at = format!("{} k={k} λ={lambda} w={w}", city.name());
            assert_eq!(st.selected, greedy.selected, "{at}");
            assert!(
                greedy.stats.photos_evaluated >= 2 * st.stats.photos_evaluated,
                "{at}: greedy {} vs ST_Rel+Div {} evaluations",
                greedy.stats.photos_evaluated,
                st.stats.photos_evaluated
            );
        }
    }
}
