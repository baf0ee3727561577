//! Randomised correctness tests for the SOI algorithm.
//!
//! The paper's guarantee (Problem 1): a k-SOI answer is any k-set such that
//! every non-returned street has interest ≤ the minimum returned interest.
//! We verify:
//!
//! 1. the BL baseline equals the index-free brute force exactly;
//! 2. the SOI algorithm's returned interests are exact, its result is a
//!    valid top-k set, and it has exactly `min(k, #positive streets)`
//!    entries — under every access strategy and several check intervals.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use soi_common::{FxHashMap, KeywordId, SegmentId, StreetId};
use soi_core::soi::{
    brute_force, exact_street_interests, run_baseline, run_soi, run_soi_with_scratch,
    AccessStrategy, SoiConfig, SoiOutcome, SoiQuery, SoiScratch, StreetAggregate,
};
use soi_data::{PhotoCollection, PoiCollection};
use soi_geo::Point;
use soi_index::{DeltaIndex, DeltaOp, IndexView, PoiIndex};
use soi_network::RoadNetwork;
use soi_text::KeywordSet;

const NUM_KEYWORDS: u32 = 6;

/// Builds a jittered grid road network with horizontal and vertical streets.
fn random_city(rng: &mut StdRng, rows: usize, cols: usize) -> RoadNetwork {
    let mut b = RoadNetwork::builder();
    let spacing = 1.0;
    let jitter = 0.15;
    // Node positions (grid with jitter).
    let mut pos = vec![vec![Point::ORIGIN; cols]; rows];
    for (r, row) in pos.iter_mut().enumerate() {
        for (c, p) in row.iter_mut().enumerate() {
            *p = Point::new(
                c as f64 * spacing + rng.random_range(-jitter..jitter),
                r as f64 * spacing + rng.random_range(-jitter..jitter),
            );
        }
    }
    for (r, row) in pos.iter().enumerate() {
        b.add_street_from_points(format!("h{r}"), row);
    }
    for c in 0..cols {
        let col: Vec<Point> = pos.iter().map(|row| row[c]).collect();
        b.add_street_from_points(format!("v{c}"), &col);
    }
    b.build().unwrap()
}

fn random_pois(rng: &mut StdRng, n: usize, extent: f64) -> PoiCollection {
    let mut pois = PoiCollection::new();
    for _ in 0..n {
        let p = Point::new(
            rng.random_range(-0.5..extent + 0.5),
            rng.random_range(-0.5..extent + 0.5),
        );
        let n_kw = rng.random_range(0..3usize);
        let kws =
            KeywordSet::from_ids((0..n_kw).map(|_| KeywordId(rng.random_range(0..NUM_KEYWORDS))));
        if rng.random_range(0..10) == 0 {
            pois.add_weighted(p, kws, rng.random_range(0.5..3.0));
        } else {
            pois.add(p, kws);
        }
    }
    pois
}

fn random_query(rng: &mut StdRng) -> SoiQuery {
    let n_kw = rng.random_range(1..4usize);
    let kws = KeywordSet::from_ids((0..n_kw).map(|_| KeywordId(rng.random_range(0..NUM_KEYWORDS))));
    let k = rng.random_range(1..6usize);
    let eps = rng.random_range(0.1..0.6f64);
    SoiQuery::new(kws, k, eps).unwrap()
}

#[test]
fn baseline_matches_brute_force() {
    for seed in 0..15u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let network = random_city(&mut rng, 5, 5);
        let pois = random_pois(&mut rng, 120, 4.0);
        let index = PoiIndex::build(&network, &pois, 0.7);
        let query = random_query(&mut rng);

        let bl = run_baseline(&network, &pois, &index, &query, StreetAggregate::Max);
        let bf = brute_force(&network, &pois, &query);

        assert_eq!(
            bl.street_ids(),
            bf.street_ids(),
            "seed {seed}: baseline vs brute force street sets differ"
        );
        for (a, b) in bl.results.iter().zip(bf.results.iter()) {
            assert!(
                (a.interest - b.interest).abs() < 1e-9,
                "seed {seed}: interest mismatch for {:?}",
                a.street
            );
        }
    }
}

/// Asserts that `out` is a valid exact top-k under `exact` (the street
/// interests by brute force): the right size, every returned interest
/// exact, no excluded street above the worst returned one.
fn assert_valid_topk(
    out: &SoiOutcome,
    exact: &FxHashMap<StreetId, f64>,
    query: &SoiQuery,
    what: &str,
) {
    let positive = exact.values().filter(|&&v| v > 0.0).count();
    assert_eq!(
        out.results.len(),
        query.k.min(positive),
        "{what}: wrong result size"
    );
    for r in &out.results {
        let want = exact[&r.street];
        assert!(
            (r.interest - want).abs() < 1e-9,
            "{what}: street {:?} interest {} != exact {want}",
            r.street,
            r.interest,
        );
    }
    let min_returned = out.min_interest();
    let returned: Vec<_> = out.street_ids();
    let max_excluded = exact
        .iter()
        .filter(|(id, _)| !returned.contains(id))
        .map(|(_, &v)| v)
        .fold(0.0f64, f64::max);
    assert!(
        max_excluded <= min_returned + 1e-9,
        "{what}: excluded street with interest {max_excluded} beats returned minimum {min_returned}",
    );
}

#[test]
fn soi_returns_valid_topk_under_all_strategies() {
    for seed in 0..15u64 {
        let mut rng = StdRng::seed_from_u64(1000 + seed);
        let network = random_city(&mut rng, 6, 6);
        let pois = random_pois(&mut rng, 200, 5.0);
        let index = PoiIndex::build(&network, &pois, 0.5);
        let query = random_query(&mut rng);
        let exact = exact_street_interests(&network, &pois, &query);

        for strategy in AccessStrategy::all() {
            for paper_bounds_only in [false, true] {
                let config = SoiConfig {
                    strategy,
                    paper_bounds_only,
                };
                let out = run_soi(&network, &pois, &index, &query, &config).unwrap();
                let what = format!("seed {seed} strategy {}", strategy.name());
                assert_valid_topk(&out, &exact, &query, &what);
            }
        }
    }
}

#[test]
fn soi_under_a_live_delta_matches_brute_force_over_the_folded_pois() {
    // Weighted POIs, a sealed delta that deletes a fifth of them and adds
    // as many again (some outside every base-occupied cell): Alg. 1 reading
    // through the base+delta views must answer like brute force over the
    // collection the delta folds into — through one scratch, so a cell
    // gathered for one query is gathered afresh for the next.
    let mut scratch = SoiScratch::default();
    for seed in 0..15u64 {
        let mut rng = StdRng::seed_from_u64(2000 + seed);
        let network = random_city(&mut rng, 6, 6);
        let pois = random_pois(&mut rng, 200, 5.0);
        let index = PoiIndex::build(&network, &pois, 0.5);
        let mut ops: Vec<DeltaOp> = pois
            .iter()
            .filter(|_| rng.random_range(0..5) == 0)
            .map(|p| DeltaOp::DeletePoi { id: p.id })
            .collect();
        let adds = random_pois(&mut rng, 40, 4.0);
        // (A delta cannot add outside the extent the grid was built over.)
        for p in adds
            .iter()
            .filter(|p| index.grid().cell_containing(p.pos).is_some())
        {
            ops.push(DeltaOp::AddPoi {
                pos: p.pos,
                keywords: p.keywords.clone(),
                weight: p.weight + rng.random_range(0.0..1.5),
            });
        }
        let delta = DeltaIndex::seal(&index, &pois, &PhotoCollection::new(), &ops).unwrap();
        let (folded, _) = delta.apply_to(&pois, &PhotoCollection::new());
        let view = IndexView::new(&index, Some(&delta));

        for _ in 0..3 {
            let query = random_query(&mut rng);
            let exact = exact_street_interests(&network, &folded, &query);
            let out = run_soi_with_scratch(
                &network,
                delta.poi_view(&pois),
                view,
                &query,
                &SoiConfig::default(),
                &mut scratch,
            )
            .unwrap();
            assert_valid_topk(&out, &exact, &query, &format!("seed {seed}"));
        }
    }
}

/// What two answers must agree on to the bit: street, interest, best
/// segment and its mass, in rank order.
fn answer_bits(out: &SoiOutcome) -> Vec<(StreetId, u64, SegmentId, u64)> {
    out.results
        .iter()
        .map(|r| {
            let (interest, mass) = (r.interest.to_bits(), r.best_segment_mass.to_bits());
            (r.street, interest, r.best_segment, mass)
        })
        .collect()
}

#[test]
fn soi_matches_baseline_when_no_ties_at_boundary() {
    // With continuous POI positions, exact score ties across streets are
    // essentially impossible; SOI and BL must then return the same answer
    // to the bit — streets, interests, best segments and their masses —
    // whatever order the accesses visit cells in: a final segment's mass is
    // its per-cell masses summed in ascending cell order, BL's order. Every
    // strategy, both bound modes, on the base index and through a live
    // delta that deletes a fifth of the POIs and adds weighted ones.
    let mut compared = 0;
    for seed in 0..15u64 {
        let mut rng = StdRng::seed_from_u64(2000 + seed);
        let network = random_city(&mut rng, 5, 7);
        let pois = random_pois(&mut rng, 150, 5.0);
        let index = PoiIndex::build(&network, &pois, 0.6);
        let query = random_query(&mut rng);
        let mut ops: Vec<DeltaOp> = pois
            .iter()
            .filter(|_| rng.random_range(0..5) == 0)
            .map(|p| DeltaOp::DeletePoi { id: p.id })
            .collect();
        let adds = random_pois(&mut rng, 30, 4.0);
        // (A delta cannot add outside the extent the grid was built over.)
        for p in adds
            .iter()
            .filter(|p| index.grid().cell_containing(p.pos).is_some())
        {
            ops.push(DeltaOp::AddPoi {
                pos: p.pos,
                keywords: p.keywords.clone(),
                weight: rng.random_range(0.1..2.9),
            });
        }
        let delta = DeltaIndex::seal(&index, &pois, &PhotoCollection::new(), &ops).unwrap();
        let (folded, _) = delta.apply_to(&pois, &PhotoCollection::new());

        for live in [false, true] {
            let (poi_view, view, exact) = if live {
                let exact = exact_street_interests(&network, &folded, &query);
                (
                    delta.poi_view(&pois),
                    IndexView::new(&index, Some(&delta)),
                    exact,
                )
            } else {
                let exact = exact_street_interests(&network, &pois, &query);
                ((&pois).into(), IndexView::from(&index), exact)
            };
            // Skip the rare tie at the k-th boundary.
            let mut vals: Vec<f64> = exact.values().copied().filter(|&v| v > 0.0).collect();
            vals.sort_by(|a, b| b.total_cmp(a));
            if vals.len() > query.k && (vals[query.k - 1] - vals[query.k]).abs() < 1e-12 {
                continue;
            }
            let bl = run_baseline(&network, poi_view, view, &query, StreetAggregate::Max);
            for strategy in AccessStrategy::all() {
                for paper_bounds_only in [false, true] {
                    let config = SoiConfig {
                        strategy,
                        paper_bounds_only,
                    };
                    let soi = run_soi(&network, poi_view, view, &query, &config).unwrap();
                    let what = format!(
                        "seed {seed}, delta {live}, {}, paper bounds {paper_bounds_only}",
                        strategy.name()
                    );
                    assert_eq!(answer_bits(&soi), answer_bits(&bl), "{what}");
                    compared += 1;
                }
            }
        }
    }
    assert!(compared >= 200, "only {compared} runs compared");
}

#[test]
fn soi_prunes_work_on_skewed_data() {
    // Hotspot data: most relevant POIs on one street. SOI should terminate
    // without finalising every segment.
    let mut rng = StdRng::seed_from_u64(42);
    let network = random_city(&mut rng, 10, 10);
    let mut pois = PoiCollection::new();
    let shop = KeywordId(0);
    // Dense hotspot along the first horizontal street (y ~ 0).
    for i in 0..300 {
        pois.add(
            Point::new(i as f64 * 0.03, rng.random_range(-0.1..0.1)),
            KeywordSet::from_ids([shop]),
        );
    }
    // Sparse background.
    for _ in 0..300 {
        pois.add(
            Point::new(rng.random_range(0.0..9.0), rng.random_range(0.0..9.0)),
            KeywordSet::from_ids([shop]),
        );
    }
    let index = PoiIndex::build(&network, &pois, 0.4);
    let query = SoiQuery::new(KeywordSet::from_ids([shop]), 5, 0.3).unwrap();
    let out = run_soi(&network, &pois, &index, &query, &SoiConfig::default()).unwrap();

    assert_eq!(out.results.len(), 5);
    // SL2's head bounds the unseen segments by their own boxes' weight, so
    // little beyond the hotspot street's segments is read.
    assert!(
        out.stats.accesses <= 28 && out.stats.segments_seen <= 27,
        "accesses {}, segments seen {}",
        out.stats.accesses,
        out.stats.segments_seen
    );
    let total_segments = network.num_segments();
    assert!(
        out.stats.segments_finalized() < total_segments,
        "no pruning: finalized {} of {}",
        out.stats.segments_finalized(),
        total_segments
    );
    // And it is still exact.
    let exact = exact_street_interests(&network, &pois, &query);
    for r in &out.results {
        assert!((r.interest - exact[&r.street]).abs() < 1e-9);
    }
}

#[test]
fn weighted_pois_scale_interest() {
    let mut b = RoadNetwork::builder();
    b.add_street_from_points("A", &[Point::new(0.0, 0.0), Point::new(1.0, 0.0)]);
    b.add_street_from_points("B", &[Point::new(0.0, 5.0), Point::new(1.0, 5.0)]);
    let network = b.build().unwrap();
    let kw = KeywordId(0);
    let mut pois = PoiCollection::new();
    // One heavy POI near street B outweighs two unit POIs near street A.
    pois.add(Point::new(0.5, 0.1), KeywordSet::from_ids([kw]));
    pois.add(Point::new(0.6, 0.1), KeywordSet::from_ids([kw]));
    pois.add_weighted(Point::new(0.5, 5.1), KeywordSet::from_ids([kw]), 5.0);
    let index = PoiIndex::build(&network, &pois, 0.5);
    let query = SoiQuery::new(KeywordSet::from_ids([kw]), 1, 0.2).unwrap();

    let out = run_soi(&network, &pois, &index, &query, &SoiConfig::default()).unwrap();
    assert_eq!(out.results.len(), 1);
    assert_eq!(network.street(out.results[0].street).name, "B");
    assert_eq!(out.results[0].best_segment_mass, 5.0);
}

#[test]
fn huge_eps_makes_every_street_relevant_and_stays_exact() {
    // eps spanning the whole city: every relevant POI is near every segment;
    // bounds degenerate but correctness must hold.
    let mut rng = StdRng::seed_from_u64(77);
    let network = random_city(&mut rng, 4, 4);
    let pois = random_pois(&mut rng, 60, 3.0);
    let index = PoiIndex::build(&network, &pois, 0.5);
    let query = SoiQuery::new(KeywordSet::from_ids([KeywordId(0), KeywordId(1)]), 5, 50.0).unwrap();
    let exact = exact_street_interests(&network, &pois, &query);
    let out = run_soi(&network, &pois, &index, &query, &SoiConfig::default()).unwrap();
    for r in &out.results {
        assert!((r.interest - exact[&r.street]).abs() < 1e-9);
    }
    let bl = run_baseline(&network, &pois, &index, &query, StreetAggregate::Max);
    assert_eq!(out.street_ids(), bl.street_ids());
}

/// Regression: the Chebyshev ring of a popped cell has radius
/// `⌊(ε + h) / h⌋` cells, and `ix + radius` overflowed once that passed
/// `u32::MAX − ix` — a panic in a debug build; a release build wrapped, the
/// ring ended west of the cell, and segments east and north of it were
/// never marked seen, which is the invariant `UB` rests on.
#[test]
fn eps_whose_ring_radius_exceeds_u32_stays_exact() {
    let mut rng = StdRng::seed_from_u64(77);
    let network = random_city(&mut rng, 4, 4);
    let pois = random_pois(&mut rng, 60, 3.0);
    let index = PoiIndex::build(&network, &pois, 0.5);
    // At h = 0.5 the radius is u32::MAX from ε = 2 147 483 647 on; the
    // first value is just past that, the second far past it.
    for eps in [2_147_483_647.5, 1e12] {
        let query =
            SoiQuery::new(KeywordSet::from_ids([KeywordId(0), KeywordId(1)]), 5, eps).unwrap();
        let exact = exact_street_interests(&network, &pois, &query);
        for strategy in AccessStrategy::all() {
            let config = SoiConfig {
                strategy,
                ..SoiConfig::default()
            };
            let out = run_soi(&network, &pois, &index, &query, &config).unwrap();
            let what = format!("eps {eps} under {strategy:?}");
            assert_valid_topk(&out, &exact, &query, &what);
            // Interests are ≈ 1e-19 and below here: exact relative to
            // their own size, not just to `assert_valid_topk`'s 1e-9.
            for r in &out.results {
                let want = exact[&r.street];
                assert!((r.interest - want).abs() <= 1e-9 * want, "{what}: {r:?}");
            }
            let bl = run_baseline(&network, &pois, &index, &query, StreetAggregate::Max);
            assert_eq!(out.street_ids(), bl.street_ids(), "{what}");
        }
    }
}

#[test]
fn k_exceeding_street_count_returns_all_positive_streets() {
    let mut rng = StdRng::seed_from_u64(78);
    let network = random_city(&mut rng, 3, 3);
    let pois = random_pois(&mut rng, 80, 2.0);
    let index = PoiIndex::build(&network, &pois, 0.5);
    let query = SoiQuery::new(
        KeywordSet::from_ids([KeywordId(0), KeywordId(2)]),
        10_000,
        0.4,
    )
    .unwrap();
    let exact = exact_street_interests(&network, &pois, &query);
    let positive = exact.values().filter(|&&v| v > 0.0).count();
    let out = run_soi(&network, &pois, &index, &query, &SoiConfig::default()).unwrap();
    assert_eq!(out.results.len(), positive);
    // Ranked non-increasing.
    for pair in out.results.windows(2) {
        assert!(pair[0].interest >= pair[1].interest);
    }
}

#[test]
fn tiny_eps_still_counts_on_street_pois() {
    // POIs exactly on segments are always within any positive eps.
    let mut b = RoadNetwork::builder();
    b.add_street_from_points("exact", &[Point::new(0.0, 0.0), Point::new(1.0, 0.0)]);
    let network = b.build().unwrap();
    let mut pois = PoiCollection::new();
    pois.add(Point::new(0.5, 0.0), KeywordSet::from_ids([KeywordId(0)]));
    let index = PoiIndex::build(&network, &pois, 0.5);
    let query = SoiQuery::new(KeywordSet::from_ids([KeywordId(0)]), 1, 1e-9).unwrap();
    let out = run_soi(&network, &pois, &index, &query, &SoiConfig::default()).unwrap();
    assert_eq!(out.results.len(), 1);
    assert_eq!(out.results[0].best_segment_mass, 1.0);
}

#[test]
fn empty_query_returns_nothing() {
    let mut rng = StdRng::seed_from_u64(7);
    let network = random_city(&mut rng, 4, 4);
    let pois = random_pois(&mut rng, 50, 3.0);
    let index = PoiIndex::build(&network, &pois, 0.5);
    // Keyword id far outside the used range.
    let query = SoiQuery::new(KeywordSet::from_ids([KeywordId(999)]), 3, 0.3).unwrap();
    let out = run_soi(&network, &pois, &index, &query, &SoiConfig::default()).unwrap();
    assert!(out.results.is_empty());
    let bl = run_baseline(&network, &pois, &index, &query, StreetAggregate::Max);
    assert!(bl.results.is_empty());
}

#[test]
fn explain_trajectory_matches_termination_and_results() {
    use soi_core::soi::{run_soi_full, SoiExplain, SoiScratch};
    use soi_core::QueryBudget;

    for seed in 0..5u64 {
        let mut rng = StdRng::seed_from_u64(3000 + seed);
        let network = random_city(&mut rng, 6, 6);
        let pois = random_pois(&mut rng, 200, 5.0);
        let index = PoiIndex::build(&network, &pois, 0.5);
        let query = random_query(&mut rng);
        let config = SoiConfig::default();

        let plain = run_soi(&network, &pois, &index, &query, &config).unwrap();
        let mut explain = SoiExplain::default();
        let explained = run_soi_full(
            &network,
            &pois,
            &index,
            &query,
            &config,
            &mut SoiScratch::default(),
            Some(&mut explain),
            QueryBudget::unlimited(),
        )
        .unwrap();

        // Collecting an explain must not change the answer.
        assert_eq!(plain.street_ids(), explained.street_ids(), "seed {seed}");

        // The trajectory is bounded, in access order, and ends in the
        // termination row, whose bounds equal the run's actual termination.
        assert!(!explain.rows.is_empty(), "seed {seed}: no rows");
        assert!(explain.rows.len() <= explain.max_rows());
        assert!(explain.rows.windows(2).all(|w| w[0].access <= w[1].access));
        let last = explain.rows.last().unwrap();
        assert!(last.source.is_none(), "seed {seed}: final row not terminal");
        assert!(
            last.ub <= last.lbk,
            "seed {seed}: final row UB {} > LBk {}",
            last.ub,
            last.lbk
        );
        let term = explain.termination.expect("termination recorded");
        assert_eq!(term.ub, explained.stats.termination_ub, "seed {seed}");
        assert_eq!(term.lbk, explained.stats.termination_lb, "seed {seed}");
        assert_eq!(term.accesses, explained.stats.accesses, "seed {seed}");
        assert_eq!(last.ub, term.ub, "seed {seed}");
        assert_eq!(last.lbk, term.lbk, "seed {seed}");

        // Construction metadata and the stats copy are present. SL2 lists
        // the runs whose dilated union box holds a cell of positive relevant
        // weight — the ones with a positive bound `B`.
        assert_eq!(explain.k, query.k);
        assert!(!explain.paper_bounds);
        let grid = index.grid();
        let mut weighty = vec![false; grid.num_cells()];
        for k in query.keywords.iter() {
            for &(cell, w) in index.global_postings(k) {
                weighty[cell.index()] |= w > 0.0;
            }
        }
        let listed = network
            .runs()
            .iter()
            .filter(|run| {
                let dilated = run.bbox.expand(query.eps);
                grid.cell_range_in_rect(&dilated)
                    .is_some_and(|(x0, y0, x1, y1)| {
                        (y0..=y1).any(|y| (x0..=x1).any(|x| weighty[(y * grid.nx() + x) as usize]))
                    })
            })
            .count();
        assert_eq!(explain.lists.sl2, listed, "seed {seed}");
        assert!(listed > 0, "seed {seed}");
        assert_eq!(
            explain.stats.as_ref().map(|s| s.accesses),
            Some(explained.stats.accesses)
        );

        // The artifact is valid JSON with a converged termination object.
        let doc = soi_obs::json::parse(&explain.to_json()).unwrap();
        let t = doc.get("termination").unwrap();
        assert_eq!(t.get("converged"), Some(&soi_obs::json::Json::Bool(true)));
    }
}
