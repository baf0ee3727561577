//! Randomised correctness tests for the SOI algorithm.
//!
//! The paper's guarantee (Problem 1): a k-SOI answer is any k-set such that
//! every non-returned street has interest ≤ the minimum returned interest.
//! We verify:
//!
//! 1. the BL baseline equals the index-free brute force exactly;
//! 2. the SOI algorithm's returned interests are exact, its result is a
//!    valid top-k set, and it has exactly `min(k, #positive streets)`
//!    entries — by default and with the paper's bounds and access cycle,
//!    on a base index and through a live delta;
//! 3. by default, every access pops SL2's head, best-first.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use soi_common::{FxHashMap, KeywordId, SegmentId, StreetId};
use soi_core::soi::paper::{run_soi_paper, PaperScratch};
use soi_core::soi::{
    brute_force, exact_street_interests, run_baseline, run_soi, run_soi_full, SoiExplain,
    SoiOutcome, SoiQuery, SoiScratch, StreetAggregate,
};
use soi_core::QueryBudget;
use soi_data::{PhotoCollection, PoiCollection, PoiView};
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

/// A sealed delta that deletes about a fifth of `pois` and adds `adds`
/// random ones inside the grid's extent, each with a weight from `weight`.
fn random_delta(
    rng: &mut StdRng,
    index: &PoiIndex,
    pois: &PoiCollection,
    adds: usize,
    weight: impl Fn(&mut StdRng, f64) -> f64,
) -> DeltaIndex {
    let mut ops: Vec<DeltaOp> = pois
        .iter()
        .filter(|_| rng.random_range(0..5) == 0)
        .map(|p| DeltaOp::DeletePoi { id: p.id })
        .collect();
    let adds = random_pois(rng, adds, 4.0);
    // (A delta cannot add outside the extent the grid was built over.)
    for p in adds
        .iter()
        .filter(|p| index.grid().cell_containing(p.pos).is_some())
    {
        ops.push(DeltaOp::AddPoi {
            pos: p.pos,
            keywords: p.keywords.clone(),
            weight: weight(rng, p.weight),
        });
    }
    DeltaIndex::seal(index, pois, &PhotoCollection::new(), &ops).unwrap()
}

/// The two runners: the served default, and the paper's bounds and access
/// cycle ([`run_soi_paper`]).
#[derive(Debug, Clone, Copy, PartialEq)]
enum Entry {
    Default,
    Paper,
}

const BOTH_ENTRIES: [Entry; 2] = [Entry::Default, Entry::Paper];

/// One scratch per entry.
#[derive(Default)]
struct Scratch {
    default: SoiScratch,
    paper: PaperScratch,
}

impl Entry {
    /// Runs `query` through this entry on `scratch`.
    fn run_on(
        self,
        scratch: &mut Scratch,
        network: &RoadNetwork,
        pois: PoiView<'_>,
        index: IndexView<'_>,
        query: &SoiQuery,
    ) -> SoiOutcome {
        match self {
            Entry::Default => run_soi_full(
                network,
                pois,
                index,
                query,
                &mut scratch.default,
                None,
                QueryBudget::unlimited(),
            ),
            Entry::Paper => run_soi_paper(network, pois, index, query, &mut scratch.paper),
        }
        .unwrap()
    }

    /// Runs `query` through this entry on a fresh scratch.
    fn run<'a>(
        self,
        network: &RoadNetwork,
        pois: impl Into<PoiView<'a>>,
        index: impl Into<IndexView<'a>>,
        query: &SoiQuery,
    ) -> SoiOutcome {
        let (pois, index) = (pois.into(), index.into());
        self.run_on(&mut Scratch::default(), network, pois, index, query)
    }
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
fn soi_returns_valid_topk_in_both_modes_with_and_without_a_delta() {
    for seed in 0..15u64 {
        let mut rng = StdRng::seed_from_u64(1000 + seed);
        let network = random_city(&mut rng, 6, 6);
        let pois = random_pois(&mut rng, 200, 5.0);
        let index = PoiIndex::build(&network, &pois, 0.5);
        let query = random_query(&mut rng);
        let delta = random_delta(&mut rng, &index, &pois, 40, |rng, w| {
            w + rng.random_range(0.0..1.5)
        });
        let (folded, _) = delta.apply_to(&pois, &PhotoCollection::new());

        for live in [false, true] {
            let (poi_view, view, exact) = if live {
                (
                    delta.poi_view(&pois),
                    IndexView::new(&index, Some(&delta)),
                    exact_street_interests(&network, &folded, &query),
                )
            } else {
                (
                    (&pois).into(),
                    IndexView::from(&index),
                    exact_street_interests(&network, &pois, &query),
                )
            };
            for entry in BOTH_ENTRIES {
                let out = entry.run(&network, poi_view, view, &query);
                let what = format!("seed {seed}, delta {live}, {entry:?}");
                assert_valid_topk(&out, &exact, &query, &what);
                // Pruning has one site, the segment access, and it reads a
                // threshold of −∞ under the paper's bounds; by default no
                // cell is popped, so no cell access is wasted.
                if entry == Entry::Paper {
                    assert_eq!(out.stats.segments_bounded_out, 0, "{what}");
                } else {
                    assert_eq!(out.stats.duplicate_visits, 0, "{what}");
                }
            }
        }
    }
}

#[test]
fn default_mode_reads_sl2_best_first() {
    // Every access pops SL2's head and finalises that segment: no cell is
    // popped, every access sees one new segment, `UB` (SL2's head) never
    // rises, and refinement finds no partial segment — on a base index and
    // through a live delta.
    let mut scratch = SoiScratch::default();
    let mut accesses = 0;
    for seed in 0..15u64 {
        let mut rng = StdRng::seed_from_u64(4000 + seed);
        let network = random_city(&mut rng, 6, 6);
        let pois = random_pois(&mut rng, 200, 5.0);
        let index = PoiIndex::build(&network, &pois, 0.5);
        let delta = random_delta(&mut rng, &index, &pois, 40, |rng, _| {
            rng.random_range(0.1..2.9)
        });
        for live in [false, true] {
            let (poi_view, view) = if live {
                (delta.poi_view(&pois), IndexView::new(&index, Some(&delta)))
            } else {
                ((&pois).into(), IndexView::from(&index))
            };
            for _ in 0..3 {
                let query = random_query(&mut rng);
                let mut explain = SoiExplain::default();
                let out = run_soi_full(
                    &network,
                    poi_view,
                    view,
                    &query,
                    &mut scratch,
                    Some(&mut explain),
                    QueryBudget::unlimited(),
                )
                .unwrap();
                let what = format!("seed {seed}, delta {live}, {query:?}");
                let stats = &out.stats;
                // Each access was made under `UB > LBk`; the termination row
                // repeats the last access's number under `UB ≤ LBk`.
                let (rows, last) = explain.rows.split_at(explain.rows.len() - 1);
                assert!(rows.iter().all(|row| row.ub > row.lbk), "{what}");
                assert_eq!(last[0].access, stats.accesses, "{what}: no termination row");
                assert!(last[0].ub <= last[0].lbk, "{what}: {:?}", last[0]);
                assert!(
                    explain.rows.windows(2).all(|w| w[1].ub <= w[0].ub),
                    "{what}: UB rose"
                );
                assert_eq!(stats.cells_popped, 0, "{what}");
                assert_eq!(stats.accesses, stats.segments_popped, "{what}");
                assert_eq!(stats.accesses, stats.segments_seen, "{what}");
                assert_eq!(stats.segments_finalized_refinement, 0, "{what}");
                accesses += stats.accesses;
            }
        }
    }
    assert!(accesses >= 500, "only {accesses} accesses checked");
}

/// The nine work counters of a run, and its `termination_ub` bits.
fn counters(out: &SoiOutcome) -> ([usize; 9], u64) {
    let s = &out.stats;
    let counts = [
        s.cells_popped,
        s.segments_popped,
        s.cell_visits,
        s.duplicate_visits,
        s.segments_seen,
        s.segments_finalized_filtering,
        s.segments_finalized_refinement,
        s.segments_bounded_out,
        s.accesses,
    ];
    (counts, s.termination_ub.to_bits())
}

#[test]
fn soi_under_a_live_delta_matches_brute_force_over_the_folded_pois() {
    // Weighted POIs, a sealed delta that deletes a fifth of them and adds
    // as many again (some outside every base-occupied cell): Alg. 1 reading
    // through the base+delta views must answer like brute force over the
    // collection the delta folds into. Each entry runs through one scratch
    // of its own across cities of varying size, so a cell gathered, a
    // segment seen or a raster row filled for one query is made afresh for
    // the next: answers, counters and `termination_ub` equal a fresh
    // scratch's.
    let mut scratch = Scratch::default();
    for seed in 0..15u64 {
        let mut rng = StdRng::seed_from_u64(2000 + seed);
        let (rows, cols) = (4 + seed as usize % 4, 5 + seed as usize % 3);
        let network = random_city(&mut rng, rows, cols);
        let pois = random_pois(&mut rng, 40 * rows, cols as f64);
        let cell = [0.5, 0.35, 0.7][seed as usize % 3];
        let index = PoiIndex::build(&network, &pois, cell);
        let delta = random_delta(&mut rng, &index, &pois, 40, |rng, w| {
            w + rng.random_range(0.0..1.5)
        });
        let (folded, _) = delta.apply_to(&pois, &PhotoCollection::new());
        let view = IndexView::new(&index, Some(&delta));

        for _ in 0..3 {
            let query = random_query(&mut rng);
            let exact = exact_street_interests(&network, &folded, &query);
            for entry in BOTH_ENTRIES {
                let poi_view = delta.poi_view(&pois);
                let out = entry.run_on(&mut scratch, &network, poi_view, view, &query);
                let what = format!("seed {seed}, {entry:?}");
                assert_valid_topk(&out, &exact, &query, &what);
                let fresh = entry.run(&network, poi_view, view, &query);
                assert_eq!(answer_bits(&out), answer_bits(&fresh), "{what}");
                assert_eq!(counters(&out), counters(&fresh), "{what}");
            }
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
    // its per-cell masses summed in ascending cell order, BL's order. Both
    // entries (each with its own access order), on the base index and
    // through a live delta that deletes a fifth of the POIs and adds
    // weighted ones.
    let mut compared = 0;
    for seed in 0..60u64 {
        let mut rng = StdRng::seed_from_u64(2000 + seed);
        let network = random_city(&mut rng, 5, 7);
        let pois = random_pois(&mut rng, 150, 5.0);
        let index = PoiIndex::build(&network, &pois, 0.6);
        let query = random_query(&mut rng);
        let delta = random_delta(&mut rng, &index, &pois, 30, |rng, _| {
            rng.random_range(0.1..2.9)
        });
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
            for entry in BOTH_ENTRIES {
                let soi = entry.run(&network, poi_view, view, &query);
                let what = format!("seed {seed}, delta {live}, {entry:?}");
                assert_eq!(answer_bits(&soi), answer_bits(&bl), "{what}");
                compared += 1;
            }
        }
    }
    assert!(compared >= 200, "only {compared} runs compared");
}

/// Two one-segment streets whose masses differ in the last bit, and a cell
/// whose `relcount` rounds below its mass. Street A (y = 0) holds one
/// query POI of weight 1 within ε and a heavy one beyond it; street B
/// (y = 10) holds, in id order, keyword 1 at 2⁻⁵³, keyword 2 at 2⁻⁵³ and
/// keyword 1 at 1, all within ε. B's mass is 1 + 2⁻⁵², exact; its
/// `relcount` adds keyword 1's list (2⁻⁵³ + 1, which rounds to 1) and then
/// keyword 2's (2⁻⁵³, lost again): 1. So a `relcount` bound compared with
/// `LBk = int(A)` as it is would drop B, the true top-1.
#[test]
fn a_relcount_that_rounds_below_the_mass_bounds_out_nothing() {
    const TINY: f64 = 1.0 / (1u64 << 53) as f64;
    let mut b = RoadNetwork::builder();
    b.add_street_from_points("A", &[Point::new(0.0, 0.0), Point::new(1.09, 0.0)]);
    b.add_street_from_points("B", &[Point::new(0.0, 10.0), Point::new(1.09, 10.0)]);
    let network = b.build().unwrap();
    let kw = |k: u32| KeywordSet::from_ids([KeywordId(k)]);
    let on_b = [(0.55, 1, TINY), (0.56, 2, TINY), (0.57, 1, 1.0)];
    let mut pois = PoiCollection::new();
    pois.add_weighted(Point::new(0.2, 0.05), kw(1), 1.0);
    pois.add_weighted(Point::new(0.3, 0.4), kw(1), 5.0);
    let b_ids: Vec<_> = on_b
        .iter()
        .map(|&(x, k, w)| pois.add_weighted(Point::new(x, 10.05), kw(k), w))
        .collect();
    let index = PoiIndex::build(&network, &pois, 0.5);
    let query = SoiQuery::new(KeywordSet::from_ids([KeywordId(1), KeywordId(2)]), 1, 0.1).unwrap();
    // The same scene through a live delta that deletes B's POIs and adds
    // them again, in the same order.
    let mut ops: Vec<DeltaOp> = b_ids.iter().map(|&id| DeltaOp::DeletePoi { id }).collect();
    ops.extend(on_b.iter().map(|&(x, k, weight)| DeltaOp::AddPoi {
        pos: Point::new(x, 10.05),
        keywords: kw(k),
        weight,
    }));
    let delta = DeltaIndex::seal(&index, &pois, &PhotoCollection::new(), &ops).unwrap();
    let street_b = StreetId(1);
    assert_eq!(network.street(street_b).name, "B");
    for live in [false, true] {
        let (poi_view, view) = if live {
            (delta.poi_view(&pois), IndexView::new(&index, Some(&delta)))
        } else {
            ((&pois).into(), IndexView::from(&index))
        };
        let bl = run_baseline(&network, poi_view, view, &query, StreetAggregate::Max);
        assert_eq!(bl.street_ids(), [street_b], "delta {live}");
        assert_eq!(bl.results[0].best_segment_mass, 1.0 + 2.0 * TINY);
        for entry in BOTH_ENTRIES {
            let soi = entry.run(&network, poi_view, view, &query);
            let what = format!("delta {live}, {entry:?}");
            assert_eq!(answer_bits(&soi), answer_bits(&bl), "{what}");
        }
    }
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
    let out = run_soi(&network, &pois, &index, &query).unwrap();

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

    let out = run_soi(&network, &pois, &index, &query).unwrap();
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
    let out = run_soi(&network, &pois, &index, &query).unwrap();
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
        for entry in BOTH_ENTRIES {
            let out = entry.run(&network, &pois, &index, &query);
            let what = format!("eps {eps} under {entry:?}");
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
    let out = run_soi(&network, &pois, &index, &query).unwrap();
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
    let out = run_soi(&network, &pois, &index, &query).unwrap();
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
    let out = run_soi(&network, &pois, &index, &query).unwrap();
    assert!(out.results.is_empty());
    let bl = run_baseline(&network, &pois, &index, &query, StreetAggregate::Max);
    assert!(bl.results.is_empty());
}

#[test]
fn explain_trajectory_matches_termination_and_results() {
    for seed in 0..5u64 {
        let mut rng = StdRng::seed_from_u64(3000 + seed);
        let network = random_city(&mut rng, 6, 6);
        let pois = random_pois(&mut rng, 200, 5.0);
        let index = PoiIndex::build(&network, &pois, 0.5);
        let query = random_query(&mut rng);

        let plain = run_soi(&network, &pois, &index, &query).unwrap();
        let mut explain = SoiExplain::default();
        let explained = run_soi_full(
            &network,
            &pois,
            &index,
            &query,
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
        assert_eq!(last.access, term.accesses, "seed {seed}");
        assert_eq!(last.ub, term.ub, "seed {seed}");
        assert_eq!(last.lbk, term.lbk, "seed {seed}");

        // Construction metadata and the stats copy are present. SL2 lists
        // the runs whose dilated union box holds a cell of positive relevant
        // weight — the ones with a positive bound `B`.
        assert_eq!(explain.k, query.k);
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
        assert_eq!(explain.sl2_runs, listed, "seed {seed}");
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
