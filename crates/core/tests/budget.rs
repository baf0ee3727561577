//! Correctness tests for deadline-budgeted (anytime) query evaluation.
//!
//! The serving layer's degradation contract rests on two properties:
//!
//! 1. **Unlimited is free and exact** — `run_soi_full` /
//!    `st_rel_div_full` with [`QueryBudget::unlimited`] are
//!    bit-identical to the plain entry points.
//! 2. **Expiry is sound** — a deadline hit returns `partial: true` with a
//!    valid *lower-bound* answer: every returned k-SOI score is at least
//!    the recorded termination LBk and at most the street's exact
//!    interest; Alg. 2's partial selection is a prefix of the full greedy
//!    selection.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use soi_common::KeywordId;
use soi_core::describe::{
    st_rel_div, st_rel_div_full, ContextBuilder, DescribeParams, DescribeScratch, PhiSource,
    StreetContext,
};
use soi_core::soi::{
    exact_street_interests, run_soi, run_soi_full, SoiConfig, SoiQuery, SoiScratch,
};
use soi_core::QueryBudget;
use soi_data::{PhotoCollection, PoiCollection};
use soi_geo::Point;
use soi_index::{PhotoGrid, PoiIndex};
use soi_network::RoadNetwork;
use soi_text::KeywordSet;
use std::time::{Duration, Instant};

const NUM_KEYWORDS: u32 = 6;

fn random_city(rng: &mut StdRng, rows: usize, cols: usize) -> RoadNetwork {
    let mut b = RoadNetwork::builder();
    let spacing = 1.0;
    let jitter = 0.15;
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
        pois.add(p, kws);
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
fn unlimited_budget_is_bit_identical_to_plain_path() {
    for seed in 0..10u64 {
        let mut rng = StdRng::seed_from_u64(9000 + seed);
        let network = random_city(&mut rng, 6, 6);
        let pois = random_pois(&mut rng, 200, 5.0);
        let index = PoiIndex::build(&network, &pois, 0.5);
        let query = random_query(&mut rng);
        let config = SoiConfig::default();

        let plain = run_soi(&network, &pois, &index, &query, &config).unwrap();
        let budgeted = run_soi_full(
            &network,
            &pois,
            &index,
            &query,
            &config,
            &mut SoiScratch::default(),
            None,
            QueryBudget::unlimited(),
        )
        .unwrap();

        assert!(
            !budgeted.partial,
            "seed {seed}: unlimited run flagged partial"
        );
        assert!(!budgeted.stats.deadline_expired);
        assert_eq!(plain.results.len(), budgeted.results.len(), "seed {seed}");
        for (a, b) in plain.results.iter().zip(&budgeted.results) {
            assert_eq!(a.street, b.street, "seed {seed}");
            assert_eq!(
                a.interest.to_bits(),
                b.interest.to_bits(),
                "seed {seed}: interest differs in bits"
            );
            assert_eq!(a.best_segment, b.best_segment, "seed {seed}");
        }
        assert_eq!(plain.stats.accesses, budgeted.stats.accesses, "seed {seed}");
        assert_eq!(
            plain.stats.termination_lb.to_bits(),
            budgeted.stats.termination_lb.to_bits(),
            "seed {seed}"
        );
    }
}

/// Every budgeted run — whatever point it stopped at — must return a sound
/// lower-bound answer: scores between the recorded LBk and the exact
/// street interest, ranked non-increasing, never more than k entries.
fn assert_sound_outcome(
    seed: u64,
    timeout_us: u64,
    outcome: &soi_core::soi::SoiOutcome,
    exact: &soi_common::FxHashMap<soi_common::StreetId, f64>,
    k: usize,
) {
    assert_eq!(outcome.partial, outcome.stats.deadline_expired);
    assert!(outcome.results.len() <= k);
    for pair in outcome.results.windows(2) {
        assert!(
            pair[0].interest >= pair[1].interest,
            "seed {seed} timeout {timeout_us}us: ranking not sorted"
        );
    }
    let lbk = outcome.stats.termination_lb;
    for r in &outcome.results {
        assert!(
            r.interest >= lbk,
            "seed {seed} timeout {timeout_us}us: returned score {} below recorded LBk {lbk}",
            r.interest
        );
        let exact_interest = exact.get(&r.street).copied().unwrap_or(0.0);
        assert!(
            r.interest <= exact_interest + 1e-9,
            "seed {seed} timeout {timeout_us}us: partial score {} exceeds exact interest \
             {exact_interest} for {:?} — not a lower bound",
            r.interest,
            r.street
        );
    }
}

#[test]
fn expired_deadlines_return_sound_partial_lower_bounds() {
    let mut scratch = SoiScratch::default();
    for seed in 0..8u64 {
        let mut rng = StdRng::seed_from_u64(9100 + seed);
        let network = random_city(&mut rng, 8, 8);
        let pois = random_pois(&mut rng, 600, 7.0);
        let index = PoiIndex::build(&network, &pois, 0.5);
        let query = random_query(&mut rng);
        let exact = exact_street_interests(&network, &pois, &query);
        let config = SoiConfig::default();

        // A pre-expired deadline: the access loop never runs, yet the
        // outcome is still a well-formed (empty or LB-backed) answer.
        let pre_expired = run_soi_full(
            &network,
            &pois,
            &index,
            &query,
            &config,
            &mut scratch,
            None,
            QueryBudget::with_deadline(Instant::now() - Duration::from_secs(1)),
        )
        .unwrap();
        assert!(pre_expired.partial, "seed {seed}: pre-expired not partial");
        assert!(
            pre_expired.results.is_empty(),
            "seed {seed}: work done after expiry"
        );
        assert_sound_outcome(seed, 0, &pre_expired, &exact, query.k);

        // Tiny-but-positive timeouts: wherever the run lands (expired
        // mid-flight or completed), the answer must be sound.
        let mut saw_partial = false;
        for timeout_us in [1u64, 10, 50, 200, 1000] {
            let outcome = run_soi_full(
                &network,
                &pois,
                &index,
                &query,
                &config,
                &mut scratch,
                None,
                QueryBudget::from_timeout(Duration::from_micros(timeout_us)),
            )
            .unwrap();
            saw_partial |= outcome.partial;
            assert_sound_outcome(seed, timeout_us, &outcome, &exact, query.k);
            if !outcome.partial {
                // A completed run under a budget is the exact answer.
                for r in &outcome.results {
                    let want = exact.get(&r.street).copied().unwrap_or(0.0);
                    assert!(
                        (r.interest - want).abs() < 1e-9,
                        "seed {seed}: completed budgeted run not exact"
                    );
                }
            }
        }
        // With a 1µs budget on a 600-POI city at least one run must expire,
        // or the budget plumbing is dead code.
        assert!(saw_partial, "seed {seed}: no timeout ever expired");
    }
}

fn photo_scene(rng: &mut StdRng, n_photos: usize) -> (PhotoCollection, StreetContext) {
    let mut b = RoadNetwork::builder();
    b.add_street_from_points(
        "Main",
        &[
            Point::new(0.0, 0.0),
            Point::new(6.0, 0.0),
            Point::new(6.0, 4.0),
        ],
    );
    let network = b.build().unwrap();
    let mut photos = PhotoCollection::new();
    for _ in 0..n_photos {
        let t: f64 = rng.random_range(0.0..1.0);
        let (bx, by) = if t < 0.6 {
            (t / 0.6 * 6.0, 0.0)
        } else {
            (6.0, (t - 0.6) / 0.4 * 4.0)
        };
        let p = Point::new(
            bx + rng.random_range(-0.4..0.4),
            by + rng.random_range(-0.4..0.4),
        );
        let n_tags = rng.random_range(0..4usize);
        let tags = KeywordSet::from_ids((0..n_tags).map(|_| KeywordId(rng.random_range(0..8))));
        photos.add(p, tags);
    }
    let grid = PhotoGrid::build(&network, &photos, 0.5);
    let ctx = ContextBuilder {
        network: &network,
        photos: &photos,
        photo_grid: &grid,
        pois: None,
        eps: 0.45,
        rho: 0.3,
        phi_source: PhiSource::Photos,
    }
    .build(soi_common::StreetId(0))
    .unwrap();
    (photos, ctx)
}

#[test]
fn describe_unlimited_budget_matches_plain_and_expiry_is_a_greedy_prefix() {
    let mut scratch = DescribeScratch::default();
    for seed in 0..8u64 {
        let mut rng = StdRng::seed_from_u64(9200 + seed);
        let (photos, ctx) = photo_scene(&mut rng, 120);
        let params = DescribeParams::new(6, 0.5, 0.5).unwrap();

        let plain = st_rel_div(&ctx, &photos, &params).unwrap();
        let unlimited = st_rel_div_full(
            &ctx,
            &photos,
            &params,
            &mut scratch,
            None,
            QueryBudget::unlimited(),
        )
        .unwrap();
        assert!(!unlimited.partial, "seed {seed}");
        assert_eq!(plain.selected, unlimited.selected, "seed {seed}");
        assert_eq!(
            plain.objective.to_bits(),
            unlimited.objective.to_bits(),
            "seed {seed}: objective differs in bits"
        );

        // Pre-expired: empty prefix, flagged partial.
        let pre_expired = st_rel_div_full(
            &ctx,
            &photos,
            &params,
            &mut scratch,
            None,
            QueryBudget::with_deadline(Instant::now() - Duration::from_secs(1)),
        )
        .unwrap();
        assert!(pre_expired.partial, "seed {seed}");
        assert!(pre_expired.selected.is_empty(), "seed {seed}");

        // Any mid-run expiry yields a prefix of the full greedy selection
        // (each greedy round's selection is exact for its length).
        for timeout_us in [1u64, 20, 100, 500] {
            let outcome = st_rel_div_full(
                &ctx,
                &photos,
                &params,
                &mut scratch,
                None,
                QueryBudget::from_timeout(Duration::from_micros(timeout_us)),
            )
            .unwrap();
            assert_eq!(outcome.partial, outcome.stats.deadline_expired);
            assert!(
                outcome.selected.len() <= plain.selected.len(),
                "seed {seed}: partial longer than full selection"
            );
            assert_eq!(
                outcome.selected[..],
                plain.selected[..outcome.selected.len()],
                "seed {seed} timeout {timeout_us}us: partial is not a greedy prefix"
            );
            if !outcome.partial {
                assert_eq!(outcome.selected, plain.selected, "seed {seed}");
            }
        }
    }
}
