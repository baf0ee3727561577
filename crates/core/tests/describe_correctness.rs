//! Randomised correctness tests for the diversification stack.
//!
//! Verifies on random street/photo configurations that:
//! 1. the per-cell bounds (Eqs. 11–18) sandwich the exact measures;
//! 2. ST_Rel+Div (Algorithm 2) returns *exactly* the greedy baseline's
//!    selection for every (k, λ, w) combination;
//! 3. the greedy objective never exceeds the exhaustive optimum, and
//!    matches it for λ = 0.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use soi_common::KeywordId;
use soi_core::describe::{
    cell_mmr_bounds, exact_select, greedy_select, mmr, objective, st_rel_div, ContextBuilder,
    DescribeParams, PhiSource, StreetContext,
};
use soi_data::PhotoCollection;
use soi_geo::Point;
use soi_index::PhotoGrid;
use soi_network::RoadNetwork;
use soi_text::KeywordSet;

const NUM_TAGS: u32 = 8;

fn random_street_scene(
    rng: &mut StdRng,
    n_photos: usize,
) -> (RoadNetwork, PhotoCollection, StreetContext) {
    random_street_scene_with_tags(rng, n_photos, NUM_TAGS)
}

/// [`random_street_scene`] with photo tags drawn from `num_tags` keywords.
fn random_street_scene_with_tags(
    rng: &mut StdRng,
    n_photos: usize,
    num_tags: u32,
) -> (RoadNetwork, PhotoCollection, StreetContext) {
    let mut b = RoadNetwork::builder();
    // An L-shaped street.
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
        // Mostly near the street, some scattered.
        let (x, y) = if rng.random_range(0..4) > 0 {
            let t: f64 = rng.random_range(0.0..1.0);
            let (bx, by) = if t < 0.6 {
                (t / 0.6 * 6.0, 0.0)
            } else {
                (6.0, (t - 0.6) / 0.4 * 4.0)
            };
            (
                bx + rng.random_range(-0.4..0.4),
                by + rng.random_range(-0.4..0.4),
            )
        } else {
            (rng.random_range(-1.0..7.0), rng.random_range(-1.0..5.0))
        };
        let n_tags = rng.random_range(0..4usize);
        let tags =
            KeywordSet::from_ids((0..n_tags).map(|_| KeywordId(rng.random_range(0..num_tags))));
        photos.add(Point::new(x, y), tags);
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
    (network, photos, ctx)
}

#[test]
fn cell_mmr_bounds_sandwich_exact_mmr() {
    for seed in 0..10u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let (_net, photos, ctx) = random_street_scene(&mut rng, 60);
        if ctx.members.len() < 3 {
            continue;
        }
        let selected = vec![ctx.members[0], ctx.members[ctx.members.len() / 2]];
        for &(lambda, w) in &[(0.0, 0.5), (1.0, 0.5), (0.5, 0.0), (0.5, 1.0), (0.5, 0.5)] {
            let params = DescribeParams::new(4, lambda, w).unwrap();
            for &cell in ctx.index.occupied() {
                let (lo, hi) = cell_mmr_bounds(&ctx, &photos, &params, cell, &selected);
                assert!(lo <= hi + 1e-12);
                for &r in ctx.index.cell(cell).unwrap().photos {
                    let exact = mmr(&ctx, &photos, &params, r, &selected);
                    assert!(
                        lo <= exact + 1e-9 && exact <= hi + 1e-9,
                        "seed {seed} lambda={lambda} w={w} cell={cell:?} r={r}: \
                         {lo} <= {exact} <= {hi} violated"
                    );
                }
            }
        }
    }
}

#[test]
fn st_rel_div_equals_greedy_baseline() {
    // Both read the index's columns — Alg. 2 by slot, the baseline through
    // the photo-id look-up — and must agree to the bit: on streets whose
    // tags fit the index's 64-bit masks, on ones whose tags do not (300
    // keywords: tag sets are intersected by merge), and on untagged photos
    // (a quarter of each scene).
    for seed in 0..12u64 {
        let mut rng = StdRng::seed_from_u64(100 + seed);
        let (n_photos, num_tags) = if seed % 3 == 2 {
            (160, 300)
        } else {
            (80, NUM_TAGS)
        };
        let (_net, photos, ctx) = random_street_scene_with_tags(&mut rng, n_photos, num_tags);
        if ctx.members.is_empty() {
            continue;
        }
        let masked = ctx.index.kw_mask(0).is_some();
        assert_eq!(masked, num_tags == NUM_TAGS, "seed {seed}");
        for k in [1, 5, 20, ctx.members.len()] {
            for lambda in [0.0, 0.25, 1.0] {
                for w in [0.0, 0.5, 1.0] {
                    let params = DescribeParams::new(k, lambda, w).unwrap();
                    let fast = st_rel_div(&ctx, &photos, &params).unwrap();
                    let slow = greedy_select(&ctx, &photos, &params);
                    assert_eq!(
                        fast.selected, slow.selected,
                        "seed {seed} k={k} lambda={lambda} w={w}: selections differ\n\
                         fast objective {} slow objective {}",
                        fast.objective, slow.objective
                    );
                    assert_eq!(fast.objective.to_bits(), slow.objective.to_bits());
                }
            }
        }
    }
}

#[test]
fn st_rel_div_never_evaluates_more_photos() {
    let mut total_fast = 0usize;
    let mut total_slow = 0usize;
    for seed in 0..8u64 {
        let mut rng = StdRng::seed_from_u64(300 + seed);
        let (_net, photos, ctx) = random_street_scene(&mut rng, 120);
        if ctx.members.len() < 5 {
            continue;
        }
        let params = DescribeParams::new(5, 0.5, 0.5).unwrap();
        let fast = st_rel_div(&ctx, &photos, &params).unwrap();
        let slow = greedy_select(&ctx, &photos, &params);
        assert!(fast.stats.photos_evaluated <= slow.stats.photos_evaluated);
        total_fast += fast.stats.photos_evaluated;
        total_slow += slow.stats.photos_evaluated;
    }
    // On aggregate the pruning must actually bite.
    assert!(
        total_fast < total_slow,
        "pruning ineffective: {total_fast} vs {total_slow}"
    );
}

#[test]
fn greedy_objective_bounded_by_exhaustive_optimum() {
    for seed in 0..8u64 {
        let mut rng = StdRng::seed_from_u64(200 + seed);
        let (_net, photos, ctx) = random_street_scene(&mut rng, 18);
        if ctx.members.len() < 4 || ctx.members.len() > 16 {
            continue;
        }
        for &(k, lambda) in &[(2usize, 0.5), (3, 0.0), (3, 0.8)] {
            let params = DescribeParams::new(k, lambda, 0.5).unwrap();
            let (_, exact_val) = exact_select(&ctx, &photos, &params).unwrap();
            let greedy = greedy_select(&ctx, &photos, &params);
            assert!(
                exact_val >= greedy.objective - 1e-9,
                "seed {seed} k={k} lambda={lambda}: greedy beats optimum?!"
            );
            if lambda == 0.0 {
                assert!(
                    (exact_val - greedy.objective).abs() < 1e-9,
                    "seed {seed}: lambda=0 greedy must be optimal"
                );
            }
        }
    }
}

#[test]
fn objective_recomputes_consistently() {
    let mut rng = StdRng::seed_from_u64(999);
    let (_net, photos, ctx) = random_street_scene(&mut rng, 50);
    let params = DescribeParams::new(6, 0.4, 0.6).unwrap();
    let out = st_rel_div(&ctx, &photos, &params).unwrap();
    let f = objective(&ctx, &photos, &params, &out.selected);
    assert!((out.objective - f).abs() < 1e-12);
}

#[test]
fn describe_explain_rounds_account_for_all_work() {
    use soi_core::describe::{st_rel_div_full, DescribeExplain, DescribeScratch};
    use soi_core::QueryBudget;

    for seed in 0..5u64 {
        let mut rng = StdRng::seed_from_u64(4000 + seed);
        let (_network, photos, ctx) = random_street_scene(&mut rng, 60);
        let params = DescribeParams::new(5, 0.5, 0.5).unwrap();

        let plain = st_rel_div(&ctx, &photos, &params).unwrap();
        let mut explain = DescribeExplain::default();
        let explained = st_rel_div_full(
            &ctx,
            &photos,
            &params,
            &mut DescribeScratch::default(),
            Some(&mut explain),
            QueryBudget::unlimited(),
        )
        .unwrap();

        // Collecting an explain must not change the selection.
        assert_eq!(plain.selected, explained.selected, "seed {seed}");
        assert_eq!(plain.objective, explained.objective, "seed {seed}");

        // One recorded round per selected photo (plus at most one final
        // round that found no candidate), in order, and the per-round
        // counters sum to the run totals.
        assert!(explain.rounds.len() >= explained.selected.len());
        assert!(explain.rounds.len() <= explained.selected.len() + 1);
        for (i, (round, &photo)) in explain
            .rounds
            .iter()
            .zip(explained.selected.iter())
            .enumerate()
        {
            assert_eq!(round.round, i + 1, "seed {seed}");
            assert_eq!(round.selected, Some(photo), "seed {seed}");
        }
        let scored: usize = explain.rounds.iter().map(|r| r.photos_scored).sum();
        assert_eq!(scored, explained.stats.photos_evaluated, "seed {seed}");
        let pruned: usize = explain
            .rounds
            .iter()
            .map(|r| r.cells_pruned_filtering)
            .sum();
        assert_eq!(
            pruned, explained.stats.cells_pruned_filtering,
            "seed {seed}"
        );

        // The artifact parses and its rounds match the collector.
        let doc = soi_obs::json::parse(&explain.to_json()).unwrap();
        let rounds = doc.get("rounds").unwrap().as_arr().unwrap();
        assert_eq!(rounds.len(), explain.rounds.len());
    }
}
