//! Incremental index maintenance through deltas: sealed-delta reads must
//! equal a rebuild over the folded collections, bit for bit, at every build
//! thread count. (The base structures are immutable; a `DeltaIndex` is the
//! one ingestion path.)

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use soi_common::{KeywordId, PhotoId};
use soi_data::{Photo, PhotoCollection, PoiCollection};
use soi_geo::Point;
use soi_index::{fold_ops, DeltaIndex, DeltaOp, IndexView, PhotoGrid, PoiIndex};
use soi_network::RoadNetwork;
use soi_text::KeywordSet;

fn network() -> RoadNetwork {
    let mut b = RoadNetwork::builder();
    b.add_street_from_points(
        "H",
        &[
            Point::new(0.0, 2.0),
            Point::new(4.0, 2.0),
            Point::new(8.0, 2.0),
        ],
    );
    b.add_street_from_points(
        "V",
        &[
            Point::new(4.0, 0.0),
            Point::new(4.0, 4.0),
            Point::new(4.0, 8.0),
        ],
    );
    // Corner anchors so the grid extent covers all POI positions below.
    b.add_street_from_points("B", &[Point::new(0.0, 0.0), Point::new(8.0, 8.0)]);
    b.build().unwrap()
}

fn random_pois(rng: &mut StdRng, n: usize) -> PoiCollection {
    let mut pois = PoiCollection::new();
    for _ in 0..n {
        let kws = KeywordSet::from_ids(
            (0..rng.random_range(0..3usize)).map(|_| KeywordId(rng.random_range(0..5))),
        );
        let weight = if rng.random_range(0..8) == 0 {
            2.5
        } else {
            1.0
        };
        pois.add_weighted(
            Point::new(rng.random_range(0.0..8.0), rng.random_range(0.0..8.0)),
            kws,
            weight,
        );
    }
    pois
}

/// A random op stream against `pois`/`photos`: inserts inside the extent,
/// deletes over distinct ids of the epoch's id space (base ids and ids
/// added earlier in the same stream).
fn random_ops(
    rng: &mut StdRng,
    pois: &PoiCollection,
    photos: &PhotoCollection,
    n: usize,
) -> Vec<DeltaOp> {
    let mut ops = Vec::with_capacity(n);
    let mut num_pois = pois.len();
    let mut num_photos = photos.len();
    let mut deleted_pois = std::collections::HashSet::new();
    let mut deleted_photos = std::collections::HashSet::new();
    for _ in 0..n {
        match rng.random_range(0..10u32) {
            // POI insert (weighted occasionally); positions stay inside
            // the 0..8 network extent.
            0..=4 => {
                let kws = KeywordSet::from_ids(
                    (0..rng.random_range(0..3usize)).map(|_| KeywordId(rng.random_range(0..5))),
                );
                ops.push(DeltaOp::AddPoi {
                    pos: Point::new(rng.random_range(0.0..8.0), rng.random_range(0.0..8.0)),
                    keywords: kws,
                    weight: if rng.random_range(0..4) == 0 {
                        2.5
                    } else {
                        1.0
                    },
                });
                num_pois += 1;
            }
            5..=6 => {
                ops.push(DeltaOp::AddPhoto {
                    pos: Point::new(rng.random_range(0.0..8.0), rng.random_range(0.0..8.0)),
                    tags: KeywordSet::from_ids([KeywordId(rng.random_range(0..5))]),
                });
                num_photos += 1;
            }
            7..=8 => {
                // Delete a not-yet-deleted POI id (base or delta-added).
                let candidates: Vec<usize> = (0..num_pois)
                    .filter(|i| !deleted_pois.contains(i))
                    .collect();
                if let Some(&idx) = candidates.get(rng.random_range(0..candidates.len().max(1))) {
                    deleted_pois.insert(idx);
                    ops.push(DeltaOp::DeletePoi {
                        id: soi_common::PoiId::from_index(idx),
                    });
                }
            }
            _ => {
                let candidates: Vec<usize> = (0..num_photos)
                    .filter(|i| !deleted_photos.contains(i))
                    .collect();
                if let Some(&idx) = candidates.get(rng.random_range(0..candidates.len().max(1))) {
                    deleted_photos.insert(idx);
                    ops.push(DeltaOp::DeletePhoto {
                        id: PhotoId::from_index(idx),
                    });
                }
            }
        }
    }
    ops
}

fn random_photos(rng: &mut StdRng, n: usize) -> PhotoCollection {
    let mut photos = PhotoCollection::new();
    for _ in 0..n {
        photos.add(
            Point::new(rng.random_range(0.0..8.0), rng.random_range(0.0..8.0)),
            KeywordSet::from_ids([KeywordId(rng.random_range(0..5))]),
        );
    }
    photos
}

#[test]
fn delta_stream_replay_matches_full_rebuild_across_build_threads() {
    for seed in 0..6u64 {
        let mut rng = StdRng::seed_from_u64(100 + seed);
        let net = network();
        let pois = random_pois(&mut rng, 80);
        let photos = random_photos(&mut rng, 40);
        let index = PoiIndex::build(&net, &pois, 0.7);
        let ops = random_ops(&mut rng, &pois, &photos, 50);

        let delta = DeltaIndex::seal(&index, &pois, &photos, &ops).expect("valid stream");
        let view = IndexView::new(&index, Some(&delta));
        let poi_view = delta.poi_view(&pois);
        let (folded_pois, _folded_photos) = fold_ops(&pois, &photos, &ops).expect("valid stream");

        let query = KeywordSet::from_ids([KeywordId(0), KeywordId(3)]);
        for threads in [1usize, 2, 8] {
            let rebuilt = PoiIndex::build_with_threads(&net, &folded_pois, 0.7, threads);
            // Global postings: replacement lists for touched keywords must
            // equal the rebuilt aggregates bit for bit.
            for k in 0..5u32 {
                let a = view.global_postings(KeywordId(k));
                let b = rebuilt.global_postings(KeywordId(k));
                assert_eq!(a.len(), b.len(), "seed {seed} t{threads} keyword {k}");
                for ((ca, wa), (cb, wb)) in a.iter().zip(b) {
                    assert_eq!(ca, cb, "seed {seed} t{threads} keyword {k}");
                    assert_eq!(
                        wa.to_bits(),
                        wb.to_bits(),
                        "seed {seed} t{threads} keyword {k} cell {ca:?}"
                    );
                }
            }
            for seg in net.segments() {
                // The view's lazy ε-cell walk must cover the same mass as
                // the rebuilt index's, bit-identically.
                let a = view.segment_mass_lazy(poi_view, &net, seg.id, &query, 0.5);
                let b = IndexView::from(&rebuilt).segment_mass_lazy(
                    (&folded_pois).into(),
                    &net,
                    seg.id,
                    &query,
                    0.5,
                );
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "seed {seed} t{threads} segment {} mass {a} vs {b}",
                    seg.id
                );
                // Occupied-cell sets agree up to cells that lost all their
                // POIs (the view keeps them as a sound zero-mass superset).
                let va = view.occupied_cells_near_segment(&seg.geom, 0.5);
                let vb = IndexView::from(&rebuilt).occupied_cells_near_segment(&seg.geom, 0.5);
                for c in &vb {
                    assert!(
                        va.contains(c),
                        "seed {seed} t{threads}: rebuilt cell {c:?} missing from view"
                    );
                }
                for c in &va {
                    if !vb.contains(c) {
                        assert_eq!(
                            view.cell_total_weight(*c).to_bits(),
                            0.0f64.to_bits(),
                            "seed {seed} t{threads}: extra view cell {c:?} must be empty"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn photo_delta_fold_matches_view_survivors_and_grid_queries() {
    let mut rng = StdRng::seed_from_u64(7);
    let net = network();
    let pois = random_pois(&mut rng, 20);
    let photos = random_photos(&mut rng, 60);
    let index = PoiIndex::build(&net, &pois, 0.7);
    // Photo-only stream: adds plus deletes of base and delta-added ids.
    let mut ops: Vec<DeltaOp> = (0..25)
        .map(|_| DeltaOp::AddPhoto {
            pos: Point::new(rng.random_range(0.0..8.0), rng.random_range(0.0..8.0)),
            tags: KeywordSet::from_ids([KeywordId(rng.random_range(0..5))]),
        })
        .collect();
    for id in [3usize, 17, 42, 59, 60, 71] {
        ops.push(DeltaOp::DeletePhoto {
            id: PhotoId::from_index(id),
        });
    }
    let delta = DeltaIndex::seal(&index, &pois, &photos, &ops).expect("valid stream");
    let (_, folded_photos) = fold_ops(&pois, &photos, &ops).expect("valid stream");

    // The folded collection is exactly the view's survivors, in view
    // order, with ids re-densified.
    let photo_view = delta.photo_view(&photos);
    let survivors: Vec<&Photo> = photo_view
        .iter()
        .filter(|p| !delta.photo_deleted(p.id))
        .collect();
    assert_eq!(folded_photos.len(), 60 + 25 - 6);
    assert_eq!(folded_photos.len(), survivors.len());
    for (i, (folded, survivor)) in folded_photos.iter().zip(&survivors).enumerate() {
        assert_eq!(folded.id.index(), i, "folded ids must be dense");
        assert_eq!(folded.pos, survivor.pos);
        assert_eq!(folded.tags, survivor.tags);
    }

    // A grid rebuilt over the folded photos answers street queries that
    // agree with a brute-force distance scan of the same collection.
    let grid = PhotoGrid::build(&net, &folded_photos, 0.7);
    for street in net.streets() {
        for eps in [0.3, 0.8] {
            let got = grid.photos_near_street(&net, &folded_photos, street.id, eps);
            let want: Vec<_> = folded_photos
                .iter()
                .filter(|p| {
                    street
                        .segments
                        .iter()
                        .any(|&seg| net.segment(seg).geom.dist_sq_to_point(p.pos) <= eps * eps)
                })
                .map(|p| p.id)
                .collect();
            assert_eq!(got, want, "street {} eps {eps}", street.id);
        }
    }
}

#[test]
fn interleaved_insert_delete_query_fuzz_never_panics() {
    // Streams batches of random ops through seal → query → (sometimes)
    // fold, exactly the server's epoch lifecycle. Every view answer is
    // cross-checked against a brute-force scan of the logical state; the
    // run must never panic, never reject a validly-constructed batch, and
    // never drift from the brute-force mass.
    for seed in 0..4u64 {
        let mut rng = StdRng::seed_from_u64(900 + seed);
        let net = network();
        let mut pois = random_pois(&mut rng, 40);
        let mut photos = random_photos(&mut rng, 20);
        let mut index = PoiIndex::build(&net, &pois, 0.7);
        let mut pending: Vec<DeltaOp> = Vec::new();

        for round in 0..12 {
            // The cumulative re-seal rejects duplicate deletes, so drop
            // ops colliding with an earlier round's deletes.
            let fresh: Vec<DeltaOp> = random_ops(&mut rng, &pois, &photos, 6)
                .into_iter()
                .filter(|op| match op {
                    DeltaOp::DeletePoi { .. } | DeltaOp::DeletePhoto { .. } => {
                        !pending.contains(op)
                    }
                    _ => true,
                })
                .collect();
            pending.extend(fresh);
            let delta = DeltaIndex::seal(&index, &pois, &photos, &pending).expect("valid batch");
            let view = IndexView::new(&index, Some(&delta));
            let poi_view = delta.poi_view(&pois);

            let query = KeywordSet::from_ids(
                (0..rng.random_range(1..3usize)).map(|_| KeywordId(rng.random_range(0..5))),
            );
            let eps = rng.random_range(0.2..0.9f64);
            for seg in net.segments() {
                let got = view.segment_mass_lazy(poi_view, &net, seg.id, &query, eps);
                let want: f64 = poi_view
                    .iter()
                    .filter(|p| {
                        !delta.poi_deleted(p.id)
                            && p.keywords.intersects(&query)
                            && seg.geom.dist_sq_to_point(p.pos) <= eps * eps
                    })
                    .map(|p| p.weight)
                    .sum();
                assert!(
                    (got - want).abs() < 1e-9,
                    "seed {seed} round {round} segment {}: view {got} vs brute {want}",
                    seg.id
                );
            }

            // Fold roughly every third round: the pending delta becomes
            // the new base, exactly like a server epoch boundary.
            if rng.random_range(0..3) == 0 {
                let (fp, fph) = fold_ops(&pois, &photos, &pending).expect("valid fold");
                pois = fp;
                photos = fph;
                index = PoiIndex::build(&net, &pois, 0.7);
                pending.clear();
            }
        }
    }
}
