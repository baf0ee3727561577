//! Property-based tests for the index layer on random data.

use proptest::prelude::*;
use soi_common::{CellId, KeywordId, PhotoId};
use soi_data::{PhotoCollection, PoiCollection};
use soi_geo::{Grid, Point, Rect};
use soi_index::{DiversificationIndex, EpsilonMaps, IrTree, PoiIndex};
use soi_network::RoadNetwork;
use soi_text::KeywordSet;
use std::collections::BTreeMap;

fn poi_specs() -> impl Strategy<Value = Vec<(f64, f64, Vec<u32>)>> {
    proptest::collection::vec(
        (
            0.0f64..8.0,
            0.0f64..8.0,
            proptest::collection::vec(0u32..6, 0..3),
        ),
        0..60,
    )
}

fn build_pois(specs: &[(f64, f64, Vec<u32>)]) -> PoiCollection {
    let mut pois = PoiCollection::new();
    for (x, y, kws) in specs {
        pois.add(
            Point::new(*x, *y),
            KeywordSet::from_ids(kws.iter().map(|&k| KeywordId(k))),
        );
    }
    pois
}

fn small_network() -> RoadNetwork {
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
    b.add_street_from_points("D", &[Point::new(0.0, 0.0), Point::new(7.5, 7.5)]);
    b.build().unwrap()
}

proptest! {
    #[test]
    fn ir_tree_top_k_matches_brute_force(
        specs in poi_specs(),
        q in ((0.0f64..8.0), (0.0f64..8.0)),
        query_kws in proptest::collection::vec(0u32..6, 1..3),
        k in 1usize..10,
    ) {
        let pois = build_pois(&specs);
        let tree = IrTree::build(&pois);
        let query = KeywordSet::from_ids(query_kws.iter().map(|&k| KeywordId(k)));
        let qp = Point::new(q.0, q.1);

        let got = tree.top_k_relevant(qp, &query, k);
        let mut want: Vec<(f64, u32)> = pois
            .iter()
            .filter(|p| p.keywords.intersects(&query))
            .map(|p| (p.pos.dist(qp), p.id.raw()))
            .collect();
        want.sort_by(|a, b| a.0.total_cmp(&b.0));
        want.truncate(k);

        prop_assert_eq!(got.len(), want.len());
        for ((_, gd), (wd, _)) in got.iter().zip(want.iter()) {
            prop_assert!((gd - wd).abs() < 1e-9);
        }
    }

    #[test]
    fn ir_tree_range_matches_brute_force(
        specs in poi_specs(),
        q in ((0.0f64..8.0), (0.0f64..8.0)),
        dist in 0.0f64..6.0,
        query_kws in proptest::collection::vec(0u32..6, 1..3),
    ) {
        let pois = build_pois(&specs);
        let tree = IrTree::build(&pois);
        let query = KeywordSet::from_ids(query_kws.iter().map(|&k| KeywordId(k)));
        let qp = Point::new(q.0, q.1);

        let got = tree.relevant_within(qp, dist, &query);
        let want: Vec<_> = pois
            .iter()
            .filter(|p| p.keywords.intersects(&query) && p.pos.dist(qp) <= dist)
            .map(|p| p.id)
            .collect();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn lazy_and_eager_maps_agree(
        specs in poi_specs(),
        eps in 0.05f64..1.5,
        cell in 0.3f64..1.2,
    ) {
        let network = small_network();
        let pois = build_pois(&specs);
        let index = PoiIndex::build(&network, &pois, cell);
        let maps = EpsilonMaps::build(&network, &index, eps);
        for seg in network.segments() {
            let lazy = index.occupied_cells_near_segment(&seg.geom, eps);
            prop_assert_eq!(lazy.as_slice(), maps.cells_of_segment(seg.id));
            prop_assert!(index.upper_cell_count(&seg.geom, eps) >= lazy.len());
        }
        for (cell_id, _) in index.occupied_cells() {
            let lazy = index.segments_within_eps_of_cell(&network, cell_id, eps);
            let mut eager = maps.segments_of_cell(cell_id).to_vec();
            eager.sort_unstable();
            prop_assert_eq!(lazy, eager);
            // The superset really is a superset.
            let superset = index.segments_near_cell_superset(cell_id, eps);
            for s in maps.segments_of_cell(cell_id) {
                prop_assert!(superset.contains(s));
            }
        }
    }

    #[test]
    fn segment_mass_consistent_between_paths(
        specs in poi_specs(),
        eps in 0.05f64..1.5,
        query_kws in proptest::collection::vec(0u32..6, 1..3),
    ) {
        let network = small_network();
        let pois = build_pois(&specs);
        let index = PoiIndex::build(&network, &pois, 0.6);
        let maps = EpsilonMaps::build(&network, &index, eps);
        let query = KeywordSet::from_ids(query_kws.iter().map(|&k| KeywordId(k)));
        for seg in network.segments() {
            // Definition 1 over the reference maps' eager `Cε(ℓ)`.
            let eager: f64 = maps
                .cells_of_segment(seg.id)
                .iter()
                .map(|&c| index.cell_mass_for_segment(&pois, c, &seg.geom, &query, eps))
                .sum();
            let lazy = index.segment_mass_lazy(&pois, &network, seg.id, &query, eps);
            let brute: f64 = pois
                .iter()
                .filter(|p| p.keywords.intersects(&query))
                .filter(|p| seg.geom.dist_to_point(p.pos) <= eps)
                .map(|p| p.weight)
                .sum();
            prop_assert_eq!(eager, lazy);
            prop_assert!((lazy - brute).abs() < 1e-9);
        }
    }

    #[test]
    fn flat_diversification_index_equals_a_per_cell_reference(
        // Coordinates in quarter-cells, so many photos sit exactly on a cell
        // edge or corner; a span of 1 puts every photo on one point (a
        // one-cell grid).
        span in 1u32..14,
        specs in proptest::collection::vec(
            (0u32..1000, 0u32..1000, 0u32..4, proptest::collection::vec(0u32..7, 0..4), 0u32..3),
            0..70,
        ),
    ) {
        const RHO: f64 = 0.5;
        let mut photos = PhotoCollection::new();
        let mut members = Vec::new();
        for (x, y, jitter, tags, member) in &specs {
            // A quarter of the photos are nudged off the lattice.
            let nudge = if *jitter == 0 { 0.013 } else { 0.0 };
            let pos = Point::new(
                f64::from(x % span) * RHO / 8.0 + nudge,
                f64::from(y % span) * RHO / 8.0 - nudge,
            );
            let id = photos.add(pos, KeywordSet::from_ids(tags.iter().map(|&k| KeywordId(k))));
            if *member > 0 {
                members.push(id);
            }
        }

        // The index under test is rebuilt in place over whatever an earlier,
        // larger build (every photo, another ρ) left in its arrays.
        let everyone: Vec<PhotoId> = photos.iter().map(|p| p.id).collect();
        let mut index = DiversificationIndex::build(&photos, &everyone, 0.8);
        index.rebuild(&photos, &members, RHO);

        // The reference, built the way the hash-of-vecs index was: one
        // photo list, tag-count range and keyword union per occupied cell.
        let extent = Rect::bounding(members.iter().map(|&id| photos.get(id).pos))
            .unwrap_or_else(|| Rect::new(Point::ORIGIN, Point::new(1.0, 1.0)));
        let grid = Grid::covering(extent, RHO / 2.0);
        prop_assert_eq!(index.grid(), &grid);
        let mut cells: BTreeMap<CellId, Vec<PhotoId>> = BTreeMap::new();
        for &id in &members {
            let coord = grid.cell_containing(photos.get(id).pos).expect("inside the extent");
            cells.entry(grid.cell_id(coord)).or_default().push(id);
        }
        prop_assert_eq!(index.num_photos(), members.len());
        prop_assert_eq!(index.occupied(), cells.keys().copied().collect::<Vec<_>>().as_slice());
        let cell_major: Vec<PhotoId> = cells.values().flatten().copied().collect();
        prop_assert_eq!(index.photos(), cell_major.as_slice());
        for (slot, (&id, list)) in cells.iter().enumerate() {
            prop_assert_eq!(index.slot_of(id), Some(slot));
            let cell = index.cell(id).expect("occupied");
            prop_assert_eq!(cell.photos, list.as_slice());
            prop_assert_eq!(&index.photos()[index.member_slots(slot)], list.as_slice());
            let counts = list.iter().map(|&p| photos.get(p).tags.len());
            prop_assert_eq!(Some(cell.psi_min), counts.clone().min());
            prop_assert_eq!(Some(cell.psi_max), counts.max());
            let union = KeywordSet::from_ids(list.iter().flat_map(|&p| photos.get(p).tags.iter()));
            prop_assert_eq!(cell.keywords, union.ids());
        }
        // Neighbourhood counts, from occupied and unoccupied centres alike.
        for c in grid.all_cells() {
            prop_assert_eq!(index.cell(grid.cell_id(c)).is_some(), cells.contains_key(&grid.cell_id(c)));
            for radius in 0..4 {
                let want: usize = cells
                    .iter()
                    .filter(|(&id, _)| grid.coord_of(id).chebyshev(c) <= radius)
                    .map(|(_, list)| list.len())
                    .sum();
                prop_assert_eq!(index.neighborhood_count(grid.cell_id(c), radius), want);
            }
        }
        // Definition 4 against a scan of Rs, around members and strangers
        // (inside the grid: a centre outside it counts nothing).
        for probe in photos.iter().filter(|p| grid.cell_containing(p.pos).is_some()) {
            for radius in [RHO, RHO / 2.0, 0.0] {
                let want = members
                    .iter()
                    .filter(|&&id| photos.get(id).pos.dist_sq(probe.pos) <= radius * radius)
                    .count();
                prop_assert_eq!(index.count_within(&photos, probe.pos, radius), want);
            }
        }
    }
}
