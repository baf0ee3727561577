//! Property-based tests for the index layer on random data.

use proptest::prelude::*;
use soi_common::{CellId, KeywordId, PhotoId, PoiId};
use soi_data::{PhotoCollection, PoiCollection, PoiView};
use soi_geo::{Grid, Point, Rect};
use soi_index::{
    mass_within, DeltaIndex, DeltaOp, DiversificationIndex, EpsilonMaps, IndexView, PoiIndex,
};
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

/// A xorshift stream: the many POIs of one case from one drawn seed.
struct Draw(u64);

impl Draw {
    /// The next value in `[0, 1)`.
    fn unit(&mut self) -> f64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        (self.0 >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Up to four of eight keywords, and a non-integer weight — one in
    /// fifty several times the rest, one in fifty exactly zero — so that a
    /// change of summation order shows in a sum's low bits.
    fn keywords_and_weight(&mut self) -> (KeywordSet, f64) {
        let carried = (self.unit() * 5.0) as usize;
        let keywords: Vec<KeywordId> = (0..carried)
            .map(|_| KeywordId((self.unit() * 8.0) as u32))
            .collect();
        let weight = match (self.unit() * 50.0) as u32 {
            0 => 2.0 + 4.0 * self.unit(),
            1 => 0.0,
            _ => 0.25 + self.unit(),
        };
        (KeywordSet::from_ids(keywords), weight)
    }
}

proptest! {
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
            let lazy = IndexView::from(&index).occupied_cells_near_segment(&seg.geom, eps);
            prop_assert_eq!(lazy.as_slice(), maps.cells_of_segment(seg.id));
            prop_assert!(index.upper_cell_count(&seg.geom, eps) >= lazy.len());
        }
        for (cell_id, _) in index.occupied_cells() {
            let lazy = index.segments_within_eps_of_cell(&network, cell_id, eps);
            let mut eager = maps.segments_of_cell(cell_id).to_vec();
            eager.sort_unstable();
            prop_assert_eq!(lazy, eager);
            // The ring's raster rows really are a superset.
            let mut ring = Vec::new();
            IndexView::from(&index)
                .for_each_raster_row_near_cell(cell_id, eps, |row| ring.extend_from_slice(row));
            for s in maps.segments_of_cell(cell_id) {
                prop_assert!(ring.contains(s));
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
        let (view, poi_view) = (IndexView::from(&index), (&pois).into());
        for seg in network.segments() {
            // Definition 1 over the reference maps' eager `Cε(ℓ)`.
            let eager: f64 = maps
                .cells_of_segment(seg.id)
                .iter()
                .map(|&c| view.cell_mass_for_segment(poi_view, c, &seg.geom, &query, eps))
                .sum();
            let lazy = view.segment_mass_lazy(poi_view, &network, seg.id, &query, eps);
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

    /// Alg. 1's mass path — a cell's relevant POIs gathered once through
    /// `for_each_relevant_poi`, then `mass_within` per segment — against the
    /// one-call reference, for every (cell, segment) of the grid. CI runs
    /// this under the release profile too: that is where the scan's blocks
    /// vectorise.
    #[test]
    fn gathered_scan_equals_the_reference_mass_bit_for_bit(
        seed in 1u64..u64::MAX,
        sprinkled in 0usize..150,
        // In two cases of three, one cell holds more POIs than a window of
        // the several-keyword union (4 096).
        crowd in 0usize..3,
        query_kws in proptest::collection::vec(0u32..8, 1..7),
        // ε in cell sizes: exactly 0 in one case of six, else up to 3.5.
        eps_cells in (0u32..6, 0.0f64..3.5),
        with_delta in 0u32..2,
    ) {
        const CELL: f64 = 0.6;
        // The crowded cell, [2.4, 3.0)², straddles the diagonal street.
        const CROWD_AT: f64 = 4.0 * CELL;
        let mut draw = Draw(seed);
        // Base POIs stay below y = 7: the top row of cells is unoccupied.
        let mut pois = PoiCollection::new();
        for _ in 0..sprinkled {
            let pos = Point::new(8.0 * draw.unit(), 7.0 * draw.unit());
            let (keywords, weight) = draw.keywords_and_weight();
            pois.add_weighted(pos, keywords, weight);
        }
        for _ in 0..crowd.min(1) * (4200 + sprinkled) {
            let pos = Point::new(CROWD_AT + CELL * draw.unit(), CROWD_AT + CELL * draw.unit());
            let (keywords, weight) = draw.keywords_and_weight();
            pois.add_weighted(pos, keywords, weight);
        }
        let network = small_network();
        let index = PoiIndex::build(&network, &pois, CELL);
        let grid = index.grid();
        if crowd > 0 {
            let coord = grid.cell_containing(Point::new(CROWD_AT + 0.1, CROWD_AT + 0.1));
            let crowded = index.cell(grid.cell_id(coord.unwrap())).unwrap();
            prop_assert!(crowded.pois.len() > 4096);
        }

        // The delta deletes one base POI in six, adds POIs on top of some
        // of the first forty (occupied cells) and three beside the vertical
        // street in the unoccupied top row, and deletes its own last add.
        let delta = (with_delta == 1).then(|| {
            let mut ops = Vec::new();
            let mut added = 0;
            let mut add = |pos: Point, draw: &mut Draw, ops: &mut Vec<DeltaOp>| {
                let (keywords, weight) = draw.keywords_and_weight();
                ops.push(DeltaOp::AddPoi { pos, keywords, weight });
                added += 1;
            };
            for p in pois.iter() {
                match (draw.unit() * 6.0) as u32 {
                    0 => ops.push(DeltaOp::DeletePoi { id: p.id }),
                    1 if p.id.index() < 40 => add(p.pos, &mut draw, &mut ops),
                    _ => {}
                }
            }
            for i in 0..3 {
                add(Point::new(4.05 + 0.1 * f64::from(i), 7.7), &mut draw, &mut ops);
            }
            ops.push(DeltaOp::DeletePoi { id: PoiId::from_index(pois.len() + added - 1) });
            DeltaIndex::seal(&index, &pois, &PhotoCollection::new(), &ops).expect("valid ops")
        });
        let view = IndexView::new(&index, delta.as_ref());
        let poi_view: PoiView<'_> = match &delta {
            Some(d) => d.poi_view(&pois),
            None => (&pois).into(),
        };

        let query = KeywordSet::from_ids(query_kws.iter().map(|&k| KeywordId(k)));
        let eps = if eps_cells.0 == 0 { 0.0 } else { eps_cells.1 * CELL };
        let (mut x, mut y, mut w) = (Vec::new(), Vec::new(), Vec::new());
        for cell in (0..grid.num_cells()).map(CellId::from_index) {
            x.clear();
            y.clear();
            w.clear();
            view.for_each_relevant_poi(poi_view, cell, &query, |px, py, weight| {
                x.push(px);
                y.push(py);
                w.push(weight);
            });
            for seg in network.segments() {
                let want = view.cell_mass_for_segment(poi_view, cell, &seg.geom, &query, eps);
                let got = mass_within(&seg.geom, eps, &x, &y, &w);
                prop_assert_eq!(got.to_bits(), want.to_bits(), "{:?}, segment {}", cell, seg.id);
            }
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

        let index = DiversificationIndex::build(&photos, &members, RHO).expect("indexable");

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
        // Eq. 12's count and Definition 4's, from every cell and member,
        // against scans of the cells and of Rs.
        for (slot, (&id, list)) in cells.iter().enumerate() {
            let c = grid.coord_of(id);
            prop_assert_eq!(index.cell_rect(slot), &grid.cell_rect(c));
            let want: usize = cells
                .iter()
                .filter(|(&other, _)| grid.coord_of(other).chebyshev(c) <= 2)
                .map(|(_, list)| list.len())
                .sum();
            prop_assert_eq!(index.neighborhood_count(slot), want);
            for (member, &r) in index.member_slots(slot).zip(list) {
                let pos = photos.get(r).pos;
                prop_assert_eq!(index.locate(r, pos), Some((slot, member)));
                prop_assert_eq!(index.point(member), pos);
                let want = members
                    .iter()
                    .filter(|&&id| photos.get(id).pos.dist_sq(pos) <= RHO * RHO)
                    .count();
                prop_assert_eq!(index.count_within(slot, member), want);
            }
        }
        // Strangers are in no cell, wherever they stand.
        for stranger in photos.iter().filter(|p| !members.contains(&p.id)) {
            prop_assert_eq!(index.locate(stranger.id, stranger.pos), None);
        }
    }

    /// The cell-major columns against the photo records they were copied
    /// from: for every member, the block scan of its cell's five coordinate
    /// runs counts what a scan of all of `Rs` counts, Eq. 12's numerator is
    /// the photos of the 5 × 5 cells around it, and the tag masks intersect
    /// like the tag sets. CI runs this under the release profile too: that
    /// is where the scan's blocks vectorise.
    #[test]
    fn column_counts_equal_a_scan_of_rs(
        seed in 1u64..u64::MAX,
        // One photo; a few dozen (four cases in six); more than 4 096.
        size in 0u32..6,
        // Lattice width in eighths of ρ: 1 stacks everything on one point.
        span in 1u32..60,
        // 9 tags, or 90 — more than a mask has bits.
        wide_tags in 0u32..3,
        with_delta in 0u32..2,
    ) {
        const RHO: f64 = 0.5;
        let mut draw = Draw(seed);
        let count = match size {
            0 => 1,
            5 => 4200,
            _ => 2 + (draw.unit() * 70.0) as usize,
        };
        // Positions on a lattice of ρ/8 (exact in binary), so photos
        // coincide, sit on half-open cell edges (every fourth line) and lie
        // exactly ρ apart; one in four is nudged off it by a hair, away from
        // the origin so the edges stay on the lattice — a near-duplicate of
        // its lattice twin, just inside ρ of the photos a lattice ρ further
        // out and just outside ρ of those a lattice ρ further in.
        let place = |draw: &mut Draw| {
            let at = |draw: &mut Draw| f64::from((draw.unit() * f64::from(span)) as u32) * RHO / 8.0;
            let (dx, dy) = match (draw.unit() * 8.0) as u32 {
                0 => (1e-12, 0.0),
                1 => (0.0, 1e-12),
                _ => (0.0, 0.0),
            };
            Point::new(at(draw) + dx, at(draw) + dy)
        };
        let tag_pool = if wide_tags == 0 { 90.0 } else { 9.0 };
        let tags = |draw: &mut Draw| {
            let carried = (draw.unit() * 4.0) as usize;
            KeywordSet::from_ids((0..carried).map(|_| KeywordId((draw.unit() * tag_pool) as u32)))
        };
        let mut photos = PhotoCollection::new();
        for _ in 0..count {
            photos.add(place(&mut draw), tags(&mut draw));
        }
        // Rs: three base photos in four; under a delta, minus the deleted
        // ones (one in five, members and strangers alike), plus half of the
        // added ones (the other half stands for adds beyond ε).
        let mut members: Vec<PhotoId> = photos
            .iter()
            .map(|p| p.id)
            .filter(|_| count == 1 || draw.unit() < 0.75)
            .collect();
        let network = small_network();
        let poi_index = PoiIndex::build(&network, &PoiCollection::new(), 1.0);
        let delta = (with_delta == 1).then(|| {
            let mut ops = Vec::new();
            for p in photos.iter() {
                if draw.unit() < 0.2 {
                    ops.push(DeltaOp::DeletePhoto { id: p.id });
                }
            }
            for _ in 0..1 + count / 10 {
                ops.push(DeltaOp::AddPhoto { pos: place(&mut draw), tags: tags(&mut draw) });
            }
            DeltaIndex::seal(&poi_index, &PoiCollection::new(), &photos, &ops).expect("valid ops")
        });
        let view = match &delta {
            Some(delta) => {
                members.retain(|&id| !delta.photo_deleted(id));
                members.extend(delta.added_photos().iter().map(|p| p.id).filter(|_| draw.unit() < 0.5));
                delta.photo_view(&photos)
            }
            None => (&photos).into(),
        };

        let index = DiversificationIndex::build(view, &members, RHO).expect("indexable");
        let grid = index.grid();
        prop_assert_eq!(index.photos().len(), members.len());
        let distinct_tags = KeywordSet::from_ids(members.iter().flat_map(|&id| view.get(id).tags.iter())).len();
        for slot in 0..index.occupied().len() {
            let c = grid.coord_of(index.occupied()[slot]);
            let near: usize = (0..index.occupied().len())
                .filter(|&other| grid.coord_of(index.occupied()[other]).chebyshev(c) <= 2)
                .map(|other| index.member_slots(other).len())
                .sum();
            prop_assert_eq!(index.neighborhood_count(slot), near);
            let cell = index.cell_at(slot);
            prop_assert_eq!(index.kw_mask(slot).is_some(), distinct_tags <= 64);
            if let Some(mask) = index.kw_mask(slot) {
                prop_assert_eq!(mask.count_ones() as usize, cell.keywords.len());
            }
            for member in index.member_slots(slot) {
                let r = view.get(index.photos()[member]);
                prop_assert_eq!(index.point(member), r.pos);
                prop_assert_eq!(index.locate(r.id, r.pos), Some((slot, member)));
                let within = members
                    .iter()
                    .filter(|&&id| view.get(id).pos.dist_sq(r.pos) <= RHO * RHO)
                    .count();
                prop_assert_eq!(index.count_within(slot, member), within, "member {} of {}", r.id, members.len());
                prop_assert_eq!(index.member_tag_mask(member), index.tag_mask(&r.tags));
                if let (Some(tags), Some(kws)) = (index.member_tag_mask(member), index.kw_mask(slot)) {
                    prop_assert_eq!(tags.count_ones() as usize, r.tags.len());
                    prop_assert_eq!(tags & kws, tags);
                    // Against the first member's tags: Definition 7's sizes.
                    let first = view.get(members[0]);
                    let shared = index.tag_mask(&first.tags).expect("numbered") & tags;
                    prop_assert_eq!(shared.count_ones() as usize, first.tags.intersection_size(&r.tags));
                }
            }
        }
    }
}

/// Keywords [`assert_same_delta`] compares the global lists of.
const DELTA_KEYWORDS: u32 = 10;

/// Asserts that `chain` and `sealed`, two deltas over a base of `base`
/// (POIs, photos), report the same through every public accessor, floats
/// bit for bit: rows, delete sets, the replacement global list of each of
/// [`DELTA_KEYWORDS`], and each cell's total, added POIs and
/// base-emptiness.
fn assert_same_delta(
    chain: &DeltaIndex,
    sealed: &DeltaIndex,
    index: &PoiIndex,
    base: (usize, usize),
    at: &str,
) {
    let poi_bits = |p: &soi_data::Poi| {
        (
            p.id,
            p.pos.x.to_bits(),
            p.pos.y.to_bits(),
            p.keywords.clone(),
            p.weight.to_bits(),
        )
    };
    let photo_bits =
        |r: &soi_data::Photo| (r.id, r.pos.x.to_bits(), r.pos.y.to_bits(), r.tags.clone());
    assert_eq!(chain.num_ops(), sealed.num_ops(), "{at}");
    let rows = |d: &DeltaIndex| {
        (
            d.added_pois().iter().map(poi_bits).collect::<Vec<_>>(),
            d.added_photos().iter().map(photo_bits).collect::<Vec<_>>(),
            d.num_deleted_pois(),
            d.num_deleted_photos(),
        )
    };
    assert_eq!(rows(chain), rows(sealed), "{at}: rows");
    for id in (0..base.0 + chain.added_pois().len()).map(PoiId::from_index) {
        assert_eq!(
            chain.poi_deleted(id),
            sealed.poi_deleted(id),
            "{at}: POI {id}"
        );
    }
    for id in (0..base.1 + chain.added_photos().len()).map(PhotoId::from_index) {
        assert_eq!(
            chain.photo_deleted(id),
            sealed.photo_deleted(id),
            "{at}: photo {id}"
        );
    }
    let list = |d: &DeltaIndex, k: u32| {
        d.global_postings(KeywordId(k))
            .map(|l| l.iter().map(|&(c, w)| (c, w.to_bits())).collect::<Vec<_>>())
    };
    for k in 0..DELTA_KEYWORDS {
        assert_eq!(list(chain, k), list(sealed, k), "{at}: keyword {k}");
    }
    for c in (0..index.grid().num_cells()).map(CellId::from_index) {
        let cell = |d: &DeltaIndex| {
            (
                d.cell_total_weight(c).map(f64::to_bits),
                d.cell_added_pois(c).to_vec(),
                d.occupies_new_cell(c),
            )
        };
        assert_eq!(cell(chain), cell(sealed), "{at}: {c:?}");
    }
}

proptest! {
    #[test]
    fn a_chain_of_extends_equals_one_seal_of_its_ops(
        seed in 1u64..u64::MAX,
        base_pois in 0usize..40,
    ) {
        const LONE: KeywordId = KeywordId(DELTA_KEYWORDS - 1);
        let mut draw = Draw(seed);
        let network = small_network();
        // Base POIs and photos in the lower-left 5 × 5: the cells above and
        // right of them are empty in the base.
        let mut pois = PoiCollection::new();
        for _ in 0..base_pois {
            let (keywords, weight) = draw.keywords_and_weight();
            pois.add_weighted(Point::new(5.0 * draw.unit(), 5.0 * draw.unit()), keywords, weight);
        }
        let mut photos = PhotoCollection::new();
        for _ in 0..1 + (draw.unit() * 20.0) as usize {
            photos.add(Point::new(5.0 * draw.unit(), 5.0 * draw.unit()), KeywordSet::empty());
        }
        let index = PoiIndex::build(&network, &pois, 1.0);

        // The stream opens by adding a POI that alone carries keyword 9,
        // and a photo, both in a base-empty cell, and closes by deleting
        // them, in another batch: the (9, cell) entry drops. In between,
        // random adds anywhere and deletes of live ids, base or added, half
        // of them of the latest adds.
        let corner = Point::new(7.6, 7.6);
        let lone_poi = PoiId::from_index(pois.len());
        let lone_photo = PhotoId::from_index(photos.len());
        let mut ops = vec![
            DeltaOp::AddPoi {
                pos: corner,
                keywords: KeywordSet::from_ids([LONE, KeywordId(0)]),
                weight: 0.75,
            },
            DeltaOp::AddPhoto { pos: corner, tags: KeywordSet::empty() },
        ];
        let (mut num_pois, mut num_photos) = (pois.len() + 1, photos.len() + 1);
        let mut live_pois: Vec<PoiId> = (0..pois.len()).map(PoiId::from_index).collect();
        let mut live_photos: Vec<PhotoId> = (0..photos.len()).map(PhotoId::from_index).collect();
        fn take<T>(live: &mut Vec<T>, draw: &mut Draw) -> T {
            let at = match draw.unit() < 0.5 {
                true => live.len() - 1,
                false => (draw.unit() * live.len() as f64) as usize,
            };
            live.remove(at)
        }
        for _ in 0..(draw.unit() * 40.0) as usize {
            let pos = Point::new(8.0 * draw.unit(), 8.0 * draw.unit());
            match (draw.unit() * 4.0) as u32 {
                0 => {
                    let (keywords, weight) = draw.keywords_and_weight();
                    ops.push(DeltaOp::AddPoi { pos, keywords, weight });
                    live_pois.push(PoiId::from_index(num_pois));
                    num_pois += 1;
                }
                1 => {
                    ops.push(DeltaOp::AddPhoto { pos, tags: KeywordSet::empty() });
                    live_photos.push(PhotoId::from_index(num_photos));
                    num_photos += 1;
                }
                2 if !live_pois.is_empty() => {
                    ops.push(DeltaOp::DeletePoi { id: take(&mut live_pois, &mut draw) });
                }
                _ if !live_photos.is_empty() => {
                    ops.push(DeltaOp::DeletePhoto { id: take(&mut live_photos, &mut draw) });
                }
                _ => {}
            }
        }
        ops.push(DeltaOp::DeletePoi { id: lone_poi });
        ops.push(DeltaOp::DeletePhoto { id: lone_photo });

        // Random batch ends; the first batch never holds the last two ops.
        let mut ends: Vec<usize> = (1..ops.len() - 1).filter(|_| draw.unit() < 0.3).collect();
        if ends.is_empty() {
            ends.push(1 + (draw.unit() * (ops.len() - 2) as f64) as usize);
        }
        ends.push(ops.len());

        let seal = |ops: &[DeltaOp]| {
            DeltaIndex::seal(&index, &pois, &photos, ops).expect("valid ops")
        };
        let base = (pois.len(), photos.len());
        let mut chain: Option<DeltaIndex> = None;
        let mut start = 0;
        for &end in &ends {
            let batch = &ops[start..end];
            let next = match &chain {
                Some(prev) => prev.extend(&index, &pois, &photos, batch).expect("valid batch"),
                None => seal(batch),
            };
            let at = format!("ops {start}..{end} of {}", ops.len());
            assert_same_delta(&next, &seal(&ops[..end]), &index, base, &at);

            // A batch with one bad op — a delete of an id an earlier batch
            // deleted, an id past the epoch's last, an add outside the grid
            // — is refused whole, and the delta it would have extended
            // still equals its own seal (and the next batch extends it).
            let deleted = ops[..end].iter().find(|op| matches!(op, DeltaOp::DeletePoi { .. }));
            let past_last = PhotoId::from_index(photos.len() + next.added_photos().len());
            let out_of_range = DeltaOp::DeletePhoto { id: past_last };
            let outside = DeltaOp::AddPoi {
                pos: Point::new(50.0, 50.0),
                keywords: KeywordSet::empty(),
                weight: 1.0,
            };
            // Valid POI adds ahead of the bad op; they shift no photo id.
            let adds = ops[end..].iter().filter(|op| matches!(op, DeltaOp::AddPoi { .. }));
            for bad in deleted.into_iter().chain([&out_of_range, &outside]) {
                let refused: Vec<DeltaOp> = adds.clone().take(2).chain([bad]).cloned().collect();
                let result = next.extend(&index, &pois, &photos, &refused);
                prop_assert!(result.is_err(), "{at}: {bad:?} accepted");
            }
            assert_same_delta(&next, &seal(&ops[..end]), &index, base, &at);
            chain = Some(next);
            start = end;
        }
    }
}
