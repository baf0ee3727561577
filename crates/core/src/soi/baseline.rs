//! The BL baseline and an index-free brute-force reference.
//!
//! The paper's baseline "uses only the spatial grid index to efficiently
//! compute the interest of every segment, and then determines the k-SOIs"
//! (Sec. 5.2.1). [`run_baseline`] is that algorithm; it is exact by
//! construction and therefore also serves as the correctness oracle for
//! [`run_soi`](crate::soi::run_soi). [`brute_force`] additionally bypasses
//! the grid (O(#POIs · #segments)), validating the index layer itself on
//! small inputs.

use crate::soi::interest::{segment_interest, StreetAggregate};
use crate::soi::query::{SoiOutcome, SoiQuery, StreetResult};
use crate::soi::stats::{phases, QueryStats};
use soi_common::{top_k_by_score, FxHashMap, ScoredItem, SegmentId, StreetId};
use soi_data::PoiView;
use soi_index::IndexView;
use soi_network::{RoadNetwork, Segment};

/// Evaluates a k-SOI query by scanning every segment through the grid.
///
/// `aggregate` is the street-level aggregation, the paper's Definition 3
/// ([`StreetAggregate::Max`]). Streets with zero interest are
/// omitted from the result, mirroring [`run_soi`](crate::soi::run_soi).
pub fn run_baseline<'a>(
    network: &RoadNetwork,
    pois: impl Into<PoiView<'a>>,
    index: impl Into<IndexView<'a>>,
    query: &SoiQuery,
    aggregate: StreetAggregate,
) -> SoiOutcome {
    let pois: PoiView<'a> = pois.into();
    let index: IndexView<'a> = index.into();
    let mut stats = QueryStats::default();
    stats.timer.enter(phases::SCAN);
    // Per street: collected segment interests plus the best segment.
    let mut per_street: FxHashMap<StreetId, Vec<f64>> = FxHashMap::default();
    let mut best_seg: FxHashMap<StreetId, (f64, SegmentId, f64)> = FxHashMap::default();

    for seg in network.segments() {
        let mass = index.segment_mass_lazy(pois, network, seg.id, &query.keywords, query.eps);
        stats.segments_popped += 1;
        let int = segment_interest(mass, seg.len(), query.eps);
        per_street.entry(seg.street).or_default().push(int);
        let entry = best_seg.entry(seg.street).or_insert((0.0, seg.id, 0.0));
        if int > entry.0 || (int == entry.0 && seg.id < entry.1) {
            *entry = (int, seg.id, mass);
        }
    }

    let ranked = top_k_by_score(
        per_street.iter().filter_map(|(&st, segs)| {
            let score = aggregate.aggregate(segs);
            (score > 0.0).then(|| ScoredItem::new(st, score))
        }),
        query.k,
    );
    let results = ranked
        .into_iter()
        .map(|item| {
            let (_, seg, mass) = best_seg[&item.id];
            StreetResult {
                street: item.id,
                interest: item.score.get(),
                best_segment: seg,
                best_segment_mass: mass,
            }
        })
        .collect();

    stats.timer.stop();
    SoiOutcome {
        results,
        stats,
        partial: false,
    }
}

/// Every segment of `network` with its mass under `query`, computed without
/// the index: the weights of the POIs matching the query within `ε` of it,
/// summed in POI id order. The loop both index-free oracles share.
fn index_free_masses<'n>(
    network: &'n RoadNetwork,
    pois: PoiView<'_>,
    query: &SoiQuery,
) -> impl Iterator<Item = (&'n Segment, f64)> {
    let eps_sq = query.eps * query.eps;
    let relevant: Vec<(soi_geo::Point, f64)> = pois
        .iter()
        .filter(|p| p.keywords.intersects(&query.keywords))
        .map(|p| (p.pos, p.weight))
        .collect();
    network.segments().iter().map(move |seg| {
        let mass: f64 = relevant
            .iter()
            .filter(|(pos, _)| seg.geom.dist_sq_to_point(*pos) <= eps_sq)
            .map(|&(_, w)| w)
            .sum();
        (seg, mass)
    })
}

/// Index-free exact street interests (Definition 3, `Max` aggregation) for
/// *every* street, including zero-interest ones. Test oracle.
pub fn exact_street_interests<'a>(
    network: &RoadNetwork,
    pois: impl Into<PoiView<'a>>,
    query: &SoiQuery,
) -> FxHashMap<StreetId, f64> {
    let mut out: FxHashMap<StreetId, f64> = FxHashMap::default();
    for (seg, mass) in index_free_masses(network, pois.into(), query) {
        let int = segment_interest(mass, seg.len(), query.eps);
        let entry = out.entry(seg.street).or_insert(0.0);
        if int > *entry {
            *entry = int;
        }
    }
    for street in network.streets() {
        out.entry(street.id).or_insert(0.0);
    }
    out
}

/// Index-free exact evaluation: every (POI, segment) pair is tested.
///
/// Only intended for tests and tiny datasets.
pub fn brute_force<'a>(
    network: &RoadNetwork,
    pois: impl Into<PoiView<'a>>,
    query: &SoiQuery,
) -> SoiOutcome {
    let mut stats = QueryStats::default();
    stats.timer.enter(phases::SCAN);
    let mut best: FxHashMap<StreetId, (f64, SegmentId, f64)> = FxHashMap::default();
    for (seg, mass) in index_free_masses(network, pois.into(), query) {
        let int = segment_interest(mass, seg.len(), query.eps);
        let entry = best.entry(seg.street).or_insert((0.0, seg.id, 0.0));
        if int > entry.0 || (int == entry.0 && seg.id < entry.1) {
            *entry = (int, seg.id, mass);
        }
    }

    let ranked = top_k_by_score(
        best.iter()
            .filter(|(_, &(int, _, _))| int > 0.0)
            .map(|(&st, &(int, _, _))| ScoredItem::new(st, int)),
        query.k,
    );
    let results = ranked
        .into_iter()
        .map(|item| {
            let (int, seg, mass) = best[&item.id];
            StreetResult {
                street: item.id,
                interest: int,
                best_segment: seg,
                best_segment_mass: mass,
            }
        })
        .collect();

    stats.timer.stop();
    SoiOutcome {
        results,
        stats,
        partial: false,
    }
}
