//! Synthetic POI generation with planted destination streets.

use crate::city::{CityConfig, GroundTruth};
use crate::vocab::CATEGORIES;
use rand::rngs::StdRng;
use rand::RngExt;
use soi_common::{SegmentId, StreetId};
use soi_data::PoiCollection;
use soi_geo::Point;
use soi_network::RoadNetwork;
use soi_text::{KeywordSet, Vocabulary};

/// Samples segments with probability proportional to their length.
pub(crate) struct SegmentSampler {
    cumulative: Vec<f64>,
    ids: Vec<SegmentId>,
}

impl SegmentSampler {
    pub(crate) fn over_segments(network: &RoadNetwork, ids: Vec<SegmentId>) -> Self {
        let weights: Vec<f64> = ids.iter().map(|&id| network.segment(id).len()).collect();
        Self::over_weighted(ids, &weights)
    }

    pub(crate) fn over_weighted(ids: Vec<SegmentId>, weights: &[f64]) -> Self {
        debug_assert_eq!(ids.len(), weights.len());
        let mut cumulative = Vec::with_capacity(ids.len());
        let mut acc = 0.0;
        for &w in weights {
            acc += w.max(0.0);
            cumulative.push(acc);
        }
        Self { cumulative, ids }
    }

    /// Restricts a popularity-weighted sampler to a random `affinity`
    /// fraction of streets (deterministic given the rng state): categories
    /// like "religion" occur on few streets, "misc" everywhere.
    pub(crate) fn restricted_to_affinity(
        rng: &mut StdRng,
        network: &RoadNetwork,
        base: &SegmentSampler,
        affinity: f64,
    ) -> Self {
        if affinity >= 1.0 {
            return Self {
                cumulative: base.cumulative.clone(),
                ids: base.ids.clone(),
            };
        }
        let include: Vec<bool> = (0..network.num_streets())
            .map(|_| rng.random_range(0.0..1.0) < affinity)
            .collect();
        // Recover per-segment weights from the base cumulative sums and
        // zero out segments of excluded streets.
        let mut weights = Vec::with_capacity(base.ids.len());
        let mut prev = 0.0;
        for (i, &id) in base.ids.iter().enumerate() {
            let w = base.cumulative[i] - prev;
            prev = base.cumulative[i];
            let street = network.segment(id).street.index();
            weights.push(if include[street] { w } else { 0.0 });
        }
        Self::over_weighted(base.ids.clone(), &weights)
    }

    /// A sampler over all segments, weighted by segment length × street
    /// popularity. Popularity follows a Zipf-like law over a seeded random
    /// permutation of streets, attenuated by distance from the city centre —
    /// reproducing the heavy skew of real urban POI densities (a few busy
    /// high streets, a long quiet tail).
    pub(crate) fn popularity_weighted(rng: &mut StdRng, network: &RoadNetwork) -> Self {
        let n_streets = network.num_streets();
        let mut rank: Vec<usize> = (0..n_streets).collect();
        // Fisher-Yates with the seeded rng.
        for i in (1..n_streets).rev() {
            let j = rng.random_range(0..=i);
            rank.swap(i, j);
        }
        let center = network
            .extent()
            .map(|e| e.center())
            .unwrap_or(soi_geo::Point::ORIGIN);
        let radius = network
            .extent()
            .map(|e| e.diagonal() / 2.0)
            .unwrap_or(1.0)
            .max(1e-12);
        let street_weight: Vec<f64> = (0..n_streets)
            .map(|i| {
                let zipf = 1.0 / (rank[i] as f64 + 1.0).powf(0.8);
                let mid = network
                    .street_mbr(soi_common::StreetId::from_index(i))
                    .map(|m| m.center())
                    .unwrap_or(center);
                let d = mid.dist(center) / radius;
                zipf * (-1.5 * d * d).exp()
            })
            .collect();
        let ids: Vec<SegmentId> = network.segments().iter().map(|s| s.id).collect();
        let weights: Vec<f64> = network
            .segments()
            .iter()
            .map(|s| s.len() * street_weight[s.street.index()])
            .collect();
        Self::over_weighted(ids, &weights)
    }

    pub(crate) fn of_street(network: &RoadNetwork, street: StreetId) -> Self {
        Self::over_segments(network, network.street(street).segments.clone())
    }

    /// Draws a segment id (None if the sampler is empty or degenerate).
    pub(crate) fn sample(&self, rng: &mut StdRng) -> Option<SegmentId> {
        let total = *self.cumulative.last()?;
        if total <= 0.0 {
            return None;
        }
        let x = rng.random_range(0.0..total);
        let idx = self.cumulative.partition_point(|&c| c < x);
        Some(self.ids[idx.min(self.ids.len() - 1)])
    }
}

/// A random point at distance ≤ `max_offset` from a random (length-weighted)
/// position on the sampled segment.
pub(crate) fn point_near_segment(
    rng: &mut StdRng,
    network: &RoadNetwork,
    seg: SegmentId,
    max_offset: f64,
) -> Point {
    let geom = network.segment(seg).geom;
    let on = geom.a.lerp(geom.b, rng.random_range(0.0..1.0));
    let angle = rng.random_range(0.0..std::f64::consts::TAU);
    let dist = rng.random_range(0.0..max_offset);
    Point::new(on.x + dist * angle.cos(), on.y + dist * angle.sin())
}

/// Picks `count` distinct destination streets, preferring substantial ones
/// (several segments, decent total length), excluding `taken`.
fn pick_destination_streets(
    rng: &mut StdRng,
    network: &RoadNetwork,
    count: usize,
    taken: &mut Vec<StreetId>,
) -> Vec<StreetId> {
    let mut candidates: Vec<StreetId> = network
        .streets()
        .iter()
        .filter(|s| s.num_segments() >= 3 && !taken.contains(&s.id))
        .map(|s| s.id)
        .collect();
    let mut picked = Vec::with_capacity(count);
    for _ in 0..count {
        if candidates.is_empty() {
            break;
        }
        let idx = rng.random_range(0..candidates.len());
        let street = candidates.swap_remove(idx);
        picked.push(street);
        taken.push(street);
    }
    picked
}

/// Generates the POI set and the destination-street ground truth.
pub(crate) fn generate_pois(
    rng: &mut StdRng,
    config: &CityConfig,
    network: &RoadNetwork,
    vocab: &mut Vocabulary,
) -> (PoiCollection, GroundTruth) {
    let mut pois = PoiCollection::new();
    let mut truth = GroundTruth::default();
    let background_sampler = SegmentSampler::popularity_weighted(rng, network);
    let extent = network.extent();
    // Offsets chosen so destination POIs sit well within the paper's
    // ε = 0.0005° of their street, background POIs mostly don't.
    let dest_offset = (config.block_size * 0.32).max(1e-9);
    let bg_offset = (config.block_size * 0.8).max(1e-9);

    let mut taken: Vec<StreetId> = Vec::new();

    for (cat_idx, cat) in CATEGORIES.iter().enumerate() {
        let cat_kw = vocab.intern(cat.name);
        let sub_kws: Vec<_> = cat.sub_keywords.iter().map(|s| vocab.intern(s)).collect();
        // The last (misc) category absorbs rounding so counts are exact.
        let n_cat = if cat_idx + 1 == CATEGORIES.len() {
            config.n_pois.saturating_sub(pois.len())
        } else {
            ((config.n_pois as f64) * cat.share).round() as usize
        };

        let category_sampler = SegmentSampler::restricted_to_affinity(
            rng,
            network,
            &background_sampler,
            cat.street_affinity,
        );
        let dest_streets =
            pick_destination_streets(rng, network, cat.destination_streets, &mut taken);
        if !dest_streets.is_empty() {
            truth
                .destinations
                .push((cat.name.to_string(), dest_streets.clone()));
        }
        let n_dest = if dest_streets.is_empty() {
            0
        } else {
            ((n_cat as f64) * cat.destination_share).round() as usize
        };
        let samplers: Vec<SegmentSampler> = dest_streets
            .iter()
            .map(|&s| SegmentSampler::of_street(network, s))
            .collect();

        for i in 0..n_cat {
            let pos = if i < n_dest && !samplers.is_empty() {
                // Round-robin across the category's destination streets.
                let sampler = &samplers[i % samplers.len()];
                match sampler.sample(rng) {
                    Some(seg) => point_near_segment(rng, network, seg, dest_offset),
                    None => continue,
                }
            } else if rng.random_range(0..5) == 0 {
                // Fully uniform background.
                match extent {
                    Some(e) => Point::new(
                        rng.random_range(e.min.x..e.max.x),
                        rng.random_range(e.min.y..e.max.y),
                    ),
                    None => Point::ORIGIN,
                }
            } else {
                // Street-adjacent background, restricted to the streets
                // this category has affinity with.
                match category_sampler
                    .sample(rng)
                    .or_else(|| background_sampler.sample(rng))
                {
                    Some(seg) => point_near_segment(rng, network, seg, bg_offset),
                    None => Point::ORIGIN,
                }
            };

            let mut kws = vec![cat_kw, sub_kws[rng.random_range(0..sub_kws.len())]];
            if rng.random_range(0..10) < 3 {
                kws.push(sub_kws[rng.random_range(0..sub_kws.len())]);
            }
            // ~2% flagship POIs carry importance weights (the remark after
            // Definition 1: ratings/check-ins as weights), exercising the
            // weighted-mass path at dataset scale.
            if rng.random_range(0..50) == 0 {
                pois.add_weighted(pos, KeywordSet::from_ids(kws), rng.random_range(2.0..6.0));
            } else {
                pois.add(pos, KeywordSet::from_ids(kws));
            }
        }
    }

    debug_assert_eq!(pois.len(), config.n_pois);
    (pois, truth)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::city::vienna;
    use crate::network_gen::generate_network;
    use rand::SeedableRng;

    fn setup() -> (CityConfig, RoadNetwork) {
        let mut cfg = vienna(0.01);
        cfg.n_pois = 5_000;
        let net = generate_network(&mut StdRng::seed_from_u64(cfg.seed), &cfg);
        (cfg, net)
    }

    #[test]
    fn category_shares_roughly_hold() {
        let (cfg, net) = setup();
        let mut rng = StdRng::seed_from_u64(9);
        let mut vocab = Vocabulary::new();
        let (pois, _) = generate_pois(&mut rng, &cfg, &net, &mut vocab);
        assert!(pois.len() >= cfg.n_pois);

        for (name, share) in [("religion", 0.005), ("shop", 0.060), ("food", 0.038)] {
            let kw = vocab.lookup(name).unwrap();
            let q = KeywordSet::from_ids([kw]);
            let got = pois.count_relevant(&q) as f64 / pois.len() as f64;
            assert!(
                (got - share).abs() < share * 0.5 + 0.002,
                "{name}: got share {got}, want ~{share}"
            );
        }
    }

    #[test]
    fn destination_streets_attract_density() {
        let (cfg, net) = setup();
        let mut rng = StdRng::seed_from_u64(9);
        let mut vocab = Vocabulary::new();
        let (pois, truth) = generate_pois(&mut rng, &cfg, &net, &mut vocab);
        let shop = vocab.lookup("shop").unwrap();
        let q = KeywordSet::from_ids([shop]);
        let eps = 0.0005;

        // Density of shop POIs near a planted street must dwarf the density
        // near an arbitrary street.
        let planted = truth.for_category("shop")[0];
        let near_planted = pois
            .iter()
            .filter(|p| p.keywords.intersects(&q))
            .filter(|p| net.dist_point_to_street(p.pos, planted) <= eps)
            .count() as f64
            / net.street_len(planted);

        let mut background_total = 0.0;
        let mut background_len = 0.0;
        for street in net.streets().iter().take(40) {
            if truth.for_category("shop").contains(&street.id) {
                continue;
            }
            background_total += pois
                .iter()
                .filter(|p| p.keywords.intersects(&q))
                .filter(|p| net.dist_point_to_street(p.pos, street.id) <= eps)
                .count() as f64;
            background_len += net.street_len(street.id);
        }
        let background = background_total / background_len.max(1e-12);
        assert!(
            near_planted > background * 2.0,
            "planted density {near_planted} vs background {background}"
        );
    }

    #[test]
    fn sampler_respects_lengths() {
        let (_, net) = setup();
        let ids = net.segments().iter().map(|s| s.id).collect();
        let sampler = SegmentSampler::over_segments(&net, ids);
        let mut rng = StdRng::seed_from_u64(3);
        // Just exercise: samples are valid ids.
        for _ in 0..100 {
            let seg = sampler.sample(&mut rng).unwrap();
            assert!(seg.index() < net.num_segments());
        }
    }

    #[test]
    fn points_near_segment_are_near() {
        let (_, net) = setup();
        let mut rng = StdRng::seed_from_u64(4);
        let seg = net.segments()[0].id;
        for _ in 0..50 {
            let p = point_near_segment(&mut rng, &net, seg, 0.001);
            assert!(net.segment(seg).geom.dist_to_point(p) <= 0.001 + 1e-12);
        }
    }
}
