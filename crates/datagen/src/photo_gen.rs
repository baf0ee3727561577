//! Synthetic photo generation.
//!
//! Reproduces the photo pathologies the paper's Figure 3 exercises:
//!
//! - **Landmark bursts** ("HMV effect"): dense clusters of near-duplicate
//!   photos at one spot with nearly identical tags — these dominate a
//!   purely spatial-relevance selection (Fig. 3a);
//! - **Event bursts** ("demonstration effect"): many photos along one
//!   street sharing a high-frequency event tag — these dominate a purely
//!   textual-relevance selection (Fig. 3b);
//! - **Tourist photos** along popular streets with mixed tags;
//! - **Background noise** everywhere.

use crate::city::{CityConfig, GroundTruth};
use crate::poi_gen::{point_near_segment, SegmentSampler};
use crate::vocab::{EVENT_TAGS, LANDMARK_TAGS, TOURIST_TAGS};
use rand::rngs::StdRng;
use rand::RngExt;
use soi_common::{KeywordId, StreetId};
use soi_data::PhotoCollection;
use soi_geo::Point;
use soi_network::RoadNetwork;
use soi_text::{KeywordSet, Vocabulary};

/// Generates the photo collection.
pub(crate) fn generate_photos(
    rng: &mut StdRng,
    config: &CityConfig,
    network: &RoadNetwork,
    vocab: &mut Vocabulary,
    truth: &GroundTruth,
) -> PhotoCollection {
    let mut photos = PhotoCollection::new();
    let n = config.n_photos;
    if n == 0 {
        return photos;
    }

    let tourist_ids: Vec<KeywordId> = TOURIST_TAGS.iter().map(|t| vocab.intern(t)).collect();
    let landmark_ids: Vec<KeywordId> = LANDMARK_TAGS.iter().map(|t| vocab.intern(t)).collect();
    let event_ids: Vec<KeywordId> = EVENT_TAGS.iter().map(|t| vocab.intern(t)).collect();

    // All destination streets (with their category keyword).
    let destinations: Vec<(StreetId, KeywordId)> = truth
        .destinations
        .iter()
        .flat_map(|(cat, streets)| {
            let kw = vocab.intern(cat);
            streets.iter().map(move |&s| (s, kw))
        })
        .collect();
    let dest_samplers: Vec<SegmentSampler> = destinations
        .iter()
        .map(|&(s, _)| SegmentSampler::of_street(network, s))
        .collect();
    let background_sampler = SegmentSampler::popularity_weighted(rng, network);
    let extent = network.extent();
    let near = (config.block_size * 0.32).max(1e-9);

    let n_tourist = if destinations.is_empty() {
        0
    } else {
        n * 35 / 100
    };
    let n_landmark = if destinations.is_empty() {
        0
    } else {
        n * 20 / 100
    };
    let n_event = if destinations.is_empty() {
        0
    } else {
        n * 10 / 100
    };

    // --- Tourist photos along destination streets.
    for i in 0..n_tourist {
        let d = i % destinations.len();
        let Some(seg) = dest_samplers[d].sample(rng) else {
            continue;
        };
        let pos = point_near_segment(rng, network, seg, near);
        let mut tags = vec![
            destinations[d].1,
            tourist_ids[rng.random_range(0..tourist_ids.len())],
        ];
        if rng.random_range(0..2) == 0 {
            tags.push(tourist_ids[rng.random_range(0..tourist_ids.len())]);
        }
        photos.add(pos, KeywordSet::from_ids(tags));
    }

    // --- Landmark bursts: few spots, many near-duplicates each.
    if n_landmark > 0 {
        let n_spots = (n_landmark / 60).clamp(1, 50);
        let per_spot = n_landmark / n_spots;
        for spot in 0..n_spots {
            let d = spot % destinations.len();
            let Some(seg) = dest_samplers[d].sample(rng) else {
                continue;
            };
            let center = point_near_segment(rng, network, seg, near * 0.5);
            let spot_tag = vocab.intern(&format!("landmark{spot}"));
            // The burst's shared tag set.
            let shared: Vec<KeywordId> = vec![
                spot_tag,
                landmark_ids[rng.random_range(0..landmark_ids.len())],
                landmark_ids[rng.random_range(0..landmark_ids.len())],
                destinations[d].1,
            ];
            for _ in 0..per_spot {
                let jitter = config.block_size * 0.02;
                let pos = Point::new(
                    center.x + rng.random_range(-jitter..jitter),
                    center.y + rng.random_range(-jitter..jitter),
                );
                photos.add(pos, KeywordSet::from_ids(shared.iter().copied()));
            }
        }
    }

    // --- Event bursts: photos spread along one street, one loud tag.
    if n_event > 0 {
        let n_events = (n_event / 150).clamp(1, EVENT_TAGS.len());
        let per_event = n_event / n_events;
        for e in 0..n_events {
            let d = (e * 3 + 1) % destinations.len();
            let event_tag = event_ids[e % event_ids.len()];
            for _ in 0..per_event {
                let Some(seg) = dest_samplers[d].sample(rng) else {
                    continue;
                };
                let pos = point_near_segment(rng, network, seg, near);
                let mut tags = vec![event_tag, destinations[d].1];
                if rng.random_range(0..2) == 0 {
                    tags.push(tourist_ids[rng.random_range(0..tourist_ids.len())]);
                }
                photos.add(pos, KeywordSet::from_ids(tags));
            }
        }
    }

    // --- Background noise fills the remainder.
    while photos.len() < n {
        let pos = if rng.random_range(0..3) == 0 {
            match extent {
                Some(ext) => Point::new(
                    rng.random_range(ext.min.x..ext.max.x),
                    rng.random_range(ext.min.y..ext.max.y),
                ),
                None => Point::ORIGIN,
            }
        } else {
            match background_sampler.sample(rng) {
                Some(seg) => point_near_segment(rng, network, seg, config.block_size * 0.8),
                None => Point::ORIGIN,
            }
        };
        let n_tags = rng.random_range(0..4usize);
        let tags = KeywordSet::from_ids(
            (0..n_tags).map(|_| tourist_ids[rng.random_range(0..tourist_ids.len())]),
        );
        photos.add(pos, tags);
    }

    photos
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::city::vienna;
    use crate::network_gen::generate_network;
    use crate::poi_gen::generate_pois;
    use rand::SeedableRng;

    fn setup() -> (CityConfig, RoadNetwork, Vocabulary, GroundTruth) {
        let mut cfg = vienna(0.01);
        cfg.n_pois = 2_000;
        cfg.n_photos = 3_000;
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let net = generate_network(&mut rng, &cfg);
        let mut vocab = Vocabulary::new();
        let (_, truth) = generate_pois(&mut rng, &cfg, &net, &mut vocab);
        (cfg, net, vocab, truth)
    }

    #[test]
    fn photo_count_exact() {
        let (cfg, net, mut vocab, truth) = setup();
        let mut rng = StdRng::seed_from_u64(99);
        let photos = generate_photos(&mut rng, &cfg, &net, &mut vocab, &truth);
        assert_eq!(photos.len(), cfg.n_photos);
    }

    #[test]
    fn destination_streets_attract_photos() {
        let (cfg, net, mut vocab, truth) = setup();
        let mut rng = StdRng::seed_from_u64(99);
        let photos = generate_photos(&mut rng, &cfg, &net, &mut vocab, &truth);
        let planted = truth.for_category("shop")[0];
        let eps = 0.0005;
        let near = photos
            .iter()
            .filter(|p| net.dist_point_to_street(p.pos, planted) <= eps)
            .count();
        // A planted street should have a substantial photo set Rs.
        assert!(near > 30, "only {near} photos near planted street");
    }

    #[test]
    fn landmark_bursts_are_near_duplicates() {
        let (cfg, net, mut vocab, truth) = setup();
        let mut rng = StdRng::seed_from_u64(99);
        let photos = generate_photos(&mut rng, &cfg, &net, &mut vocab, &truth);
        let lm = vocab.lookup("landmark0").expect("burst tag interned");
        let burst: Vec<_> = photos.iter().filter(|p| p.tags.contains(lm)).collect();
        assert!(burst.len() >= 10, "burst too small: {}", burst.len());
        // All burst photos share identical tag sets and sit within a tiny
        // radius.
        let first = &burst[0];
        for p in &burst {
            assert_eq!(p.tags, first.tags);
            assert!(p.pos.dist(first.pos) < cfg.block_size * 0.2);
        }
    }

    #[test]
    fn event_burst_shares_tag_across_street() {
        let (cfg, net, mut vocab, truth) = setup();
        let mut rng = StdRng::seed_from_u64(99);
        let photos = generate_photos(&mut rng, &cfg, &net, &mut vocab, &truth);
        let tag = vocab.lookup(EVENT_TAGS[0]).unwrap();
        let burst: Vec<_> = photos.iter().filter(|p| p.tags.contains(tag)).collect();
        assert!(burst.len() >= 20);
        // Spread out (unlike a landmark burst).
        let spread = burst
            .iter()
            .map(|p| p.pos.dist(burst[0].pos))
            .fold(0.0f64, f64::max);
        assert!(spread > cfg.block_size, "event burst not spread: {spread}");
    }

    #[test]
    fn zero_photos_config() {
        let (mut cfg, net, mut vocab, truth) = setup();
        cfg.n_photos = 0;
        let mut rng = StdRng::seed_from_u64(99);
        let photos = generate_photos(&mut rng, &cfg, &net, &mut vocab, &truth);
        assert!(photos.is_empty());
    }
}
