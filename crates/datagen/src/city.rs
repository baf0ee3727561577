//! City configurations, presets, and the top-level generator.

use crate::network_gen::generate_network;
use crate::photo_gen::generate_photos;
use crate::poi_gen::generate_pois;
use rand::rngs::StdRng;
use rand::SeedableRng;
use soi_common::StreetId;
use soi_data::Dataset;
use soi_text::Vocabulary;

/// Parameters of a synthetic city.
#[derive(Debug, Clone)]
pub struct CityConfig {
    /// Dataset name.
    pub name: String,
    /// Master seed; the entire dataset is a deterministic function of it.
    pub seed: u64,
    /// Grid blocks along x.
    pub(crate) blocks_x: usize,
    /// Grid blocks along y.
    pub(crate) blocks_y: usize,
    /// Block side length in coordinate units (degrees; the paper's ε of
    /// 0.0005° ≈ 55 m corresponds to ~0.4 blocks at the default 0.00125°).
    pub(crate) block_size: f64,
    /// Probability that a grid segment is subdivided by breakpoints.
    pub(crate) breakpoint_prob: f64,
    /// Number of long diagonal avenues.
    pub(crate) avenues: usize,
    /// Total POIs to generate.
    pub n_pois: usize,
    /// Total photos to generate.
    pub n_photos: usize,
}

/// Ground truth recorded by the generator: the planted destination streets
/// per category (used as the authoritative lists of the Table 2 study).
#[derive(Debug, Clone, Default)]
pub struct GroundTruth {
    /// `(category name, planted street ids)` pairs.
    pub destinations: Vec<(String, Vec<StreetId>)>,
}

impl GroundTruth {
    /// The planted streets for a category (empty if none).
    pub fn for_category(&self, name: &str) -> &[StreetId] {
        self.destinations
            .iter()
            .find(|(c, _)| c == name)
            .map(|(_, v)| v.as_slice())
            .unwrap_or(&[])
    }
}

/// Generates a complete dataset plus its ground truth from a config.
pub fn generate(config: &CityConfig) -> (Dataset, GroundTruth) {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let network = generate_network(&mut rng, config);
    let mut vocab = Vocabulary::new();
    let (pois, truth) = generate_pois(&mut rng, config, &network, &mut vocab);
    let photos = generate_photos(&mut rng, config, &network, &mut vocab, &truth);
    (
        Dataset::new(config.name.clone(), network, vocab, pois, photos),
        truth,
    )
}

fn scaled(base_blocks: usize, scale: f64) -> usize {
    ((base_blocks as f64) * scale.sqrt()).round().max(4.0) as usize
}

fn scaled_n(base: usize, scale: f64) -> usize {
    ((base as f64) * scale).round().max(100.0) as usize
}

/// London-like preset (Table 1: 113,885 segments, 2,114,264 POIs at
/// `scale = 1.0`). `scale` shrinks both area and entity counts.
pub fn london(scale: f64) -> CityConfig {
    CityConfig {
        name: "london".into(),
        seed: 0x10_0d_01,
        blocks_x: scaled(225, scale),
        blocks_y: scaled(225, scale),
        block_size: 0.00125,
        breakpoint_prob: 0.12,
        avenues: 8,
        n_pois: scaled_n(2_114_264, scale),
        n_photos: scaled_n(500_000, scale),
    }
}

/// Berlin-like preset (Table 1: 47,755 segments, 797,244 POIs at scale 1).
pub fn berlin(scale: f64) -> CityConfig {
    CityConfig {
        name: "berlin".into(),
        seed: 0xbe_71_10,
        blocks_x: scaled(146, scale),
        blocks_y: scaled(146, scale),
        block_size: 0.00125,
        breakpoint_prob: 0.12,
        avenues: 6,
        n_pois: scaled_n(797_244, scale),
        n_photos: scaled_n(160_000, scale),
    }
}

/// Vienna-like preset (Table 1: 22,211 segments, 408,712 POIs at scale 1).
pub fn vienna(scale: f64) -> CityConfig {
    CityConfig {
        name: "vienna".into(),
        seed: 0x71_e2_2a,
        blocks_x: scaled(100, scale),
        blocks_y: scaled(100, scale),
        block_size: 0.00125,
        breakpoint_prob: 0.12,
        avenues: 4,
        n_pois: scaled_n(408_712, scale),
        n_photos: scaled_n(100_000, scale),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let cfg = vienna(0.01);
        let (a, truth_a) = generate(&cfg);
        let (b, truth_b) = generate(&cfg);
        assert_eq!(a.network.num_segments(), b.network.num_segments());
        assert_eq!(a.pois.len(), b.pois.len());
        assert_eq!(a.photos.len(), b.photos.len());
        assert_eq!(a.vocab.len(), b.vocab.len());
        assert_eq!(truth_a.destinations.len(), truth_b.destinations.len());
        for (pa, pb) in a.pois.iter().zip(b.pois.iter()) {
            assert_eq!(pa.pos, pb.pos);
            assert_eq!(pa.keywords, pb.keywords);
        }
    }

    #[test]
    fn presets_scale_entity_counts() {
        let small = london(0.01);
        let big = london(0.04);
        assert!(big.n_pois > small.n_pois * 3);
        assert!(big.blocks_x > small.blocks_x);
        assert_eq!(small.name, "london");
    }

    #[test]
    fn generated_city_has_expected_shape() {
        let cfg = berlin(0.01);
        let (data, truth) = generate(&cfg);
        assert_eq!(data.name, "berlin");
        assert!(data.network.num_segments() > 100);
        assert_eq!(data.pois.len(), cfg.n_pois);
        assert_eq!(data.photos.len(), cfg.n_photos);
        // Shop destinations planted.
        assert_eq!(truth.for_category("shop").len(), 5);
        assert!(truth.for_category("nonexistent").is_empty());
        // Query keywords resolvable.
        for kw in ["shop", "food", "religion", "education", "services"] {
            assert!(data.vocab.lookup(kw).is_some(), "missing keyword {kw}");
        }
    }

    #[test]
    fn ground_truth_streets_are_distinct_and_valid() {
        let cfg = vienna(0.02);
        let (data, truth) = generate(&cfg);
        let mut all: Vec<StreetId> = truth
            .destinations
            .iter()
            .flat_map(|(_, v)| v.iter().copied())
            .collect();
        let n = all.len();
        all.sort();
        all.dedup();
        assert_eq!(all.len(), n, "destination streets reused across categories");
        for id in all {
            assert!(id.index() < data.network.num_streets());
        }
    }
}
