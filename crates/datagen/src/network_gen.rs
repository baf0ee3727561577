//! Synthetic road-network generation.
//!
//! A jittered block grid of streets, with three realism features matching
//! the segment statistics of the paper's Table 1:
//!
//! - street chains are split into independently named streets of a few
//!   consecutive segments each (real streets rarely span a whole city);
//! - a fraction of segments receive mid-segment *breakpoints*, producing
//!   the sub-metre minimum segment lengths of Table 1;
//! - a handful of long diagonal *avenues* cross the grid without
//!   breakpoints, producing kilometre-scale maximum segment lengths.

use crate::city::CityConfig;
use rand::rngs::StdRng;
use rand::RngExt;
use soi_geo::Point;
use soi_network::RoadNetwork;

/// Street-name fragments for synthetic names.
const NAME_HEADS: &[&str] = &[
    "High", "Station", "Church", "Park", "Market", "Mill", "King", "Queen", "Garden", "Bridge",
    "North", "South", "West", "East", "Old", "New", "Long", "Short", "Green", "River",
];
const NAME_TAILS: &[&str] = &[
    "Street", "Road", "Lane", "Avenue", "Way", "Row", "Walk", "Gate",
];

fn street_name(rng: &mut StdRng, idx: usize) -> String {
    let head = NAME_HEADS[rng.random_range(0..NAME_HEADS.len())];
    let tail = NAME_TAILS[rng.random_range(0..NAME_TAILS.len())];
    format!("{head} {tail} {idx}")
}

/// Splits `points` (a full grid row/column chain) into consecutive runs of
/// 2–8 points and adds each as its own street; a fraction of segments get
/// breakpoints.
fn add_chain(
    b: &mut soi_network::NetworkBuilder,
    rng: &mut StdRng,
    points: &[Point],
    breakpoint_prob: f64,
    street_counter: &mut usize,
) {
    let mut i = 0;
    while i + 1 < points.len() {
        let run_len = rng.random_range(2..=8usize).min(points.len() - i);
        let chain = &points[i..i + run_len];
        // Insert breakpoints: subdivide some segments into 2–3 pieces.
        let mut refined: Vec<Point> = Vec::with_capacity(chain.len() * 2);
        refined.push(chain[0]);
        for w in chain.windows(2) {
            if rng.random_range(0.0..1.0) < breakpoint_prob {
                let pieces = rng.random_range(2..=3usize);
                for p in 1..pieces {
                    // Skewed split positions create very short segments.
                    let t: f64 = if rng.random_range(0..4) == 0 {
                        rng.random_range(0.0005..0.02)
                    } else {
                        p as f64 / pieces as f64 + rng.random_range(-0.1..0.1)
                    };
                    refined.push(w[0].lerp(w[1], t.clamp(0.0005, 0.9995)));
                }
            }
            refined.push(w[1]);
        }
        *street_counter += 1;
        let name = street_name(rng, *street_counter);
        b.add_street_from_points(name, &refined);
        i += run_len - 1;
        // Runs share their boundary point so the grid stays visually
        // contiguous even though streets are separate graph components
        // (duplicated nodes; the k-SOI problem never traverses the graph
        // across streets).
        if run_len == 1 {
            break;
        }
    }
}

/// Generates the road network for `config`.
pub(crate) fn generate_network(rng: &mut StdRng, config: &CityConfig) -> RoadNetwork {
    let mut b = RoadNetwork::builder();
    let bx = config.blocks_x;
    let by = config.blocks_y;
    let s = config.block_size;
    let jitter = s * 0.18;

    // Jittered grid node positions.
    let mut pos = vec![vec![Point::ORIGIN; bx + 1]; by + 1];
    for (r, row) in pos.iter_mut().enumerate() {
        for (c, p) in row.iter_mut().enumerate() {
            *p = Point::new(
                c as f64 * s + rng.random_range(-jitter..jitter),
                r as f64 * s + rng.random_range(-jitter..jitter),
            );
        }
    }

    let mut street_counter = 0usize;
    for row in &pos {
        add_chain(
            &mut b,
            rng,
            row,
            config.breakpoint_prob,
            &mut street_counter,
        );
    }
    for col_idx in 0..=bx {
        let col: Vec<Point> = pos.iter().map(|row| row[col_idx]).collect();
        add_chain(
            &mut b,
            rng,
            &col,
            config.breakpoint_prob,
            &mut street_counter,
        );
    }

    // Long diagonal avenues with no breakpoints: few, long segments.
    let w = bx as f64 * s;
    let h = by as f64 * s;
    for a in 0..config.avenues {
        street_counter += 1;
        let name = format!("Avenue {}", street_counter);
        let t = (a as f64 + 0.5) / config.avenues as f64;
        let (from, to) = if a % 2 == 0 {
            (Point::new(0.0, h * t), Point::new(w, h * (1.0 - t)))
        } else {
            (Point::new(w * t, 0.0), Point::new(w * (1.0 - t), h))
        };
        // 2–4 long segments per avenue.
        let pieces = rng.random_range(2..=4usize);
        let pts: Vec<Point> = (0..=pieces)
            .map(|i| from.lerp(to, i as f64 / pieces as f64))
            .collect();
        b.add_street_from_points(name, &pts);
    }

    b.build().expect("generated network is valid")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::city::CityConfig;
    use rand::SeedableRng;
    use soi_network::NetworkStats;

    fn small_config() -> CityConfig {
        CityConfig {
            name: "test".into(),
            seed: 7,
            blocks_x: 12,
            blocks_y: 10,
            block_size: 0.00125,
            breakpoint_prob: 0.2,
            avenues: 3,
            n_pois: 0,
            n_photos: 0,
        }
    }

    #[test]
    fn network_is_deterministic() {
        let cfg = small_config();
        let a = generate_network(&mut StdRng::seed_from_u64(cfg.seed), &cfg);
        let b = generate_network(&mut StdRng::seed_from_u64(cfg.seed), &cfg);
        assert_eq!(a.num_segments(), b.num_segments());
        assert_eq!(a.num_streets(), b.num_streets());
        for (x, y) in a.nodes().iter().zip(b.nodes()) {
            assert_eq!(x.pos, y.pos);
        }
    }

    #[test]
    fn segment_count_scales_with_grid() {
        let cfg = small_config();
        let net = generate_network(&mut StdRng::seed_from_u64(1), &cfg);
        let expected_base = 2 * cfg.blocks_x * cfg.blocks_y; // rough
        assert!(net.num_segments() >= expected_base);
        assert!(net.num_segments() < expected_base * 4);
    }

    #[test]
    fn length_distribution_has_short_and_long_tail() {
        let cfg = small_config();
        let net = generate_network(&mut StdRng::seed_from_u64(2), &cfg);
        let stats = NetworkStats::of(&net);
        // Breakpoints create segments much shorter than a block.
        assert!(stats.min_segment_len < cfg.block_size * 0.1);
        // Avenues create segments much longer than a block.
        assert!(stats.max_segment_len > cfg.block_size * 2.0);
    }

    #[test]
    fn streets_have_bounded_runs() {
        let cfg = small_config();
        let net = generate_network(&mut StdRng::seed_from_u64(3), &cfg);
        for street in net.streets() {
            assert!(street.num_segments() >= 1);
            // Runs of <=8 points, subdivided up to 3x.
            assert!(street.num_segments() <= 7 * 3 + 2, "{}", street.name);
        }
    }
}
