//! Property-based tests for the road-network model and its IO.

use proptest::prelude::*;
use soi_geo::Point;
use soi_network::{NetworkStats, RoadNetwork};

/// Random multi-street networks from point chains (filtering consecutive
/// duplicates so no degenerate segment is produced).
fn street_chains() -> impl Strategy<Value = Vec<Vec<Point>>> {
    proptest::collection::vec(
        proptest::collection::vec((-10.0f64..10.0, -10.0f64..10.0), 2..8).prop_map(|pts| {
            let mut out: Vec<Point> = Vec::new();
            for (x, y) in pts {
                let p = Point::new(x, y);
                if out.last() != Some(&p) {
                    out.push(p);
                }
            }
            out
        }),
        1..8,
    )
    .prop_filter("every chain needs at least one segment", |chains| {
        chains.iter().all(|c| c.len() >= 2)
    })
}

fn build(chains: &[Vec<Point>]) -> RoadNetwork {
    let mut b = RoadNetwork::builder();
    for (i, chain) in chains.iter().enumerate() {
        b.add_street_from_points(format!("street {i}"), chain);
    }
    b.build().expect("chains are valid")
}

proptest! {
    #[test]
    fn io_roundtrip_preserves_network(chains in street_chains()) {
        let net = build(&chains);
        let mut buf = Vec::new();
        soi_network::io::write_network(&net, &mut buf).unwrap();
        let read = soi_network::io::read_network(buf.as_slice()).unwrap();

        prop_assert_eq!(read.num_nodes(), net.num_nodes());
        prop_assert_eq!(read.num_segments(), net.num_segments());
        prop_assert_eq!(read.num_streets(), net.num_streets());
        for (a, b) in net.segments().iter().zip(read.segments()) {
            prop_assert_eq!(a.street, b.street);
            prop_assert_eq!(a.geom, b.geom);
        }
        for (a, b) in net.streets().iter().zip(read.streets()) {
            prop_assert_eq!(&a.name, &b.name);
            prop_assert_eq!(&a.segments, &b.segments);
        }
    }

    #[test]
    fn street_polyline_length_equals_street_len(chains in street_chains()) {
        let net = build(&chains);
        for street in net.streets() {
            let poly = net.street_polyline(street.id);
            prop_assert!(
                (poly.len() - net.street_len(street.id)).abs() < 1e-9,
                "street {}: polyline {} vs street_len {}",
                street.id,
                poly.len(),
                net.street_len(street.id)
            );
            prop_assert_eq!(poly.points().len(), street.num_segments() + 1);
        }
    }

    #[test]
    fn stats_are_consistent(chains in street_chains()) {
        let net = build(&chains);
        let stats = NetworkStats::of(&net);
        prop_assert_eq!(stats.num_segments, net.num_segments());
        prop_assert!(stats.min_segment_len <= stats.max_segment_len);
        prop_assert!(stats.min_segment_len <= stats.mean_segment_len + 1e-12);
        prop_assert!(stats.mean_segment_len <= stats.max_segment_len + 1e-12);
        let manual_total: f64 = net.segments().iter().map(|s| s.len()).sum();
        prop_assert!((stats.total_len - manual_total).abs() < 1e-9);
    }

    #[test]
    fn street_mbr_contains_all_segment_endpoints(chains in street_chains()) {
        let net = build(&chains);
        for street in net.streets() {
            let mbr = net.street_mbr(street.id).expect("non-empty street");
            for &sid in &street.segments {
                let g = net.segment(sid).geom;
                prop_assert!(mbr.contains(g.a));
                prop_assert!(mbr.contains(g.b));
            }
        }
    }

    #[test]
    fn dist_point_to_street_is_min_over_segments(
        chains in street_chains(),
        px in -12.0f64..12.0,
        py in -12.0f64..12.0,
    ) {
        let net = build(&chains);
        let p = Point::new(px, py);
        for street in net.streets() {
            let expected = street
                .segments
                .iter()
                .map(|&s| net.segment(s).geom.dist_to_point(p))
                .fold(f64::INFINITY, f64::min);
            prop_assert!((net.dist_point_to_street(p, street.id) - expected).abs() < 1e-9);
        }
    }
}
