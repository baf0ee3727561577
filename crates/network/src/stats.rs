//! Road-network statistics (the paper's Table 1 columns).

use crate::network::RoadNetwork;

/// Summary statistics of a road network.
///
/// Matches Table 1 of the paper (number of segments, min/max segment
/// length, plus the surrounding context columns).
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkStats {
    /// Number of nodes.
    pub(crate) num_nodes: usize,
    /// Number of segments ("Num of segm." in Table 1).
    pub num_segments: usize,
    /// Number of streets.
    pub(crate) num_streets: usize,
    /// Minimum segment length ("Min segm. length").
    pub min_segment_len: f64,
    /// Maximum segment length ("Max segm. length").
    pub max_segment_len: f64,
    /// Mean segment length.
    pub mean_segment_len: f64,
    /// Total network length (sum of all segment lengths).
    pub total_len: f64,
    /// Mean number of segments per street.
    pub(crate) mean_segments_per_street: f64,
}

impl NetworkStats {
    /// Computes statistics for `network`.
    ///
    /// For an empty network, lengths are reported as 0.
    pub fn of(network: &RoadNetwork) -> Self {
        let mut min_len = f64::INFINITY;
        let mut max_len: f64 = 0.0;
        let mut total = 0.0;
        for seg in network.segments() {
            let l = seg.len();
            min_len = min_len.min(l);
            max_len = max_len.max(l);
            total += l;
        }
        let num_segments = network.num_segments();
        if num_segments == 0 {
            min_len = 0.0;
        }
        let num_streets = network.num_streets();
        Self {
            num_nodes: network.num_nodes(),
            num_segments,
            num_streets,
            min_segment_len: min_len,
            max_segment_len: max_len,
            mean_segment_len: if num_segments == 0 {
                0.0
            } else {
                total / num_segments as f64
            },
            total_len: total,
            mean_segments_per_street: if num_streets == 0 {
                0.0
            } else {
                num_segments as f64 / num_streets as f64
            },
        }
    }
}

impl std::fmt::Display for NetworkStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "nodes:    {}", self.num_nodes)?;
        writeln!(f, "segments: {}", self.num_segments)?;
        writeln!(f, "streets:  {}", self.num_streets)?;
        writeln!(
            f,
            "segment length: min {:.6}, max {:.6}, mean {:.6}",
            self.min_segment_len, self.max_segment_len, self.mean_segment_len
        )?;
        write!(f, "total length: {:.6}", self.total_len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use soi_geo::Point;

    #[test]
    fn stats_of_simple_network() {
        let mut b = RoadNetwork::builder();
        let s = b.add_street_from_points(
            "s",
            &[
                Point::new(0.0, 0.0),
                Point::new(3.0, 4.0),
                Point::new(3.0, 5.0),
            ],
        );
        let _ = s;
        let net = b.build().unwrap();
        let st = NetworkStats::of(&net);
        assert_eq!(st.num_segments, 2);
        assert_eq!(st.num_streets, 1);
        assert_eq!(st.min_segment_len, 1.0);
        assert_eq!(st.max_segment_len, 5.0);
        assert_eq!(st.mean_segment_len, 3.0);
        assert_eq!(st.total_len, 6.0);
        assert_eq!(st.mean_segments_per_street, 2.0);
    }

    #[test]
    fn stats_of_empty_network() {
        let net = RoadNetwork::builder().build().unwrap();
        let st = NetworkStats::of(&net);
        assert_eq!(st.num_segments, 0);
        assert_eq!(st.min_segment_len, 0.0);
        assert_eq!(st.max_segment_len, 0.0);
        assert_eq!(st.mean_segment_len, 0.0);
        assert_eq!(st.mean_segments_per_street, 0.0);
    }

    #[test]
    fn display_renders() {
        let net = RoadNetwork::builder().build().unwrap();
        let text = NetworkStats::of(&net).to_string();
        assert!(text.contains("segments: 0"));
    }
}
