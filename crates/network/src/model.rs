//! Road network records.

use soi_common::{NodeId, SegmentId, StreetId};
use soi_geo::{LineSeg, Point, Rect};

/// A road-network vertex: a street intersection or a breakpoint in a street.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Node {
    /// The node's identifier.
    pub(crate) id: NodeId,
    /// The node's coordinates `(x_v, y_v)`.
    pub pos: Point,
}

/// A street segment: a link of the road network between two nodes.
///
/// Segments are the unit of ranking — Definition 2's interest is defined per
/// segment. Every segment belongs to exactly one street.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Segment {
    /// The segment's identifier.
    pub id: SegmentId,
    /// The street this segment belongs to (`ℓ ∈ s`).
    pub street: StreetId,
    /// Start node.
    pub from: NodeId,
    /// End node.
    pub to: NodeId,
    /// Cached geometry (endpoints resolved at build time).
    pub geom: LineSeg,
}

impl Segment {
    /// Segment length `len(ℓ)`: the Euclidean distance between endpoints.
    #[inline]
    pub fn len(&self) -> f64 {
        self.geom.len()
    }
}

/// A street: a named simple path of consecutive segments.
#[derive(Debug, Clone, PartialEq)]
pub struct Street {
    /// The street's identifier.
    pub id: StreetId,
    /// Human-readable name (may be empty for unnamed service roads).
    pub name: String,
    /// The street's segments in path order.
    pub segments: Vec<SegmentId>,
}

impl Street {
    /// Number of segments in the street.
    pub fn num_segments(&self) -> usize {
        self.segments.len()
    }
}

/// A run: consecutive segments of one street, in path order, whose longest
/// is at most [`RUN_LENGTH_RATIO`] times its shortest. The runs partition
/// the segments; Alg. 1 ranks a run by one bound that covers every member,
/// so only the box and the shortest length are kept.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SegmentRun {
    /// The street the members belong to.
    pub street: StreetId,
    /// The members' positions in the street's `segments`, `start..end`.
    pub start: u32,
    /// One past the last member's position.
    pub end: u32,
    /// Union of the members' bounding boxes.
    pub bbox: Rect,
    /// The shortest member's length.
    pub min_len: f64,
}

/// The largest longest-to-shortest length ratio within a [`SegmentRun`].
pub const RUN_LENGTH_RATIO: f64 = 2.0;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn segment_len() {
        let s = Segment {
            id: SegmentId(0),
            street: StreetId(0),
            from: NodeId(0),
            to: NodeId(1),
            geom: LineSeg::new(Point::new(0.0, 0.0), Point::new(3.0, 4.0)),
        };
        assert_eq!(s.len(), 5.0);
    }

    #[test]
    fn street_counts_segments() {
        let st = Street {
            id: StreetId(1),
            name: "Oxford Street".into(),
            segments: vec![SegmentId(0), SegmentId(1)],
        };
        assert_eq!(st.num_segments(), 2);
    }
}
