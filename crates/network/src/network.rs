//! The immutable road network and its builder.

use crate::model::{Node, Segment, Street};
use soi_common::{NodeId, Result, SegmentId, SoiError, StreetId, ValidationKind};
use soi_geo::{LineSeg, Point, Polyline, Rect};

/// An immutable road network `G = (V, L)` with its street partition `S`.
///
/// Built via [`NetworkBuilder`]; construction validates that every segment
/// belongs to exactly one street and that each street's segments form a
/// connected chain (consecutive segments share a node), per Section 3.1.
#[derive(Debug, Clone)]
pub struct RoadNetwork {
    nodes: Vec<Node>,
    segments: Vec<Segment>,
    streets: Vec<Street>,
}

impl RoadNetwork {
    /// Starts building a network.
    pub fn builder() -> NetworkBuilder {
        NetworkBuilder::default()
    }

    /// All nodes, indexed by [`NodeId`].
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// All segments, indexed by [`SegmentId`].
    pub fn segments(&self) -> &[Segment] {
        &self.segments
    }

    /// All streets, indexed by [`StreetId`].
    pub fn streets(&self) -> &[Street] {
        &self.streets
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of segments.
    pub fn num_segments(&self) -> usize {
        self.segments.len()
    }

    /// Number of streets.
    pub fn num_streets(&self) -> usize {
        self.streets.len()
    }

    /// The node with id `id`.
    #[inline]
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// The segment with id `id`.
    #[inline]
    pub fn segment(&self, id: SegmentId) -> &Segment {
        &self.segments[id.index()]
    }

    /// The street with id `id`.
    #[inline]
    pub fn street(&self, id: StreetId) -> &Street {
        &self.streets[id.index()]
    }

    /// Street length `len(s)`: the sum of its segment lengths.
    pub fn street_len(&self, id: StreetId) -> f64 {
        self.street(id)
            .segments
            .iter()
            .map(|&l| self.segment(l).len())
            .sum()
    }

    /// Minimum distance from `p` to street `s`:
    /// `dist(p, s) = min_{ℓ∈s} dist(p, ℓ)`.
    pub fn dist_point_to_street(&self, p: Point, id: StreetId) -> f64 {
        self.street(id)
            .segments
            .iter()
            .map(|&l| self.segment(l).geom.dist_sq_to_point(p))
            .fold(f64::INFINITY, f64::min)
            .sqrt()
    }

    /// The street's geometry as a polyline (node chain in path order).
    ///
    /// Consecutive segments may be stored in either orientation; the chain is
    /// re-oriented on the fly.
    pub fn street_polyline(&self, id: StreetId) -> Polyline {
        let street = self.street(id);
        let mut pts: Vec<Point> = Vec::with_capacity(street.segments.len() + 1);
        for (i, &sid) in street.segments.iter().enumerate() {
            let seg = self.segment(sid);
            let (a, b) = (self.node(seg.from).pos, self.node(seg.to).pos);
            if i == 0 {
                // Orient the first segment towards the second, if any.
                let flip = street.segments.get(1).is_some_and(|&next| {
                    let n = self.segment(next);
                    seg.from == n.from || seg.from == n.to
                });
                if flip {
                    pts.push(b);
                    pts.push(a);
                } else {
                    pts.push(a);
                    pts.push(b);
                }
            } else {
                let last = pts.last().copied().unwrap_or(a);
                // Append whichever endpoint isn't the current chain end.
                if last == a {
                    pts.push(b);
                } else {
                    pts.push(a);
                }
            }
        }
        Polyline::new(pts)
    }

    /// Minimum bounding rectangle of street `s` (None for empty streets).
    pub fn street_mbr(&self, id: StreetId) -> Option<Rect> {
        let street = self.street(id);
        let mut rect: Option<Rect> = None;
        for &sid in &street.segments {
            let r = self.segment(sid).geom.bounding_rect();
            rect = Some(match rect {
                Some(acc) => acc.union(&r),
                None => r,
            });
        }
        rect
    }

    /// Bounding rectangle of the entire network (None if no nodes).
    pub fn extent(&self) -> Option<Rect> {
        Rect::bounding(self.nodes.iter().map(|n| n.pos))
    }
}

/// Incremental builder for [`RoadNetwork`].
#[derive(Debug, Default)]
pub struct NetworkBuilder {
    nodes: Vec<Node>,
    segments: Vec<Segment>,
    streets: Vec<Street>,
}

impl NetworkBuilder {
    /// Adds a node at `pos` and returns its id.
    pub fn add_node(&mut self, pos: Point) -> NodeId {
        let id = NodeId::from_index(self.nodes.len());
        self.nodes.push(Node { id, pos });
        id
    }

    /// Adds an (initially empty) street and returns its id.
    pub fn add_street(&mut self, name: impl Into<String>) -> StreetId {
        let id = StreetId::from_index(self.streets.len());
        self.streets.push(Street {
            id,
            name: name.into(),
            segments: Vec::new(),
        });
        id
    }

    /// Adds a segment from `from` to `to`, appending it to `street`.
    ///
    /// # Panics
    /// Panics if the node or street ids are out of range.
    pub fn add_segment(&mut self, street: StreetId, from: NodeId, to: NodeId) -> SegmentId {
        let id = SegmentId::from_index(self.segments.len());
        let geom = LineSeg::new(self.nodes[from.index()].pos, self.nodes[to.index()].pos);
        self.segments.push(Segment {
            id,
            street,
            from,
            to,
            geom,
        });
        self.streets[street.index()].segments.push(id);
        id
    }

    /// Convenience: adds a whole street from a point chain, creating nodes
    /// and segments. Returns the street id.
    pub fn add_street_from_points(
        &mut self,
        name: impl Into<String>,
        points: &[Point],
    ) -> StreetId {
        let street = self.add_street(name);
        if points.is_empty() {
            return street;
        }
        let mut prev = self.add_node(points[0]);
        for &p in &points[1..] {
            let next = self.add_node(p);
            self.add_segment(street, prev, next);
            prev = next;
        }
        street
    }

    /// Number of nodes added so far.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Validates and freezes the network.
    ///
    /// Checks performed:
    /// - every street's consecutive segments share a node (connected chain);
    /// - no degenerate segments (zero length);
    /// - all node coordinates are finite.
    pub fn build(self) -> Result<RoadNetwork> {
        for node in &self.nodes {
            if !node.pos.is_finite() {
                return Err(SoiError::validation(
                    ValidationKind::NonFiniteCoordinate,
                    format!("node {} has non-finite coordinates", node.id),
                ));
            }
        }
        for seg in &self.segments {
            if seg.geom.is_degenerate() {
                return Err(SoiError::validation(
                    ValidationKind::ZeroLengthSegment,
                    format!("segment {} is degenerate (zero length)", seg.id),
                ));
            }
        }
        for street in &self.streets {
            for pair in street.segments.windows(2) {
                let a = &self.segments[pair[0].index()];
                let b = &self.segments[pair[1].index()];
                let shares = a.from == b.from || a.from == b.to || a.to == b.from || a.to == b.to;
                if !shares {
                    return Err(SoiError::validation(
                        ValidationKind::DanglingReference,
                        format!(
                            "street {} ({}) is not a connected chain: segments {} and {} share no node",
                            street.id, street.name, a.id, b.id
                        ),
                    ));
                }
            }
        }

        Ok(RoadNetwork {
            nodes: self.nodes,
            segments: self.segments,
            streets: self.streets,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two streets: a horizontal 2-segment street and a vertical 1-segment
    /// street crossing it at (1,0).
    pub(crate) fn cross_network() -> RoadNetwork {
        let mut b = RoadNetwork::builder();
        let n0 = b.add_node(Point::new(0.0, 0.0));
        let n1 = b.add_node(Point::new(1.0, 0.0));
        let n2 = b.add_node(Point::new(2.0, 0.0));
        let n3 = b.add_node(Point::new(1.0, 1.0));
        let main = b.add_street("Main St");
        b.add_segment(main, n0, n1);
        b.add_segment(main, n1, n2);
        let cross = b.add_street("Cross St");
        b.add_segment(cross, n1, n3);
        b.build().unwrap()
    }

    #[test]
    fn builds_and_indexes() {
        let net = cross_network();
        assert_eq!(net.num_nodes(), 4);
        assert_eq!(net.num_segments(), 3);
        assert_eq!(net.num_streets(), 2);
        assert_eq!(net.segment(SegmentId(0)).street, StreetId(0));
        assert_eq!(net.segment(SegmentId(2)).street, StreetId(1));
        assert_eq!(net.street(StreetId(0)).name, "Main St");
        assert_eq!(net.street_len(StreetId(0)), 2.0);
        assert_eq!(net.street_len(StreetId(1)), 1.0);
    }

    #[test]
    fn distance_to_street_is_min_over_segments() {
        let net = cross_network();
        // Point above the middle of Main St: closest via second segment or
        // Cross St.
        assert_eq!(
            net.dist_point_to_street(Point::new(1.5, 0.5), StreetId(0)),
            0.5
        );
        assert_eq!(
            net.dist_point_to_street(Point::new(1.5, 0.5), StreetId(1)),
            0.5
        );
        assert_eq!(
            net.dist_point_to_street(Point::new(0.0, 0.0), StreetId(0)),
            0.0
        );
    }

    #[test]
    fn street_polyline_chains_points() {
        let net = cross_network();
        let poly = net.street_polyline(StreetId(0));
        assert_eq!(poly.points().len(), 3);
        assert_eq!(poly.len(), 2.0);
    }

    #[test]
    fn street_polyline_handles_reversed_first_segment() {
        let mut b = RoadNetwork::builder();
        let n0 = b.add_node(Point::new(1.0, 0.0));
        let n1 = b.add_node(Point::new(0.0, 0.0));
        let n2 = b.add_node(Point::new(2.0, 0.0));
        let s = b.add_street("Twisty");
        // First segment stored n0->n1 but the chain continues from n0.
        b.add_segment(s, n0, n1);
        b.add_segment(s, n0, n2);
        let net = b.build().unwrap();
        let poly = net.street_polyline(s);
        assert_eq!(poly.points().first(), Some(&Point::new(0.0, 0.0)));
        assert_eq!(poly.points().last(), Some(&Point::new(2.0, 0.0)));
        assert_eq!(poly.len(), 2.0);
    }

    #[test]
    fn street_mbr_and_extent() {
        let net = cross_network();
        let mbr = net.street_mbr(StreetId(1)).unwrap();
        assert_eq!(mbr.min, Point::new(1.0, 0.0));
        assert_eq!(mbr.max, Point::new(1.0, 1.0));
        let ext = net.extent().unwrap();
        assert_eq!(ext.min, Point::new(0.0, 0.0));
        assert_eq!(ext.max, Point::new(2.0, 1.0));
    }

    #[test]
    fn add_street_from_points() {
        let mut b = RoadNetwork::builder();
        let s = b.add_street_from_points(
            "Chain",
            &[
                Point::new(0.0, 0.0),
                Point::new(1.0, 0.0),
                Point::new(1.0, 2.0),
            ],
        );
        let net = b.build().unwrap();
        assert_eq!(net.street(s).num_segments(), 2);
        assert_eq!(net.street_len(s), 3.0);
    }

    #[test]
    fn disconnected_street_rejected() {
        let mut b = RoadNetwork::builder();
        let n0 = b.add_node(Point::new(0.0, 0.0));
        let n1 = b.add_node(Point::new(1.0, 0.0));
        let n2 = b.add_node(Point::new(5.0, 5.0));
        let n3 = b.add_node(Point::new(6.0, 5.0));
        let s = b.add_street("Broken");
        b.add_segment(s, n0, n1);
        b.add_segment(s, n2, n3);
        assert!(b.build().is_err());
    }

    #[test]
    fn degenerate_segment_rejected() {
        let mut b = RoadNetwork::builder();
        let n0 = b.add_node(Point::new(0.0, 0.0));
        let s = b.add_street("Dot");
        b.add_segment(s, n0, n0);
        assert!(b.build().is_err());
    }

    #[test]
    fn non_finite_node_rejected() {
        let mut b = RoadNetwork::builder();
        b.add_node(Point::new(f64::NAN, 0.0));
        assert!(b.build().is_err());
    }
}
