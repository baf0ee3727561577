//! A hybrid spatio-textual R-tree over POIs ("IR-tree lite").
//!
//! The single-POI retrieval the paper contrasts with (Sec. 2.1: the
//! location-aware top-k text retrieval of Cong et al. \[11\] "integrating the
//! inverted file for text retrieval and the R-tree for spatial proximity
//! querying"). Each R-tree node carries the union of its subtree's
//! keywords, so a top-k query descends only into subtrees that can contain
//! a match.
//!
//! This complements — and contrasts with — the street-level ranking of the
//! paper's main contribution: `top_k_relevant` answers *"which POIs"*,
//! k-SOI answers *"which streets"*.

use soi_common::PoiId;
use soi_data::PoiCollection;
use soi_geo::{Point, Rect};
use soi_rtree::{BoundedItem, RTree, Summary};
use soi_text::KeywordSet;

/// One POI as stored in the tree.
#[derive(Debug, Clone)]
pub struct PoiEntry {
    /// The POI's id.
    pub id: PoiId,
    /// Its location.
    pub pos: Point,
    /// Its keyword set (duplicated from the collection so node summaries
    /// can be built without external lookups).
    pub keywords: KeywordSet,
}

impl BoundedItem for PoiEntry {
    fn rect(&self) -> Rect {
        Rect::new(self.pos, self.pos)
    }
}

/// Node summary: the union of the subtree's keywords.
///
/// The exact union keeps pruning exact; its size grows with the subtree's
/// distinct keywords, which the compact vocabularies here keep small.
#[derive(Debug, Clone, Default)]
pub struct KeywordSummary {
    /// Union of subtree keywords.
    pub keywords: KeywordSet,
}

impl Summary<PoiEntry> for KeywordSummary {
    fn empty() -> Self {
        Self::default()
    }
    fn add_item(&mut self, item: &PoiEntry) {
        self.keywords = self.keywords.union(&item.keywords);
    }
    fn merge(&mut self, other: &Self) {
        self.keywords = self.keywords.union(&other.keywords);
    }
}

/// The hybrid spatio-textual POI tree.
///
/// ```
/// use soi_common::KeywordId;
/// use soi_data::PoiCollection;
/// use soi_geo::Point;
/// use soi_index::IrTree;
/// use soi_text::KeywordSet;
///
/// let mut pois = PoiCollection::new();
/// let cafe = KeywordSet::from_ids([KeywordId(0)]);
/// pois.add(Point::new(0.0, 0.0), cafe.clone());
/// pois.add(Point::new(5.0, 0.0), cafe.clone());
/// pois.add(Point::new(1.0, 0.0), KeywordSet::from_ids([KeywordId(1)]));
///
/// let tree = IrTree::build(&pois);
/// let hits = tree.top_k_relevant(Point::new(0.2, 0.0), &cafe, 1);
/// assert_eq!(hits[0].0.raw(), 0); // the café at the origin, not the non-café nearby
/// ```
#[derive(Debug)]
pub struct IrTree {
    tree: RTree<PoiEntry, KeywordSummary>,
}

impl IrTree {
    /// Builds the tree over all POIs of `pois`.
    pub fn build(pois: &PoiCollection) -> Self {
        Self::build_with_threads(pois, 0)
    }

    /// Builds the tree with an explicit worker-thread count (`0` = resolve
    /// automatically). The STR bulk load's tiling sorts run in parallel but
    /// produce the same tree for every thread count.
    pub fn build_with_threads(pois: &PoiCollection, threads: usize) -> Self {
        let entries: Vec<PoiEntry> = pois
            .iter()
            .map(|p| PoiEntry {
                id: p.id,
                pos: p.pos,
                keywords: p.keywords.clone(),
            })
            .collect();
        Self {
            tree: RTree::bulk_load_with_threads(entries, soi_rtree::DEFAULT_FANOUT, threads),
        }
    }

    /// Number of indexed POIs.
    pub fn len(&self) -> usize {
        self.tree.len()
    }

    /// Returns true if no POIs are indexed.
    pub fn is_empty(&self) -> bool {
        self.tree.is_empty()
    }

    /// The `k` POIs nearest to `q` whose keywords intersect `keywords`,
    /// nearest first, with distances. Subtrees without any query keyword
    /// are pruned via the node summaries.
    pub fn top_k_relevant(&self, q: Point, keywords: &KeywordSet, k: usize) -> Vec<(PoiId, f64)> {
        self.tree
            .nearest_k_pruned(
                q,
                k,
                |_, summary| summary.keywords.intersects(keywords),
                |entry| entry.keywords.intersects(keywords),
            )
            .into_iter()
            .map(|(entry, d)| (entry.id, d))
            .collect()
    }

    /// All POIs within `dist` of `q` matching any of `keywords`, ascending
    /// by id.
    pub fn relevant_within(&self, q: Point, dist: f64, keywords: &KeywordSet) -> Vec<PoiId> {
        let mut out = Vec::new();
        self.tree.search_pruned(
            |rect, summary| {
                rect.mindist_to_point(q) <= dist && summary.keywords.intersects(keywords)
            },
            |entry| {
                if entry.pos.dist(q) <= dist && entry.keywords.intersects(keywords) {
                    out.push(entry.id);
                }
            },
        );
        out.sort_unstable();
        out
    }

    /// The `k` POIs nearest to `q` that contain **every** keyword of
    /// `keywords` (conjunctive semantics), nearest first.
    pub fn top_k_containing_all(
        &self,
        q: Point,
        keywords: &KeywordSet,
        k: usize,
    ) -> Vec<(PoiId, f64)> {
        self.tree
            .nearest_k_pruned(
                q,
                k,
                // A subtree can only contain a conjunctive match if its
                // keyword union covers the whole query.
                |_, summary| summary.keywords.intersection_size(keywords) == keywords.len(),
                |entry| entry.keywords.intersection_size(keywords) == keywords.len(),
            )
            .into_iter()
            .map(|(entry, d)| (entry.id, d))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use soi_common::KeywordId;

    fn kws(ids: &[u32]) -> KeywordSet {
        KeywordSet::from_ids(ids.iter().map(|&i| KeywordId(i)))
    }

    fn sample() -> PoiCollection {
        let mut pois = PoiCollection::new();
        pois.add(Point::new(0.0, 0.0), kws(&[0]));
        pois.add(Point::new(1.0, 0.0), kws(&[1]));
        pois.add(Point::new(2.0, 0.0), kws(&[0, 1]));
        pois.add(Point::new(3.0, 0.0), kws(&[2]));
        pois.add(Point::new(0.0, 5.0), kws(&[0]));
        pois.add(Point::new(9.0, 9.0), kws(&[0, 2]));
        pois
    }

    #[test]
    fn top_k_relevant_orders_by_distance() {
        let tree = IrTree::build(&sample());
        assert_eq!(tree.len(), 6);
        let got = tree.top_k_relevant(Point::new(0.0, 0.0), &kws(&[0]), 3);
        let ids: Vec<u32> = got.iter().map(|&(id, _)| id.raw()).collect();
        // POIs with kw 0 sorted by distance from origin: #0 (0), #2 (2), #4 (5).
        assert_eq!(ids, vec![0, 2, 4]);
        assert_eq!(got[0].1, 0.0);
        assert_eq!(got[1].1, 2.0);
        assert_eq!(got[2].1, 5.0);
    }

    #[test]
    fn disjoint_keywords_return_nothing() {
        let tree = IrTree::build(&sample());
        assert!(tree.top_k_relevant(Point::ORIGIN, &kws(&[9]), 5).is_empty());
        assert!(tree
            .relevant_within(Point::ORIGIN, 100.0, &kws(&[9]))
            .is_empty());
    }

    #[test]
    fn relevant_within_matches_brute_force() {
        let pois = sample();
        let tree = IrTree::build(&pois);
        let q = Point::new(1.0, 1.0);
        for dist in [0.5, 2.0, 10.0] {
            for query in [kws(&[0]), kws(&[1, 2]), kws(&[0, 1, 2])] {
                let got = tree.relevant_within(q, dist, &query);
                let want: Vec<PoiId> = pois
                    .iter()
                    .filter(|p| p.keywords.intersects(&query))
                    .filter(|p| p.pos.dist(q) <= dist)
                    .map(|p| p.id)
                    .collect();
                assert_eq!(got, want, "dist {dist}");
            }
        }
    }

    #[test]
    fn conjunctive_semantics() {
        let tree = IrTree::build(&sample());
        let got = tree.top_k_containing_all(Point::ORIGIN, &kws(&[0, 1]), 5);
        // Only POI #2 has both keywords.
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].0.raw(), 2);

        let got = tree.top_k_containing_all(Point::ORIGIN, &kws(&[0, 2]), 5);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].0.raw(), 5);
    }

    #[test]
    fn empty_collection() {
        let tree = IrTree::build(&PoiCollection::new());
        assert!(tree.is_empty());
        assert!(tree.top_k_relevant(Point::ORIGIN, &kws(&[0]), 3).is_empty());
    }
}
