//! The combined dataset container.

use crate::photo::PhotoCollection;
use crate::poi::PoiCollection;
use soi_geo::Rect;
use soi_network::RoadNetwork;
use soi_text::{KeywordSet, Vocabulary};

/// A complete evaluation dataset: road network + POIs + photos + vocabulary.
///
/// Mirrors the paper's per-city datasets (Table 1): road network from
/// OpenStreetMap, POIs from DBpedia/OSM/Wikimapia/Foursquare, photos from
/// Flickr/Panoramio. All keyword ids in the POIs and photos refer to the
/// shared [`Vocabulary`].
#[derive(Debug, Clone)]
pub struct Dataset {
    /// Dataset name (e.g. "london").
    pub name: String,
    /// The road network.
    pub network: RoadNetwork,
    /// The shared keyword vocabulary.
    pub vocab: Vocabulary,
    /// The POI set `P`.
    pub pois: PoiCollection,
    /// The photo set `R`.
    pub photos: PhotoCollection,
}

impl Dataset {
    /// Creates a dataset from its parts.
    pub fn new(
        name: impl Into<String>,
        network: RoadNetwork,
        vocab: Vocabulary,
        pois: PoiCollection,
        photos: PhotoCollection,
    ) -> Self {
        Self {
            name: name.into(),
            network,
            vocab,
            pois,
            photos,
        }
    }

    /// Bounding rectangle of everything in the dataset (network, POIs,
    /// photos). `None` only if the dataset is completely empty.
    pub fn extent(&self) -> Option<Rect> {
        let mut rect: Option<Rect> = None;
        let mut merge = |r: Option<Rect>| {
            if let Some(r) = r {
                rect = Some(match rect {
                    Some(acc) => acc.union(&r),
                    None => r,
                });
            }
        };
        merge(self.network.extent());
        merge(self.pois.extent());
        merge(self.photos.extent());
        rect
    }

    /// Resolves query words to a [`KeywordSet`] against the vocabulary.
    ///
    /// Words that never occur in the dataset are dropped (they cannot match
    /// any POI or photo).
    pub fn query_keywords(&self, words: &[&str]) -> KeywordSet {
        KeywordSet::from_ids(words.iter().filter_map(|w| self.vocab.lookup(w)))
    }

    /// Resolves a comma-separated keyword list (`shop, food`) as
    /// [`query_keywords`](Self::query_keywords) does; `None` when the list
    /// names no word (blank items are skipped).
    pub fn parse_keyword_list(&self, raw: &str) -> Option<KeywordSet> {
        let words: Vec<&str> = raw
            .split(',')
            .map(str::trim)
            .filter(|w| !w.is_empty())
            .collect();
        (!words.is_empty()).then(|| self.query_keywords(&words))
    }

    /// Looks up a street id by exact name (first match).
    pub fn street_by_name(&self, name: &str) -> Option<soi_common::StreetId> {
        self.network
            .streets()
            .iter()
            .find(|s| s.name == name)
            .map(|s| s.id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use soi_geo::Point;

    fn tiny() -> Dataset {
        let mut b = RoadNetwork::builder();
        b.add_street_from_points("Alpha Road", &[Point::new(0.0, 0.0), Point::new(1.0, 0.0)]);
        let network = b.build().unwrap();
        let mut vocab = Vocabulary::new();
        let shop = vocab.intern("shop");
        let mut pois = PoiCollection::new();
        pois.add(Point::new(0.5, 0.2), KeywordSet::from_ids([shop]));
        let mut photos = PhotoCollection::new();
        photos.add(Point::new(5.0, 5.0), KeywordSet::from_ids([shop]));
        Dataset::new("tiny", network, vocab, pois, photos)
    }

    #[test]
    fn extent_unions_all_sources() {
        let d = tiny();
        let e = d.extent().unwrap();
        assert_eq!(e.min, Point::new(0.0, 0.0));
        // Photo at (5,5) extends the extent beyond the network.
        assert_eq!(e.max, Point::new(5.0, 5.0));
    }

    #[test]
    fn query_keywords_drops_unknown_words() {
        let d = tiny();
        let q = d.query_keywords(&["shop", "unknown"]);
        assert_eq!(q.len(), 1);
        assert!(d.query_keywords(&["nothing"]).is_empty());
    }

    #[test]
    fn street_by_name() {
        let d = tiny();
        assert!(d.street_by_name("Alpha Road").is_some());
        assert!(d.street_by_name("Beta Road").is_none());
    }
}
