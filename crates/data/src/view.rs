//! Read-only views over a base collection plus a slice of delta-added rows.
//!
//! Live ingestion keeps the base collections immutable and accumulates
//! pending inserts in a sealed delta. Queries read through these views: ids
//! below the base length resolve into the base collection, ids at or above
//! it resolve into the delta's `added` slice (whose rows carry contiguous
//! ids continuing the base numbering). A plain `&Collection` converts into
//! a view with an empty delta, so every pre-ingestion call site keeps
//! compiling unchanged.

use crate::photo::{Photo, PhotoCollection};
use crate::poi::{Poi, PoiCollection};
use soi_common::{PhotoId, PoiId};

/// A base [`PoiCollection`] extended by delta-added POIs.
#[derive(Debug, Clone, Copy)]
pub struct PoiView<'a> {
    base: &'a PoiCollection,
    added: &'a [Poi],
}

impl<'a> PoiView<'a> {
    /// A view of `base` extended by `added`.
    ///
    /// `added[i].id` must equal `base.len() + i`; a debug assertion checks
    /// the boundary row so a mis-stitched view fails fast in tests.
    pub fn new(base: &'a PoiCollection, added: &'a [Poi]) -> Self {
        debug_assert!(added.first().is_none_or(|p| p.id.index() == base.len()));
        Self { base, added }
    }

    /// The POI with id `id` (base or delta-added).
    #[inline]
    pub fn get(&self, id: PoiId) -> &'a Poi {
        let idx = id.index();
        if idx < self.base.len() {
            self.base.get(id)
        } else {
            &self.added[idx - self.base.len()]
        }
    }

    /// Total number of POIs visible through the view.
    pub fn len(&self) -> usize {
        self.base.len() + self.added.len()
    }

    /// Returns true if neither base nor delta holds any POI.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterates base rows then delta-added rows, ascending by id.
    pub fn iter(&self) -> impl Iterator<Item = &'a Poi> + use<'a> {
        self.base.iter().chain(self.added.iter())
    }
}

impl<'a> From<&'a PoiCollection> for PoiView<'a> {
    fn from(base: &'a PoiCollection) -> Self {
        Self { base, added: &[] }
    }
}

/// A base [`PhotoCollection`] extended by delta-added photos.
#[derive(Debug, Clone, Copy)]
pub struct PhotoView<'a> {
    base: &'a PhotoCollection,
    added: &'a [Photo],
}

impl<'a> PhotoView<'a> {
    /// A view of `base` extended by `added` (see [`PoiView::new`]).
    pub fn new(base: &'a PhotoCollection, added: &'a [Photo]) -> Self {
        debug_assert!(added.first().is_none_or(|p| p.id.index() == base.len()));
        Self { base, added }
    }

    /// The photo with id `id` (base or delta-added).
    #[inline]
    pub fn get(&self, id: PhotoId) -> &'a Photo {
        let idx = id.index();
        if idx < self.base.len() {
            self.base.get(id)
        } else {
            &self.added[idx - self.base.len()]
        }
    }

    /// Total number of photos visible through the view.
    pub fn len(&self) -> usize {
        self.base.len() + self.added.len()
    }

    /// Returns true if neither base nor delta holds any photo.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterates base rows then delta-added rows, ascending by id.
    pub fn iter(&self) -> impl Iterator<Item = &'a Photo> + use<'a> {
        self.base.iter().chain(self.added.iter())
    }
}

impl<'a> From<&'a PhotoCollection> for PhotoView<'a> {
    fn from(base: &'a PhotoCollection) -> Self {
        Self { base, added: &[] }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use soi_geo::Point;
    use soi_text::KeywordSet;

    #[test]
    fn poi_view_dispatches_on_id() {
        let mut base = PoiCollection::new();
        base.add(Point::new(0.0, 0.0), KeywordSet::empty());
        let added = vec![Poi {
            id: PoiId::from_index(1),
            pos: Point::new(5.0, 5.0),
            keywords: KeywordSet::empty(),
            weight: 2.0,
        }];
        let view = PoiView::new(&base, &added);
        assert_eq!(view.len(), 2);
        assert_eq!(view.get(PoiId::from_index(0)).pos, Point::new(0.0, 0.0));
        assert_eq!(view.get(PoiId::from_index(1)).weight, 2.0);
        assert_eq!(view.iter().count(), 2);
    }

    #[test]
    fn photo_view_from_base_is_identity() {
        let mut base = PhotoCollection::new();
        let id = base.add(Point::new(1.0, 2.0), KeywordSet::empty());
        let view = PhotoView::from(&base);
        assert_eq!(view.len(), 1);
        assert_eq!(view.get(id).pos, Point::new(1.0, 2.0));
    }
}
