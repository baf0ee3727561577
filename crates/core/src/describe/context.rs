//! Per-street description context.
//!
//! Bundles everything the measures of Section 4.1.2 need about one street:
//! its photo set `Rs`, its keyword frequency vector `Φs`, the normaliser
//! `maxD(s)` (diagonal of the ε-buffered street MBR, Definition 5), the
//! neighbourhood radius ρ, the per-street diversification grid index, and
//! what no request changes: each member's Def. 4 / Def. 6 relevance and
//! each cell's Eq. 11–14 relevance bounds before the request's `w`.

use crate::describe::{bounds, measures};
use soi_common::{PhotoId, PoiId, Result, SoiError, StreetId};
use soi_data::{Dataset, PhotoCollection, PhotoView, PoiCollection};
use soi_geo::Point;
use soi_index::{DeltaIndex, DeltaOp, DiversificationIndex, PhotoGrid};
use soi_network::RoadNetwork;
use soi_text::FreqVector;
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

/// Where the street keyword frequency vector `Φs` is derived from.
///
/// The paper notes "there are many ways to derive the keyword frequency
/// vector of a street; for example … from the keywords of its neighboring
/// POIs and/or photos" (Sec. 4.1.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PhiSource {
    /// Tag frequencies of the street's photos `Rs` (default).
    #[default]
    Photos,
    /// Keyword frequencies of POIs within ε of the street.
    Pois,
    /// Sum of both.
    PhotosAndPois,
}

impl PhiSource {
    /// Name used in error messages.
    pub(crate) fn name(self) -> &'static str {
        match self {
            PhiSource::Photos => "photos",
            PhiSource::Pois => "pois",
            PhiSource::PhotosAndPois => "photos+pois",
        }
    }
}

/// The description context of one street.
///
/// It depends on nothing but the street and the builder's inputs, so a
/// server keeps one per street for a whole epoch ([`StreetContexts`]):
/// it holds its columns and no build scratch.
///
/// Beside the index's columns it holds two of its own, 16 B per member and
/// 32 B per cell, filled by the build and read by every request: what of
/// Alg. 2's relevance depends on the street alone, which a request meets
/// only in the blend `w·s + (1−w)·t`.
#[derive(Debug)]
pub struct StreetContext {
    /// The street being described.
    pub(crate) street: StreetId,
    /// `Rs`: photos within ε of the street, ascending by id.
    pub members: Vec<PhotoId>,
    /// The street keyword frequency vector `Φs`.
    pub(crate) phi: FreqVector,
    /// `maxD(s)`: the diagonal of the street MBR expanded by ε.
    pub(crate) max_d: f64,
    /// The per-street grid index (cell side ρ/2, for the neighbourhood
    /// radius ρ of Definition 4).
    pub index: DiversificationIndex,
    /// Per member slot of `index`: its photo's Def. 4 spatial and Def. 6
    /// textual relevance.
    pub(crate) member_rel: Vec<(f64, f64)>,
    /// Per cell slot of `index`: the bounds `(sl, su)` of Eqs. 11–12 and
    /// `(tl, tu)` of Eqs. 13–14 on its photos' spatial and textual
    /// relevance.
    pub(crate) cell_rel: Vec<[f64; 4]>,
}

impl StreetContext {
    /// The context of `street` over its photos `members` (ascending ids of
    /// `photos`): the index over them, then the relevance columns over the
    /// index.
    fn assemble(
        street: StreetId,
        members: Vec<PhotoId>,
        phi: FreqVector,
        max_d: f64,
        rho: f64,
        photos: PhotoView<'_>,
    ) -> Result<Self> {
        let index = DiversificationIndex::build(photos, &members, rho)?;
        let mut ctx = Self {
            street,
            members,
            phi,
            max_d,
            index,
            member_rel: Vec::new(),
            cell_rel: Vec::new(),
        };
        ctx.member_rel = measures::member_relevance(&ctx, photos);
        ctx.cell_rel = bounds::cell_relevance_bounds(&ctx);
        Ok(ctx)
    }

    /// Heap bytes the context holds: `Rs`, `Φs`, the index's columns and
    /// the relevance columns.
    #[cfg(test)]
    pub(crate) fn heap_bytes(&self) -> usize {
        self.members.capacity() * std::mem::size_of::<PhotoId>()
            + self.phi.heap_bytes()
            + self.index.heap_bytes()
            + self.member_rel.capacity() * std::mem::size_of::<(f64, f64)>()
            + self.cell_rel.capacity() * std::mem::size_of::<[f64; 4]>()
    }
}

/// Inputs shared across street-context constructions.
#[derive(Clone, Copy)]
pub struct ContextBuilder<'a> {
    /// The road network.
    pub network: &'a RoadNetwork,
    /// All photos of the dataset.
    pub photos: &'a PhotoCollection,
    /// The dataset-wide photo grid (for extracting `Rs`).
    pub photo_grid: &'a PhotoGrid,
    /// POIs, if `Φs` should draw on them.
    pub pois: Option<&'a PoiCollection>,
    /// Distance threshold ε (photo-to-street association).
    pub eps: f64,
    /// Neighbourhood radius ρ (spatial relevance).
    pub rho: f64,
    /// Source of `Φs`.
    pub phi_source: PhiSource,
}

impl<'a> ContextBuilder<'a> {
    /// The builder over a whole dataset: its network, photos and POIs, the
    /// photo grid built over it, and `Φs` drawn from the photos.
    pub fn for_dataset(
        dataset: &'a Dataset,
        photo_grid: &'a PhotoGrid,
        eps: f64,
        rho: f64,
    ) -> Self {
        Self {
            network: &dataset.network,
            photos: &dataset.photos,
            photo_grid,
            pois: Some(&dataset.pois),
            eps,
            rho,
            phi_source: PhiSource::Photos,
        }
    }

    /// Builds the description context for `street`.
    ///
    /// # Errors
    /// Rejects a street id outside the network, non-positive or non-finite
    /// `eps`/`rho`, a `rho` so small against the extent of the street's
    /// photos that the grid of ρ/2 cells over them cannot be numbered, and a
    /// `phi_source` that requires POIs when none were provided.
    pub fn build(&self, street: StreetId) -> Result<StreetContext> {
        self.build_with_delta(street, None)
    }

    /// The photos a context built with `delta` overlaid refers to.
    pub fn photo_view(&self, delta: Option<&'a DeltaIndex>) -> PhotoView<'a> {
        match delta {
            Some(d) => d.photo_view(self.photos),
            None => self.photos.into(),
        }
    }

    /// [`build`](Self::build) with a sealed ingestion delta overlaid
    /// (deleted photos leave `Rs`, added photos within ε join it, and `Φs`
    /// draws on the merged POI/photo populations).
    ///
    /// With `delta = None` this is exactly [`build`](Self::build). The
    /// merged iteration order (base survivors ascending, then adds
    /// ascending) matches a build over the folded collections, so `Φs`,
    /// `maxD(s)` and every per-photo measure are bit-identical to the
    /// post-compaction context (photo *ids* differ: the fold reassigns
    /// dense ids, while the live view keeps epoch ids).
    ///
    /// # Errors
    /// Same conditions as [`build`](Self::build).
    pub fn build_with_delta(
        &self,
        street: StreetId,
        delta: Option<&DeltaIndex>,
    ) -> Result<StreetContext> {
        if street.index() >= self.network.num_streets() {
            return Err(SoiError::not_found(format!(
                "street {street} (network has {} streets)",
                self.network.num_streets()
            )));
        }
        if !(self.eps > 0.0 && self.eps.is_finite()) {
            return Err(SoiError::invalid(format!(
                "eps must be positive and finite, got {}",
                self.eps
            )));
        }
        if !(self.rho > 0.0 && self.rho.is_finite()) {
            return Err(SoiError::invalid(format!(
                "rho must be positive and finite, got {}",
                self.rho
            )));
        }
        let photos = self.photo_view(delta);
        // Base members (ascending), minus this epoch's deleted photos, plus
        // its added photos within ε (their ids follow all base ids, so the
        // list stays ascending).
        let mut members =
            self.photo_grid
                .photos_near_street(self.network, self.photos, street, self.eps);
        if let Some(d) = delta {
            if d.num_deleted_photos() > 0 {
                members.retain(|&pid| !d.photo_deleted(pid));
            }
            for photo in d.added_photos() {
                if !d.photo_deleted(photo.id)
                    && self.network.dist_point_to_street(photo.pos, street) <= self.eps
                {
                    members.push(photo.id);
                }
            }
        }
        members.shrink_to_fit();

        let mut phi = FreqVector::new();
        if matches!(
            self.phi_source,
            PhiSource::Photos | PhiSource::PhotosAndPois
        ) {
            for &pid in &members {
                for tag in photos.get(pid).tags.iter() {
                    phi.increment(tag);
                }
            }
        }
        if matches!(self.phi_source, PhiSource::Pois | PhiSource::PhotosAndPois) {
            let Some(pois) = self.pois else {
                return Err(SoiError::invalid(format!(
                    "phi source `{}` requires POIs but none were provided",
                    self.phi_source.name()
                )));
            };
            // Merged order: base survivors ascending, then adds ascending —
            // the same accumulation order a build over the folded
            // collection uses.
            for (i, poi) in pois.iter().enumerate() {
                if delta.is_some_and(|d| d.poi_deleted(PoiId::from_index(i))) {
                    continue;
                }
                if self.network.dist_point_to_street(poi.pos, street) <= self.eps {
                    for k in poi.keywords.iter() {
                        phi.add(k, poi.weight);
                    }
                }
            }
            if let Some(d) = delta {
                for poi in d.added_pois() {
                    if d.poi_deleted(poi.id) {
                        continue;
                    }
                    if self.network.dist_point_to_street(poi.pos, street) <= self.eps {
                        for k in poi.keywords.iter() {
                            phi.add(k, poi.weight);
                        }
                    }
                }
            }
        }

        phi.shrink_to_fit();
        let max_d = self
            .network
            .street_mbr(street)
            .map(|mbr| mbr.expand(self.eps).diagonal())
            .unwrap_or(0.0);
        StreetContext::assemble(street, members, phi, max_d, self.rho, photos)
    }

    /// The positions at which the ops of `batch` can change a context this
    /// builder builds, once `next` (the delta that ends with `batch`) is
    /// overlaid: each photo add at its position and each photo delete at
    /// its photo's, read through `next`; POI ops the same way when `Φs`
    /// draws on POIs. Ops are validated, so every id resolves.
    pub fn batch_points(&self, batch: &[DeltaOp], next: &DeltaIndex) -> Vec<Point> {
        let photos = next.photo_view(self.photos);
        let pois = self
            .pois
            .filter(|_| matches!(self.phi_source, PhiSource::Pois | PhiSource::PhotosAndPois))
            .map(|pois| next.poi_view(pois));
        batch
            .iter()
            .filter_map(|op| match op {
                DeltaOp::AddPhoto { pos, .. } => Some(*pos),
                DeltaOp::DeletePhoto { id } => Some(photos.get(*id).pos),
                DeltaOp::AddPoi { pos, .. } => pois.map(|_| *pos),
                DeltaOp::DeletePoi { id } => pois.map(|pois| pois.get(*id).pos),
            })
            .collect()
    }

    /// Whether an op at one of `points` can change the context of `street`.
    ///
    /// An op changes it only through a photo (or, per `Φs`, a POI) within
    /// ε of the street, and such a point lies inside the street's MBR
    /// expanded by ε. The test takes 2ε: the extra ε covers any rounding of
    /// the distance the build compares, so it may answer yes for a point
    /// that cannot change the context (a needless rebuild), never no for one
    /// that can. A point with a non-finite coordinate, and a street without
    /// segments, always count as reached.
    pub fn reaches(&self, street: StreetId, points: &[Point]) -> bool {
        let Some(mbr) = self.network.street_mbr(street) else {
            return true;
        };
        let reach = mbr.expand(2.0 * self.eps);
        points
            .iter()
            .any(|&p| reach.contains(p) || !(p.x.is_finite() && p.y.is_finite()))
    }
}

/// One epoch's street contexts: a slot per street, empty until the first
/// describe of that street fills it.
///
/// A context is a pure function of the street and the epoch's builder
/// inputs (network, photos, photo grid, POIs, delta, ε, ρ, `Φs` source), so
/// it is built once per epoch and read by every later job. The table
/// belongs to one epoch. The next epoch's table starts with the contexts
/// its epoch cannot have changed ([`carried`](Self::carried)): they are
/// shared, not copied, and each is freed with the last table holding it.
#[derive(Debug)]
pub struct StreetContexts {
    slots: Box<[ContextSlot]>,
}

#[derive(Debug, Default)]
struct ContextSlot {
    context: OnceLock<Arc<StreetContext>>,
    /// Held while the slot is built, so racing jobs build it once. A failed
    /// build leaves the slot empty: errors are not stored.
    building: Mutex<()>,
}

impl StreetContexts {
    /// An empty table for a network of `num_streets` streets.
    pub fn new(num_streets: usize) -> Self {
        Self {
            slots: (0..num_streets).map(|_| ContextSlot::default()).collect(),
        }
    }

    /// The context of `street`, and whether this call built it. The first
    /// call for a street builds it with `builder` and `delta` (inside a
    /// [`DESCRIBE_CONTEXT`](soi_obs::names::spans::DESCRIBE_CONTEXT) span);
    /// a call racing it waits for that build, and every later call reads
    /// the stored context. Every call on one table must pass the same
    /// builder inputs and delta: its epoch's.
    ///
    /// # Errors
    /// A street outside the table, and [`ContextBuilder::build_with_delta`]'s
    /// errors, which are returned to this call and not stored.
    pub fn get_or_build<'t>(
        &'t self,
        builder: &ContextBuilder<'_>,
        street: StreetId,
        delta: Option<&DeltaIndex>,
    ) -> Result<(&'t StreetContext, bool)> {
        let slot = self.slots.get(street.index()).ok_or_else(|| {
            SoiError::not_found(format!(
                "street {street} (network has {} streets)",
                self.slots.len()
            ))
        })?;
        if let Some(ctx) = slot.context.get() {
            return Ok((ctx, false));
        }
        // The lock guards no data (a panicked build left the slot empty),
        // so a poisoned one is as good as a clean one.
        let _building = slot.building.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(ctx) = slot.context.get() {
            return Ok((ctx, false));
        }
        let ctx = {
            let _span = soi_obs::trace::span(soi_obs::names::spans::DESCRIBE_CONTEXT);
            builder.build_with_delta(street, delta)?
        };
        Ok((slot.context.get_or_init(|| Arc::new(ctx)), true))
    }

    /// The next epoch's table: this one's built contexts whose street
    /// `keep` accepts, shared, and every other slot empty. `keep` must
    /// accept only streets whose context the next epoch's builder inputs
    /// would build bit-identically (see [`ContextBuilder::reaches`]).
    pub fn carried(&self, keep: impl Fn(StreetId) -> bool) -> StreetContexts {
        let slots = self
            .slots
            .iter()
            .map(|slot| {
                let next = ContextSlot::default();
                if let Some(ctx) = slot.context.get().filter(|ctx| keep(ctx.street)) {
                    let _ = next.context.set(Arc::clone(ctx));
                }
                next
            })
            .collect();
        StreetContexts { slots }
    }

    /// Heap bytes of the table: its slots and every context it holds
    /// (a context carried across epochs counts in each table holding it).
    #[cfg(test)]
    pub(crate) fn heap_bytes(&self) -> usize {
        let built = self.slots.iter().filter_map(|slot| slot.context.get());
        std::mem::size_of_val(&*self.slots)
            + built
                .map(|ctx| std::mem::size_of::<StreetContext>() + ctx.heap_bytes())
                .sum::<usize>()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::describe::measures::{spatial_rel, textual_rel};
    use soi_common::KeywordId;
    use soi_data::Photo;
    use soi_geo::Point;
    use soi_index::{DeltaOp, PoiIndex};
    use soi_text::KeywordSet;

    fn tags(ids: &[u32]) -> KeywordSet {
        KeywordSet::from_ids(ids.iter().map(|&i| KeywordId(i)))
    }

    fn setup() -> (RoadNetwork, PhotoCollection, PoiCollection) {
        let mut b = RoadNetwork::builder();
        b.add_street_from_points("Main", &[Point::new(0.0, 0.0), Point::new(10.0, 0.0)]);
        let network = b.build().unwrap();
        let mut photos = PhotoCollection::new();
        photos.add(Point::new(1.0, 0.2), tags(&[0, 1]));
        photos.add(Point::new(2.0, -0.3), tags(&[1]));
        photos.add(Point::new(5.0, 8.0), tags(&[2])); // too far
        let mut pois = PoiCollection::new();
        pois.add(Point::new(3.0, 0.1), tags(&[5]));
        pois.add(Point::new(3.0, 7.0), tags(&[6])); // too far
        (network, photos, pois)
    }

    #[test]
    fn members_and_phi_from_photos() {
        let (network, photos, _) = setup();
        let grid = PhotoGrid::build(&network, &photos, 1.0);
        let builder = ContextBuilder {
            network: &network,
            photos: &photos,
            photo_grid: &grid,
            pois: None,
            eps: 0.5,
            rho: 0.2,
            phi_source: PhiSource::Photos,
        };
        let ctx = builder.build(StreetId(0)).unwrap();
        assert_eq!(ctx.members.len(), 2);
        // Tag 1 appears twice, tag 0 once, tag 2 not at all.
        assert_eq!(ctx.phi.weight(KeywordId(1)), 2.0);
        assert_eq!(ctx.phi.weight(KeywordId(0)), 1.0);
        assert_eq!(ctx.phi.weight(KeywordId(2)), 0.0);
        assert_eq!(ctx.phi.l1_norm(), 3.0);
        assert_eq!(ctx.index.num_photos(), 2);
    }

    #[test]
    fn phi_from_pois() {
        let (network, photos, pois) = setup();
        let grid = PhotoGrid::build(&network, &photos, 1.0);
        let builder = ContextBuilder {
            network: &network,
            photos: &photos,
            photo_grid: &grid,
            pois: Some(&pois),
            eps: 0.5,
            rho: 0.2,
            phi_source: PhiSource::Pois,
        };
        let ctx = builder.build(StreetId(0)).unwrap();
        assert_eq!(ctx.phi.weight(KeywordId(5)), 1.0);
        assert_eq!(ctx.phi.weight(KeywordId(6)), 0.0);
        assert_eq!(ctx.phi.weight(KeywordId(1)), 0.0);
    }

    #[test]
    fn phi_from_both_sums() {
        let (network, photos, pois) = setup();
        let grid = PhotoGrid::build(&network, &photos, 1.0);
        let builder = ContextBuilder {
            network: &network,
            photos: &photos,
            photo_grid: &grid,
            pois: Some(&pois),
            eps: 0.5,
            rho: 0.2,
            phi_source: PhiSource::PhotosAndPois,
        };
        let ctx = builder.build(StreetId(0)).unwrap();
        assert_eq!(ctx.phi.weight(KeywordId(1)), 2.0);
        assert_eq!(ctx.phi.weight(KeywordId(5)), 1.0);
    }

    #[test]
    fn max_d_is_buffered_mbr_diagonal() {
        let (network, photos, _) = setup();
        let grid = PhotoGrid::build(&network, &photos, 1.0);
        let builder = ContextBuilder {
            network: &network,
            photos: &photos,
            photo_grid: &grid,
            pois: None,
            eps: 0.5,
            rho: 0.2,
            phi_source: PhiSource::Photos,
        };
        let ctx = builder.build(StreetId(0)).unwrap();
        // MBR is the segment itself (10 x 0), expanded by 0.5 -> 11 x 1.
        let expect = (11.0f64 * 11.0 + 1.0).sqrt();
        assert!((ctx.max_d - expect).abs() < 1e-12);
    }

    #[test]
    fn a_rho_too_small_for_the_street_is_an_error() {
        // The two photos of Rs are 1 × 0.5 apart: at ρ = 1e-8 the grid
        // would be 2e8 × 1e8 cells (it used to panic in `Grid::new`), at
        // ρ = 1e-12 the cell counts used to saturate, wrap to a 1 × 1 grid
        // and index one photo of the two.
        let (network, photos, _) = setup();
        let grid = PhotoGrid::build(&network, &photos, 1.0);
        let builder = |rho| ContextBuilder {
            network: &network,
            photos: &photos,
            photo_grid: &grid,
            pois: None,
            eps: 0.5,
            rho,
            phi_source: PhiSource::Photos,
        };
        for rho in [1e-8, 1e-12] {
            let err = builder(rho).build(StreetId(0)).unwrap_err();
            assert!(matches!(err, SoiError::InvalidInput(_)), "{err:?}");
            let text = err.to_string();
            assert!(text.contains("rho") && text.contains("1 x 0.5"), "{text}");
        }
        // A ρ whose grid can be numbered indexes both.
        let ctx = builder(1e-4).build(StreetId(0)).unwrap();
        assert_eq!(ctx.index.photos().len(), 2);
    }

    #[test]
    fn a_stored_context_is_linear_in_its_photos_cells_and_keywords() {
        // Photos along the street carrying tag id 65 000: the context keeps
        // it as one pair in the index's numbering and one key of `Φs`, not
        // as rows indexed by tag id (65 001 bytes and 520 KB for this street).
        let (network, _, _) = setup();
        let mut photos = PhotoCollection::new();
        for i in 0..40u32 {
            let pos = Point::new(0.25 * f64::from(i), 0.1 * f64::from(i % 3));
            photos.add(pos, tags(&[i % 5, 65_000]));
        }
        let grid = PhotoGrid::build(&network, &photos, 1.0);
        let ctx = ContextBuilder {
            network: &network,
            photos: &photos,
            photo_grid: &grid,
            pois: None,
            eps: 0.5,
            rho: 0.5,
            phi_source: PhiSource::Photos,
        }
        .build(StreetId(0))
        .unwrap();
        let rs = ctx.members.len();
        let cells = ctx.index.occupied().len();
        let keywords: usize = (0..cells)
            .map(|s| ctx.index.cell_at(s).keywords.len())
            .sum();
        assert_eq!((rs, ctx.phi.weight(KeywordId(65_000))), (40, 40.0));
        assert!(ctx.index.kw_mask(0).is_some(), "tag 65 000 is numbered");
        assert!(
            ctx.heap_bytes() <= 128 * (rs + cells + keywords),
            "{} heap bytes for |Rs| {rs}, {cells} cells, {keywords} cell keywords",
            ctx.heap_bytes()
        );
    }

    #[test]
    fn a_table_builds_a_street_once_and_stores_no_error() {
        let (network, photos, _) = setup();
        let grid = PhotoGrid::build(&network, &photos, 1.0);
        let builder = |rho| ContextBuilder {
            network: &network,
            photos: &photos,
            photo_grid: &grid,
            pois: None,
            eps: 0.5,
            rho,
            phi_source: PhiSource::Photos,
        };
        let table = StreetContexts::new(network.num_streets());
        let empty = table.heap_bytes();
        // A failed build answers every call with its error and fills nothing.
        for _ in 0..2 {
            let err = table
                .get_or_build(&builder(1e-8), StreetId(0), None)
                .unwrap_err();
            assert!(matches!(err, SoiError::InvalidInput(_)), "{err:?}");
            assert_eq!(table.heap_bytes(), empty);
        }
        let (first, built) = table
            .get_or_build(&builder(0.2), StreetId(0), None)
            .unwrap();
        assert!(built && table.heap_bytes() > empty);
        let (again, built) = table
            .get_or_build(&builder(0.2), StreetId(0), None)
            .unwrap();
        assert!(!built && std::ptr::eq(first, again));
        let outside = table.get_or_build(&builder(0.2), StreetId(1), None);
        assert!(matches!(outside, Err(SoiError::NotFound(_))));
    }

    /// Asserts that every stored relevance value of `ctx` equals, bit for
    /// bit, its recomputation from the photo records: Definition 4 by a scan
    /// of all `|Rs|²` pairs, Definition 6 by `Φs`, and Eqs. 11–14 from the
    /// records of the photos in each cell and around it. Of the index only
    /// its grid, its occupied cells and the cell of each member slot are
    /// read.
    pub(crate) fn assert_relevance_columns_equal_the_records(
        ctx: &StreetContext,
        photos: PhotoView<'_>,
    ) {
        let index = &ctx.index;
        let grid = index.grid();
        let rs = ctx.members.len() as f64;
        let l1 = ctx.phi.l1_norm();
        let textual = |tags: &KeywordSet| {
            if l1 == 0.0 {
                0.0
            } else {
                ctx.phi.sum_over(tags) / l1
            }
        };
        let cell_of = |id: PhotoId| grid.cell_containing(photos.get(id).pos);
        // The cell side is ρ/2, and doubling it is exact.
        let rho = 2.0 * grid.cell_size();
        let rho_sq = rho * rho;
        let bits = |v: [f64; 4]| v.map(f64::to_bits);
        let pair_bits = |(a, b): (f64, f64)| (a.to_bits(), b.to_bits());
        let mut indexed = 0;
        for &r in &ctx.members {
            let photo = photos.get(r);
            let within = ctx
                .members
                .iter()
                .filter(|&&b| photos.get(b).pos.dist_sq(photo.pos) <= rho_sq);
            let want = match index.locate(r, photo.pos) {
                Some((_, member)) => {
                    indexed += 1;
                    let want = (within.count() as f64 / rs, textual(&photo.tags));
                    assert_eq!(
                        pair_bits(ctx.member_rel[member]),
                        pair_bits(want),
                        "photo {r} of street {}",
                        ctx.street
                    );
                    want
                }
                None => {
                    assert!(
                        cell_of(r).is_none(),
                        "photo {r} is in the grid but not the index"
                    );
                    (0.0, textual(&photo.tags))
                }
            };
            let read = (spatial_rel(ctx, photos, r), textual_rel(ctx, photos, r));
            assert_eq!(pair_bits(read), pair_bits(want), "photo {r}");
        }
        assert_eq!(indexed, index.photos().len());
        for (slot, &id) in index.occupied().iter().enumerate() {
            let here = grid.coord_of(id);
            let in_cell: Vec<&Photo> = ctx
                .members
                .iter()
                .filter(|&&r| cell_of(r) == Some(here))
                .map(|&r| photos.get(r))
                .collect();
            // Eq. 12 counts the photos of the 5 × 5 cells around the cell
            // and, beyond them, each photo `dist_sq` puts within ρ of one of
            // the cell's.
            let reaches = |b: &Photo| in_cell.iter().any(|a| b.pos.dist_sq(a.pos) <= rho_sq);
            let near = ctx.members.iter().map(|&b| photos.get(b)).filter(|b| {
                cell_of(b.id).is_some_and(|c| {
                    c.ix.abs_diff(here.ix) <= 2 && c.iy.abs_diff(here.iy) <= 2 || reaches(b)
                })
            });
            let (sl, su) = (in_cell.len() as f64 / rs, near.count() as f64 / rs);
            let mut keywords: Vec<KeywordId> =
                in_cell.iter().flat_map(|r| r.tags.ids()).copied().collect();
            keywords.sort_unstable();
            keywords.dedup();
            let psi_min = in_cell.iter().map(|r| r.tags.len()).min().unwrap();
            let psi_max = in_cell.iter().map(|r| r.tags.len()).max().unwrap();
            let mut positive: Vec<f64> = keywords
                .iter()
                .map(|&k| ctx.phi.weight(k))
                .filter(|&w| w > 0.0)
                .collect();
            positive.sort_by(f64::total_cmp);
            let must_take = psi_min.saturating_sub(keywords.len() - positive.len());
            let lower: f64 = positive.iter().take(must_take).sum();
            let upper: f64 = positive.iter().rev().take(psi_max).sum();
            let (tl, tu) = if l1 == 0.0 {
                (0.0, 0.0)
            } else {
                (lower / l1, upper / l1)
            };
            assert_eq!(
                bits(ctx.cell_rel[slot]),
                bits([sl, su, tl, tu]),
                "cell {id:?} of street {}",
                ctx.street
            );
        }
    }

    /// 240 photos in a 10 × 0.8 strip around [`setup`]'s street, a fifth of
    /// them untagged; `tag_ids(i)` tags photo `i`.
    fn strip_photos(tag_ids: impl Fn(u32) -> Vec<u32>) -> PhotoCollection {
        let mut photos = PhotoCollection::new();
        for i in 0..240u32 {
            let x = f64::from(i * 37 % 101) * 0.1;
            let y = (f64::from(i * 13 % 17) - 8.0) * 0.05;
            let ids = if i % 5 == 0 { Vec::new() } else { tag_ids(i) };
            photos.add(Point::new(x, y), tags(&ids));
        }
        photos
    }

    #[test]
    fn relevance_columns_equal_an_oracle_over_the_photo_records() {
        let (network, _, _) = setup();
        fn builder<'a>(
            network: &'a RoadNetwork,
            photos: &'a PhotoCollection,
            photo_grid: &'a PhotoGrid,
            pois: Option<&'a PoiCollection>,
            phi_source: PhiSource,
        ) -> ContextBuilder<'a> {
            ContextBuilder {
                network,
                photos,
                photo_grid,
                pois,
                eps: 0.5,
                rho: 0.4,
                phi_source,
            }
        }
        // A street whose tags fit the masks, one of more than 64 tags, and
        // one whose photos carry no tag (`Φs` all zero).
        let narrow = strip_photos(|i| vec![i % 7, 7 + i % 3]);
        let wide = strip_photos(|i| vec![i, i + 1, 500]);
        let untagged = strip_photos(|_| Vec::new());
        for (photos, masked) in [(&narrow, true), (&wide, false), (&untagged, true)] {
            let grid = PhotoGrid::build(&network, photos, 1.0);
            let ctx = builder(&network, photos, &grid, None, PhiSource::Photos)
                .build(StreetId(0))
                .unwrap();
            assert_eq!(
                (ctx.members.len(), ctx.index.kw_mask(0).is_some()),
                (240, masked)
            );
            assert_relevance_columns_equal_the_records(&ctx, photos.into());
        }

        // A member at a non-finite position: in `Rs`, outside the index.
        let mut photos = narrow.clone();
        let lost = photos.add(Point::new(f64::NAN, 0.0), tags(&[3, 99]));
        let members: Vec<PhotoId> = photos.iter().map(|p| p.id).collect();
        let mut phi = FreqVector::new();
        for &r in &members {
            for tag in photos.get(r).tags.iter() {
                phi.increment(tag);
            }
        }
        let view = PhotoView::from(&photos);
        let ctx = StreetContext::assemble(StreetId(0), members, phi, 11.0, 0.4, view).unwrap();
        assert_eq!((ctx.members.len(), ctx.index.photos().len()), (241, 240));
        assert_eq!(spatial_rel(&ctx, view, lost), 0.0);
        assert!(textual_rel(&ctx, view, lost) > 0.0);
        assert_relevance_columns_equal_the_records(&ctx, view);

        // Under a live delta that deletes photos and POIs and adds both.
        let photos = narrow;
        let mut pois = PoiCollection::new();
        for i in 0..30u32 {
            pois.add(Point::new(f64::from(i) * 0.3, 0.1), tags(&[i % 9]));
        }
        let grid = PhotoGrid::build(&network, &photos, 1.0);
        let poi_index = PoiIndex::build(&network, &pois, 1.0);
        let mut ops: Vec<DeltaOp> = (0..240u32)
            .step_by(7)
            .map(|i| DeltaOp::DeletePhoto { id: PhotoId(i) })
            .collect();
        ops.push(DeltaOp::DeletePoi { id: PoiId(4) });
        for i in 0..25u32 {
            let pos = Point::new(f64::from(i) * 0.37, 0.2 - f64::from(i % 4) * 0.1);
            ops.push(DeltaOp::AddPhoto {
                pos,
                tags: tags(&[i % 11, 20]),
            });
        }
        ops.push(DeltaOp::AddPoi {
            pos: Point::new(5.0, 0.0),
            keywords: tags(&[20]),
            weight: 2.5,
        });
        let delta = DeltaIndex::seal(&poi_index, &pois, &photos, &ops).unwrap();
        let live = builder(
            &network,
            &photos,
            &grid,
            Some(&pois),
            PhiSource::PhotosAndPois,
        );
        let ctx = live.build_with_delta(StreetId(0), Some(&delta)).unwrap();
        assert_eq!(ctx.members.len(), 240 - 35 + 25);
        assert_relevance_columns_equal_the_records(&ctx, live.photo_view(Some(&delta)));
    }

    /// Asserts that `a` and `b` are the same context, floats bit for bit.
    fn assert_same_context(a: &StreetContext, b: &StreetContext) {
        let phi = |ctx: &StreetContext| {
            let mut pairs: Vec<_> = ctx.phi.iter().map(|(k, w)| (k, w.to_bits())).collect();
            pairs.sort_unstable();
            (pairs, ctx.phi.l1_norm().to_bits())
        };
        let rel = |ctx: &StreetContext| {
            let members: Vec<_> = ctx
                .member_rel
                .iter()
                .map(|&(s, t)| (s.to_bits(), t.to_bits()))
                .collect();
            let cells: Vec<_> = ctx.cell_rel.iter().map(|c| c.map(f64::to_bits)).collect();
            (members, cells)
        };
        let street = a.street;
        assert_eq!((a.street, &a.members), (b.street, &b.members));
        assert_eq!(phi(a), phi(b), "Φs of street {street}");
        assert_eq!(a.max_d.to_bits(), b.max_d.to_bits(), "street {street}");
        // The index has no equality of its own; its `Debug` form prints
        // every field, each float in its shortest round-trip form.
        assert_eq!(
            format!("{:?}", a.index),
            format!("{:?}", b.index),
            "street {street}"
        );
        assert_eq!(rel(a), rel(b), "relevance columns of street {street}");
    }

    #[test]
    fn a_carried_context_equals_a_fresh_build_at_the_new_epoch() {
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        // Two parallel streets 2 apart and a third far off; photos within
        // ε = 0.5 of each (members), beside them between ε and 2ε (in the
        // reach, not in `Rs`) and in the open.
        let mut b = RoadNetwork::builder();
        b.add_street_from_points("A", &[Point::new(0.0, 0.0), Point::new(10.0, 0.0)]);
        b.add_street_from_points("B", &[Point::new(0.0, 2.0), Point::new(10.0, 2.0)]);
        b.add_street_from_points("C", &[Point::new(20.0, 0.0), Point::new(20.0, 10.0)]);
        let network = b.build().unwrap();
        let streets: Vec<StreetId> = network.streets().iter().map(|s| s.id).collect();
        let mut rng = StdRng::seed_from_u64(35);
        // A random position near street `s` (within ε of it when `member`),
        // or anywhere in the 25 × 12 box.
        let near = |rng: &mut StdRng, s: usize, member: bool| {
            let off = if member {
                rng.random_range(-0.45..0.45)
            } else {
                rng.random_range(0.55..0.95)
                    * if rng.random_range(0..2) == 0 {
                        -1.0
                    } else {
                        1.0
                    }
            };
            let along = rng.random_range(0.0..10.0);
            match s {
                0 => Point::new(along, off),
                1 => Point::new(along, 2.0 + off),
                _ => Point::new(20.0 + off, along),
            }
        };
        let mut photos = PhotoCollection::new();
        let mut pois = PoiCollection::new();
        for i in 0..300u32 {
            let pos = match i % 4 {
                3 => Point::new(rng.random_range(0.0..25.0), rng.random_range(-1.0..11.0)),
                s => near(&mut rng, s as usize, i % 5 != 0),
            };
            photos.add(pos, tags(&[i % 6, 6 + i % 3]));
            if i % 3 == 0 {
                pois.add(pos, tags(&[i % 4]));
            }
        }
        let grid = PhotoGrid::build(&network, &photos, 1.0);
        let poi_index = PoiIndex::build(&network, &pois, 1.0);

        for phi_source in [PhiSource::Photos, PhiSource::PhotosAndPois] {
            let builder = ContextBuilder {
                network: &network,
                photos: &photos,
                photo_grid: &grid,
                pois: Some(&pois),
                eps: 0.5,
                rho: 0.4,
                phi_source,
            };
            let mut delta: Option<DeltaIndex> = None;
            let mut table = StreetContexts::new(network.num_streets());
            for &s in &streets {
                table.get_or_build(&builder, s, None).unwrap();
            }
            let (mut carried, mut rebuilt) = (0, 0);
            let (mut num_photos, mut num_pois) = (photos.len(), pois.len());
            for round in 0..60 {
                // One to three ops: a photo added near a street (inside or
                // outside its ε) or in the open, a photo or POI deleted, a
                // POI added.
                let mut batch = Vec::new();
                for _ in 0..rng.random_range(1..4) {
                    let street = rng.random_range(0..4usize);
                    let pos = if street == 3 {
                        Point::new(rng.random_range(0.0..25.0), rng.random_range(-1.0..11.0))
                    } else {
                        let member = rng.random_range(0..2) == 0;
                        near(&mut rng, street, member)
                    };
                    let op = match rng.random_range(0..6) {
                        0 | 1 => DeltaOp::AddPhoto {
                            pos,
                            tags: tags(&[round % 7]),
                        },
                        2 | 3 => DeltaOp::DeletePhoto {
                            id: PhotoId::from_index(rng.random_range(0..num_photos)),
                        },
                        4 => DeltaOp::AddPoi {
                            pos,
                            keywords: tags(&[round % 5]),
                            weight: 1.5,
                        },
                        _ => DeltaOp::DeletePoi {
                            id: PoiId::from_index(rng.random_range(0..num_pois)),
                        },
                    };
                    batch.push(op);
                }
                let extended = match &delta {
                    Some(prev) => prev.extend(&poi_index, &pois, &photos, &batch),
                    None => DeltaIndex::seal(&poi_index, &pois, &photos, &batch),
                };
                // A delete of an id already gone is refused; draw again.
                let Ok(next) = extended else { continue };
                num_photos = photos.len() + next.added_photos().len();
                num_pois = pois.len() + next.added_pois().len();
                let points = builder.batch_points(&batch, &next);
                let next_table = table.carried(|s| !builder.reaches(s, &points));
                // The photos the batch adds or deletes, and per `Φs` its
                // POIs: a street with one within ε is never carried.
                let photos_view = next.photo_view(&photos);
                let pois_view = next.poi_view(&pois);
                let draws_on_pois = phi_source == PhiSource::PhotosAndPois;
                let changed: Vec<Point> = batch
                    .iter()
                    .filter_map(|op| match op {
                        DeltaOp::AddPhoto { pos, .. } => Some(*pos),
                        DeltaOp::DeletePhoto { id } => Some(photos_view.get(*id).pos),
                        DeltaOp::AddPoi { pos, .. } => draws_on_pois.then_some(*pos),
                        DeltaOp::DeletePoi { id } => draws_on_pois.then(|| pois_view.get(*id).pos),
                    })
                    .collect();
                for &s in &streets {
                    let (before, _) = table.get_or_build(&builder, s, delta.as_ref()).unwrap();
                    let (ctx, built) = next_table.get_or_build(&builder, s, Some(&next)).unwrap();
                    let within = changed
                        .iter()
                        .any(|&p| network.dist_point_to_street(p, s) <= 0.5);
                    if built {
                        rebuilt += 1;
                        continue;
                    }
                    carried += 1;
                    assert!(
                        !within,
                        "round {round}: street {s} carried past an op within ε"
                    );
                    assert!(
                        std::ptr::eq(before, ctx),
                        "round {round}: street {s} copied"
                    );
                    let fresh = builder.build_with_delta(s, Some(&next)).unwrap();
                    assert_same_context(ctx, &fresh);
                }
                table = next_table;
                delta = Some(next);
            }
            // Both paths ran often.
            assert!(
                carried >= 40 && rebuilt >= 40,
                "{phi_source:?}: carried {carried}, rebuilt {rebuilt}"
            );
        }
    }

    #[test]
    fn phi_source_names() {
        assert_eq!(PhiSource::Photos.name(), "photos");
        assert_eq!(PhiSource::Pois.name(), "pois");
        assert_eq!(PhiSource::PhotosAndPois.name(), "photos+pois");
    }
}
