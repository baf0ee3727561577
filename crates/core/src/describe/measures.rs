//! Spatio-textual relevance and diversity measures (Definitions 4–7).

use crate::describe::context::StreetContext;
use soi_common::PhotoId;
use soi_data::PhotoView;
use soi_geo::Point;
use soi_text::{jaccard_distance_of, KeywordSet};

/// A selected photo as Alg. 2 reads it round after round — the diversity
/// bounds of every cell and the exact [`div`] of every scored photo are
/// taken against it — fetched from its record once.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Picked {
    pub(crate) id: PhotoId,
    pub(crate) pos: Point,
    /// `|Ψr|`.
    pub(crate) num_tags: usize,
    /// `Ψr` over the street's tag numbering, if it has one.
    pub(crate) tag_mask: Option<u64>,
}

impl Picked {
    pub(crate) fn new(ctx: &StreetContext, photos: PhotoView<'_>, id: PhotoId) -> Self {
        let photo = photos.get(id);
        Self {
            id,
            pos: photo.pos,
            num_tags: photo.tags.len(),
            tag_mask: ctx.index.tag_mask(&photo.tags),
        }
    }
}

/// Spatial relevance (Definition 4): the fraction of `Rs` within
/// neighbourhood radius ρ of photo `r` (including `r` itself, per Eq. 6).
///
/// Defined for the photos of `Rs`, which is what every selection scores: a
/// photo the street's index does not hold (not a member, or one with a
/// non-finite position) has relevance 0.
#[cfg(test)]
pub(crate) fn spatial_rel<'a>(
    ctx: &StreetContext,
    photos: impl Into<PhotoView<'a>>,
    r: PhotoId,
) -> f64 {
    relevance(ctx, photos.into(), r).0
}

/// Textual relevance (Definition 6): `Σ_{ψ∈Ψr} Φs(ψ) / ‖Φs‖₁`.
///
/// Returns 0 when `Φs` is all-zero.
#[cfg(test)]
pub(crate) fn textual_rel<'a>(
    ctx: &StreetContext,
    photos: impl Into<PhotoView<'a>>,
    r: PhotoId,
) -> f64 {
    relevance(ctx, photos.into(), r).1
}

/// `(spatial_rel, textual_rel)` of `r`: the context's column for a photo
/// its index holds; for any other, 0 and Definition 6 of its record.
fn relevance(ctx: &StreetContext, photos: PhotoView<'_>, r: PhotoId) -> (f64, f64) {
    let photo = photos.get(r);
    match ctx.index.locate(r, photo.pos) {
        Some((_, member)) => ctx.member_rel[member],
        None => (0.0, textual_rel_of(ctx, &photo.tags)),
    }
}

/// Definition 6 of a photo tagged `tags`.
fn textual_rel_of(ctx: &StreetContext, tags: &KeywordSet) -> f64 {
    let l1 = ctx.phi.l1_norm();
    if l1 == 0.0 {
        return 0.0;
    }
    ctx.phi.sum_over(tags) / l1
}

/// The context's relevance column: `(spatial_rel, textual_rel)` of every
/// photo its index holds, by member slot. Only the context's build calls
/// this; every later read is its `member_rel`.
pub(crate) fn member_relevance(ctx: &StreetContext, photos: PhotoView<'_>) -> Vec<(f64, f64)> {
    let index = &ctx.index;
    let rs = index.num_photos() as f64;
    let mut column = Vec::with_capacity(index.photos().len());
    for slot in 0..index.occupied().len() {
        for member in index.member_slots(slot) {
            let spatial = index.count_within(slot, member) as f64 / rs;
            let tags = &photos.get(index.photos()[member]).tags;
            column.push((spatial, textual_rel_of(ctx, tags)));
        }
    }
    column
}

/// Spatial diversity (Definition 5): `dist(r, r′) / maxD(s)`.
///
/// Returns 0 when `maxD(s)` is 0 (degenerate street).
pub(crate) fn spatial_div<'a>(
    ctx: &StreetContext,
    photos: impl Into<PhotoView<'a>>,
    r: PhotoId,
    r2: PhotoId,
) -> f64 {
    let photos: PhotoView<'a> = photos.into();
    if ctx.max_d == 0.0 {
        return 0.0;
    }
    photos.get(r).pos.dist(photos.get(r2).pos) / ctx.max_d
}

/// Textual diversity (Definition 7): the Jaccard distance of the tag sets.
pub(crate) fn textual_div<'a>(photos: impl Into<PhotoView<'a>>, r: PhotoId, r2: PhotoId) -> f64 {
    let photos: PhotoView<'a> = photos.into();
    photos.get(r).tags.jaccard_distance(&photos.get(r2).tags)
}

/// Combined per-photo relevance: `w·spatial_rel + (1−w)·textual_rel`
/// (the per-item summand of Eq. 4).
pub(crate) fn rel<'a>(
    ctx: &StreetContext,
    photos: impl Into<PhotoView<'a>>,
    w: f64,
    r: PhotoId,
) -> f64 {
    let (spatial, textual) = relevance(ctx, photos.into(), r);
    w * spatial + (1.0 - w) * textual
}

/// [`rel`] of the photo at member slot `member` of the index, without
/// looking its slot up.
pub(crate) fn rel_at(ctx: &StreetContext, w: f64, member: usize) -> f64 {
    let (spatial, textual) = ctx.member_rel[member];
    w * spatial + (1.0 - w) * textual
}

/// Combined pairwise diversity: `w·spatial_div + (1−w)·textual_div`
/// (the per-pair summand of Eq. 5).
pub(crate) fn div<'a>(
    ctx: &StreetContext,
    photos: impl Into<PhotoView<'a>>,
    w: f64,
    r: PhotoId,
    r2: PhotoId,
) -> f64 {
    let photos: PhotoView<'a> = photos.into();
    w * spatial_div(ctx, photos, r, r2) + (1.0 - w) * textual_div(photos, r, r2)
}

/// [`div`] between the photo `r` at member slot `member` of the index and
/// the selected photo `r2` — another photo of the index, so every tag of
/// either has a bit in the street's numbering — from the index's columns:
/// no photo record is read while the street's tags fit its masks.
pub(crate) fn div_at(
    ctx: &StreetContext,
    photos: PhotoView<'_>,
    w: f64,
    (r, member): (PhotoId, usize),
    r2: &Picked,
) -> f64 {
    let spatial = if ctx.max_d == 0.0 {
        0.0
    } else {
        ctx.index.point(member).dist(r2.pos) / ctx.max_d
    };
    let textual = match (ctx.index.member_tag_mask(member), r2.tag_mask) {
        (Some(a), Some(b)) => {
            jaccard_distance_of((a & b).count_ones() as usize, (a | b).count_ones() as usize)
        }
        _ => textual_div(photos, r, r2.id),
    };
    w * spatial + (1.0 - w) * textual
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::describe::context::{ContextBuilder, PhiSource};
    use soi_common::{KeywordId, StreetId};
    use soi_data::PhotoCollection;
    use soi_geo::Point;
    use soi_index::PhotoGrid;
    use soi_network::RoadNetwork;
    use soi_text::KeywordSet;

    fn tags(ids: &[u32]) -> KeywordSet {
        KeywordSet::from_ids(ids.iter().map(|&i| KeywordId(i)))
    }

    /// Street along y=0, 0..10; four member photos.
    fn setup() -> (RoadNetwork, PhotoCollection, StreetContext) {
        let mut b = RoadNetwork::builder();
        b.add_street_from_points("Main", &[Point::new(0.0, 0.0), Point::new(10.0, 0.0)]);
        let network = b.build().unwrap();
        let mut photos = PhotoCollection::new();
        photos.add(Point::new(1.0, 0.0), tags(&[0, 1])); // r0
        photos.add(Point::new(1.05, 0.0), tags(&[0])); // r1, very near r0
        photos.add(Point::new(9.0, 0.0), tags(&[2])); // r2, far end
        photos.add(Point::new(9.1, 0.0), tags(&[0, 1])); // r3
        let grid = PhotoGrid::build(&network, &photos, 1.0);
        let ctx = ContextBuilder {
            network: &network,
            photos: &photos,
            photo_grid: &grid,
            pois: None,
            eps: 0.5,
            rho: 0.2,
            phi_source: PhiSource::Photos,
        }
        .build(StreetId(0))
        .unwrap();
        (network, photos, ctx)
    }

    /// [`setup`]'s street with 60 photos, a quarter of them untagged; `wide`
    /// gives them 76 distinct tags between them, more than the index
    /// numbers.
    fn setup_with_tags(wide: bool) -> (PhotoCollection, StreetContext) {
        let mut b = RoadNetwork::builder();
        b.add_street_from_points("Main", &[Point::new(0.0, 0.0), Point::new(10.0, 0.0)]);
        let network = b.build().unwrap();
        let mut photos = PhotoCollection::new();
        for i in 0..60u32 {
            let ids = if wide {
                [2 * i, 2 * i + 1, 0]
            } else {
                [i % 5, 5 + i % 3, 9]
            };
            let x = 0.3 * f64::from(i % 12);
            photos.add(
                Point::new(x, 0.005 * f64::from(i)),
                tags(&ids[..i as usize % 4]),
            );
        }
        let grid = PhotoGrid::build(&network, &photos, 1.0);
        let ctx = ContextBuilder {
            network: &network,
            photos: &photos,
            photo_grid: &grid,
            pois: None,
            eps: 0.5,
            rho: 0.4,
            phi_source: PhiSource::Photos,
        }
        .build(StreetId(0))
        .unwrap();
        (photos, ctx)
    }

    #[test]
    fn column_measures_equal_the_record_measures_bit_for_bit() {
        for wide in [false, true] {
            let (photos, ctx) = setup_with_tags(wide);
            let view = PhotoView::from(&photos);
            assert_eq!(ctx.members.len(), 60);
            assert_eq!(ctx.index.kw_mask(0).is_none(), wide);
            for slot in 0..ctx.index.occupied().len() {
                for member in ctx.index.member_slots(slot) {
                    let r = ctx.index.photos()[member];
                    for w in [0.0, 0.3, 1.0] {
                        let at = rel_at(&ctx, w, member);
                        assert_eq!(at.to_bits(), rel(&ctx, view, w, r).to_bits());
                        for &r2 in &ctx.members {
                            let at =
                                div_at(&ctx, view, w, (r, member), &Picked::new(&ctx, view, r2));
                            assert_eq!(at.to_bits(), div(&ctx, view, w, r, r2).to_bits());
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn spatial_rel_of_a_stranger_is_zero() {
        let (_, photos, ctx) = setup();
        let mut more = photos.clone();
        let stranger = more.add(Point::new(1.02, 0.0), tags(&[0]));
        assert_eq!(spatial_rel(&ctx, &more, stranger), 0.0);
    }

    #[test]
    fn spatial_rel_counts_neighbourhood() {
        let (_, photos, ctx) = setup();
        assert_eq!(ctx.members.len(), 4);
        // r0's rho=0.2 neighbourhood: itself and r1 -> 2/4.
        assert_eq!(spatial_rel(&ctx, &photos, PhotoId(0)), 0.5);
        // r2's neighbourhood: itself and r3 (0.1 away) -> 2/4.
        assert_eq!(spatial_rel(&ctx, &photos, PhotoId(2)), 0.5);
    }

    #[test]
    fn textual_rel_uses_phi() {
        let (_, photos, ctx) = setup();
        // Phi counts: kw0 -> 3, kw1 -> 2, kw2 -> 1; l1 = 6.
        assert!((textual_rel(&ctx, &photos, PhotoId(0)) - 5.0 / 6.0).abs() < 1e-12);
        assert!((textual_rel(&ctx, &photos, PhotoId(2)) - 1.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn spatial_div_is_normalised_distance() {
        let (_, photos, ctx) = setup();
        let d = spatial_div(&ctx, &photos, PhotoId(0), PhotoId(2));
        assert!((d - 8.0 / ctx.max_d).abs() < 1e-12);
        assert_eq!(spatial_div(&ctx, &photos, PhotoId(0), PhotoId(0)), 0.0);
        // Symmetric.
        assert_eq!(
            spatial_div(&ctx, &photos, PhotoId(2), PhotoId(0)),
            spatial_div(&ctx, &photos, PhotoId(0), PhotoId(2))
        );
        // Bounded by 1 for member pairs.
        assert!(d <= 1.0);
    }

    #[test]
    fn textual_div_is_jaccard() {
        let (_, photos, _) = setup();
        // r0 {0,1} vs r1 {0}: 1 - 1/2.
        assert_eq!(textual_div(&photos, PhotoId(0), PhotoId(1)), 0.5);
        // Identical tag sets.
        assert_eq!(textual_div(&photos, PhotoId(0), PhotoId(3)), 0.0);
        // Disjoint.
        assert_eq!(textual_div(&photos, PhotoId(0), PhotoId(2)), 1.0);
    }

    #[test]
    fn combined_measures_interpolate() {
        let (_, photos, ctx) = setup();
        let r = PhotoId(0);
        assert_eq!(rel(&ctx, &photos, 1.0, r), spatial_rel(&ctx, &photos, r));
        assert_eq!(rel(&ctx, &photos, 0.0, r), textual_rel(&ctx, &photos, r));
        let mid = rel(&ctx, &photos, 0.5, r);
        let expect = 0.5 * spatial_rel(&ctx, &photos, r) + 0.5 * textual_rel(&ctx, &photos, r);
        assert!((mid - expect).abs() < 1e-12);

        let d = div(&ctx, &photos, 0.25, PhotoId(0), PhotoId(2));
        let expect = 0.25 * spatial_div(&ctx, &photos, PhotoId(0), PhotoId(2))
            + 0.75 * textual_div(&photos, PhotoId(0), PhotoId(2));
        assert!((d - expect).abs() < 1e-12);
    }
}
