//! Live-ingestion deltas over the base POI index (the maintenance path of
//! Sec. 3.2.1 generalised to batched inserts *and* deletes).
//!
//! The base structures are build-once and immutable; a [`DeltaIndex`] holds
//! the pending [`DeltaOp`]s in a query-ready form, and each further batch
//! extends it ([`DeltaIndex::extend`]) at the cost of what the batch
//! touches, sharing the rest with the delta it extends. Queries read
//! through an [`IndexView`](crate::IndexView) that consults the delta
//! alongside the base, and at an epoch boundary the delta is folded into
//! fresh collections ([`DeltaIndex::apply_to`]) and the index rebuilt — by
//! the deterministic-build property, compaction is exactly a rebuild.
//!
//! Bound soundness is preserved by *recomputing* every touched aggregate
//! from scratch in ascending POI order rather than adjusting it in place:
//! the per-(keyword, cell) weights and per-cell totals a sealed delta
//! reports are bit-identical to what a full rebuild over the merged
//! collections would produce, so UB/LBk pruning decisions match the
//! rebuilt index exactly (no float residue from incremental subtraction).
//!
//! Id-space contract: ops address the id space of the epoch they are
//! ingested into. An add receives the next dense id after the base
//! collection (continuing its numbering); a delete may target a base id or
//! a just-added id. Folding reassigns dense ids (base survivors in order,
//! then added survivors), which is why a fold boundary is semantically
//! meaningful and replays must respect the recorded boundaries.

use soi_common::{CellId, FxHashMap, FxHashSet, KeywordId, PhotoId, PoiId, Result, SoiError};
use soi_data::{Dataset, Photo, PhotoCollection, PhotoView, Poi, PoiCollection, PoiView};
use soi_geo::Point;
use soi_obs::json::{self, Json};
use soi_text::{KeywordSet, Vocabulary};
use std::sync::Arc;

use crate::poi_index::PoiIndex;

/// One ingestion operation, addressed to the current epoch's id space.
#[derive(Debug, Clone, PartialEq)]
pub enum DeltaOp {
    /// Insert a POI; it receives the next dense id.
    AddPoi {
        /// Location (must lie within the base grid extent when applied
        /// against a live index).
        pos: Point,
        /// Keyword set `Ψp`.
        keywords: KeywordSet,
        /// POI weight (finite, non-negative).
        weight: f64,
    },
    /// Delete the POI with this id (base or previously added this epoch).
    DeletePoi {
        /// Target id in the current epoch's id space.
        id: PoiId,
    },
    /// Insert a photo; it receives the next dense id.
    AddPhoto {
        /// Location.
        pos: Point,
        /// Tag set `Ψr`.
        tags: KeywordSet,
    },
    /// Delete the photo with this id (base or previously added this epoch).
    DeletePhoto {
        /// Target id in the current epoch's id space.
        id: PhotoId,
    },
}

/// Reads a keyword array that may mix strings (resolved through `vocab`)
/// and numeric ids (trusted as-is).
fn parse_keywords(value: &Json, vocab: &Vocabulary, what: &str) -> Result<KeywordSet> {
    let items = value
        .as_arr()
        .ok_or_else(|| SoiError::invalid(format!("{what} must be an array")))?;
    let mut ids = Vec::with_capacity(items.len());
    for item in items {
        match item {
            Json::Str(term) => ids.push(vocab.lookup(term).ok_or_else(|| {
                SoiError::invalid(format!("unknown {what} term {term:?} (not in vocabulary)"))
            })?),
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= f64::from(u32::MAX) => {
                ids.push(KeywordId(*n as u32));
            }
            other => {
                return Err(SoiError::invalid(format!(
                    "{what} entries must be strings or non-negative integers, got {other:?}"
                )))
            }
        }
    }
    Ok(KeywordSet::from_ids(ids))
}

fn field_f64(obj: &Json, key: &str) -> Result<f64> {
    obj.get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| SoiError::invalid(format!("missing or non-numeric field {key:?}")))
}

fn field_id(obj: &Json, key: &str) -> Result<u32> {
    let n = field_f64(obj, key)?;
    if n >= 0.0 && n.fract() == 0.0 && n <= f64::from(u32::MAX) {
        Ok(n as u32)
    } else {
        Err(SoiError::invalid(format!(
            "field {key:?} must be a non-negative integer id, got {n}"
        )))
    }
}

impl DeltaOp {
    /// Parses one JSON line of the ingest format.
    ///
    /// ```json
    /// {"op":"add_poi","x":1.0,"y":2.0,"kw":["museum",3],"weight":1.5}
    /// {"op":"del_poi","id":17}
    /// {"op":"add_photo","x":1.0,"y":2.0,"tags":["museum"]}
    /// {"op":"del_photo","id":3}
    /// ```
    ///
    /// Keyword/tag arrays may mix vocabulary terms (strings) and raw
    /// numeric ids; `weight` defaults to 1.0.
    ///
    /// # Errors
    /// Rejects malformed JSON, unknown `op` values, missing fields,
    /// non-finite coordinates or weights, and terms absent from `vocab`.
    pub fn parse_line(line: &str, vocab: &Vocabulary) -> Result<DeltaOp> {
        let doc = json::parse(line)
            .map_err(|e| SoiError::invalid(format!("malformed delta line: {e}")))?;
        let op = doc
            .get("op")
            .and_then(Json::as_str)
            .ok_or_else(|| SoiError::invalid("delta line missing string field \"op\""))?;
        match op {
            "add_poi" => {
                let pos = Point::new(field_f64(&doc, "x")?, field_f64(&doc, "y")?);
                let weight = match doc.get("weight") {
                    None => 1.0,
                    Some(w) => w
                        .as_f64()
                        .ok_or_else(|| SoiError::invalid("field \"weight\" must be a number"))?,
                };
                if !(pos.x.is_finite() && pos.y.is_finite() && weight.is_finite() && weight >= 0.0)
                {
                    return Err(SoiError::invalid(
                        "add_poi requires finite coordinates and a finite non-negative weight",
                    ));
                }
                let keywords = match doc.get("kw") {
                    Some(v) => parse_keywords(v, vocab, "kw")?,
                    None => KeywordSet::empty(),
                };
                Ok(DeltaOp::AddPoi {
                    pos,
                    keywords,
                    weight,
                })
            }
            "del_poi" => Ok(DeltaOp::DeletePoi {
                id: PoiId(field_id(&doc, "id")?),
            }),
            "add_photo" => {
                let pos = Point::new(field_f64(&doc, "x")?, field_f64(&doc, "y")?);
                if !(pos.x.is_finite() && pos.y.is_finite()) {
                    return Err(SoiError::invalid("add_photo requires finite coordinates"));
                }
                let tags = match doc.get("tags") {
                    Some(v) => parse_keywords(v, vocab, "tags")?,
                    None => KeywordSet::empty(),
                };
                Ok(DeltaOp::AddPhoto { pos, tags })
            }
            "del_photo" => Ok(DeltaOp::DeletePhoto {
                id: PhotoId(field_id(&doc, "id")?),
            }),
            other => Err(SoiError::invalid(format!("unknown delta op {other:?}"))),
        }
    }

    /// Parses a whole JSON-lines document (blank lines skipped), reporting
    /// the 1-based line number on the first error.
    ///
    /// # Errors
    /// Propagates the first [`DeltaOp::parse_line`] failure.
    pub fn parse_lines(text: &str, vocab: &Vocabulary) -> Result<Vec<DeltaOp>> {
        let mut ops = Vec::new();
        for (i, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            ops.push(
                Self::parse_line(line, vocab)
                    .map_err(|e| SoiError::invalid(format!("delta line {}: {e}", i + 1)))?,
            );
        }
        Ok(ops)
    }
}

/// The validated, materialised form of an op stream: added rows with their
/// assigned ids plus the delete sets. Held by every [`DeltaIndex`] and
/// built by [`fold_ops`] so the live path and the replay path agree
/// op-for-op.
#[derive(Debug, Clone, Default)]
struct Materialized {
    added_pois: Vec<Poi>,
    deleted_pois: FxHashSet<PoiId>,
    added_photos: Vec<Photo>,
    deleted_photos: FxHashSet<PhotoId>,
}

/// Validates `ops` against the id space of `m` over (base_pois,
/// base_photos) and materialises them onto it: adds continue the dense ids
/// after `m`'s, and deletes may target any id below them that neither `m`
/// nor an earlier op of `ops` deleted. `index` (when present) additionally
/// rejects POI adds outside the live grid extent, which no rebuilt index
/// could place; replay through [`fold_ops`] has no live grid, and relies on
/// the serving layer having validated every logged op before appending it.
fn materialize(
    mut m: Materialized,
    num_base_pois: usize,
    num_base_photos: usize,
    index: Option<&PoiIndex>,
    ops: &[DeltaOp],
) -> Result<Materialized> {
    for (i, op) in ops.iter().enumerate() {
        let at = |e: SoiError| SoiError::invalid(format!("delta op {}: {e}", i + 1));
        match op {
            DeltaOp::AddPoi {
                pos,
                keywords,
                weight,
            } => {
                if !(pos.x.is_finite() && pos.y.is_finite() && weight.is_finite() && *weight >= 0.0)
                {
                    return Err(at(SoiError::invalid(
                        "non-finite coordinates or invalid weight",
                    )));
                }
                if let Some(idx) = index {
                    if idx.grid().cell_containing(*pos).is_none() {
                        return Err(at(SoiError::invalid(format!(
                            "POI at {pos} lies outside the index extent"
                        ))));
                    }
                }
                let id = PoiId::from_index(num_base_pois + m.added_pois.len());
                m.added_pois.push(Poi {
                    id,
                    pos: *pos,
                    keywords: keywords.clone(),
                    weight: *weight,
                });
            }
            DeltaOp::DeletePoi { id } => {
                if id.index() >= num_base_pois + m.added_pois.len() {
                    return Err(at(SoiError::invalid(format!(
                        "POI id {} out of range (epoch holds {} POIs)",
                        id.0,
                        num_base_pois + m.added_pois.len()
                    ))));
                }
                if !m.deleted_pois.insert(*id) {
                    return Err(at(SoiError::invalid(format!(
                        "POI id {} already deleted in this delta",
                        id.0
                    ))));
                }
            }
            DeltaOp::AddPhoto { pos, tags } => {
                if !(pos.x.is_finite() && pos.y.is_finite()) {
                    return Err(at(SoiError::invalid("non-finite coordinates")));
                }
                let id = PhotoId::from_index(num_base_photos + m.added_photos.len());
                m.added_photos.push(Photo {
                    id,
                    pos: *pos,
                    tags: tags.clone(),
                });
            }
            DeltaOp::DeletePhoto { id } => {
                if id.index() >= num_base_photos + m.added_photos.len() {
                    return Err(at(SoiError::invalid(format!(
                        "photo id {} out of range (epoch holds {} photos)",
                        id.0,
                        num_base_photos + m.added_photos.len()
                    ))));
                }
                if !m.deleted_photos.insert(*id) {
                    return Err(at(SoiError::invalid(format!(
                        "photo id {} already deleted in this delta",
                        id.0
                    ))));
                }
            }
        }
    }
    Ok(m)
}

/// Folds survivors into fresh dense collections: base rows in id order
/// (skipping deletes), then added rows in id order (skipping deletes).
/// Weights and positions are copied bit-for-bit, so an index rebuilt over
/// the result is byte-identical to one rebuilt over any equivalent fold.
fn fold(
    base_pois: &PoiCollection,
    base_photos: &PhotoCollection,
    m: &Materialized,
) -> (PoiCollection, PhotoCollection) {
    let mut pois = PoiCollection::new();
    for p in base_pois.iter().chain(m.added_pois.iter()) {
        if !m.deleted_pois.contains(&p.id) {
            pois.add_weighted(p.pos, p.keywords.clone(), p.weight);
        }
    }
    let mut photos = PhotoCollection::new();
    for r in base_photos.iter().chain(m.added_photos.iter()) {
        if !m.deleted_photos.contains(&r.id) {
            photos.add(r.pos, r.tags.clone());
        }
    }
    (pois, photos)
}

/// Applies one validated op batch to the collections, returning the merged
/// (dense-id) collections. This is the replay/compaction primitive: ids in
/// `ops` address the id space of the *input* collections, and the output
/// reassigns dense ids, so successive batches must be folded at exactly
/// the recorded epoch boundaries.
///
/// # Errors
/// Rejects ops referencing out-of-range ids, double deletes, or
/// non-finite values. The fold is atomic: on error the inputs are
/// untouched and nothing is returned.
pub fn fold_ops(
    pois: &PoiCollection,
    photos: &PhotoCollection,
    ops: &[DeltaOp],
) -> Result<(PoiCollection, PhotoCollection)> {
    let m = materialize(Materialized::default(), pois.len(), photos.len(), None, ops)?;
    Ok(fold(pois, photos, &m))
}

/// Per-cell state of a sealed delta: the surviving added POIs located in
/// the cell (ascending id) and the recomputed merged total weight.
#[derive(Debug, Default, Clone)]
struct DeltaCell {
    added: Vec<PoiId>,
    total_weight: f64,
}

/// An immutable, query-ready set of pending ops (the "sealed" delta).
///
/// Sealing validates a batch atomically against the base epoch and the ops
/// already sealed, and precomputes everything the read path needs:
/// per-cell added-POI lists, merged per-cell weight totals, and full
/// replacement global-postings lists for every touched keyword. All
/// aggregates are recomputed from scratch in ascending POI order (see
/// module docs), so bounds read through a view are exactly the rebuilt
/// index's bounds.
///
/// A delta grows one batch at a time ([`extend`](Self::extend)): a new
/// batch recomputes only the cells and the (keyword, cell) entries it
/// touches and shares the rest, so it costs what it changes, and a chain of
/// extensions equals one [`seal`](Self::seal) of the concatenated ops.
#[derive(Debug)]
pub struct DeltaIndex {
    num_base_pois: usize,
    num_base_photos: usize,
    /// Every op sealed so far, materialised.
    rows: Materialized,
    /// Cell → surviving added POIs + merged total weight, for every cell
    /// touched by an add or a delete.
    cells: FxHashMap<CellId, DeltaCell>,
    /// Keyword → full replacement global-postings list, for every keyword
    /// carried by an added or deleted POI. A list is shared with the
    /// deltas this one extends until a batch touches its keyword.
    global: FxHashMap<KeywordId, Arc<[(CellId, f64)]>>,
    /// Delta-occupied cells that are unoccupied in the base, ascending.
    new_cells: Vec<CellId>,
    ops: usize,
}

impl DeltaIndex {
    /// Seals `ops` into a query-ready delta against the base epoch: the
    /// empty delta [`extend`](Self::extend)ed by `ops`.
    ///
    /// # Errors
    /// Rejects the whole batch (leaving nothing sealed) if any op is
    /// invalid: POI adds outside the base grid extent, out-of-range or
    /// doubled deletes, or non-finite values.
    pub fn seal(
        base_index: &PoiIndex,
        base_pois: &PoiCollection,
        base_photos: &PhotoCollection,
        ops: &[DeltaOp],
    ) -> Result<DeltaIndex> {
        let empty = DeltaIndex {
            num_base_pois: base_pois.len(),
            num_base_photos: base_photos.len(),
            rows: Materialized::default(),
            cells: FxHashMap::default(),
            global: FxHashMap::default(),
            new_cells: Vec::new(),
            ops: 0,
        };
        empty.extend(base_index, base_pois, base_photos, ops)
    }

    /// This delta with `batch` sealed on top: equal, aggregate for
    /// aggregate and bit for bit, to [`seal`](Self::seal) of this delta's
    /// ops followed by `batch`.
    ///
    /// `batch` addresses the id space this delta leaves (adds continue its
    /// ids; deletes may target any id it has not deleted). Only the cells
    /// of the batch's adds and deletes are recomputed, and in them only the
    /// entries of the batch's keywords; every other cell, and the global
    /// list of every keyword the batch does not carry, is this delta's.
    /// The base index and collections must be the ones this delta was
    /// sealed against.
    ///
    /// # Errors
    /// [`seal`](Self::seal)'s, against the cumulative id space and delete
    /// sets; on error `self` is untouched and nothing is returned.
    pub fn extend(
        &self,
        base_index: &PoiIndex,
        base_pois: &PoiCollection,
        base_photos: &PhotoCollection,
        batch: &[DeltaOp],
    ) -> Result<DeltaIndex> {
        debug_assert_eq!(base_pois.len(), self.num_base_pois);
        debug_assert_eq!(base_photos.len(), self.num_base_photos);
        let m = materialize(
            self.rows.clone(),
            base_pois.len(),
            base_photos.len(),
            Some(base_index),
            batch,
        )?;
        let grid = base_index.grid();
        let cell_of = |pos: Point| grid.cell_containing(pos).map(|c| grid.cell_id(c));
        let added_poi = |id: PoiId| &m.added_pois[id.index() - base_pois.len()];
        let poi_by_id = |id: PoiId| -> &Poi {
            if id.index() < base_pois.len() {
                base_pois.get(id)
            } else {
                added_poi(id)
            }
        };

        // Touched aggregates: the cell and keywords of every POI the batch
        // adds or deletes (base or added, by this batch or an earlier one).
        let batch_adds = &m.added_pois[self.rows.added_pois.len()..];
        let batch_deletes = batch.iter().filter_map(|op| match op {
            DeltaOp::DeletePoi { id } => Some(poi_by_id(*id)),
            _ => None,
        });
        let mut touched_cells: FxHashSet<CellId> = FxHashSet::default();
        let mut touched_kws: FxHashSet<KeywordId> = FxHashSet::default();
        for p in batch_adds.iter().chain(batch_deletes) {
            if let Some(c) = cell_of(p.pos) {
                touched_cells.insert(c);
            }
            touched_kws.extend(p.keywords.iter());
        }
        let mut touched_cells_sorted: Vec<CellId> = touched_cells.iter().copied().collect();
        touched_cells_sorted.sort_unstable();

        // Surviving added POIs per cell, ascending by id: a touched cell
        // drops the adds deleted since, and every add of the batch follows
        // all earlier ids.
        let mut cells = self.cells.clone();
        for &c in &touched_cells_sorted {
            cells
                .entry(c)
                .or_default()
                .added
                .retain(|id| !m.deleted_pois.contains(id));
        }
        for p in batch_adds {
            if m.deleted_pois.contains(&p.id) {
                continue;
            }
            if let Some(c) = cell_of(p.pos) {
                cells.entry(c).or_default().added.push(p.id);
            }
        }

        // Merged total weight per touched cell, recomputed from scratch in
        // ascending id order: base survivors, then added survivors — the
        // exact order a rebuild over the folded collections sums in.
        for &c in &touched_cells_sorted {
            let mut total = 0.0;
            if let Some(cell) = base_index.cell(c) {
                for &pid in cell.pois {
                    if !m.deleted_pois.contains(&pid) {
                        total += base_pois.get(pid).weight;
                    }
                }
            }
            let entry = cells.entry(c).or_default();
            for &pid in &entry.added {
                total += added_poi(pid).weight;
            }
            entry.total_weight = total;
        }

        // Replacement global lists for touched keywords, starting from this
        // delta's list (or the base's, for a keyword no earlier batch
        // carried). Entries of untouched cells are copied bit-for-bit;
        // touched entries are recomputed in merged ascending-POI order and
        // dropped when no matching POI survives (exactly the rebuilt
        // index's entry set). An entry of a cell no batch touched equals
        // its recomputation: the base sums each run from 0.0 in ascending
        // id order too.
        let recompute = |k: KeywordId, c: CellId| -> Option<f64> {
            let mut w = 0.0;
            let mut n = 0usize;
            if let Some(cell) = base_index.cell(c) {
                for &pid in cell.postings(k) {
                    if !m.deleted_pois.contains(&pid) {
                        w += base_pois.get(pid).weight;
                        n += 1;
                    }
                }
            }
            if let Some(dc) = cells.get(&c) {
                for &pid in &dc.added {
                    let p = added_poi(pid);
                    if p.keywords.contains(k) {
                        w += p.weight;
                        n += 1;
                    }
                }
            }
            (n > 0).then_some(w)
        };
        let mut touched_kws_sorted: Vec<KeywordId> = touched_kws.iter().copied().collect();
        touched_kws_sorted.sort_unstable();
        let mut global = self.global.clone();
        let mut listed: FxHashSet<CellId> = FxHashSet::default();
        for &k in &touched_kws_sorted {
            let start: &[(CellId, f64)] = match self.global.get(&k) {
                Some(list) => list,
                None => base_index.global_postings(k),
            };
            let mut list: Vec<(CellId, f64)> =
                Vec::with_capacity(start.len() + touched_cells.len());
            listed.clear();
            for &(c, w) in start {
                if touched_cells.contains(&c) {
                    listed.insert(c);
                    if let Some(nw) = recompute(k, c) {
                        list.push((c, nw));
                    }
                } else {
                    list.push((c, w));
                }
            }
            for &c in &touched_cells_sorted {
                if listed.contains(&c) {
                    continue;
                }
                if let Some(nw) = recompute(k, c) {
                    list.push((c, nw));
                }
            }
            // The global index's list order: weight desc, cell asc.
            list.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
            global.insert(k, list.into());
        }

        let mut new_cells: Vec<CellId> = cells
            .keys()
            .copied()
            .filter(|&c| !base_index.is_occupied(c))
            .collect();
        new_cells.sort_unstable();

        Ok(DeltaIndex {
            num_base_pois: self.num_base_pois,
            num_base_photos: self.num_base_photos,
            rows: m,
            cells,
            global,
            new_cells,
            ops: self.ops + batch.len(),
        })
    }

    /// Number of ops sealed into this delta.
    pub fn num_ops(&self) -> usize {
        self.ops
    }

    /// Added POIs in id order (including ones tombstoned later in the same
    /// delta, so id lookups through a view stay dense).
    pub fn added_pois(&self) -> &[Poi] {
        &self.rows.added_pois
    }

    /// Added photos in id order (including tombstoned ones).
    pub fn added_photos(&self) -> &[Photo] {
        &self.rows.added_photos
    }

    /// Number of deleted POIs (base or added).
    pub fn num_deleted_pois(&self) -> usize {
        self.rows.deleted_pois.len()
    }

    /// Number of deleted photos (base or added).
    pub fn num_deleted_photos(&self) -> usize {
        self.rows.deleted_photos.len()
    }

    /// Whether POI `id` is deleted in this delta.
    #[inline]
    pub fn poi_deleted(&self, id: PoiId) -> bool {
        !self.rows.deleted_pois.is_empty() && self.rows.deleted_pois.contains(&id)
    }

    /// Whether photo `id` is deleted in this delta.
    #[inline]
    pub fn photo_deleted(&self, id: PhotoId) -> bool {
        !self.rows.deleted_photos.is_empty() && self.rows.deleted_photos.contains(&id)
    }

    /// The replacement global-postings list for keyword `k`, if this delta
    /// touched it.
    pub fn global_postings(&self, k: KeywordId) -> Option<&[(CellId, f64)]> {
        self.global.get(&k).map(|list| &list[..])
    }

    /// The merged total weight of cell `c`, if this delta touched it.
    pub fn cell_total_weight(&self, c: CellId) -> Option<f64> {
        self.cells.get(&c).map(|dc| dc.total_weight)
    }

    /// Surviving added POIs located in cell `c`, ascending by id.
    pub fn cell_added_pois(&self, c: CellId) -> &[PoiId] {
        self.cells
            .get(&c)
            .map(|dc| dc.added.as_slice())
            .unwrap_or(&[])
    }

    /// Whether `c` is occupied by this delta but not by the base.
    #[inline]
    pub fn occupies_new_cell(&self, c: CellId) -> bool {
        self.new_cells.binary_search(&c).is_ok()
    }

    /// A [`PoiView`] over `base` extended by this delta's added POIs.
    ///
    /// `base` must be the collection the delta was sealed against.
    pub fn poi_view<'a>(&'a self, base: &'a PoiCollection) -> PoiView<'a> {
        debug_assert_eq!(base.len(), self.num_base_pois);
        PoiView::new(base, &self.rows.added_pois)
    }

    /// A [`PhotoView`] over `base` extended by this delta's added photos.
    pub fn photo_view<'a>(&'a self, base: &'a PhotoCollection) -> PhotoView<'a> {
        debug_assert_eq!(base.len(), self.num_base_photos);
        PhotoView::new(base, &self.rows.added_photos)
    }

    /// Folds this delta into fresh dense collections (the compaction
    /// primitive): base survivors in id order, then added survivors.
    /// Rebuilding the index over the result is byte-identical to a full
    /// rebuild over an equivalently folded dataset.
    pub fn apply_to(
        &self,
        base_pois: &PoiCollection,
        base_photos: &PhotoCollection,
    ) -> (PoiCollection, PhotoCollection) {
        fold(base_pois, base_photos, &self.rows)
    }
}

// ---------------------------------------------------------------------------
// Delta-log replay
// ---------------------------------------------------------------------------

/// Folds a delta-ops log into `base`, one [`fold_ops`]
/// batch per boundary: `boundaries` are the ascending line counts at which
/// the folds happened. They are semantic, not cosmetic: every fold
/// reassigns dense ids (base survivors first, then added survivors), and an
/// op addresses the id space of the epoch it was accepted in. Only lines up
/// to the last boundary are applied; the tail is the next epoch's pending
/// delta and is left to the caller.
///
/// Lines are parsed against the base vocabulary; every line must be one
/// accepted op (the log is written post-validation, so blank or rejected
/// lines never reach it).
///
/// # Errors
/// Out-of-range or non-ascending boundaries, unparsable lines, or any
/// [`fold_ops`] validation failure (with the 1-based log
/// line attached).
pub fn fold_dataset<S: AsRef<str>>(
    base: &Dataset,
    lines: &[S],
    boundaries: &[u64],
) -> Result<Dataset> {
    let mut pois = base.pois.clone();
    let mut photos = base.photos.clone();
    let mut prev = 0usize;
    for &b in boundaries {
        let b = b as usize;
        if b < prev || b > lines.len() {
            return Err(SoiError::invalid(format!(
                "fold boundary {b} out of range (previous {prev}, log has {} lines)",
                lines.len()
            )));
        }
        let mut ops = Vec::with_capacity(b - prev);
        for (i, line) in lines[prev..b].iter().enumerate() {
            ops.push(
                DeltaOp::parse_line(line.as_ref(), &base.vocab).map_err(|e| {
                    SoiError::invalid(format!("delta log line {}: {e}", prev + i + 1))
                })?,
            );
        }
        let (next_pois, next_photos) = fold_ops(&pois, &photos, &ops)
            .map_err(|e| SoiError::invalid(format!("folding log lines {}..{b}: {e}", prev + 1)))?;
        pois = next_pois;
        photos = next_photos;
        prev = b;
    }
    Ok(Dataset::new(
        base.name.clone(),
        base.network.clone(),
        base.vocab.clone(),
        pois,
        photos,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vocab() -> Vocabulary {
        let mut v = Vocabulary::default();
        v.intern("museum");
        v.intern("art");
        v
    }

    #[test]
    fn parse_reads_all_ops() {
        let v = vocab();
        let lines = concat!(
            "{\"op\":\"add_poi\",\"x\":1.0,\"y\":2.0,\"kw\":[\"museum\",1],\"weight\":1.5}\n",
            "\n",
            "{\"op\":\"del_poi\",\"id\":17}\n",
            "{\"op\":\"add_photo\",\"x\":3.0,\"y\":4.0,\"tags\":[\"art\"]}\n",
            "{\"op\":\"del_photo\",\"id\":3}\n",
        );
        let ops = DeltaOp::parse_lines(lines, &v).unwrap();
        assert_eq!(ops.len(), 4);
        assert_eq!(ops[1], DeltaOp::DeletePoi { id: PoiId(17) });
        assert_eq!(ops[3], DeltaOp::DeletePhoto { id: PhotoId(3) });
        match &ops[0] {
            DeltaOp::AddPoi {
                keywords, weight, ..
            } => {
                assert_eq!(keywords.len(), 2);
                assert_eq!(*weight, 1.5);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parse_rejects_bad_lines() {
        let v = vocab();
        for bad in [
            "{\"op\":\"warp\"}",
            "{\"x\":1}",
            "{\"op\":\"add_poi\",\"x\":1.0}",
            "{\"op\":\"add_poi\",\"x\":1.0,\"y\":2.0,\"kw\":[\"nope\"]}",
            "{\"op\":\"del_poi\"}",
            "not json",
            "{\"op\":\"add_poi\",\"x\":1.0,\"y\":2.0,\"weight\":-1.0}",
        ] {
            assert!(DeltaOp::parse_line(bad, &v).is_err(), "{bad} accepted");
        }
        // Errors carry the line number.
        let err = DeltaOp::parse_lines("{\"op\":\"del_poi\",\"id\":0}\nnope\n", &v)
            .unwrap_err()
            .to_string();
        assert!(err.contains("line 2"), "{err}");
    }

    #[test]
    fn fold_ops_validates_atomically() {
        let mut pois = PoiCollection::new();
        pois.add(Point::new(0.5, 0.5), KeywordSet::empty());
        let photos = PhotoCollection::new();
        // Second op references an id out of range: nothing is applied.
        let ops = [
            DeltaOp::DeletePoi {
                id: PoiId::from_index(0),
            },
            DeltaOp::DeletePoi {
                id: PoiId::from_index(5),
            },
        ];
        assert!(fold_ops(&pois, &photos, &ops).is_err());
        // Double delete of the same id is rejected.
        let ops = [
            DeltaOp::DeletePoi {
                id: PoiId::from_index(0),
            },
            DeltaOp::DeletePoi {
                id: PoiId::from_index(0),
            },
        ];
        assert!(fold_ops(&pois, &photos, &ops).is_err());
    }

    #[test]
    fn fold_reassigns_dense_ids() {
        let mut pois = PoiCollection::new();
        for i in 0..4 {
            pois.add_weighted(
                Point::new(i as f64, 0.0),
                KeywordSet::empty(),
                1.0 + i as f64,
            );
        }
        let photos = PhotoCollection::new();
        let ops = [
            DeltaOp::DeletePoi {
                id: PoiId::from_index(1),
            },
            DeltaOp::AddPoi {
                pos: Point::new(9.0, 0.0),
                keywords: KeywordSet::empty(),
                weight: 7.0,
            },
            // Delete the POI just added (id 4 in this epoch's space).
            DeltaOp::DeletePoi {
                id: PoiId::from_index(4),
            },
        ];
        let (folded, _) = fold_ops(&pois, &photos, &ops).unwrap();
        assert_eq!(folded.len(), 3);
        let weights: Vec<f64> = folded.iter().map(|p| p.weight).collect();
        assert_eq!(weights, vec![1.0, 3.0, 4.0]);
        for (i, p) in folded.iter().enumerate() {
            assert_eq!(p.id.index(), i);
        }
    }
}
