//! The bundle: the structures `/soi` and `/describe` read, built fresh or
//! written and read as one snapshot stamped with the dataset fingerprint
//! and the build parameters.

use std::path::Path;
use std::time::Instant;

use soi_common::{Result, SoiError};
use soi_data::Dataset;
use soi_geo::Grid;
use soi_snapshot::{corrupt, Fnv64, Snapshot, SnapshotWriter};

use super::codec::{read_photo_grid, read_poi_index, write_photo_grid, write_poi_index};
use crate::photo_grid::PhotoGrid;
use crate::poi_index::{covered_extent, PoiIndex};

// ---------------------------------------------------------------------------
// Dataset fingerprint
// ---------------------------------------------------------------------------

/// Four independent FNV lanes items are striped over by index, folded into
/// `out` at the end. The xor-multiply chain is latency-bound, so hashing
/// millions of items through one state serialises on multiply latency;
/// four states let consecutive items overlap. Striping by index keeps the
/// result order-sensitive and deterministic.
fn fingerprint_striped<T>(
    out: &mut Fnv64,
    items: impl Iterator<Item = T>,
    fold: impl Fn(&mut Fnv64, T),
) {
    let mut lanes = [Fnv64::new(), Fnv64::new(), Fnv64::new(), Fnv64::new()];
    for (i, item) in items.enumerate() {
        fold(&mut lanes[i & 3], item);
    }
    for lane in &lanes {
        out.write_u64(lane.finish());
    }
}

/// A content hash over everything the index builds consume: the network
/// (nodes, segments, streets), the vocabulary, the POIs, and the photos.
/// Any change to the dataset changes the fingerprint, which invalidates
/// every snapshot keyed on it.
pub fn dataset_fingerprint(dataset: &Dataset) -> u64 {
    let mut h = Fnv64::new();
    h.write_str(&dataset.name);

    let net = &dataset.network;
    h.write_u64(net.num_nodes() as u64);
    fingerprint_striped(&mut h, net.nodes().iter(), |h, node| {
        h.write_f64(node.pos.x);
        h.write_f64(node.pos.y);
    });
    h.write_u64(net.num_segments() as u64);
    fingerprint_striped(&mut h, net.segments().iter(), |h, seg| {
        h.write_u32(seg.street.raw());
        h.write_u32(seg.from.raw());
        h.write_u32(seg.to.raw());
        h.write_f64(seg.geom.a.x);
        h.write_f64(seg.geom.a.y);
        h.write_f64(seg.geom.b.x);
        h.write_f64(seg.geom.b.y);
    });
    h.write_u64(net.num_streets() as u64);
    for street in net.streets() {
        h.write_str(&street.name);
        h.write_u64(street.segments.len() as u64);
        for s in &street.segments {
            h.write_u32(s.raw());
        }
    }

    h.write_u64(dataset.vocab.len() as u64);
    for (_, term) in dataset.vocab.iter() {
        h.write_str(term);
    }

    h.write_u64(dataset.pois.len() as u64);
    fingerprint_striped(&mut h, dataset.pois.iter(), |h, poi| {
        h.write_f64(poi.pos.x);
        h.write_f64(poi.pos.y);
        h.write_f64(poi.weight);
        h.write_u64(poi.keywords.len() as u64);
        for k in poi.keywords.iter() {
            h.write_u32(k.raw());
        }
    });

    h.write_u64(dataset.photos.len() as u64);
    fingerprint_striped(&mut h, dataset.photos.iter(), |h, photo| {
        h.write_f64(photo.pos.x);
        h.write_f64(photo.pos.y);
        h.write_u64(photo.tags.len() as u64);
        for k in photo.tags.iter() {
            h.write_u32(k.raw());
        }
    });
    h.finish()
}

// ---------------------------------------------------------------------------
// Bundle
// ---------------------------------------------------------------------------

/// Parameters that shape an index bundle. Two bundles with equal params
/// over the same dataset are interchangeable; params are stamped into the
/// snapshot and folded into the cache key.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BundleParams {
    /// POI-index grid cell size.
    pub poi_cell: f64,
    /// Photo-grid cell size.
    pub pg_cell: f64,
    /// Inert: read by nothing, stamped nowhere. Kept only because the
    /// frozen `benchmark/` package names it in a struct literal (ROADMAP
    /// 2(b)).
    pub eps: Option<f64>,
    /// Inert: read by nothing, stamped nowhere. Kept only because the
    /// frozen `benchmark/` package names it in a struct literal (ROADMAP
    /// 2(b)).
    pub with_ir: bool,
    /// Worker threads for fresh builds (`0` = automatic). Builds are
    /// deterministic across thread counts, so this does not key the cache.
    pub threads: usize,
}

impl BundleParams {
    /// Checks, before anything is built or loaded, that both cell sizes can
    /// grid `dataset`: each must be finite and positive, and a grid of it
    /// over the extent its build covers (the network's plus the POIs' or
    /// the photos') must need no more cells than a `CellId` can number.
    /// `options` names where the POI and the photo cell size came from (a
    /// command-line option such as `--eps`), for the error to quote.
    ///
    /// # Errors
    /// A usage error naming the option, the cell size and, for a size too
    /// small for the extent, the cell count it would need.
    pub fn check(&self, dataset: &Dataset, options: [&str; 2]) -> Result<()> {
        let grids = [
            ("POI", self.poi_cell, dataset.pois.extent()),
            ("photo", self.pg_cell, dataset.photos.extent()),
        ];
        for ((grid, cell, items), option) in grids.into_iter().zip(options) {
            if !(cell > 0.0 && cell.is_finite()) {
                return Err(SoiError::invalid(format!(
                    "{option}: {grid} grid cell size {cell} must be finite and positive"
                )));
            }
            let extent = covered_extent(&dataset.network, items);
            if let Err(cells) = Grid::try_covering(extent, cell) {
                return Err(SoiError::invalid(format!(
                    "{option}: {grid} grid cell size {cell:e} is too small for this dataset: \
                     it spans {} x {}, and cells of that side over it are {cells:e} grid cells \
                     (at most {} can be numbered)",
                    extent.width(),
                    extent.height(),
                    u32::MAX
                )));
            }
        }
        Ok(())
    }
}

/// The flags word of `cache.meta`. Every bundle writes 0. Bit 0 once marked
/// a persisted IR-tree, so a file with any flag set reads as stale and a
/// cache rebuilds it.
const META_FLAGS: u64 = 0;

/// The structures `/soi` and `/describe` read at query time.
#[derive(Debug)]
pub struct IndexBundle {
    /// The spatio-textual POI grid index.
    pub poi: PoiIndex,
    /// The dataset-wide photo grid.
    pub photo_grid: PhotoGrid,
}

/// Outcome of [`read_bundle`]: either the decoded bundle or a reason the
/// snapshot no longer matches the dataset/params.
#[derive(Debug)]
pub enum ReadOutcome {
    /// The snapshot matched and decoded cleanly.
    Loaded(Box<IndexBundle>),
    /// The snapshot is internally valid but was written for different
    /// dataset content or build parameters.
    Stale(String),
}

/// Builds a fresh bundle from the dataset (no I/O).
pub fn build_bundle(dataset: &Dataset, params: &BundleParams) -> IndexBundle {
    let poi = PoiIndex::build_with_threads(
        &dataset.network,
        &dataset.pois,
        params.poi_cell,
        params.threads,
    );
    let photo_grid = PhotoGrid::build_with_threads(
        &dataset.network,
        &dataset.photos,
        params.pg_cell,
        params.threads,
    );
    IndexBundle { poi, photo_grid }
}

/// Writes `bundle` to `path`, stamped with the dataset fingerprint and
/// `params`. Returns the file size in bytes.
///
/// # Errors
/// Writer-side section errors or I/O failures.
pub fn write_bundle(
    path: &Path,
    dataset: &Dataset,
    bundle: &IndexBundle,
    params: &BundleParams,
) -> Result<u64> {
    write_bundle_with(path, dataset_fingerprint(dataset), bundle, params)
}

/// [`write_bundle`] with a precomputed dataset fingerprint.
pub(super) fn write_bundle_with(
    path: &Path,
    fingerprint: u64,
    bundle: &IndexBundle,
    params: &BundleParams,
) -> Result<u64> {
    let _span = soi_obs::trace::span(soi_obs::names::spans::SNAPSHOT_WRITE);
    let start = Instant::now();
    let mut w = SnapshotWriter::new();
    w.u64s(
        "cache.meta",
        &[
            fingerprint,
            META_FLAGS,
            params.poi_cell.to_bits(),
            params.pg_cell.to_bits(),
        ],
    )?;
    write_poi_index(&mut w, "poi", &bundle.poi)?;
    write_photo_grid(&mut w, "pg", &bundle.photo_grid)?;
    let bytes = w.write_to(path)?;
    let m = crate::obs::index_metrics();
    m.snapshot_write_seconds.set(start.elapsed().as_secs_f64());
    m.snapshot_bytes.set(bytes as f64);
    m.snapshot_writes.inc();
    Ok(bytes)
}

/// Reads a bundle from `path`, verifying the dataset fingerprint and
/// `params` stamp before decoding any structure.
///
/// # Errors
/// A corrupt or invalid snapshot (`Data` category, file context attached).
/// A *stale* snapshot — valid container, different dataset or params — is
/// not an error: it returns [`ReadOutcome::Stale`].
pub fn read_bundle(path: &Path, dataset: &Dataset, params: &BundleParams) -> Result<ReadOutcome> {
    read_bundle_with(path, dataset, params, dataset_fingerprint(dataset))
}

/// [`read_bundle`] with a precomputed dataset fingerprint: the cache keys
/// snapshot *file names* by the same value, so a lookup walks the dataset
/// once.
pub(super) fn read_bundle_with(
    path: &Path,
    dataset: &Dataset,
    params: &BundleParams,
    expected: u64,
) -> Result<ReadOutcome> {
    let _span = soi_obs::trace::span(soi_obs::names::spans::SNAPSHOT_LOAD);
    let start = Instant::now();
    let snapshot = Snapshot::open(path)?;
    let meta = snapshot.u64s("cache.meta")?;
    let &[fingerprint, flags, poi_cell_bits, pg_cell_bits] = meta else {
        return Err(corrupt(
            path,
            format!(
                "`cache.meta` must hold exactly 4 values, found {}",
                meta.len()
            ),
        ));
    };
    if fingerprint != expected {
        return Ok(ReadOutcome::Stale(format!(
            "dataset fingerprint {fingerprint:016x} != expected {expected:016x}"
        )));
    }
    if flags != META_FLAGS
        || poi_cell_bits != params.poi_cell.to_bits()
        || pg_cell_bits != params.pg_cell.to_bits()
    {
        return Ok(ReadOutcome::Stale(
            "snapshot was written with different build parameters".to_string(),
        ));
    }

    let poi = read_poi_index(&snapshot, "poi", &dataset.pois)?;
    let photo_grid = read_photo_grid(&snapshot, "pg", dataset.photos.len())?;
    let m = crate::obs::index_metrics();
    m.snapshot_load_seconds.set(start.elapsed().as_secs_f64());
    m.snapshot_bytes.set(snapshot.file_len() as f64);
    m.snapshot_loads.inc();
    Ok(ReadOutcome::Loaded(Box::new(IndexBundle {
        poi,
        photo_grid,
    })))
}
