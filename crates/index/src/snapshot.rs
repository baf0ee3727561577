//! Snapshot persistence for the offline index structures.
//!
//! The structures `/soi` and `/describe` serve from — [`PoiIndex`] and
//! [`PhotoGrid`] — can be encoded into a [`soi_snapshot`] container and
//! decoded back without re-running the build. The cell-, keyword- and
//! segment-keyed maps are [`Csr`] column pairs in memory and the same two
//! columns on disk, so writing one is a copy of each column and loading one
//! is a validation pass plus a copy: a loaded index `==` the built one and
//! answers every query byte-identically.
//!
//! The module has three layers:
//!
//! 1. **Per-structure codecs** (`write_*` / `read_*`): store a structure's
//!    columns as typed sections under a caller-chosen prefix — every `Csr`
//!    through the one `write_csr` / `read_csr` pair — and re-validate
//!    every invariant on the way back in (CSR shapes, row counts against
//!    the grid, id bounds against the dataset), so a corrupt or hand-edited
//!    file is a categorized [`Data`](soi_common::ErrorCategory::Data)
//!    error, never a panic.
//! 2. **The bundle** ([`IndexBundle`], [`build_bundle`], [`write_bundle`],
//!    [`read_bundle`]): the structures `/soi` and `/describe` need for one
//!    dataset, stamped with the dataset content fingerprint and the build
//!    parameters so staleness is detected before any decode work.
//! 3. **The cache** ([`IndexCache`]): a directory of bundle snapshots keyed
//!    by `(dataset fingerprint, format version, params)`. `load_or_build`
//!    prefers the snapshot, transparently rebuilds on a miss or stale key,
//!    and — in [`CacheMode::Lenient`] — falls back to a rebuild when the
//!    snapshot is corrupt instead of failing the command.

use std::path::{Path, PathBuf};
use std::time::Instant;

use soi_common::{CellId, Csr, KeywordId, PoiId, Result, SegmentId, SoiError};
use soi_data::{Dataset, PoiCollection};
use soi_geo::{Grid, Point};
use soi_network::RoadNetwork;
use soi_snapshot::{corrupt, Fnv64, Snapshot, SnapshotWriter, FORMAT_VERSION};

use crate::photo_grid::PhotoGrid;
use crate::poi_index::{covered_extent, PoiIndex};

// ---------------------------------------------------------------------------
// Shared decode helpers
// ---------------------------------------------------------------------------

/// Checks that every id in `ids` is below `bound`.
fn check_ids_below(ids: &[u32], bound: usize, what: &str) -> std::result::Result<(), String> {
    match ids.iter().find(|&&id| id as usize >= bound) {
        Some(&id) => Err(format!("{what}: id {id} out of bounds (limit {bound})")),
        None => Ok(()),
    }
}

/// Checks that `values` holds exactly `expected` entries.
fn check_len<T>(values: &[T], expected: usize, what: &str) -> std::result::Result<(), String> {
    if values.len() == expected {
        Ok(())
    } else {
        Err(format!(
            "{what}: expected {expected} entries, found {}",
            values.len()
        ))
    }
}

/// Checks that every row of `csr` is strictly ascending (so sorted and
/// duplicate-free — what the binary searches and merges over it assume).
fn check_rows_ascending<T: Ord>(csr: &Csr<T>, what: &str) -> std::result::Result<(), String> {
    match (0..csr.rows()).find(|&r| csr.row(r).windows(2).any(|w| w[0] >= w[1])) {
        Some(r) => Err(format!("{what}: row {r} not strictly ascending")),
        None => Ok(()),
    }
}

// ---------------------------------------------------------------------------
// Grid codec
// ---------------------------------------------------------------------------

/// Writes `grid` as two sections: `{p}.gf` (`f64` origin + cell size) and
/// `{p}.gn` (`u32` cell counts).
fn write_grid(writer: &mut SnapshotWriter, prefix: &str, grid: &Grid) -> Result<()> {
    writer.f64s(
        &format!("{prefix}.gf"),
        &[grid.origin().x, grid.origin().y, grid.cell_size()],
    )?;
    writer.u32s(&format!("{prefix}.gn"), &[grid.nx(), grid.ny()])?;
    Ok(())
}

/// Reads the grid stored under `prefix`, pre-validating every
/// [`Grid::new`] precondition so the constructor cannot panic on
/// corrupt input.
fn read_grid(snapshot: &Snapshot, prefix: &str) -> Result<Grid> {
    let gf = snapshot.f64s(&format!("{prefix}.gf"))?;
    let gn = snapshot.u32s(&format!("{prefix}.gn"))?;
    let bad = |msg: String| corrupt(snapshot.path(), msg);
    let &[ox, oy, cell_size] = gf else {
        return Err(bad(format!("`{prefix}.gf` must hold exactly 3 values")));
    };
    let &[nx, ny] = gn else {
        return Err(bad(format!("`{prefix}.gn` must hold exactly 2 values")));
    };
    if !(cell_size > 0.0 && cell_size.is_finite()) {
        return Err(bad(format!("`{prefix}`: cell size {cell_size} invalid")));
    }
    if !(ox.is_finite() && oy.is_finite()) {
        return Err(bad(format!("`{prefix}`: non-finite grid origin")));
    }
    if nx == 0 || ny == 0 {
        return Err(bad(format!("`{prefix}`: zero-cell grid axis")));
    }
    if (nx as u64) * (ny as u64) > u32::MAX as u64 {
        return Err(bad(format!("`{prefix}`: grid {nx}x{ny} exceeds CellId")));
    }
    Ok(Grid::new(Point::new(ox, oy), cell_size, nx, ny))
}

// ---------------------------------------------------------------------------
// Csr codec
// ---------------------------------------------------------------------------

/// Writes `csr` as its two columns: `{p}.s` (the `rows + 1` row starts)
/// and `{p}.i` (the items as raw `u32` ids).
fn write_csr<T: Copy + Into<u32>>(
    writer: &mut SnapshotWriter,
    prefix: &str,
    csr: &Csr<T>,
) -> Result<()> {
    let items: Vec<u32> = csr.items().iter().map(|&item| item.into()).collect();
    writer.u32s(&format!("{prefix}.s"), csr.starts())?;
    writer.u32s(&format!("{prefix}.i"), &items)
}

/// Reads the `rows`-row map stored under `prefix` by [`write_csr`]: one
/// validation pass (row count, offset shape, every item id below
/// `item_bound`) and one copy per column — nothing per row.
fn read_csr<T: From<u32>>(
    snapshot: &Snapshot,
    prefix: &str,
    rows: usize,
    item_bound: usize,
    what: &str,
) -> Result<Csr<T>> {
    let starts = snapshot.u32s(&format!("{prefix}.s"))?;
    let items = snapshot.u32s(&format!("{prefix}.i"))?;
    check_ids_below(items, item_bound, what)
        .and_then(|()| {
            let items = items.iter().map(|&id| T::from(id)).collect();
            Csr::from_parts(rows, starts.to_vec(), items, what)
        })
        .map_err(|msg| corrupt(snapshot.path(), msg))
}

// ---------------------------------------------------------------------------
// PoiIndex codec
// ---------------------------------------------------------------------------

/// Writes the full [`PoiIndex`] under `prefix`.
///
/// # Errors
/// Writer-side section errors.
pub fn write_poi_index(writer: &mut SnapshotWriter, prefix: &str, index: &PoiIndex) -> Result<()> {
    write_grid(writer, prefix, &index.grid)?;
    write_csr(writer, &format!("{prefix}.cp"), &index.cell_pois)?;
    writer.f64s(&format!("{prefix}.cw"), &index.total_weight)?;
    write_csr(writer, &format!("{prefix}.ck"), &index.cell_kws)?;
    write_csr(writer, &format!("{prefix}.rd"), &index.run_docs)?;

    // The global lists hold (cell, weight) pairs: the shared row starts,
    // then one column per half.
    let (gcell, gwt): (Vec<u32>, Vec<f64>) = index
        .global
        .items()
        .iter()
        .map(|&(c, w)| (c.raw(), w))
        .unzip();
    writer.u32s(&format!("{prefix}.g.s"), index.global.starts())?;
    writer.u32s(&format!("{prefix}.g.i"), &gcell)?;
    writer.f64s(&format!("{prefix}.gw"), &gwt)?;

    let slen: Vec<u32> = index.segments_by_len.iter().map(|s| s.raw()).collect();
    writer.u32s(&format!("{prefix}.slen"), &slen)?;
    write_csr(writer, &format!("{prefix}.r"), &index.raster)
}

/// Reads a [`PoiIndex`] stored under `prefix`, validating every column
/// against the grid, the other columns, and the dataset (the POIs of
/// `pois`, the segments of `network`), then deriving the slot columns —
/// which are not stored — from the validated ones and `pois`, as a build
/// does.
///
/// # Errors
/// Missing sections, violated invariants, or out-of-bounds ids
/// (`Data` category).
pub fn read_poi_index(
    snapshot: &Snapshot,
    prefix: &str,
    pois: &PoiCollection,
    network: &RoadNetwork,
) -> Result<PoiIndex> {
    let (num_pois, num_segments) = (pois.len(), network.num_segments());
    let grid = read_grid(snapshot, prefix)?;
    let num_cells = grid.num_cells();
    let bad = |msg: String| corrupt(snapshot.path(), msg);

    let cell_pois: Csr<PoiId> = read_csr(
        snapshot,
        &format!("{prefix}.cp"),
        num_cells,
        num_pois,
        "poi cell members",
    )?;
    // Ascending members make ascending slot ascending id: the order the
    // derived slot columns, and the masses summed over them, rely on.
    check_rows_ascending(&cell_pois, "poi cell members").map_err(bad)?;
    let total_weight = snapshot.f64s(&format!("{prefix}.cw"))?;
    check_len(total_weight, num_cells, "poi cell weights").map_err(bad)?;

    // Global lists first: their row count is the keyword id space the run
    // directory is checked against.
    let gstart = snapshot.u32s(&format!("{prefix}.g.s"))?;
    let gcell = snapshot.u32s(&format!("{prefix}.g.i"))?;
    let gwt = snapshot.f64s(&format!("{prefix}.gw"))?;
    check_ids_below(gcell, num_cells, "global cells").map_err(bad)?;
    check_len(gwt, gcell.len(), "global weights").map_err(bad)?;
    let global = Csr::from_parts(
        gstart.len().saturating_sub(1),
        gstart.to_vec(),
        gcell
            .iter()
            .zip(gwt)
            .map(|(&c, &w)| (CellId(c), w))
            .collect(),
        "global index",
    )
    .map_err(bad)?;

    // The local inverted indexes: the binary search over a cell's keywords
    // and the sorted-list union over its runs need ascending rows, and a
    // run exists only for a keyword some POI of the cell carries.
    let cell_kws: Csr<KeywordId> = read_csr(
        snapshot,
        &format!("{prefix}.ck"),
        num_cells,
        global.rows(),
        "poi run directory",
    )?;
    check_rows_ascending(&cell_kws, "poi run directory").map_err(bad)?;
    let run_docs: Csr<PoiId> = read_csr(
        snapshot,
        &format!("{prefix}.rd"),
        cell_kws.items().len(),
        num_pois,
        "poi postings docs",
    )?;
    if let Some(run) = (0..run_docs.rows()).find(|&r| run_docs.is_empty_row(r)) {
        return Err(bad(format!("poi postings docs: run {run} is empty")));
    }
    check_rows_ascending(&run_docs, "poi postings docs").map_err(bad)?;

    let slen = snapshot.u32s(&format!("{prefix}.slen"))?;
    check_len(slen, num_segments, "segment length list").map_err(bad)?;
    check_ids_below(slen, num_segments, "segment length list").map_err(bad)?;
    let segments_by_len: Vec<SegmentId> = slen.iter().map(|&s| SegmentId(s)).collect();
    // SL3's order, whose head the paper's bound reads: strictly ascending
    // in (length, id) with as many ids as segments, all in range, is a
    // permutation.
    let len = |s: SegmentId| network.segment(s).len();
    let out_of_order = segments_by_len.windows(2).find(|w| {
        len(w[0])
            .total_cmp(&len(w[1]))
            .then(w[0].cmp(&w[1]))
            .is_ge()
    });
    if let Some(w) = out_of_order {
        return Err(bad(format!(
            "segment length list: segment {} follows segment {} out of (length, id) order",
            w[1].0, w[0].0
        )));
    }

    let raster = read_csr(
        snapshot,
        &format!("{prefix}.r"),
        num_cells,
        num_segments,
        "raster map",
    )?;

    let index = PoiIndex::from_columns(
        grid,
        cell_pois,
        total_weight.to_vec(),
        cell_kws,
        run_docs,
        global,
        segments_by_len,
        raster,
        pois,
    )
    .map_err(bad)?;
    index.check_weight_sums().map_err(bad)?;
    Ok(index)
}

// ---------------------------------------------------------------------------
// PhotoGrid codec
// ---------------------------------------------------------------------------

/// Writes the [`PhotoGrid`] under `prefix`.
///
/// # Errors
/// Writer-side section errors.
pub fn write_photo_grid(writer: &mut SnapshotWriter, prefix: &str, grid: &PhotoGrid) -> Result<()> {
    write_grid(writer, prefix, &grid.grid)?;
    write_csr(writer, &format!("{prefix}.ph"), &grid.cells)
}

/// Reads a [`PhotoGrid`] stored under `prefix` (`num_photos` bounds the
/// photo ids).
///
/// # Errors
/// Missing sections or violated invariants (`Data` category).
pub fn read_photo_grid(snapshot: &Snapshot, prefix: &str, num_photos: usize) -> Result<PhotoGrid> {
    let grid = read_grid(snapshot, prefix)?;
    let cells = read_csr(
        snapshot,
        &format!("{prefix}.ph"),
        grid.num_cells(),
        num_photos,
        "photo-grid members",
    )?;
    Ok(PhotoGrid { grid, cells })
}

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
fn write_bundle_with(
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
fn read_bundle_with(
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

    let poi = read_poi_index(&snapshot, "poi", &dataset.pois, &dataset.network)?;
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

// ---------------------------------------------------------------------------
// Delta-log replay
// ---------------------------------------------------------------------------

/// Folds a delta-ops log into `base`, one [`fold_ops`](crate::fold_ops)
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
/// [`fold_ops`](crate::fold_ops) validation failure (with the 1-based log
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
                crate::delta::DeltaOp::parse_line(line.as_ref(), &base.vocab).map_err(|e| {
                    SoiError::invalid(format!("delta log line {}: {e}", prev + i + 1))
                })?,
            );
        }
        let (next_pois, next_photos) = crate::delta::fold_ops(&pois, &photos, &ops)
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

// ---------------------------------------------------------------------------
// Index cache
// ---------------------------------------------------------------------------

/// How the cache reacts to a corrupt snapshot — or, in
/// [`IndexCache::load_or_build`], one whose stamp disagrees with the cache
/// key in its file name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheMode {
    /// A corrupt snapshot fails the command (`Data` error, exit code 3).
    Strict,
    /// A corrupt snapshot is discarded and the index rebuilt and re-written
    /// transparently. The default.
    Lenient,
}

/// What [`IndexCache::load_or_build`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// The bundle was decoded from an up-to-date snapshot.
    Hit,
    /// No usable snapshot existed; the bundle was built fresh and a new
    /// snapshot written.
    MissBuilt,
    /// The snapshot existed but failed validation or carried a stale
    /// stamp; lenient mode rebuilt and re-wrote it.
    RebuiltCorrupt,
}

/// A directory of bundle snapshots keyed by dataset fingerprint, container
/// format version, and build parameters.
#[derive(Debug, Clone)]
pub struct IndexCache {
    dir: PathBuf,
    mode: CacheMode,
}

impl IndexCache {
    /// A cache rooted at `dir` (created on first use).
    pub fn new(dir: impl Into<PathBuf>, mode: CacheMode) -> Self {
        Self {
            dir: dir.into(),
            mode,
        }
    }

    /// The cache directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The snapshot path for `dataset` under `params`. The file name folds
    /// in the dataset fingerprint, the container format version, and the
    /// parameter stamp, so any change produces a different file (stale
    /// snapshots are simply never opened).
    pub fn snapshot_path(&self, dataset: &Dataset, params: &BundleParams) -> PathBuf {
        self.snapshot_path_with(dataset, params, dataset_fingerprint(dataset))
    }

    /// [`IndexCache::snapshot_path`] with a precomputed dataset fingerprint.
    fn snapshot_path_with(
        &self,
        dataset: &Dataset,
        params: &BundleParams,
        fingerprint: u64,
    ) -> PathBuf {
        let key = snapshot_key(fingerprint, params);
        let name = sanitised_stem(&dataset.name);
        self.dir.join(format!("{name}-{key:016x}.soisnap"))
    }

    /// Writes `bundle` as `dataset`'s snapshot under `params` — the file
    /// [`IndexCache::load_or_build`] finds for that dataset — and returns
    /// its path. One fingerprint walk names the file and stamps it.
    ///
    /// # Errors
    /// I/O failures creating the directory or writing the snapshot.
    pub fn store(
        &self,
        dataset: &Dataset,
        bundle: &IndexBundle,
        params: &BundleParams,
    ) -> Result<PathBuf> {
        std::fs::create_dir_all(&self.dir).map_err(|e| SoiError::io(e, self.dir.clone()))?;
        let fingerprint = dataset_fingerprint(dataset);
        let path = self.snapshot_path_with(dataset, params, fingerprint);
        write_bundle_with(&path, fingerprint, bundle, params)?;
        Ok(path)
    }

    /// Loads the bundle from the cache, or builds (and persists) it.
    ///
    /// # Errors
    /// I/O failures creating the directory or writing the snapshot; in
    /// [`CacheMode::Strict`], also any corrupt or stale snapshot.
    pub fn load_or_build(
        &self,
        dataset: &Dataset,
        params: &BundleParams,
    ) -> Result<(IndexBundle, CacheOutcome)> {
        std::fs::create_dir_all(&self.dir).map_err(|e| SoiError::io(e, self.dir.clone()))?;
        // One dataset walk covers both the cache key and the staleness
        // check inside the snapshot: the fingerprint is the expensive part
        // of a cache hit after the decode itself.
        let fingerprint = dataset_fingerprint(dataset);
        let path = self.snapshot_path_with(dataset, params, fingerprint);
        let mut outcome = CacheOutcome::MissBuilt;
        if path.exists() {
            let err = match read_bundle_with(&path, dataset, params, fingerprint) {
                Ok(ReadOutcome::Loaded(bundle)) => return Ok((*bundle, CacheOutcome::Hit)),
                // Key-hashed file names make a stale stamp near-impossible:
                // a file whose stamp disagrees with its own name (an older
                // writer's flags word, say) is answered like a corrupt one.
                Ok(ReadOutcome::Stale(why)) => {
                    corrupt(&path, format!("stale under its own cache key: {why}"))
                }
                Err(e) => e,
            };
            if self.mode == CacheMode::Strict {
                return Err(err);
            }
            outcome = CacheOutcome::RebuiltCorrupt;
        }
        crate::obs::index_metrics().snapshot_rebuilds.inc();
        let bundle = build_bundle(dataset, params);
        write_bundle_with(&path, fingerprint, &bundle, params)?;
        Ok((bundle, outcome))
    }
}

/// The content part of a snapshot file key: fingerprint, format version
/// and build params.
fn snapshot_key(fingerprint: u64, params: &BundleParams) -> u64 {
    let mut h = Fnv64::new();
    h.write_u64(fingerprint);
    h.write_u32(FORMAT_VERSION);
    h.write_f64(params.poi_cell);
    h.write_f64(params.pg_cell);
    h.finish()
}

/// A dataset name reduced to a filesystem-safe snapshot file stem.
fn sanitised_stem(name: &str) -> String {
    name.chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .take(48)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use soi_data::{PhotoCollection, PoiCollection};
    use soi_network::RoadNetwork;
    use soi_text::{KeywordSet, Vocabulary};

    fn temp_path(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("soi-idxsnap-{}-{name}.soisnap", std::process::id()))
    }

    fn kws(ids: &[u32]) -> KeywordSet {
        KeywordSet::from_ids(ids.iter().map(|&i| KeywordId(i)))
    }

    fn sample_dataset() -> Dataset {
        let mut b = RoadNetwork::builder();
        b.add_street_from_points(
            "Alpha",
            &[
                Point::new(0.0, 0.0),
                Point::new(4.0, 0.0),
                Point::new(4.0, 4.0),
            ],
        );
        b.add_street_from_points("Beta", &[Point::new(0.0, 2.0), Point::new(6.0, 2.0)]);
        let network = b.build().unwrap();

        let mut vocab = Vocabulary::new();
        for term in ["cafe", "bar", "museum", "park", "shop"] {
            vocab.intern(term);
        }
        let mut pois = PoiCollection::new();
        let mut x: u64 = 0x5EED_0123_4567_89AB;
        for _ in 0..60 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let px = (x % 600) as f64 / 100.0;
            let py = ((x >> 17) % 400) as f64 / 100.0;
            let k1 = (x % 5) as u32;
            let k2 = ((x >> 23) % 5) as u32;
            pois.add_weighted(Point::new(px, py), kws(&[k1, k2]), 1.0 + (x % 3) as f64);
        }
        let mut photos = PhotoCollection::new();
        for _ in 0..80 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let px = (x % 600) as f64 / 100.0;
            let py = ((x >> 17) % 400) as f64 / 100.0;
            let k1 = (x % 5) as u32;
            photos.add(Point::new(px, py), kws(&[k1]));
        }
        Dataset::new("sample", network, vocab, pois, photos)
    }

    fn params() -> BundleParams {
        BundleParams {
            poi_cell: 0.5,
            pg_cell: 0.5,
            eps: None,
            with_ir: false,
            threads: 1,
        }
    }

    #[test]
    fn poi_index_round_trips() {
        let ds = sample_dataset();
        let index = PoiIndex::build(&ds.network, &ds.pois, 0.5);
        let path = temp_path("poi");
        let mut w = SnapshotWriter::new();
        write_poi_index(&mut w, "poi", &index).unwrap();
        w.write_to(&path).unwrap();
        let snap = Snapshot::open(&path).unwrap();
        let back = read_poi_index(&snap, "poi", &ds.pois, &ds.network).unwrap();
        std::fs::remove_file(&path).ok();
        assert!(index == back, "the loaded index must equal the built one");
    }

    #[test]
    fn photo_grid_round_trips() {
        let ds = sample_dataset();
        let grid = PhotoGrid::build(&ds.network, &ds.photos, 0.5);
        let path = temp_path("pg");
        let mut w = SnapshotWriter::new();
        write_photo_grid(&mut w, "pg", &grid).unwrap();
        w.write_to(&path).unwrap();
        let snap = Snapshot::open(&path).unwrap();
        let back = read_photo_grid(&snap, "pg", ds.photos.len()).unwrap();
        std::fs::remove_file(&path).ok();
        assert!(grid == back, "the loaded grid must equal the built one");
    }

    #[test]
    fn bundle_round_trips_whatever_eps_and_with_ir_say() {
        let ds = sample_dataset();
        let without = params();
        let with = BundleParams {
            eps: Some(0.4),
            with_ir: true,
            ..without
        };
        // `eps` and `with_ir` are inert: a bundle written under either
        // value loads under the other, keeps its cache key, and no
        // section belongs to either.
        assert_eq!(snapshot_key(7, &with), snapshot_key(7, &without));
        for (written, read) in [(with, without), (without, with)] {
            let bundle = build_bundle(&ds, &written);
            let path = temp_path("bundle");
            write_bundle(&path, &ds, &bundle, &written).unwrap();
            let sections = Snapshot::open(&path).unwrap();
            assert!(sections
                .sections()
                .iter()
                .all(|s| !s.name.starts_with("eps") && !s.name.starts_with("ir")));
            let ReadOutcome::Loaded(back) = read_bundle(&path, &ds, &read).unwrap() else {
                panic!("freshly written bundle reported stale");
            };
            std::fs::remove_file(&path).ok();
            assert!(bundle.poi == back.poi && bundle.photo_grid == back.photo_grid);
        }
    }

    #[test]
    fn stale_fingerprint_and_params_detected() {
        let ds = sample_dataset();
        let p = params();
        let bundle = build_bundle(&ds, &p);
        let path = temp_path("stale");
        write_bundle(&path, &ds, &bundle, &p).unwrap();

        // Changed dataset content → stale.
        let mut changed = ds.clone();
        changed.pois.add(Point::new(1.0, 1.0), kws(&[0]));
        assert!(matches!(
            read_bundle(&path, &changed, &p).unwrap(),
            ReadOutcome::Stale(_)
        ));

        // Changed params → stale.
        let p2 = BundleParams { poi_cell: 0.7, ..p };
        assert!(matches!(
            read_bundle(&path, &ds, &p2).unwrap(),
            ReadOutcome::Stale(_)
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn cache_hit_miss_and_corruption_modes() {
        let ds = sample_dataset();
        let p = params();
        let dir = std::env::temp_dir().join(format!("soi-idxcache-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();

        let cache = IndexCache::new(&dir, CacheMode::Lenient);
        let (_, outcome) = cache.load_or_build(&ds, &p).unwrap();
        assert_eq!(outcome, CacheOutcome::MissBuilt);
        let (hit, outcome) = cache.load_or_build(&ds, &p).unwrap();
        assert_eq!(outcome, CacheOutcome::Hit);
        assert!(build_bundle(&ds, &p).poi == hit.poi);

        // Corrupt one payload byte: lenient rebuilds, strict errors.
        let path = cache.snapshot_path(&ds, &p);
        let snap = Snapshot::open(&path).unwrap();
        let offset = snap.sections()[0].offset as usize;
        drop(snap);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[offset] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();

        let strict = IndexCache::new(&dir, CacheMode::Strict);
        let err = strict.load_or_build(&ds, &p).unwrap_err();
        assert_eq!(err.category(), soi_common::ErrorCategory::Data);
        assert_eq!(err.category().exit_code(), 3);

        let (_, outcome) = cache.load_or_build(&ds, &p).unwrap();
        assert_eq!(outcome, CacheOutcome::RebuiltCorrupt);
        // The rewrite healed the cache.
        let (_, outcome) = cache.load_or_build(&ds, &p).unwrap();
        assert_eq!(outcome, CacheOutcome::Hit);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fingerprint_tracks_content() {
        let ds = sample_dataset();
        let base = dataset_fingerprint(&ds);
        assert_eq!(base, dataset_fingerprint(&ds.clone()));
        let mut renamed = ds.clone();
        renamed.name = "other".to_string();
        assert_ne!(base, dataset_fingerprint(&renamed));
        let mut more_photos = ds.clone();
        more_photos.photos.add(Point::new(0.5, 0.5), kws(&[1]));
        assert_ne!(base, dataset_fingerprint(&more_photos));
    }

    #[test]
    fn ingested_cache_replays_only_newer_deltas() {
        let ds = sample_dataset();
        let p = params();
        let dir = std::env::temp_dir().join(format!("soi-ingcache-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let cache = IndexCache::new(&dir, CacheMode::Lenient);

        let log: Vec<String> = vec![
            r#"{"op":"add_poi","x":1.0,"y":1.0,"kw":["cafe"],"weight":2.0}"#.into(),
            r#"{"op":"add_photo","x":2.0,"y":1.0,"tags":["museum"]}"#.into(),
            r#"{"op":"del_poi","id":3}"#.into(),
        ];
        // A folded dataset's bundle is an ordinary snapshot, filed under the
        // folded content's own key.
        let folded = fold_dataset(&ds, &log, &[3]).unwrap();
        assert_eq!(folded.pois.len(), ds.pois.len()); // +1 add, -1 delete
        assert_eq!(folded.photos.len(), ds.photos.len() + 1);
        let built = build_bundle(&folded, &p);
        let path = cache.store(&folded, &built, &p).unwrap();
        assert_eq!(path, cache.snapshot_path(&folded, &p));
        assert_ne!(path, cache.snapshot_path(&ds, &p));

        // A longer log folded at the same point: a hit on the folded
        // content; the newer line stays pending for the caller to seal.
        let mut longer = log.clone();
        longer.push(r#"{"op":"add_photo","x":3.0,"y":1.0,"tags":["park"]}"#.into());
        let replayed = fold_dataset(&ds, &longer, &[3]).unwrap();
        assert_eq!(replayed.photos.len(), ds.photos.len() + 1);
        let (hit, outcome) = cache.load_or_build(&replayed, &p).unwrap();
        assert_eq!(outcome, CacheOutcome::Hit);
        assert!(built.poi == hit.poi && built.photo_grid == hit.photo_grid);

        // A rewritten prefix folds to other content: a miss, under its own
        // key.
        let mut rewritten = log.clone();
        rewritten[0] = r#"{"op":"add_poi","x":1.5,"y":1.0,"kw":["bar"]}"#.into();
        let other = fold_dataset(&ds, &rewritten, &[3]).unwrap();
        let (_, outcome) = cache.load_or_build(&other, &p).unwrap();
        assert_eq!(outcome, CacheOutcome::MissBuilt);
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 2);

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fold_dataset_honours_boundaries() {
        let ds = sample_dataset();
        let n = ds.pois.len() as u32;
        // Epoch 1 adds a POI; epoch 2 deletes it *by its post-fold id*
        // (fold keeps ascending order, so the add lands at index n).
        let log = [
            r#"{"op":"add_poi","x":1.0,"y":1.0,"kw":["cafe"]}"#.to_string(),
            format!(r#"{{"op":"del_poi","id":{n}}}"#),
        ];
        let folded = fold_dataset(&ds, &log, &[1, 2]).unwrap();
        assert_eq!(folded.pois.len(), ds.pois.len());
        // As one batch the same two lines also cancel out (the delete
        // targets the pending add), so both interpretations agree here…
        let single = fold_dataset(&ds, &log, &[2]).unwrap();
        assert_eq!(single.pois.len(), ds.pois.len());
        // No boundaries: nothing is applied — the tail is all pending.
        assert_eq!(
            fold_dataset(&ds, &log, &[]).unwrap().pois.len(),
            ds.pois.len()
        );
        // Out-of-range boundary is rejected.
        assert!(fold_dataset(&ds, &log, &[3]).is_err());
        // Boundaries that go backwards are rejected.
        assert!(fold_dataset(&ds, &log, &[2, 1]).is_err());
    }

    #[test]
    fn out_of_bounds_ids_rejected() {
        let ds = sample_dataset();
        let index = PoiIndex::build(&ds.network, &ds.pois, 0.5);
        let path = temp_path("oob");
        let mut w = SnapshotWriter::new();
        write_poi_index(&mut w, "poi", &index).unwrap();
        w.write_to(&path).unwrap();
        let snap = Snapshot::open(&path).unwrap();
        // A collection holding fewer POIs than the postings reference.
        let mut one = PoiCollection::new();
        one.add(Point::new(0.0, 0.0), kws(&[0]));
        let err = read_poi_index(&snap, "poi", &one, &ds.network).unwrap_err();
        assert_eq!(err.category(), soi_common::ErrorCategory::Data);
        std::fs::remove_file(&path).ok();
    }
}
