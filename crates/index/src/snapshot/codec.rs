//! Per-structure codecs: each structure's columns as typed sections under
//! a caller-chosen prefix, every invariant re-validated on the way back in.

use soi_common::{CellId, Csr, KeywordId, PoiId, Result, SegmentId};
use soi_data::PoiCollection;
use soi_geo::{Grid, Point};
use soi_network::RoadNetwork;
use soi_snapshot::{corrupt, Snapshot, SnapshotWriter};

use crate::photo_grid::PhotoGrid;
use crate::poi_index::PoiIndex;

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
