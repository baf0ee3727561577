//! Per-structure codecs: each structure's columns as typed sections under
//! a caller-chosen prefix, every invariant re-validated on the way back in.

use soi_common::{Csr, KeywordId, PoiId, Result};
use soi_data::PoiCollection;
use soi_geo::{Grid, Point};
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

/// Writes the [`PoiIndex`]'s primary columns under `prefix`: the grid, the
/// cell members, the run directory and the postings. The rest is derived
/// on load.
///
/// # Errors
/// Writer-side section errors.
pub fn write_poi_index(writer: &mut SnapshotWriter, prefix: &str, index: &PoiIndex) -> Result<()> {
    write_grid(writer, prefix, &index.grid)?;
    write_csr(writer, &format!("{prefix}.cp"), &index.cell_pois)?;
    write_csr(writer, &format!("{prefix}.ck"), &index.cell_kws)?;
    write_csr(writer, &format!("{prefix}.rs"), &index.run_slots)
}

/// Reads a [`PoiIndex`] stored under `prefix`, validating every stored
/// column against the grid, the other columns and the POIs of `pois`, then
/// handing them to `PoiIndex::from_columns`, which derives the coordinate
/// column, the cell totals and the global lists from them, as a build does.
///
/// # Errors
/// Missing sections, violated invariants, or out-of-bounds ids
/// (`Data` category).
pub fn read_poi_index(snapshot: &Snapshot, prefix: &str, pois: &PoiCollection) -> Result<PoiIndex> {
    let grid = read_grid(snapshot, prefix)?;
    let num_cells = grid.num_cells();
    let bad = |msg: String| corrupt(snapshot.path(), msg);

    let cell_pois: Csr<PoiId> = read_csr(
        snapshot,
        &format!("{prefix}.cp"),
        num_cells,
        pois.len(),
        "poi cell members",
    )?;
    // Ascending members make ascending slot ascending id: the order the
    // postings, and the masses and totals summed over them, rely on.
    check_rows_ascending(&cell_pois, "poi cell members").map_err(bad)?;

    // The local inverted indexes: the binary search over a cell's keywords
    // and the sorted-list union over its runs need ascending rows. That a
    // run's keyword is one some POI carries, `from_columns` checks as it
    // derives the global lists over the POIs' keyword ids.
    let cell_kws: Csr<KeywordId> = read_csr(
        snapshot,
        &format!("{prefix}.ck"),
        num_cells,
        usize::MAX,
        "poi run directory",
    )?;
    check_rows_ascending(&cell_kws, "poi run directory").map_err(bad)?;
    let run_slots: Csr<u32> = read_csr(
        snapshot,
        &format!("{prefix}.rs"),
        cell_kws.items().len(),
        cell_pois.items().len(),
        "poi postings",
    )?;
    check_rows_ascending(&run_slots, "poi postings").map_err(bad)?;
    // A run is a non-empty ascending list of its own cell's slots: its
    // first and last slot bound the rest.
    for cell in 0..num_cells {
        let slots = cell_pois.row_range(cell);
        for run in cell_kws.row_range(cell) {
            let row = run_slots.row(run);
            let (Some(&first), Some(&last)) = (row.first(), row.last()) else {
                return Err(bad(format!("poi postings: run {run} is empty")));
            };
            if !slots.contains(&(first as usize)) || !slots.contains(&(last as usize)) {
                return Err(bad(format!(
                    "poi postings: run {run} of cell {cell} holds a slot outside {slots:?}"
                )));
            }
        }
    }

    PoiIndex::from_columns(grid, cell_pois, cell_kws, run_slots, pois).map_err(bad)
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
