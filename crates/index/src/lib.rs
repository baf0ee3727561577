//! Spatio-textual indexes for the streets-of-interest system.
//!
//! This crate implements the offline data structures of the paper:
//!
//! **For k-SOI identification (Sec. 3.2.1):**
//! - [`PoiIndex`]: a spatial grid over the POIs where every cell holds a
//!   local inverted index (postings sorted by POI id), plus the global
//!   inverted index mapping each keyword to `(cell, count)` entries sorted
//!   decreasingly by count (derived from the postings, on a build and a
//!   load alike); `Cε(ℓ)` (the occupied cells within ε of a segment) is
//!   derived per popped segment through [`IndexView`]. The paper's static
//!   raster maps are not kept: only `soi-core`'s paper entry reads them, and
//!   it rasterises the network per query;
//! - [`EpsilonMaps`]: `Cε(ℓ)` and `Lε(c)` (the segments within ε of a
//!   cell) built eagerly for one ε — the reference implementation the
//!   lazy paths are tested against.
//!
//! **For SOI description (Sec. 4.2.1):**
//! - [`PhotoGrid`]: a dataset-wide grid over the photos used to extract the
//!   per-street photo set `Rs = {r : dist(r, s) ≤ ε}`;
//! - [`DiversificationIndex`]: the per-street grid with cell side ρ/2 whose
//!   cells hold the photo list, the cell keyword set `c.Ψ`, and the min/max
//!   tag counts `c.ψmin` / `c.ψmax` that drive the bounds of Eqs. 11–18 —
//!   flat columns, built once per street and epoch and kept at their length.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]
// Library code must surface failures as `SoiError`, never panic: unwrap and
// expect are compile errors outside of test code.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod delta;
mod div_index;
mod epoch;
mod epsilon;
pub mod obs;
mod photo_grid;
mod poi_index;
pub mod snapshot;
mod view;

pub use delta::{fold_dataset, fold_ops, DeltaIndex, DeltaOp};
pub use div_index::{DivCell, DiversificationIndex};
pub use epoch::EpochedIndex;
pub use epsilon::EpsilonMaps;
pub use photo_grid::PhotoGrid;
pub use poi_index::{PoiCell, PoiIndex};
pub use snapshot::{
    build_bundle, dataset_fingerprint, read_bundle, write_bundle, BundleParams, CacheOutcome,
    IndexBundle, IndexCache, ReadOutcome,
};
pub use view::{mass_within, IndexView};
