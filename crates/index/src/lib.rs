//! Spatio-textual indexes for the streets-of-interest system.
//!
//! This crate implements the offline data structures of the paper:
//!
//! **For k-SOI identification (Sec. 3.2.1):**
//! - [`PoiIndex`]: a spatial grid over the POIs where every cell holds a
//!   local inverted index (postings sorted by POI id), plus the global
//!   inverted index mapping each keyword to `(cell, count)` entries sorted
//!   decreasingly by count and the raster cell↔segment maps (both derived
//!   from the postings and the network, on a build and a load alike),
//!   augmented by ε lazily at query time — `Lε(c)`
//!   (segments within ε of a cell) and `Cε(ℓ)` (cells within ε of a
//!   segment) are derived per popped cell or segment;
//! - [`EpsilonMaps`]: the same two maps built eagerly for one ε — the
//!   reference implementation the lazy path is tested against.
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
// Library code must surface failures as `SoiError`, never panic: unwrap and
// expect are compile errors outside of test code.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod delta;
pub mod div_index;
pub mod epoch;
pub mod epsilon;
pub mod obs;
pub mod photo_grid;
pub mod poi_index;
pub mod snapshot;
pub mod view;

pub use delta::{fold_dataset, fold_ops, DeltaIndex, DeltaOp};
pub use div_index::{DivCell, DiversificationIndex};
pub use epoch::EpochedIndex;
pub use epsilon::EpsilonMaps;
pub use photo_grid::PhotoGrid;
pub use poi_index::{PoiCell, PoiIndex};
pub use snapshot::{
    build_bundle, dataset_fingerprint, read_bundle, write_bundle, BundleParams, CacheMode,
    CacheOutcome, IndexBundle, IndexCache, ReadOutcome,
};
pub use view::{mass_within, IndexView};
