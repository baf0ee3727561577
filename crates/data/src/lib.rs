//! Dataset types for the streets-of-interest system.
//!
//! A dataset per the paper (Sec. 3.1, 4.1) consists of a road network `G`
//! with streets `S`, a POI set `P` (each POI a location plus keyword set
//! `Ψp`), and a photo set `R` (location plus tag set `Ψr`). This crate holds
//! the record types and collections, the combined [`Dataset`] container, and
//! a TSV persistence format.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Library code must surface failures as `SoiError`, never panic: unwrap and
// expect are compile errors outside of test code.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod dataset;
pub mod io;
pub mod photo;
pub mod poi;
pub mod view;

pub use dataset::Dataset;
pub use photo::{Photo, PhotoCollection};
pub use poi::{Poi, PoiCollection};
pub use view::{PhotoView, PoiView};
