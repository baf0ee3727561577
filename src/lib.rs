//! # streets-of-interest
//!
//! A Rust implementation of *"Identifying and Describing Streets of
//! Interest"* (Skoutas, Sacharidis, Stamatoukos — EDBT 2016): spatio-textual
//! ranking of street segments by the density of relevant Points of Interest
//! around them, and diversified photo summaries of the discovered streets.
//!
//! This crate is an umbrella over the workspace:
//!
//! - [`common`]: typed ids, fast hashing, timers ([`soi_common`]);
//! - [`geo`]: planar geometry and the uniform grid ([`soi_geo`]);
//! - [`text`]: keyword interning, sets, frequency vectors ([`soi_text`]);
//! - [`network`]: the road-network model ([`soi_network`]);
//! - [`data`]: POI/photo collections and datasets ([`soi_data`]);
//! - [`index`]: the spatio-textual indexes ([`soi_index`]);
//! - [`core`]: the SOI and ST_Rel+Div algorithms ([`soi_core`]);
//! - [`datagen`]: the synthetic city generator ([`soi_datagen`]).
//!
//! ## Quick start
//!
//! ```
//! use streets_of_interest::prelude::*;
//!
//! // Generate a small synthetic city (deterministic by seed).
//! let (dataset, _truth) = soi_datagen::generate(&soi_datagen::vienna(0.01));
//!
//! // Build the spatio-textual POI index.
//! let index = PoiIndex::build(&dataset.network, &dataset.pois, 0.001);
//!
//! // Ask for the top-5 shopping streets within ε = 0.0005°.
//! let query = SoiQuery::new(dataset.query_keywords(&["shop"]), 5, 0.0005).unwrap();
//! let outcome = run_soi(
//!     &dataset.network,
//!     &dataset.pois,
//!     &index,
//!     &query,
//!     &SoiConfig::default(),
//! )
//! .unwrap();
//! assert!(!outcome.results.is_empty());
//! println!(
//!     "top street: {}",
//!     dataset.network.street(outcome.results[0].street).name
//! );
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

// Compile-check the README's code examples as doctests.
#[doc = include_str!("../README.md")]
#[cfg(doctest)]
pub struct ReadmeDoctests;

pub use soi_common as common;
pub use soi_core as core;
pub use soi_data as data;
pub use soi_datagen as datagen;
pub use soi_geo as geo;
pub use soi_index as index;
pub use soi_network as network;
pub use soi_text as text;

/// The most commonly used items, re-exported flat.
pub mod prelude {
    pub use soi_common::{KeywordId, PhotoId, PoiId, SegmentId, StreetId};
    pub use soi_core::describe::{
        greedy_select, st_rel_div, ContextBuilder, DescribeParams, MethodSpec, PhiSource,
        StreetContext,
    };
    pub use soi_core::soi::{
        run_baseline, run_soi, AccessStrategy, SoiConfig, SoiQuery, StreetAggregate,
    };
    pub use soi_data::{Dataset, PhotoCollection, PoiCollection};
    pub use soi_datagen;
    pub use soi_geo::{Grid, LineSeg, Point, Rect};
    pub use soi_index::{DiversificationIndex, PhotoGrid, PoiIndex};
    pub use soi_network::{NetworkBuilder, NetworkStats, RoadNetwork};
    pub use soi_text::{KeywordSet, Vocabulary};
}
