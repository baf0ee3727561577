//! Synthetic city generator.
//!
//! The paper evaluates on real crowdsourced data (road networks from
//! OpenStreetMap; POIs from DBpedia, OSM, Wikimapia, Foursquare; photos
//! from Flickr and Panoramio) for London, Berlin, and Vienna (Table 1).
//! Those extracts are not redistributable, so this crate synthesises
//! datasets with the same statistical features the algorithms are
//! sensitive to:
//!
//! - a jittered block-grid **road network** with named multi-segment
//!   streets, breakpoint subdivisions (very short segments), and long
//!   radial avenues (very long segments) — matching Table 1's segment
//!   count and length-range shape at a configurable scale;
//! - **POIs** with category-structured keyword sets whose per-category
//!   shares reproduce the growth of relevant-POI counts in Table 4
//!   (religion ⊂ +education ⊂ +food ⊂ +services), plus planted
//!   high-density *destination streets* per category that serve as ground
//!   truth for the Table 2 effectiveness study;
//! - **photos** with the pathologies Figure 3 exhibits: near-duplicate
//!   landmark bursts (the "HMV effect"), single-event tag floods (the
//!   "demonstration effect"), tourist photos along popular streets, and
//!   background noise.
//!
//! Everything is driven by a single seed: the same [`CityConfig`] always
//! produces the same dataset.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod city;
mod network_gen;
mod photo_gen;
mod poi_gen;
mod vocab;

pub use city::{berlin, generate, london, vienna, CityConfig, GroundTruth};
pub use vocab::{CategorySpec, CATEGORIES};
