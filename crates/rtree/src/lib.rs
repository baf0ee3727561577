//! A static, bulk-loaded R-tree.
//!
//! The spatio-textual retrieval literature the paper builds on (Sec. 2.1,
//! e.g. the location-aware top-k text retrieval of Cong et al. \[11\])
//! integrates inverted files with an R-tree. This crate provides that
//! spatial substrate: an STR-packed (Sort-Tile-Recursive) static R-tree
//! over rectangle-bounded items with
//!
//! - rectangle **range** queries,
//! - **within-distance** queries around a point,
//! - best-first **k-nearest** queries, and
//! - per-node **summaries** (a user-defined monoid aggregated bottom-up),
//!   the hook the hybrid IR-tree in `soi-index` uses to prune
//!   subtrees without the query keywords.
//!
//! POIs and photos in this workspace are points; items with true extents
//! (e.g. street-segment bounding boxes) work the same way.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Library code must surface failures as `SoiError`, never panic: unwrap and
// expect are compile errors outside of test code.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod tree;

pub use tree::{BoundedItem, NoSummary, RTree, Summary, DEFAULT_FANOUT};
