//! Shared utilities for the streets-of-interest workspace.
//!
//! This crate holds the small, dependency-free building blocks used by every
//! other crate in the workspace:
//!
//! - [`fxhash`]: an FxHash-style fast hasher plus [`FxHashMap`]/[`FxHashSet`]
//!   aliases, for the hot integer-keyed maps (grid cell keys, segment ids).
//! - [`ids`]: strongly typed `u32` identifiers ([`PoiId`], [`SegmentId`], …)
//!   so that ids of different entity kinds cannot be confused.
//! - [`ord`]: [`OrderedF64`], a total order over non-NaN floats used for
//!   ranking scores deterministically.
//! - [`timing`]: [`Stopwatch`] and [`PhaseTimer`] for the per-phase runtime
//!   breakdowns of the paper's Fig. 4.
//! - [`parallel`]: deterministic data-parallel helpers (chunked fan-out and
//!   a stable parallel sort) whose results never depend on thread count.
//! - [`bucket`]: stable counting sort over dense integer keys, the
//!   `O(n + k)` digit pass the offline index builds chain into radix sorts.
//! - [`csr`]: [`Csr`], the dense "row id → run of items" layout behind every
//!   cell / keyword / segment keyed map of the offline indexes.
//! - [`topk`]: deterministic top-k selection helpers.
//! - [`error`]: the workspace error type — structured, categorized, with
//!   source-chain context and stable CLI exit codes.
//! - [`load`]: shared ingestion policy ([`LoadMode`] strict/lenient and the
//!   per-category [`LoadReport`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Library code must surface failures as `SoiError`, never panic: unwrap and
// expect are compile errors outside of test code.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod bucket;
pub mod csr;
pub mod error;
pub mod fxhash;
pub mod ids;
pub mod load;
pub mod ord;
pub mod parallel;
pub mod timing;
pub mod topk;

pub use bucket::{bucket_sort_stable, bucket_sort_worthwhile, sort_row_keys};
pub use csr::Csr;
pub use error::{ErrorCategory, Result, ResultExt, SoiError, ValidationKind};
pub use fxhash::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use ids::{CellId, KeywordId, NodeId, PhotoId, PoiId, SegmentId, StreetId};
pub use load::{LoadMode, LoadOptions, LoadReport};
pub use ord::{f64_from_total_key, f64_total_key, OrderedF64};
pub use parallel::{
    chunk_ranges, effective_threads, par_chunk_map, par_sort_by, par_sort_unstable_by,
};
pub use timing::{PhaseTimer, Stopwatch};
pub use topk::{top_k_by_score, ScoredItem};
