//! Shared utilities for the streets-of-interest workspace.
//!
//! This crate holds the small, dependency-free building blocks used by every
//! other crate in the workspace:
//!
//! - [`FxHasher`] with the [`FxHashMap`]/[`FxHashSet`] aliases: an
//!   FxHash-style fast hasher for the hot integer-keyed maps (grid cell
//!   keys, segment ids).
//! - Strongly typed `u32` identifiers ([`PoiId`], [`SegmentId`], …) so that
//!   ids of different entity kinds cannot be confused.
//! - [`OrderedF64`], a total order over non-NaN floats used for ranking
//!   scores deterministically.
//! - [`PhaseTimer`] for the per-phase runtime breakdowns of the paper's
//!   Fig. 4.
//! - Deterministic data-parallel helpers ([`par_chunk_map`],
//!   [`par_sort_unstable_by`]) whose results never depend on thread count.
//! - [`bucket_sort_stable`]: stable counting sort over dense integer keys,
//!   the `O(n + k)` digit pass the offline index builds chain into radix
//!   sorts.
//! - [`Csr`], the dense "row id → run of items" layout behind every cell /
//!   keyword / segment keyed map of the offline indexes.
//! - [`top_k_by_score`]: deterministic top-k selection.
//! - [`SoiError`]: the workspace error type — structured, categorized, with
//!   source-chain context and stable CLI exit codes.
//! - [`record`]: the line, field-count and coordinate helpers every TSV
//!   reader of a dataset parses its records with.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]
// Library code must surface failures as `SoiError`, never panic: unwrap and
// expect are compile errors outside of test code.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod bucket;
mod csr;
mod error;
mod fxhash;
mod ids;
mod ord;
mod parallel;
pub mod record;
mod timing;
mod topk;

pub use bucket::{bucket_sort_stable, bucket_sort_worthwhile, sort_row_keys};
pub use csr::Csr;
pub use error::{ErrorCategory, Result, ResultExt, SoiError, ValidationKind};
pub use fxhash::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use ids::{CellId, KeywordId, NodeId, PhotoId, PoiId, SegmentId, StreetId};
pub use ord::OrderedF64;
pub use parallel::{chunk_ranges, effective_threads, par_chunk_map, par_sort_unstable_by};
pub use timing::PhaseTimer;
pub use topk::{top_k_by_score, ScoredItem};
