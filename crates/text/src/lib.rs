//! Text processing for the streets-of-interest system.
//!
//! POIs and photos carry keyword sets (`Ψp`, `Ψr` in the paper); streets
//! carry keyword frequency vectors (`Φs`). This crate provides:
//!
//! - [`Vocabulary`]: string ↔ [`KeywordId`](soi_common::KeywordId) interning,
//!   so all hot-path keyword operations work on dense `u32` ids;
//! - [`KeywordSet`]: a sorted, deduplicated keyword-id set with the set
//!   operations the measures need (intersection counts, Jaccard distance of
//!   Definition 7);
//! - [`FreqVector`]: the keyword frequency vector `Φs` with its L1 norm
//!   (Definition 6);
//! - the k-way *distinct* union traversal over id-sorted postings lists
//!   that the paper uses to count multi-keyword matches exactly once
//!   (Sec. 3.2.2) — [`union_distinct`] over plain lists,
//!   [`union_of_postings`] over any keyword → postings lookup (the POI
//!   index's per-cell view resolves keywords in its shared CSR columns and
//!   traverses through it for BL's per-cell mass).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]
// Library code must surface failures as `SoiError`, never panic: unwrap and
// expect are compile errors outside of test code.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod freq;
mod inverted;
mod keyword_set;
mod vocab;

pub use freq::FreqVector;
pub use inverted::{union_distinct, union_of_postings, STACK_LISTS};
pub use keyword_set::{jaccard_distance_of, sorted_intersection_size, KeywordSet};
pub use vocab::Vocabulary;
