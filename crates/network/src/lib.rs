//! The road-network substrate.
//!
//! The paper models a road network as a directed graph `G = (V, L)` whose
//! vertices are street intersections or breakpoints and whose links are
//! street segments represented as line segments; each segment belongs to
//! exactly one street `s ∈ S`, a simple path of consecutive segments
//! (Sec. 3.1). This crate provides:
//!
//! - the [`Node`], [`Segment`], [`Street`] and [`SegmentRun`] records;
//! - the immutable [`RoadNetwork`] and its [`NetworkBuilder`];
//! - [`NetworkStats`]: the dataset statistics of the paper's Table 1;
//! - [`io`]: a line-oriented TSV round-trip format.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]
// Library code must surface failures as `SoiError`, never panic: unwrap and
// expect are compile errors outside of test code.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod io;
mod model;
mod network;
mod stats;

pub use model::{Node, Segment, SegmentRun, Street, RUN_LENGTH_RATIO};
pub use network::{NetworkBuilder, RoadNetwork};
pub use stats::NetworkStats;
