//! An empty package. It held a bulk-loaded R-tree for single-POI
//! spatio-keyword retrieval, which neither of the paper's two queries uses;
//! that code is deleted. The package remains only because
//! `benchmark/Cargo.lock` records `soi-index → soi-rtree`, and it goes with
//! the next refresh of that lockfile (DESIGN.md, "Kept for the benchmark
//! lockfile").

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]
