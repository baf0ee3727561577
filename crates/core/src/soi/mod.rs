//! k-SOI identification: query types, the SOI algorithm, and baselines.

pub mod algorithm;
pub mod baseline;
pub mod explain;
pub mod interest;
mod lbk;
pub mod query;
mod ranked;
pub mod stats;
pub mod strategy;

pub use algorithm::{run_soi, run_soi_full, run_soi_with_scratch, SoiScratch};
pub use baseline::{brute_force, exact_street_interests, run_baseline};
pub use explain::{ExplainRow, SoiExplain};
pub use interest::{segment_interest, StreetAggregate};
pub use query::{SoiConfig, SoiOutcome, SoiQuery, StreetResult};
pub use stats::QueryStats;
pub use strategy::AccessStrategy;
