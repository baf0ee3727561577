//! k-SOI identification: query types, the SOI algorithm, and the
//! reference entries the tests hold it to: the paper's Alg. 1 as stated
//! ([`paper::run_soi_paper`]), the baseline BL and brute force.

mod algorithm;
mod baseline;
mod bound;
mod explain;
mod interest;
mod lbk;
pub mod paper;
mod query;
mod ranked;
pub mod stats;

pub use algorithm::{run_soi, run_soi_full, run_soi_with_scratch, SoiScratch};
pub use baseline::{brute_force, exact_street_interests, run_baseline};
pub use explain::{ExplainRow, SoiExplain};
pub use interest::{segment_interest, StreetAggregate};
pub use query::{SoiConfig, SoiOutcome, SoiQuery, StreetResult};
pub use stats::QueryStats;
