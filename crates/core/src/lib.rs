//! Core algorithms of *"Identifying and Describing Streets of Interest"*
//! (Skoutas, Sacharidis, Stamatoukos — EDBT 2016).
//!
//! Two complementary problems over a road network, a POI set, and a photo
//! set:
//!
//! 1. **Identification** ([`soi`]): the k-SOI query `q = ⟨Ψ, k, ε⟩` returns
//!    the `k` streets with the highest interest — the maximum mass density
//!    `int(ℓ) = mass(ℓ)/(2ε·len(ℓ) + πε²)` over their segments. The
//!    [`soi::run_soi`] algorithm evaluates it top-k style over the
//!    spatio-textual indexes of [`soi_index`], with a seen lower bound and
//!    an unseen upper bound (paper Algorithm 1); [`soi::run_baseline`] is
//!    the grid-scan baseline BL the paper compares against, and
//!    [`soi::brute_force`] an index-free reference for testing.
//!
//! 2. **Description** ([`describe`]): choose `k` photos of a street's photo
//!    set `Rs` that maximise `F = (1−λ)·rel + λ·div` with spatio-textual
//!    relevance and diversity measures (Definitions 4–7). The greedy `mmr`
//!    baseline is [`describe::greedy_select`]; [`describe::st_rel_div()`](describe::st_rel_div())
//!    accelerates it with per-grid-cell bounds (paper Algorithm 2,
//!    Eqs. 11–18); [`describe::MethodSpec`] enumerates the nine method
//!    variants of the paper's Table 3.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]
// Library code must surface failures as `SoiError`, never panic: unwrap and
// expect are compile errors outside of test code.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod budget;
pub mod describe;
pub mod obs;
pub mod soi;

pub use budget::QueryBudget;
