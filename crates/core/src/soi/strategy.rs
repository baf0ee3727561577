//! Source lists and the paper's access cycle.
//!
//! Algorithm 1 consumes three ranked source lists; the paper notes that
//! "each source list can be accessed in a round robin fashion; the
//! correctness of our method is not affected by the access strategy. In
//! practice, we alternate between SL1 and SL3 … We only access segments via
//! the second source SL2 in the case that a few segments with a large
//! number of neighboring cells exist." The order changes only the cost.
//!
//! By default every access pops SL2's head (best-first on `b(ℓ)`, the
//! bound `UB` is read from), so `UB` falls with each access and no segment
//! is left partial. Of six cycles measured over the benchmark's
//! `soi_diverse` and `soi_hot` queries (DESIGN §5), best-first SL2 is the
//! fastest on both, although it takes more accesses than the cycles that
//! pop cells: one of its accesses finalises one segment, while a cell
//! access touches every segment near the cell. [`PAPER_CYCLE`], the
//! paper's practical cycle, runs only under
//! [`SoiConfig::paper_bounds_only`](crate::soi::SoiConfig::paper_bounds_only),
//! with the paper's bound.

/// Which source list an access targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// SL1: cells sorted decreasingly on relevant-POI count.
    Cells,
    /// SL2: segments sorted decreasingly on an upper bound of their
    /// interest — with paper bounds, on the number of ε-neighbouring cells.
    SegmentsByCells,
    /// SL3: segments sorted increasingly on length.
    SegmentsByLen,
}

/// The paper's practical cycle: SL1 and SL3 alternate, SL2 is drawn once
/// per four accesses. An access whose list is exhausted falls through to
/// any list that is not.
pub const PAPER_CYCLE: [Source; 4] = [
    Source::Cells,
    Source::SegmentsByLen,
    Source::Cells,
    Source::SegmentsByCells,
];
