//! Source-list access strategies.
//!
//! Algorithm 1 consumes three ranked source lists; the paper notes that
//! "each source list can be accessed in a round robin fashion; the
//! correctness of our method is not affected by the access strategy. In
//! practice, we alternate between SL1 and SL3 … We only access segments via
//! the second source SL2 in the case that a few segments with a large
//! number of neighboring cells exist." The strategies below cover the
//! pseudocode's rotation, the practical default, and two degenerate
//! baselines; `tests/soi_correctness.rs` holds all four to brute force.

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

/// The order in which the SOI algorithm draws from its source lists.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AccessStrategy {
    /// Alternate SL1 and SL3, visiting SL2 once per cycle — the paper's
    /// practical default ("we alternate between SL1 and SL3", with SL2
    /// consulted occasionally).
    #[default]
    AlternateSl1Sl3,
    /// Strict SL1 → SL2 → SL3 rotation, as in Algorithm 1's pseudocode.
    RoundRobin,
    /// Drain SL1 (cells) first, then fall back to segments.
    CellsFirst,
    /// Drain SL3 (short segments) first — degenerates towards a
    /// smallest-segment scan; ablation baseline.
    SegmentsFirst,
}

impl AccessStrategy {
    /// The cyclic access pattern of this strategy. The algorithm walks the
    /// cycle, falling through to any non-exhausted source when the preferred
    /// one is exhausted.
    pub fn cycle(self) -> &'static [Source] {
        match self {
            // SL2 interleaved once per four accesses.
            AccessStrategy::AlternateSl1Sl3 => &[
                Source::Cells,
                Source::SegmentsByLen,
                Source::Cells,
                Source::SegmentsByCells,
            ],
            AccessStrategy::RoundRobin => &[
                Source::Cells,
                Source::SegmentsByCells,
                Source::SegmentsByLen,
            ],
            AccessStrategy::CellsFirst => &[Source::Cells],
            AccessStrategy::SegmentsFirst => &[Source::SegmentsByLen],
        }
    }

    /// Name used in experiment output.
    pub fn name(self) -> &'static str {
        match self {
            AccessStrategy::AlternateSl1Sl3 => "alternate-sl1-sl3",
            AccessStrategy::RoundRobin => "round-robin",
            AccessStrategy::CellsFirst => "cells-first",
            AccessStrategy::SegmentsFirst => "segments-first",
        }
    }

    /// All strategies (swept by the correctness suite).
    pub fn all() -> [AccessStrategy; 4] {
        [
            AccessStrategy::AlternateSl1Sl3,
            AccessStrategy::RoundRobin,
            AccessStrategy::CellsFirst,
            AccessStrategy::SegmentsFirst,
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycles_are_nonempty_and_contain_declared_sources() {
        for s in AccessStrategy::all() {
            assert!(!s.cycle().is_empty(), "{}", s.name());
        }
        assert!(AccessStrategy::RoundRobin
            .cycle()
            .contains(&Source::SegmentsByCells));
        assert_eq!(AccessStrategy::CellsFirst.cycle(), &[Source::Cells]);
    }

    #[test]
    fn default_is_paper_practical_choice() {
        assert_eq!(AccessStrategy::default(), AccessStrategy::AlternateSl1Sl3);
        let cycle = AccessStrategy::AlternateSl1Sl3.cycle();
        assert_eq!(cycle[0], Source::Cells);
        assert_eq!(cycle[1], Source::SegmentsByLen);
    }

    #[test]
    fn names_unique() {
        let names: Vec<&str> = AccessStrategy::all().iter().map(|s| s.name()).collect();
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(names.len(), dedup.len());
    }
}
