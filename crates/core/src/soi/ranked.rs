//! A lazily ordered source list.
//!
//! Alg. 1 stops after reading a short prefix of SL1, so that list is never
//! sorted: a query fills a vector of [`Ranked`] entries, heapifies it in
//! O(n) (`BinaryHeap::from`) and pops or peeks where a sorted list would
//! advance a cursor. [`Ranked`]'s order *is* the list's sort order — score
//! descending via `f64::total_cmp`, then id ascending — and ids are unique
//! within a list, so the order is total and the pop sequence equals the
//! sorted sequence, ties included. (SL2 and SLf, ranked by a small integer,
//! are counting-sorted instead — the `counted` module — and tested against
//! heaps of these entries.)

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// One source-list entry. `Ord` makes the entry a sorted list would yield
/// first the greatest, so a max-heap pops in list order.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Ranked<I> {
    /// The ranking key (SL1: the cell's relevant weight).
    pub score: f64,
    /// The cell or segment; breaks score ties, lower id first.
    pub id: I,
}

impl<I: Ord> Ranked<I> {
    /// The emptied backing vector of `list`, capacity kept, to be refilled
    /// and heapified again with `BinaryHeap::from`.
    pub fn recycle(list: &mut BinaryHeap<Self>) -> Vec<Self> {
        let mut entries = std::mem::take(list).into_vec();
        entries.clear();
        entries
    }
}

impl<I: Ord> Ord for Ranked<I> {
    fn cmp(&self, other: &Self) -> Ordering {
        self.score
            .total_cmp(&other.score)
            .then_with(|| other.id.cmp(&self.id))
    }
}

impl<I: Ord> PartialOrd for Ranked<I> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<I: Ord> PartialEq for Ranked<I> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl<I: Ord> Eq for Ranked<I> {}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Draining the heap yields exactly what `sort_by` with the
        /// documented comparator yields. Scores come from a handful of
        /// values so most entries tie (many segments share one cell-count
        /// bound, cells share weights); ids are the unique positions.
        #[test]
        fn heap_drain_equals_sort(picks in proptest::collection::vec(0usize..6, 0..200)) {
            const SCORES: [f64; 6] = [0.0, 0.5, 1.0, 1.0 + f64::EPSILON, 7.25, 1e9];
            let entries: Vec<Ranked<u32>> = picks
                .iter()
                .enumerate()
                .map(|(i, &p)| Ranked { score: SCORES[p], id: (i as u32).wrapping_mul(2_654_435_761) })
                .collect();
            let mut sorted: Vec<(u32, f64)> = entries.iter().map(|e| (e.id, e.score)).collect();
            sorted.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));

            let mut heap = BinaryHeap::from(entries);
            let mut drained = Vec::with_capacity(sorted.len());
            while let Some(&Ranked { score, id }) = heap.peek() {
                let popped = heap.pop().expect("peeked");
                prop_assert_eq!((popped.id, popped.score.to_bits()), (id, score.to_bits()));
                drained.push((id, score));
            }
            prop_assert_eq!(
                drained.iter().map(|&(i, s)| (i, s.to_bits())).collect::<Vec<_>>(),
                sorted.iter().map(|&(i, s)| (i, s.to_bits())).collect::<Vec<_>>()
            );
        }
    }
}
