//! Deterministic top-k selection helpers.
//!
//! All rankings in the system break ties the same way: higher score first,
//! then lower id. Centralising the selection logic keeps the SOI algorithm,
//! its baseline, and the brute-force reference bit-for-bit comparable.

use crate::ord::OrderedF64;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// An item with a score, ordered by (score desc, id asc) for ranking.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScoredItem<I> {
    /// The item's ranking score.
    pub score: OrderedF64,
    /// The item's identifier (ties broken by ascending id).
    pub id: I,
}

impl<I: Ord> ScoredItem<I> {
    /// Creates a scored item.
    pub fn new(id: I, score: f64) -> Self {
        Self {
            score: OrderedF64::new(score),
            id,
        }
    }

    /// Ranking comparison: higher score first, then smaller id.
    pub(crate) fn rank_cmp(&self, other: &Self) -> Ordering {
        other
            .score
            .cmp(&self.score)
            .then_with(|| self.id.cmp(&other.id))
    }
}

/// Returns the top `k` items by (score desc, id asc), in rank order.
///
/// Runs in `O(n log k)` using a bounded heap; stable and deterministic.
/// If fewer than `k` items exist, all are returned.
pub fn top_k_by_score<I, It>(items: It, k: usize) -> Vec<ScoredItem<I>>
where
    I: Ord + Copy,
    It: IntoIterator<Item = ScoredItem<I>>,
{
    if k == 0 {
        return Vec::new();
    }

    // Max-heap keyed by "worst first" so the heap root is the current k-th
    // ranked element and can be evicted cheaply.
    struct WorstFirst<I>(ScoredItem<I>);
    impl<I: Ord> PartialEq for WorstFirst<I> {
        fn eq(&self, other: &Self) -> bool {
            self.0.rank_cmp(&other.0) == Ordering::Equal
        }
    }
    impl<I: Ord> Eq for WorstFirst<I> {}
    impl<I: Ord> PartialOrd for WorstFirst<I> {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }
    impl<I: Ord> Ord for WorstFirst<I> {
        fn cmp(&self, other: &Self) -> Ordering {
            // rank_cmp orders best-first (Less = better), so it already makes
            // the worst-ranked item the max-heap root.
            self.0.rank_cmp(&other.0)
        }
    }

    // The heap holds at most `k` items and at most what the iterator
    // yields: `k` comes from the caller (a request body), so it alone never
    // sizes an allocation.
    let items = items.into_iter();
    let (lower, upper) = items.size_hint();
    let mut heap: BinaryHeap<WorstFirst<I>> =
        BinaryHeap::with_capacity(k.min(upper.unwrap_or(lower)));
    for item in items {
        if heap.len() < k {
            heap.push(WorstFirst(item));
        } else if let Some(worst) = heap.peek() {
            if item.rank_cmp(&worst.0) == Ordering::Less {
                heap.pop();
                heap.push(WorstFirst(item));
            }
        }
    }

    let mut out: Vec<ScoredItem<I>> = heap.into_iter().map(|w| w.0).collect();
    out.sort_by(|a, b| a.rank_cmp(b));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn items(pairs: &[(u32, f64)]) -> Vec<ScoredItem<u32>> {
        pairs
            .iter()
            .map(|&(id, s)| ScoredItem::new(id, s))
            .collect()
    }

    #[test]
    fn selects_highest_scores_in_order() {
        let top = top_k_by_score(items(&[(1, 0.5), (2, 0.9), (3, 0.1), (4, 0.7)]), 2);
        let ids: Vec<u32> = top.iter().map(|s| s.id).collect();
        assert_eq!(ids, vec![2, 4]);
    }

    #[test]
    fn ties_broken_by_ascending_id() {
        let top = top_k_by_score(items(&[(9, 1.0), (3, 1.0), (5, 1.0)]), 2);
        let ids: Vec<u32> = top.iter().map(|s| s.id).collect();
        assert_eq!(ids, vec![3, 5]);
    }

    #[test]
    fn k_larger_than_input_returns_all() {
        // Up to the type's range: `k` is a caller's number and must size
        // nothing (`k + 1` overflowed; 1e17 aborted on the allocation).
        for k in [10, 100_000_000_000_000_000, usize::MAX] {
            let top = top_k_by_score(items(&[(1, 0.2), (2, 0.8), (3, 0.5)]), k);
            let ids: Vec<u32> = top.iter().map(|s| s.id).collect();
            assert_eq!(ids, vec![2, 3, 1], "k = {k}");
        }
    }

    #[test]
    fn k_zero_returns_empty() {
        assert!(top_k_by_score(items(&[(1, 1.0)]), 0).is_empty());
    }

    #[test]
    fn matches_full_sort_on_larger_input() {
        let data: Vec<ScoredItem<u32>> = (0..200)
            .map(|i| ScoredItem::new(i, ((i * 7919) % 101) as f64 / 101.0))
            .collect();
        let k = 17;
        let via_topk = top_k_by_score(data.clone(), k);
        let mut full = data;
        full.sort_by(|a, b| a.rank_cmp(b));
        full.truncate(k);
        assert_eq!(via_topk, full);
    }
}
