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
    pub fn rank_cmp(&self, other: &Self) -> Ordering {
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

/// Incrementally tracks the k-th largest score of a mutable id→score map.
///
/// Scores may be inserted or increased (monotone updates are the SOI
/// algorithm's use case, but arbitrary re-scoring works too). The structure
/// keeps the current top-k in one ordered set and the remainder in another;
/// every update is `O(log n)` and [`TopKTracker::threshold`] is `O(1)`-ish
/// (first/last lookups in a B-tree).
///
/// ```
/// use soi_common::TopKTracker;
///
/// let mut tracker = TopKTracker::<u32>::new(2);
/// tracker.update(1, None, 5.0);
/// assert_eq!(tracker.threshold(), 0.0); // fewer than k ids
/// tracker.update(2, None, 3.0);
/// assert_eq!(tracker.threshold(), 3.0); // 2nd largest of {5, 3}
/// tracker.update(2, Some(3.0), 9.0);
/// assert_eq!(tracker.threshold(), 5.0); // 2nd largest of {5, 9}
/// ```
#[derive(Debug, Clone)]
pub struct TopKTracker<I> {
    k: usize,
    top: std::collections::BTreeSet<(OrderedF64, I)>,
    rest: std::collections::BTreeSet<(OrderedF64, I)>,
}

impl<I: Ord + Copy> TopKTracker<I> {
    /// Creates a tracker for the k-th largest score.
    ///
    /// # Panics
    /// Panics if `k` is 0.
    pub fn new(k: usize) -> Self {
        assert!(k >= 1, "k must be at least 1");
        Self {
            k,
            top: Default::default(),
            rest: Default::default(),
        }
    }

    /// Sets `id`'s score to `new`, where `old` is its previous score (None
    /// if the id is new). Passing a wrong `old` is a logic error.
    pub fn update(&mut self, id: I, old: Option<f64>, new: f64) {
        if let Some(old) = old {
            let key = (OrderedF64::new(old), id);
            if !self.top.remove(&key) {
                let removed = self.rest.remove(&key);
                debug_assert!(removed, "old score not found");
            }
        }
        self.rest.insert((OrderedF64::new(new), id));
        self.rebalance();
    }

    fn rebalance(&mut self) {
        while self.top.len() < self.k {
            match self.rest.pop_last() {
                Some(max) => {
                    self.top.insert(max);
                }
                None => return,
            }
        }
        while let (Some(&rmax), Some(&tmin)) = (self.rest.last(), self.top.first()) {
            if rmax > tmin {
                self.rest.pop_last();
                self.top.pop_first();
                self.rest.insert(tmin);
                self.top.insert(rmax);
            } else {
                break;
            }
        }
    }

    /// The k-th largest score, or 0.0 while fewer than k ids are tracked.
    pub fn threshold(&self) -> f64 {
        if self.top.len() < self.k {
            0.0
        } else {
            self.top.first().map_or(0.0, |s| s.0.get())
        }
    }

    /// Number of tracked ids.
    pub fn len(&self) -> usize {
        self.top.len() + self.rest.len()
    }

    /// Returns true if no ids are tracked.
    pub fn is_empty(&self) -> bool {
        self.top.is_empty() && self.rest.is_empty()
    }
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
    fn tracker_threshold_matches_recomputation() {
        let mut tracker = TopKTracker::<u32>::new(3);
        let mut scores: std::collections::HashMap<u32, f64> = Default::default();
        // Deterministic pseudo-random updates.
        let mut x = 12345u64;
        for step in 0..500 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let id = (x >> 33) as u32 % 40;
            let bump = ((x >> 11) % 1000) as f64 / 100.0;
            let old = scores.get(&id).copied();
            let new = old.unwrap_or(0.0) + bump;
            scores.insert(id, new);
            tracker.update(id, old, new);

            let mut vals: Vec<f64> = scores.values().copied().collect();
            vals.sort_by(|a, b| b.total_cmp(a));
            let want = if vals.len() >= 3 { vals[2] } else { 0.0 };
            assert_eq!(tracker.threshold(), want, "step {step}");
        }
        assert_eq!(tracker.len(), scores.len());
        assert!(!tracker.is_empty());
    }

    #[test]
    fn tracker_under_k_reports_zero() {
        let mut t = TopKTracker::<u32>::new(2);
        assert_eq!(t.threshold(), 0.0);
        t.update(1, None, 5.0);
        assert_eq!(t.threshold(), 0.0);
        t.update(2, None, 3.0);
        assert_eq!(t.threshold(), 3.0);
        t.update(2, Some(3.0), 7.0);
        assert_eq!(t.threshold(), 5.0);
    }

    #[test]
    #[should_panic(expected = "k must be at least 1")]
    fn tracker_rejects_k_zero() {
        TopKTracker::<u32>::new(0);
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
