//! Keyword frequency vectors (`Φs`).

use crate::keyword_set::KeywordSet;
use soi_common::KeywordId;

/// Keyword ids below this are a direct index into [`FreqVector`]'s weight
/// column (a vocabulary numbers its keywords densely from 0; 512 KB if a
/// street shows the last of them); larger ids — a sparse numbering, or a raw
/// id from outside the vocabulary — are kept in a sorted side list instead
/// of sizing the column.
const DENSE_IDS: usize = 1 << 16;

/// [`shrink_to_fit`](FreqVector::shrink_to_fit) folds a dense column into
/// the sorted side list when it spans more than this many ids per keyword
/// it holds and more than [`DENSE_IDS_KEPT`] ids.
const DENSE_IDS_PER_KEY: usize = 4;

/// The widest dense column (2 KB) kept whatever its keyword count: a
/// lookup there is one load, in the side list a binary search, and
/// Alg. 2 looks up every tag of every photo it scores.
const DENSE_IDS_KEPT: usize = 256;

/// A keyword frequency vector with a cached L1 norm.
///
/// The textual aspect of a street `s` is captured by `Φs`, which records the
/// strength of each keyword associated with `s` (Sec. 4.1.2). The textual
/// relevance of a photo (Definition 6) divides the summed frequencies of its
/// tags by `‖Φs‖₁`.
#[derive(Debug, Clone)]
pub struct FreqVector {
    /// Ids below this go to `dense`, the rest to the side list:
    /// [`DENSE_IDS`], or 0 once [`shrink_to_fit`](Self::shrink_to_fit) has
    /// folded a sparse column away.
    dense_limit: usize,
    /// `dense[k]` is the weight of keyword `k`, for the ids below
    /// `dense_limit` up to the largest one seen.
    dense: Vec<f64>,
    /// The keywords with a non-zero weight in `dense`, in order of first
    /// addition: what [`clear`](Self::clear) has to zero.
    dense_keys: Vec<KeywordId>,
    /// The keywords from `dense_limit` up, ascending, and their weights.
    sparse_keys: Vec<KeywordId>,
    sparse_weights: Vec<f64>,
    l1: f64,
}

impl Default for FreqVector {
    fn default() -> Self {
        Self {
            dense_limit: DENSE_IDS,
            dense: Vec::new(),
            dense_keys: Vec::new(),
            sparse_keys: Vec::new(),
            sparse_weights: Vec::new(),
            l1: 0.0,
        }
    }
}

impl FreqVector {
    /// Creates an empty vector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a vector from `(keyword, weight)` pairs, summing duplicates.
    ///
    /// Non-positive weights are ignored (a keyword with zero frequency is
    /// "not present", per the paper's `Ψs` = keywords with non-zero
    /// frequency).
    pub fn from_weights<I: IntoIterator<Item = (KeywordId, f64)>>(pairs: I) -> Self {
        let mut v = Self::new();
        for (k, w) in pairs {
            v.add(k, w);
        }
        v
    }

    /// Adds `weight` to keyword `k` (no-op for non-positive weights).
    #[inline]
    pub fn add(&mut self, k: KeywordId, weight: f64) {
        if weight <= 0.0 || !weight.is_finite() {
            return;
        }
        let id = k.index();
        let slot = if id < self.dense_limit {
            if id >= self.dense.len() {
                self.dense.resize(id + 1, 0.0);
            }
            // Weights only grow from 0, so 0 means "not a key yet".
            if self.dense[id] == 0.0 {
                self.dense_keys.push(k);
            }
            &mut self.dense[id]
        } else {
            let at = self.sparse_keys.binary_search(&k).unwrap_or_else(|at| {
                self.sparse_keys.insert(at, k);
                self.sparse_weights.insert(at, 0.0);
                at
            });
            &mut self.sparse_weights[at]
        };
        *slot += weight;
        self.l1 += weight;
    }

    /// Increments keyword `k` by 1 (counting semantics).
    #[inline]
    pub fn increment(&mut self, k: KeywordId) {
        self.add(k, 1.0);
    }

    /// The weight of keyword `k` (0 if absent).
    #[inline]
    pub fn weight(&self, k: KeywordId) -> f64 {
        if k.index() < self.dense_limit {
            self.dense.get(k.index()).copied().unwrap_or(0.0)
        } else {
            match self.sparse_keys.binary_search(&k) {
                Ok(at) => self.sparse_weights[at],
                Err(_) => 0.0,
            }
        }
    }

    /// The L1 norm `‖Φ‖₁ = Σ_ψ Φ(ψ)`.
    pub fn l1_norm(&self) -> f64 {
        self.l1
    }

    /// Drops spare capacity, for a vector that is kept rather than
    /// refilled. A wide dense column spanning more than a few ids per
    /// keyword it holds (a street that shows tag 65 000 and ten others) is
    /// folded into the sorted side list, so the vector's bytes follow its
    /// keywords, not its largest id. Weights, the norm and every lookup are
    /// unchanged.
    pub fn shrink_to_fit(&mut self) {
        let ids = self.dense.len();
        if ids > DENSE_IDS_KEPT && ids > DENSE_IDS_PER_KEY * self.dense_keys.len() {
            let mut pairs: Vec<(KeywordId, f64)> = self
                .dense_keys
                .iter()
                .map(|&k| (k, self.dense[k.index()]))
                .chain(
                    self.sparse_keys
                        .iter()
                        .copied()
                        .zip(self.sparse_weights.iter().copied()),
                )
                .collect();
            pairs.sort_unstable_by_key(|&(k, _)| k);
            (self.sparse_keys, self.sparse_weights) = pairs.into_iter().unzip();
            (self.dense, self.dense_keys) = (Vec::new(), Vec::new());
            self.dense_limit = 0;
        }
        self.dense.shrink_to_fit();
        self.dense_keys.shrink_to_fit();
        self.sparse_keys.shrink_to_fit();
        self.sparse_weights.shrink_to_fit();
    }

    /// Heap bytes the vector holds (the capacity of its columns).
    pub fn heap_bytes(&self) -> usize {
        self.dense.capacity() * std::mem::size_of::<f64>()
            + (self.dense_keys.capacity() + self.sparse_keys.capacity())
                * std::mem::size_of::<KeywordId>()
            + self.sparse_weights.capacity() * std::mem::size_of::<f64>()
    }

    /// The support `Ψs`: keywords with non-zero frequency, as a set.
    pub fn support(&self) -> KeywordSet {
        KeywordSet::from_ids(self.iter().map(|(k, _)| k))
    }

    /// Iterates over `(keyword, weight)` pairs in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (KeywordId, f64)> + '_ {
        let dense = self.dense_keys.iter().map(|&k| (k, self.dense[k.index()]));
        let sparse = self.sparse_keys.iter().copied();
        dense.chain(sparse.zip(self.sparse_weights.iter().copied()))
    }

    /// Summed weight of all keywords in `set`:
    /// the numerator `Σ_{ψ∈Ψr} Φs(ψ)` of Definition 6.
    pub fn sum_over(&self, set: &KeywordSet) -> f64 {
        set.iter().map(|k| self.weight(k)).sum()
    }
}

impl FromIterator<(KeywordId, f64)> for FreqVector {
    fn from_iter<T: IntoIterator<Item = (KeywordId, f64)>>(iter: T) -> Self {
        Self::from_weights(iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kid(i: u32) -> KeywordId {
        KeywordId(i)
    }

    #[test]
    fn shrinking_a_sparse_column_keeps_every_weight_and_drops_the_column() {
        let mut v = FreqVector::new();
        for (k, w) in [(65_000, 2.0), (3, 1.0), (70_000, 0.5), (3, 4.0), (900, 1.5)] {
            v.add(kid(k), w);
        }
        let before: Vec<f64> = [3, 900, 65_000, 70_000, 4, 64_999]
            .map(|k| v.weight(kid(k)))
            .to_vec();
        assert!(v.heap_bytes() > 65_000 * 8);
        let (l1, len) = (v.l1_norm(), v.iter().count());
        v.shrink_to_fit();
        assert!(v.heap_bytes() <= 4 * 12, "{} bytes", v.heap_bytes());
        let after: Vec<f64> = [3, 900, 65_000, 70_000, 4, 64_999]
            .map(|k| v.weight(kid(k)))
            .to_vec();
        assert_eq!(before, after);
        assert_eq!(
            (v.l1_norm().to_bits(), v.iter().count()),
            (l1.to_bits(), len)
        );
        // Still a working vector: a later add lands in the side list.
        v.add(kid(5), 1.0);
        assert_eq!((v.weight(kid(5)), v.iter().count()), (1.0, len + 1));
    }

    #[test]
    fn add_accumulates_and_tracks_l1() {
        let mut v = FreqVector::new();
        v.add(kid(1), 2.0);
        v.add(kid(1), 3.0);
        v.add(kid(2), 1.0);
        assert_eq!(v.weight(kid(1)), 5.0);
        assert_eq!(v.weight(kid(2)), 1.0);
        assert_eq!(v.weight(kid(9)), 0.0);
        assert_eq!(v.l1_norm(), 6.0);
        assert_eq!(v.iter().count(), 2);
    }

    #[test]
    fn nonpositive_weights_ignored() {
        let mut v = FreqVector::new();
        v.add(kid(1), 0.0);
        v.add(kid(1), -2.0);
        v.add(kid(1), f64::NAN);
        assert!(v.iter().next().is_none());
        assert_eq!(v.l1_norm(), 0.0);
    }

    #[test]
    fn support_is_nonzero_keywords() {
        let v = FreqVector::from_weights([(kid(3), 1.0), (kid(1), 2.0)]);
        let s = v.support();
        assert!(s.contains(kid(1)));
        assert!(s.contains(kid(3)));
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn sum_over_set() {
        let v = FreqVector::from_weights([(kid(1), 2.0), (kid(2), 3.0), (kid(3), 5.0)]);
        let s = KeywordSet::from_ids([kid(1), kid(3), kid(7)]);
        assert_eq!(v.sum_over(&s), 7.0);
        assert_eq!(v.sum_over(&KeywordSet::empty()), 0.0);
    }

    #[test]
    fn ids_beyond_the_dense_range_cost_no_column() {
        // A raw id from outside any vocabulary, next to ordinary ones, and
        // the two ids either side of the limit.
        let edge = DENSE_IDS as u32;
        let mut v = FreqVector::new();
        for (k, w) in [
            (u32::MAX, 2.0),
            (3, 1.0),
            (edge, 0.5),
            (edge - 1, 0.25),
            (u32::MAX, 1.0),
        ] {
            v.add(kid(k), w);
        }
        assert_eq!(v.dense.len(), DENSE_IDS);
        assert_eq!(v.weight(kid(u32::MAX)), 3.0);
        assert_eq!((v.weight(kid(edge)), v.weight(kid(edge - 1))), (0.5, 0.25));
        assert_eq!(v.weight(kid(edge + 1)), 0.0);
        assert_eq!((v.iter().count(), v.l1_norm()), (4, 4.75));
        let all = KeywordSet::from_ids([kid(3), kid(edge - 1), kid(edge), kid(u32::MAX)]);
        assert_eq!(v.support(), all);
        assert_eq!(v.sum_over(&all), 4.75);
    }

    #[test]
    fn increment_counts() {
        let mut v = FreqVector::new();
        v.increment(kid(0));
        v.increment(kid(0));
        assert_eq!(v.weight(kid(0)), 2.0);
        assert_eq!(v.l1_norm(), 2.0);
    }
}
