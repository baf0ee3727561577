//! Keyword frequency vectors (`Φs`).

use crate::keyword_set::KeywordSet;
use soi_common::{FxHashMap, KeywordId};

/// A sparse keyword frequency vector with a cached L1 norm.
///
/// The textual aspect of a street `s` is captured by `Φs`, which records the
/// strength of each keyword associated with `s` (Sec. 4.1.2). The textual
/// relevance of a photo (Definition 6) divides the summed frequencies of its
/// tags by `‖Φs‖₁`.
#[derive(Debug, Clone, Default)]
pub struct FreqVector {
    weights: FxHashMap<KeywordId, f64>,
    l1: f64,
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

    /// Empties the vector, keeping its capacity.
    pub fn clear(&mut self) {
        self.weights.clear();
        self.l1 = 0.0;
    }

    /// Adds `weight` to keyword `k` (no-op for non-positive weights).
    pub fn add(&mut self, k: KeywordId, weight: f64) {
        if weight <= 0.0 || !weight.is_finite() {
            return;
        }
        *self.weights.entry(k).or_insert(0.0) += weight;
        self.l1 += weight;
    }

    /// Increments keyword `k` by 1 (counting semantics).
    pub fn increment(&mut self, k: KeywordId) {
        self.add(k, 1.0);
    }

    /// The weight of keyword `k` (0 if absent).
    pub fn weight(&self, k: KeywordId) -> f64 {
        self.weights.get(&k).copied().unwrap_or(0.0)
    }

    /// The L1 norm `‖Φ‖₁ = Σ_ψ Φ(ψ)`.
    pub fn l1_norm(&self) -> f64 {
        self.l1
    }

    /// Number of keywords with non-zero weight.
    pub fn len(&self) -> usize {
        self.weights.len()
    }

    /// Returns true if the vector is all-zero.
    pub fn is_empty(&self) -> bool {
        self.weights.is_empty()
    }

    /// The support `Ψs`: keywords with non-zero frequency, as a set.
    pub fn support(&self) -> KeywordSet {
        KeywordSet::from_ids(self.weights.keys().copied())
    }

    /// Iterates over `(keyword, weight)` pairs in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (KeywordId, f64)> + '_ {
        self.weights.iter().map(|(&k, &w)| (k, w))
    }

    /// Summed weight of all keywords in `set`:
    /// the numerator `Σ_{ψ∈Ψr} Φs(ψ)` of Definition 6.
    pub fn sum_over(&self, set: &KeywordSet) -> f64 {
        set.iter().map(|k| self.weight(k)).sum()
    }

    /// Keywords of this vector sorted by ascending weight, then ascending id.
    ///
    /// Used to pick the lowest-frequency keywords when constructing the
    /// bound sets `Ψ−(c|s)` of Eq. 13.
    pub fn keywords_by_weight_asc(&self) -> Vec<(KeywordId, f64)> {
        let mut v: Vec<(KeywordId, f64)> = self.iter().collect();
        v.sort_by(|a, b| a.1.total_cmp(&b.1).then_with(|| a.0.cmp(&b.0)));
        v
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
    fn add_accumulates_and_tracks_l1() {
        let mut v = FreqVector::new();
        v.add(kid(1), 2.0);
        v.add(kid(1), 3.0);
        v.add(kid(2), 1.0);
        assert_eq!(v.weight(kid(1)), 5.0);
        assert_eq!(v.weight(kid(2)), 1.0);
        assert_eq!(v.weight(kid(9)), 0.0);
        assert_eq!(v.l1_norm(), 6.0);
        assert_eq!(v.len(), 2);
    }

    #[test]
    fn nonpositive_weights_ignored() {
        let mut v = FreqVector::new();
        v.add(kid(1), 0.0);
        v.add(kid(1), -2.0);
        v.add(kid(1), f64::NAN);
        assert!(v.is_empty());
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
    fn keywords_by_weight_asc_breaks_ties_by_id() {
        let v = FreqVector::from_weights([(kid(5), 1.0), (kid(2), 1.0), (kid(9), 0.5)]);
        let order: Vec<u32> = v
            .keywords_by_weight_asc()
            .into_iter()
            .map(|(k, _)| k.raw())
            .collect();
        assert_eq!(order, vec![9, 2, 5]);
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
