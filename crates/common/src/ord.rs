//! A totally ordered wrapper for finite `f64` scores.

use std::cmp::Ordering;

/// A `f64` wrapper with a total order, for use as a ranking key.
///
/// All scores produced by the system (interest, relevance, diversity, `mmr`)
/// are finite and non-NaN by construction; this wrapper makes that contract
/// explicit and lets scores live in `BinaryHeap`s and `sort` keys.
///
/// Construction panics (in debug builds) on NaN; NaN compares via a defined
/// but meaningless order (`f64::total_cmp`) in release builds so the program
/// never aborts inside a comparison.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OrderedF64(f64);

impl OrderedF64 {
    /// Wraps a score. Debug-asserts that the value is not NaN.
    #[inline]
    pub fn new(value: f64) -> Self {
        debug_assert!(!value.is_nan(), "score must not be NaN");
        Self(value)
    }

    /// Returns the wrapped value.
    #[inline]
    pub fn get(self) -> f64 {
        self.0
    }
}

impl Eq for OrderedF64 {}

impl PartialOrd for OrderedF64 {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for OrderedF64 {
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.total_cmp(&other.0)
    }
}

impl From<f64> for OrderedF64 {
    #[inline]
    fn from(value: f64) -> Self {
        Self::new(value)
    }
}

impl From<OrderedF64> for f64 {
    #[inline]
    fn from(value: OrderedF64) -> f64 {
        value.0
    }
}

impl std::fmt::Display for OrderedF64 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.0.fmt(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn total_order() {
        let mut v = vec![
            OrderedF64::new(3.0),
            OrderedF64::new(-1.0),
            OrderedF64::new(0.0),
            OrderedF64::new(f64::INFINITY),
        ];
        v.sort();
        let raw: Vec<f64> = v.into_iter().map(OrderedF64::get).collect();
        assert_eq!(raw, vec![-1.0, 0.0, 3.0, f64::INFINITY]);
    }

    #[test]
    fn negative_zero_orders_below_positive_zero() {
        // total_cmp semantics: -0.0 < +0.0. Callers must not rely on
        // -0.0 == +0.0 for ranking keys; document via test.
        assert!(OrderedF64::new(-0.0) < OrderedF64::new(0.0));
    }

    #[test]
    fn roundtrip_f64() {
        let x: OrderedF64 = 2.5.into();
        let y: f64 = x.into();
        assert_eq!(y, 2.5);
    }
}
