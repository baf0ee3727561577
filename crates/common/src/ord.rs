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

    /// The zero score.
    pub const ZERO: OrderedF64 = OrderedF64(0.0);

    /// Positive infinity, used as the initial unseen upper bound.
    pub const INFINITY: OrderedF64 = OrderedF64(f64::INFINITY);
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

/// Maps an `f64` to a `u64` whose unsigned order equals IEEE-754 totalOrder
/// (i.e. [`f64::total_cmp`]): `a.total_cmp(&b) == f64_total_key(a).cmp(&f64_total_key(b))`.
///
/// This lets floats participate in packed integer sort keys (the index builds
/// sort by a single `u64`/`u128` compare instead of a branchy comparator
/// chain). The mapping is a bijection; [`f64_from_total_key`] inverts it
/// exactly, bit for bit.
#[inline]
pub fn f64_total_key(x: f64) -> u64 {
    let bits = x.to_bits();
    if bits >> 63 == 1 {
        !bits // negative: reverse order, below all positives
    } else {
        bits | 0x8000_0000_0000_0000 // positive: above all negatives
    }
}

/// Exact inverse of [`f64_total_key`].
#[inline]
pub fn f64_from_total_key(key: u64) -> f64 {
    if key >> 63 == 1 {
        f64::from_bits(key & 0x7FFF_FFFF_FFFF_FFFF)
    } else {
        f64::from_bits(!key)
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
            OrderedF64::INFINITY,
        ];
        v.sort();
        let raw: Vec<f64> = v.into_iter().map(OrderedF64::get).collect();
        assert_eq!(raw, vec![-1.0, 0.0, 3.0, f64::INFINITY]);
    }

    #[test]
    fn zero_and_infinity_constants() {
        assert_eq!(OrderedF64::ZERO.get(), 0.0);
        assert!(OrderedF64::ZERO < OrderedF64::INFINITY);
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

    const KEY_SAMPLES: [f64; 12] = [
        f64::NEG_INFINITY,
        -1e300,
        -2.5,
        -1e-300,
        -0.0,
        0.0,
        1e-300,
        1.0,
        2.5,
        1e300,
        f64::INFINITY,
        f64::MIN_POSITIVE,
    ];

    #[test]
    fn total_key_order_matches_total_cmp() {
        for &a in &KEY_SAMPLES {
            for &b in &KEY_SAMPLES {
                assert_eq!(
                    f64_total_key(a).cmp(&f64_total_key(b)),
                    a.total_cmp(&b),
                    "{a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn total_key_roundtrips_exactly() {
        for &x in &KEY_SAMPLES {
            let back = f64_from_total_key(f64_total_key(x));
            assert_eq!(back.to_bits(), x.to_bits(), "{x}");
        }
        // NaN payloads roundtrip too.
        let nan = f64::from_bits(0x7FF8_0000_0000_1234);
        assert_eq!(
            f64_from_total_key(f64_total_key(nan)).to_bits(),
            nan.to_bits()
        );
    }
}
