//! Interest scores (Definitions 2 and 3).

/// Segment interest (Definition 2): the mass density
/// `int(ℓ) = mass(ℓ) / (2ε·len(ℓ) + πε²)`,
/// i.e. mass divided by the area of the ε-buffer around the segment.
///
/// `eps` must be strictly positive (validated at query construction), so
/// the denominator is always positive and the score finite.
#[inline]
pub fn segment_interest(mass: f64, seg_len: f64, eps: f64) -> f64 {
    debug_assert!(eps > 0.0, "eps must be positive");
    mass / (2.0 * eps * seg_len + std::f64::consts::PI * eps * eps)
}

/// How a street's interest aggregates over its segments' interests.
///
/// The paper uses the maximum (Definition 3) and notes that "there exist
/// several alternatives"; this is the only one implemented, and the one
/// the SOI algorithm's pruning bounds assume.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StreetAggregate {
    /// `int(s) = max_{ℓ∈s} int(ℓ)` — the paper's Definition 3.
    #[default]
    Max,
}

impl StreetAggregate {
    /// Aggregates the interests of a street's segments.
    ///
    /// Returns 0 for an empty street.
    pub(crate) fn aggregate(self, interests: &[f64]) -> f64 {
        match self {
            StreetAggregate::Max => interests.iter().copied().fold(0.0, f64::max),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;

    #[test]
    fn interest_formula() {
        // mass 4, len 10, eps 0.5: area = 2*0.5*10 + pi*0.25.
        let got = segment_interest(4.0, 10.0, 0.5);
        let want = 4.0 / (10.0 + PI * 0.25);
        assert!((got - want).abs() < 1e-12);
    }

    #[test]
    fn zero_length_segment_still_finite() {
        let got = segment_interest(2.0, 0.0, 0.5);
        assert!((got - 2.0 / (PI * 0.25)).abs() < 1e-12);
    }

    #[test]
    fn interest_monotone_in_mass_antitone_in_len() {
        assert!(segment_interest(3.0, 5.0, 0.5) > segment_interest(2.0, 5.0, 0.5));
        assert!(segment_interest(3.0, 5.0, 0.5) > segment_interest(3.0, 6.0, 0.5));
    }

    #[test]
    fn aggregates() {
        assert_eq!(StreetAggregate::Max.aggregate(&[1.0, 3.0, 2.0]), 3.0);
    }

    #[test]
    fn empty_street_aggregates_to_zero() {
        assert_eq!(StreetAggregate::Max.aggregate(&[]), 0.0);
    }
}
