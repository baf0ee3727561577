//! Per-query execution budgets: deadlines for anytime query evaluation.
//!
//! A [`QueryBudget`] carries an optional wall-clock deadline into the
//! algorithms. Algorithm 1 checks it every few source-list accesses,
//! Algorithm 2 once per greedy round; on expiry each returns its current
//! best answer flagged as *partial* instead of an error. This is sound
//! because both algorithms maintain valid intermediate answers at every
//! step: Alg. 1's seen segments carry lower-bound masses (so the current
//! LBk top-k is a correct lower-bound ranking), and Alg. 2's selection is
//! grown one photo at a time (so the current selection is a valid, smaller
//! summary).
//!
//! The unlimited budget is the default and is free: every check is a
//! branch on a `None`, and results are bit-identical to the un-budgeted
//! entry points.

use std::time::{Duration, Instant};

/// How many Alg. 1 source-list accesses elapse between deadline checks.
/// A power of two so the modulo folds to a mask; small enough that a
/// deadline overrun is bounded by a few accesses' work (microseconds),
/// large enough that `Instant::now` never shows up in a profile.
pub const BUDGET_CHECK_EVERY: usize = 16;

/// A wall-clock execution budget for one query.
///
/// Construct with [`QueryBudget::unlimited`] (the default; identical
/// behaviour to the plain entry points), [`QueryBudget::with_deadline`],
/// or [`QueryBudget::from_timeout`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueryBudget {
    deadline: Option<Instant>,
}

impl QueryBudget {
    /// A budget that never expires.
    pub const fn unlimited() -> Self {
        Self { deadline: None }
    }

    /// A budget expiring at `deadline`.
    pub const fn with_deadline(deadline: Instant) -> Self {
        Self {
            deadline: Some(deadline),
        }
    }

    /// A budget expiring `timeout` from now.
    pub fn from_timeout(timeout: Duration) -> Self {
        Self {
            deadline: Instant::now().checked_add(timeout),
        }
    }

    /// The absolute deadline, if any.
    pub fn deadline(&self) -> Option<Instant> {
        self.deadline
    }

    /// Whether the deadline has passed. Unlimited budgets never expire.
    #[inline]
    pub fn expired(&self) -> bool {
        match self.deadline {
            None => false,
            Some(d) => Instant::now() >= d,
        }
    }

    /// Time left until expiry: `None` for unlimited budgets, zero once
    /// expired.
    pub fn remaining(&self) -> Option<Duration> {
        self.deadline
            .map(|d| d.saturating_duration_since(Instant::now()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_never_expires() {
        let b = QueryBudget::unlimited();
        assert_eq!(b.deadline(), None);
        assert!(!b.expired());
        assert_eq!(b.remaining(), None);
        assert_eq!(b, QueryBudget::default());
    }

    #[test]
    fn past_deadline_is_expired() {
        let b = QueryBudget::with_deadline(Instant::now() - Duration::from_secs(1));
        assert!(b.deadline().is_some());
        assert!(b.expired());
        assert_eq!(b.remaining(), Some(Duration::ZERO));
    }

    #[test]
    fn future_deadline_is_not_expired() {
        let b = QueryBudget::from_timeout(Duration::from_secs(3600));
        assert!(!b.expired());
        assert!(b.remaining().is_some_and(|r| r > Duration::from_secs(3000)));
    }
}
