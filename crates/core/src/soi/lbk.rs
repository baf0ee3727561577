//! `LBk`: the k-th best street-level interest lower bound (Lemma 1, first
//! case; Alg. 1 lines 23–24).
//!
//! Alg. 1 only ever *raises* a street's bound. A street outside the k best
//! can therefore get back in only through an update that names its new
//! value, never because something above it fell — so nothing but the k best
//! `(bound, street)` pairs needs keeping: one ascending vector, updated by
//! a binary search and a shift (k ≤ 100 in every workload).

use soi_common::{OrderedF64, StreetId};

/// A street's lower bound. Pairs order by bound, then street id: a total
/// order, so "the k best pairs" is one definite set.
type Entry = (OrderedF64, StreetId);

/// The k best `(bound, street)` pairs under rising bounds.
#[derive(Debug, Default)]
pub(crate) struct KBest {
    k: usize,
    /// Ascending; at most `k` long, and never sized by `k` (a caller's
    /// number): it grows one raised street at a time.
    best: Vec<Entry>,
}

impl KBest {
    /// Forgets every street and tracks the `k` best from here on.
    pub(crate) fn reset(&mut self, k: usize) {
        debug_assert!(k >= 1, "k must be at least 1");
        self.k = k;
        self.best.clear();
    }

    /// Raises `street`'s bound from `old` (`None`: it had none) to `new`.
    /// `old` must be what the last call for `street` passed as `new`, and
    /// `new` must exceed it.
    pub(crate) fn raise(&mut self, street: StreetId, old: Option<f64>, new: f64) {
        debug_assert!(old.is_none_or(|old| old < new), "bounds only rise");
        let entry = (OrderedF64::new(new), street);
        let below = |list: &[Entry], e: &Entry| list.partition_point(|x| x < e);
        // Where the street's old pair sits, if it is among the k best.
        let held = old
            .map(|old| below(&self.best, &(OrderedF64::new(old), street)))
            .filter(|&at| self.best.get(at).is_some_and(|x| x.1 == street));
        // The pair that leaves: the street's old one, or else the smallest
        // if the new pair beats it. Fewer than k held: nothing leaves.
        let leaves = match held {
            Some(at) => at,
            None if self.best.len() < self.k => {
                self.best.insert(below(&self.best, &entry), entry);
                return;
            }
            None if self.best.first().is_some_and(|min| entry > *min) => 0,
            None => return,
        };
        // The new pair is greater than the one that leaves, so its place is
        // at or above it: the pairs in between move down one.
        let to = leaves + below(&self.best[leaves + 1..], &entry);
        self.best.copy_within(leaves + 1..=to, leaves);
        self.best[to] = entry;
    }

    /// The k-th largest bound, or 0.0 while fewer than k streets have one.
    /// (Which of two streets with equal bounds is kept does not change it.)
    pub(crate) fn threshold(&self) -> f64 {
        if self.best.len() < self.k {
            0.0
        } else {
            self.best.first().map_or(0.0, |min| min.0.get())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The k-th largest of `bounds`' raised entries, 0.0 if fewer than k.
    fn kth_largest(bounds: &[Option<f64>], k: usize) -> f64 {
        let mut raised: Vec<f64> = bounds.iter().flatten().copied().collect();
        raised.sort_by(|a, b| b.total_cmp(a));
        raised.get(k.wrapping_sub(1)).copied().unwrap_or(0.0)
    }

    proptest! {
        /// After every update the threshold is the k-th largest of a sorted
        /// copy. Raises come from a few step sizes, so bounds tie often; a
        /// street is raised repeatedly, and a big step takes a street from
        /// outside the k best straight to the top.
        #[test]
        fn threshold_is_the_kth_largest_after_every_raise(
            n in 1usize..12,
            k_pick in 0usize..4,
            raises in proptest::collection::vec((0usize..12, 0usize..5), 1..120),
        ) {
            const STEPS: [f64; 5] = [0.25, 0.25, 0.5, 1.0, 1000.0];
            let k = [1, 2, n, n + 5][k_pick];
            let mut bounds: Vec<Option<f64>> = vec![None; n];
            let mut lbk = KBest::default();
            // A reset forgets what an earlier query left behind.
            lbk.reset(1);
            lbk.raise(StreetId(7), None, 9.0);
            lbk.reset(k);
            prop_assert_eq!(lbk.threshold().to_bits(), 0.0f64.to_bits());
            for (street, step) in raises {
                let street = street % n;
                let old = bounds[street];
                let new = old.unwrap_or(0.0) + STEPS[step];
                bounds[street] = Some(new);
                lbk.raise(StreetId(street as u32), old, new);
                prop_assert_eq!(lbk.threshold().to_bits(), kth_largest(&bounds, k).to_bits());
                prop_assert!(lbk.best.len() <= k);
                prop_assert!(lbk.best.windows(2).all(|w| w[0] < w[1]));
            }
        }
    }

    #[test]
    fn a_huge_k_sizes_nothing() {
        let mut lbk = KBest::default();
        lbk.reset(usize::MAX);
        lbk.raise(StreetId(3), None, 2.0);
        lbk.raise(StreetId(1), None, 5.0);
        lbk.raise(StreetId(3), Some(2.0), 7.0);
        assert_eq!(lbk.threshold(), 0.0);
        let held: Vec<(f64, StreetId)> = lbk.best.iter().map(|e| (e.0.get(), e.1)).collect();
        assert_eq!(held, vec![(5.0, StreetId(1)), (7.0, StreetId(3))]);
        assert!(lbk.best.capacity() < 64);
    }
}
