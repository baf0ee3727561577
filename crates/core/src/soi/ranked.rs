//! A lazily ordered source list.
//!
//! Alg. 1 stops after reading a short prefix of SL1 and SL2, so neither is
//! sorted whole: a query fills a [`RankedList`] with [`Ranked`] entries, and
//! a read selects the next best entries in O(n) and sorts just those. An
//! entry is one `u64` — its score rounded *up* to an `f32` in the high
//! half, its id complemented in the low half — so ordering compares
//! integers, and the integer order *is* the list's order: rounded score
//! descending, then id ascending. Ids are unique within a list, so the
//! order is total and the read sequence is the sorted sequence, ties
//! included. A score read back is never below the score put in, so a list
//! head still bounds everything after it.

use std::cmp::Reverse;
use std::marker::PhantomData;

/// One source-list entry.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Ranked<I> {
    key: u64,
    id: PhantomData<I>,
}

impl<I: Copy + From<u32> + Into<u32>> Ranked<I> {
    /// The entry of `id` ranked by `score`, which is non-negative (SL1: a
    /// cell's relevant weight; SL2: a segment's bound `b(ℓ)`, or its
    /// `|Cε(ℓ)|` bound with paper bounds).
    pub fn new(score: f64, id: I) -> Self {
        debug_assert!(score >= 0.0, "negative score {score}");
        // The nearest f32 (saturating to ∞), one step up if that is below.
        let mut up = score as f32;
        if f64::from(up) < score {
            up = up.next_up();
        }
        Self {
            key: u64::from(up.to_bits()) << 32 | u64::from(!id.into()),
            id: PhantomData,
        }
    }

    /// The least `f32` at or above the score the entry was made with.
    pub fn score(self) -> f64 {
        f64::from(f32::from_bits((self.key >> 32) as u32))
    }

    pub fn id(self) -> I {
        I::from(!(self.key as u32))
    }
}

/// Entries the first read sorts.
const FIRST_SORT: usize = 1024;

/// A source list read best-first and ordered only as far as it is read:
/// whenever the reads reach the end of the sorted run, the next best
/// entries — as many as are sorted already, at least [`FIRST_SORT`] — are
/// selected in O(n) and sorted. Reading `p` of `n` entries costs
/// O(n·log(p / FIRST_SORT) + p·log p), against a heap's O(n + p·log n).
#[derive(Debug)]
pub(crate) struct RankedList<I> {
    /// `..sorted` in list order; the rest unordered, all after them.
    entries: Vec<Ranked<I>>,
    sorted: usize,
    /// The entry the next read returns.
    head: usize,
}

impl<I> Default for RankedList<I> {
    fn default() -> Self {
        Self {
            entries: Vec::new(),
            sorted: 0,
            head: 0,
        }
    }
}

impl<I: Copy + From<u32> + Into<u32>> RankedList<I> {
    /// Lists `entries` instead, keeping the capacity.
    pub fn refill(&mut self, entries: impl IntoIterator<Item = Ranked<I>>) {
        self.entries.clear();
        self.entries.extend(entries);
        self.sorted = 0;
        self.head = 0;
    }

    /// Entries listed, read or not.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// The first entry not yet popped.
    pub fn peek(&mut self) -> Option<Ranked<I>> {
        if self.head == self.sorted && self.sorted < self.entries.len() {
            let rest = &mut self.entries[self.sorted..];
            let take = self.sorted.max(FIRST_SORT).min(rest.len());
            if take < rest.len() {
                rest.select_nth_unstable_by_key(take, |e| Reverse(e.key));
            }
            rest[..take].sort_unstable_by_key(|e| Reverse(e.key));
            self.sorted += take;
        }
        self.entries.get(self.head).copied()
    }

    /// Takes the first entry not yet popped.
    pub fn pop(&mut self) -> Option<Ranked<I>> {
        let first = self.peek()?;
        self.head += 1;
        Some(first)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Reading the list out yields exactly what `sort_by` over (rounded
        /// score descending, id ascending) yields, and every score read
        /// back is the least `f32` at or above the one put in. Scores come
        /// from a handful of values so most entries tie, some only once
        /// rounded (1 + 2⁻³⁰ rounds onto 1 + 2⁻²³, 1 + 2⁻⁵² too), some at
        /// the ends of the range (a subnormal f64, one past `f32::MAX`).
        /// Lengths cross several selections; the list is refilled over a
        /// half-read earlier list.
        #[test]
        fn reads_equal_the_sort(
            picks in proptest::collection::vec(0usize..9, 0..3000),
            earlier in 0usize..2000,
        ) {
            const SCORES: [f64; 9] = [
                0.0, 1e-310, 0.5, 1.0, 1.0 + f64::EPSILON, 1.0 + 1.0 / (1u64 << 30) as f64,
                7.25, 1e9, 1e39,
            ];
            let entries: Vec<(f64, u32)> = picks
                .iter()
                .enumerate()
                .map(|(i, &p)| (SCORES[p], (i as u32).wrapping_mul(2_654_435_761)))
                .collect();
            for &(score, id) in &entries {
                let read = Ranked::new(score, id).score();
                prop_assert!(read >= score && f64::from((read as f32).next_down()) < score);
            }
            let mut sorted: Vec<(u32, u64)> = entries
                .iter()
                .map(|&(score, id)| (id, Ranked::new(score, id).score().to_bits()))
                .collect();
            sorted.sort_by(|a, b| {
                f64::from_bits(b.1).total_cmp(&f64::from_bits(a.1)).then_with(|| a.0.cmp(&b.0))
            });

            let mut list = RankedList::default();
            list.refill((0..earlier as u32).map(|id| Ranked::new(f64::from(id), id)));
            for _ in 0..earlier / 2 {
                list.pop();
            }
            list.refill(entries.iter().map(|&(score, id)| Ranked::new(score, id)));
            prop_assert_eq!(list.len(), entries.len());
            let mut read = Vec::with_capacity(entries.len());
            while let Some(first) = list.peek() {
                let popped = list.pop().map(|e| e.key);
                prop_assert_eq!(popped, Some(first.key));
                read.push((first.id(), first.score().to_bits()));
            }
            prop_assert_eq!(read, sorted);
        }
    }
}
