//! Source lists read best-first.
//!
//! An entry is one [`Ranked`] `u64` — its score rounded *up* to an `f32` in
//! the high half, its id complemented in the low half — so ordering
//! compares integers, and the integer order *is* the list's order: rounded
//! score descending, then id ascending. Ids are unique within a list, so
//! the order is total and the read sequence is the sorted sequence, ties
//! included. A score read back is never below the score put in, so a list
//! head still bounds everything after it.
//!
//! The default's SL2 is a [`GroupedList`]: Alg. 1 stops after reading a
//! short prefix of it, so it keeps its groups and their expanded members in
//! two heaps and orders only what it reads. A group's members are ranked
//! only once the group reaches the head, yet read in exactly the order one
//! list of all members gives. The paper entry's SL1 and SL2 are plain
//! [`RankedList`]s, sorted once when filled.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::marker::PhantomData;

/// One source-list entry.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Ranked<I> {
    key: u64,
    id: PhantomData<I>,
}

impl<I: Copy + From<u32> + Into<u32>> Ranked<I> {
    /// The entry of `id` ranked by `score`, which is non-negative (SL1: a
    /// cell's relevant weight; SL2: a run's bound `B(T)` and a segment's
    /// `b(ℓ)`, or a segment's `|Cε(ℓ)|` bound with paper bounds).
    pub(crate) fn new(score: f64, id: I) -> Self {
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
    pub(crate) fn score(self) -> f64 {
        f64::from(f32::from_bits((self.key >> 32) as u32))
    }

    pub(crate) fn id(self) -> I {
        I::from(!(self.key as u32))
    }
}

/// A source list read best-first: [`refill`](Self::refill) sorts it once,
/// and reads walk it from the head.
#[derive(Debug)]
pub(crate) struct RankedList<I> {
    /// In list order.
    entries: Vec<Ranked<I>>,
    /// The entry the next read returns.
    head: usize,
}

impl<I> Default for RankedList<I> {
    fn default() -> Self {
        Self {
            entries: Vec::new(),
            head: 0,
        }
    }
}

impl<I: Copy + From<u32> + Into<u32>> RankedList<I> {
    /// Lists `entries` instead, keeping the capacity.
    pub(crate) fn refill(&mut self, entries: impl IntoIterator<Item = Ranked<I>>) {
        self.entries.clear();
        self.entries.extend(entries);
        self.entries.sort_unstable_by_key(|e| Reverse(e.key));
        self.head = 0;
    }

    /// The first entry not yet popped.
    pub(crate) fn peek(&self) -> Option<Ranked<I>> {
        self.entries.get(self.head).copied()
    }

    /// Takes the first entry not yet popped.
    pub(crate) fn pop(&mut self) -> Option<Ranked<I>> {
        let first = self.peek()?;
        self.head += 1;
        Some(first)
    }
}

/// A source list of members `I` in groups `G`, each group listed with a
/// score at or above each of its members' scores, in a heap. A read first
/// *expands* every group whose rounded score is at or above the best
/// expanded member's (moving its members into a second heap), then reads
/// that heap. Every unexpanded member then scores strictly below the head,
/// and ties on the rounded score are expanded before the head is read, so
/// the reads are exactly [`RankedList`]'s over all members, ties included:
/// members are read in (rounded score descending, id ascending) order.
#[derive(Debug)]
pub(crate) struct GroupedList<G, I> {
    /// The keys of the groups not yet expanded.
    groups: BinaryHeap<u64>,
    /// Groups listed, expanded or not.
    listed: usize,
    /// The keys of the expanded members.
    members: BinaryHeap<u64>,
    id: PhantomData<(G, I)>,
}

impl<G, I> Default for GroupedList<G, I> {
    fn default() -> Self {
        Self {
            groups: BinaryHeap::new(),
            listed: 0,
            members: BinaryHeap::new(),
            id: PhantomData,
        }
    }
}

impl<G, I> GroupedList<G, I>
where
    G: Copy + From<u32> + Into<u32>,
    I: Copy + From<u32> + Into<u32>,
{
    /// Lists `groups` instead, keeping the capacity. Room for `capacity`
    /// members is reserved, so no read below that many reallocates
    /// (reserved is address space, touched only as far as it is filled).
    pub(crate) fn refill(&mut self, groups: impl IntoIterator<Item = Ranked<G>>, capacity: usize) {
        self.groups.clear();
        self.groups.extend(groups.into_iter().map(|g| g.key));
        self.listed = self.groups.len();
        self.members.clear();
        self.members.reserve(capacity);
    }

    /// Groups listed, expanded or not.
    pub(crate) fn len(&self) -> usize {
        self.listed
    }

    /// The first member not yet popped. `expand` gives a group's members.
    pub(crate) fn peek<M>(&mut self, expand: impl Fn(G) -> M) -> Option<Ranked<I>>
    where
        M: IntoIterator<Item = Ranked<I>>,
    {
        while let Some(&group) = self.groups.peek() {
            if self
                .members
                .peek()
                .is_some_and(|&head| head >> 32 > group >> 32)
            {
                break;
            }
            self.groups.pop();
            let group = Ranked::<G> {
                key: group,
                id: PhantomData,
            };
            self.members
                .extend(expand(group.id()).into_iter().map(|m| m.key));
        }
        self.members.peek().map(|&key| Ranked {
            key,
            id: PhantomData,
        })
    }

    /// Takes the first member not yet popped.
    pub(crate) fn pop<M>(&mut self, expand: impl Fn(G) -> M) -> Option<Ranked<I>>
    where
        M: IntoIterator<Item = Ranked<I>>,
    {
        let first = self.peek(expand)?;
        self.members.pop();
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
            let mut read = Vec::with_capacity(entries.len());
            while let Some(first) = list.peek() {
                let popped = list.pop().map(|e| e.key);
                prop_assert_eq!(popped, Some(first.key));
                read.push((first.id(), first.score().to_bits()));
            }
            prop_assert_eq!(read, sorted);
        }

        /// A grouped list reads exactly what one [`RankedList`] over all its
        /// members with a positive score reads. Members score from a handful
        /// of values, so they tie within and across groups, some only once
        /// rounded (1 + 2⁻³⁰ and 1 + 2⁻⁵² round onto 1 + 2⁻²³); a group
        /// scores its best member, or above it by a rounding step, double or
        /// 0.5 more (so a group with no positive member is listed too);
        /// zero-score members are dropped on expansion. The list is
        /// refilled over a half-read earlier one.
        #[test]
        fn grouped_reads_equal_one_list_of_the_members(
            groups in proptest::collection::vec(
                (proptest::collection::vec(0usize..8, 0..12), 0usize..4),
                0..200,
            ),
            earlier in 0usize..300,
        ) {
            const SCORES: [f64; 8] = [
                0.0, 0.5, 1.0, 1.0 + f64::EPSILON, 1.0 + 1.0 / (1u64 << 30) as f64,
                1.0 + 1.0 / (1u64 << 23) as f64, 7.25, 1e9,
            ];
            let mut members: Vec<Vec<(f64, u32)>> = Vec::new();
            let mut group_scores = Vec::new();
            let mut next_id = 0u32;
            for (picks, slack) in &groups {
                let group: Vec<(f64, u32)> = picks
                    .iter()
                    .map(|&p| {
                        next_id += 1;
                        (SCORES[p], next_id.wrapping_mul(2_654_435_761))
                    })
                    .collect();
                let best = group.iter().map(|m| m.0).fold(0.0, f64::max);
                group_scores.push(match slack {
                    0 => best,
                    1 => best * (1.0 + f64::EPSILON),
                    2 => best * 2.0,
                    _ => best + 0.5,
                });
                members.push(group);
            }

            let mut one = RankedList::<u32>::default();
            one.refill(
                members
                    .iter()
                    .flatten()
                    .filter(|m| m.0 > 0.0)
                    .map(|&(score, id)| Ranked::new(score, id)),
            );
            let mut expected = Vec::new();
            while let Some(e) = one.pop() {
                expected.push(e.key);
            }

            let expand = |g: u32| {
                members[g as usize]
                    .iter()
                    .filter(|m| m.0 > 0.0)
                    .map(|&(score, id)| Ranked::new(score, id))
            };
            let mut list = GroupedList::<u32, u32>::default();
            list.refill((0..earlier as u32).map(|g| Ranked::new(f64::from(g), g)), 0);
            let earlier_members = |g: u32| [Ranked::new(f64::from(g) / 2.0, g)];
            for _ in 0..earlier / 2 {
                list.pop(earlier_members);
            }
            let listed = group_scores
                .iter()
                .enumerate()
                .filter(|(_, &score)| score > 0.0)
                .map(|(g, &score)| Ranked::new(score, g as u32));
            list.refill(listed, 16);
            let mut read = Vec::with_capacity(expected.len());
            while let Some(first) = list.peek(expand) {
                let popped = list.pop(expand).map(|e| e.key);
                prop_assert_eq!(popped, Some(first.key));
                read.push(first.key);
            }
            prop_assert_eq!(read, expected);
        }
    }
}
