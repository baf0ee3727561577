//! SL2 and SLf: the two per-query segment lists, ordered by counting sort.
//!
//! Both lists rank segments by the O(1) bound on `|Cε(ℓ)|` — a small
//! integer, the number of grid cells under the segment's ε-dilated bounding
//! box. One pass stores and histograms it; the histogram lays out one
//! bucket per distinct count, largest count first, and the segments are
//! scattered into the buckets twice:
//!
//! - in id order, which *is* **SL2** — count descending, then id ascending,
//!   the order [`Ranked`](super::ranked::Ranked) gives a heap of the same
//!   scores;
//! - in SL3's precomputed length order, for **SLf**. Within a bucket the
//!   coupled factor `count / (2ε·len + πε²)` is non-increasing in `len`,
//!   also as computed (a multiplication, an addition and a division by a
//!   positive number are each monotone under IEEE rounding), so a bucket's
//!   first unseen segment in length order carries the bucket's largest
//!   factor, and the largest over the buckets' heads is the value a heap
//!   ranked by the factor has on top — the same `f64`, bit for bit.

use soi_common::SegmentId;

/// One distinct count's run of `slf`.
#[derive(Debug, Clone, Copy)]
struct Bucket {
    count: u32,
    /// The bucket's head: its first entry not yet found seen.
    cursor: u32,
    end: u32,
}

/// SL2 and SLf of one query; refilled in place by [`build`](Self::build).
#[derive(Debug, Default)]
pub(crate) struct CountedLists {
    /// Per segment: its count.
    counts: Vec<u32>,
    /// Per count value: where its bucket's next segment goes, one column
    /// per scatter (zero beyond what the query's counts reach).
    next_by_id: Vec<u32>,
    next_by_len: Vec<u32>,
    /// SL2: every segment, count descending then id ascending. Entries
    /// before `cursor2` were popped or found final.
    sl2: Vec<SegmentId>,
    cursor2: usize,
    /// SLf: every segment, bucket after bucket, length ascending within.
    slf: Vec<SegmentId>,
    /// The non-empty buckets, count descending.
    buckets: Vec<Bucket>,
    /// Per bucket: the factor of the entry at its cursor — an upper bound
    /// of the bucket's largest unseen factor, exact while that entry is
    /// unseen — or 0.0 once the bucket is exhausted.
    heads: Vec<f64>,
    /// The bucket with the largest head.
    top: usize,
}

impl CountedLists {
    /// Fills both lists for the segments `0..num_segments`: `count_of`
    /// gives a segment's count, `by_len` is all of them in SL3 order, and
    /// `factor(count, segment)` the coupled factor (positive or zero).
    pub fn build(
        &mut self,
        num_segments: usize,
        by_len: &[SegmentId],
        mut count_of: impl FnMut(SegmentId) -> u32,
        factor: impl Fn(u32, SegmentId) -> f64,
    ) {
        debug_assert_eq!(by_len.len(), num_segments);
        let Self {
            counts,
            next_by_id,
            next_by_len,
            sl2,
            slf,
            buckets,
            heads,
            ..
        } = self;
        // The histogram, in `next_by_id`.
        next_by_id.clear();
        counts.clear();
        counts.extend((0..num_segments).map(|seg| {
            let count = count_of(SegmentId::from_index(seg));
            if next_by_id.len() <= count as usize {
                next_by_id.resize(count as usize + 1, 0);
            }
            next_by_id[count as usize] += 1;
            count
        }));
        // Bucket starts, largest count first.
        buckets.clear();
        let mut start = 0u32;
        for (count, slot) in next_by_id.iter_mut().enumerate().rev() {
            let len = std::mem::replace(slot, start);
            if len > 0 {
                buckets.push(Bucket {
                    count: count as u32,
                    cursor: start,
                    end: start + len,
                });
                start += len;
            }
        }
        next_by_len.clear();
        next_by_len.extend_from_slice(next_by_id);
        let scatter = |list: &mut Vec<SegmentId>, next: &mut [u32], seg: SegmentId| {
            let at = &mut next[counts[seg.index()] as usize];
            list[*at as usize] = seg;
            *at += 1;
        };
        for list in [&mut *sl2, &mut *slf] {
            list.clear();
            list.resize(num_segments, SegmentId(0));
        }
        for seg in (0..num_segments).map(SegmentId::from_index) {
            scatter(sl2, next_by_id, seg);
        }
        for &seg in by_len {
            scatter(slf, next_by_len, seg);
        }
        heads.clear();
        heads.extend(
            buckets
                .iter()
                .map(|b| factor(b.count, slf[b.cursor as usize])),
        );
        self.cursor2 = 0;
        self.settle_top();
    }

    /// Number of segments listed.
    pub fn len(&self) -> usize {
        self.sl2.len()
    }

    /// `top(SL2)`: the first segment that is not `finalized` and its count,
    /// dropping final ones off the head for good (final is for ever).
    pub fn top2(&mut self, finalized: impl Fn(SegmentId) -> bool) -> Option<(SegmentId, u32)> {
        while let Some(&seg) = self.sl2.get(self.cursor2) {
            if !finalized(seg) {
                return Some((seg, self.counts[seg.index()]));
            }
            self.cursor2 += 1;
        }
        None
    }

    /// Pops `top(SL2)`: the segment the last [`top2`](Self::top2) returned.
    pub fn pop2(&mut self) {
        self.cursor2 += 1;
    }

    /// `top(SLf)`: the largest factor among the segments that are not
    /// `seen` (seen is for ever), 0.0 if every one is.
    ///
    /// Every head bounds its bucket from above, so once the largest head
    /// belongs to an unseen segment it is the answer; a seen one moves its
    /// bucket's cursor on and the largest is looked for again. Accesses
    /// that leave the top head unseen cost one `seen` test.
    pub fn top_factor(
        &mut self,
        seen: impl Fn(SegmentId) -> bool,
        factor: impl Fn(u32, SegmentId) -> f64,
    ) -> f64 {
        while let Some(bucket) = self.buckets.get_mut(self.top) {
            let run = &self.slf[bucket.cursor as usize..bucket.end as usize];
            let Some(&head) = run.first() else {
                // The largest head is an exhausted bucket's 0.0.
                return 0.0;
            };
            if !seen(head) {
                return self.heads[self.top];
            }
            let skip = run.iter().take_while(|&&seg| seen(seg)).count();
            bucket.cursor += skip as u32;
            self.heads[self.top] = match run.get(skip) {
                Some(&next) => factor(bucket.count, next),
                None => 0.0,
            };
            self.settle_top();
        }
        0.0
    }

    /// Points `top` at the largest head (the first of equals).
    fn settle_top(&mut self) {
        let max = self.heads.iter().copied().fold(0.0, f64::max);
        self.top = self.heads.iter().position(|&h| h == max).unwrap_or(0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::soi::interest::segment_interest;
    use crate::soi::ranked::Ranked;
    use proptest::prelude::*;
    use std::collections::BinaryHeap;

    /// What the lists replaced: a heap of every segment ranked by count
    /// and one ranked by the coupled factor, read as Alg. 1 read them.
    struct Heaps {
        sl2: BinaryHeap<Ranked<SegmentId>>,
        slf: BinaryHeap<Ranked<SegmentId>>,
    }

    impl Heaps {
        fn top2(&mut self, finalized: &[bool]) -> Option<(SegmentId, u64)> {
            while self.sl2.peek().is_some_and(|e| finalized[e.id.index()]) {
                self.sl2.pop();
            }
            self.sl2.peek().map(|e| (e.id, e.score.to_bits()))
        }

        fn top_factor(&mut self, seen: &[bool]) -> f64 {
            while self.slf.peek().is_some_and(|e| seen[e.id.index()]) {
                self.slf.pop();
            }
            self.slf.peek().map_or(0.0, |e| e.score)
        }
    }

    proptest! {
        /// The bucketed SL2 pops the segments the count-ranked heap pops,
        /// and SLf's top is the factor-ranked heap's, `to_bits`-equal after
        /// every step of a random interleaving of "mark seen", "mark final"
        /// and "pop SL2". Counts come from a few values (ties, and 0 for a
        /// bounding box off the grid), lengths from a few more (equal
        /// lengths within a bucket); one segment and no segment included.
        #[test]
        fn lists_read_like_the_heaps_they_replace(
            segments in proptest::collection::vec((0usize..5, 0usize..6), 0..40),
            eps_pick in 0usize..3,
            steps in proptest::collection::vec((0usize..3, 0usize..40), 0..120),
        ) {
            const COUNTS: [u32; 5] = [0, 1, 4, 4, 250];
            const LENS: [f64; 6] = [0.0, 1e-9, 0.125, 0.125 + 1e-16, 3.0, 7e5];
            let eps = [1e-4, 0.5, 1e7][eps_pick];
            let n = segments.len();
            let count: Vec<u32> = segments.iter().map(|&(c, _)| COUNTS[c]).collect();
            let len: Vec<f64> = segments.iter().map(|&(_, l)| LENS[l]).collect();
            let factor = |count: u32, seg: SegmentId| {
                segment_interest(f64::from(count), len[seg.index()], eps)
            };
            let mut by_len: Vec<SegmentId> = (0..n).map(SegmentId::from_index).collect();
            by_len.sort_by(|a, b| len[a.index()].total_cmp(&len[b.index()]).then(a.cmp(b)));

            let mut lists = CountedLists::default();
            // Whatever an earlier query left behind is forgotten.
            lists.build(3, &[SegmentId(2), SegmentId(0), SegmentId(1)], |s| s.0 * 7, |c, _| f64::from(c));
            lists.top_factor(|s| s.0 != 1, |c, _| f64::from(c));
            lists.top2(|s| s.0 == 2);
            lists.build(n, &by_len, |seg| count[seg.index()], factor);
            prop_assert_eq!(lists.len(), n);
            let ranked = |score: &dyn Fn(SegmentId) -> f64| -> BinaryHeap<Ranked<SegmentId>> {
                (0..n)
                    .map(SegmentId::from_index)
                    .map(|id| Ranked { score: score(id), id })
                    .collect()
            };
            let mut heaps = Heaps {
                sl2: ranked(&|id| f64::from(count[id.index()])),
                slf: ranked(&|id| factor(count[id.index()], id)),
            };
            let (mut seen, mut finalized) = (vec![false; n], vec![false; n]);
            for (op, pick) in std::iter::once((3, 0)).chain(steps) {
                match op {
                    0 if n > 0 => seen[pick % n] = true,
                    1 if n > 0 => {
                        // Only a seen segment is ever final.
                        seen[pick % n] = true;
                        finalized[pick % n] = true;
                    }
                    2 => {
                        // Alg. 1 pops the head it has just read.
                        if let Some((seg, _)) = lists.top2(|s| finalized[s.index()]) {
                            prop_assert_eq!(Some(seg), heaps.top2(&finalized).map(|e| e.0));
                            lists.pop2();
                            heaps.sl2.pop();
                            seen[seg.index()] = true;
                            finalized[seg.index()] = true;
                        }
                    }
                    _ => {}
                }
                let top2 = lists
                    .top2(|s| finalized[s.index()])
                    .map(|(seg, count)| (seg, f64::from(count).to_bits()));
                prop_assert_eq!(top2, heaps.top2(&finalized));
                let top_f = lists.top_factor(|s| seen[s.index()], factor);
                prop_assert_eq!(top_f.to_bits(), heaps.top_factor(&seen).to_bits());
            }
        }
    }
}
