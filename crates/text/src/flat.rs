//! Flat (CSR) inverted postings for bulk-built, read-mostly indexes.
//!
//! [`FlatPostings`] stores the same keyword → id-sorted postings mapping as
//! [`InvertedIndex`](crate::InvertedIndex), but in two contiguous arrays: a
//! keyword-ascending run directory and one shared document array. Compared to
//! the hash-map representation this removes the per-keyword allocation and
//! hashing from the offline build (the paper's per-cell local indexes number
//! in the thousands, each with a handful of keywords) and makes lookups a
//! binary search over a cache-resident directory.

use crate::inverted::union_of_postings;
use soi_common::KeywordId;

/// A compact inverted index: keyword → id-sorted postings, CSR layout.
#[derive(Debug, Clone)]
pub struct FlatPostings<D> {
    /// Per distinct keyword, ascending: the keyword and the **end** offset of
    /// its run in `docs` (the start is the previous entry's end, or 0).
    runs: Vec<(KeywordId, u32)>,
    /// All postings, concatenated in run order; id-sorted within each run.
    docs: Vec<D>,
    num_docs: usize,
}

impl<D> Default for FlatPostings<D> {
    fn default() -> Self {
        Self {
            runs: Vec::new(),
            docs: Vec::new(),
            num_docs: 0,
        }
    }
}

impl<D: Copy + Ord> FlatPostings<D> {
    /// Creates an empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds from `(keyword, doc)` pairs sorted ascending by
    /// `(keyword, doc)`, with `num_docs` the number of documents the pairs
    /// were drawn from. Adjacent duplicate pairs collapse, so the result
    /// matches the incremental `add_document` path of
    /// [`InvertedIndex`](crate::InvertedIndex) over the same documents.
    pub fn from_sorted_pairs(num_docs: usize, pairs: &[(KeywordId, D)]) -> Self {
        debug_assert!(
            pairs
                .windows(2)
                .all(|w| (w[0].0, w[0].1) <= (w[1].0, w[1].1)),
            "pairs must be sorted by (keyword, doc)"
        );
        let mut runs: Vec<(KeywordId, u32)> = Vec::new();
        let mut docs: Vec<D> = Vec::with_capacity(pairs.len());
        for &(k, d) in pairs {
            match runs.last_mut() {
                Some(&mut (rk, _)) if rk == k => {
                    if docs.last() != Some(&d) {
                        docs.push(d);
                    }
                }
                _ => {
                    runs.push((k, 0));
                    docs.push(d);
                }
            }
            if let Some(run) = runs.last_mut() {
                run.1 = docs.len() as u32;
            }
        }
        Self {
            runs,
            docs,
            num_docs,
        }
    }

    /// Builds from pre-assembled CSR arrays: `runs` holds each distinct
    /// keyword (ascending) with the **end** offset of its postings in
    /// `docs`; postings are id-sorted and distinct within each run.
    ///
    /// This is the zero-copy path for builders that already produce the CSR
    /// layout (the grouped index build derives both arrays from one sorted
    /// pair array in a single pass). Invariants are debug-asserted.
    pub fn from_raw_parts(num_docs: usize, runs: Vec<(KeywordId, u32)>, docs: Vec<D>) -> Self {
        debug_assert!(
            runs.windows(2).all(|w| w[0].0 < w[1].0 && w[0].1 <= w[1].1),
            "runs must have ascending keywords and non-decreasing offsets"
        );
        debug_assert_eq!(
            runs.last().map_or(0, |&(_, end)| end as usize),
            docs.len(),
            "last run must end at docs.len()"
        );
        debug_assert!({
            let flat = Self {
                runs: runs.clone(),
                docs: Vec::new(),
                num_docs,
            };
            let mut ok = true;
            let mut start = 0usize;
            for &(_, end) in &flat.runs {
                ok &= docs[start..end as usize].windows(2).all(|w| w[0] < w[1]);
                start = end as usize;
            }
            ok
        });
        Self {
            runs,
            docs,
            num_docs,
        }
    }

    /// The raw run directory: each distinct keyword (ascending) with the
    /// **end** offset of its postings in [`raw_docs`](Self::raw_docs).
    ///
    /// This is the snapshot-encoding view: together with `raw_docs` and
    /// [`num_documents`](Self::num_documents) it captures the whole index,
    /// and [`from_raw_parts`](Self::from_raw_parts) rebuilds it exactly.
    pub fn raw_runs(&self) -> &[(KeywordId, u32)] {
        &self.runs
    }

    /// The raw concatenated postings array (see [`raw_runs`](Self::raw_runs)).
    pub fn raw_docs(&self) -> &[D] {
        &self.docs
    }

    /// Adds a document with its keyword set (the maintenance path; the bulk
    /// path is [`from_sorted_pairs`](Self::from_sorted_pairs)).
    ///
    /// Cost is linear in the index size: the flat arrays are rebuilt. The
    /// result is identical to having included the document in the bulk build.
    pub fn add_document<I: IntoIterator<Item = KeywordId>>(&mut self, doc: D, keywords: I) {
        let mut pairs: Vec<(KeywordId, D)> = self
            .iter()
            .flat_map(|(k, ds)| ds.iter().map(move |&d| (k, d)))
            .collect();
        pairs.extend(keywords.into_iter().map(|k| (k, doc)));
        pairs.sort_unstable_by(|a, b| a.0.cmp(&b.0).then_with(|| a.1.cmp(&b.1)));
        *self = Self::from_sorted_pairs(self.num_docs + 1, &pairs);
    }

    /// The postings run for `k` (empty slice if absent).
    pub fn postings(&self, k: KeywordId) -> &[D] {
        match self.runs.binary_search_by_key(&k, |&(rk, _)| rk) {
            Ok(i) => {
                let end = self.runs[i].1 as usize;
                let start = if i == 0 {
                    0
                } else {
                    self.runs[i - 1].1 as usize
                };
                &self.docs[start..end]
            }
            Err(_) => &[],
        }
    }

    /// Number of documents containing `k`.
    pub fn doc_frequency(&self, k: KeywordId) -> usize {
        self.postings(k).len()
    }

    /// Number of documents indexed.
    pub fn num_documents(&self) -> usize {
        self.num_docs
    }

    /// Number of distinct keywords.
    pub fn num_keywords(&self) -> usize {
        self.runs.len()
    }

    /// Iterates over `(keyword, postings)` in ascending keyword order.
    pub fn iter(&self) -> impl Iterator<Item = (KeywordId, &[D])> {
        self.runs.iter().enumerate().map(move |(i, &(k, end))| {
            let start = if i == 0 {
                0
            } else {
                self.runs[i - 1].1 as usize
            };
            (k, &self.docs[start..end as usize])
        })
    }

    /// Calls `f` once per distinct document appearing in the postings of any
    /// of `keywords`, in ascending document order (the paper's synchronous
    /// multi-list traversal).
    #[inline]
    pub fn for_each_matching<F: FnMut(D)>(&self, keywords: &[KeywordId], f: F) {
        union_of_postings(keywords, |k| self.postings(k), f);
    }

    /// Counts distinct documents matching any of `keywords`.
    pub fn count_matching(&self, keywords: &[KeywordId]) -> usize {
        let mut n = 0;
        self.for_each_matching(keywords, |_| n += 1);
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::InvertedIndex;

    fn kid(i: u32) -> KeywordId {
        KeywordId(i)
    }

    #[test]
    fn from_sorted_pairs_matches_hash_index() {
        let mut hash: InvertedIndex<u32> = InvertedIndex::new();
        hash.add_document(1, [kid(0), kid(2)]);
        hash.add_document(2, [kid(2)]);
        hash.add_document(5, [kid(0), kid(1)]);
        let pairs = [
            (kid(0), 1u32),
            (kid(0), 5),
            (kid(1), 5),
            (kid(2), 1),
            (kid(2), 2),
            (kid(2), 2), // duplicate collapses
        ];
        let flat = FlatPostings::from_sorted_pairs(3, &pairs);
        assert_eq!(flat.num_documents(), hash.num_documents());
        assert_eq!(flat.num_keywords(), hash.num_keywords());
        for k in [0, 1, 2, 9] {
            assert_eq!(flat.postings(kid(k)), hash.postings(kid(k)), "k={k}");
            assert_eq!(flat.doc_frequency(kid(k)), hash.doc_frequency(kid(k)));
        }
        let flat_runs: Vec<(KeywordId, Vec<u32>)> =
            flat.iter().map(|(k, d)| (k, d.to_vec())).collect();
        assert_eq!(
            flat_runs,
            vec![
                (kid(0), vec![1, 5]),
                (kid(1), vec![5]),
                (kid(2), vec![1, 2]),
            ]
        );
    }

    #[test]
    fn add_document_matches_bulk() {
        let mut inc: FlatPostings<u32> = FlatPostings::new();
        inc.add_document(1, [kid(0), kid(1)]);
        inc.add_document(3, [kid(1)]);
        let bulk = FlatPostings::from_sorted_pairs(2, &[(kid(0), 1), (kid(1), 1), (kid(1), 3)]);
        assert_eq!(inc.num_documents(), bulk.num_documents());
        assert_eq!(inc.postings(kid(0)), bulk.postings(kid(0)));
        assert_eq!(inc.postings(kid(1)), bulk.postings(kid(1)));
    }

    #[test]
    fn from_raw_parts_matches_from_sorted_pairs() {
        let pairs = [
            (kid(0), 1u32),
            (kid(0), 5),
            (kid(1), 5),
            (kid(2), 1),
            (kid(2), 2),
        ];
        let bulk = FlatPostings::from_sorted_pairs(3, &pairs);
        let raw = FlatPostings::from_raw_parts(
            3,
            vec![(kid(0), 2), (kid(1), 3), (kid(2), 5)],
            vec![1u32, 5, 5, 1, 2],
        );
        assert_eq!(raw.num_documents(), bulk.num_documents());
        assert_eq!(raw.num_keywords(), bulk.num_keywords());
        for k in [0, 1, 2, 9] {
            assert_eq!(raw.postings(kid(k)), bulk.postings(kid(k)), "k={k}");
        }
        let empty = FlatPostings::<u32>::from_raw_parts(0, Vec::new(), Vec::new());
        assert_eq!(empty.num_keywords(), 0);
    }

    #[test]
    fn matching_traversal_counts_once() {
        let flat = FlatPostings::from_sorted_pairs(
            4,
            &[
                (kid(0), 1u32),
                (kid(0), 2),
                (kid(1), 1),
                (kid(1), 3),
                (kid(2), 4),
            ],
        );
        assert_eq!(flat.count_matching(&[kid(0), kid(1)]), 3);
        assert_eq!(flat.count_matching(&[kid(2)]), 1);
        assert_eq!(flat.count_matching(&[kid(9)]), 0);
        let mut seen = Vec::new();
        flat.for_each_matching(&[kid(0), kid(1)], |d| seen.push(d));
        assert_eq!(seen, vec![1, 2, 3]);
    }

    #[test]
    fn empty_index() {
        let flat: FlatPostings<u32> = FlatPostings::new();
        assert_eq!(flat.num_documents(), 0);
        assert_eq!(flat.num_keywords(), 0);
        assert_eq!(flat.postings(kid(0)), &[] as &[u32]);
        assert_eq!(flat.count_matching(&[kid(0)]), 0);
    }
}
