//! Generic inverted indexes with id-sorted postings.
//!
//! The paper's indexes keep, inside every grid cell, "a local inverted index
//! on the set of keywords among the cell POIs. The entry for keyword ψ is a
//! list of POIs sorted increasingly on POI id" (Sec. 3.2.1), and count
//! multi-keyword matches by traversing the per-keyword lists "in parallel"
//! (Sec. 3.2.2) so each document is counted once. [`InvertedIndex`] is that
//! structure, generic over the document id type; [`union_distinct`] is the
//! synchronous k-way traversal.

use soi_common::{FxHashMap, KeywordId};

/// An inverted index mapping keywords to id-sorted postings lists.
#[derive(Debug, Clone)]
pub struct InvertedIndex<D> {
    postings: FxHashMap<KeywordId, Vec<D>>,
    num_docs: usize,
}

impl<D> Default for InvertedIndex<D> {
    fn default() -> Self {
        Self {
            postings: FxHashMap::default(),
            num_docs: 0,
        }
    }
}

impl<D: Copy + Ord> InvertedIndex<D> {
    /// Creates an empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a document with its keyword set.
    ///
    /// Documents must be added in ascending id order (postings stay sorted
    /// without per-insert sorting); this is debug-asserted.
    pub fn add_document<I: IntoIterator<Item = KeywordId>>(&mut self, doc: D, keywords: I) {
        for k in keywords {
            let list = self.postings.entry(k).or_default();
            debug_assert!(
                list.last().is_none_or(|&last| last <= doc),
                "documents must be added in ascending id order"
            );
            if list.last() != Some(&doc) {
                list.push(doc);
            }
        }
        self.num_docs += 1;
    }

    /// Builds an index from `(keyword, doc)` pairs sorted ascending by
    /// `(keyword, doc)`, with `num_docs` the number of documents the pairs
    /// were drawn from.
    ///
    /// Produces exactly the index that [`add_document`](Self::add_document)
    /// calls over the same documents would: duplicate adjacent pairs
    /// collapse, postings stay id-sorted. This is the bulk path used by the
    /// grouped (and parallel) index builds, which gather each cell's
    /// `(keyword, doc)` pairs and sort once instead of hashing per keyword
    /// per document.
    pub fn from_sorted_pairs(num_docs: usize, pairs: &[(KeywordId, D)]) -> Self {
        debug_assert!(
            pairs
                .windows(2)
                .all(|w| (w[0].0, w[0].1) <= (w[1].0, w[1].1)),
            "pairs must be sorted by (keyword, doc)"
        );
        let mut postings: FxHashMap<KeywordId, Vec<D>> = FxHashMap::default();
        let mut i = 0;
        while i < pairs.len() {
            let k = pairs[i].0;
            let run_end = pairs[i..]
                .iter()
                .position(|&(kk, _)| kk != k)
                .map_or(pairs.len(), |off| i + off);
            let mut list: Vec<D> = Vec::with_capacity(run_end - i);
            for &(_, d) in &pairs[i..run_end] {
                if list.last() != Some(&d) {
                    list.push(d);
                }
            }
            postings.insert(k, list);
            i = run_end;
        }
        Self { postings, num_docs }
    }

    /// Builds an index from ready-made per-keyword postings runs.
    ///
    /// Each run is `(keyword, docs)` with `docs` strictly ascending (distinct
    /// ids), and keywords must be distinct across runs; both are
    /// debug-asserted. This is the zero-rehash bulk path: the grouped index
    /// build carves each cell's postings directly out of a globally sorted
    /// entry array, so the lists arrive already sorted and deduplicated.
    pub fn from_runs(num_docs: usize, runs: Vec<(KeywordId, Vec<D>)>) -> Self {
        let mut postings: FxHashMap<KeywordId, Vec<D>> = FxHashMap::default();
        postings.reserve(runs.len());
        for (k, list) in runs {
            debug_assert!(
                list.windows(2).all(|w| w[0] < w[1]),
                "postings must be strictly ascending"
            );
            let prev = postings.insert(k, list);
            debug_assert!(prev.is_none(), "duplicate keyword run");
        }
        Self { postings, num_docs }
    }

    /// The postings list for `k` (empty slice if absent).
    pub fn postings(&self, k: KeywordId) -> &[D] {
        self.postings.get(&k).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Number of documents containing `k`.
    pub fn doc_frequency(&self, k: KeywordId) -> usize {
        self.postings(k).len()
    }

    /// Number of documents added.
    pub fn num_documents(&self) -> usize {
        self.num_docs
    }

    /// Number of distinct keywords.
    pub fn num_keywords(&self) -> usize {
        self.postings.len()
    }

    /// Iterates over `(keyword, postings)` in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (KeywordId, &[D])> {
        self.postings.iter().map(|(&k, v)| (k, v.as_slice()))
    }

    /// Calls `f` once per distinct document appearing in the postings of any
    /// of `keywords`, in ascending document order.
    ///
    /// This is the paper's synchronous multi-list traversal: a document with
    /// several matching keywords is visited exactly once.
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

/// Lists (and keywords) handled without a heap allocation: queries carry
/// a handful of keywords, wider sets take the allocating path.
pub const STACK_LISTS: usize = 8;

/// K-way distinct union of id-sorted lists: calls `f` exactly once per
/// distinct element, in ascending order.
///
/// Lists must each be sorted ascending (duplicates within a list allowed).
/// Allocates only for more than [`STACK_LISTS`] lists.
#[inline]
pub fn union_distinct<D: Copy + Ord, F: FnMut(D)>(lists: &[&[D]], mut f: F) {
    let (mut stack, mut heap) = ([0usize; STACK_LISTS], Vec::new());
    let cursors: &mut [usize] = if lists.len() <= STACK_LISTS {
        &mut stack
    } else {
        heap.resize(lists.len(), 0);
        &mut heap
    };
    loop {
        // Find the smallest head among all lists.
        let mut smallest: Option<D> = None;
        for (list, &c) in lists.iter().zip(cursors.iter()) {
            if let Some(&head) = list.get(c) {
                smallest = Some(match smallest {
                    Some(s) if s <= head => s,
                    _ => head,
                });
            }
        }
        let Some(value) = smallest else { break };
        f(value);
        // Advance every cursor past this value (handles duplicates).
        for (list, c) in lists.iter().zip(cursors.iter_mut()) {
            while *c < list.len() && list[*c] == value {
                *c += 1;
            }
        }
    }
}

/// [`union_distinct`] over the postings of `keywords`, each resolved by
/// `postings` (empty for an absent keyword): the shared body of the
/// indexes' `for_each_matching`.
///
/// This chain (`for_each_matching` → here → [`union_distinct`]) is Alg. 1's
/// per-cell mass loop. It is `#[inline]` so that it is compiled into that
/// loop whichever codegen units the crates happen to be split into: without
/// the hint an unrelated change elsewhere in the crate moved Alg. 1 by
/// 3–5 %.
#[inline]
pub fn union_of_postings<'a, D: Copy + Ord + 'a, F: FnMut(D)>(
    keywords: &[KeywordId],
    postings: impl Fn(KeywordId) -> &'a [D],
    f: F,
) {
    let (mut stack, mut heap) = ([&[][..]; STACK_LISTS], Vec::new());
    let lists: &mut [&[D]] = if keywords.len() <= STACK_LISTS {
        &mut stack[..keywords.len()]
    } else {
        heap.resize(keywords.len(), &[][..]);
        &mut heap
    };
    for (list, &k) in lists.iter_mut().zip(keywords) {
        *list = postings(k);
    }
    union_distinct(lists, f);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kid(i: u32) -> KeywordId {
        KeywordId(i)
    }

    #[test]
    fn postings_sorted_and_queryable() {
        let mut idx: InvertedIndex<u32> = InvertedIndex::new();
        idx.add_document(1, [kid(0), kid(1)]);
        idx.add_document(2, [kid(1)]);
        idx.add_document(5, [kid(0)]);
        assert_eq!(idx.postings(kid(0)), &[1, 5]);
        assert_eq!(idx.postings(kid(1)), &[1, 2]);
        assert_eq!(idx.postings(kid(9)), &[] as &[u32]);
        assert_eq!(idx.doc_frequency(kid(0)), 2);
        assert_eq!(idx.num_documents(), 3);
        assert_eq!(idx.num_keywords(), 2);
    }

    #[test]
    fn duplicate_keywords_in_one_document_stored_once() {
        let mut idx: InvertedIndex<u32> = InvertedIndex::new();
        idx.add_document(3, [kid(0), kid(0), kid(0)]);
        assert_eq!(idx.postings(kid(0)), &[3]);
    }

    #[test]
    fn bulk_constructors_match_incremental() {
        let mut inc: InvertedIndex<u32> = InvertedIndex::new();
        inc.add_document(1, [kid(0), kid(1)]);
        inc.add_document(2, [kid(1)]);
        inc.add_document(5, [kid(0), kid(0)]);

        let pairs = [
            (kid(0), 1u32),
            (kid(0), 5),
            (kid(0), 5),
            (kid(1), 1),
            (kid(1), 2),
        ];
        let from_pairs = InvertedIndex::from_sorted_pairs(3, &pairs);
        let from_runs =
            InvertedIndex::from_runs(3, vec![(kid(0), vec![1, 5]), (kid(1), vec![1, 2])]);
        for idx in [&from_pairs, &from_runs] {
            assert_eq!(idx.num_documents(), inc.num_documents());
            assert_eq!(idx.num_keywords(), inc.num_keywords());
            assert_eq!(idx.postings(kid(0)), inc.postings(kid(0)));
            assert_eq!(idx.postings(kid(1)), inc.postings(kid(1)));
        }
    }

    #[test]
    fn union_distinct_merges_without_duplicates() {
        let a = [1u32, 3, 5, 7];
        let b = [2u32, 3, 4, 7];
        let c = [7u32, 8];
        let mut out = Vec::new();
        union_distinct(&[&a, &b, &c], |d| out.push(d));
        assert_eq!(out, vec![1, 2, 3, 4, 5, 7, 8]);
    }

    #[test]
    fn union_distinct_handles_empty_and_single() {
        let mut out = Vec::new();
        union_distinct::<u32, _>(&[], |d| out.push(d));
        assert!(out.is_empty());
        union_distinct(&[&[] as &[u32]], |d| out.push(d));
        assert!(out.is_empty());
        union_distinct(&[&[4u32, 4, 4] as &[u32]], |d| out.push(d));
        assert_eq!(out, vec![4]);
    }

    #[test]
    fn for_each_matching_counts_docs_once() {
        let mut idx: InvertedIndex<u32> = InvertedIndex::new();
        idx.add_document(1, [kid(0), kid(1)]);
        idx.add_document(2, [kid(0)]);
        idx.add_document(3, [kid(1)]);
        idx.add_document(4, [kid(2)]);
        assert_eq!(idx.count_matching(&[kid(0), kid(1)]), 3);
        assert_eq!(idx.count_matching(&[kid(2)]), 1);
        assert_eq!(idx.count_matching(&[kid(7)]), 0);
        let mut seen = Vec::new();
        idx.for_each_matching(&[kid(0), kid(1)], |d| seen.push(d));
        assert_eq!(seen, vec![1, 2, 3]);
    }
}
