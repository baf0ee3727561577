//! K-way distinct union over id-sorted postings.
//!
//! The paper's indexes keep, inside every grid cell, "a local inverted index
//! on the set of keywords among the cell POIs. The entry for keyword ψ is a
//! list of POIs sorted increasingly on POI id" (Sec. 3.2.1), and count
//! multi-keyword matches by traversing the per-keyword lists "in parallel"
//! (Sec. 3.2.2) so each document is counted once. The lists themselves live
//! in the POI index's shared CSR columns; [`union_distinct`] is the
//! synchronous k-way traversal and [`union_of_postings`] runs it over any
//! keyword → postings lookup.

use soi_common::KeywordId;

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
/// This chain (`for_each_matching` → here → [`union_distinct`]) is the
/// per-cell mass of BL's scan, `IndexView::cell_mass_for_segment`, which
/// runs it once per (segment, cell) pair; Alg. 1 gathers its cells through
/// the slot columns instead. It is `#[inline]` so that it is compiled into
/// that per-pair loop whichever codegen units the crates happen to be split
/// into.
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
}
