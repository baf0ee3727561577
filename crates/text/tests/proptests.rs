//! Property-based tests for keyword sets, frequency vectors, and postings.

use proptest::prelude::*;
use soi_common::KeywordId;
use soi_text::{union_distinct, union_of_postings, FreqVector, KeywordSet, STACK_LISTS};
use std::collections::{BTreeMap, BTreeSet};

fn kwset() -> impl Strategy<Value = KeywordSet> {
    proptest::collection::vec(0u32..40, 0..12)
        .prop_map(|ids| KeywordSet::from_ids(ids.into_iter().map(KeywordId)))
}

proptest! {
    #[test]
    fn jaccard_distance_is_a_bounded_semimetric(a in kwset(), b in kwset()) {
        let d = a.jaccard_distance(&b);
        prop_assert!((0.0..=1.0).contains(&d));
        prop_assert!((d - b.jaccard_distance(&a)).abs() < 1e-12);
        prop_assert_eq!(a.jaccard_distance(&a), 0.0);
    }

    #[test]
    fn jaccard_triangle_inequality(a in kwset(), b in kwset(), c in kwset()) {
        // Jaccard distance is a true metric; check the triangle inequality.
        let ab = a.jaccard_distance(&b);
        let bc = b.jaccard_distance(&c);
        let ac = a.jaccard_distance(&c);
        prop_assert!(ac <= ab + bc + 1e-12);
    }

    #[test]
    fn set_ops_match_btreeset(xs in proptest::collection::vec(0u32..30, 0..15),
                              ys in proptest::collection::vec(0u32..30, 0..15)) {
        let a = KeywordSet::from_ids(xs.iter().map(|&i| KeywordId(i)));
        let b = KeywordSet::from_ids(ys.iter().map(|&i| KeywordId(i)));
        let sa: BTreeSet<u32> = xs.into_iter().collect();
        let sb: BTreeSet<u32> = ys.into_iter().collect();
        prop_assert_eq!(a.intersection_size(&b), sa.intersection(&sb).count());
        prop_assert_eq!(a.union_size(&b), sa.union(&sb).count());
        prop_assert_eq!(a.intersects(&b), !sa.is_disjoint(&sb));
        let inter: Vec<u32> = a.intersection(&b).iter().map(u32::from).collect();
        let expect: Vec<u32> = sa.intersection(&sb).copied().collect();
        prop_assert_eq!(inter, expect);
        let uni: Vec<u32> = a.union(&b).iter().map(u32::from).collect();
        let expect: Vec<u32> = sa.union(&sb).copied().collect();
        prop_assert_eq!(uni, expect);
    }

    #[test]
    fn freq_vector_l1_matches_sum(pairs in proptest::collection::vec((0u32..20, 0.0f64..10.0), 0..20)) {
        let v = FreqVector::from_weights(pairs.iter().map(|&(k, w)| (KeywordId(k), w)));
        let manual: f64 = v.iter().map(|(_, w)| w).sum();
        prop_assert!((v.l1_norm() - manual).abs() < 1e-9);
        // sum over full support equals the norm.
        prop_assert!((v.sum_over(&v.support()) - v.l1_norm()).abs() < 1e-9);
    }

    #[test]
    fn union_distinct_matches_btreeset(
        // Draws from a narrow range, so lists repeat values within
        // themselves and share them with each other.
        pool in proptest::collection::vec(proptest::collection::vec(0u32..50, 0..20), STACK_LISTS + 4..STACK_LISTS + 5),
        extra in 0usize..STACK_LISTS + 4,
    ) {
        let sorted: Vec<Vec<u32>> = pool
            .iter()
            .map(|l| {
                let mut l = l.clone();
                l.sort_unstable();
                l
            })
            .collect();
        // No list, the unmerged single list, the last count that merges on
        // the stack, the first that allocates, and one more at random.
        for count in [0, 1, 2, STACK_LISTS, STACK_LISTS + 1, extra] {
            let refs: Vec<&[u32]> = sorted[..count].iter().map(Vec::as_slice).collect();
            let mut got = Vec::new();
            union_distinct(&refs, |d| got.push(d));
            let expect: Vec<u32> = sorted[..count]
                .iter()
                .flatten()
                .copied()
                .collect::<BTreeSet<u32>>()
                .into_iter()
                .collect();
            prop_assert_eq!(got, expect, "{} lists", count);
        }
    }

    #[test]
    fn union_of_postings_matches_naive_at_any_width(
        docs in proptest::collection::vec(proptest::collection::vec(0u32..14, 0..6), 0..30),
        query in proptest::collection::vec(0u32..16, 0..STACK_LISTS + 3),
    ) {
        // A caller-supplied lookup (how the POI index's per-cell view
        // resolves keywords in its columns) on both sides of the
        // stack-or-heap switch; repeated and absent query keywords are
        // legal.
        let mut lists: BTreeMap<KeywordId, Vec<u32>> = BTreeMap::new();
        for (i, kws) in docs.iter().enumerate() {
            for k in kws.iter().collect::<BTreeSet<_>>() {
                lists.entry(KeywordId(*k)).or_default().push(i as u32);
            }
        }
        let q: Vec<KeywordId> = query.iter().map(|&k| KeywordId(k)).collect();
        let expect: Vec<u32> = docs
            .iter()
            .enumerate()
            .filter(|(_, kws)| kws.iter().any(|k| query.contains(k)))
            .map(|(i, _)| i as u32)
            .collect();
        let mut got = Vec::new();
        union_of_postings(
            &q,
            |k| lists.get(&k).map_or(&[][..], Vec::as_slice),
            |d| got.push(d),
        );
        prop_assert_eq!(&got, &expect);
    }
}
