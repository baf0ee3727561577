//! Sorted keyword-id sets.

use soi_common::KeywordId;

/// Sets of at most this many keywords are stored inline, without a heap
/// allocation. Real POIs and photos carry one to a handful of keywords, so
/// the inline path covers the overwhelming majority of the millions of
/// sets an index build or snapshot load materialises; six ids keep the
/// whole set within 32 bytes (the size the heap variant forces anyway).
const INLINE_CAP: usize = 6;

/// Backing storage: a fixed inline buffer for small sets, a `Vec` beyond.
#[derive(Clone)]
enum Ids {
    Inline {
        len: u8,
        buf: [KeywordId; INLINE_CAP],
    },
    Heap(Vec<KeywordId>),
}

/// Size of the intersection of two strictly ascending id slices (linear
/// merge) — [`KeywordSet::intersection_size`] for ids held outside a set,
/// such as a diversification-index cell's `c.Ψ`.
pub fn sorted_intersection_size(a: &[KeywordId], b: &[KeywordId]) -> usize {
    let (mut i, mut j, mut n) = (0usize, 0usize, 0usize);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                n += 1;
                i += 1;
                j += 1;
            }
        }
    }
    n
}

/// The Jaccard distance of two sets from the sizes of their intersection and
/// union ([`KeywordSet::jaccard_distance`], for sets held as bit masks).
pub fn jaccard_distance_of(shared: usize, union: usize) -> f64 {
    if union == 0 {
        return 0.0;
    }
    1.0 - shared as f64 / union as f64
}

/// A sorted, deduplicated set of keyword ids.
///
/// This is the representation of `Ψp` (POI keywords), `Ψr` (photo tags), and
/// query keyword sets `Ψ`. Sorted storage makes the hot operations —
/// emptiness of `Ψp ∩ Ψ` (Definition 1) and the Jaccard distance
/// (Definition 7) — linear merges without hashing. Small sets (the common
/// case by far) live inline: constructing or cloning them never touches
/// the allocator, which is what keeps bulk paths — index builds, dataset
/// clones, snapshot decodes — off the malloc floor.
///
/// ```
/// use soi_common::KeywordId;
/// use soi_text::KeywordSet;
///
/// let a = KeywordSet::from_ids([KeywordId(1), KeywordId(2), KeywordId(3)]);
/// let b = KeywordSet::from_ids([KeywordId(3), KeywordId(4)]);
/// assert!(a.intersects(&b));
/// assert_eq!(a.intersection_size(&b), 1);
/// assert_eq!(a.jaccard_distance(&b), 1.0 - 1.0 / 4.0);
/// ```
#[derive(Clone)]
pub struct KeywordSet {
    ids: Ids,
}

impl KeywordSet {
    /// The empty set.
    pub fn empty() -> Self {
        Self::default()
    }

    /// Wraps ids that are already strictly ascending, choosing inline or
    /// heap storage by length. Callers guarantee canonical order.
    fn from_canonical_vec(ids: Vec<KeywordId>) -> Self {
        debug_assert!(ids.windows(2).all(|w| w[0] < w[1]));
        if ids.len() <= INLINE_CAP {
            let mut buf = [KeywordId(0); INLINE_CAP];
            buf[..ids.len()].copy_from_slice(&ids);
            Self {
                ids: Ids::Inline {
                    len: ids.len() as u8,
                    buf,
                },
            }
        } else {
            Self {
                ids: Ids::Heap(ids),
            }
        }
    }

    /// Builds a set from arbitrary ids (sorted and deduplicated).
    pub fn from_ids<I: IntoIterator<Item = KeywordId>>(ids: I) -> Self {
        let mut ids: Vec<KeywordId> = ids.into_iter().collect();
        ids.sort_unstable();
        ids.dedup();
        Self::from_canonical_vec(ids)
    }

    /// Wraps ids that are already strictly ascending (the canonical sorted,
    /// deduplicated order this type maintains), or returns `None` if they
    /// are not.
    ///
    /// This is the decode-side counterpart of [`Self::iter`]: a reader
    /// whose ids are already in canonical order builds the set without
    /// re-sorting it, and an out-of-order run is reported rather than
    /// normalised.
    pub(crate) fn from_ascending_ids(ids: Vec<KeywordId>) -> Option<Self> {
        if ids.windows(2).all(|w| w[0] < w[1]) {
            Some(Self::from_canonical_vec(ids))
        } else {
            None
        }
    }

    /// Like `from_ascending_ids`, but from an iterator of known
    /// length: small sets are written straight into inline storage, so the
    /// common case allocates nothing at all.
    pub fn from_ascending_iter<I>(mut ids: I) -> Option<Self>
    where
        I: ExactSizeIterator<Item = KeywordId>,
    {
        let n = ids.len();
        if n > INLINE_CAP {
            return Self::from_ascending_ids(ids.collect());
        }
        let mut buf = [KeywordId(0); INLINE_CAP];
        for i in 0..n {
            let k = ids.next()?;
            if i > 0 && buf[i - 1] >= k {
                return None;
            }
            buf[i] = k;
        }
        Some(Self {
            ids: Ids::Inline { len: n as u8, buf },
        })
    }

    /// Number of keywords in the set.
    pub fn len(&self) -> usize {
        self.as_slice().len()
    }

    /// Returns true if the set is empty.
    pub fn is_empty(&self) -> bool {
        self.as_slice().is_empty()
    }

    /// The sorted ids.
    pub fn ids(&self) -> &[KeywordId] {
        self.as_slice()
    }

    #[inline]
    fn as_slice(&self) -> &[KeywordId] {
        match &self.ids {
            Ids::Inline { len, buf } => &buf[..*len as usize],
            Ids::Heap(v) => v,
        }
    }

    /// Iterates over the ids in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = KeywordId> + '_ {
        self.as_slice().iter().copied()
    }

    /// Membership test (binary search).
    pub fn contains(&self, id: KeywordId) -> bool {
        self.as_slice().binary_search(&id).is_ok()
    }

    /// Size of the intersection with `other` (linear merge).
    pub fn intersection_size(&self, other: &KeywordSet) -> usize {
        sorted_intersection_size(self.as_slice(), other.as_slice())
    }

    /// Size of the union with `other`.
    pub fn union_size(&self, other: &KeywordSet) -> usize {
        self.len() + other.len() - self.intersection_size(other)
    }

    /// Returns true if the sets share at least one keyword
    /// (`Ψp ∩ Ψ ≠ ∅`, the relevance predicate of Definition 1).
    pub fn intersects(&self, other: &KeywordSet) -> bool {
        let (a, b) = (self.as_slice(), other.as_slice());
        let (mut i, mut j) = (0usize, 0usize);
        while i < a.len() && j < b.len() {
            match a[i].cmp(&b[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => return true,
            }
        }
        false
    }

    /// Jaccard distance `1 − |A∩B| / |A∪B|` (Definition 7).
    ///
    /// The distance of two empty sets is defined as 0 (identical).
    pub fn jaccard_distance(&self, other: &KeywordSet) -> f64 {
        let shared = self.intersection_size(other);
        jaccard_distance_of(shared, self.len() + other.len() - shared)
    }

    /// The intersection as a new set.
    pub fn intersection(&self, other: &KeywordSet) -> KeywordSet {
        let (a, b) = (self.as_slice(), other.as_slice());
        let mut out = Vec::with_capacity(a.len().min(b.len()));
        let (mut i, mut j) = (0usize, 0usize);
        while i < a.len() && j < b.len() {
            match a[i].cmp(&b[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    out.push(a[i]);
                    i += 1;
                    j += 1;
                }
            }
        }
        KeywordSet::from_canonical_vec(out)
    }

    /// The union as a new set.
    pub fn union(&self, other: &KeywordSet) -> KeywordSet {
        let (a, b) = (self.as_slice(), other.as_slice());
        let mut out = Vec::with_capacity(a.len() + b.len());
        let (mut i, mut j) = (0usize, 0usize);
        while i < a.len() && j < b.len() {
            match a[i].cmp(&b[j]) {
                std::cmp::Ordering::Less => {
                    out.push(a[i]);
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    out.push(b[j]);
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    out.push(a[i]);
                    i += 1;
                    j += 1;
                }
            }
        }
        out.extend_from_slice(&a[i..]);
        out.extend_from_slice(&b[j..]);
        KeywordSet::from_canonical_vec(out)
    }
}

impl Default for KeywordSet {
    fn default() -> Self {
        Self {
            ids: Ids::Inline {
                len: 0,
                buf: [KeywordId(0); INLINE_CAP],
            },
        }
    }
}

// Equality, ordering-sensitive hashing, and debug formatting all go
// through the id slice, so inline and heap storage of the same ids are
// indistinguishable.
impl PartialEq for KeywordSet {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for KeywordSet {}

impl std::hash::Hash for KeywordSet {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl std::fmt::Debug for KeywordSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_set().entries(self.as_slice()).finish()
    }
}

impl FromIterator<KeywordId> for KeywordSet {
    fn from_iter<T: IntoIterator<Item = KeywordId>>(iter: T) -> Self {
        Self::from_ids(iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(ids: &[u32]) -> KeywordSet {
        KeywordSet::from_ids(ids.iter().map(|&i| KeywordId(i)))
    }

    #[test]
    fn construction_sorts_and_dedups() {
        let s = set(&[5, 1, 3, 1, 5]);
        assert_eq!(s.len(), 3);
        let raw: Vec<u32> = s.iter().map(u32::from).collect();
        assert_eq!(raw, vec![1, 3, 5]);
    }

    #[test]
    fn inline_and_heap_storage_agree() {
        // Small sets stay inline, large ones spill; behaviour and equality
        // must not depend on which storage a set landed in.
        let small: Vec<u32> = (0..INLINE_CAP as u32).collect();
        let large: Vec<u32> = (0..INLINE_CAP as u32 + 3).collect();
        for raw in [small, large] {
            let a = set(&raw);
            assert_eq!(a.len(), raw.len());
            let b = KeywordSet::from_ascending_ids(raw.iter().map(|&i| KeywordId(i)).collect())
                .unwrap();
            let c = KeywordSet::from_ascending_iter(raw.iter().map(|&i| KeywordId(i))).unwrap();
            assert_eq!(a, b);
            assert_eq!(a, c);
            assert_eq!(a.ids(), b.ids());
            assert!(a.contains(KeywordId(raw[raw.len() - 1])));
            assert_eq!(a.intersection_size(&b), raw.len());
            let mut hash = std::collections::hash_map::DefaultHasher::new();
            use std::hash::{Hash, Hasher};
            a.hash(&mut hash);
            let ha = hash.finish();
            let mut hash = std::collections::hash_map::DefaultHasher::new();
            b.hash(&mut hash);
            assert_eq!(ha, hash.finish());
        }
    }

    #[test]
    fn from_ascending_requires_canonical_order() {
        let ids = |raw: &[u32]| raw.iter().map(|&i| KeywordId(i)).collect::<Vec<_>>();
        assert_eq!(
            KeywordSet::from_ascending_ids(ids(&[1, 3, 5])),
            Some(set(&[1, 3, 5]))
        );
        assert_eq!(
            KeywordSet::from_ascending_ids(Vec::new()),
            Some(KeywordSet::empty())
        );
        assert_eq!(KeywordSet::from_ascending_ids(ids(&[3, 1])), None);
        assert_eq!(KeywordSet::from_ascending_ids(ids(&[1, 1, 2])), None);
        // The iterator variant applies the same rules, inline and spilled.
        assert_eq!(
            KeywordSet::from_ascending_iter(ids(&[2, 2]).into_iter()),
            None
        );
        assert_eq!(
            KeywordSet::from_ascending_iter(ids(&[3, 2, 4, 5, 6, 7, 8, 9]).into_iter()),
            None
        );
        assert_eq!(
            KeywordSet::from_ascending_iter(std::iter::empty()),
            Some(KeywordSet::empty())
        );
    }

    #[test]
    fn membership() {
        let s = set(&[2, 4, 6]);
        assert!(s.contains(KeywordId(4)));
        assert!(!s.contains(KeywordId(5)));
        assert!(!KeywordSet::empty().contains(KeywordId(0)));
    }

    #[test]
    fn intersection_and_union_sizes() {
        let a = set(&[1, 2, 3, 4]);
        let b = set(&[3, 4, 5]);
        assert_eq!(a.intersection_size(&b), 2);
        assert_eq!(a.union_size(&b), 5);
        assert!(a.intersects(&b));
        assert!(!a.intersects(&set(&[9, 10])));
        assert!(!a.intersects(&KeywordSet::empty()));
    }

    #[test]
    fn jaccard_distance_cases() {
        let a = set(&[1, 2]);
        assert_eq!(a.jaccard_distance(&a), 0.0);
        assert_eq!(a.jaccard_distance(&set(&[3, 4])), 1.0);
        assert!((a.jaccard_distance(&set(&[2, 3])) - (1.0 - 1.0 / 3.0)).abs() < 1e-12);
        // Both empty: identical by convention.
        assert_eq!(
            KeywordSet::empty().jaccard_distance(&KeywordSet::empty()),
            0.0
        );
        // One empty, one not: maximally distant.
        assert_eq!(a.jaccard_distance(&KeywordSet::empty()), 1.0);
    }

    #[test]
    fn jaccard_distance_equals_the_two_pass_formula() {
        // The distance merges the two sets once; the definition computes
        // the union size (a merge) and the intersection size (another).
        let two_pass = |a: &KeywordSet, b: &KeywordSet| {
            let union = a.union_size(b);
            if union == 0 {
                return 0.0;
            }
            1.0 - a.intersection_size(b) as f64 / union as f64
        };
        let sets: Vec<KeywordSet> = [
            &[][..],
            &[0],
            &[7],
            &[0, 1],
            &[1, 2, 3],
            &[0, 2, 4, 6, 8, 10, 12],
            &[1, 2, 3, 4, 5, 6, 7, 8, 9],
        ]
        .iter()
        .map(|raw| set(raw))
        .collect();
        for a in &sets {
            for b in &sets {
                let (got, want) = (a.jaccard_distance(b), two_pass(a, b));
                assert_eq!(got.to_bits(), want.to_bits(), "{a:?} vs {b:?}");
            }
        }
    }

    #[test]
    fn intersection_and_union_sets() {
        let a = set(&[1, 3, 5]);
        let b = set(&[2, 3, 4, 5]);
        assert_eq!(a.intersection(&b), set(&[3, 5]));
        assert_eq!(a.union(&b), set(&[1, 2, 3, 4, 5]));
        assert_eq!(a.union(&KeywordSet::empty()), a);
        assert_eq!(a.intersection(&KeywordSet::empty()), KeywordSet::empty());
        // Unions that cross the inline capacity spill correctly.
        let big = set(&[10, 11, 12, 13]);
        let merged = a.union(&big);
        assert_eq!(merged.len(), 7);
        assert!(merged.contains(KeywordId(13)));
    }

    #[test]
    fn from_iterator() {
        let s: KeywordSet = [KeywordId(2), KeywordId(1), KeywordId(2)]
            .into_iter()
            .collect();
        assert_eq!(s, set(&[1, 2]));
    }
}
