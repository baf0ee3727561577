//! Keyword interning.

use soi_common::{FxHashMap, KeywordId};

/// A bidirectional string ↔ [`KeywordId`] mapping.
///
/// Every keyword occurring in the dataset (POI keywords, photo tags, query
/// terms) is interned once; all downstream structures store dense `u32` ids.
/// Ids are assigned in first-intern order and are stable for the lifetime of
/// the vocabulary.
#[derive(Debug, Default, Clone)]
pub struct Vocabulary {
    terms: Vec<String>,
    by_term: FxHashMap<String, KeywordId>,
}

impl Vocabulary {
    /// Creates an empty vocabulary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns `term`, returning its id (existing or freshly assigned).
    ///
    /// The term is stored as given; callers should normalise via
    /// [`tokenize()`](crate::tokenize()) first.
    pub fn intern(&mut self, term: &str) -> KeywordId {
        if let Some(&id) = self.by_term.get(term) {
            return id;
        }
        let id = KeywordId::from_index(self.terms.len());
        self.terms.push(term.to_owned());
        self.by_term.insert(term.to_owned(), id);
        id
    }

    /// Looks up the id of `term` without interning.
    pub fn lookup(&self, term: &str) -> Option<KeywordId> {
        self.by_term.get(term).copied()
    }

    /// Returns the term for `id`, if it exists.
    pub fn term(&self, id: KeywordId) -> Option<&str> {
        self.terms.get(id.index()).map(String::as_str)
    }

    /// Number of distinct interned terms.
    pub fn len(&self) -> usize {
        self.terms.len()
    }

    /// Returns true if no terms are interned.
    pub fn is_empty(&self) -> bool {
        self.terms.is_empty()
    }

    /// Iterates over `(id, term)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (KeywordId, &str)> {
        self.terms
            .iter()
            .enumerate()
            .map(|(i, t)| (KeywordId::from_index(i), t.as_str()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let mut v = Vocabulary::new();
        let a = v.intern("shop");
        let b = v.intern("shop");
        assert_eq!(a, b);
        assert_eq!(v.len(), 1);
    }

    #[test]
    fn ids_are_dense_and_ordered() {
        let mut v = Vocabulary::new();
        let a = v.intern("alpha");
        let b = v.intern("beta");
        assert_eq!(a.index(), 0);
        assert_eq!(b.index(), 1);
        assert_eq!(v.term(a), Some("alpha"));
        assert_eq!(v.term(b), Some("beta"));
        assert_eq!(v.term(KeywordId(99)), None);
    }

    #[test]
    fn lookup_does_not_intern() {
        let mut v = Vocabulary::new();
        assert_eq!(v.lookup("ghost"), None);
        assert!(v.is_empty());
        v.intern("ghost");
        assert!(v.lookup("ghost").is_some());
    }

    #[test]
    fn iter_yields_in_id_order() {
        let mut v = Vocabulary::new();
        v.intern("one");
        v.intern("two");
        let collected: Vec<(u32, &str)> = v.iter().map(|(id, t)| (id.raw(), t)).collect();
        assert_eq!(collected, vec![(0, "one"), (1, "two")]);
    }
}
