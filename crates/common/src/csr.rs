//! [`Csr`]: the one "dense row id → run of items" layout.
//!
//! Every dataset-wide offline structure is a map from a *dense* `u32` id
//! (grid cell, interned keyword, segment, postings run) to a short run of
//! items. `Csr<T>` stores such a map as two flat columns — `rows + 1` row
//! starts and the concatenated items — so a lookup is two array reads, a
//! build is one counting pass over row-sorted entries, and the in-memory
//! shape is byte for byte what a snapshot section pair holds.

use std::ops::Range;

/// Validates a CSR offset column: `rows + 1` entries, starting at 0,
/// non-decreasing, ending at `total`. After this check
/// `off[r]..off[r + 1]` is an in-bounds range of a `total`-item column for
/// every row `r < rows`.
///
/// # Errors
/// A message naming `what` and the first violated condition.
fn check_csr_offsets(off: &[u32], rows: usize, total: usize, what: &str) -> Result<(), String> {
    if off.len() != rows + 1 {
        return Err(format!(
            "{what}: expected {} offsets, found {}",
            rows + 1,
            off.len()
        ));
    }
    if off.first() != Some(&0) {
        return Err(format!("{what}: offsets must start at 0"));
    }
    if off.last().map(|&o| o as usize) != Some(total) {
        return Err(format!("{what}: offsets must end at {total}"));
    }
    if let Some(w) = off.windows(2).find(|w| w[0] > w[1]) {
        return Err(format!("{what}: offsets decrease at {}", w[1]));
    }
    Ok(())
}

/// Dense row id → contiguous run of items: row `r` is
/// `items[starts[r]..starts[r + 1]]`.
///
/// Immutable once built. Equality is structural (same row boundaries, same
/// items), which for the deterministic index builds means "the same index".
#[derive(Debug, Clone, PartialEq)]
pub struct Csr<T> {
    /// `rows + 1` non-decreasing offsets into `items`, from 0 to
    /// `items.len()` (the [`check_csr_offsets`] conditions).
    starts: Vec<u32>,
    items: Vec<T>,
}

impl<T> Csr<T> {
    /// Assembles a `rows`-row map from its two columns, as read back from
    /// untrusted storage; `what` names the structure in error messages.
    ///
    /// # Errors
    /// A message naming `what` unless `starts` holds `rows + 1` offsets
    /// that start at 0, never decrease and end at `items.len()`.
    pub fn from_parts(
        rows: usize,
        starts: Vec<u32>,
        items: Vec<T>,
        what: &str,
    ) -> Result<Self, String> {
        check_csr_offsets(&starts, rows, items.len(), what)?;
        Ok(Self { starts, items })
    }

    /// Builds the map whose row `r` holds the next `lens[r]` of `items`:
    /// a prefix sum over the row lengths.
    ///
    /// # Panics
    /// Panics if the lengths do not add up to `items.len()`, or on more
    /// than `u32::MAX` items.
    pub fn from_row_lens(lens: &[u32], items: Vec<T>) -> Self {
        assert!(u32::try_from(items.len()).is_ok(), "too many items");
        let mut starts = Vec::with_capacity(lens.len() + 1);
        let mut end = 0u32;
        starts.push(end);
        for &len in lens {
            end += len;
            starts.push(end);
        }
        assert_eq!(
            end as usize,
            items.len(),
            "row lengths must cover the items"
        );
        Self { starts, items }
    }

    /// Number of rows (occupied or not).
    pub fn rows(&self) -> usize {
        self.starts.len() - 1
    }

    /// The row-start column (`rows + 1` offsets into [`items`](Self::items)).
    pub fn starts(&self) -> &[u32] {
        &self.starts
    }

    /// Every row's items, concatenated in row order.
    pub fn items(&self) -> &[T] {
        &self.items
    }

    /// The span of row `row` within [`items`](Self::items); empty for an
    /// empty or out-of-range row.
    #[inline]
    pub fn row_range(&self, row: usize) -> Range<usize> {
        match self.starts.get(row..row.saturating_add(2)) {
            Some(&[start, end]) => start as usize..end as usize,
            _ => 0..0,
        }
    }

    /// The items of row `row`; empty for an empty or out-of-range row.
    #[inline]
    pub fn row(&self, row: usize) -> &[T] {
        &self.items[self.row_range(row)]
    }

    /// Whether row `row` holds nothing (true past the last row).
    #[inline]
    pub fn is_empty_row(&self, row: usize) -> bool {
        self.row_range(row).is_empty()
    }

    /// The non-empty rows, ascending, each with its items.
    pub fn occupied_rows(&self) -> impl Iterator<Item = (usize, &[T])> {
        (0..self.rows())
            .map(|r| (r, self.row(r)))
            .filter(|(_, items)| !items.is_empty())
    }
}

impl<T: From<u32>> Csr<T> {
    /// Builds a `rows`-row map from packed `(row ‖ item)` keys already
    /// ordered by row — row in the high 32 bits, raw item id in the low 32,
    /// the form the index builds emit and
    /// [`sort_row_keys`](crate::sort_row_keys) orders: counts per row,
    /// prefix sum, items in key order.
    ///
    /// # Panics
    /// Panics if a key's row is `>= rows`, or on more than `u32::MAX` keys.
    pub fn from_sorted_keys(rows: usize, keys: &[u64]) -> Self {
        debug_assert!(
            keys.windows(2).all(|w| w[0] >> 32 <= w[1] >> 32),
            "keys must be ordered by row"
        );
        let mut lens = vec![0u32; rows];
        for &k in keys {
            lens[(k >> 32) as usize] += 1;
        }
        Self::from_row_lens(&lens, keys.iter().map(|&k| T::from(k as u32)).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{bucket_sort_worthwhile, sort_row_keys};
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    #[test]
    fn from_parts_rejects_every_broken_offset_column() {
        let ok = Csr::from_parts(2, vec![0, 1, 3], vec![7u32, 8, 9], "t").unwrap();
        assert_eq!(ok.row(0), &[7]);
        assert_eq!(ok.row(1), &[8, 9]);
        for (starts, why) in [
            (vec![0, 3], "wrong length"),
            (vec![], "empty"),
            (vec![1, 1, 3], "not starting at 0"),
            (vec![0, 2, 1], "decreasing"),
            (vec![0, 1, 2], "ending short of the items"),
            (vec![0, 1, 4], "ending past the items"),
        ] {
            let err = Csr::from_parts(2, starts, vec![7u32, 8, 9], "t");
            assert!(err.is_err(), "{why} must be rejected");
        }
    }

    proptest! {
        #[test]
        fn csr_equals_a_btreemap_of_vecs(
            base_rows in 0usize..40,
            // Few items over thousands of rows is the comparison-sort side
            // of `bucket_sort_worthwhile`; a few dozen rows the counting side.
            sparse in 0usize..2,
            // Where the items go: anywhere, all in the first row, all in
            // the last row, or in three rows with runs of empty rows between.
            placement in 0u32..4,
            raw in proptest::collection::vec((0u32..100_000, 0u32..50), 0..120),
        ) {
            let rows = base_rows + sparse * 4000;
            let row_of = |r: u32| -> u64 {
                let rows = rows as u64;
                match placement {
                    0 => u64::from(r) % rows,
                    1 => 0,
                    2 => rows - 1,
                    _ => u64::from(r % 3) * (rows / 3),
                }
            };
            // Unique keys, item-ascending within every row — the order the
            // builds emit them in (ascending POI / segment / photo id).
            let mut keys: Vec<u64> = raw
                .iter()
                .filter(|_| rows > 0)
                .map(|&(r, item)| row_of(r) << 32 | u64::from(item))
                .collect();
            keys.sort_unstable();
            keys.dedup();
            keys.sort_by_key(|&k| k as u32);
            let mut want: BTreeMap<usize, Vec<u32>> = BTreeMap::new();
            for &k in &keys {
                want.entry((k >> 32) as usize).or_default().push(k as u32);
            }

            prop_assert_eq!(bucket_sort_worthwhile(keys.len(), rows), sparse == 0);
            let sorted = sort_row_keys(keys.clone(), rows, 2);
            let mut by_comparison = keys.clone();
            by_comparison.sort_unstable();
            prop_assert_eq!(&sorted, &by_comparison);

            let csr: Csr<u32> = Csr::from_sorted_keys(rows, &sorted);
            prop_assert_eq!(csr.rows(), rows);
            prop_assert_eq!(csr.items().len(), keys.len());
            for r in (0..rows + 3).chain([usize::MAX - 1, usize::MAX]) {
                let expect = want.get(&r).map_or(&[][..], Vec::as_slice);
                prop_assert_eq!(csr.row(r), expect);
                prop_assert_eq!(csr.is_empty_row(r), expect.is_empty());
            }
            let occupied: Vec<(usize, Vec<u32>)> =
                csr.occupied_rows().map(|(r, items)| (r, items.to_vec())).collect();
            prop_assert_eq!(occupied, want.into_iter().collect::<Vec<_>>());
            // Row lengths are the third way to state the same map.
            let lens: Vec<u32> = (0..rows).map(|r| csr.row(r).len() as u32).collect();
            prop_assert_eq!(&Csr::from_row_lens(&lens, csr.items().to_vec()), &csr);
            // The columns round-trip through the validated constructor.
            let back = Csr::from_parts(rows, csr.starts().to_vec(), csr.items().to_vec(), "t");
            prop_assert_eq!(back, Ok(csr));
        }
    }
}
