//! Stable counting (bucket) sort for densely numbered keys.
//!
//! The offline index builds sort packed integer entries whose significant
//! digits are *dense* ids — grid cells, interned keywords, POI/segment ids.
//! A stable counting sort places `n` items into `k` buckets in `O(n + k)`
//! with two linear passes, far cheaper than an `O(n log n)` comparison sort
//! when `k` is comparable to `n`. Because each pass is stable, chaining
//! passes from the least- to the most-significant digit yields a full
//! lexicographic sort (LSD radix), and because the placement is a pure
//! function of the input order, the result is deterministic.

/// Stably sorts `items` by `bucket_of` into `num_buckets` dense buckets.
///
/// Items mapping to the same bucket keep their relative input order, so a
/// pre-sorted minor digit survives the pass. Returns the reordered items.
///
/// # Panics
/// Panics if `bucket_of` returns a value `>= num_buckets`.
pub fn bucket_sort_stable<T: Copy + Default, F: Fn(&T) -> u32>(
    items: &[T],
    num_buckets: u32,
    bucket_of: F,
) -> Vec<T> {
    debug_assert!(u32::try_from(items.len()).is_ok(), "too many items");
    let mut counts = vec![0u32; num_buckets as usize];
    for it in items {
        counts[bucket_of(it) as usize] += 1;
    }
    // Exclusive prefix sum: counts[b] becomes bucket b's write cursor.
    let mut sum = 0u32;
    for c in counts.iter_mut() {
        let n = *c;
        *c = sum;
        sum += n;
    }
    let mut out = vec![T::default(); items.len()];
    for it in items {
        let b = bucket_of(it) as usize;
        out[counts[b] as usize] = *it;
        counts[b] += 1;
    }
    out
}

/// True when a counting sort over `num_buckets` is a sensible replacement
/// for a comparison sort of `len` items: the histogram must not dwarf the
/// data (degenerate for huge sparse key spaces and tiny inputs).
pub fn bucket_sort_worthwhile(len: usize, num_buckets: usize) -> bool {
    u32::try_from(len).is_ok()
        && u32::try_from(num_buckets).is_ok()
        && num_buckets <= 8 * len + 1024
}

/// Orders packed `(row ‖ item)` keys — dense row id in the high 32 bits,
/// item id in the low 32 — by `(row, item)`, ready for
/// [`Csr::from_sorted_keys`](crate::Csr::from_sorted_keys).
///
/// Keys must be unique and arrive item-ascending within every row (the
/// builds emit them in ascending POI / photo / segment order), so one stable
/// counting pass over the rows completes the order in `O(n + rows)`; where
/// the histogram would dwarf the data a comparison sort of the unique keys
/// yields the identical permutation.
pub fn sort_row_keys(mut keys: Vec<u64>, rows: usize, threads: usize) -> Vec<u64> {
    if bucket_sort_worthwhile(keys.len(), rows) {
        bucket_sort_stable(&keys, rows as u32, |&k| (k >> 32) as u32)
    } else {
        crate::par_sort_unstable_by(&mut keys, threads, |a, b| a.cmp(b));
        keys
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sorts_by_bucket_and_is_stable() {
        let items: Vec<(u32, u32)> = vec![(2, 0), (0, 1), (2, 2), (1, 3), (0, 4), (2, 5)];
        let out = bucket_sort_stable(&items, 3, |&(b, _)| b);
        assert_eq!(out, vec![(0, 1), (0, 4), (1, 3), (2, 0), (2, 2), (2, 5)]);
    }

    #[test]
    fn chained_passes_sort_lexicographically() {
        // LSD radix over (hi, lo) packed into u64: sort by lo, then by hi.
        let mut x: u64 = 0x2545_F491_4F6C_DD1D;
        let mut items: Vec<u64> = (0..2000)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 32 & 0xFF) << 32 | (x & 0x3F)
            })
            .collect();
        let lo_pass = bucket_sort_stable(&items, 64, |&e| e as u32 & 0x3F);
        let sorted = bucket_sort_stable(&lo_pass, 256, |&e| (e >> 32) as u32);
        items.sort_unstable();
        assert_eq!(sorted, items);
    }

    #[test]
    fn empty_and_single_bucket() {
        assert_eq!(
            bucket_sort_stable::<u32, _>(&[], 4, |&x| x),
            Vec::<u32>::new()
        );
        let out = bucket_sort_stable(&[7u32, 3, 5], 1, |_| 0);
        assert_eq!(out, vec![7, 3, 5]);
    }

    #[test]
    fn worthwhile_heuristic() {
        assert!(bucket_sort_worthwhile(100_000, 50_000));
        assert!(bucket_sort_worthwhile(10, 1000));
        assert!(!bucket_sort_worthwhile(10, 2000));
        assert!(!bucket_sort_worthwhile(usize::MAX, 10));
    }
}
