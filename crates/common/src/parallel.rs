//! Deterministic data-parallel building blocks.
//!
//! Offline construction (index builds, bulk loads) and the batched query
//! engine fan work out over scoped threads. Everything here is designed so
//! that **results are independent of the thread count**: inputs are split
//! into contiguous chunks, per-chunk results are combined in chunk order,
//! and the parallel sort is a stable merge sort whose output is identical to
//! `slice::sort_by`. A build with 8 threads is therefore byte-identical to a
//! build with 1.
//!
//! The thread count resolves from an explicit request, the `SOI_THREADS`
//! environment variable, or [`std::thread::available_parallelism`], in that
//! order.

use crossbeam::thread as cb;
use std::cmp::Ordering;

/// Upper bound on worker threads, a guard against absurd requests.
pub const MAX_THREADS: usize = 256;

/// Resolves the effective thread count.
///
/// Priority: `requested` (if `Some` and non-zero) → the `SOI_THREADS`
/// environment variable → the machine's available parallelism. The result is
/// clamped to `1..=MAX_THREADS`. Thread count never affects results, only
/// wall-clock time.
pub fn effective_threads(requested: Option<usize>) -> usize {
    let n = match requested {
        Some(n) if n > 0 => n,
        _ => std::env::var("SOI_THREADS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1)
            }),
    };
    n.clamp(1, MAX_THREADS)
}

/// Splits `len` items into at most `threads` contiguous chunks of
/// near-equal size, returning the `(start, end)` ranges in order.
pub fn chunk_ranges(len: usize, threads: usize) -> Vec<(usize, usize)> {
    let threads = threads.clamp(1, MAX_THREADS);
    if len == 0 {
        return Vec::new();
    }
    let chunks = threads.min(len);
    let base = len / chunks;
    let extra = len % chunks;
    let mut out = Vec::with_capacity(chunks);
    let mut start = 0;
    for i in 0..chunks {
        let size = base + usize::from(i < extra);
        out.push((start, start + size));
        start += size;
    }
    out
}

/// Runs `f` over contiguous chunks of `items` on `threads` scoped threads
/// and returns the per-chunk results **in chunk order**.
///
/// `f` receives `(chunk_start_index, chunk_slice)`. With one thread (or a
/// single chunk) it runs inline with no thread spawned, so the sequential
/// path is zero-overhead. A panicking chunk propagates the panic.
pub fn par_chunk_map<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &[T]) -> R + Sync,
{
    let ranges = chunk_ranges(items.len(), threads);
    if ranges.len() <= 1 {
        return ranges
            .into_iter()
            .map(|(s, e)| f(s, &items[s..e]))
            .collect();
    }
    let mut slots: Vec<Option<R>> = ranges.iter().map(|_| None).collect();
    let result = cb::scope(|scope| {
        for (slot, &(s, e)) in slots.iter_mut().zip(ranges.iter()) {
            let f = &f;
            scope.spawn(move |_| {
                *slot = Some(f(s, &items[s..e]));
            });
        }
    });
    if let Err(panic) = result {
        std::panic::resume_unwind(panic);
    }
    slots
        .into_iter()
        .map(|s| match s {
            Some(r) => r,
            // Unreachable: every spawned chunk either filled its slot or
            // panicked (propagated above).
            None => unreachable!("chunk worker exited without a result"),
        })
        .collect()
}

/// Stable parallel merge sort: output is **identical** to `v.sort_by(cmp)`
/// for every thread count (stability plus a deterministic comparator fully
/// determine the permutation).
///
/// Chunks are sorted concurrently with the standard library's stable sort,
/// then merged pairwise with a left-biased (stable) merge. Falls back to
/// `sort_by` for small inputs or one thread.
pub fn par_sort_by<T, F>(v: &mut Vec<T>, threads: usize, cmp: F)
where
    T: Send,
    F: Fn(&T, &T) -> Ordering + Sync,
{
    par_sort_chunks(v, threads, cmp, |part, cmp| part.sort_by(cmp));
}

/// Parallel unstable sort for keys under a **total order with no duplicates**
/// (e.g. packed unique integer keys): output is identical to
/// `v.sort_unstable_by(cmp)` and to [`par_sort_by`] for every thread count,
/// because a duplicate-free total order admits exactly one sorted permutation.
///
/// Chunks are sorted concurrently with the standard library's unstable
/// (allocation-free, integer-friendly) sort, then merged pairwise. Falls back
/// to `sort_unstable_by` for small inputs or one thread.
pub fn par_sort_unstable_by<T, F>(v: &mut Vec<T>, threads: usize, cmp: F)
where
    T: Send,
    F: Fn(&T, &T) -> Ordering + Sync,
{
    par_sort_chunks(v, threads, cmp, |part, cmp| part.sort_unstable_by(cmp));
}

/// Sorts `v` with `sort` alone for small inputs or one thread; otherwise
/// sorts its chunks concurrently with `sort` and merges the sorted runs
/// pairwise with [`stable_merge`] until one run remains.
fn par_sort_chunks<T, F>(v: &mut Vec<T>, threads: usize, cmp: F, sort: fn(&mut [T], &F))
where
    T: Send,
    F: Fn(&T, &T) -> Ordering + Sync,
{
    const MIN_PARALLEL_LEN: usize = 8192;
    let threads = threads.clamp(1, MAX_THREADS);
    if threads <= 1 || v.len() < MIN_PARALLEL_LEN {
        sort(v, &cmp);
        return;
    }
    let ranges = chunk_ranges(v.len(), threads);
    {
        let mut rest: &mut [T] = v.as_mut_slice();
        let mut parts: Vec<&mut [T]> = Vec::with_capacity(ranges.len());
        for &(s, e) in &ranges {
            let (head, tail) = rest.split_at_mut(e - s);
            parts.push(head);
            rest = tail;
        }
        let result = cb::scope(|scope| {
            for part in parts {
                let cmp = &cmp;
                scope.spawn(move |_| sort(part, cmp));
            }
        });
        if let Err(panic) = result {
            std::panic::resume_unwind(panic);
        }
    }
    let mut runs: Vec<Vec<T>> = Vec::with_capacity(ranges.len());
    let mut drain = std::mem::take(v).into_iter();
    for &(s, e) in &ranges {
        runs.push(drain.by_ref().take(e - s).collect());
    }
    while runs.len() > 1 {
        let mut merged: Vec<Vec<T>> = Vec::with_capacity(runs.len().div_ceil(2));
        let mut it = runs.into_iter();
        while let Some(a) = it.next() {
            match it.next() {
                Some(b) => merged.push(stable_merge(a, b, &cmp)),
                None => merged.push(a),
            }
        }
        runs = merged;
    }
    *v = runs.pop().unwrap_or_default();
}

/// Left-biased merge of two sorted runs (equal elements keep `a` first).
fn stable_merge<T, F: Fn(&T, &T) -> Ordering>(a: Vec<T>, b: Vec<T>, cmp: &F) -> Vec<T> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let mut a = a.into_iter().peekable();
    let mut b = b.into_iter().peekable();
    loop {
        match (a.peek(), b.peek()) {
            (Some(x), Some(y)) => {
                if cmp(x, y) == Ordering::Greater {
                    out.extend(b.next());
                } else {
                    out.extend(a.next());
                }
            }
            (Some(_), None) => {
                out.extend(a);
                break;
            }
            (None, _) => {
                out.extend(b);
                break;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn effective_threads_clamps() {
        assert_eq!(effective_threads(Some(3)), 3);
        assert_eq!(effective_threads(Some(100_000)), MAX_THREADS);
        assert!(effective_threads(None) >= 1);
    }

    #[test]
    fn chunk_ranges_cover_exactly() {
        for len in [0usize, 1, 7, 64, 1000] {
            for threads in [1usize, 2, 3, 8, 64] {
                let ranges = chunk_ranges(len, threads);
                let mut expect = 0;
                for &(s, e) in &ranges {
                    assert_eq!(s, expect);
                    assert!(e > s);
                    expect = e;
                }
                assert_eq!(expect, len);
                assert!(ranges.len() <= threads.max(1));
            }
        }
    }

    #[test]
    fn par_chunk_map_preserves_order() {
        let items: Vec<u32> = (0..1000).collect();
        for threads in [1usize, 2, 7] {
            let sums = par_chunk_map(&items, threads, |start, chunk| {
                (start, chunk.iter().sum::<u32>())
            });
            let total: u32 = sums.iter().map(|&(_, s)| s).sum();
            assert_eq!(total, items.iter().sum::<u32>());
            // Chunk order preserved: starts ascending.
            assert!(sums.windows(2).all(|w| w[0].0 < w[1].0));
        }
    }

    #[test]
    fn par_sort_matches_sequential_stable_sort() {
        // Pseudo-random data with many duplicate keys to exercise stability.
        let mut x: u64 = 0x243F_6A88_85A3_08D3;
        let data: Vec<(u32, u32)> = (0..20_000)
            .map(|i| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                ((x % 64) as u32, i)
            })
            .collect();
        let mut want = data.clone();
        want.sort_by_key(|a| a.0); // stable: payload order kept
        for threads in [1usize, 2, 3, 8] {
            let mut got = data.clone();
            par_sort_by(&mut got, threads, |a, b| a.0.cmp(&b.0));
            assert_eq!(got, want, "threads={threads}");
        }
    }

    #[test]
    fn par_sort_unstable_matches_sequential_on_unique_keys() {
        let mut x: u64 = 0xB7E1_5162_8AED_2A6A;
        let data: Vec<u64> = (0..20_000u64)
            .map(|i| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x << 20) | i // low bits make every key unique
            })
            .collect();
        let mut want = data.clone();
        want.sort_unstable();
        for threads in [1usize, 2, 3, 8] {
            let mut got = data.clone();
            par_sort_unstable_by(&mut got, threads, |a, b| a.cmp(b));
            assert_eq!(got, want, "threads={threads}");
        }
    }

    #[test]
    fn par_sort_small_input() {
        let mut v = vec![3, 1, 2];
        par_sort_by(&mut v, 8, |a, b| a.cmp(b));
        assert_eq!(v, vec![1, 2, 3]);
    }
}
