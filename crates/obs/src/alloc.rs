//! Memory accounting: a counting global allocator and scoped measurement.
//!
//! Declaring this crate's `CountingAlloc` as the `#[global_allocator]`
//! (done below, so every workspace binary gets it by linking `soi-obs`)
//! routes all heap traffic through the system allocator while maintaining
//! two sets of counters:
//!
//! - **process-wide totals** ([`totals`]): allocation/deallocation counts,
//!   cumulative allocated bytes, live bytes, and the live-bytes peak,
//!   updated with relaxed atomics — these back the `soi_alloc_*` gauges
//!   that [`publish_metrics`] exports for `soi metrics`;
//! - **per-thread counters** backing [`AllocScope`]: a scope started and
//!   finished on one thread reports exactly that thread's allocation work
//!   between the two points, including the scope-local live-bytes peak.
//!   This is what the query engine wraps around each query and the index
//!   build wraps around construction.
//!
//! The recording cost is a handful of relaxed atomic adds plus a
//! const-initialised thread-local update per allocator call — small
//! compared to the allocation itself, and the workspace's hot query paths
//! are deliberately allocation-lean (scratch reuse), so steady-state
//! queries see almost no accounting traffic at all.
//!
//! ### Caveats
//! - [`AllocScope`] is strictly thread-local: allocations performed by
//!   other threads (e.g. the parallel index build's workers) are invisible
//!   to a scope on the coordinating thread. Use [`totals`] deltas for
//!   whole-process accounting of multi-threaded phases.
//! - `realloc` is accounted as a dealloc of the old size plus an alloc of
//!   the new size, so cumulative "allocated bytes" counts re-grown buffers
//!   repeatedly; live bytes stay exact.

// The one place in the observability stack that genuinely needs `unsafe`:
// implementing `GlobalAlloc` (an unsafe trait) by delegation to `System`.
// Every unsafe block below only forwards the caller's own contract.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

static GLOBAL_ALLOCS: AtomicU64 = AtomicU64::new(0);
static GLOBAL_DEALLOCS: AtomicU64 = AtomicU64::new(0);
static GLOBAL_ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);
static GLOBAL_LIVE_BYTES: AtomicU64 = AtomicU64::new(0);
static GLOBAL_PEAK_BYTES: AtomicU64 = AtomicU64::new(0);

/// Per-thread allocator counters (plain `Copy` snapshot).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct ThreadCounters {
    allocs: u64,
    deallocs: u64,
    alloc_bytes: u64,
    /// Live bytes allocated by this thread minus bytes it freed (may dip
    /// below zero when a thread frees buffers another thread allocated,
    /// hence signed).
    live_bytes: i64,
    /// High-water mark of `live_bytes` since the innermost scope began.
    peak_bytes: i64,
}

thread_local! {
    // `const` initialisation keeps the first access allocation-free, which
    // matters because this is read from inside the allocator itself.
    static THREAD: Cell<ThreadCounters> = const { Cell::new(ThreadCounters {
        allocs: 0,
        deallocs: 0,
        alloc_bytes: 0,
        live_bytes: 0,
        peak_bytes: 0,
    }) };
}

#[inline]
fn record_alloc(size: usize) {
    let size = size as u64;
    GLOBAL_ALLOCS.fetch_add(1, Relaxed);
    GLOBAL_ALLOC_BYTES.fetch_add(size, Relaxed);
    let live = GLOBAL_LIVE_BYTES
        .fetch_add(size, Relaxed)
        .saturating_add(size);
    GLOBAL_PEAK_BYTES.fetch_max(live, Relaxed);
    // During thread teardown the TLS slot may already be destroyed; the
    // global counters above still see the traffic.
    let _ = THREAD.try_with(|c| {
        let mut t = c.get();
        t.allocs += 1;
        t.alloc_bytes += size;
        t.live_bytes += size as i64;
        t.peak_bytes = t.peak_bytes.max(t.live_bytes);
        c.set(t);
    });
}

#[inline]
fn record_dealloc(size: usize) {
    let size = size as u64;
    GLOBAL_DEALLOCS.fetch_add(1, Relaxed);
    GLOBAL_LIVE_BYTES.fetch_sub(size, Relaxed);
    let _ = THREAD.try_with(|c| {
        let mut t = c.get();
        t.deallocs += 1;
        t.live_bytes -= size as i64;
        c.set(t);
    });
}

/// A counting allocator delegating to [`System`].
///
/// Installed as the workspace-wide `#[global_allocator]` by this crate;
/// every binary linking `soi-obs` gets memory accounting for free.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct CountingAlloc;

// SAFETY: every method forwards to `System` with the caller's layout
// unchanged; the counter updates never allocate through this allocator
// (atomics and a const-initialised TLS `Cell`).
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            record_alloc(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            record_alloc(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        record_dealloc(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            record_dealloc(layout.size());
            record_alloc(new_size);
        }
        p
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Process-wide allocator totals at one point in time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocTotals {
    /// Allocations performed (including the alloc half of reallocs).
    pub allocs: u64,
    /// Deallocations performed (including the dealloc half of reallocs).
    pub(crate) deallocs: u64,
    /// Cumulative bytes handed out.
    pub allocated_bytes: u64,
    /// Bytes currently live (allocated minus freed).
    pub(crate) live_bytes: u64,
    /// High-water mark of `live_bytes` over the process lifetime.
    pub peak_bytes: u64,
}

/// Snapshot of the process-wide allocator counters.
pub fn totals() -> AllocTotals {
    AllocTotals {
        allocs: GLOBAL_ALLOCS.load(Relaxed),
        deallocs: GLOBAL_DEALLOCS.load(Relaxed),
        allocated_bytes: GLOBAL_ALLOC_BYTES.load(Relaxed),
        live_bytes: GLOBAL_LIVE_BYTES.load(Relaxed),
        peak_bytes: GLOBAL_PEAK_BYTES.load(Relaxed),
    }
}

/// What one [`AllocScope`] measured on its thread.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocStats {
    /// Allocations performed inside the scope.
    pub allocs: u64,
    /// Deallocations performed inside the scope.
    pub(crate) deallocs: u64,
    /// Cumulative bytes allocated inside the scope.
    pub allocated_bytes: u64,
    /// Peak of (this thread's live bytes − live bytes at scope entry):
    /// the scope's own high-water memory demand.
    pub peak_bytes: u64,
    /// Net live-byte change across the scope (negative when the scope
    /// freed more than it allocated).
    pub(crate) net_bytes: i64,
}

/// Measures the current thread's allocation work between [`AllocScope::start`]
/// and [`AllocScope::finish`]. Scopes nest: an inner scope's traffic is
/// contained in the outer scope's stats, and the outer peak is preserved
/// across inner scopes.
#[derive(Debug)]
pub struct AllocScope {
    start: ThreadCounters,
    /// The thread peak at entry, restored (monotonically) at finish so an
    /// enclosing scope still sees its own high-water mark.
    saved_peak: i64,
}

impl AllocScope {
    /// Starts measuring on the current thread.
    pub fn start() -> Self {
        let (start, saved_peak) = THREAD
            .try_with(|c| {
                let mut t = c.get();
                let saved = t.peak_bytes;
                // Reset the high-water mark to "now" so the scope measures
                // its own peak, not history.
                t.peak_bytes = t.live_bytes;
                c.set(t);
                (t, saved)
            })
            .unwrap_or_default();
        Self { start, saved_peak }
    }

    /// Stops measuring and returns the scope's stats.
    pub fn finish(self) -> AllocStats {
        THREAD
            .try_with(|c| {
                let mut end = c.get();
                let stats = AllocStats {
                    allocs: end.allocs - self.start.allocs,
                    deallocs: end.deallocs - self.start.deallocs,
                    allocated_bytes: end.alloc_bytes - self.start.alloc_bytes,
                    peak_bytes: (end.peak_bytes - self.start.live_bytes).max(0) as u64,
                    net_bytes: end.live_bytes - self.start.live_bytes,
                };
                end.peak_bytes = end.peak_bytes.max(self.saved_peak);
                c.set(end);
                stats
            })
            .unwrap_or_default()
    }
}

/// Registers the `soi_alloc_*` gauges and refreshes them from the current
/// process-wide totals. Call before `metrics::gather` (the `soi metrics`
/// command does) so the exposition reflects the moment of the scrape.
pub fn publish_metrics() {
    use crate::metrics::register_gauge;
    let t = totals();
    register_gauge(
        "soi_alloc_allocations_total",
        "Heap allocations since process start (counting allocator)",
    )
    .set(t.allocs as f64);
    register_gauge(
        "soi_alloc_deallocations_total",
        "Heap deallocations since process start (counting allocator)",
    )
    .set(t.deallocs as f64);
    register_gauge(
        "soi_alloc_allocated_bytes_total",
        "Cumulative heap bytes allocated since process start",
    )
    .set(t.allocated_bytes as f64);
    register_gauge("soi_alloc_live_bytes", "Heap bytes currently live").set(t.live_bytes as f64);
    register_gauge(
        "soi_alloc_peak_bytes",
        "High-water mark of live heap bytes over the process lifetime",
    )
    .set(t.peak_bytes as f64);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scope_counts_this_threads_allocations() {
        let scope = AllocScope::start();
        let mut v: Vec<u64> = Vec::with_capacity(1024);
        v.push(7);
        let stats = scope.finish();
        assert_eq!(v[0], 7);
        assert!(stats.allocs >= 1, "Vec allocation not counted");
        assert!(stats.allocated_bytes >= 8 * 1024);
        assert!(stats.peak_bytes >= 8 * 1024);
        assert!(stats.net_bytes >= 8 * 1024, "v is still live");
        drop(v);
    }

    #[test]
    fn scope_peak_sees_freed_transients() {
        let scope = AllocScope::start();
        let big: Vec<u8> = vec![0; 1 << 20];
        drop(big);
        let stats = scope.finish();
        assert!(
            stats.peak_bytes >= 1 << 20,
            "peak {} missed the 1MiB transient",
            stats.peak_bytes
        );
        assert!(stats.net_bytes < 1 << 20, "transient was freed");
    }

    #[test]
    fn nested_scopes_preserve_outer_peak() {
        let outer = AllocScope::start();
        let a: Vec<u8> = vec![0; 1 << 18];
        drop(a);
        // Inner scope resets the thread high-water mark...
        let scope = AllocScope::start();
        let b: Vec<u8> = vec![0; 1 << 10];
        drop(b);
        let inner = scope.finish();
        assert!(inner.peak_bytes >= 1 << 10);
        assert!(inner.peak_bytes < 1 << 18, "inner saw only its own peak");
        // ...but the outer scope still reports the earlier 256KiB spike.
        let stats = outer.finish();
        assert!(
            stats.peak_bytes >= 1 << 18,
            "outer peak {} lost across the inner scope",
            stats.peak_bytes
        );
    }

    #[test]
    fn totals_are_monotone_and_nonzero() {
        let before = totals();
        let v: Vec<u8> = vec![0; 4096];
        let after = totals();
        assert!(after.allocs > 0);
        assert!(after.allocs >= before.allocs);
        assert!(after.allocated_bytes >= before.allocated_bytes + 4096);
        assert!(after.peak_bytes >= after.live_bytes.saturating_sub(1));
        drop(v);
    }

    #[test]
    fn other_threads_do_not_leak_into_a_scope() {
        let scope = AllocScope::start();
        std::thread::spawn(|| {
            let v: Vec<u8> = vec![0; 1 << 20];
            drop(v);
        })
        .join()
        .ok();
        let stats = scope.finish();
        assert!(
            stats.allocated_bytes < 1 << 20,
            "scope saw another thread's 1MiB allocation"
        );
    }

    #[test]
    fn publish_metrics_exports_gauges() {
        publish_metrics();
        let text = crate::metrics::gather_prefixed("soi_alloc_");
        for name in [
            "soi_alloc_allocations_total",
            "soi_alloc_deallocations_total",
            "soi_alloc_allocated_bytes_total",
            "soi_alloc_live_bytes",
            "soi_alloc_peak_bytes",
        ] {
            assert!(text.contains(name), "{name} missing:\n{text}");
        }
    }
}
