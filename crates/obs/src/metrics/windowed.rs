//! Rolling-window instruments: a wheel of slots, each holding one tick's
//! observations, merged over the live slots on read.

use super::instruments::{Histogram, HistogramSnapshot};
use super::process_epoch;
use std::sync::atomic::{AtomicU64, Ordering};

/// Sentinel tick marking a wheel slot that has never been written.
const EMPTY_SLOT: u64 = u64::MAX;

/// A wheel of `slots` instruments `S`, each covering `slot_secs` seconds
/// and tagged with the tick (`elapsed / slot_secs`) it currently holds.
///
/// Rotation is lock-free: the first writer of a new tick CAS-claims the
/// stale slot and resets it. Observations racing with the reset may be
/// lost, which is acceptable for a rolling-window estimate (never for the
/// cumulative instruments).
#[derive(Debug)]
struct Wheel<S> {
    slot_secs: u64,
    slots: Vec<(AtomicU64, S)>,
}

impl<S> Wheel<S> {
    fn new(slots: usize, slot_secs: u64, make: impl Fn() -> S) -> Self {
        debug_assert!(slots >= 1 && slot_secs >= 1);
        Self {
            slot_secs,
            slots: (0..slots.max(1))
                .map(|_| (AtomicU64::new(EMPTY_SLOT), make()))
                .collect(),
        }
    }

    fn window_secs(&self) -> u64 {
        self.slots.len() as u64 * self.slot_secs
    }

    fn current_tick(&self) -> u64 {
        process_epoch().elapsed().as_secs() / self.slot_secs
    }

    /// The slot of `tick`, rotated to it (and `reset`) if it still held an
    /// older tick.
    fn slot_at(&self, tick: u64, reset: impl FnOnce(&S)) -> &S {
        let (slot_tick, slot) = &self.slots[(tick % self.slots.len() as u64) as usize];
        let held = slot_tick.load(Ordering::Acquire);
        if held != tick
            && slot_tick
                .compare_exchange(held, tick, Ordering::AcqRel, Ordering::Relaxed)
                .is_ok()
        {
            reset(slot);
        }
        slot
    }

    /// The slots inside the window `(now_tick - slots, now_tick]`, in slot
    /// order; slots holding a tick outside it are stale.
    fn live(&self, now_tick: u64) -> impl Iterator<Item = &S> {
        let oldest = now_tick.saturating_sub(self.slots.len() as u64 - 1);
        self.slots.iter().filter_map(move |(tick, slot)| {
            let t = tick.load(Ordering::Acquire);
            (t != EMPTY_SLOT && t >= oldest && t <= now_tick).then_some(slot)
        })
    }
}

/// A rolling-window latency histogram: a wheel of `slots` sub-histograms,
/// each covering `slot_secs` seconds. Observations land in the slot for
/// the current tick; a snapshot merges only the slots whose tick is inside
/// the window, so the merged view reflects the last `slots × slot_secs`
/// seconds rather than process lifetime.
///
/// Ticks are injectable ([`Self::observe_at`], [`Self::snapshot_at`]) so
/// rotation and merge behavior are deterministically testable; the
/// wall-clock entry points derive the tick from [`process_epoch`].
#[derive(Debug)]
pub struct WindowedHistogram {
    bounds: Vec<f64>,
    wheel: Wheel<Histogram>,
}

impl WindowedHistogram {
    pub(super) fn new(bounds: &[f64], slots: usize, slot_secs: u64) -> Self {
        Self {
            bounds: bounds.to_vec(),
            wheel: Wheel::new(slots, slot_secs, || Histogram::new(bounds)),
        }
    }

    /// Length of the full window in seconds (`slots × slot_secs`).
    pub fn window_secs(&self) -> u64 {
        self.wheel.window_secs()
    }

    /// Records one observation at wall-clock time.
    pub fn observe(&self, v: f64) {
        self.observe_at(self.wheel.current_tick(), v);
    }

    /// Records one observation given as a [`std::time::Duration`].
    pub fn observe_duration(&self, d: std::time::Duration) {
        self.observe(d.as_secs_f64());
    }

    /// Records one observation at an explicit tick (tests; monotone ticks
    /// expected — an observation older than the wheel is simply lost).
    pub fn observe_at(&self, tick: u64, v: f64) {
        self.wheel.slot_at(tick, Histogram::reset).observe(v);
    }

    /// Merged snapshot of the window ending at wall-clock now.
    pub fn snapshot(&self) -> HistogramSnapshot {
        self.snapshot_at(self.wheel.current_tick())
    }

    /// Merged snapshot of the window `(now_tick - slots, now_tick]`: slots
    /// holding a tick outside that range are stale and excluded.
    pub fn snapshot_at(&self, now_tick: u64) -> HistogramSnapshot {
        let mut merged = HistogramSnapshot {
            bounds: self.bounds.clone(),
            counts: vec![0; self.bounds.len() + 1],
            sum: 0.0,
            count: 0,
        };
        for slot in self.wheel.live(now_tick) {
            let snap = slot.snapshot();
            for (acc, c) in merged.counts.iter_mut().zip(snap.counts) {
                *acc += c;
            }
            merged.sum += snap.sum;
            merged.count += snap.count;
        }
        merged
    }
}

/// A rolling-window counter: the windowed sibling of
/// [`Counter`](super::Counter), built on the same tick wheel as
/// [`WindowedHistogram`]. [`Self::sum`] reports events inside the last
/// `slots × slot_secs` seconds and therefore moves both ways — it renders
/// as a Prometheus gauge.
#[derive(Debug)]
pub struct WindowedCounter {
    wheel: Wheel<AtomicU64>,
}

impl WindowedCounter {
    pub(super) fn new(slots: usize, slot_secs: u64) -> Self {
        Self {
            wheel: Wheel::new(slots, slot_secs, || AtomicU64::new(0)),
        }
    }

    /// Length of the full window in seconds (`slots × slot_secs`).
    pub fn window_secs(&self) -> u64 {
        self.wheel.window_secs()
    }

    /// Adds one at wall-clock time.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n` at wall-clock time.
    pub fn add(&self, n: u64) {
        self.add_at(self.wheel.current_tick(), n);
    }

    /// Adds `n` at an explicit tick (tests).
    pub fn add_at(&self, tick: u64, n: u64) {
        let reset = |value: &AtomicU64| value.store(0, Ordering::Relaxed);
        self.wheel
            .slot_at(tick, reset)
            .fetch_add(n, Ordering::Relaxed);
    }

    /// Events within the window ending at wall-clock now.
    pub fn sum(&self) -> u64 {
        self.sum_at(self.wheel.current_tick())
    }

    /// Events within the window `(now_tick - slots, now_tick]`.
    pub fn sum_at(&self, now_tick: u64) -> u64 {
        let live = self.wheel.live(now_tick);
        live.map(|v| v.load(Ordering::Relaxed)).sum()
    }
}
