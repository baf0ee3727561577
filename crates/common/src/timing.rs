//! Lightweight timers for per-phase runtime breakdowns.
//!
//! The paper's Figure 4 reports the SOI algorithm's runtime split into three
//! phases (source-list construction, filtering, refinement). [`PhaseTimer`]
//! accumulates wall-clock time per named phase to report that breakdown.
//!
//! [`PhaseTimer`] is also a trace source: when tracing is enabled
//! (`soi_obs::trace::set_enabled`), every phase entry/exit emits a
//! begin/end event pair, so any algorithm that already times its phases
//! shows them as spans in a Chrome trace for free. Phases are not
//! lexically scoped (a phase closes at the *next* `enter`), hence the
//! `B`/`E` pair form rather than an RAII span.

use std::time::{Duration, Instant};

/// Accumulates wall-clock durations under named phases.
///
/// Phases are identified by `&'static str` labels; a phase may be entered
/// multiple times and its durations accumulate. Phase order of first entry is
/// preserved for reporting.
#[derive(Debug, Default, Clone)]
pub struct PhaseTimer {
    phases: Vec<(&'static str, Duration)>,
    current: Option<(&'static str, Instant)>,
}

impl PhaseTimer {
    /// Enters `phase`, closing any currently open phase first.
    pub fn enter(&mut self, phase: &'static str) {
        self.finish_current();
        soi_obs::trace::begin(phase);
        self.current = Some((phase, Instant::now()));
    }

    /// Closes the currently open phase, if any.
    pub fn stop(&mut self) {
        self.finish_current();
    }

    fn finish_current(&mut self) {
        if let Some((phase, started)) = self.current.take() {
            soi_obs::trace::end(phase);
            let elapsed = started.elapsed();
            if let Some(entry) = self.phases.iter_mut().find(|(name, _)| *name == phase) {
                entry.1 += elapsed;
            } else {
                self.phases.push((phase, elapsed));
            }
        }
    }

    /// Returns the accumulated duration of `phase` (zero if never entered).
    pub fn duration(&self, phase: &str) -> Duration {
        self.phases
            .iter()
            .find(|(name, _)| *name == phase)
            .map(|(_, d)| *d)
            .unwrap_or_default()
    }

    /// Returns all phases in first-entry order with accumulated durations.
    ///
    /// The currently open phase (if any) is not included until closed.
    pub fn phases(&self) -> &[(&'static str, Duration)] {
        &self.phases
    }

    /// Total accumulated time across all closed phases.
    pub fn total(&self) -> Duration {
        self.phases.iter().map(|(_, d)| *d).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread::sleep;

    #[test]
    fn phase_timer_accumulates_and_preserves_order() {
        let mut t = PhaseTimer::default();
        t.enter("build");
        sleep(Duration::from_millis(2));
        t.enter("filter");
        sleep(Duration::from_millis(2));
        t.enter("build");
        sleep(Duration::from_millis(2));
        t.stop();

        let names: Vec<&str> = t.phases().iter().map(|(n, _)| *n).collect();
        assert_eq!(names, vec!["build", "filter"]);
        assert!(t.duration("build") >= Duration::from_millis(3));
        assert!(t.duration("filter") >= Duration::from_millis(1));
        assert_eq!(t.duration("missing"), Duration::ZERO);
        assert!(t.total() >= t.duration("build"));
    }

    #[test]
    fn entering_new_phase_closes_previous() {
        let mut t = PhaseTimer::default();
        t.enter("a");
        t.enter("b");
        t.stop();
        assert_eq!(t.phases().len(), 2);
    }

    #[test]
    fn stop_without_enter_is_noop() {
        let mut t = PhaseTimer::default();
        t.stop();
        assert!(t.phases().is_empty());
        assert_eq!(t.total(), Duration::ZERO);
    }
}
