//! Percentiles over latency samples.

/// Percentiles the benchmark may report, ascending, in tenths of a
/// percent (integers, so "ten samples beyond" is decided exactly).
const LADDER_PER_MILLE: [usize; 7] = [500, 750, 900, 950, 975, 990, 999];

/// Samples that must lie beyond a percentile for it to be reported: with
/// fewer, the value is one or two outliers rather than a tail.
const MIN_BEYOND: usize = 10;

/// The highest ladder percentile at or below `wanted` that has at least
/// [`MIN_BEYOND`] of `n` samples beyond it; the median when none has.
pub fn supported_percentile(n: usize, wanted: f64) -> f64 {
    LADDER_PER_MILLE
        .iter()
        .filter(|&&pm| n * (1000 - pm) >= MIN_BEYOND * 1000)
        .map(|&pm| pm as f64 / 10.0)
        .filter(|&p| p <= wanted)
        .fold(50.0, f64::max)
}

/// Nearest-rank percentile (`⌈p·n/100⌉`-th smallest) of an ascending
/// slice; `None` when empty.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Rates (events per second) over consecutive blocks of `block` events:
/// block `j` runs from its first event to the first event of block `j+1`,
/// so the last, open block is not rated. `times_s` must be ascending.
pub fn block_rates(times_s: &[f64], block: usize) -> Vec<f64> {
    times_s
        .chunks(block)
        .zip(times_s.chunks(block).skip(1))
        .map(|(this, next)| this.len() as f64 / (next[0] - this[0]))
        .collect()
}

/// A sample set sorted once, queried many times.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    sorted: Vec<f64>,
}

impl Samples {
    pub fn new(mut values: Vec<f64>) -> Self {
        values.sort_by(f64::total_cmp);
        Self { sorted: values }
    }

    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// The `p`-th percentile, 0 when there are no samples.
    pub fn at(&self, p: f64) -> f64 {
        percentile(&self.sorted, p).unwrap_or(0.0)
    }

    pub fn median(&self) -> f64 {
        self.at(50.0)
    }

    pub fn max(&self) -> f64 {
        self.sorted.last().copied().unwrap_or(0.0)
    }

    /// `(percentile used, value)`: `wanted`, lowered to what the sample
    /// count supports.
    pub fn tail(&self, wanted: f64) -> (f64, f64) {
        let p = supported_percentile(self.len(), wanted);
        (p, self.at(p))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn picks_highest_percentile_with_ten_samples_beyond() {
        // 10 samples beyond p95 needs n >= 200; beyond p99, n >= 1000.
        assert_eq!(supported_percentile(199, 99.9), 90.0);
        assert_eq!(supported_percentile(200, 99.9), 95.0);
        assert_eq!(supported_percentile(999, 99.9), 97.5);
        assert_eq!(supported_percentile(1000, 99.9), 99.0);
        assert_eq!(supported_percentile(10_000, 99.9), 99.9);
        // Never above what the caller asked for.
        assert_eq!(supported_percentile(10_000, 95.0), 95.0);
        // Too few samples for any tail: the median.
        assert_eq!(supported_percentile(15, 99.0), 50.0);
        assert_eq!(supported_percentile(20, 99.0), 50.0);
        assert_eq!(supported_percentile(40, 99.0), 75.0);
    }

    #[test]
    fn block_rates_are_events_over_elapsed_time() {
        // 9 events: four 0.1 s apart, four 0.2 s apart, one left over.
        let times = [0.0, 0.1, 0.2, 0.3, 0.4, 0.6, 0.8, 1.0, 1.2];
        let rates = block_rates(&times, 4);
        assert_eq!(rates.len(), 2);
        assert!((rates[0] - 10.0).abs() < 1e-9, "{rates:?}");
        assert!((rates[1] - 5.0).abs() < 1e-9, "{rates:?}");
        assert!(block_rates(&times[..4], 4).is_empty(), "no closed block");
        assert!(block_rates(&[], 4).is_empty());
    }

    #[test]
    fn nearest_rank_percentiles() {
        let s = Samples::new((1..=100).rev().map(f64::from).collect());
        assert_eq!(s.median(), 50.0);
        assert_eq!(s.at(95.0), 95.0);
        assert_eq!(s.at(100.0), 100.0);
        assert_eq!(s.max(), 100.0);
        assert_eq!(Samples::default().median(), 0.0);
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(percentile(&[7.0], 1.0), Some(7.0));
    }
}
