//! The one latency accumulator the serving simulators and the front
//! end share.
//!
//! [`LatencyStat`] keeps exact count/mean/max plus three constant-space
//! P² percentile estimators (p50/p95/p99); [`LatencyStats`] is its
//! snapshot — the five summary numbers every report renders.

use crate::quantile::P2Quantile;

/// Latency distribution over a request population, microseconds.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LatencyStats {
    /// Arithmetic mean.
    pub mean_us: f64,
    /// Median (nearest-rank, or a P² estimate from [`LatencyStat`]).
    pub p50_us: f64,
    /// 95th percentile.
    pub p95_us: f64,
    /// 99th percentile.
    pub p99_us: f64,
    /// Maximum.
    pub max_us: f64,
}

impl LatencyStats {
    /// Computes the stats over `values` (order irrelevant; empty → zeros).
    /// Percentiles are exact nearest-rank: the smallest value with at
    /// least p% of the population at or below it.
    pub fn of(values: &[f64]) -> Self {
        if values.is_empty() {
            return Self::default();
        }
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        let pct = |p: f64| -> f64 {
            let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
            sorted[rank.clamp(1, sorted.len()) - 1]
        };
        Self {
            mean_us: sorted.iter().sum::<f64>() / sorted.len() as f64,
            p50_us: pct(50.0),
            p95_us: pct(95.0),
            p99_us: pct(99.0),
            max_us: *sorted.last().expect("non-empty"),
        }
    }
}

/// Constant-memory latency accounting: exact count/mean/max plus P²
/// streaming estimates of p50/p95/p99. A handful of floats of state, no
/// samples retained — sized for sweeps over millions of virtual
/// requests.
#[derive(Clone, Debug, PartialEq)]
pub struct LatencyStat {
    count: u64,
    sum_us: f64,
    max_us: f64,
    p50: P2Quantile,
    p95: P2Quantile,
    p99: P2Quantile,
}

impl Default for LatencyStat {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyStat {
    /// An empty accumulator.
    pub fn new() -> Self {
        Self {
            count: 0,
            sum_us: 0.0,
            max_us: 0.0,
            p50: P2Quantile::new(0.5),
            p95: P2Quantile::new(0.95),
            p99: P2Quantile::new(0.99),
        }
    }

    /// Folds one latency observation in (O(1) time and space).
    pub fn observe(&mut self, latency_us: f64) {
        self.count += 1;
        self.sum_us += latency_us;
        self.max_us = self.max_us.max(latency_us);
        self.p50.observe(latency_us);
        self.p95.observe(latency_us);
        self.p99.observe(latency_us);
    }

    /// Observations folded in so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact arithmetic mean of the observations (0 when empty).
    pub fn mean_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_us / self.count as f64
        }
    }

    /// The summary snapshot: exact mean and max, P²-estimated
    /// percentiles (exact for populations under five — the trackers are
    /// still in their warm-up buffers).
    pub fn stats(&self) -> LatencyStats {
        LatencyStats {
            mean_us: self.mean_us(),
            p50_us: self.p50.estimate(),
            p95_us: self.p95.estimate(),
            p99_us: self.p99.estimate(),
            max_us: self.max_us,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_nearest_rank() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        let s = LatencyStats::of(&values);
        assert_eq!(s.p50_us, 50.0);
        assert_eq!(s.p95_us, 95.0);
        assert_eq!(s.p99_us, 99.0);
        assert_eq!(s.max_us, 100.0);
        assert!((s.mean_us - 50.5).abs() < 1e-12);
        // Small populations: p99 of 2 samples is the max.
        let s = LatencyStats::of(&[3.0, 1.0]);
        assert_eq!(s.p50_us, 1.0);
        assert_eq!(s.p99_us, 3.0);
    }

    #[test]
    fn empty_population_is_all_zero() {
        assert_eq!(LatencyStats::of(&[]), LatencyStats::default());
        assert_eq!(LatencyStat::new().stats(), LatencyStats::default());
        assert_eq!(LatencyStat::new().mean_us(), 0.0);
    }

    /// The streaming accumulator must agree with the exact population
    /// stats wherever it promises exactness (count, mean, max) and stay
    /// close on the estimated percentiles.
    #[test]
    fn streaming_matches_exact_mean_and_max() {
        let mut stat = LatencyStat::new();
        let values: Vec<f64> = (0..5000)
            .map(|i| ((i * 2654435761u64 % 1000) as f64) + 1.0)
            .collect();
        for &v in &values {
            stat.observe(v);
        }
        let exact = LatencyStats::of(&values);
        let got = stat.stats();
        assert_eq!(stat.count(), 5000);
        assert!((got.mean_us - exact.mean_us).abs() < 1e-9);
        assert_eq!(got.max_us, exact.max_us);
        assert!((got.p50_us - exact.p50_us).abs() < 0.05 * exact.p50_us);
        assert!((got.p95_us - exact.p95_us).abs() < 0.05 * exact.p95_us);
    }
}
