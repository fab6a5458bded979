//! Order statistics over host timings, and the run's time budget.

use std::time::Instant;

/// How long a probe runs: the workload's measured window, or a fixed
/// number of calls when the probe only supplies side metrics.
#[derive(Clone, Copy, Debug)]
pub enum Budget {
    /// Keep calling until this many host seconds have passed.
    Seconds(f64),
    /// Make exactly this many calls.
    Calls(usize),
}

impl Budget {
    /// Whether another call fits, `calls` calls after `start`.
    pub fn more(self, start: Instant, calls: usize) -> bool {
        match self {
            Budget::Seconds(s) => calls == 0 || start.elapsed().as_secs_f64() < s,
            Budget::Calls(n) => calls < n,
        }
    }
}

/// Host seconds between two instants.
pub fn secs(from: Instant, to: Instant) -> f64 {
    to.duration_since(from).as_secs_f64()
}

/// Nearest-rank percentile (`p` in 0..=100): the smallest value with at
/// least `p`% of the sample at or below it. NaN for an empty sample.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Nearest-rank median.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// The host durations of one probe's calls. Call `i` served input
/// `i % inputs`: the probe cycles a fixed set of distinct inputs.
#[derive(Clone, Debug)]
pub struct Calls {
    /// Host seconds per call, in call order.
    pub seconds: Vec<f64>,
    /// Distinct inputs the calls cycle through.
    pub inputs: usize,
    /// Work items (samples or simulated requests) per call.
    pub items_per_call: f64,
}

impl Calls {
    /// An empty series of calls cycling `inputs` distinct inputs, doing
    /// `items_per_call` items each.
    pub fn new(inputs: usize, items_per_call: f64) -> Self {
        Self {
            seconds: Vec::new(),
            inputs: inputs.max(1),
            items_per_call,
        }
    }

    /// Each distinct input's fastest call, host seconds.
    ///
    /// Other tenants of a shared host slow it down in phases, from a few
    /// milliseconds to whole runs, and a slowed phase moves every call in
    /// it (by up to 1.7× on a 2-vCPU KVM guest of a Xeon host). Repeating
    /// each input many times and keeping its fastest call reads the
    /// program's own cost, which is what a change to the program moves.
    pub fn fastest_per_input(&self) -> Vec<f64> {
        fastest_per_input(&self.seconds, self.inputs)
    }

    /// Percentile `p` over the distinct inputs of their fastest call,
    /// microseconds.
    pub fn latency_us(&self, p: f64) -> f64 {
        percentile(&self.fastest_per_input(), p) * 1e6
    }

    /// Items per host second over one pass of the inputs at their fastest.
    pub fn rate(&self) -> f64 {
        let fastest = self.fastest_per_input();
        self.items_per_call * fastest.len() as f64 / fastest.iter().sum::<f64>()
    }

    /// Number of calls.
    pub fn len(&self) -> usize {
        self.seconds.len()
    }
}

/// The fastest value per input of a series whose element `i` belongs to
/// input `i % inputs`.
pub fn fastest_per_input(series: &[f64], inputs: usize) -> Vec<f64> {
    let mut best = vec![f64::INFINITY; inputs.max(1).min(series.len())];
    let n = best.len();
    for (i, &s) in series.iter().enumerate() {
        best[i % n] = best[i % n].min(s);
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert!(percentile(&[], 50.0).is_nan());
    }

    #[test]
    fn per_input_statistics_ignore_a_slowed_phase() {
        // Two inputs costing 1 ms and 3 ms, 2 items per call; neighbours
        // slow the middle of the run down 1.7x.
        let mut calls = Calls::new(2, 2.0);
        calls.seconds = (0..100)
            .map(|i| if i % 2 == 0 { 0.001 } else { 0.003 })
            .collect();
        calls.seconds[20..80].iter_mut().for_each(|s| *s *= 1.7);
        assert_eq!(calls.fastest_per_input(), vec![0.001, 0.003]);
        assert!((calls.latency_us(50.0) - 1000.0).abs() < 1e-9);
        assert!((calls.latency_us(99.0) - 3000.0).abs() < 1e-9);
        assert!((calls.rate() - 1000.0).abs() < 1e-9);
        // Fewer calls than inputs: only the inputs served count.
        assert_eq!(fastest_per_input(&[0.5], 4), vec![0.5]);
    }
}
