//! Per-request and per-shard serving metrics.
//!
//! Every simulated request leaves a [`RequestMetric`] splitting its
//! end-to-end latency into time-in-queue and time-in-service; the
//! simulator folds them into a [`ServeSummary`] with latency percentiles,
//! per-shard utilization and the fleet-wide queue-depth trajectory — the
//! quantities the degenerate `shards / latency` throughput model of the
//! old fleet study could not express.
//!
//! Two accounting regimes produce the same summary shape (see
//! [`MetricsMode`](crate::MetricsMode)): the default **streaming** mode
//! folds every request into a [`StreamingLatency`] — counters plus three
//! constant-space P² percentile trackers — so a sweep over millions of
//! virtual requests runs in O(1) memory; **exact** mode materializes the
//! per-request records and the full queue-depth trajectory for tests and
//! forensics.

/// The life of one simulated request, in virtual microseconds.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RequestMetric {
    /// Request id, monotone in arrival order.
    pub id: usize,
    /// Shard that served the request.
    pub shard: usize,
    /// Arrival (issue) time.
    pub arrival_us: f64,
    /// Service start time (`start - arrival` is the queueing delay).
    pub start_us: f64,
    /// Completion time.
    pub completion_us: f64,
}

impl RequestMetric {
    /// End-to-end latency: completion − arrival.
    pub fn latency_us(&self) -> f64 {
        self.completion_us - self.arrival_us
    }

    /// Time spent waiting (central or per-shard queue) before service.
    pub fn queue_us(&self) -> f64 {
        self.start_us - self.arrival_us
    }

    /// Time spent in service on the shard.
    pub fn service_us(&self) -> f64 {
        self.completion_us - self.start_us
    }
}

/// Latency distribution snapshot — re-exported from the unified
/// `sparsenn-obs` accounting (same five fields, same nearest-rank
/// [`LatencyStats::of`] this crate used to define locally).
pub use sparsenn_obs::LatencyStats;

/// The streaming accumulator behind the simulator's default metrics
/// mode — re-exported from `sparsenn-obs`, where the frontend's
/// per-class stats share it. Exact count/mean/max plus constant-space
/// P² p50/p95/p99.
pub use sparsenn_obs::LatencyStat as StreamingLatency;

/// One shard's share of the simulated work.
#[derive(Clone, Debug, PartialEq)]
pub struct ShardUsage {
    /// Shard name (from its spec).
    pub name: String,
    /// Requests the shard served.
    pub served: usize,
    /// Total time the shard spent serving, µs.
    pub busy_us: f64,
    /// `busy_us / makespan` — the fraction of the simulated span the
    /// shard was working.
    pub utilization: f64,
}

/// Queue-depth statistics across the fleet (requests waiting, not in
/// service).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct QueueStats {
    /// Largest number of simultaneously waiting requests.
    pub max_depth: usize,
    /// Time-weighted mean waiting count over the makespan.
    pub mean_depth: f64,
    /// `(virtual time µs, waiting requests)` after every depth change —
    /// the queue-depth trajectory. Populated only in
    /// [`MetricsMode::Exact`](crate::MetricsMode::Exact); empty in the
    /// default streaming mode (`max_depth` and `mean_depth` are exact in
    /// both).
    pub trajectory: Vec<(f64, usize)>,
}

/// Everything a simulation run measured.
#[derive(Clone, Debug, PartialEq)]
pub struct ServeSummary {
    /// Dispatch policy that ran ([`Scheduler::name`]).
    ///
    /// [`Scheduler::name`]: crate::Scheduler::name
    pub scheduler: String,
    /// Workload description.
    pub workload: String,
    /// Requests completed (every issued request completes).
    pub requests: usize,
    /// Virtual time of the last completion, µs.
    pub makespan_us: f64,
    /// Achieved throughput: `requests / makespan`, requests per second.
    pub throughput_rps: f64,
    /// End-to-end latency distribution. In the default streaming mode
    /// the mean and max are exact and p50/p95/p99 are P² estimates; in
    /// [`MetricsMode::Exact`](crate::MetricsMode::Exact) every field is
    /// the exact nearest-rank statistic.
    pub latency: LatencyStats,
    /// Mean time-in-queue per request, µs.
    pub queue_us_mean: f64,
    /// Mean time-in-service per request, µs.
    pub service_us_mean: f64,
    /// Per-shard usage, one entry per shard in spec order.
    pub shards: Vec<ShardUsage>,
    /// Waiting-request depth over time.
    pub queue: QueueStats,
    /// Per-request records, in completion order. Populated only in
    /// [`MetricsMode::Exact`](crate::MetricsMode::Exact); empty in the
    /// default streaming mode, which holds memory at O(in-flight)
    /// however many requests the workload issues.
    pub per_request: Vec<RequestMetric>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_metric_decomposes_latency() {
        let r = RequestMetric {
            id: 0,
            shard: 1,
            arrival_us: 10.0,
            start_us: 14.0,
            completion_us: 19.0,
        };
        assert_eq!(r.queue_us(), 4.0);
        assert_eq!(r.service_us(), 5.0);
        assert_eq!(r.latency_us(), 9.0);
        assert!((r.queue_us() + r.service_us() - r.latency_us()).abs() < 1e-12);
    }

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
    }
}
