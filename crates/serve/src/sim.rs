//! The per-request fleet simulator: [`simulate`] and [`simulate_with`].
//!
//! One global virtual timeline, N shards, a pluggable
//! [`Scheduler`] driven on the shared
//! [`Core`]. Two event kinds drive the run:
//!
//! * **Arrival** — a request is issued (by the open-loop generator, or by
//!   a closed-loop client finishing its previous request). The scheduler
//!   sees a [`ShardView`](crate::ShardView) snapshot per
//!   shard and places the request: on an idle shard (service starts
//!   immediately), behind a busy shard (it joins that shard's FIFO
//!   queue), or — returning `None` — in the central queue, to be claimed
//!   by the first shard that frees up.
//! * **Completion** — a shard finishes its request, records the metric,
//!   and pulls its next request from its own queue first, then from the
//!   central queue.
//!
//! Ties on the timeline break by push order, so a run is a pure function
//! of `(shards, scheduler, workload)` — every replay is identical, which
//! is what lets scheduler A-vs-B comparisons attribute every microsecond
//! of difference to policy.

use crate::core::{rate_per_s, Core, LatencyBook, MetricsMode, Request, ServeError, Shard};
use crate::metrics::{QueueStats, RequestMetric, ServeSummary};
use crate::scheduler::Scheduler;
use crate::workload::Workload;

/// One simulated shard: a name and its modelled per-request service times.
#[derive(Clone, Debug, PartialEq)]
pub struct ShardSpec {
    /// Shard name (e.g. the backend's `name()`).
    pub name: String,
    /// Modelled service times, microseconds. Request `i` costs
    /// `service_us[i % len]` on this shard — feed each backend's
    /// per-sample `RunRecord::time_us` table (from
    /// `sparsenn_core::engine`) for realistic variance, or a single mean.
    pub service_us: Vec<f64>,
}

impl ShardSpec {
    /// A shard with one constant service time.
    pub fn uniform(name: impl Into<String>, service_us: f64) -> Self {
        Self {
            name: name.into(),
            service_us: vec![service_us],
        }
    }

    /// A shard serving request `i` in `service_us[i % len]` µs.
    pub fn with_table(name: impl Into<String>, service_us: Vec<f64>) -> Self {
        Self {
            name: name.into(),
            service_us,
        }
    }

    /// Modelled service time of request `request` on this shard, µs.
    pub fn service_for(&self, request: usize) -> f64 {
        self.service_us[request % self.service_us.len()]
    }

    /// Mean modelled service time, µs.
    pub fn mean_service_us(&self) -> f64 {
        self.service_us.iter().sum::<f64>() / self.service_us.len() as f64
    }
}

/// Offered load that would keep every shard exactly busy: the fleet's
/// modelled capacity, requests per second.
pub fn fleet_capacity_rps(shards: &[ShardSpec]) -> f64 {
    shards
        .iter()
        .map(|s| {
            let mean = s.mean_service_us();
            if mean > 0.0 {
                1e6 / mean
            } else {
                0.0
            }
        })
        .sum()
}

#[derive(Clone, Copy, Debug)]
enum Event {
    Arrival,
    Completion { shard: usize },
}

/// Runs one simulation to completion in the default
/// [`MetricsMode::Streaming`] — constant memory however many requests
/// the workload issues.
///
/// Deterministic: the summary is a pure function of the arguments, and
/// the *timeline* (makespan, throughput, per-shard usage, queue depths)
/// is bit-identical across both metrics modes — the mode changes only
/// how latencies are summarized, never what the fleet does.
///
/// # Errors
///
/// [`ServeError`] when the fleet is empty, a service table is unusable,
/// or the workload parameters are invalid.
pub fn simulate(
    shards: &[ShardSpec],
    scheduler: &dyn Scheduler,
    workload: &Workload,
) -> Result<ServeSummary, ServeError> {
    simulate_with(shards, scheduler, workload, MetricsMode::Streaming)
}

/// [`simulate`] with an explicit [`MetricsMode`]. Use
/// [`MetricsMode::Exact`] when a test or post-mortem needs the
/// per-request records or the queue-depth trajectory.
///
/// A pick the run cannot use — `None` or an out-of-range index — holds
/// the request in the central queue, claimed by the first shard that
/// frees up, so a policy can decline a shard and wait for a better one.
/// When *every* shard is idle no completion would ever drain that queue,
/// so the request starts on shard 0 instead: every request completes,
/// whatever the policy.
///
/// # Errors
///
/// [`ServeError`] when the fleet is empty, a service table is unusable,
/// or the workload parameters are invalid.
pub fn simulate_with(
    shards: &[ShardSpec],
    scheduler: &dyn Scheduler,
    workload: &Workload,
    mode: MetricsMode,
) -> Result<ServeSummary, ServeError> {
    let tables = shards.iter().map(|s| s.service_us.as_slice());
    let mut core = Core::new(tables, "service time", workload, Event::Arrival)?;
    let mut book = LatencyBook::new(mode, workload.requests());

    // Queue-depth trajectory (waiting requests, central + per-shard) with
    // a time-weighted integral for the mean. The integral and maximum are
    // kept in both modes; the trajectory only in Exact.
    let exact = mode == MetricsMode::Exact;
    let mut trajectory: Vec<(f64, usize)> = if exact { vec![(0.0, 0)] } else { Vec::new() };
    let mut depth_area = 0.0f64; // ∫ depth dt
    let mut last_t = 0.0f64;
    let mut last_depth = 0usize;
    let mut max_depth = 0usize;

    while let Some((now, event)) = core.events.pop() {
        match event {
            Event::Arrival => {
                let id = core.arrive();
                let req = Request {
                    id,
                    arrival_us: now,
                };
                let views = core.views(now, |i| (true, shards[i].service_for(id)));
                match scheduler.pick(views) {
                    Some(i) if i < shards.len() && !core.shards[i].idle() => {
                        core.enqueue(i, req, shards[i].service_for(id));
                    }
                    Some(i) if i < shards.len() => {
                        let done = Event::Completion { shard: i };
                        core.start(i, req, now, shards[i].service_for(id), done);
                    }
                    // An unusable pick waits centrally, unless no shard
                    // is running to drain the central queue.
                    _ if core.shards.iter().all(Shard::idle) => {
                        let done = Event::Completion { shard: 0 };
                        core.start(0, req, now, shards[0].service_for(id), done);
                    }
                    _ => core.central.push_back(req),
                }
            }
            Event::Completion { shard } => {
                let req = *core.shards[shard]
                    .in_service
                    .first()
                    .expect("completion fired for an idle shard");
                let start_us = core.finish(shard, now);
                book.record(RequestMetric {
                    id: req.id,
                    shard,
                    arrival_us: req.arrival_us,
                    start_us,
                    completion_us: now,
                });
                core.reissue(now, 1);
                let spec = &shards[shard];
                if let Some(next) = core.next_for(shard, |r| spec.service_for(r.id)) {
                    let done = Event::Completion { shard };
                    core.start(shard, next, now, spec.service_for(next.id), done);
                }
            }
        }
        // Track the waiting population after every event.
        let depth = core.central.len() + core.shards.iter().map(|s| s.queue.len()).sum::<usize>();
        if depth != last_depth {
            depth_area += last_depth as f64 * (now - last_t);
            if exact {
                trajectory.push((now, depth));
            }
            last_t = now;
            last_depth = depth;
            max_depth = max_depth.max(depth);
        }
    }
    let makespan_us = core.makespan_us;
    depth_area += last_depth as f64 * (makespan_us - last_t).max(0.0);

    debug_assert_eq!(book.done, workload.requests(), "every request completes");
    Ok(ServeSummary {
        scheduler: scheduler.name().to_string(),
        workload: workload.to_string(),
        requests: book.done,
        makespan_us,
        throughput_rps: rate_per_s(book.done, makespan_us),
        latency: book.latency(),
        queue_us_mean: book.queue_us_mean(),
        service_us_mean: book.service_us_mean(),
        shards: core.usage(shards.iter().map(|s| &s.name)),
        queue: QueueStats {
            max_depth,
            mean_depth: if makespan_us > 0.0 {
                depth_area / makespan_us
            } else {
                0.0
            },
            trajectory,
        },
        per_request: book.per_request,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::{FastestCompletion, FirstIdle, LeastQueued};

    fn homogeneous(n: usize, service_us: f64) -> Vec<ShardSpec> {
        (0..n)
            .map(|i| ShardSpec::uniform(format!("machine-{i}"), service_us))
            .collect()
    }

    /// The acceptance criterion: closed-loop with concurrency == shards on
    /// a homogeneous fleet has zero queueing — mean latency is exactly the
    /// backend's modelled per-sample service time.
    #[test]
    fn closed_loop_at_fleet_concurrency_has_no_queueing() {
        // Per-sample service table (as a real backend would produce) —
        // request count a multiple of the table, so means match exactly.
        let table = vec![10.0, 14.0, 12.0, 8.0];
        let shards: Vec<ShardSpec> = (0..4)
            .map(|i| ShardSpec::with_table(format!("m{i}"), table.clone()))
            .collect();
        let workload = Workload::ClosedLoop {
            concurrency: 4,
            requests: 64,
            think_us: 0.0,
        };
        for scheduler in [
            &FirstIdle as &dyn crate::Scheduler,
            &LeastQueued,
            &FastestCompletion,
        ] {
            let s = simulate(&shards, scheduler, &workload).unwrap();
            assert_eq!(s.requests, 64);
            assert_eq!(s.queue_us_mean, 0.0, "{}: no request waits", s.scheduler);
            assert_eq!(s.queue.max_depth, 0, "{}", s.scheduler);
            let modelled_mean = shards[0].mean_service_us();
            assert!(
                (s.latency.mean_us - modelled_mean).abs() < 1e-9,
                "{}: mean latency {} vs modelled per-sample time {}",
                s.scheduler,
                s.latency.mean_us,
                modelled_mean
            );
        }
    }

    #[test]
    fn single_shard_fifo_and_conservation() {
        let shards = vec![ShardSpec::uniform("only", 10.0)];
        let s = simulate_with(
            &shards,
            &FirstIdle,
            &Workload::Poisson {
                rate_rps: 200_000.0, // 2 requests per service time: overload
                requests: 200,
                seed: 1,
            },
            MetricsMode::Exact,
        )
        .unwrap();
        assert_eq!(s.requests, 200);
        assert_eq!(s.shards[0].served, 200);
        // Single server: completions come in request order (FIFO).
        let ids: Vec<usize> = s.per_request.iter().map(|r| r.id).collect();
        assert!(ids.windows(2).all(|w| w[0] < w[1]));
        // Overloaded: queueing dominates and the queue gets deep.
        assert!(s.queue_us_mean > s.service_us_mean);
        assert!(s.queue.max_depth > 10);
        // The busy time is exactly requests × service.
        assert!((s.shards[0].busy_us - 2000.0).abs() < 1e-9);
        assert!(s.shards[0].utilization <= 1.0 + 1e-12);
    }

    /// The other acceptance half: on a heterogeneous fleet (fast machine
    /// beside slow SIMD platforms) fastest-expected-completion beats
    /// first-idle on p95 latency.
    #[test]
    fn fastest_completion_beats_first_idle_on_hetero_p95() {
        let shards = vec![
            ShardSpec::uniform("machine", 10.0),
            ShardSpec::uniform("simd-slow", 100.0),
        ];
        // ~73% of fleet capacity (capacity = 110k rps).
        let workload = Workload::Poisson {
            rate_rps: 80_000.0,
            requests: 3000,
            seed: 42,
        };
        let first = simulate(&shards, &FirstIdle, &workload).unwrap();
        let fec = simulate(&shards, &FastestCompletion, &workload).unwrap();
        assert!(
            fec.latency.p95_us < first.latency.p95_us,
            "fec p95 {} must beat first-idle p95 {}",
            fec.latency.p95_us,
            first.latency.p95_us
        );
        assert!(fec.latency.mean_us < first.latency.mean_us);
        // Both served everything; the policies differ in placement only.
        assert_eq!(first.requests, 3000);
        assert_eq!(fec.requests, 3000);
    }

    #[test]
    fn runs_are_deterministic() {
        let shards = vec![
            ShardSpec::with_table("a", vec![5.0, 9.0]),
            ShardSpec::uniform("b", 20.0),
        ];
        let w = Workload::Bursty {
            low_rps: 20_000.0,
            high_rps: 200_000.0,
            period_us: 500.0,
            duty: 0.3,
            requests: 800,
            seed: 9,
        };
        let a = simulate(&shards, &LeastQueued, &w).unwrap();
        let b = simulate(&shards, &LeastQueued, &w).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn bursty_load_builds_queues_that_drain() {
        let shards = homogeneous(2, 10.0); // 200k rps capacity
        let s = simulate_with(
            &shards,
            &LeastQueued,
            &Workload::Bursty {
                low_rps: 10_000.0,
                high_rps: 600_000.0, // 3× capacity during bursts
                period_us: 2_000.0,
                duty: 0.25,
                requests: 2000,
                seed: 5,
            },
            MetricsMode::Exact,
        )
        .unwrap();
        assert!(s.queue.max_depth >= 5, "bursts must pile a queue up");
        assert_eq!(
            s.queue.trajectory.last().map(|&(_, d)| d),
            Some(0),
            "the queue drains by the end"
        );
        // Mean arrival rate ≈ 0.25·600k + 0.75·10k = 157.5k < capacity,
        // so mean depth stays well below the burst peak.
        assert!(s.queue.mean_depth < s.queue.max_depth as f64);
    }

    #[test]
    fn closed_loop_throughput_saturates_at_fleet_capacity() {
        let shards = homogeneous(3, 10.0); // 300k rps capacity
        let s = simulate(
            &shards,
            &FirstIdle,
            &Workload::ClosedLoop {
                concurrency: 12, // 4 clients per shard: saturated
                requests: 600,
                think_us: 0.0,
            },
        )
        .unwrap();
        assert!((s.throughput_rps - fleet_capacity_rps(&shards)).abs() < 1000.0);
        for shard in &s.shards {
            assert!(shard.utilization > 0.99, "{shard:?}");
        }
        // Little's law sanity: N = X · R (12 clients, R in seconds).
        let n = s.throughput_rps * s.latency.mean_us * 1e-6;
        assert!((n - 12.0).abs() < 0.5, "Little's law: N ≈ {n}, want 12");
    }

    /// A policy that never places a request: requests hold centrally
    /// while anything runs, and the all-idle fallback to shard 0 keeps
    /// the run live, so every request funnels through shard 0 and still
    /// completes.
    #[test]
    fn none_picks_match_the_live_fleets_blocked_caller_semantics() {
        struct AlwaysWait;
        impl crate::Scheduler for AlwaysWait {
            fn name(&self) -> &str {
                "always-wait"
            }
            fn pick(&self, _: &[crate::ShardView]) -> Option<usize> {
                None
            }
        }
        let shards = homogeneous(3, 10.0);
        let s = simulate(
            &shards,
            &AlwaysWait,
            &Workload::Poisson {
                rate_rps: 50_000.0,
                requests: 120,
                seed: 2,
            },
        )
        .unwrap();
        assert_eq!(s.requests, 120, "progress despite a never-placing policy");
        assert_eq!(s.shards[0].served, 120, "only the fallback shard works");
        assert_eq!(s.shards[1].served + s.shards[2].served, 0);
    }

    #[test]
    fn bad_inputs_are_typed_errors() {
        assert_eq!(
            simulate(
                &[],
                &FirstIdle,
                &Workload::ClosedLoop {
                    concurrency: 1,
                    requests: 1,
                    think_us: 0.0
                }
            )
            .unwrap_err(),
            ServeError::NoShards
        );
        let empty_table = vec![ShardSpec {
            name: "x".into(),
            service_us: vec![],
        }];
        assert!(matches!(
            simulate(
                &empty_table,
                &FirstIdle,
                &Workload::ClosedLoop {
                    concurrency: 1,
                    requests: 1,
                    think_us: 0.0
                }
            )
            .unwrap_err(),
            ServeError::BadServiceTable { shard: 0, .. }
        ));
        let nan_table = vec![ShardSpec::uniform("x", f64::NAN)];
        assert!(matches!(
            simulate(
                &nan_table,
                &FirstIdle,
                &Workload::ClosedLoop {
                    concurrency: 1,
                    requests: 1,
                    think_us: 0.0
                }
            )
            .unwrap_err(),
            ServeError::BadServiceTable { shard: 0, .. }
        ));
        assert!(matches!(
            simulate(
                &homogeneous(1, 10.0),
                &FirstIdle,
                &Workload::Poisson {
                    rate_rps: -5.0,
                    requests: 10,
                    seed: 0
                }
            )
            .unwrap_err(),
            ServeError::InvalidWorkload(_)
        ));
    }

    /// The two metrics modes drive the identical timeline: every field
    /// except the latency percentiles (and the deliberately-empty
    /// per-request / trajectory vectors) matches exactly, and the P²
    /// percentile estimates land near the exact nearest-rank values.
    #[test]
    fn streaming_mode_matches_exact_except_percentile_estimation() {
        let shards = vec![
            ShardSpec::with_table("a", vec![8.0, 12.0, 10.0]),
            ShardSpec::uniform("b", 40.0),
        ];
        let w = Workload::Poisson {
            rate_rps: 90_000.0,
            requests: 5000,
            seed: 17,
        };
        let exact = simulate_with(&shards, &LeastQueued, &w, MetricsMode::Exact).unwrap();
        let stream = simulate(&shards, &LeastQueued, &w).unwrap();
        assert_eq!(stream.requests, exact.requests);
        assert_eq!(stream.makespan_us, exact.makespan_us);
        assert_eq!(stream.throughput_rps, exact.throughput_rps);
        assert_eq!(stream.queue_us_mean, exact.queue_us_mean);
        assert_eq!(stream.service_us_mean, exact.service_us_mean);
        assert_eq!(stream.shards, exact.shards);
        assert_eq!(stream.queue.max_depth, exact.queue.max_depth);
        assert_eq!(stream.queue.mean_depth, exact.queue.mean_depth);
        // Mean and max latency are exact in both modes.
        assert!((stream.latency.mean_us - exact.latency.mean_us).abs() < 1e-9);
        assert_eq!(stream.latency.max_us, exact.latency.max_us);
        // Percentiles are P² estimates: close, not identical.
        for (est, truth) in [
            (stream.latency.p50_us, exact.latency.p50_us),
            (stream.latency.p95_us, exact.latency.p95_us),
            (stream.latency.p99_us, exact.latency.p99_us),
        ] {
            let tol = 0.25 * truth.max(1.0);
            assert!(
                (est - truth).abs() <= tol,
                "P² estimate {est} too far from exact {truth}"
            );
        }
        // Streaming holds no per-request state.
        assert!(stream.per_request.is_empty());
        assert!(stream.queue.trajectory.is_empty());
        assert_eq!(exact.per_request.len(), 5000);
    }

    #[test]
    fn capacity_model_sums_shard_rates() {
        let shards = vec![
            ShardSpec::uniform("a", 10.0),  // 100k rps
            ShardSpec::uniform("b", 100.0), // 10k rps
        ];
        assert!((fleet_capacity_rps(&shards) - 110_000.0).abs() < 1e-6);
    }
}
