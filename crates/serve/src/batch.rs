//! The queue-aware batching simulator: the throughput/latency knee.
//!
//! [`simulate`](crate::simulate) serves every request alone; this module
//! models what the batch-native machine core actually offers — a shard
//! that serves `b` queued requests in `batch_service_us[b-1]` µs, less
//! than `b` serial services because W rows are read once per batch. The
//! [`BatchPolicy`] decides *when* a shard fires:
//! [`BatchPolicy::Immediate`] dispatches whatever has queued the moment
//! the shard frees (batch-of-1 under light load, deep batches under
//! backlog), [`BatchPolicy::SizeOrDeadline`] holds requests until the
//! batch fills or the oldest has waited out its deadline.
//!
//! The resulting [`BatchedSummary`] exposes the knee the serve layer is
//! parameterized on: throughput per shard rises with batch size while
//! queueing latency pays for the fill — sweep `(policy, load)` to find
//! where an SLO sits on that curve. Feed
//! [`BatchShardSpec::batch_service_us`] from the real batched machine
//! (per-(backend, B) `BatchRunRecord::batch_time_us` tables from
//! `sparsenn_core::engine`) and the curve is the accelerator's, not an
//! analytic guess.

use crate::batch_policy::BatchPolicy;
use crate::core::{
    rate_per_s, Core, LatencyBook, MetricsMode, Request, ServeError, DEADLINE_SLACK_US,
};
use crate::metrics::{LatencyStats, RequestMetric, ShardUsage};
use crate::scheduler::Scheduler;
use crate::workload::Workload;
use sparsenn_obs::{track, AttrKey, NullSink, Span, SpanBuffer, SpanKind, TraceSink};

/// One simulated batch-capable shard: a name and its modelled batch
/// service times.
#[derive(Clone, Debug, PartialEq)]
pub struct BatchShardSpec {
    /// Shard name (e.g. the backend's `name()`).
    pub name: String,
    /// Modelled service time of a batch of `b` requests:
    /// `batch_service_us[b - 1]`, microseconds. Batches larger than the
    /// table clamp to its last entry, so the table's length is the
    /// largest batch the shard ever executes. Feed the real batched
    /// machine's per-B times for a faithful knee.
    pub batch_service_us: Vec<f64>,
}

impl BatchShardSpec {
    /// A shard whose batch-of-`b` time follows the given table.
    pub fn with_table(name: impl Into<String>, batch_service_us: Vec<f64>) -> Self {
        Self {
            name: name.into(),
            batch_service_us,
        }
    }

    /// A shard with *no* batching win: a batch of `b` costs exactly
    /// `b × service_us` (the serial-loop baseline), up to `max_batch`.
    pub fn serial(name: impl Into<String>, service_us: f64, max_batch: usize) -> Self {
        Self {
            name: name.into(),
            batch_service_us: (1..=max_batch.max(1))
                .map(|b| b as f64 * service_us)
                .collect(),
        }
    }

    /// Service time of a batch of `b` requests (clamped to the table).
    pub fn service_for_batch(&self, b: usize) -> f64 {
        let i = b.clamp(1, self.batch_service_us.len());
        self.batch_service_us[i - 1]
    }

    /// Largest batch this shard executes (the table length).
    pub fn max_batch(&self) -> usize {
        self.batch_service_us.len()
    }
}

/// One dispatched batch, recorded in [`MetricsMode::Exact`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BatchRecord {
    /// Shard that executed the batch.
    pub shard: usize,
    /// Requests in the batch.
    pub size: usize,
    /// How long the batch's oldest request waited before service
    /// started, µs.
    pub oldest_wait_us: f64,
    /// The part of that wait spent while the shard sat *idle* — time the
    /// policy chose to hold the batch open. Bounded by the policy's
    /// deadline (the no-starvation guarantee); 0 under
    /// [`BatchPolicy::Immediate`].
    pub idle_wait_us: f64,
}

/// Everything a batched simulation run measured.
#[derive(Clone, Debug, PartialEq)]
pub struct BatchedSummary {
    /// Dispatch policy that placed arrivals ([`Scheduler::name`]).
    pub scheduler: String,
    /// Batching policy that fired dispatches ([`BatchPolicy::name`]).
    pub policy: String,
    /// Workload description.
    pub workload: String,
    /// Requests completed (every issued request completes).
    pub requests: usize,
    /// Virtual time of the last completion, µs.
    pub makespan_us: f64,
    /// Achieved throughput: `requests / makespan`, requests per second.
    pub throughput_rps: f64,
    /// End-to-end latency distribution (mean/max exact; percentiles P²
    /// estimates in streaming mode, exact nearest-rank in
    /// [`MetricsMode::Exact`]).
    pub latency: LatencyStats,
    /// Mean time-in-queue per request, µs.
    pub queue_us_mean: f64,
    /// Mean time-in-service per request (its batch's service time), µs.
    pub service_us_mean: f64,
    /// Batches dispatched across the fleet.
    pub batches: usize,
    /// Mean batch size (`requests / batches`; 0 with no batches).
    pub mean_batch: f64,
    /// Largest batch dispatched.
    pub max_batch: usize,
    /// Per-shard usage, one entry per shard in spec order.
    pub shards: Vec<ShardUsage>,
    /// Per-request records, completion order ([`MetricsMode::Exact`]
    /// only; requests of one batch share start and completion times).
    pub per_request: Vec<RequestMetric>,
    /// Per-batch records, dispatch order ([`MetricsMode::Exact`] only).
    pub batch_records: Vec<BatchRecord>,
}

#[derive(Clone, Copy, Debug)]
enum Event {
    Arrival,
    Completion {
        shard: usize,
    },
    /// Guarded wake-up for [`BatchPolicy::SizeOrDeadline`]: armed once
    /// per enqueue at `arrival + deadline_us`; a no-op unless the shard
    /// is idle with an over-age queue when it fires.
    Deadline {
        shard: usize,
    },
}

/// Runs one batched simulation to completion.
///
/// Arrivals are placed per shard by the `scheduler`; a pick the run
/// cannot use (`None` or an out-of-range index) goes to the shallowest
/// queue, ties to the lowest index, so every request lands somewhere and
/// progress is guaranteed. Each shard serves its own queue FIFO, firing
/// batches when the `policy` says so, or as soon as it holds its table's
/// largest batch. Deterministic: the summary is a pure function of the
/// arguments.
///
/// # Errors
///
/// [`ServeError`] when the fleet is empty, a batch-service table is
/// unusable, or the workload or policy parameters are invalid.
pub fn simulate_batched(
    shards: &[BatchShardSpec],
    scheduler: &dyn Scheduler,
    policy: BatchPolicy,
    workload: &Workload,
    mode: MetricsMode,
) -> Result<BatchedSummary, ServeError> {
    simulate_batched_traced(shards, scheduler, policy, workload, mode, &NullSink)
}

/// [`simulate_batched`] with request-level tracing: every request gets
/// an async `request` span (arrival → completion), every dispatched
/// batch a `batch_assembly` span (oldest arrival → dispatch) and a
/// `service` span on its shard's lane — all on the `serve` track,
/// request spans keyed by request id, batch spans by dispatch sequence
/// number. With a disabled sink this *is* [`simulate_batched`]: the
/// summary is bit-identical and no span is built.
pub fn simulate_batched_traced(
    shards: &[BatchShardSpec],
    scheduler: &dyn Scheduler,
    policy: BatchPolicy,
    workload: &Workload,
    mode: MetricsMode,
    sink: &dyn TraceSink,
) -> Result<BatchedSummary, ServeError> {
    let tables = shards.iter().map(|s| s.batch_service_us.as_slice());
    let core = Core::new(tables, "batch service time", workload, Event::Arrival)?;
    policy.validate().map_err(ServeError::InvalidPolicy)?;
    let deadline_us = match policy {
        BatchPolicy::SizeOrDeadline { deadline_us, .. } => Some(deadline_us),
        BatchPolicy::Immediate => None,
    };
    let mut run = Batcher {
        specs: shards,
        policy,
        core,
        book: LatencyBook::new(mode, workload.requests()),
        idle_since: vec![0.0; shards.len()],
        batches: 0,
        max_batch: 0,
        batch_records: (mode == MetricsMode::Exact).then(Vec::new),
        // All spans go through one emitter-side buffer: staged without a
        // lock and handed to the sink as whole owned chunks, one sink
        // interaction per ~256 spans.
        spans: SpanBuffer::new(sink),
    };
    while let Some((now, event)) = run.core.events.pop() {
        match event {
            Event::Arrival => {
                let id = run.core.arrive();
                let views = run
                    .core
                    .views(now, |i| (true, shards[i].service_for_batch(1)));
                let i = match scheduler.pick(views) {
                    Some(i) if i < shards.len() => i,
                    // An unusable pick: the shallowest queue.
                    _ => (0..shards.len())
                        .min_by_key(|&i| run.core.shards[i].depth())
                        .expect("non-empty fleet"),
                };
                run.core.shards[i].queue.push_back(Request {
                    id,
                    arrival_us: now,
                });
                run.estimate_queue(i);
                if let Some(d) = deadline_us {
                    run.core.events.push(now + d, Event::Deadline { shard: i });
                }
                run.try_dispatch(i, now);
            }
            Event::Completion { shard } => run.complete(shard, now),
            // Guarded: a no-op unless the shard is idle with an over-age
            // queue (try_dispatch re-checks the policy).
            Event::Deadline { shard } => run.try_dispatch(shard, now),
        }
    }
    run.spans.flush();

    let (book, batches) = (&run.book, run.batches);
    debug_assert_eq!(book.done, workload.requests(), "every request completes");
    Ok(BatchedSummary {
        scheduler: scheduler.name().to_string(),
        policy: policy.name().to_string(),
        workload: workload.to_string(),
        requests: book.done,
        makespan_us: run.core.makespan_us,
        throughput_rps: rate_per_s(book.done, run.core.makespan_us),
        latency: book.latency(),
        queue_us_mean: book.queue_us_mean(),
        service_us_mean: book.service_us_mean(),
        batches,
        mean_batch: if batches > 0 {
            book.done as f64 / batches as f64
        } else {
            0.0
        },
        max_batch: run.max_batch,
        shards: run.core.usage(shards.iter().map(|s| &s.name)),
        per_request: run.book.per_request,
        batch_records: run.batch_records.unwrap_or_default(),
    })
}

/// One batched run: the core plus the hold window's policy and books.
struct Batcher<'a> {
    specs: &'a [BatchShardSpec],
    policy: BatchPolicy,
    core: Core<Request, Event>,
    book: LatencyBook,
    /// When each shard last became idle (0 at the start).
    idle_since: Vec<f64>,
    batches: usize,
    max_batch: usize,
    /// Per-batch records ([`MetricsMode::Exact`] only).
    batch_records: Option<Vec<BatchRecord>>,
    spans: SpanBuffer<'a>,
}

impl Batcher<'_> {
    /// A queued request is estimated at its shard's batch-of-1 time.
    fn estimate_queue(&mut self, i: usize) {
        let s = &mut self.core.shards[i];
        s.queued_work_us = s.queue.len() as f64 * self.specs[i].service_for_batch(1);
    }

    /// Fires a batch on shard `i` if it is free and the policy says so —
    /// or it holds its table's largest batch, which waiting cannot grow.
    fn try_dispatch(&mut self, i: usize, now: f64) {
        let s = &self.core.shards[i];
        let oldest = match s.queue.front() {
            Some(r) if !s.busy() => r.arrival_us,
            _ => return,
        };
        let cap = self
            .policy
            .max_batch()
            .min(self.specs[i].max_batch())
            .max(1);
        let queued = s.queue.len();
        let wait = now - oldest + DEADLINE_SLACK_US;
        if queued < cap && !self.policy.should_dispatch(queued, wait) {
            return;
        }
        let b = queued.min(cap);
        let service = self.specs[i].service_for_batch(b);
        if self.spans.enabled() {
            let seq = self.batches as u64;
            self.spans.record(
                Span::new(
                    seq,
                    SpanKind::BatchAssembly,
                    track::SERVE,
                    track::CONTROL,
                    oldest,
                    now,
                )
                .attr(AttrKey::Shard, i as u64)
                .attr(AttrKey::Size, b as u64),
            );
            self.spans.record(
                Span::new(
                    seq,
                    SpanKind::Service,
                    track::SERVE,
                    i as u32 + 1,
                    now,
                    now + service,
                )
                .attr(AttrKey::Size, b as u64),
            );
        }
        self.batches += 1;
        self.max_batch = self.max_batch.max(b);
        if let Some(records) = &mut self.batch_records {
            records.push(BatchRecord {
                shard: i,
                size: b,
                oldest_wait_us: now - oldest,
                idle_wait_us: (now - oldest.max(self.idle_since[i])).max(0.0),
            });
        }
        let done = Event::Completion { shard: i };
        self.core.start_batch(i, b, now, service, done);
        self.estimate_queue(i);
    }

    /// Shard `i`'s batch completes: every member is recorded, closed-loop
    /// clients re-issue, and the shard may fire again.
    fn complete(&mut self, i: usize, now: f64) {
        let s = &self.core.shards[i];
        let size = s.in_service.len();
        for req in &s.in_service {
            self.book.record(RequestMetric {
                id: req.id,
                shard: i,
                arrival_us: req.arrival_us,
                start_us: s.started_us,
                completion_us: now,
            });
            if self.spans.enabled() {
                self.spans.record(
                    Span::new(
                        req.id as u64,
                        SpanKind::Request,
                        track::SERVE,
                        track::CONTROL,
                        req.arrival_us,
                        now,
                    )
                    .attr(AttrKey::Shard, i as u64)
                    .attr(AttrKey::Batch, size as u64),
                );
            }
        }
        self.core.finish(i, now);
        self.idle_since[i] = now;
        self.core.reissue(now, size);
        self.try_dispatch(i, now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::FirstIdle;

    /// A batch-of-b table with a strong W-amortization win: the first
    /// sample costs full price, every further one 30%.
    fn amortized(max_batch: usize, t1: f64) -> Vec<f64> {
        (1..=max_batch)
            .map(|b| t1 * (1.0 + 0.3 * (b as f64 - 1.0)))
            .collect()
    }

    #[test]
    fn light_load_immediate_degenerates_to_batches_of_one() {
        let shards = vec![BatchShardSpec::with_table("m", amortized(8, 10.0))];
        let s = simulate_batched(
            &shards,
            &FirstIdle,
            BatchPolicy::Immediate,
            &Workload::Poisson {
                rate_rps: 5_000.0, // 5% of the shard's serial capacity
                requests: 400,
                seed: 3,
            },
            MetricsMode::Exact,
        )
        .unwrap();
        assert_eq!(s.requests, 400);
        assert!(
            s.mean_batch < 1.05,
            "an unloaded immediate shard serves singles, mean {}",
            s.mean_batch
        );
        // Immediate never holds a batch open while idle.
        assert!(s.batch_records.iter().all(|b| b.idle_wait_us < 1e-9));
    }

    #[test]
    fn backlog_makes_immediate_batches_grow_and_throughput_beat_serial() {
        let shards_batched = vec![BatchShardSpec::with_table("m", amortized(8, 10.0))];
        let shards_serial = vec![BatchShardSpec::serial("m", 10.0, 8)];
        // 3× the serial shard's capacity (100k rps) and above the batched
        // shard's batch-of-8 capacity (~258k rps): both saturate, so the
        // throughput ratio measures capacity, not offered load.
        let w = Workload::Poisson {
            rate_rps: 300_000.0,
            requests: 3000,
            seed: 11,
        };
        let b = simulate_batched(
            &shards_batched,
            &FirstIdle,
            BatchPolicy::Immediate,
            &w,
            MetricsMode::Streaming,
        )
        .unwrap();
        let s = simulate_batched(
            &shards_serial,
            &FirstIdle,
            BatchPolicy::Immediate,
            &w,
            MetricsMode::Streaming,
        )
        .unwrap();
        assert!(
            b.mean_batch > 2.0,
            "overload piles batches up: {}",
            b.mean_batch
        );
        assert!(
            b.throughput_rps > 2.0 * s.throughput_rps,
            "amortization must lift throughput: batched {} vs serial {}",
            b.throughput_rps,
            s.throughput_rps
        );
        assert!(b.latency.p99_us < s.latency.p99_us);
    }

    #[test]
    fn size_or_deadline_releases_partial_batches_at_the_deadline() {
        let shards = vec![BatchShardSpec::with_table("m", amortized(8, 10.0))];
        let s = simulate_batched(
            &shards,
            &FirstIdle,
            BatchPolicy::SizeOrDeadline {
                max: 8,
                deadline_us: 200.0,
            },
            &Workload::Poisson {
                rate_rps: 5_000.0, // a batch of 8 would take ~1.6 ms to fill
                requests: 400,
                seed: 3,
            },
            MetricsMode::Exact,
        )
        .unwrap();
        assert_eq!(s.requests, 400);
        // Light load: most batches release on the deadline, not the size.
        assert!(s.mean_batch < 8.0);
        assert!(s.mean_batch > 1.0, "the hold window does coalesce some");
        for b in &s.batch_records {
            assert!(
                b.idle_wait_us <= 200.0 + 1e-6,
                "no batch is held beyond its deadline while the shard idles: {b:?}"
            );
        }
        // The wait is visible in the latency (vs the immediate policy).
        let imm = simulate_batched(
            &shards,
            &FirstIdle,
            BatchPolicy::Immediate,
            &Workload::Poisson {
                rate_rps: 5_000.0,
                requests: 400,
                seed: 3,
            },
            MetricsMode::Exact,
        )
        .unwrap();
        assert!(s.latency.mean_us > imm.latency.mean_us + 50.0);
    }

    /// A shard whose table caps batches below the policy's `max` fires
    /// as soon as it can fill its own largest batch: holding on for a
    /// `max` it can never execute would only add the deadline's wait.
    #[test]
    fn table_cap_below_policy_max_fires_at_the_table_cap() {
        let shards = vec![BatchShardSpec::with_table(
            "m",
            vec![10.0, 13.0, 16.0, 19.0],
        )];
        let w = Workload::Poisson {
            rate_rps: 100_000.0,
            requests: 400,
            seed: 3,
        };
        let run = |max| {
            let policy = BatchPolicy::SizeOrDeadline {
                max,
                deadline_us: 200.0,
            };
            simulate_batched(&shards, &FirstIdle, policy, &w, MetricsMode::Exact).unwrap()
        };
        assert_eq!(run(8), run(4));
    }

    #[test]
    fn full_batches_fire_without_waiting_for_the_deadline() {
        let shards = vec![BatchShardSpec::with_table("m", amortized(4, 10.0))];
        let s = simulate_batched(
            &shards,
            &FirstIdle,
            BatchPolicy::SizeOrDeadline {
                max: 4,
                deadline_us: 1e6, // effectively never
            },
            &Workload::ClosedLoop {
                concurrency: 8, // always ≥ 4 waiting: every batch fills
                requests: 64,
                think_us: 0.0,
            },
            MetricsMode::Exact,
        )
        .unwrap();
        assert_eq!(s.requests, 64);
        assert_eq!(s.max_batch, 4);
        assert!((s.mean_batch - 4.0).abs() < 1e-9, "every batch full");
        assert_eq!(s.batches, 16);
    }

    #[test]
    fn per_shard_service_is_fifo() {
        let shards = vec![
            BatchShardSpec::with_table("a", amortized(4, 10.0)),
            BatchShardSpec::with_table("b", amortized(4, 14.0)),
        ];
        let s = simulate_batched(
            &shards,
            &crate::LeastQueued,
            BatchPolicy::Immediate,
            &Workload::Poisson {
                rate_rps: 250_000.0,
                requests: 1000,
                seed: 7,
            },
            MetricsMode::Exact,
        )
        .unwrap();
        assert_eq!(s.requests, 1000);
        for shard in 0..shards.len() {
            let starts: Vec<(usize, f64)> = s
                .per_request
                .iter()
                .filter(|r| r.shard == shard)
                .map(|r| (r.id, r.start_us))
                .collect();
            // Requests placed on one shard start service in arrival
            // (= id) order.
            let mut by_start = starts.clone();
            by_start.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
            assert_eq!(starts.len(), by_start.len());
            let ids_by_start: Vec<usize> = by_start.iter().map(|&(id, _)| id).collect();
            let mut sorted_ids = ids_by_start.clone();
            sorted_ids.sort_unstable();
            assert_eq!(ids_by_start, sorted_ids, "shard {shard} is FIFO");
        }
    }

    #[test]
    fn runs_are_deterministic() {
        let shards = vec![BatchShardSpec::with_table("m", amortized(6, 9.0))];
        let w = Workload::Bursty {
            low_rps: 20_000.0,
            high_rps: 300_000.0,
            period_us: 800.0,
            duty: 0.3,
            requests: 900,
            seed: 5,
        };
        let p = BatchPolicy::SizeOrDeadline {
            max: 6,
            deadline_us: 50.0,
        };
        let a = simulate_batched(&shards, &FirstIdle, p, &w, MetricsMode::Streaming).unwrap();
        let b = simulate_batched(&shards, &FirstIdle, p, &w, MetricsMode::Streaming).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn bad_inputs_are_typed_errors() {
        let w = Workload::ClosedLoop {
            concurrency: 1,
            requests: 1,
            think_us: 0.0,
        };
        assert_eq!(
            simulate_batched(
                &[],
                &FirstIdle,
                BatchPolicy::Immediate,
                &w,
                MetricsMode::Streaming
            )
            .unwrap_err(),
            ServeError::NoShards
        );
        let empty = vec![BatchShardSpec::with_table("x", vec![])];
        assert!(matches!(
            simulate_batched(
                &empty,
                &FirstIdle,
                BatchPolicy::Immediate,
                &w,
                MetricsMode::Streaming
            )
            .unwrap_err(),
            ServeError::BadServiceTable { shard: 0, .. }
        ));
        let ok = vec![BatchShardSpec::with_table("x", vec![10.0])];
        assert!(matches!(
            simulate_batched(
                &ok,
                &FirstIdle,
                BatchPolicy::SizeOrDeadline {
                    max: 0,
                    deadline_us: 1.0
                },
                &w,
                MetricsMode::Streaming
            )
            .unwrap_err(),
            ServeError::InvalidPolicy(_)
        ));
    }

    /// Tracing is an observer: the traced summary is bit-identical to
    /// the untraced one, every request id gets a `request` span whose
    /// bounds match its metric, every dispatch gets paired
    /// `batch_assembly`/`service` spans, and the span stream repeats
    /// exactly for the same seed.
    #[test]
    fn traced_run_matches_untraced_and_covers_every_request() {
        use sparsenn_obs::{RingRecorder, SpanKind};
        let shards = vec![BatchShardSpec::with_table("m", amortized(6, 9.0))];
        let w = Workload::Poisson {
            rate_rps: 150_000.0,
            requests: 300,
            seed: 5,
        };
        let p = BatchPolicy::SizeOrDeadline {
            max: 6,
            deadline_us: 50.0,
        };
        let plain = simulate_batched(&shards, &FirstIdle, p, &w, MetricsMode::Exact).unwrap();
        let rec = RingRecorder::new(1 << 14);
        let traced =
            simulate_batched_traced(&shards, &FirstIdle, p, &w, MetricsMode::Exact, &rec).unwrap();
        assert_eq!(plain, traced, "tracing must not perturb the simulation");

        let spans = rec.spans();
        for r in &traced.per_request {
            let span = spans
                .iter()
                .find(|s| s.kind == SpanKind::Request && s.trace_id == r.id as u64)
                .unwrap_or_else(|| panic!("request {} has no span", r.id));
            assert!((span.start_us - r.arrival_us).abs() < 1e-9);
            assert!((span.end_us - r.completion_us).abs() < 1e-9);
        }
        let assemblies = spans
            .iter()
            .filter(|s| s.kind == SpanKind::BatchAssembly)
            .count();
        let services = spans.iter().filter(|s| s.kind == SpanKind::Service).count();
        assert_eq!(assemblies, traced.batches);
        assert_eq!(services, traced.batches);

        let rec2 = RingRecorder::new(1 << 14);
        simulate_batched_traced(&shards, &FirstIdle, p, &w, MetricsMode::Exact, &rec2).unwrap();
        assert_eq!(spans, rec2.spans(), "same seed, same spans");
    }

    #[test]
    fn spec_helpers_clamp_and_report_shape() {
        let s = BatchShardSpec::with_table("m", vec![10.0, 13.0, 16.0]);
        assert_eq!(s.max_batch(), 3);
        assert_eq!(s.service_for_batch(1), 10.0);
        assert_eq!(s.service_for_batch(3), 16.0);
        assert_eq!(s.service_for_batch(9), 16.0, "clamps to the table");
        let serial = BatchShardSpec::serial("s", 10.0, 4);
        assert_eq!(serial.batch_service_us, vec![10.0, 20.0, 30.0, 40.0]);
    }
}
