//! Virtual-time serving simulator for SparseNN fleets.
//!
//! This crate answers the questions a load test cannot: what do latency
//! percentiles, queueing delay and shard utilization look like at offered
//! loads, burst patterns and fleet mixes you choose — on a single global
//! virtual timeline, in milliseconds of host time, deterministically.
//!
//! * [`Core`] — the one discrete-event core under every simulator here
//!   and in `sparsenn-frontend`: the [`EventQueue`] timeline (FIFO among
//!   equal virtual times, so every run replays exactly), per-shard
//!   serving state, arrivals, validation and scheduler views;
//! * [`Workload`] — open-loop Poisson, bursty on/off, and closed-loop
//!   fixed-concurrency arrival generators (seeded, deterministic);
//! * [`Scheduler`] — the dispatch policy over per-shard [`ShardView`]s,
//!   with its policies [`FirstIdle`], [`LeastQueued`] and
//!   [`FastestCompletion`], shared with the `sparsenn-frontend`
//!   simulator;
//! * [`AdmissionGate`] — admit, degrade or shed each [`Priority`] class
//!   under overload ([`AdmitAll`], [`BoundedQueues`]); the policy trait
//!   the `sparsenn-frontend` simulator sweeps;
//! * [`simulate`] — drives a [`ShardSpec`] fleet (each shard's modelled
//!   per-request `time_us` table) on the core, one request at a time,
//!   and folds a [`ServeSummary`]: latency p50/p95/p99, time-in-queue vs
//!   time-in-service, queue-depth trajectory, per-shard utilization.
//!   Runs in constant memory by default ([`MetricsMode::Streaming`] —
//!   exact means, P² percentile estimates); [`simulate_with`] selects
//!   [`MetricsMode::Exact`] when a test needs every [`RequestMetric`]
//!   materialized.
//!
//! * [`simulate_batched`] — the queue-aware **cross-request batching**
//!   model on the same core: shards serve whole batches
//!   ([`BatchShardSpec`] carries the per-batch-size service table, fed
//!   from the real batched machine) under a [`BatchPolicy`], exposing the
//!   throughput/latency knee batching buys.
//!
//! The `sparsenn-frontend` crate's production front end drives a
//! [`Core`] too, with the extended [`FleetEvent`] vocabulary (failures,
//! hedges, autoscaler epochs), and folds per-class [`StreamingLatency`]
//! accumulators.
//!
//! # Example
//!
//! ```
//! use sparsenn_serve::{
//!     simulate, FastestCompletion, FirstIdle, ShardSpec, Workload,
//! };
//!
//! // A fast cycle-accurate machine next to a slow SIMD platform.
//! let shards = vec![
//!     ShardSpec::uniform("machine", 10.0),   // 10 µs / request
//!     ShardSpec::uniform("simd", 80.0),      // 80 µs / request
//! ];
//! let workload = Workload::Poisson {
//!     rate_rps: 70_000.0,
//!     requests: 2_000,
//!     seed: 1,
//! };
//! let naive = simulate(&shards, &FirstIdle, &workload).unwrap();
//! let aware = simulate(&shards, &FastestCompletion, &workload).unwrap();
//! // Latency-aware dispatch keeps the tail off the slow shard.
//! assert!(aware.latency.p95_us < naive.latency.p95_us);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod admission;
mod batch;
mod batch_policy;
mod core;
mod events;
mod metrics;
mod scheduler;
mod sim;
mod workload;

pub use crate::core::{rate_per_s, Core, MetricsMode, ServeError, Shard, DEADLINE_SLACK_US};
pub use admission::{AdmissionDecision, AdmissionGate, AdmitAll, BoundedQueues, Priority};
pub use batch::{
    simulate_batched, simulate_batched_traced, BatchRecord, BatchShardSpec, BatchedSummary,
};
pub use batch_policy::BatchPolicy;
pub use events::{EventQueue, FleetEvent};
pub use metrics::{
    LatencyStats, QueueStats, RequestMetric, ServeSummary, ShardUsage, StreamingLatency,
};
pub use scheduler::{FastestCompletion, FirstIdle, LeastQueued, Scheduler, ShardView};
pub use sim::{fleet_capacity_rps, simulate, simulate_with, ShardSpec};
pub use workload::{OpenArrivals, Workload};
