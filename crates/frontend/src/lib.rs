//! Production front end for SparseNN serving: admission control, load
//! shedding, fault-tolerant dispatch, and autoscaling — simulated on the
//! `sparsenn-serve` virtual timeline.
//!
//! A fleet that merely schedules well still falls over in production:
//! overload turns unbounded queues into missed deadlines for *everyone*,
//! one straggling or fail-stopped shard poisons the tail, and a fleet
//! sized for the peak wastes its quiet hours. This crate adds the three
//! control loops that a serving system needs on top of dispatch, all
//! policy-pluggable and all exercised against seeded adversity:
//!
//! * **Admission** — the [`AdmissionGate`] trait from `sparsenn_serve`:
//!   classify each request ([`Priority`]), then admit, degrade, or shed
//!   it *before* it queues into a missed deadline.
//! * **Tail tolerance** — a [`FaultPlan`] injects seeded fail-stops and
//!   straggler windows; a [`HedgeConfig`] fights back with hedged
//!   duplicate attempts (first finisher wins, loser cancelled) and
//!   fail-stop retries.
//! * **Autoscaling** — an [`AutoscaleConfig`] watches epoch utilization
//!   and grows/shrinks the active fleet, paying a warm-up cost before a
//!   new shard takes traffic.
//!
//! [`simulate_frontend`] runs one configuration; [`sweep_combos`] scores
//! the scheduler × admission × hedging × autoscaling × degrade-batching
//! cross product by goodput, shed rate, SLO attainment and p99
//! ([`FrontendSummary`]). A [`DegradeBatching`] config routes the degrade
//! tier onto the batch-native substrate: degraded requests buffer
//! centrally and flush as amortized batches (fill-or-deadline), trading
//! held latency for per-sample cost.
//! Latency accounting is constant-space
//! ([`StreamingLatency`](sparsenn_serve::StreamingLatency) per class).
//!
//! # Example
//!
//! ```
//! use sparsenn_frontend::{
//!     simulate_frontend, BoundedQueues, FaultPlan, FrontendConfig, HedgeConfig, Priority,
//!     SloPolicy,
//! };
//! use sparsenn_serve::{LeastQueued, ShardSpec, Workload};
//!
//! let fleet = vec![
//!     ShardSpec::uniform("m0", 10.0),
//!     ShardSpec::uniform("m1", 10.0),
//! ];
//! // 1.5× overload, 30 % low-priority, one injected shard failure.
//! let cfg = FrontendConfig::new(
//!     Workload::Poisson { rate_rps: 300_000.0, requests: 3_000, seed: 1 },
//!     SloPolicy { high_us: 150.0, low_us: 600.0 },
//! )
//! .low_fraction(0.3)
//! .faults(FaultPlan::random(2, 10_000.0, 1, 0, 7))
//! .hedge(HedgeConfig::hedged(80.0));
//!
//! let gate = BoundedQueues::new(24, 6).degrade_low_beyond(2);
//! let s = simulate_frontend(&fleet, &LeastQueued, &gate, &cfg).unwrap();
//! // Low-priority traffic absorbs the overload.
//! assert!(s.class(Priority::Low).shed_rate() > s.class(Priority::High).shed_rate());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod autoscale;
mod faults;
mod hedge;
mod metrics;
mod sim;
mod slo;

pub use autoscale::{AutoscaleConfig, ScaleDecision};
pub use faults::{Fault, FaultPlan};
pub use hedge::HedgeConfig;
pub use metrics::{ClassBurnAlert, ClassStats, FrontendSummary};
pub use sim::{
    simulate_frontend, simulate_frontend_traced, DegradeBatching, FrontendConfig, FrontendError,
};
pub use slo::{best_goodput, sweep_combos, ComboResult, SloPolicy};

// The shared policy vocabulary, re-exported so front-end code reads from
// one place.
pub use sparsenn_obs::{AlertKind, BurnAlert, BurnConfig};
pub use sparsenn_serve::{
    AdmissionDecision, AdmissionGate, AdmitAll, BoundedQueues, Priority, ShardSpec, Workload,
};
