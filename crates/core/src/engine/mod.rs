//! The inference engine: one trait, three execution substrates, one
//! parallel serving front end.
//!
//! The paper's evaluation is a single workload pushed through
//! interchangeable execution substrates — the SparseNN accelerator, the
//! UV-disabled EIE baseline, and the SIMD platforms of Table IV. This
//! module gives the reproduction the same shape:
//!
//! * [`InferenceBackend`] — the substrate abstraction. Implemented by
//!   [`CycleAccurateBackend`] (the 64-PE cycle-level machine),
//!   [`GoldenBackend`] (the timing-free fixed-point golden model),
//!   [`SimdBackend`] (the analytic SIMD platform models of Table IV) and
//!   [`KernelBackend`] (the native prescan + block-skip CPU kernel of
//!   `sparsenn-kernel` — the one substrate whose speed is *measured*, not
//!   modelled). Every backend returns the same [`RunRecord`] — outputs,
//!   per-layer cycles and activity events — so an experiment swaps
//!   substrates by changing one constructor call.
//! * [`Session`] — a serving front end built from a
//!   [`TrainedSystem`](crate::TrainedSystem): owns a backend, borrows the
//!   quantized network and test set, and runs batched inference on a
//!   `std::thread::scope` worker pool sized by
//!   `std::thread::available_parallelism`. Batch results fold into the
//!   same [`SimulationSummary`](crate::SimulationSummary) the serial path
//!   produces — bit for bit.
//! * [`PartitionedMachine`] — model parallelism: one network tiled row-wise
//!   across several chips under a `sparsenn_partition::PartitionPlan`,
//!   with input broadcast / output gather costed by a chip-level
//!   interconnect. Serves networks bigger than one chip's W memory;
//!   bit-identical to a single chip whenever the network fits one.
//! * [`Fleet`] — sharded serving: N independent accelerator instances
//!   (each an [`InferenceBackend`]) behind one backend. Dispatch is a
//!   pluggable [`Scheduler`] ([`FirstIdle`] by default; [`LeastQueued`]
//!   and [`FastestCompletion`] ship too) — the same trait the
//!   `sparsenn-serve` virtual-time simulator drives, so a policy tuned
//!   against simulated latency-vs-load curves drops into real serving
//!   unchanged. Plugged into a [`Session`], the session's worker pool
//!   becomes the shared request queue; a fleet of identical shards keeps
//!   batch summaries bit-identical to a single machine's. An
//!   [`AdmissionGate`] ([`Fleet::with_admission`]) bounds that queue:
//!   under overload it sheds or degrades low-[`Priority`] traffic
//!   (typed [`Overloaded`](crate::SparseNnError::Overloaded) errors)
//!   instead of queueing forever — the same gate trait the
//!   `sparsenn-frontend` production-front-end simulator sweeps.
//! * **Cross-request batching** — every backend serves batches through
//!   [`InferenceBackend::run_batch`] (a serial loop by default; the
//!   cycle-accurate machine overrides it with a true batched core that
//!   reads each W row once per batch). Results come back as a
//!   [`BatchRunRecord`]: per-sample records bit-identical to serial
//!   [`run`](InferenceBackend::run) calls, plus the batch-amortized
//!   clock/energy book. A [`BatchPolicy`]
//!   ([`Fleet::with_batch_policy`]) decides how the fleet chunks
//!   batches across shards; the same policy drives the
//!   `sparsenn-serve` queue-aware batching simulator.
//!
//! Every backend also stamps its records with a modelled wall-clock
//! latency ([`RunRecord::time_us`]) from its own clock model — the
//! machine's 2 ns cycle, a SIMD platform's published frequency, or zero
//! for the timing-free golden model — so Table IV can compare latency, not
//! just cycles, across substrates.
//!
//! All entry points return `Result<_, `[`SparseNnError`]`>`; no input can
//! panic the engine.
//!
//! # Example
//!
//! ```
//! use sparsenn_core::engine::{GoldenBackend, InferenceBackend};
//! use sparsenn_core::datasets::DatasetKind;
//! use sparsenn_core::model::fixedpoint::UvMode;
//! use sparsenn_core::{SystemBuilder, TrainingAlgorithm};
//!
//! let system = SystemBuilder::new(DatasetKind::Basic)
//!     .dims(&[784, 24, 10])
//!     .rank(4)
//!     .train_samples(60)
//!     .test_samples(20)
//!     .epochs(1)
//!     .build();
//!
//! // Serve through the golden model instead of the cycle simulator —
//! // same Session API, same RunRecord shape.
//! let session = system.session_with(Box::new(GoldenBackend::new()));
//! let record = session.run_sample(0, UvMode::On).unwrap();
//! assert_eq!(record.layers.len(), 2);
//! assert!(session.run_sample(1_000_000, UvMode::On).is_err());
//! ```
//!
//! [`SparseNnError`]: crate::SparseNnError

mod admission;
mod backends;
mod batch;
mod fleet;
mod kernel;
mod partitioned;
mod record;
mod scheduler;
mod session;

pub use admission::{AdmissionDecision, AdmissionGate, AdmitAll, BoundedQueues, Priority};
pub use backends::{CycleAccurateBackend, GoldenBackend, InferenceBackend, SimdBackend};
pub use batch::BatchPolicy;
pub use fleet::{AdmissionStats, Fleet, ShardStats};
pub use kernel::KernelBackend;
pub use partitioned::PartitionedMachine;
pub use record::{BatchRunRecord, LayerRecord, RunRecord};
pub use scheduler::{FastestCompletion, FirstIdle, LeastQueued, Scheduler, ShardView};
pub use session::{default_worker_count, Session};
