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
//!   produces — bit for bit. Backends run through `&self`, so one
//!   cycle-accurate backend serves n workers as n identical machines,
//!   with no lock between them.
//! * [`PartitionedMachine`] — model parallelism: one network tiled row-wise
//!   across several chips under a `sparsenn_partition::PartitionPlan`,
//!   with input broadcast / output gather costed by a chip-level
//!   interconnect. Serves networks bigger than one chip's W memory;
//!   bit-identical to a single chip whenever the network fits one.
//! * **Cross-request batching** — every backend serves batches through
//!   [`InferenceBackend::run_batch`] (a serial loop by default; the
//!   cycle-accurate machine overrides it with a true batched core that
//!   reads each W row once per batch). Results come back as a
//!   [`BatchRunRecord`]: per-sample records bit-identical to serial
//!   [`run`](InferenceBackend::run) calls, plus the batch-amortized
//!   clock/energy book.
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

mod backends;
mod kernel;
mod partitioned;
mod record;
mod session;

pub use backends::{CycleAccurateBackend, GoldenBackend, InferenceBackend, SimdBackend};
pub use kernel::KernelBackend;
pub use partitioned::PartitionedMachine;
pub use record::{BatchRunRecord, LayerRecord, RunRecord};
pub use session::{default_worker_count, Session};

// The serving policies live in `sparsenn-serve`. The repository benchmark
// (`hostbench/src/serve.rs`) still imports these five from here, and it
// changes only together with the benchmark, so they stay re-exported.
#[doc(hidden)]
pub use sparsenn_serve::{BatchPolicy, BoundedQueues, FastestCompletion, LeastQueued, Priority};
