//! High-level API of the SparseNN reproduction.
//!
//! This crate ties the whole system together: synthetic datasets →
//! predictor training → 16-bit quantization → cycle-level accelerator
//! simulation → power/area estimation. The lower-level crates are
//! re-exported as modules so one dependency gives access to everything.
//!
//! # Quickstart
//!
//! ```
//! use sparsenn_core::{SystemBuilder, TrainingAlgorithm};
//! use sparsenn_core::datasets::DatasetKind;
//! use sparsenn_core::model::fixedpoint::UvMode;
//!
//! // Train a small end-to-end predictor network on synthetic MNIST-BASIC
//! // and run one test image through the simulated accelerator.
//! let system = SystemBuilder::new(DatasetKind::Basic)
//!     .dims(&[784, 64, 10])
//!     .rank(8)
//!     .train_samples(120)
//!     .test_samples(40)
//!     .epochs(2)
//!     .build();
//! let ter = system.evaluate().ter;
//! assert!(ter <= 100.0);
//! let run = system.simulate_sample(0, UvMode::On).unwrap();
//! assert!(run.total_cycles() > 0);
//! ```
//!
//! # The engine
//!
//! Inference is served through the [`engine`] module: every execution
//! substrate — the cycle-accurate machine, the golden fixed-point model,
//! the analytic SIMD platforms of Table IV — implements
//! [`engine::InferenceBackend`], and [`engine::Session`] batches samples
//! over a worker pool. All public inference entry points return
//! `Result<_, `[`SparseNnError`]`>`; nothing panics on bad input.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Fixed-point arithmetic (re-export of `sparsenn-numeric`).
pub use sparsenn_numeric as numeric;

/// Linear algebra and SVD (re-export of `sparsenn-linalg`).
pub use sparsenn_linalg as linalg;

/// Synthetic datasets (re-export of `sparsenn-datasets`).
pub use sparsenn_datasets as datasets;

/// Model and golden fixed-point inference (re-export of `sparsenn-model`).
pub use sparsenn_model as model;

/// Training algorithms (re-export of `sparsenn-train`).
pub use sparsenn_train as train;

/// On-chip network models (re-export of `sparsenn-noc`).
pub use sparsenn_noc as noc;

/// Cycle-level accelerator simulator (re-export of `sparsenn-sim`).
pub use sparsenn_sim as sim;

/// Energy, power and area models (re-export of `sparsenn-energy`).
pub use sparsenn_energy as energy;

/// Model-parallel partitioning: planner, plans and the chip-level
/// interconnect cost model (re-export of `sparsenn-partition`). The
/// execution side is [`engine::PartitionedMachine`].
pub use sparsenn_partition as partition;

/// Native CPU inference kernels — prescan + block-skip, measured
/// wall-clock (re-export of `sparsenn-kernel`). The backend side is
/// [`engine::KernelBackend`].
pub use sparsenn_kernel as kernel;

pub mod engine;
mod error;
mod profile;
mod system;

pub use error::SparseNnError;
pub use profile::Profile;
pub use system::{
    LayerSummary, SimulationSummary, SystemBuilder, TrainedSystem, TrainingAlgorithm,
};
