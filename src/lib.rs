//! **sparsenn** — a from-scratch Rust reproduction of *SparseNN: An
//! Energy-Efficient Neural Network Accelerator Exploiting Input and Output
//! Sparsity* (Zhu, Jiang, Chen, Tsui — DATE 2018, arXiv:1711.01263).
//!
//! This facade re-exports the whole workspace through
//! [`sparsenn_core`]: synthetic datasets, the end-to-end predictor
//! training of Algorithm 1 and its baselines, the 16-bit fixed-point golden
//! model, the cycle-level 64-PE accelerator simulator with its H-tree NoC,
//! and the energy/power/area models. See `README.md` for a tour and
//! `examples/` for runnable entry points.
//!
//! ```
//! use sparsenn::datasets::DatasetKind;
//! use sparsenn::{SystemBuilder, TrainingAlgorithm};
//!
//! let sys = SystemBuilder::new(DatasetKind::Basic)
//!     .dims(&[784, 32, 10])
//!     .rank(4)
//!     .algorithm(TrainingAlgorithm::EndToEnd)
//!     .train_samples(60)
//!     .test_samples(20)
//!     .epochs(1)
//!     .build();
//! assert!(sys.evaluate().ter <= 100.0);
//! ```

pub use sparsenn_core::*;

/// Virtual-time serving simulator (re-export of `sparsenn-serve`):
/// workload generators, queueing metrics, and the serving policies
/// ([`serve::Scheduler`], [`serve::AdmissionGate`], [`serve::BatchPolicy`]).
pub use sparsenn_serve as serve;

/// Production front end (re-export of `sparsenn-frontend`), simulated in
/// virtual time: admission control and load shedding through
/// [`serve::AdmissionGate`], plus fault injection, hedged requests,
/// autoscaling, and the SLO policy sweep.
pub use sparsenn_frontend as frontend;

/// Observability plane (re-export of `sparsenn-obs`): trace sinks and
/// typed spans on the virtual clock, Chrome trace-event (Perfetto)
/// export, critical-path analysis ([`obs::analyze`]) and tail exemplars
/// ([`obs::offline_top_k`]) read back from a recording, the unified
/// [`obs::LatencyStat`] accumulator, and the [`obs::min_wall_us`]
/// wall-clock timer.
pub use sparsenn_obs as obs;

/// Native CPU kernels (re-export of `sparsenn-kernel`): the two-stage
/// prescan + block-skip inference kernel behind
/// [`engine::KernelBackend`] — bit-exact vs the golden model, engineered
/// for measured wall-clock speed rather than modelled cycles.
pub use sparsenn_kernel as kernel;

/// Compiles the README's Rust blocks as doctests, so README code that
/// names a deleted item fails `cargo test`.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
struct ReadmeDoctests;
