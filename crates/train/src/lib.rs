//! Training algorithms for the SparseNN sparsity predictor.
//!
//! Implements the three training regimes compared in the paper's Fig. 6 and
//! Table I:
//!
//! * [`end_to_end`] — the paper's contribution (Algorithm 1): the predictor
//!   factors `U, V` are trained jointly with the weights `W` by
//!   backpropagation, using a **straight-through estimator** through the
//!   `sign` nonlinearity and an **ℓ1 regularizer** on the predictor output
//!   (Eq. (4)) to push the predicted sparsity up.
//! * [`svd_baseline`] — the truncated-SVD predictor of Davis et al. \[11\] /
//!   LRADNN \[12\]: `W` is trained by backprop, while `U, V` are refreshed
//!   *once per epoch* from a truncated SVD of `W` ("the static updating
//!   rule limits the flexibility of the backpropagation").
//! * [`no_uv`] — plain backprop without any predictor (the NO UV rows).
//!
//! All three train through one step: the float forward pass
//! [`sparsenn_model::Tape`], which evaluation runs too, then Algorithm 1's
//! backward pass and the SGD update. What the step is handed is the
//! algorithm's choice: End-to-End gates with its predictors and updates
//! `W`, `U` and `V`; SVD gates with frozen predictors and updates `W`; NO UV
//! has no predictor, so its layers are ungated. They share the per-sample
//! SGD driver in [`trainer`] and the softmax cross-entropy loss in
//! [`loss`].
//!
//! # Example
//!
//! ```
//! use sparsenn_datasets::{DatasetKind, DatasetSpec};
//! use sparsenn_train::{trainer::TrainConfig, end_to_end};
//!
//! let split = DatasetSpec { kind: DatasetKind::Basic, train: 40, test: 20, seed: 1 }.generate();
//! let cfg = TrainConfig { epochs: 1, ..TrainConfig::default() };
//! let (net, history) = end_to_end::train(&[784, 16, 10], 4, &split, &cfg);
//! assert_eq!(net.predictors().len(), 1);
//! assert_eq!(history.epochs.len(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod backprop;
pub mod end_to_end;
pub mod loss;
pub mod no_uv;
pub mod svd_baseline;
pub mod trainer;

pub use trainer::{EpochStats, History, TrainConfig};
