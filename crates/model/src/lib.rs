//! The DNN model of the SparseNN paper: an MLP with a per-hidden-layer
//! **UV output-sparsity predictor**, in both `f32` (training) and bit-exact
//! 16-bit fixed-point (accelerator golden model) forms.
//!
//! The paper's Eq. (1)–(3):
//!
//! ```text
//! a⁽ˡ⁺¹⁾ = f(W⁽ˡ⁾ a⁽ˡ⁾)                      feedforward (ReLU hidden layers)
//! p⁽ˡ⁺¹⁾ = sign(U⁽ˡ⁾ V⁽ˡ⁾ a⁽ˡ⁾)               lightweight sparsity predictor
//! a⁽ˡ⁺¹⁾ = p⁽ˡ⁺¹⁾ ∘ f(W⁽ˡ⁾ a⁽ˡ⁾)              predicted-gated activation
//! ```
//!
//! At inference only the rows predicted positive are computed; the rest are
//! bypassed (their activation is zero). The final classifier layer is
//! linear (softmax applied by the loss) and carries no predictor — the
//! paper reports predicted sparsity ρ only for hidden layers.
//!
//! # Crate layout
//!
//! * [`Mlp`], [`DenseLayer`] — the float network.
//! * [`Predictor`] — one `U·V` factor pair.
//! * [`PredictedNetwork`] — network + predictors.
//! * [`Tape`] — the float forward pass, gated or not, recording what
//!   backprop needs: the one pass training and evaluation share.
//! * [`fixedpoint`] — the quantized golden model the cycle-level simulator
//!   is verified against, bit for bit.
//! * [`stats`] — TER and sparsity measurement.
//!
//! # Example
//!
//! ```
//! use sparsenn_model::{Mlp, PredictedNetwork, PredictorActivation, Tape};
//! use sparsenn_linalg::init::seeded_rng;
//!
//! let mut rng = seeded_rng(1);
//! let mlp = Mlp::random(&[8, 16, 4], &mut rng);
//! let net = PredictedNetwork::with_random_predictors(mlp, 4, &mut rng);
//! let x = vec![0.5f32; 8];
//! let tape = Tape::record(net.mlp(), net.predictors(), &x, PredictorActivation::Indicator);
//! assert_eq!(tape.logits.len(), 4);
//! assert!((0.0..=1.0).contains(&tape.predicted_sparsity(0)));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fixedpoint;
mod mlp;
mod predictor;
pub mod stats;

pub use mlp::{DenseLayer, Mlp};
pub use predictor::{PredictedNetwork, Predictor, PredictorActivation, Tape};
