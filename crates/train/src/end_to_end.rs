//! Algorithm 1: end-to-end training of the sparsity predictor.
//!
//! The predictor factors `U, V` and the weights `W` are all trained by
//! backpropagation. The non-differentiable `sign` of Eq. (2) is handled by
//! the **straight-through estimator** of Courbariaux et al.: the forward
//! pass uses `sign(x)`, the backward pass pretends the function was the
//! piece-wise linear `hardtanh(x) = max(−1, min(1, x))`, whose derivative
//! is `1` on `|x| < 1` and `0` elsewhere.
//!
//! The per-sample gradients follow the paper exactly:
//!
//! ```text
//! ∂ℓ/∂p⁽ˡ⁺¹⁾ = δ⁽ˡ⁺¹⁾ ∘ a_ori⁽ˡ⁺¹⁾  + λ·sign(p⁽ˡ⁺¹⁾)      (Eq. 4)
//! ∂ℓ/∂a_ori⁽ˡ⁺¹⁾ = δ⁽ˡ⁺¹⁾ ∘ p⁽ˡ⁺¹⁾
//! θ⁽ˡ⁾ = ∂ℓ/∂(U V a) = ∂ℓ/∂p⁽ˡ⁺¹⁾ ∘ 1_{|U V a| < 1}
//! γ⁽ˡ⁾ = ∂ℓ/∂(W a)   = ∂ℓ/∂a_ori⁽ˡ⁺¹⁾ ∘ 1_{W a > 0}
//! δ⁽ˡ⁾ = (W⁽ˡ⁾)ᵀ γ⁽ˡ⁾
//! ∂ℓ/∂U = θ (V a)ᵀ,  ∂ℓ/∂V = (Uᵀθ) aᵀ,  ∂ℓ/∂W = γ aᵀ
//! ```
//!
//! Note that — exactly as written in the paper — the error signal `δ⁽ˡ⁾`
//! flows back only through `W`; the predictor branch contributes gradients
//! to `U, V` but not to earlier layers.
//!
//! # The ℓ1 regularizer, precisely
//!
//! The paper regularizes "the ℓ1 norm of the sparsity predictor `p⁽ˡ⁾`"
//! with gradient `λ·sign(p⁽ˡ⁺¹⁾)` (Eq. (4)). Read literally over
//! `p ∈ {−1, +1}`, `‖p‖₁` is the constant `m` and the symmetric gradient
//! merely shrinks every score toward zero — it cannot raise sparsity above
//! the ~50 % a random predictor already has. Read over the activeness
//! indicator `p ∈ {0, 1}` (the hardware's view: a 1-bit "compute this row"
//! flag), `‖p‖₁` is the **number of active rows** and its STE gradient
//! `λ·1_{p>0}` pushes only *active* scores down — which is the behaviour
//! the paper reports (larger λ ⇒ larger predicted sparsity, slight TER
//! cost). This implementation uses the indicator reading.

use crate::loss::{cross_entropy, cross_entropy_grad};
use crate::trainer::{run_epochs, History, TrainConfig};
use sparsenn_datasets::SplitDataset;
use sparsenn_linalg::init::seeded_rng;
use sparsenn_linalg::{vector, Matrix};
use sparsenn_model::{Mlp, PredictedNetwork};

/// Forward activation used for the predictor output.
///
/// [`Indicator`](PredictorActivation::Indicator) is the default used by
/// [`train`]: `p = 1_{x>0}` gates exactly like the inference hardware
/// (compute-or-zero). The paper's literal `p = sign(x) ∈ {−1, +1}`
/// ([`Sign`](PredictorActivation::Sign)) *negates* the activation of every
/// false-negative prediction during training, which we measured to derail
/// learning on dense inputs and deep stacks; it is kept for fidelity
/// experiments. The continuous
/// [`HardTanh`](PredictorActivation::HardTanh) surrogate makes the
/// straight-through gradients *exact*, which the gradient-check tests
/// exploit. All three share the same backward formulas.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum PredictorActivation {
    /// `p = 1_{x>0}` — activeness gating, train/inference consistent.
    #[default]
    Indicator,
    /// `p = sign(x)` — the paper's Eq. (2), read literally.
    Sign,
    /// `p = max(−1, min(1, x))` — the STE's implicit surrogate.
    HardTanh,
}

fn apply_activation(xs: &[f32], act: PredictorActivation) -> Vec<f32> {
    match act {
        PredictorActivation::Indicator => xs
            .iter()
            .map(|&v| if v > 0.0 { 1.0 } else { 0.0 })
            .collect(),
        PredictorActivation::Sign => vector::sign(xs),
        PredictorActivation::HardTanh => xs.iter().map(|&v| v.clamp(-1.0, 1.0)).collect(),
    }
}

/// Everything the forward pass must remember for backprop.
#[derive(Clone, Debug)]
struct ForwardTape {
    /// `a[l]`: gated input of layer `l` (`a[0]` = network input).
    a: Vec<Vec<f32>>,
    /// `z[l] = W a` for hidden layers.
    z: Vec<Vec<f32>>,
    /// `s[l] = U V a` predictor pre-activation per hidden layer.
    s: Vec<Vec<f32>>,
    /// `p[l]` predictor output per hidden layer.
    p: Vec<Vec<f32>>,
    /// `V a` intermediate per hidden layer (needed for ∂ℓ/∂U).
    va: Vec<Vec<f32>>,
    /// Classifier logits.
    logits: Vec<f32>,
}

fn forward_tape(net: &PredictedNetwork, x: &[f32], act: PredictorActivation) -> ForwardTape {
    let hidden = net.predictors().len();
    let mut tape = ForwardTape {
        a: vec![x.to_vec()],
        z: Vec::with_capacity(hidden),
        s: Vec::with_capacity(hidden),
        p: Vec::with_capacity(hidden),
        va: Vec::with_capacity(hidden),
        logits: Vec::new(),
    };
    for l in 0..hidden {
        let a = tape.a.last().expect("nonempty").clone();
        let layer = &net.mlp().layers()[l];
        let z = layer.preact(&a);
        let va = net.predictors()[l].v_scores(&a);
        let s = net.predictors()[l].u().matvec(&va);
        let p = apply_activation(&s, act);
        let a_next = vector::hadamard(&p, &vector::relu(&z));
        tape.a.push(a_next);
        tape.z.push(z);
        tape.s.push(s);
        tape.p.push(p);
        tape.va.push(va);
    }
    let last = net.mlp().layers().last().expect("at least one layer");
    tape.logits = last.preact(tape.a.last().expect("nonempty"));
    tape
}

/// Total training loss for one sample: cross entropy plus the ℓ1 predictor
/// regularizer `λ·Σ_l ‖p⁽ˡ⁾‖₁` of Eq. (4).
pub fn sample_loss(
    net: &PredictedNetwork,
    x: &[f32],
    label: usize,
    lambda: f32,
    act: PredictorActivation,
) -> f32 {
    let tape = forward_tape(net, x, act);
    cross_entropy(&tape.logits, label) + lambda * active_l1(&tape.p)
}

/// The activeness-ℓ1 regularizer `Σ_l Σ_i max(p⁽ˡ⁾_i, 0)` (see the module
/// docs for why the positive part is the right reading of Eq. (4)).
fn active_l1(p_layers: &[Vec<f32>]) -> f32 {
    p_layers
        .iter()
        .map(|p| p.iter().map(|v| v.max(0.0)).sum::<f32>())
        .sum()
}

/// Per-layer gradients of [`sample_loss`].
#[derive(Clone, Debug)]
pub struct Gradients {
    /// `∂ℓ/∂W` per weight layer.
    pub dw: Vec<Matrix>,
    /// `∂ℓ/∂U` per hidden layer.
    pub du: Vec<Matrix>,
    /// `∂ℓ/∂V` per hidden layer.
    pub dv: Vec<Matrix>,
}

/// The backward terms shared by gradient assembly and the in-place SGD
/// step: for each hidden layer, `(γ, θ, Uᵀθ)`.
struct BackwardTerms {
    gamma: Vec<Vec<f32>>,
    theta: Vec<Vec<f32>>,
    ut_theta: Vec<Vec<f32>>,
    /// γ of the final linear layer (= δ⁽ᴸ⁾).
    delta_out: Vec<f32>,
}

fn backward_terms(
    net: &PredictedNetwork,
    tape: &ForwardTape,
    label: usize,
    lambda: f32,
) -> BackwardTerms {
    let hidden = net.predictors().len();
    let delta_out = cross_entropy_grad(&tape.logits, label);

    // δ at the output of hidden layer `l` (i.e. ∂ℓ/∂a[l+1]).
    let last = net.mlp().layers().last().expect("nonempty");
    let mut delta = last.w().matvec_t(&delta_out);

    let mut gamma = vec![Vec::new(); hidden];
    let mut theta = vec![Vec::new(); hidden];
    let mut ut_theta = vec![Vec::new(); hidden];

    for l in (0..hidden).rev() {
        let a_ori = vector::relu(&tape.z[l]);
        // ∂ℓ/∂p = δ ∘ a_ori + λ·1_{p>0} (activeness reading of Eq. (4)).
        let mut dp = vector::hadamard(&delta, &a_ori);
        let active: Vec<f32> = tape.p[l]
            .iter()
            .map(|&v| if v > 0.0 { 1.0 } else { 0.0 })
            .collect();
        vector::axpy(lambda, &active, &mut dp);
        // ∂ℓ/∂a_ori = δ ∘ p
        let da_ori = vector::hadamard(&delta, &tape.p[l]);
        // θ = dp ∘ 1_{|s|<1}
        let th = vector::hadamard(&dp, &vector::ste_mask(&tape.s[l]));
        // γ = da_ori ∘ 1_{z>0}
        let gm = vector::hadamard(&da_ori, &vector::relu_mask(&tape.z[l]));
        // δ for the next-lower layer flows only through W (paper Alg. 1).
        delta = net.mlp().layers()[l].w().matvec_t(&gm);
        ut_theta[l] = net.predictors()[l].u().matvec_t(&th);
        gamma[l] = gm;
        theta[l] = th;
    }
    BackwardTerms {
        gamma,
        theta,
        ut_theta,
        delta_out,
    }
}

/// Computes the full gradient set for one sample (used by the gradient
/// checks and by anyone wanting batched optimizers).
pub fn compute_gradients(
    net: &PredictedNetwork,
    x: &[f32],
    label: usize,
    lambda: f32,
    act: PredictorActivation,
) -> Gradients {
    let tape = forward_tape(net, x, act);
    let terms = backward_terms(net, &tape, label, lambda);
    let hidden = net.predictors().len();
    let num_layers = net.mlp().num_layers();

    let mut dw = Vec::with_capacity(num_layers);
    let mut du = Vec::with_capacity(hidden);
    let mut dv = Vec::with_capacity(hidden);
    for l in 0..hidden {
        let layer = &net.mlp().layers()[l];
        let mut w_grad = Matrix::zeros(layer.outputs(), layer.inputs());
        w_grad.add_scaled_outer(1.0, &terms.gamma[l], &tape.a[l]);
        dw.push(w_grad);

        let p = &net.predictors()[l];
        let mut u_grad = Matrix::zeros(p.u().rows(), p.u().cols());
        u_grad.add_scaled_outer(1.0, &terms.theta[l], &tape.va[l]);
        du.push(u_grad);

        let mut v_grad = Matrix::zeros(p.v().rows(), p.v().cols());
        v_grad.add_scaled_outer(1.0, &terms.ut_theta[l], &tape.a[l]);
        dv.push(v_grad);
    }
    let last = net.mlp().layers().last().expect("nonempty");
    let mut w_grad = Matrix::zeros(last.outputs(), last.inputs());
    w_grad.add_scaled_outer(1.0, &terms.delta_out, &tape.a[num_layers - 1]);
    dw.push(w_grad);

    Gradients { dw, du, dv }
}

/// One in-place SGD step (forward, backward, update). Returns the sample
/// loss *before* the update.
pub fn sgd_step(
    net: &mut PredictedNetwork,
    x: &[f32],
    label: usize,
    lr: f32,
    lambda: f32,
    act: PredictorActivation,
) -> f32 {
    let tape = forward_tape(net, x, act);
    let terms = backward_terms(net, &tape, label, lambda);
    let loss = cross_entropy(&tape.logits, label) + lambda * active_l1(&tape.p);

    let hidden = net.predictors().len();
    for l in 0..hidden {
        net.mlp_mut().layers_mut()[l]
            .w_mut()
            .add_scaled_outer(-lr, &terms.gamma[l], &tape.a[l]);
        let (u, v) = net.predictors_mut()[l].factors_mut();
        u.add_scaled_outer(-lr, &terms.theta[l], &tape.va[l]);
        v.add_scaled_outer(-lr, &terms.ut_theta[l], &tape.a[l]);
    }
    let num_layers = net.mlp().num_layers();
    let a_last = tape.a[num_layers - 1].clone();
    net.mlp_mut().layers_mut()[num_layers - 1]
        .w_mut()
        .add_scaled_outer(-lr, &terms.delta_out, &a_last);
    loss
}

/// Trains a predictor-equipped network end to end (Algorithm 1).
///
/// `dims` are the layer sizes (`[784, 1000, 10]` for the paper's 3-layer
/// net), `rank` is the predictor rank `r`.
///
/// # Example
///
/// ```
/// use sparsenn_datasets::{DatasetKind, DatasetSpec};
/// use sparsenn_train::{end_to_end, TrainConfig};
/// let split = DatasetSpec { kind: DatasetKind::Basic, train: 20, test: 10, seed: 2 }.generate();
/// let (net, _) = end_to_end::train(&[784, 8, 10], 2, &split, &TrainConfig { epochs: 1, ..Default::default() });
/// assert_eq!(net.predictors()[0].rank(), 2);
/// ```
pub fn train(
    dims: &[usize],
    rank: usize,
    split: &SplitDataset,
    config: &TrainConfig,
) -> (PredictedNetwork, History) {
    let mut rng = seeded_rng(config.seed);
    let mlp = Mlp::random(dims, &mut rng);
    let mut net = PredictedNetwork::with_random_predictors(mlp, rank, &mut rng);
    // Warm-start the predictor from the truncated SVD of the initial
    // weights so that p ≈ sign(W·a) from the first step. A *random*
    // predictor gates — and, through Algorithm 1's `a = p ∘ a_ori`,
    // negates — half the hidden units arbitrarily, which derails training
    // on dense inputs and deep stacks. The factors are free to move from
    // there; only the starting point comes from the SVD.
    crate::svd_baseline::refresh_predictors(&mut net, rank, config.seed);
    let history = run_epochs(&split.train, config, |x, label, lr| {
        sgd_step(
            &mut net,
            x,
            label,
            lr,
            config.lambda,
            PredictorActivation::Indicator,
        )
    });
    (net, history)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparsenn_datasets::{DatasetKind, DatasetSpec};
    use sparsenn_model::stats::{test_error_rate, EvalMode};

    fn tiny_net(seed: u64) -> PredictedNetwork {
        let mut rng = seeded_rng(seed);
        let mlp = Mlp::random(&[5, 7, 6, 3], &mut rng);
        PredictedNetwork::with_random_predictors(mlp, 2, &mut rng)
    }

    /// A net with a *single* hidden layer: with no predictor above it,
    /// Algorithm 1's gradients (which drop the predictor path from δ) are
    /// the exact gradients of the HardTanh-surrogate loss.
    fn one_hidden_net(seed: u64) -> PredictedNetwork {
        let mut rng = seeded_rng(seed);
        let mlp = Mlp::random(&[5, 9, 3], &mut rng);
        PredictedNetwork::with_random_predictors(mlp, 3, &mut rng)
    }

    /// Central-difference gradient check against the HardTanh surrogate,
    /// where the straight-through gradients are exact.
    #[test]
    fn gradients_match_numerical_differentiation() {
        let net = one_hidden_net(11);
        let x: Vec<f32> = (0..5).map(|i| 0.4 + 0.1 * (i as f32 * 1.7).sin()).collect();
        let label = 1usize;
        let lambda = 0.01f32;
        let act = PredictorActivation::HardTanh;
        let grads = compute_gradients(&net, &x, label, lambda, act);
        let eps = 3e-3f32;
        let tol = 2e-2f32;

        // Check a spread of W, U, V entries in every layer.
        for l in 0..net.mlp().num_layers() {
            let (rows, cols) = net.mlp().layers()[l].w().shape();
            for &(i, j) in &[(0usize, 0usize), (rows - 1, cols - 1), (rows / 2, cols / 2)] {
                let mut plus = net.clone();
                let w = plus.mlp_mut().layers_mut()[l].w_mut();
                w.set(i, j, w.get(i, j) + eps);
                let mut minus = net.clone();
                let w = minus.mlp_mut().layers_mut()[l].w_mut();
                w.set(i, j, w.get(i, j) - eps);
                let num = (sample_loss(&plus, &x, label, lambda, act)
                    - sample_loss(&minus, &x, label, lambda, act))
                    / (2.0 * eps);
                let ana = grads.dw[l].get(i, j);
                assert!(
                    (num - ana).abs() < tol * (1.0 + num.abs()),
                    "W[{l}][{i},{j}]: analytic {ana} vs numeric {num}"
                );
            }
        }
        for l in 0..net.predictors().len() {
            for &(i, j) in &[(0usize, 0usize), (2, 1)] {
                // U entry
                let mut plus = net.clone();
                let (u, _) = plus.predictors_mut()[l].factors_mut();
                u.set(i, j, u.get(i, j) + eps);
                let mut minus = net.clone();
                let (u, _) = minus.predictors_mut()[l].factors_mut();
                u.set(i, j, u.get(i, j) - eps);
                let num = (sample_loss(&plus, &x, label, lambda, act)
                    - sample_loss(&minus, &x, label, lambda, act))
                    / (2.0 * eps);
                let ana = grads.du[l].get(i, j);
                assert!(
                    (num - ana).abs() < tol * (1.0 + num.abs()),
                    "U[{l}][{i},{j}]: analytic {ana} vs numeric {num}"
                );
                // V entry
                let mut plus = net.clone();
                let (_, v) = plus.predictors_mut()[l].factors_mut();
                v.set(j, i, v.get(j, i) + eps);
                let mut minus = net.clone();
                let (_, v) = minus.predictors_mut()[l].factors_mut();
                v.set(j, i, v.get(j, i) - eps);
                let num = (sample_loss(&plus, &x, label, lambda, act)
                    - sample_loss(&minus, &x, label, lambda, act))
                    / (2.0 * eps);
                let ana = grads.dv[l].get(j, i);
                assert!(
                    (num - ana).abs() < tol * (1.0 + num.abs()),
                    "V[{l}][{j},{i}]: analytic {ana} vs numeric {num}"
                );
            }
        }
    }

    #[test]
    fn sgd_step_reduces_loss_on_repeated_sample() {
        // Sign mode (the real Algorithm 1): overfitting a single sample
        // must drive its loss down substantially.
        let mut net = one_hidden_net(12);
        let x = vec![0.6f32, 0.1, 0.8, 0.3, 0.5];
        let first = sgd_step(&mut net, &x, 2, 0.05, 0.0, PredictorActivation::Sign);
        let mut last = first;
        for _ in 0..100 {
            last = sgd_step(&mut net, &x, 2, 0.05, 0.0, PredictorActivation::Sign);
        }
        assert!(last < first * 0.5, "loss {first} -> {last} did not drop");
    }

    #[test]
    fn sign_mode_sgd_does_not_increase_loss_over_time() {
        let mut net = tiny_net(13);
        let x = vec![0.6f32, 0.1, 0.8, 0.3, 0.5];
        let first = sgd_step(&mut net, &x, 2, 0.02, 0.0, PredictorActivation::Sign);
        let mut last = first;
        for _ in 0..50 {
            last = sgd_step(&mut net, &x, 2, 0.02, 0.0, PredictorActivation::Sign);
        }
        assert!(last <= first + 1e-3, "loss {first} -> {last} increased");
    }

    #[test]
    fn training_beats_chance_on_tiny_dataset() {
        let split = DatasetSpec {
            kind: DatasetKind::Basic,
            train: 200,
            test: 100,
            seed: 3,
        }
        .generate();
        let cfg = TrainConfig {
            epochs: 6,
            lr: 0.05,
            ..TrainConfig::default()
        };
        let (net, history) = train(&[784, 32, 10], 4, &split, &cfg);
        let ter = test_error_rate(&net, &split.test, EvalMode::Predicted);
        assert!(ter < 55.0, "TER {ter}% is no better than chance (90%)");
        assert!(history.epochs[0].train_loss > history.final_loss());
    }

    #[test]
    fn larger_lambda_increases_predicted_sparsity() {
        let split = DatasetSpec {
            kind: DatasetKind::Basic,
            train: 150,
            test: 50,
            seed: 4,
        }
        .generate();
        let low = TrainConfig {
            epochs: 6,
            lambda: 0.0,
            ..TrainConfig::default()
        };
        let high = TrainConfig {
            epochs: 6,
            lambda: 2e-2,
            ..TrainConfig::default()
        };
        let (net_low, _) = train(&[784, 24, 10], 4, &split, &low);
        let (net_high, _) = train(&[784, 24, 10], 4, &split, &high);
        let s_low = sparsenn_model::stats::predicted_sparsity(&net_low, &split.test)[0];
        let s_high = sparsenn_model::stats::predicted_sparsity(&net_high, &split.test)[0];
        assert!(
            s_high > s_low,
            "λ=2e-2 sparsity {s_high}% should exceed λ=0 sparsity {s_low}%"
        );
    }
}
