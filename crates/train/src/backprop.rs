//! The one backward pass and SGD update, shared by all three algorithms.
//!
//! Every step records a [`Tape`] and runs Algorithm 1's backward pass over
//! it (formulas in [`end_to_end`](crate::end_to_end)). The algorithms
//! differ only in what they hand the step: End-to-End gates with trained
//! predictors and updates `W`, `U` and `V`; SVD gates with frozen
//! predictors and updates `W`; NO UV has no predictor, so its hidden layers
//! are ungated and the pass is plain backprop.

use crate::loss::{cross_entropy, cross_entropy_grad};
use sparsenn_linalg::vector;
use sparsenn_model::{Mlp, Predictor, PredictorActivation, Tape};

/// What a step does with the predictors: each algorithm's choice.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Uv {
    /// Gate with `p = 1_{UVa>0}` and leave `U, V` as they are (SVD; NO UV
    /// has no predictor to gate with).
    Frozen,
    /// Gate with `act` and train `U, V` (Algorithm 1), with Eq. (4)'s ℓ1
    /// factor `lambda`.
    Trained {
        lambda: f32,
        act: PredictorActivation,
    },
}

impl Uv {
    fn act(self) -> PredictorActivation {
        match self {
            Uv::Frozen => PredictorActivation::Indicator,
            Uv::Trained { act, .. } => act,
        }
    }
}

/// One sample's backward terms.
pub(crate) struct Backward {
    /// `gamma[l] = ∂ℓ/∂(W⁽ˡ⁾a⁽ˡ⁾)` for every layer; the classifier's is
    /// δ⁽ᴸ⁾.
    pub(crate) gamma: Vec<Vec<f32>>,
    /// θ⁽ˡ⁾ per predicted hidden layer (empty unless `U, V` train).
    pub(crate) theta: Vec<Vec<f32>>,
    /// `Uᵀθ⁽ˡ⁾` per predicted hidden layer (empty unless `U, V` train).
    pub(crate) ut_theta: Vec<Vec<f32>>,
}

/// The sample loss: cross entropy, plus `λ·Σ_l ‖p⁽ˡ⁾‖₁` (Eq. (4)) when
/// the predictors train.
pub(crate) fn loss(tape: &Tape, label: usize, uv: Uv) -> f32 {
    let ce = cross_entropy(&tape.logits, label);
    match uv {
        Uv::Frozen => ce,
        Uv::Trained { lambda, .. } => ce + lambda * active_l1(&tape.p),
    }
}

/// The activeness-ℓ1 regularizer `Σ_l Σ_i max(p⁽ˡ⁾_i, 0)` (see the
/// `end_to_end` module docs for why the positive part is the right
/// reading of Eq. (4)).
fn active_l1(p_layers: &[Vec<f32>]) -> f32 {
    p_layers
        .iter()
        .map(|p| p.iter().map(|v| v.max(0.0)).sum::<f32>())
        .sum()
}

/// Algorithm 1's backward pass over `tape`, recorded on `mlp` gated by
/// `predictors`.
pub(crate) fn backward(
    mlp: &Mlp,
    predictors: &[Predictor],
    tape: &Tape,
    label: usize,
    uv: Uv,
) -> Backward {
    let layers = mlp.layers();
    let hidden = mlp.num_hidden();
    let trained = match uv {
        Uv::Frozen => 0,
        Uv::Trained { .. } => predictors.len(),
    };
    let mut gamma = vec![Vec::new(); layers.len()];
    let mut theta = vec![Vec::new(); trained];
    let mut ut_theta = vec![Vec::new(); trained];
    gamma[hidden] = cross_entropy_grad(&tape.logits, label);
    for l in (0..hidden).rev() {
        // δ at the output of hidden layer `l` (i.e. ∂ℓ/∂a[l+1]) flows only
        // through W (paper Alg. 1); nothing consumes the δ below layer 0.
        let delta = layers[l + 1].w().matvec_t(&gamma[l + 1]);
        // ∂ℓ/∂a_ori = δ ∘ p, or δ where no predictor gates the layer.
        let da_ori = match predictors.get(l) {
            None => delta,
            Some(predictor) => {
                if let Uv::Trained { lambda, .. } = uv {
                    let a_ori = vector::relu(&tape.z[l]);
                    // ∂ℓ/∂p = δ ∘ a_ori + λ·1_{p>0} (activeness reading of Eq. (4)).
                    let mut dp = vector::hadamard(&delta, &a_ori);
                    let active: Vec<f32> = tape.p[l]
                        .iter()
                        .map(|&v| if v > 0.0 { 1.0 } else { 0.0 })
                        .collect();
                    vector::axpy(lambda, &active, &mut dp);
                    // θ = dp ∘ 1_{|s|<1}
                    let th = vector::hadamard(&dp, &vector::ste_mask(&tape.s[l]));
                    ut_theta[l] = predictor.u().matvec_t(&th);
                    theta[l] = th;
                }
                vector::hadamard(&delta, &tape.p[l])
            }
        };
        // γ = ∂ℓ/∂a_ori ∘ 1_{z>0}
        gamma[l] = vector::hadamard(&da_ori, &vector::relu_mask(&tape.z[l]));
    }
    Backward {
        gamma,
        theta,
        ut_theta,
    }
}

/// One in-place SGD step on one sample: forward tape, backward pass,
/// update of `W` (and of `U, V` under [`Uv::Trained`]). Returns the sample
/// loss before the update.
pub(crate) fn sgd_step(
    mlp: &mut Mlp,
    predictors: &mut [Predictor],
    uv: Uv,
    x: &[f32],
    label: usize,
    lr: f32,
) -> f32 {
    let tape = Tape::record(mlp, predictors, x, uv.act());
    let b = backward(mlp, predictors, &tape, label, uv);
    for (l, layer) in mlp.layers_mut().iter_mut().enumerate() {
        layer.w_mut().add_scaled_outer(-lr, &b.gamma[l], &tape.a[l]);
    }
    for (l, (theta, ut_theta)) in b.theta.iter().zip(&b.ut_theta).enumerate() {
        let (u, v) = predictors[l].factors_mut();
        u.add_scaled_outer(-lr, theta, &tape.va[l]);
        v.add_scaled_outer(-lr, ut_theta, &tape.a[l]);
    }
    loss(&tape, label, uv)
}
