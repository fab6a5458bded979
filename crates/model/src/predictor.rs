//! The UV output-sparsity predictor and the predictor-gated network.

use crate::mlp::Mlp;
use rand::rngs::StdRng;
use sparsenn_linalg::{init, vector, Matrix};

/// One low-rank sparsity predictor `p = sign(U·V·a)` (Eq. (2)).
///
/// `U` is `m × r`, `V` is `r × n`, where `m`/`n` are the layer's
/// output/input widths and `r ≪ m, n` is the rank. The prediction costs
/// `O(r(m + n))` instead of the layer's `O(mn)` — the paper's "less than
/// 5 % of the original feedforward" overhead claim at `r = 15`, `m = n
/// = 1000`.
#[derive(Clone, Debug, PartialEq)]
pub struct Predictor {
    u: Matrix,
    v: Matrix,
}

impl Predictor {
    /// Wraps existing factors.
    ///
    /// # Panics
    ///
    /// Panics if the inner dimensions disagree (`U.cols != V.rows`).
    pub fn new(u: Matrix, v: Matrix) -> Self {
        assert_eq!(u.cols(), v.rows(), "predictor rank mismatch");
        Self { u, v }
    }

    /// Xavier-initialized predictor of rank `r` for a layer with `outputs`
    /// rows and `inputs` columns (the starting point for end-to-end
    /// training).
    pub fn random(outputs: usize, inputs: usize, r: usize, rng: &mut StdRng) -> Self {
        Self {
            u: init::xavier_uniform(outputs, r, rng),
            v: init::xavier_uniform(r, inputs, rng),
        }
    }

    /// The `m × r` left factor.
    pub fn u(&self) -> &Matrix {
        &self.u
    }

    /// The `r × n` right factor.
    pub fn v(&self) -> &Matrix {
        &self.v
    }

    /// Mutable factors (for SGD updates).
    pub fn factors_mut(&mut self) -> (&mut Matrix, &mut Matrix) {
        (&mut self.u, &mut self.v)
    }

    /// The predictor rank `r`.
    pub fn rank(&self) -> usize {
        self.u.cols()
    }

    /// The intermediate `V·a` (the accelerator's V-phase result).
    pub fn v_scores(&self, a: &[f32]) -> Vec<f32> {
        self.v.matvec(a)
    }

    /// The pre-sign scores `U·V·a` (the accelerator's U-phase result).
    pub fn scores(&self, a: &[f32]) -> Vec<f32> {
        self.u.matvec(&self.v_scores(a))
    }

    /// The activeness prediction: `true` where the row is predicted to
    /// produce a positive (hence nonzero) activation. `sign(0)` counts as
    /// inactive, matching the hardware's "only positive outputs are
    /// scheduled".
    pub fn predict(&self, a: &[f32]) -> Vec<bool> {
        self.scores(a).iter().map(|&s| s > 0.0).collect()
    }
}

/// A network with one predictor per hidden layer.
#[derive(Clone, Debug, PartialEq)]
pub struct PredictedNetwork {
    mlp: Mlp,
    predictors: Vec<Predictor>,
}

/// Result of a predictor-gated forward pass.
#[derive(Clone, Debug, PartialEq)]
pub struct PredictedForward {
    /// `post[0]` is the input; `post[l+1]` the gated output of layer `l`.
    pub post: Vec<Vec<f32>>,
    /// Per-hidden-layer activeness masks (`true` = computed).
    pub masks: Vec<Vec<bool>>,
}

impl PredictedForward {
    /// The classifier logits.
    pub fn logits(&self) -> &[f32] {
        self.post.last().expect("never empty")
    }

    /// Fraction of hidden units predicted *inactive* at hidden layer `l`
    /// (the paper's ρ⁽ˡ⁺¹⁾, in `[0, 1]`).
    ///
    /// # Panics
    ///
    /// Panics if `l` is out of range.
    pub fn predicted_sparsity(&self, l: usize) -> f32 {
        let mask = &self.masks[l];
        if mask.is_empty() {
            return 0.0;
        }
        mask.iter().filter(|&&m| !m).count() as f32 / mask.len() as f32
    }
}

impl PredictedNetwork {
    /// Combines a network and its per-hidden-layer predictors.
    ///
    /// # Panics
    ///
    /// Panics if the number of predictors differs from `mlp.num_hidden()`
    /// or any predictor's shape does not match its layer.
    pub fn new(mlp: Mlp, predictors: Vec<Predictor>) -> Self {
        assert_eq!(
            predictors.len(),
            mlp.num_hidden(),
            "one predictor per hidden layer"
        );
        for (l, p) in predictors.iter().enumerate() {
            assert_eq!(
                p.u().rows(),
                mlp.layers()[l].outputs(),
                "predictor U rows mismatch"
            );
            assert_eq!(
                p.v().cols(),
                mlp.layers()[l].inputs(),
                "predictor V cols mismatch"
            );
        }
        Self { mlp, predictors }
    }

    /// Attaches fresh random rank-`r` predictors to every hidden layer.
    pub fn with_random_predictors(mlp: Mlp, r: usize, rng: &mut StdRng) -> Self {
        let predictors = (0..mlp.num_hidden())
            .map(|l| Predictor::random(mlp.layers()[l].outputs(), mlp.layers()[l].inputs(), r, rng))
            .collect();
        Self::new(mlp, predictors)
    }

    /// The underlying network.
    pub fn mlp(&self) -> &Mlp {
        &self.mlp
    }

    /// Mutable network access.
    pub fn mlp_mut(&mut self) -> &mut Mlp {
        &mut self.mlp
    }

    /// The per-hidden-layer predictors.
    pub fn predictors(&self) -> &[Predictor] {
        &self.predictors
    }

    /// Mutable predictor access.
    pub fn predictors_mut(&mut self) -> &mut [Predictor] {
        &mut self.predictors
    }

    /// Plain forward pass, ignoring the predictors (the NO-UV baseline and
    /// the `uv_off` accelerator mode).
    pub fn forward_plain(&self, x: &[f32]) -> Vec<f32> {
        self.mlp.forward(x).logits().to_vec()
    }

    /// Inference forward pass with output-sparsity bypass: hidden rows
    /// predicted inactive are *not computed* (their activation is zero),
    /// exactly like the accelerator's W phase.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` does not match the input width.
    pub fn forward_predicted(&self, x: &[f32]) -> PredictedForward {
        let mut post = vec![x.to_vec()];
        let mut masks = Vec::with_capacity(self.predictors.len());
        for (l, layer) in self.mlp.layers().iter().enumerate() {
            let a = post.last().expect("never empty");
            if l < self.predictors.len() {
                let mask = self.predictors[l].predict(a);
                let mut out = vec![0.0f32; layer.outputs()];
                for (i, (oi, &active)) in out.iter_mut().zip(&mask).enumerate() {
                    if active {
                        *oi = vector::dot(layer.w().row(i), a).max(0.0);
                    }
                }
                masks.push(mask);
                post.push(out);
            } else {
                post.push(layer.preact(a));
            }
        }
        PredictedForward { post, masks }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparsenn_linalg::init::seeded_rng;

    fn small_net(seed: u64) -> PredictedNetwork {
        let mut rng = seeded_rng(seed);
        let mlp = Mlp::random(&[6, 12, 8, 4], &mut rng);
        PredictedNetwork::with_random_predictors(mlp, 3, &mut rng)
    }

    #[test]
    fn shapes_are_validated() {
        let net = small_net(0);
        assert_eq!(net.predictors().len(), 2);
        assert_eq!(net.predictors()[0].rank(), 3);
        assert_eq!(net.predictors()[0].u().rows(), 12);
        assert_eq!(net.predictors()[1].v().cols(), 12);
    }

    #[test]
    #[should_panic(expected = "one predictor per hidden layer")]
    fn wrong_predictor_count_panics() {
        let mut rng = seeded_rng(1);
        let mlp = Mlp::random(&[4, 6, 2], &mut rng);
        PredictedNetwork::new(mlp, vec![]);
    }

    #[test]
    fn predicted_inactive_rows_are_zero() {
        let net = small_net(3);
        let x: Vec<f32> = (0..6).map(|i| (i as f32 * 0.61).sin().max(0.0)).collect();
        let out = net.forward_predicted(&x);
        for (l, mask) in out.masks.iter().enumerate() {
            for (i, &active) in mask.iter().enumerate() {
                if !active {
                    assert_eq!(
                        out.post[l + 1][i],
                        0.0,
                        "layer {l} row {i} should be bypassed"
                    );
                }
            }
        }
    }

    #[test]
    fn gating_only_removes_or_keeps_values() {
        // Where the mask is active, the gated value equals the plain ReLU value.
        let net = small_net(4);
        let x: Vec<f32> = (0..6).map(|i| (i as f32 * 0.3).cos().abs()).collect();
        let plain = net.mlp().forward(&x);
        let pred = net.forward_predicted(&x);
        for (i, &active) in pred.masks[0].iter().enumerate() {
            if active {
                assert!((pred.post[1][i] - plain.post[1][i]).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn predicted_sparsity_counts_inactive_fraction() {
        let pf = PredictedForward {
            post: vec![vec![], vec![]],
            masks: vec![vec![true, false, false, true]],
        };
        assert_eq!(pf.predicted_sparsity(0), 0.5);
    }

    #[test]
    fn perfect_predictor_makes_predicted_equal_plain() {
        // Use the layer itself as its own (rank = full) predictor: U = W, V = I.
        let mut rng = seeded_rng(6);
        let mlp = Mlp::random(&[5, 7, 3], &mut rng);
        let w = mlp.layers()[0].w().clone();
        let eye = Matrix::from_fn(5, 5, |i, j| if i == j { 1.0 } else { 0.0 });
        let net = PredictedNetwork::new(mlp, vec![Predictor::new(w, eye)]);
        let x: Vec<f32> = (0..5).map(|i| (i as f32).cos()).collect();
        let plain = net.forward_plain(&x);
        let pred = net.forward_predicted(&x);
        for (a, b) in plain.iter().zip(pred.logits()) {
            assert!((a - b).abs() < 1e-5);
        }
    }
}
