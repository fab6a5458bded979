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
}

/// A network with one predictor per hidden layer.
#[derive(Clone, Debug, PartialEq)]
pub struct PredictedNetwork {
    mlp: Mlp,
    predictors: Vec<Predictor>,
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

    /// The network and its predictors, both mutable (an SGD step updates
    /// `W`, `U` and `V` together).
    pub fn parts_mut(&mut self) -> (&mut Mlp, &mut [Predictor]) {
        (&mut self.mlp, &mut self.predictors)
    }
}

/// The gate `p` the forward pass derives from the predictor scores
/// `s = U·V·a`.
///
/// [`Indicator`](PredictorActivation::Indicator), `p = 1_{s>0}`, gates
/// exactly like the inference hardware (compute-or-zero); training and
/// evaluation use it. The paper's literal `p = sign(s) ∈ {−1, +1}`
/// ([`Sign`](PredictorActivation::Sign)) *negates* the activation of every
/// false-negative prediction during training, which we measured to derail
/// learning on dense inputs and deep stacks; it is kept for fidelity
/// experiments. The continuous
/// [`HardTanh`](PredictorActivation::HardTanh) surrogate makes the
/// straight-through gradients of `sparsenn-train` *exact*, which its
/// gradient checks exploit.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum PredictorActivation {
    /// `p = 1_{s>0}` — activeness gating, train/inference consistent.
    #[default]
    Indicator,
    /// `p = sign(s)` — the paper's Eq. (2), read literally.
    Sign,
    /// `p = max(−1, min(1, s))` — the straight-through estimator's
    /// implicit surrogate.
    HardTanh,
}

impl PredictorActivation {
    fn apply(self, s: &[f32]) -> Vec<f32> {
        match self {
            PredictorActivation::Indicator => vector::relu_mask(s),
            PredictorActivation::Sign => vector::sign(s),
            PredictorActivation::HardTanh => s.iter().map(|&v| v.clamp(-1.0, 1.0)).collect(),
        }
    }
}

/// The float forward pass, with everything backprop needs: the one pass
/// that training and evaluation share.
///
/// Hidden layer `l` computes `z = W·a` and, when it has a predictor,
/// `V·a`, `s = U·(V·a)` and the gate `p`; its output is `p ∘ ReLU(z)`, or
/// `ReLU(z)` with no predictor. The classifier is linear. Under
/// [`Indicator`](PredictorActivation::Indicator) gating the output of a row
/// predicted inactive is zero, as when the accelerator bypasses it.
#[derive(Clone, Debug, PartialEq)]
pub struct Tape {
    /// `a[l]`: the input of layer `l` (`a[0]` is the network input).
    pub a: Vec<Vec<f32>>,
    /// `z[l] = W⁽ˡ⁾·a[l]` per hidden layer.
    pub z: Vec<Vec<f32>>,
    /// `va[l] = V⁽ˡ⁾·a[l]` per predicted hidden layer.
    pub va: Vec<Vec<f32>>,
    /// `s[l] = U⁽ˡ⁾·va[l]`, the predictor scores, per predicted hidden
    /// layer.
    pub s: Vec<Vec<f32>>,
    /// `p[l]`, the gate, per predicted hidden layer.
    pub p: Vec<Vec<f32>>,
    /// The classifier's logits.
    pub logits: Vec<f32>,
}

impl Tape {
    /// Runs `x` through `mlp`, gating hidden layer `l` with
    /// `predictors[l]`; hidden layers past the end of `predictors` are not
    /// gated.
    ///
    /// # Panics
    ///
    /// Panics if `x` or a predictor does not match its layer's width.
    pub fn record(
        mlp: &Mlp,
        predictors: &[Predictor],
        x: &[f32],
        act: PredictorActivation,
    ) -> Self {
        let layers = mlp.layers();
        let (hidden, gated) = (mlp.num_hidden(), predictors.len());
        let mut tape = Tape {
            a: Vec::with_capacity(layers.len()),
            z: Vec::with_capacity(hidden),
            va: Vec::with_capacity(gated),
            s: Vec::with_capacity(gated),
            p: Vec::with_capacity(gated),
            logits: Vec::new(),
        };
        tape.a.push(x.to_vec());
        for (l, layer) in layers[..hidden].iter().enumerate() {
            let a = tape.a.last().expect("never empty");
            let z = layer.preact(a);
            let a_next = match predictors.get(l) {
                Some(predictor) => {
                    let va = predictor.v().matvec(a);
                    let s = predictor.u().matvec(&va);
                    let p = act.apply(&s);
                    let a_next = vector::hadamard(&p, &vector::relu(&z));
                    tape.va.push(va);
                    tape.s.push(s);
                    tape.p.push(p);
                    a_next
                }
                None => vector::relu(&z),
            };
            tape.z.push(z);
            tape.a.push(a_next);
        }
        tape.logits = layers[hidden].preact(tape.a.last().expect("never empty"));
        tape
    }

    /// Fraction of predicted hidden layer `l`'s rows the gate leaves
    /// inactive (`p ≤ 0`): the paper's ρ⁽ˡ⁺¹⁾, in `[0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if `l` is out of range.
    pub fn predicted_sparsity(&self, l: usize) -> f32 {
        let p = &self.p[l];
        let inactive = p.iter().filter(|&&v| v <= 0.0).count();
        inactive as f32 / p.len().max(1) as f32
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

    /// The Indicator-gated tape of `net` on `x`.
    fn gated(net: &PredictedNetwork, x: &[f32]) -> Tape {
        Tape::record(
            net.mlp(),
            net.predictors(),
            x,
            PredictorActivation::Indicator,
        )
    }

    #[test]
    fn predicted_inactive_rows_are_zero() {
        let net = small_net(3);
        let x: Vec<f32> = (0..6).map(|i| (i as f32 * 0.61).sin().max(0.0)).collect();
        let out = gated(&net, &x);
        for (l, gate) in out.p.iter().enumerate() {
            for (i, &p) in gate.iter().enumerate() {
                if p == 0.0 {
                    assert_eq!(out.a[l + 1][i], 0.0, "layer {l} row {i} should be bypassed");
                }
            }
        }
    }

    #[test]
    fn gating_only_removes_or_keeps_values() {
        // Where the gate is open, the gated value equals the plain ReLU value.
        let net = small_net(4);
        let x: Vec<f32> = (0..6).map(|i| (i as f32 * 0.3).cos().abs()).collect();
        let plain = vector::relu(&net.mlp().layers()[0].preact(&x));
        let pred = gated(&net, &x);
        for (i, &p) in pred.p[0].iter().enumerate() {
            if p > 0.0 {
                assert_eq!(pred.a[1][i], plain[i]);
            }
        }
    }

    #[test]
    fn predicted_sparsity_counts_inactive_fraction() {
        let tape = Tape {
            a: vec![vec![], vec![]],
            z: vec![vec![]],
            va: vec![vec![]],
            s: vec![vec![]],
            p: vec![vec![1.0, 0.0, 0.0, 1.0]],
            logits: vec![],
        };
        assert_eq!(tape.predicted_sparsity(0), 0.5);
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
        let plain = Tape::record(net.mlp(), &[], &x, PredictorActivation::Indicator);
        let pred = gated(&net, &x);
        for (a, b) in plain.logits.iter().zip(&pred.logits) {
            assert!((a - b).abs() < 1e-5);
        }
    }
}
