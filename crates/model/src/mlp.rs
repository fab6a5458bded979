//! The plain multi-layer perceptron.

use rand::rngs::StdRng;
use sparsenn_linalg::{init, Matrix};

/// One fully-connected layer `a ↦ W·a` (no bias, exactly as in the paper's
/// Eq. (1) and Algorithm 1).
#[derive(Clone, Debug, PartialEq)]
pub struct DenseLayer {
    w: Matrix,
}

impl DenseLayer {
    /// Wraps a weight matrix.
    pub fn new(w: Matrix) -> Self {
        Self { w }
    }

    /// He-normal initialized layer `outputs × inputs`.
    pub fn random(outputs: usize, inputs: usize, rng: &mut StdRng) -> Self {
        Self {
            w: init::he_normal(outputs, inputs, rng),
        }
    }

    /// The weight matrix.
    pub fn w(&self) -> &Matrix {
        &self.w
    }

    /// Mutable access to the weights (SGD updates).
    pub fn w_mut(&mut self) -> &mut Matrix {
        &mut self.w
    }

    /// Number of input activations.
    pub fn inputs(&self) -> usize {
        self.w.cols()
    }

    /// Number of output activations.
    pub fn outputs(&self) -> usize {
        self.w.rows()
    }

    /// Pre-activation `W·a`.
    ///
    /// # Panics
    ///
    /// Panics if `a.len() != inputs()`.
    pub fn preact(&self, a: &[f32]) -> Vec<f32> {
        self.w.matvec(a)
    }
}

/// A multi-layer perceptron: `dims[0]` inputs, ReLU hidden layers of sizes
/// `dims[1..n-1]`, and a linear output layer of size `dims[n-1]`.
///
/// The paper's two configurations are `[784, 1000, 10]` ("3-layer", one
/// hidden layer) and `[784, 1000, 1000, 1000, 10]` ("5-layer", three hidden
/// layers). The paper counts input and output layers, hence "3-layer" for a
/// single hidden layer.
#[derive(Clone, Debug, PartialEq)]
pub struct Mlp {
    layers: Vec<DenseLayer>,
}

impl Mlp {
    /// Builds an MLP from explicit layers.
    ///
    /// # Panics
    ///
    /// Panics if consecutive layers disagree on dimensions or `layers` is
    /// empty.
    pub fn new(layers: Vec<DenseLayer>) -> Self {
        assert!(!layers.is_empty(), "an MLP needs at least one layer");
        for pair in layers.windows(2) {
            assert_eq!(
                pair[0].outputs(),
                pair[1].inputs(),
                "layer dimension mismatch"
            );
        }
        Self { layers }
    }

    /// Random He-initialized MLP with the given layer sizes.
    ///
    /// # Panics
    ///
    /// Panics if `dims.len() < 2`.
    pub fn random(dims: &[usize], rng: &mut StdRng) -> Self {
        assert!(dims.len() >= 2, "need at least input and output dims");
        let layers = dims
            .windows(2)
            .map(|d| DenseLayer::random(d[1], d[0], rng))
            .collect::<Vec<_>>();
        Self::new(layers)
    }

    /// The layers, input-side first.
    pub fn layers(&self) -> &[DenseLayer] {
        &self.layers
    }

    /// Mutable layer access (SGD updates).
    pub fn layers_mut(&mut self) -> &mut [DenseLayer] {
        &mut self.layers
    }

    /// Number of weight layers.
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    /// Number of hidden (ReLU, predictor-carrying) layers.
    pub fn num_hidden(&self) -> usize {
        self.layers.len() - 1
    }

    /// Layer sizes `[inputs, hidden..., outputs]`.
    pub fn dims(&self) -> Vec<usize> {
        let mut d = vec![self.layers[0].inputs()];
        d.extend(self.layers.iter().map(DenseLayer::outputs));
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{PredictorActivation, Tape};
    use sparsenn_linalg::init::seeded_rng;

    #[test]
    fn dims_roundtrip() {
        let mlp = Mlp::random(&[784, 100, 50, 10], &mut seeded_rng(0));
        assert_eq!(mlp.dims(), vec![784, 100, 50, 10]);
        assert_eq!(mlp.num_layers(), 3);
        assert_eq!(mlp.num_hidden(), 2);
    }

    /// The ungated pass: the plain feedforward.
    fn plain(mlp: &Mlp, x: &[f32]) -> Tape {
        Tape::record(mlp, &[], x, PredictorActivation::Indicator)
    }

    #[test]
    fn forward_shapes_and_relu() {
        let mlp = Mlp::random(&[6, 8, 3], &mut seeded_rng(1));
        let tape = plain(&mlp, &[0.2; 6]);
        assert_eq!(tape.a.len(), 2);
        assert_eq!(tape.z.len(), 1);
        assert_eq!(tape.logits.len(), 3);
        // Hidden activations are non-negative (ReLU).
        assert!(tape.a[1].iter().all(|&v| v >= 0.0));
        // Output layer is linear: logits equal the last pre-activation.
        assert_eq!(mlp.layers()[1].preact(&tape.a[1]), tape.logits);
    }

    #[test]
    fn identity_layer_passes_input() {
        let id = DenseLayer::new(Matrix::from_fn(4, 4, |i, j| if i == j { 1.0 } else { 0.0 }));
        let mlp = Mlp::new(vec![id]);
        let tape = plain(&mlp, &[1.0, -2.0, 3.0, 0.0]);
        assert_eq!(tape.logits, [1.0, -2.0, 3.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "layer dimension mismatch")]
    fn mismatched_layers_panic() {
        let a = DenseLayer::new(Matrix::zeros(4, 6));
        let b = DenseLayer::new(Matrix::zeros(2, 5));
        Mlp::new(vec![a, b]);
    }

    #[test]
    fn hidden_sparsity_from_relu_is_substantial() {
        // With He-init and a zero-mean input, about half the hidden units die.
        let mlp = Mlp::random(&[50, 200, 10], &mut seeded_rng(2));
        let x: Vec<f32> = (0..50).map(|i| ((i as f32) * 0.37).sin()).collect();
        let hidden = &plain(&mlp, &x).a[1];
        let s = hidden.iter().filter(|&&v| v == 0.0).count() as f32 / hidden.len() as f32;
        assert!(s > 0.25 && s < 0.75, "hidden sparsity {s}");
    }
}
