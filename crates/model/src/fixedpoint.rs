//! Bit-exact fixed-point golden model of the accelerator's arithmetic.
//!
//! This module is the reproduction's analogue of the paper's Matlab
//! fixed-point simulation: a functional (cycle-free) model of exactly the
//! arithmetic the hardware performs — Q6.10 operands, full-precision MACs
//! into a wide accumulator, round-to-nearest-even writeback, ReLU, and the
//! three-phase V → U → W predictor flow. The cycle-level machine in
//! `sparsenn-sim` must produce **identical bits**; integration tests assert
//! this on random networks.

use crate::{Mlp, PredictedNetwork, Predictor};
use sparsenn_numeric::{quantize, Accumulator, Q6_10};
use std::sync::Arc;

/// A quantized dense matrix in row-major order.
#[derive(Clone, Debug, PartialEq)]
pub struct FixedMatrix {
    rows: usize,
    cols: usize,
    data: Vec<Q6_10>,
}

impl FixedMatrix {
    /// Quantizes a float matrix.
    pub fn from_float(m: &sparsenn_linalg::Matrix) -> Self {
        Self {
            rows: m.rows(),
            cols: m.cols(),
            data: quantize::quantize_slice(m.as_slice()),
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Row `i` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `i >= rows`.
    pub fn row(&self, i: usize) -> &[Q6_10] {
        assert!(i < self.rows, "row out of bounds");
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Element accessor.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn get(&self, i: usize, j: usize) -> Q6_10 {
        assert!(i < self.rows && j < self.cols, "index out of bounds");
        self.data[i * self.cols + j]
    }

    /// Full-precision dot product of row `i` with the activation vector,
    /// skipping zero activations (they contribute nothing — this is why
    /// input-sparsity skipping is *exact*, not approximate).
    ///
    /// # Panics
    ///
    /// Panics if `a.len() != cols`.
    pub fn row_dot(&self, i: usize, a: &[Q6_10]) -> Accumulator {
        assert_eq!(a.len(), self.cols, "activation length mismatch");
        let row = self.row(i);
        let mut acc = Accumulator::new();
        for (w, x) in row.iter().zip(a) {
            if !x.is_zero() {
                acc.mac(*w, *x);
            }
        }
        acc
    }
}

/// A quantized predictor factor pair.
#[derive(Clone, Debug, PartialEq)]
pub struct FixedPredictor {
    /// `m × r` quantized left factor.
    pub u: FixedMatrix,
    /// `r × n` quantized right factor.
    pub v: FixedMatrix,
}

impl FixedPredictor {
    /// Quantizes a float predictor.
    pub fn from_float(p: &Predictor) -> Self {
        Self {
            u: FixedMatrix::from_float(p.u()),
            v: FixedMatrix::from_float(p.v()),
        }
    }

    /// V phase: `V·a` accumulated at full precision, then quantized to
    /// 16 bits — exactly what the H-tree's accumulate-and-broadcast does
    /// (partial sums merge losslessly in i64; the root quantizes the final
    /// value before broadcasting it as a 16-bit activation).
    pub fn v_phase(&self, a: &[Q6_10]) -> Vec<Q6_10> {
        (0..self.v.rows())
            .map(|t| self.v.row_dot(t, a).to_fixed())
            .collect()
    }

    /// U phase: signs of `U·(V·a)`. Only the sign bit is kept (the
    /// hardware stores it in the 1-bit predictor register bank), so no
    /// writeback quantization happens here.
    pub fn u_phase(&self, v_result: &[Q6_10]) -> Vec<bool> {
        (0..self.u.rows())
            .map(|i| self.u.row_dot(i, v_result).is_positive())
            .collect()
    }

    /// Complete prediction for one input vector.
    pub fn predict(&self, a: &[Q6_10]) -> Vec<bool> {
        self.u_phase(&self.v_phase(a))
    }
}

/// Whether the golden model (and the machine) uses the UV predictor.
///
/// `Off` is exactly the EIE baseline of the paper ("when UV predictor is
/// not used, SparseNN is the same as the conventional EIE architecture").
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum UvMode {
    /// Exploit output sparsity: run V/U phases, bypass inactive rows.
    #[default]
    On,
    /// Input sparsity only (EIE-equivalent baseline).
    Off,
}

/// A fully quantized network: one [`FixedMatrix`] per layer plus one
/// [`FixedPredictor`] per hidden layer.
///
/// The network is a cheap handle to immutable, shared weights: `clone()`
/// copies a pointer, never the weights, so backends can cache the
/// network they packed or partitioned at O(1) cost. Equality is a pointer
/// compare when both handles share one allocation — the steady state of
/// every per-call "is this still the cached network?" guard — and the
/// full structural compare otherwise, so an equal network built
/// separately still matches and a different one never does.
///
/// The pointer fast path is sound because the weights cannot change:
/// `FixedNetwork` must never expose mutation (no `&mut` accessors, no
/// `Arc::get_mut` or `Arc::make_mut`). Keep it that way — a mutable
/// handle would let two "equal" pointers disagree on their weights.
#[derive(Clone, Debug)]
pub struct FixedNetwork {
    inner: Arc<NetInner>,
}

/// The weights behind a [`FixedNetwork`] handle.
#[derive(Debug, PartialEq)]
struct NetInner {
    layers: Vec<FixedMatrix>,
    predictors: Vec<FixedPredictor>,
}

impl PartialEq for FixedNetwork {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner) || *self.inner == *other.inner
    }
}

/// Per-layer record of a golden forward pass.
#[derive(Clone, Debug, PartialEq)]
pub struct GoldenLayer {
    /// Output activations after writeback (and ReLU for hidden layers).
    pub output: Vec<Q6_10>,
    /// Predictor mask, if the layer ran in [`UvMode::On`] and has a
    /// predictor.
    pub mask: Option<Vec<bool>>,
    /// Quantized V-phase intermediate, if a predictor ran.
    pub v_result: Option<Vec<Q6_10>>,
}

impl FixedNetwork {
    /// Quantizes a trained float network.
    pub fn from_float(net: &PredictedNetwork) -> Self {
        let predictors = net
            .predictors()
            .iter()
            .map(FixedPredictor::from_float)
            .collect();
        Self::quantize(net.mlp(), predictors)
    }

    /// Quantizes a plain MLP (no predictors; only [`UvMode::Off`] makes
    /// sense then).
    pub fn from_mlp(mlp: &Mlp) -> Self {
        Self::quantize(mlp, Vec::new())
    }

    /// Quantizes `mlp`'s weights into a fresh shared allocation.
    fn quantize(mlp: &Mlp, predictors: Vec<FixedPredictor>) -> Self {
        let layers = mlp
            .layers()
            .iter()
            .map(|l| FixedMatrix::from_float(l.w()))
            .collect();
        Self {
            inner: Arc::new(NetInner { layers, predictors }),
        }
    }

    /// The quantized weight layers.
    pub fn layers(&self) -> &[FixedMatrix] {
        &self.inner.layers
    }

    /// The quantized predictors (one per hidden layer when present).
    pub fn predictors(&self) -> &[FixedPredictor] {
        &self.inner.predictors
    }

    /// Number of weight layers.
    pub fn num_layers(&self) -> usize {
        self.layers().len()
    }

    /// Quantizes a float input vector to the network's activation format.
    pub fn quantize_input(&self, x: &[f32]) -> Vec<Q6_10> {
        quantize::quantize_slice(x)
    }

    /// Golden computation of one layer.
    ///
    /// Hidden layers (`layer < num_layers() - 1`) apply ReLU; with
    /// [`UvMode::On`] and an available predictor, inactive rows are bypassed
    /// and forced to zero.
    ///
    /// # Panics
    ///
    /// Panics if `layer` is out of range or `a` has the wrong width.
    pub fn forward_layer(&self, layer: usize, a: &[Q6_10], mode: UvMode) -> GoldenLayer {
        let layers = self.layers();
        assert!(layer < layers.len(), "layer out of range");
        let w = &layers[layer];
        let is_hidden = layer + 1 < layers.len();
        let predictor = if mode == UvMode::On && is_hidden {
            self.predictors().get(layer)
        } else {
            None
        };

        let (mask, v_result) = match predictor {
            Some(p) => {
                let v = p.v_phase(a);
                let m = p.u_phase(&v);
                (Some(m), Some(v))
            }
            None => (None, None),
        };

        let mut output = vec![Q6_10::ZERO; w.rows()];
        for (i, out) in output.iter_mut().enumerate() {
            if let Some(m) = &mask {
                if !m[i] {
                    continue; // bypassed: stays zero, W memory untouched
                }
            }
            let acc = w.row_dot(i, a);
            let val: Q6_10 = acc.to_fixed();
            *out = if is_hidden { val.relu() } else { val };
        }
        GoldenLayer {
            output,
            mask,
            v_result,
        }
    }

    /// Golden forward pass through the whole network.
    pub fn forward(&self, x: &[Q6_10], mode: UvMode) -> Vec<GoldenLayer> {
        let mut acts = x.to_vec();
        let mut out = Vec::with_capacity(self.num_layers());
        for l in 0..self.num_layers() {
            let g = self.forward_layer(l, &acts, mode);
            acts = g.output.clone();
            out.push(g);
        }
        out
    }

    /// Classifies an input: argmax of the final layer's outputs.
    pub fn classify(&self, x: &[Q6_10], mode: UvMode) -> usize {
        let layers = self.forward(x, mode);
        let logits = &layers.last().expect("at least one layer").output;
        sparsenn_numeric::argmax(logits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparsenn_linalg::init::seeded_rng;
    use sparsenn_linalg::Matrix;

    fn quantized_net(seed: u64, dims: &[usize], r: usize) -> (PredictedNetwork, FixedNetwork) {
        let mut rng = seeded_rng(seed);
        let mlp = Mlp::random(dims, &mut rng);
        let net = PredictedNetwork::with_random_predictors(mlp, r, &mut rng);
        let fixed = FixedNetwork::from_float(&net);
        (net, fixed)
    }

    #[test]
    fn fixed_forward_tracks_float_forward() {
        let (net, fixed) = quantized_net(1, &[10, 20, 8], 4);
        let x: Vec<f32> = (0..10).map(|i| ((i as f32) * 0.37).sin().abs()).collect();
        let xq = fixed.quantize_input(&x);
        let golden = fixed.forward(&xq, UvMode::Off);
        let float = crate::Tape::record(net.mlp(), &[], &x, crate::PredictorActivation::Indicator);
        for (g, f) in golden.last().unwrap().output.iter().zip(&float.logits) {
            assert!(
                (g.to_f32() - f).abs() < 0.12,
                "fixed {} vs float {f} drifted too far",
                g.to_f32()
            );
        }
    }

    #[test]
    fn uv_off_has_no_masks() {
        let (_, fixed) = quantized_net(2, &[6, 12, 4], 3);
        let x = fixed.quantize_input(&[0.5; 6]);
        let layers = fixed.forward(&x, UvMode::Off);
        assert!(layers
            .iter()
            .all(|l| l.mask.is_none() && l.v_result.is_none()));
    }

    #[test]
    fn uv_on_masks_hidden_layers_only() {
        let (_, fixed) = quantized_net(3, &[6, 12, 10, 4], 3);
        let x = fixed.quantize_input(&[0.3; 6]);
        let layers = fixed.forward(&x, UvMode::On);
        assert!(layers[0].mask.is_some());
        assert!(layers[1].mask.is_some());
        assert!(
            layers[2].mask.is_none(),
            "classifier layer must not be masked"
        );
    }

    #[test]
    fn bypassed_rows_are_exactly_zero() {
        let (_, fixed) = quantized_net(4, &[8, 16, 4], 2);
        let x = fixed.quantize_input(&[0.7; 8]);
        let layers = fixed.forward(&x, UvMode::On);
        let mask = layers[0].mask.as_ref().unwrap();
        for (i, &m) in mask.iter().enumerate() {
            if !m {
                assert!(layers[0].output[i].is_zero());
            }
        }
    }

    #[test]
    fn hidden_outputs_are_non_negative() {
        let (_, fixed) = quantized_net(5, &[8, 16, 4], 2);
        let x = fixed.quantize_input(&[0.9; 8]);
        for mode in [UvMode::On, UvMode::Off] {
            let layers = fixed.forward(&x, mode);
            assert!(layers[0].output.iter().all(|v| v.raw() >= 0));
        }
    }

    #[test]
    fn skipping_zero_inputs_changes_nothing() {
        // row_dot skips zero activations; verify against a dense recompute.
        let m = FixedMatrix::from_float(&Matrix::from_fn(3, 5, |i, j| {
            ((i * 5 + j) as f32 * 0.21).sin()
        }));
        let a: Vec<Q6_10> = [0.0f32, 0.5, 0.0, -0.75, 0.25]
            .iter()
            .map(|&v| Q6_10::from_f32(v))
            .collect();
        for i in 0..3 {
            let mut dense = Accumulator::new();
            for (j, &aj) in a.iter().enumerate() {
                dense.mac(m.get(i, j), aj);
            }
            assert_eq!(m.row_dot(i, &a), dense);
        }
    }

    #[test]
    fn clones_share_weights_and_equality_sees_one_weight() {
        let mut rng = seeded_rng(7);
        let mut mlp = Mlp::random(&[6, 12, 4], &mut rng);
        let a = FixedNetwork::from_mlp(&mlp);
        let b = a.clone();
        assert!(std::ptr::eq(a.layers().as_ptr(), b.layers().as_ptr()));
        assert_eq!(a, b);
        // Built separately from the same weights: a new allocation that
        // still compares equal, structurally.
        let rebuilt = FixedNetwork::from_mlp(&mlp);
        assert!(!std::ptr::eq(
            a.layers().as_ptr(),
            rebuilt.layers().as_ptr()
        ));
        assert_eq!(a, rebuilt);
        // One quantized weight different: unequal.
        let w = mlp.layers()[1].w().get(2, 3);
        mlp.layers_mut()[1].w_mut().set(2, 3, w + 0.5);
        let changed = FixedNetwork::from_mlp(&mlp);
        assert_ne!(changed.layers()[1].get(2, 3), a.layers()[1].get(2, 3));
        assert_ne!(a, changed);
    }

    #[test]
    fn classify_returns_argmax() {
        // Identity-ish single layer: input 3 wide, output 3 wide.
        let w = Matrix::from_fn(3, 3, |i, j| if i == j { 1.0 } else { 0.0 });
        let mlp = Mlp::new(vec![crate::DenseLayer::new(w)]);
        let fixed = FixedNetwork::from_mlp(&mlp);
        let x = fixed.quantize_input(&[0.1, 0.9, 0.4]);
        assert_eq!(fixed.classify(&x, UvMode::Off), 1);
    }
}
