//! Property-based tests of the model invariants the accelerator relies on.

use proptest::prelude::*;
use sparsenn_linalg::init::seeded_rng;
use sparsenn_model::fixedpoint::{FixedNetwork, UvMode};
use sparsenn_model::{Mlp, PredictedNetwork, PredictorActivation, Tape};

fn network(seed: u64, hidden: usize, rank: usize) -> PredictedNetwork {
    let mut rng = seeded_rng(seed);
    PredictedNetwork::with_random_predictors(
        Mlp::random(&[12, hidden, 8], &mut rng),
        rank,
        &mut rng,
    )
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

fn input(seed: u64) -> Vec<f32> {
    let mut rng = seeded_rng(seed ^ 0xF00D);
    (0..12)
        .map(|_| {
            use rand::Rng;
            if rng.gen_bool(0.4) {
                0.0
            } else {
                rng.gen_range(-1.5f32..1.5)
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Gating only removes: the predicted forward's nonzero set is a
    /// subset of the plain forward's at every hidden layer, and the values
    /// that survive are identical.
    #[test]
    fn predicted_nonzeros_are_a_subset_of_plain(seed in 0u64..10_000, rank in 1usize..5) {
        let net = network(seed, 16, rank);
        let x = input(seed);
        let plain = sparsenn_linalg::vector::relu(&net.mlp().layers()[0].preact(&x));
        let pred = gated(&net, &x);
        for (i, &v) in pred.a[1].iter().enumerate() {
            if v != 0.0 {
                prop_assert!((v - plain[i]).abs() < 1e-6);
            }
        }
    }

    /// The fixed-point golden model's predictor mask agrees with the float
    /// predictor on decisively-signed scores (quantization can only flip
    /// scores near zero).
    #[test]
    fn quantized_mask_agrees_on_decisive_scores(seed in 0u64..10_000) {
        let net = network(seed, 16, 3);
        let x = input(seed);
        let float_scores = gated(&net, &x).s.remove(0);
        let fixed = FixedNetwork::from_float(&net);
        let xq = fixed.quantize_input(&x);
        let golden = fixed.forward_layer(0, &xq, UvMode::On);
        let mask = golden.mask.as_ref().expect("hidden layer has a mask");
        for (i, (&s, &m)) in float_scores.iter().zip(mask).enumerate() {
            if s.abs() > 0.05 {
                prop_assert_eq!(m, s > 0.0, "row {} score {}", i, s);
            }
        }
    }

    /// Zero input ⇒ zero hidden activations, empty prediction, zero logits.
    #[test]
    fn zero_input_collapses_everything(seed in 0u64..10_000) {
        let net = network(seed, 12, 2);
        let x = vec![0.0f32; 12];
        let pred = gated(&net, &x);
        prop_assert!(pred.a[1].iter().all(|&v| v == 0.0));
        prop_assert!(pred.logits.iter().all(|&v| v == 0.0));
    }

    /// Predictor scores are linear in the input (they are a composition of
    /// two linear maps).
    #[test]
    fn predictor_scores_are_linear(seed in 0u64..10_000, alpha in -2.0f32..2.0) {
        let net = network(seed, 10, 2);
        let x = input(seed);
        let scaled: Vec<f32> = x.iter().map(|v| v * alpha).collect();
        let s1 = gated(&net, &x).s.remove(0);
        let s2 = gated(&net, &scaled).s.remove(0);
        for (a, b) in s1.iter().zip(&s2) {
            prop_assert!((a * alpha - b).abs() < 1e-3 * (1.0 + b.abs()), "{a} {b} {alpha}");
        }
    }
}
