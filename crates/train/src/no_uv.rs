//! The NO-UV baseline: plain backprop, no predictor.
//!
//! Its step is the shared one with no predictor: every hidden layer is
//! ungated and only `W` is updated.

use crate::backprop::{sgd_step, Uv};
use crate::trainer::{run_epochs, History, TrainConfig};
use sparsenn_datasets::SplitDataset;
use sparsenn_linalg::init::seeded_rng;
use sparsenn_model::Mlp;

/// Trains a plain MLP — the paper's "NO UV" rows in Fig. 6 and Table I.
///
/// # Example
///
/// ```
/// use sparsenn_datasets::{DatasetKind, DatasetSpec};
/// use sparsenn_train::{no_uv, TrainConfig};
/// let split = DatasetSpec { kind: DatasetKind::Basic, train: 20, test: 10, seed: 2 }.generate();
/// let (mlp, _) = no_uv::train(&[784, 8, 10], &split, &TrainConfig { epochs: 1, ..Default::default() });
/// assert_eq!(mlp.num_layers(), 2);
/// ```
pub fn train(dims: &[usize], split: &SplitDataset, config: &TrainConfig) -> (Mlp, History) {
    let mut rng = seeded_rng(config.seed);
    let mut mlp = Mlp::random(dims, &mut rng);
    let history = run_epochs(&split.train, config, |x, label, lr| {
        sgd_step(&mut mlp, &mut [], Uv::Frozen, x, label, lr)
    });
    (mlp, history)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::end_to_end::compute_gradients;
    use sparsenn_datasets::{DatasetKind, DatasetSpec};
    use sparsenn_model::stats::evaluate;
    use sparsenn_model::{PredictedNetwork, PredictorActivation};

    /// The NO-UV step: ungated, `W` only.
    fn step(mlp: &mut Mlp, x: &[f32], label: usize, lr: f32) -> f32 {
        sgd_step(mlp, &mut [], Uv::Frozen, x, label, lr)
    }

    #[test]
    fn step_reduces_loss_on_repeated_sample() {
        let mut mlp = Mlp::random(&[6, 10, 4], &mut seeded_rng(1));
        let x = vec![0.4f32, 0.0, 0.9, 0.2, 0.7, 0.1];
        let first = step(&mut mlp, &x, 3, 0.05);
        let mut last = first;
        for _ in 0..50 {
            last = step(&mut mlp, &x, 3, 0.05);
        }
        assert!(last < first * 0.5, "loss {first} -> {last}");
    }

    #[test]
    fn learns_tiny_dataset_beyond_chance() {
        let split = DatasetSpec {
            kind: DatasetKind::Basic,
            train: 200,
            test: 100,
            seed: 9,
        }
        .generate();
        let cfg = TrainConfig {
            epochs: 6,
            lr: 0.05,
            ..TrainConfig::default()
        };
        let (mlp, _) = train(&[784, 32, 10], &split, &cfg);
        let ter = evaluate(&mlp, &[], &split.test).ter;
        assert!(ter < 55.0, "TER {ter}%");
    }

    /// With a predictor whose output is identically +1 (gating nothing),
    /// the end-to-end W gradients must coincide with plain backprop — the
    /// two algorithms share their W path.
    #[test]
    fn w_gradients_agree_with_end_to_end_when_predictor_is_transparent() {
        let mut rng = seeded_rng(5);
        let mlp = Mlp::random(&[5, 8, 3], &mut rng);
        // Build a predictor forced to emit large positive scores: U=0 ⇒ s=0…
        // that's sign(0)=0 which gates everything. Instead use a one-column
        // U of big positives and V=0 … also zero. So instead: U has one
        // column of 1s, V has one row of 0s, then hand-set s by making V's
        // row all zero and biasing through… there is no bias, so instead we
        // use inputs ≥ 0 and U, V all-positive: scores > 0 whenever a has
        // any positive entry.
        let u = sparsenn_linalg::Matrix::from_fn(8, 1, |_, _| 1.0);
        let v = sparsenn_linalg::Matrix::from_fn(1, 5, |_, _| 1.0);
        let net = PredictedNetwork::new(mlp.clone(), vec![sparsenn_model::Predictor::new(u, v)]);
        let x = vec![0.3f32, 0.9, 0.2, 0.5, 0.4]; // all positive ⇒ p = +1 everywhere
        let label = 2;

        let g = compute_gradients(&net, &x, label, 0.0, PredictorActivation::Sign);

        // Plain backprop gradients via a single ungated step with lr 1 on a
        // clone.
        let mut plain = mlp.clone();
        step(&mut plain, &x, label, 1.0);
        for l in 0..mlp.num_layers() {
            let before = mlp.layers()[l].w();
            let after = plain.layers()[l].w();
            let manual_grad = before.sub(after); // lr=1 ⇒ grad = before - after
            let diff = manual_grad.sub(&g.dw[l]).frobenius_norm();
            assert!(diff < 1e-4, "layer {l} gradient mismatch {diff}");
        }
    }
}
