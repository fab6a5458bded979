//! The truncated-SVD predictor baseline (Davis et al. \[11\] / LRADNN \[12\]).
//!
//! `W` is trained by backprop through the predictor-gated forward pass
//! (the shared step, with the predictors frozen and Indicator gating), but
//! the predictor factors are **not** trained: at the start of every epoch
//! they are recomputed as the rank-`r` truncated SVD of the current `W`
//! (`U⁽ˡ⁾`, `V⁽ˡ⁾` are the leading singular vectors, with the singular
//! values split symmetrically between the factors).
//!
//! This is the scheme the paper criticizes: the SVD minimizes Frobenius
//! reconstruction error, which is *not* the same objective as predicting
//! the sign of `W·a` (0.1 and −0.1 are close in Frobenius norm but give
//! opposite predictions), and the once-per-epoch update cannot react to
//! the loss. Fig. 6 and Table I quantify the resulting gap.

use crate::backprop::{sgd_step, Uv};
use crate::trainer::{History, TrainConfig};
use rand::seq::SliceRandom;
use sparsenn_datasets::SplitDataset;
use sparsenn_linalg::init::seeded_rng;
use sparsenn_linalg::truncated::truncated_svd;
use sparsenn_model::{Mlp, PredictedNetwork, Predictor};

/// The rank-`rank` truncated-SVD predictor of hidden layer `l`'s current
/// weights.
fn svd_predictor(mlp: &Mlp, l: usize, rank: usize, seed: u64) -> Predictor {
    let w = mlp.layers()[l].w();
    let svd = truncated_svd(w, rank, seed ^ (l as u64).wrapping_mul(0x9E37_79B9));
    let (u, v) = svd.predictor_factors();
    Predictor::new(u, v)
}

/// Attaches to every hidden layer of `mlp` the rank-`rank` truncated-SVD
/// predictor of its weights, seeded as the baseline's epoch refresh is.
pub fn with_svd_predictors(mlp: Mlp, rank: usize, seed: u64) -> PredictedNetwork {
    let predictors = (0..mlp.num_hidden())
        .map(|l| svd_predictor(&mlp, l, rank, seed))
        .collect();
    PredictedNetwork::new(mlp, predictors)
}

/// Refreshes every predictor from the truncated SVD of its layer's current
/// weights (the once-per-epoch step of the baseline).
pub(crate) fn refresh_predictors(net: &mut PredictedNetwork, rank: usize, seed: u64) {
    let (mlp, predictors) = net.parts_mut();
    for (l, p) in predictors.iter_mut().enumerate() {
        *p = svd_predictor(mlp, l, rank, seed);
    }
}

/// Trains the SVD-predictor baseline.
///
/// Training starts from `U, V` = SVD(`W`) of the initial weights. Each
/// epoch runs one shuffled pass of W-only SGD, then refreshes `U, V` from
/// SVD(`W`), so the next epoch, or the returned network, pairs the
/// predictor with the weights it was computed from.
///
/// # Example
///
/// ```
/// use sparsenn_datasets::{DatasetKind, DatasetSpec};
/// use sparsenn_train::{svd_baseline, TrainConfig};
/// let split = DatasetSpec { kind: DatasetKind::Basic, train: 20, test: 10, seed: 2 }.generate();
/// let (net, _) = svd_baseline::train(&[784, 8, 10], 2, &split, &TrainConfig { epochs: 1, ..Default::default() });
/// assert_eq!(net.predictors()[0].rank(), 2);
/// ```
pub fn train(
    dims: &[usize],
    rank: usize,
    split: &SplitDataset,
    config: &TrainConfig,
) -> (PredictedNetwork, History) {
    let mlp = Mlp::random(dims, &mut seeded_rng(config.seed));
    let mut net = with_svd_predictors(mlp, rank, config.seed);

    let mut history = History::default();
    let mut indices: Vec<usize> = (0..split.train.len()).collect();
    let mut shuffle_rng = seeded_rng(config.seed ^ 0x51d3);
    let mut lr = config.lr;
    for epoch in 0..config.epochs {
        indices.shuffle(&mut shuffle_rng);
        let mut loss_sum = 0.0f64;
        let (mlp, predictors) = net.parts_mut();
        for &i in &indices {
            let (x, label) = (split.train.image(i), split.train.label(i) as usize);
            loss_sum += f64::from(sgd_step(mlp, predictors, Uv::Frozen, x, label, lr));
        }
        let mean = if indices.is_empty() {
            0.0
        } else {
            (loss_sum / indices.len() as f64) as f32
        };
        history.epochs.push(crate::trainer::EpochStats {
            train_loss: mean,
            lr,
        });
        lr *= config.lr_decay;
        refresh_predictors(&mut net, rank, config.seed.wrapping_add(epoch as u64 + 1));
    }
    (net, history)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparsenn_datasets::{DatasetKind, DatasetSpec};
    use sparsenn_model::stats::evaluate;

    #[test]
    fn refresh_approximates_weights() {
        let mut rng = seeded_rng(1);
        let mlp = Mlp::random(&[12, 16, 4], &mut rng);
        let mut net = PredictedNetwork::with_random_predictors(mlp, 8, &mut rng);
        refresh_predictors(&mut net, 8, 7);
        let w = net.mlp().layers()[0].w();
        let approx = net.predictors()[0].u().matmul(net.predictors()[0].v());
        let rel = w.sub(&approx).frobenius_norm() / w.frobenius_norm();
        // Rank 8 of a random 16x12 keeps most of the energy.
        assert!(rel < 0.75, "relative error {rel}");
    }

    #[test]
    fn higher_rank_refreshes_are_more_accurate() {
        let mut rng = seeded_rng(2);
        let mlp = Mlp::random(&[12, 16, 4], &mut rng);
        let rel_for = |rank: usize| {
            let mut net =
                PredictedNetwork::with_random_predictors(mlp.clone(), rank, &mut seeded_rng(3));
            refresh_predictors(&mut net, rank, 7);
            let w = net.mlp().layers()[0].w();
            let approx = net.predictors()[0].u().matmul(net.predictors()[0].v());
            w.sub(&approx).frobenius_norm() / w.frobenius_norm()
        };
        assert!(rel_for(2) > rel_for(10));
    }

    #[test]
    fn training_beats_chance() {
        let split = DatasetSpec {
            kind: DatasetKind::Basic,
            train: 200,
            test: 100,
            seed: 5,
        }
        .generate();
        let cfg = TrainConfig {
            epochs: 6,
            lr: 0.05,
            ..TrainConfig::default()
        };
        let (net, _) = train(&[784, 32, 10], 16, &split, &cfg);
        let ter = evaluate(net.mlp(), net.predictors(), &split.test).ter;
        assert!(ter < 60.0, "TER {ter}%");
    }

    #[test]
    fn w_step_leaves_predictor_untouched() {
        let mut rng = seeded_rng(6);
        let mlp = Mlp::random(&[6, 8, 3], &mut rng);
        let mut net = PredictedNetwork::with_random_predictors(mlp, 2, &mut rng);
        let before = net.clone();
        let (mlp, predictors) = net.parts_mut();
        sgd_step(
            mlp,
            predictors,
            Uv::Frozen,
            &[0.5, 0.2, 0.8, 0.1, 0.9, 0.3],
            1,
            0.05,
        );
        assert_eq!(before.predictors(), net.predictors());
        assert_ne!(before.mlp(), net.mlp(), "W moves");
    }
}
