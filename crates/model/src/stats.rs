//! Test-error-rate and sparsity measurement.
//!
//! The quantities reported in the paper's Fig. 6 and Table I: **TER** (test
//! error rate, %) and **ρ⁽ˡ⁾** (predicted output sparsity per hidden layer,
//! %).

use crate::{Mlp, PredictedNetwork};
use sparsenn_datasets::Dataset;
use sparsenn_linalg::vector;

/// Which forward pass to evaluate.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum EvalMode {
    /// Plain feedforward, predictor ignored (the NO-UV rows of Table I).
    Plain,
    /// Predictor-gated inference (the SVD / End-to-End rows).
    #[default]
    Predicted,
}

/// Test error rate in percent of a predictor-carrying network.
pub fn test_error_rate(net: &PredictedNetwork, data: &Dataset, mode: EvalMode) -> f32 {
    if data.is_empty() {
        return 0.0;
    }
    let mut wrong = 0usize;
    for (img, label) in data.iter() {
        let pred = match mode {
            EvalMode::Plain => vector::argmax(&net.forward_plain(img)),
            EvalMode::Predicted => vector::argmax(net.forward_predicted(img).logits()),
        }
        .expect("nonempty logits");
        if pred != label as usize {
            wrong += 1;
        }
    }
    100.0 * wrong as f32 / data.len() as f32
}

/// Test error rate in percent of a plain MLP.
pub fn test_error_rate_plain(mlp: &Mlp, data: &Dataset) -> f32 {
    if data.is_empty() {
        return 0.0;
    }
    let wrong = data
        .iter()
        .filter(|(img, label)| {
            vector::argmax(mlp.forward(img).logits()).expect("nonempty") != *label as usize
        })
        .count();
    100.0 * wrong as f32 / data.len() as f32
}

/// Mean predicted output sparsity ρ per hidden layer, in percent,
/// averaged over the dataset (the paper's ρ⁽¹⁾…ρ⁽³⁾ columns).
pub fn predicted_sparsity(net: &PredictedNetwork, data: &Dataset) -> Vec<f32> {
    let hidden = net.predictors().len();
    let mut sums = vec![0.0f64; hidden];
    if data.is_empty() {
        return vec![0.0; hidden];
    }
    for (img, _) in data.iter() {
        let fwd = net.forward_predicted(img);
        for (l, s) in sums.iter_mut().enumerate() {
            *s += f64::from(fwd.predicted_sparsity(l));
        }
    }
    sums.iter()
        .map(|&s| (100.0 * s / data.len() as f64) as f32)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparsenn_datasets::{DatasetKind, DatasetSpec};
    use sparsenn_linalg::init::seeded_rng;

    fn tiny_data() -> Dataset {
        DatasetSpec {
            kind: DatasetKind::Basic,
            train: 20,
            test: 10,
            seed: 1,
        }
        .generate()
        .test
    }

    #[test]
    fn random_network_ter_is_chance_level() {
        let mut rng = seeded_rng(2);
        let mlp = Mlp::random(&[784, 32, 10], &mut rng);
        let net = PredictedNetwork::with_random_predictors(mlp, 4, &mut rng);
        let data = tiny_data();
        let ter = test_error_rate(&net, &data, EvalMode::Plain);
        assert!(ter >= 50.0, "random net should be near chance, got {ter}%");
    }

    #[test]
    fn empty_dataset_gives_zero_ter() {
        let mut rng = seeded_rng(3);
        let mlp = Mlp::random(&[784, 8, 10], &mut rng);
        let net = PredictedNetwork::with_random_predictors(mlp, 2, &mut rng);
        let empty = DatasetSpec {
            kind: DatasetKind::Basic,
            train: 0,
            test: 0,
            seed: 1,
        }
        .generate()
        .test;
        assert_eq!(test_error_rate(&net, &empty, EvalMode::Predicted), 0.0);
        assert_eq!(predicted_sparsity(&net, &empty), vec![0.0]);
    }

    #[test]
    fn sparsity_percentages_are_in_range() {
        let mut rng = seeded_rng(4);
        let mlp = Mlp::random(&[784, 16, 16, 10], &mut rng);
        let net = PredictedNetwork::with_random_predictors(mlp, 4, &mut rng);
        let data = tiny_data();
        for s in predicted_sparsity(&net, &data) {
            assert!((0.0..=100.0).contains(&s));
        }
    }

    #[test]
    fn plain_modes_agree_between_entry_points() {
        let mut rng = seeded_rng(5);
        let mlp = Mlp::random(&[784, 16, 10], &mut rng);
        let net = PredictedNetwork::with_random_predictors(mlp.clone(), 4, &mut rng);
        let data = tiny_data();
        assert_eq!(
            test_error_rate(&net, &data, EvalMode::Plain),
            test_error_rate_plain(&mlp, &data)
        );
    }
}
