//! Test-error-rate and sparsity measurement.
//!
//! The quantities reported in the paper's Fig. 6 and Table I: **TER** (test
//! error rate, %) and **ρ⁽ˡ⁾** (predicted output sparsity per hidden layer,
//! %).

use crate::{Mlp, Predictor, PredictorActivation, Tape};
use sparsenn_datasets::Dataset;
use sparsenn_linalg::vector;

/// What one network scores on one dataset.
#[derive(Clone, Debug, PartialEq)]
pub struct Evaluation {
    /// Test error rate, %.
    pub ter: f32,
    /// Mean predicted output sparsity per predicted hidden layer, %
    /// (the paper's ρ⁽¹⁾…ρ⁽³⁾ columns); empty without predictors, which
    /// is Table I's "N.A.".
    pub rho: Vec<f32>,
}

/// Scores `mlp` on `data` through one [`Indicator`]-gated [`Tape`] per
/// image, hidden layer `l` gated by `predictors[l]`: the predicted rows
/// run, the others output zero, as on the accelerator. An empty dataset
/// scores 0 % everywhere.
///
/// [`Indicator`]: PredictorActivation::Indicator
pub fn evaluate(mlp: &Mlp, predictors: &[Predictor], data: &Dataset) -> Evaluation {
    let mut wrong = 0usize;
    let mut sums = vec![0.0f64; predictors.len()];
    for (img, label) in data.iter() {
        let tape = Tape::record(mlp, predictors, img, PredictorActivation::Indicator);
        if vector::argmax(&tape.logits).expect("nonempty logits") != label as usize {
            wrong += 1;
        }
        for (l, s) in sums.iter_mut().enumerate() {
            *s += f64::from(tape.predicted_sparsity(l));
        }
    }
    let n = data.len().max(1);
    Evaluation {
        ter: 100.0 * wrong as f32 / n as f32,
        rho: sums
            .iter()
            .map(|&s| (100.0 * s / n as f64) as f32)
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PredictedNetwork;
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

    fn net(dims: &[usize], rank: usize, seed: u64) -> PredictedNetwork {
        let mut rng = seeded_rng(seed);
        let mlp = Mlp::random(dims, &mut rng);
        PredictedNetwork::with_random_predictors(mlp, rank, &mut rng)
    }

    #[test]
    fn random_network_ter_is_chance_level() {
        let net = net(&[784, 32, 10], 4, 2);
        let ter = evaluate(net.mlp(), &[], &tiny_data()).ter;
        assert!(ter >= 50.0, "random net should be near chance, got {ter}%");
    }

    #[test]
    fn empty_dataset_gives_zero_ter() {
        let net = net(&[784, 8, 10], 2, 3);
        let empty = DatasetSpec {
            kind: DatasetKind::Basic,
            train: 0,
            test: 0,
            seed: 1,
        }
        .generate()
        .test;
        let eval = evaluate(net.mlp(), net.predictors(), &empty);
        assert_eq!(eval.ter, 0.0);
        assert_eq!(eval.rho, vec![0.0]);
    }

    #[test]
    fn sparsity_percentages_are_in_range() {
        let net = net(&[784, 16, 16, 10], 4, 4);
        let rho = evaluate(net.mlp(), net.predictors(), &tiny_data()).rho;
        assert_eq!(rho.len(), 2);
        for s in rho {
            assert!((0.0..=100.0).contains(&s));
        }
    }
}
