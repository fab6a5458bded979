//! Correctness: golden outputs computed before timing, and the tally of
//! checked calls behind `success_rate`.

use sparsenn_core::datasets::Dataset;
use sparsenn_core::engine::RunRecord;
use sparsenn_core::model::fixedpoint::{GoldenLayer, UvMode};
use sparsenn_core::numeric::Q6_10;
use sparsenn_core::TrainedSystem;

/// Checked calls and how many failed (an error or a wrong output).
#[derive(Clone, Copy, Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Counts one checked call.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// (attempted − failed) ÷ attempted; 1 before any call.
    pub fn success_rate(&self) -> f64 {
        if self.attempted == 0 {
            return 1.0;
        }
        1.0 - self.failed as f64 / self.attempted as f64
    }
}

/// The run's request images with the golden fixed-point model's uv_on
/// result for each, and their quantized inputs.
pub struct Golden {
    pub images: Dataset,
    pub inputs: Vec<Vec<Q6_10>>,
    pub layers: Vec<Vec<GoldenLayer>>,
}

impl Golden {
    pub fn new(sys: &TrainedSystem, images: Dataset) -> Self {
        let net = sys.fixed();
        let inputs: Vec<Vec<Q6_10>> = (0..images.len())
            .map(|i| net.quantize_input(images.image(i)))
            .collect();
        let layers = inputs.iter().map(|x| net.forward(x, UvMode::On)).collect();
        Self {
            images,
            inputs,
            layers,
        }
    }

    pub fn len(&self) -> usize {
        self.inputs.len()
    }

    /// Whether `record` is test image `i`'s golden result, bit for bit.
    pub fn matches(&self, i: usize, record: &RunRecord) -> bool {
        layers_match(record, &self.layers[i])
    }
}

/// Every layer's outputs and predictor mask equal the golden ones.
pub fn layers_match(record: &RunRecord, golden: &[GoldenLayer]) -> bool {
    record.layers.len() == golden.len()
        && record
            .layers
            .iter()
            .zip(golden)
            .all(|(r, g)| r.output == g.output && r.mask == g.mask)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparsenn_core::engine::{InferenceBackend, KernelBackend};
    use sparsenn_core::linalg::init::seeded_rng;
    use sparsenn_core::model::fixedpoint::FixedNetwork;
    use sparsenn_core::model::{Mlp, PredictedNetwork};

    #[test]
    fn a_corrupted_response_raises_the_error_rate() {
        let mut rng = seeded_rng(5);
        let mlp = Mlp::random(&[48, 64, 10], &mut rng);
        let net =
            FixedNetwork::from_float(&PredictedNetwork::with_random_predictors(mlp, 4, &mut rng));
        let x: Vec<f32> = (0..48).map(|i| ((i % 5) as f32) * 0.2).collect();
        let xq = net.quantize_input(&x);
        let golden = net.forward(&xq, UvMode::On);
        let good = KernelBackend::new().run(&net, &xq, UvMode::On).unwrap();

        let mut tally = Tally::default();
        tally.record(layers_match(&good, &golden));
        assert_eq!(tally.success_rate(), 1.0);

        let mut bad = good.clone();
        let out = &mut bad.layers.last_mut().unwrap().output[0];
        *out = Q6_10::from_raw(out.raw() ^ 1);
        tally.record(layers_match(&bad, &golden));
        assert_eq!((tally.attempted, tally.failed), (2, 1));
        assert_eq!(tally.success_rate(), 0.5);

        let mut no_mask = good.clone();
        no_mask.layers[0].mask = None;
        assert!(
            !layers_match(&no_mask, &golden),
            "a dropped mask is wrong too"
        );
    }
}
