//! Cross-crate integration: the full pipeline from synthetic data to
//! simulated silicon.

use sparsenn::datasets::DatasetKind;
use sparsenn::model::fixedpoint::UvMode;
use sparsenn::model::{PredictorActivation, Tape};
use sparsenn::{SystemBuilder, TrainingAlgorithm};

const ALGORITHMS: [TrainingAlgorithm; 3] = [
    TrainingAlgorithm::EndToEnd,
    TrainingAlgorithm::Svd,
    TrainingAlgorithm::NoUv,
];

fn small_builder(alg: TrainingAlgorithm) -> SystemBuilder {
    SystemBuilder::new(DatasetKind::Basic)
        .dims(&[784, 64, 10])
        .rank(6)
        .algorithm(alg)
        .train_samples(150)
        .test_samples(50)
        .epochs(3)
}

fn small_system(alg: TrainingAlgorithm) -> sparsenn::TrainedSystem {
    small_builder(alg).build()
}

#[test]
fn trained_system_beats_chance_and_simulates_exactly() {
    let sys = small_system(TrainingAlgorithm::EndToEnd);
    let ter = sys.evaluate().ter;
    assert!(ter < 60.0, "TER {ter}% is at chance level");

    // The cycle-level machine must agree with the golden model bit for bit
    // on real trained weights, both modes, several samples.
    for i in 0..5 {
        let x = sys.fixed().quantize_input(sys.split().test.image(i));
        for mode in [UvMode::Off, UvMode::On] {
            let run = sys.machine().run_network(sys.fixed(), &x, mode).unwrap();
            let golden = sys.fixed().forward(&x, mode);
            for (l, (r, g)) in run.layers.iter().zip(&golden).enumerate() {
                assert_eq!(r.output, g.output, "sample {i} layer {l} {mode:?}");
                assert_eq!(r.mask, g.mask, "sample {i} layer {l} mask {mode:?}");
            }
        }
    }
}

/// A trained system is rebuilt from its seeded builder, never saved: two
/// builds of one `SystemBuilder` quantize to the same network and
/// simulate to the identical summary, for every training algorithm.
#[test]
fn pipeline_is_deterministic_end_to_end() {
    for alg in ALGORITHMS {
        let builder = small_builder(alg);
        let a = builder.clone().build();
        let b = builder.build();
        assert_eq!(
            a.network(),
            b.network(),
            "{alg}: training must be bit-reproducible"
        );
        assert_eq!(a.fixed(), b.fixed(), "{alg}");
        assert_eq!(
            a.simulate_batch(8, UvMode::On).unwrap(),
            b.simulate_batch(8, UvMode::On).unwrap(),
            "{alg}"
        );
    }
}

#[test]
fn all_three_algorithms_flow_through_the_whole_stack() {
    for alg in ALGORITHMS {
        let sys = small_system(alg);
        let run = sys.simulate_sample(0, UvMode::On).unwrap();
        assert_eq!(run.layers.len(), 2, "{alg}: two weight layers");
        assert!(run.total_cycles() > 0, "{alg}");
        let batch = sys.simulate_batch(2, UvMode::On).unwrap();
        assert!(batch.layers[0].power.total_mw > 0.0, "{alg}");
    }
}

#[test]
fn quantized_accuracy_tracks_float_accuracy() {
    let sys = small_system(TrainingAlgorithm::EndToEnd);
    let n = 30usize;
    let mut float_correct = 0usize;
    let mut fixed_correct = 0usize;
    for i in 0..n {
        let img = sys.split().test.image(i);
        let label = sys.split().test.label(i) as usize;
        let net = sys.network();
        let float = Tape::record(
            net.mlp(),
            net.predictors(),
            img,
            PredictorActivation::Indicator,
        );
        let float_pred = sparsenn::linalg::vector::argmax(&float.logits).unwrap();
        let xq = sys.fixed().quantize_input(img);
        let fixed_pred = sys.fixed().classify(&xq, UvMode::On);
        float_correct += usize::from(float_pred == label);
        fixed_correct += usize::from(fixed_pred == label);
    }
    let diff = (float_correct as i64 - fixed_correct as i64).unsigned_abs() as usize;
    assert!(
        diff <= n / 5,
        "Q6.10 quantization changed accuracy too much: float {float_correct}/{n}, fixed {fixed_correct}/{n}"
    );
}

#[test]
fn predictor_gating_reduces_work_on_every_hidden_layer() {
    let sys = small_system(TrainingAlgorithm::EndToEnd);
    let off = sys.simulate_batch(3, UvMode::Off).unwrap();
    let on = sys.simulate_batch(3, UvMode::On).unwrap();
    // Hidden layer: fewer W reads with the predictor on; some U/V reads paid.
    assert!(on.layers[0].events.w_reads < off.layers[0].events.w_reads);
    assert!(on.layers[0].events.u_reads > 0);
    assert_eq!(off.layers[0].events.u_reads, 0);
    // Classifier layer carries no predictor in either mode.
    assert_eq!(on.layers[1].vu_cycles, 0.0);
}
