//! Quickstart: train a predictor-equipped network, quantize it, run it on
//! the simulated accelerator and compare both UV modes.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use sparsenn::datasets::DatasetKind;
use sparsenn::energy::PowerModel;
use sparsenn::model::fixedpoint::UvMode;
use sparsenn::{SystemBuilder, TrainingAlgorithm};

fn main() {
    // 1. Synthesize MNIST-BASIC, train a 3-layer network with a rank-8
    //    output-sparsity predictor using the paper's end-to-end algorithm.
    println!("training a 784-256-10 network with a rank-8 predictor on synthetic MNIST-BASIC…");
    let system = SystemBuilder::new(DatasetKind::Basic)
        .dims(&[784, 256, 10])
        .rank(8)
        .algorithm(TrainingAlgorithm::EndToEnd)
        .train_samples(800)
        .test_samples(200)
        .epochs(5)
        .build();

    let eval = system.evaluate();
    println!("  test error rate:        {:.2} %", eval.ter);
    println!(
        "  predicted output sparsity (hidden layer): {:.1} %",
        eval.rho[0]
    );

    // 2. Open a serving session on the cycle-accurate backend and run one
    //    test image with the predictor disabled (EIE baseline) and enabled
    //    (SparseNN). Sessions serve any InferenceBackend — swap in
    //    `GoldenBackend` or a `SimdBackend` with one line.
    let session = system.session();
    let model = PowerModel::new(system.machine().config());
    for mode in [UvMode::Off, UvMode::On] {
        let run = session.run_sample(0, mode).expect("sample 0 exists");
        let events = run.total_events();
        let power = model.estimate(&events);
        println!(
            "\n  {:?}: {} cycles, {} W-memory reads, {} MACs",
            mode,
            run.total_cycles(),
            events.w_reads,
            events.macs
        );
        println!(
            "        {:.2} us, {:.2} uJ, {:.0} mW (predicted class: {})",
            power.time_us,
            power.energy_uj,
            power.total_mw,
            run.classify()
        );
    }

    // 3. Batch inference fans out over all cores and folds into the same
    //    summary the serial path produces.
    let batch = session
        .simulate_batch(16, UvMode::On)
        .expect("batch simulation on the default machine");
    println!(
        "\n  batch of {}: {:.1}% fixed-point accuracy, {:.0} mean cycles on the hidden layer",
        batch.samples,
        batch.fixed_accuracy * 100.0,
        batch.layers[0].cycles
    );

    println!(
        "\nThe UV predictor trades a short V/U prediction phase for skipping most of \
         the W-memory traffic — the paper's core claim."
    );
}
