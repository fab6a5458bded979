//! Acceptance tests for the native CPU kernel backend: through the public
//! facade, the prescan + block-skip kernel is interchangeable with every
//! other substrate — bit-exact outputs and bit-identical batches.

use sparsenn::datasets::DatasetKind;
use sparsenn::engine::{GoldenBackend, InferenceBackend, KernelBackend};
use sparsenn::kernel::{SparseKernel, Strategy, DEFAULT_BLOCK};
use sparsenn::model::fixedpoint::UvMode;
use sparsenn::{SystemBuilder, TrainedSystem, TrainingAlgorithm};

fn small_system() -> TrainedSystem {
    SystemBuilder::new(DatasetKind::Basic)
        .dims(&[784, 48, 10])
        .rank(5)
        .algorithm(TrainingAlgorithm::EndToEnd)
        .train_samples(120)
        .test_samples(40)
        .epochs(2)
        .build()
}

fn shared_system() -> &'static TrainedSystem {
    static SYS: std::sync::OnceLock<TrainedSystem> = std::sync::OnceLock::new();
    SYS.get_or_init(small_system)
}

/// The kernel backend's outputs and masks equal the golden backend's on
/// real trained weights and real test images, in both UV modes.
#[test]
fn kernel_backend_equals_golden_on_trained_system() {
    let sys = shared_system();
    let kernel: Box<dyn InferenceBackend> = Box::new(KernelBackend::new());
    let golden: Box<dyn InferenceBackend> = Box::new(GoldenBackend::new());
    for mode in [UvMode::Off, UvMode::On] {
        for i in 0..8 {
            let x = sys.fixed().quantize_input(sys.split().test.image(i));
            let a = kernel.run(sys.fixed(), &x, mode).unwrap();
            let b = golden.run(sys.fixed(), &x, mode).unwrap();
            assert_eq!(a.layers.len(), b.layers.len());
            for (l, (ka, gb)) in a.layers.iter().zip(&b.layers).enumerate() {
                assert_eq!(ka.output, gb.output, "{mode:?} sample {i} layer {l}");
                assert_eq!(ka.mask, gb.mask, "{mode:?} sample {i} layer {l} mask");
            }
        }
    }
}

/// `TrainedSystem::kernel_session` classifies exactly like the golden
/// session — the kernel slots into the session/fleet plane unchanged.
#[test]
fn kernel_session_classifies_like_golden_session() {
    let sys = shared_system();
    let ks = sys.kernel_session();
    let gs = sys.session_with(Box::new(GoldenBackend::new()));
    assert!(ks.backend_name().starts_with("kernel-cpu-b"));
    for i in 0..12 {
        let a = ks.run_sample(i, UvMode::On).unwrap();
        let b = gs.run_sample(i, UvMode::On).unwrap();
        assert_eq!(
            a.layers.last().unwrap().output,
            b.layers.last().unwrap().output,
            "sample {i}"
        );
    }
    // And the whole-batch accuracy agrees.
    let ka = ks.simulate_batch(40, UvMode::On).unwrap();
    let ga = gs.simulate_batch(40, UvMode::On).unwrap();
    assert_eq!(ka.fixed_accuracy, ga.fixed_accuracy);
}

/// The native batched path is bit-identical to serial runs for every
/// batch size 1..=4, in both UV modes — through the backend trait.
#[test]
fn kernel_run_batch_is_bit_identical_to_serial() {
    let sys = shared_system();
    let kb = KernelBackend::new();
    for mode in [UvMode::Off, UvMode::On] {
        for b in 1..=4usize {
            let inputs: Vec<Vec<sparsenn::numeric::Q6_10>> = (0..b)
                .map(|i| sys.fixed().quantize_input(sys.split().test.image(i)))
                .collect();
            let batch = kb.run_batch(sys.fixed(), &inputs, mode).unwrap();
            assert_eq!(batch.records.len(), b, "{mode:?} B={b}");
            for (i, x) in inputs.iter().enumerate() {
                let serial = kb.run(sys.fixed(), x, mode).unwrap();
                assert_eq!(batch.records[i], serial, "{mode:?} B={b} sample {i}");
            }
        }
    }
}

/// Dense and prescan strategies agree bit for bit on the raw kernel (the
/// speedup claim in the bench plane compares like with like).
#[test]
fn dense_and_prescan_strategies_agree_on_trained_weights() {
    let sys = shared_system();
    let kernel = SparseKernel::pack(sys.fixed(), DEFAULT_BLOCK);
    let mut s = kernel.scratch();
    for mode in [UvMode::Off, UvMode::On] {
        for i in 0..6 {
            let x = sys.fixed().quantize_input(sys.split().test.image(i));
            let a = kernel.run(&x, mode, Strategy::Prescan, &mut s);
            let b = kernel.run(&x, mode, Strategy::Dense, &mut s);
            assert_eq!(a.output(), b.output(), "{mode:?} sample {i}");
            assert_eq!(a.classify(), b.classify(), "{mode:?} sample {i}");
            // Prescan never touches more W words per active row than a
            // whole padded dense row.
            for (l, (pa, da)) in a.layers.iter().zip(&b.layers).enumerate() {
                let padded = (pa.stats.cols as usize).div_ceil(DEFAULT_BLOCK) * DEFAULT_BLOCK;
                assert!(
                    pa.stats.w_words <= pa.stats.active_rows * padded as u64,
                    "layer {l}: prescan read past the padded row"
                );
                assert_eq!(pa.stats.rows, da.stats.rows);
            }
        }
    }
}
