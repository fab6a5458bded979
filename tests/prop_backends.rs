//! One differential property over every execution substrate: the golden
//! backend, the cycle-accurate machine, both SIMD platforms, the native
//! kernel and a 2-chip partitioned machine.
//!
//! Each case draws a network with full-scale operands and a batch of rail
//! inputs, and runs it through `InferenceBackend::run` and `run_batch` in
//! both UV modes. Every record must match `FixedNetwork::forward` bit for
//! bit, every batched record must equal its serial `run`, and a batch may
//! never take longer or read more W words than the serial loop.

use proptest::prelude::*;
use rand::Rng;
use sparsenn::engine::{
    CycleAccurateBackend, GoldenBackend, InferenceBackend, KernelBackend, PartitionedMachine,
    SimdBackend,
};
use sparsenn::linalg::init::seeded_rng;
use sparsenn::linalg::Matrix;
use sparsenn::model::fixedpoint::{FixedNetwork, UvMode};
use sparsenn::model::{DenseLayer, Mlp, PredictedNetwork, Predictor};
use sparsenn::numeric::Q6_10;
use sparsenn::partition::InterChipConfig;
use sparsenn::sim::simd::SimdPlatform;
use sparsenn::sim::MachineConfig;

/// A layer width from 1 to 47 that is not a multiple of 8, so every layer
/// ends in a partial kernel block: the `i`-th such width is
/// `i + 1 + i / 7`.
fn ragged_width() -> impl Strategy<Value = usize> {
    (0usize..42).prop_map(|i| i + 1 + i / 7)
}

/// A network of widths `dims` whose every weight (W, U and V) is `0` or
/// `±32.0`. `+32.0` saturates to `i16::MAX` and `-32.0` is `i16::MIN`, so
/// each product against a rail input is up to 2³⁰ in magnitude and a
/// kernel lane holds only one of them (K = 1). A quarter of the weights
/// are zero, so the signs, masks and live blocks still vary.
fn extreme_net(seed: u64, dims: &[usize], rank: usize) -> FixedNetwork {
    let mut rng = seeded_rng(seed);
    let mut full = |rows: usize, cols: usize| {
        Matrix::from_fn(rows, cols, |_, _| match rng.gen_range(0u8..4) {
            0 => 0.0,
            1 => -32.0,
            _ => 32.0,
        })
    };
    let layers = dims
        .windows(2)
        .map(|d| DenseLayer::new(full(d[1], d[0])))
        .collect();
    let predictors = dims[..dims.len() - 1]
        .windows(2)
        .map(|d| Predictor::new(full(d[1], rank), full(rank, d[0])))
        .collect();
    FixedNetwork::from_float(&PredictedNetwork::new(Mlp::new(layers), predictors))
}

/// Inputs at the saturation rails (±32.0 and beyond) or zero.
fn rail_input(seed: u64, len: usize) -> Vec<f32> {
    let mut rng = seeded_rng(seed ^ 0xBEEF);
    (0..len)
        .map(|_| match rng.gen_range(0u8..5) {
            0 => 0.0,
            1 => -32.0,
            2 => -1.0e4,
            3 => 31.999,
            _ => 1.0e4,
        })
        .collect()
}

/// Every substrate, the partitioned machine planned for `net`.
fn backends(net: &FixedNetwork) -> Vec<Box<dyn InferenceBackend>> {
    let chips =
        PartitionedMachine::new(net, MachineConfig::default(), 2, InterChipConfig::default())
            .expect("a network this small fits two chips");
    vec![
        Box::new(GoldenBackend::new()),
        Box::new(CycleAccurateBackend::default()),
        Box::new(SimdBackend::new(SimdPlatform::dnn_engine())),
        Box::new(SimdBackend::new(SimdPlatform::lradnn(4))),
        Box::new(KernelBackend::new()),
        Box::new(chips),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// One to three layers, batches of 1 to 9, both UV modes.
    #[test]
    fn every_backend_matches_the_golden_model(
        seed in 0u64..10_000,
        dims in prop::collection::vec(ragged_width(), 2..5),
        rank in 1usize..6,
        b in 1usize..10,
    ) {
        let net = extreme_net(seed, &dims, rank);
        let inputs: Vec<Vec<Q6_10>> = (0..b)
            .map(|s| net.quantize_input(&rail_input(seed ^ ((s as u64) << 20), dims[0])))
            .collect();
        for backend in backends(&net) {
            let name = backend.name();
            for mode in [UvMode::Off, UvMode::On] {
                let batch = backend.run_batch(&net, &inputs, mode).unwrap();
                prop_assert_eq!(batch.batch_size(), b, "{}", name);
                for (s, x) in inputs.iter().enumerate() {
                    let golden = net.forward(x, mode);
                    let run = backend.run(&net, x, mode).unwrap();
                    prop_assert_eq!(run.layers.len(), golden.len(), "{}", name);
                    for (l, (got, want)) in run.layers.iter().zip(&golden).enumerate() {
                        prop_assert_eq!(&got.output, &want.output,
                            "{} sample {} layer {} output ({:?})", name, s, l, mode);
                        prop_assert_eq!(&got.mask, &want.mask,
                            "{} sample {} layer {} mask ({:?})", name, s, l, mode);
                    }
                    prop_assert_eq!(&batch.records[s], &run,
                        "{} sample {} ({:?}): batching changed the record", name, s, mode);
                }
                prop_assert!(
                    batch.batch_time_us <= batch.serial_time_us() + 1e-9,
                    "{} ({:?}): batch slower than serial", name, mode
                );
                prop_assert!(
                    batch.w_reads_amortized <= batch.w_reads_serial,
                    "{} ({:?}): batch read more W than serial", name, mode
                );
            }
        }
    }
}
