//! The engine contract: every substrate behind [`InferenceBackend`] is
//! interchangeable, batches parallelize without changing results, and no
//! input reaches a panic through the public inference API.

use proptest::prelude::*;
use sparsenn::datasets::DatasetKind;
use sparsenn::engine::{CycleAccurateBackend, GoldenBackend, InferenceBackend, SimdBackend};
use sparsenn::model::fixedpoint::UvMode;
use sparsenn::sim::simd::SimdPlatform;
use sparsenn::{SparseNnError, SystemBuilder, TrainedSystem, TrainingAlgorithm};

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

#[test]
fn out_of_range_sample_returns_err_on_every_backend() {
    let sys = small_system();
    let backends: Vec<Box<dyn InferenceBackend>> = vec![
        Box::new(CycleAccurateBackend::default()),
        Box::new(GoldenBackend::new()),
        Box::new(SimdBackend::new(SimdPlatform::dnn_engine())),
    ];
    for backend in backends {
        let session = sys.session_with(backend);
        let name = session.backend_name().to_string();
        assert_eq!(
            session.run_sample(40, UvMode::On).unwrap_err(),
            SparseNnError::SampleOutOfRange { index: 40, len: 40 },
            "{name}"
        );
        assert!(session.run_sample(39, UvMode::On).is_ok(), "{name}");
    }
    // And through the TrainedSystem facade.
    assert!(matches!(
        sys.simulate_sample(usize::MAX, UvMode::On),
        Err(SparseNnError::SampleOutOfRange { .. })
    ));
}

#[test]
fn wrong_width_input_returns_err_not_panic() {
    let sys = small_system();
    let session = sys.session();
    assert_eq!(
        session.run_input(&[0.5; 10], UvMode::On).unwrap_err(),
        SparseNnError::InputWidthMismatch {
            expected: 784,
            got: 10
        }
    );
}

#[test]
fn empty_batch_yields_well_defined_summary() {
    let sys = small_system();
    for backend in [
        Box::new(GoldenBackend::new()) as Box<dyn InferenceBackend>,
        Box::new(CycleAccurateBackend::default()),
    ] {
        let summary = sys
            .session_with(backend)
            .simulate_batch(0, UvMode::On)
            .unwrap();
        assert_eq!(summary.samples, 0);
        assert_eq!(summary.fixed_accuracy, 0.0);
        assert_eq!(
            summary.layers.len(),
            2,
            "one entry per layer even when empty"
        );
        for layer in &summary.layers {
            assert_eq!(layer.cycles, 0.0);
            assert_eq!(layer.events.macs, 0);
        }
    }
}

/// n workers on one cycle-accurate backend serve a batch as n identical
/// machines behind one queue: every worker count folds the serial summary
/// bit for bit.
#[test]
fn parallel_batch_matches_serial_batch_exactly() {
    let sys = small_system();
    for mode in [UvMode::Off, UvMode::On] {
        let serial = sys.session().simulate_batch_serial(24, mode).unwrap();
        // Pinned counts run the multi-threaded path even on a 1-core host.
        for workers in [1, 2, 3, 4, 8] {
            let parallel = sys
                .session()
                .with_workers(workers)
                .simulate_batch(24, mode)
                .unwrap();
            assert_eq!(
                serial, parallel,
                "{workers} workers, {mode:?}: summary must be bit-identical"
            );
        }
    }
    // Oversized requests clamp identically too.
    let session = sys.session().with_workers(4);
    let serial = session.simulate_batch_serial(10_000, UvMode::On).unwrap();
    let parallel = session.simulate_batch(10_000, UvMode::On).unwrap();
    assert_eq!(serial.samples, 40);
    assert_eq!(serial, parallel);
}

/// More workers than samples clamp to one worker per sample and still
/// fold the serial summary bit for bit.
#[test]
fn more_workers_than_samples_folds_the_serial_summary() {
    let sys = small_system();
    for mode in [UvMode::Off, UvMode::On] {
        let serial = sys.session().simulate_batch_serial(24, mode).unwrap();
        let parallel = sys
            .session()
            .with_workers(64)
            .simulate_batch(24, mode)
            .unwrap();
        assert_eq!(serial, parallel, "64 workers, {mode:?}");
    }
}

/// A worker session's per-layer latency is the machine clock model applied
/// to the per-sample mean cycles (both are means over the same records).
#[test]
fn worker_session_latency_flows_into_the_summary() {
    let sys = small_system();
    let summary = sys
        .session()
        .with_workers(3)
        .simulate_batch(12, UvMode::On)
        .unwrap();
    let cfg = sys.machine().config();
    for layer in &summary.layers {
        assert!(layer.time_us > 0.0);
        assert!(
            (layer.time_us - cfg.time_us(1) * layer.cycles).abs() < 1e-9,
            "layer latency {} vs clock model {}",
            layer.time_us,
            cfg.time_us(1) * layer.cycles
        );
    }
    assert!(summary.time_us() > 0.0);
    assert!(summary.energy_uj() > 0.0);
}

#[test]
fn streaming_delivers_every_sample_in_order() {
    let sys = small_system();
    let session = sys.session().with_workers(3);
    let mut seen = Vec::new();
    let summary = session
        .stream_batch(12, UvMode::On, |i, record| {
            assert!(!record.layers.is_empty());
            seen.push(i);
        })
        .unwrap();
    assert_eq!(seen, (0..12).collect::<Vec<_>>());
    assert_eq!(summary.samples, 12);
}

/// A substrate that refuses every request — exercises the parallel
/// collector's early-exit path.
struct AlwaysFailingBackend;

impl InferenceBackend for AlwaysFailingBackend {
    fn name(&self) -> &str {
        "always-failing"
    }
    fn run(
        &self,
        _net: &sparsenn::model::fixedpoint::FixedNetwork,
        _input: &[sparsenn::numeric::Q6_10],
        _mode: UvMode,
    ) -> Result<sparsenn::engine::RunRecord, SparseNnError> {
        Err(SparseNnError::EmptyNetwork)
    }
}

#[test]
fn failing_backend_surfaces_first_error_without_hanging() {
    let sys = small_system();
    let session = sys
        .session_with(Box::new(AlwaysFailingBackend))
        .with_workers(4);
    // Workers race ahead; the collector must return the lowest-indexed
    // failure and wind the pool down cleanly.
    assert_eq!(
        session.simulate_batch(16, UvMode::On).unwrap_err(),
        SparseNnError::EmptyNetwork
    );
    // The serial oracle agrees.
    assert_eq!(
        session.simulate_batch_serial(16, UvMode::On).unwrap_err(),
        SparseNnError::EmptyNetwork
    );
}

/// A substrate that panics — the engine must contain the unwind instead of
/// deadlocking the pool or re-raising through `thread::scope`.
struct PanickingBackend;

impl InferenceBackend for PanickingBackend {
    fn name(&self) -> &str {
        "panicking"
    }
    fn run(
        &self,
        _net: &sparsenn::model::fixedpoint::FixedNetwork,
        _input: &[sparsenn::numeric::Q6_10],
        _mode: UvMode,
    ) -> Result<sparsenn::engine::RunRecord, SparseNnError> {
        panic!("backend blew up");
    }
}

#[test]
fn panicking_backend_becomes_worker_panicked_error() {
    let sys = small_system();
    let session = sys.session_with(Box::new(PanickingBackend)).with_workers(4);
    // Batch larger than the permit window: without panic containment this
    // deadlocks (the unwinding worker keeps its permit forever).
    assert_eq!(
        session.simulate_batch(40, UvMode::On).unwrap_err(),
        SparseNnError::WorkerPanicked
    );
}

#[test]
fn batch_through_the_facade_matches_the_session() {
    let sys = small_system();
    let facade = sys.simulate_batch(8, UvMode::On).unwrap();
    let session = sys.session().simulate_batch(8, UvMode::On).unwrap();
    assert_eq!(facade, session);
}

/// A substrate that replays one fixed record for every input — makes batch
/// unit arithmetic exactly predictable.
struct ConstantBackend(sparsenn::engine::RunRecord);

impl InferenceBackend for ConstantBackend {
    fn name(&self) -> &str {
        "constant"
    }
    fn run(
        &self,
        _net: &sparsenn::model::fixedpoint::FixedNetwork,
        _input: &[sparsenn::numeric::Q6_10],
        _mode: UvMode,
    ) -> Result<sparsenn::engine::RunRecord, SparseNnError> {
        Ok(self.0.clone())
    }
}

/// Unit-consistency regression (the Table IV pricing bug): a 2-sample
/// batch must report exactly 2× the 1-sample batch-total energy, while the
/// per-sample means — cycles, latency, energy — stay identical.
#[test]
fn batch_summary_units_are_consistent() {
    let sys = small_system();
    let template = sys.session().run_sample(0, UvMode::On).unwrap();
    assert!(template.total_cycles() > 0 && template.time_us() > 0.0);
    let session = sys.session_with(Box::new(ConstantBackend(template)));

    let one = session.simulate_batch(1, UvMode::On).unwrap();
    let two = session.simulate_batch(2, UvMode::On).unwrap();
    assert_eq!(one.layers.len(), two.layers.len());
    for (a, b) in one.layers.iter().zip(&two.layers) {
        // Batch totals double with the batch…
        assert_eq!(b.power.energy_uj, 2.0 * a.power.energy_uj);
        assert_eq!(b.power.time_us, 2.0 * a.power.time_us);
        assert_eq!(b.events.cycles, 2 * a.events.cycles);
        assert_eq!(b.events.w_reads, 2 * a.events.w_reads);
        // …while per-sample means do not move.
        assert_eq!(b.cycles, a.cycles);
        assert_eq!(b.vu_cycles, a.vu_cycles);
        assert_eq!(b.time_us, a.time_us);
        assert_eq!(b.energy_uj, a.energy_uj);
        // And the per-sample energy is exactly the batch total averaged.
        assert_eq!(b.energy_uj, b.power.energy_uj / 2.0);
        // Power is a rate: invariant to batch size.
        assert_eq!(b.power.total_mw, a.power.total_mw);
    }
    assert_eq!(two.time_us(), one.time_us());
    assert_eq!(two.energy_uj(), one.energy_uj());
}

/// Technology-node regression: a 28 nm backend's summary must be priced at
/// its own node, not the paper's hardcoded 65 nm.
#[test]
fn non_65nm_backend_is_priced_at_its_own_node() {
    use sparsenn::energy::{PowerModel, TechNode};

    let sys = small_system();
    let session = sys.session_with(Box::new(SimdBackend::new(SimdPlatform::dnn_engine())));
    let summary = session.simulate_batch(4, UvMode::On).unwrap();

    // The SIMD backend carries no machine config, so events are priced on
    // the serving machine's SRAM geometry — but at DNN-Engine's 28 nm.
    let cfg = sys.machine().config();
    let at_28 = PowerModel::at_node(cfg, TechNode::n28());
    let at_65 = PowerModel::new(cfg);
    for layer in &summary.layers {
        assert_eq!(layer.power, at_28.estimate(&layer.events));
        assert_ne!(
            layer.power,
            at_65.estimate(&layer.events),
            "28 nm events must not be billed at 65 nm"
        );
    }
}

/// A substrate that reports one layer too many — the accumulator must
/// refuse instead of silently dropping the extra layer's counters.
struct ExtraLayerBackend;

impl InferenceBackend for ExtraLayerBackend {
    fn name(&self) -> &str {
        "extra-layer"
    }
    fn run(
        &self,
        net: &sparsenn::model::fixedpoint::FixedNetwork,
        input: &[sparsenn::numeric::Q6_10],
        mode: UvMode,
    ) -> Result<sparsenn::engine::RunRecord, SparseNnError> {
        let mut record = GoldenBackend::new().run(net, input, mode)?;
        let last = record.layers.last().expect("non-empty").clone();
        record.layers.push(last);
        Ok(record)
    }
}

#[test]
fn layer_count_mismatch_is_an_error_not_a_silent_truncation() {
    let sys = small_system();
    let expected_err = SparseNnError::LayerCountMismatch {
        expected: 2,
        got: 3,
    };
    let session = sys
        .session_with(Box::new(ExtraLayerBackend))
        .with_workers(3);
    assert_eq!(
        session.simulate_batch(6, UvMode::On).unwrap_err(),
        expected_err
    );
    assert_eq!(
        session.simulate_batch_serial(6, UvMode::On).unwrap_err(),
        expected_err
    );
}

/// A substrate with per-sample injected failures and delays (the sample is
/// identified by its quantized input). Forces out-of-order completion to
/// exercise the parallel collector's reorder/first-error logic.
struct FlakyBackend {
    inputs: Vec<Vec<sparsenn::numeric::Q6_10>>,
    fail: Vec<bool>,
    delay_us: Vec<u64>,
}

impl InferenceBackend for FlakyBackend {
    fn name(&self) -> &str {
        "flaky"
    }
    fn run(
        &self,
        net: &sparsenn::model::fixedpoint::FixedNetwork,
        input: &[sparsenn::numeric::Q6_10],
        mode: UvMode,
    ) -> Result<sparsenn::engine::RunRecord, SparseNnError> {
        let i = self
            .inputs
            .iter()
            .position(|x| x.as_slice() == input)
            .expect("input belongs to the prepared test set");
        std::thread::sleep(std::time::Duration::from_micros(self.delay_us[i]));
        if self.fail[i] {
            return Err(SparseNnError::LayerDoesNotFit {
                layer: i,
                reason: "injected failure".into(),
            });
        }
        GoldenBackend::new().run(net, input, mode)
    }
}

fn shared_system() -> &'static TrainedSystem {
    static SYS: std::sync::OnceLock<TrainedSystem> = std::sync::OnceLock::new();
    SYS.get_or_init(small_system)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The documented `stream_batch` contract under contention: whatever
    /// order workers finish in, the returned error is the *lowest-indexed*
    /// failing sample's, and `on_sample` has fired exactly for every
    /// earlier index — no more, no fewer, in order.
    #[test]
    fn stream_batch_reports_lowest_failing_index_under_contention(
        seed in 0u64..10_000,
        workers in 2usize..6,
        fail_pct in 5u8..40,
    ) {
        use rand::Rng;
        use sparsenn::linalg::init::seeded_rng;

        let sys = shared_system();
        let n = 16usize;
        let inputs: Vec<Vec<sparsenn::numeric::Q6_10>> = (0..n)
            .map(|i| sys.fixed().quantize_input(sys.split().test.image(i)))
            .collect();
        // Index lookup by input requires distinct inputs; the synthetic
        // test images are.
        for a in 0..n {
            for b in a + 1..n {
                prop_assert!(inputs[a] != inputs[b], "samples {a} and {b} collide");
            }
        }
        let mut rng = seeded_rng(seed);
        let fail: Vec<bool> = (0..n).map(|_| rng.gen_range(0u8..100) < fail_pct).collect();
        // Early samples sleep longer, so later samples routinely complete
        // first — the reorder buffer and first-error race both engage.
        let delay_us: Vec<u64> = (0..n)
            .map(|i| rng.gen_range(0u64..200) + if i < n / 2 { 300 } else { 0 })
            .collect();
        let first_fail = fail.iter().position(|&f| f);

        let session = sys
            .session_with(Box::new(FlakyBackend {
                inputs,
                fail: fail.clone(),
                delay_us,
            }))
            .with_workers(workers);
        let mut seen = Vec::new();
        let result = session.stream_batch(n, UvMode::On, |i, _| seen.push(i));
        match first_fail {
            None => {
                prop_assert!(result.is_ok());
                prop_assert_eq!(seen, (0..n).collect::<Vec<_>>());
            }
            Some(k) => {
                prop_assert_eq!(
                    result.unwrap_err(),
                    SparseNnError::LayerDoesNotFit {
                        layer: k,
                        reason: "injected failure".into(),
                    }
                );
                prop_assert_eq!(seen, (0..k).collect::<Vec<_>>());
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The cycle-accurate backend stays bit-exact with the golden
    /// fixed-point backend *through the trait*, for random networks,
    /// inputs and both UV modes — the contract that makes substrates
    /// interchangeable.
    #[test]
    fn cycle_accurate_equals_golden_through_the_trait(
        seed in 0u64..10_000,
        hidden in 8usize..80,
        rank in 1usize..5,
        sparsity in 0u8..100,
        uv_on in any::<bool>(),
    ) {
        use sparsenn::linalg::init::seeded_rng;
        use sparsenn::model::fixedpoint::FixedNetwork;
        use sparsenn::model::{Mlp, PredictedNetwork};
        use rand::Rng;

        let mut rng = seeded_rng(seed);
        let mlp = Mlp::random(&[24, hidden, 10], &mut rng);
        let net = FixedNetwork::from_float(&PredictedNetwork::with_random_predictors(
            mlp, rank, &mut rng,
        ));
        let x: Vec<f32> = (0..24)
            .map(|_| {
                if rng.gen_range(0u8..100) < sparsity {
                    0.0
                } else {
                    rng.gen_range(-2.0f32..2.0)
                }
            })
            .collect();
        let xq = net.quantize_input(&x);
        let mode = if uv_on { UvMode::On } else { UvMode::Off };

        let cycle: Box<dyn InferenceBackend> = Box::new(CycleAccurateBackend::default());
        let golden: Box<dyn InferenceBackend> = Box::new(GoldenBackend::new());
        let a = cycle.run(&net, &xq, mode).unwrap();
        let b = golden.run(&net, &xq, mode).unwrap();
        prop_assert_eq!(a.layers.len(), b.layers.len());
        for (l, (ca, gb)) in a.layers.iter().zip(&b.layers).enumerate() {
            prop_assert_eq!(&ca.output, &gb.output, "layer {} output differs", l);
            prop_assert_eq!(&ca.mask, &gb.mask, "layer {} mask differs", l);
        }
    }
}
