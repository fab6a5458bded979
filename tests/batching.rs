//! Cross-request batching contract, end to end through the facade:
//! batched execution is bit-identical to serial runs on every backend,
//! batch timing never loses to the serial loop, and the queue-aware
//! batching simulator turns an amortized service table into a throughput
//! win.

use sparsenn::datasets::DatasetKind;
use sparsenn::engine::{CycleAccurateBackend, GoldenBackend, InferenceBackend};
use sparsenn::model::fixedpoint::UvMode;
use sparsenn::numeric::Q6_10;
use sparsenn::serve::{
    simulate_batched, BatchPolicy, BatchShardSpec, FirstIdle, MetricsMode, Workload,
};
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

fn test_inputs(sys: &TrainedSystem, n: usize) -> Vec<Vec<Q6_10>> {
    let test = &sys.split().test;
    (0..n)
        .map(|i| sys.fixed().quantize_input(test.image(i % test.len())))
        .collect()
}

/// The acceptance criterion: every per-sample record of a batched machine
/// dispatch equals its own serial run exactly, and the batch clock never
/// exceeds the serial sum (amortization only ever removes W work).
#[test]
fn batched_machine_is_bit_identical_to_serial() {
    let sys = small_system();
    let backend = CycleAccurateBackend::new(sys.machine().clone());
    let inputs = test_inputs(&sys, 6);
    for mode in [UvMode::Off, UvMode::On] {
        let serial: Vec<_> = inputs
            .iter()
            .map(|x| backend.run(sys.fixed(), x, mode).unwrap())
            .collect();
        for b in 1..=inputs.len() {
            let rec = backend.run_batch(sys.fixed(), &inputs[..b], mode).unwrap();
            assert_eq!(rec.records.len(), b);
            for (s, (batched, own)) in rec.records.iter().zip(&serial[..b]).enumerate() {
                assert_eq!(batched, own, "B={b} sample {s} ({mode:?})");
            }
            assert!(
                rec.batch_time_us <= rec.serial_time_us() + 1e-9,
                "B={b}: batch {} µs must not exceed serial {} µs",
                rec.batch_time_us,
                rec.serial_time_us()
            );
            assert!(rec.w_reads_amortized <= rec.w_reads_serial);
            assert!(rec.w_read_amortization() >= 1.0);
        }
    }
}

/// Backends without a native batch path serve batches through the default
/// serial loop: same records, batch time exactly the serial sum.
#[test]
fn default_batch_path_is_the_serial_loop() {
    let sys = small_system();
    let backend = GoldenBackend::new();
    let inputs = test_inputs(&sys, 4);
    let serial: Vec<_> = inputs
        .iter()
        .map(|x| backend.run(sys.fixed(), x, UvMode::On).unwrap())
        .collect();
    let rec = backend.run_batch(sys.fixed(), &inputs, UvMode::On).unwrap();
    assert_eq!(rec.records.len(), serial.len());
    for (batched, own) in rec.records.iter().zip(&serial) {
        assert_eq!(batched, own);
    }
    assert!((rec.batch_time_us - rec.serial_time_us()).abs() < 1e-9);
    assert_eq!(rec.w_reads_serial, rec.w_reads_amortized);
}

/// The queue-aware simulator turns an amortized batch-service table into
/// shard throughput under saturation: a batch cap of 4 beats serving
/// every request alone on the same table and load.
#[test]
fn batching_simulator_shows_the_throughput_win() {
    // Batch of b costs 10 + 2(b-1) µs — a strong amortization table.
    let table: Vec<f64> = (1..=4).map(|b| 10.0 + 2.0 * (b as f64 - 1.0)).collect();
    let spec = BatchShardSpec::with_table("shard", table);
    let run = |cap: usize| {
        simulate_batched(
            std::slice::from_ref(&spec),
            &FirstIdle,
            BatchPolicy::SizeOrDeadline {
                max: cap,
                deadline_us: 200.0,
            },
            &Workload::Poisson {
                rate_rps: 250_000.0, // 2.5x the serial capacity of 100k rps
                requests: 2000,
                seed: 99,
            },
            MetricsMode::Streaming,
        )
        .unwrap()
    };
    let serial = run(1);
    let batched = run(4);
    assert_eq!(serial.requests, 2000);
    assert_eq!(batched.requests, 2000);
    assert!(
        batched.throughput_rps > serial.throughput_rps * 1.5,
        "batched {} rps vs serial {} rps",
        batched.throughput_rps,
        serial.throughput_rps
    );
    assert!(batched.mean_batch > 2.0, "saturation fills batches");
    assert!(batched.max_batch <= 4);
}
