//! Wavefront-pipelining acceptance tests — the contract of ISSUE 5:
//!
//! 1. on a multi-chip oversized MLP (up to the bench's 8-chip point),
//!    the `Wavefront` schedule's per-sample `time_us` is **strictly
//!    below** `Serialized` while outputs, masks and total energy/events
//!    stay **bit-identical** — pipelining reorders time, never
//!    arithmetic;
//! 2. wavefront latency never beats the `InterChipConfig::free()`
//!    no-comm lower bound;
//! 3. the pipelined backend composes unchanged with the `Session` front
//!    end (`TrainedSystem::partitioned_session_pipelined`).
//!
//! The CI `partition-smoke` step runs this file in release mode.

use sparsenn::engine::{InferenceBackend, PartitionedMachine};
use sparsenn::model::fixedpoint::UvMode;
use sparsenn::partition::{InterChipConfig, PipelineMode};
use sparsenn::sim::MachineConfig;
use sparsenn::{SystemBuilder, TrainedSystem, TrainingAlgorithm};

/// The bench's oversized-MLP shape: a first layer that overflows its
/// own (shrunken) chip, so ≥2 chips genuinely split it. 256 rows over
/// 64 PEs needs 4 rows/PE × 784 cols = 3136 words against 1600.
fn oversized_system() -> TrainedSystem {
    let chip = MachineConfig {
        w_mem_bytes: 2 * 1600,
        ..MachineConfig::default()
    };
    SystemBuilder::new(sparsenn::datasets::DatasetKind::Basic)
        .dims(&[784, 256, 10])
        .rank(6)
        .algorithm(TrainingAlgorithm::EndToEnd)
        .train_samples(120)
        .test_samples(30)
        .epochs(1)
        .machine(chip)
        .build()
}

/// Acceptance: on the 8-chip oversized configuration (and the smaller
/// sweep points) wavefront is strictly faster than serialized, with
/// bit-identical outputs, masks and event totals, and the free-link
/// lower bound ordering `free ≤ wavefront < serialized` holds.
#[test]
fn wavefront_overlaps_comm_with_compute_on_the_bench_config() {
    let sys = oversized_system();
    let chip = *sys.machine().config();
    for chips in [2usize, 4, 8] {
        let serialized =
            PartitionedMachine::new(sys.fixed(), chip, chips, InterChipConfig::default()).unwrap();
        let wavefront = PartitionedMachine::with_pipeline(
            sys.fixed(),
            chip,
            chips,
            InterChipConfig::default(),
            PipelineMode::Wavefront,
        )
        .unwrap();
        let free = PartitionedMachine::with_pipeline(
            sys.fixed(),
            chip,
            chips,
            InterChipConfig::free(),
            PipelineMode::Wavefront,
        )
        .unwrap();
        for i in 0..4 {
            let x = sys.fixed().quantize_input(sys.split().test.image(i));
            let s = serialized.run(sys.fixed(), &x, UvMode::On).unwrap();
            let w = wavefront.run(sys.fixed(), &x, UvMode::On).unwrap();
            let f = free.run(sys.fixed(), &x, UvMode::On).unwrap();
            for (l, (sl, wl)) in s.layers.iter().zip(&w.layers).enumerate() {
                assert_eq!(sl.output, wl.output, "{chips} chips sample {i} layer {l}");
                assert_eq!(sl.mask, wl.mask, "{chips} chips sample {i} layer {l} mask");
                assert_eq!(
                    sl.events, wl.events,
                    "{chips} chips sample {i} layer {l}: energy/event sums must be identical"
                );
            }
            assert_eq!(s.output(), f.output(), "free links never change bits");
            assert!(
                w.time_us() < s.time_us(),
                "{chips} chips sample {i}: wavefront {} must be strictly below serialized {}",
                w.time_us(),
                s.time_us()
            );
            assert!(
                w.time_us() >= f.time_us() - 1e-9,
                "{chips} chips sample {i}: wavefront {} cannot beat the no-comm bound {}",
                w.time_us(),
                f.time_us()
            );
        }
    }
}

/// The session front door: `partitioned_session_pipelined` serves the
/// same bits as the serialized session (parallel fold == serial fold),
/// with per-sample latency never above it.
#[test]
fn pipelined_session_composes_with_the_serving_stack() {
    let sys = oversized_system();
    let serial = sys
        .partitioned_session_pipelined(4)
        .unwrap()
        .simulate_batch_serial(10, UvMode::On)
        .unwrap();
    let parallel = sys
        .partitioned_session_pipelined(4)
        .unwrap()
        .simulate_batch(10, UvMode::On)
        .unwrap();
    assert_eq!(
        serial, parallel,
        "parallel fold must match the serial oracle"
    );

    let unpipelined = sys
        .partitioned_session(4)
        .unwrap()
        .simulate_batch(10, UvMode::On)
        .unwrap();
    assert_eq!(serial.fixed_accuracy, unpipelined.fixed_accuracy);
    assert_eq!(serial.samples, unpipelined.samples);
    for (l, (p, s)) in serial.layers.iter().zip(&unpipelined.layers).enumerate() {
        assert_eq!(p.events, s.events, "layer {l}: event totals identical");
        assert!(
            p.time_us <= s.time_us + 1e-9,
            "layer {l}: pipelined {} vs serialized {}",
            p.time_us,
            s.time_us
        );
    }
    assert!(
        serial.time_us() < unpipelined.time_us(),
        "end-to-end: pipelining must hide some comm latency"
    );
}
