//! Golden snapshots of the cycle-accurate machine.
//!
//! Every scenario runs on one small fixed-seed system and compares the
//! `{:#?}` dump of its result with a file under `tests/golden/`. The dumps
//! carry outputs, predictor masks, per-layer cycles, activity counters,
//! per-PE busy cycles, the row-availability profile and the priced energy.
//! `Debug` prints every f64 in shortest round-trip form, so equal text
//! means equal bits: a change to the machine that moves one cycle, one
//! event or one output bit shows up here. The scenarios are the three
//! `simulate_batch_serial` arms of the benchmark's `cycle_sim` workload,
//! single-sample runs in both UV modes, and one batched run whose union
//! W pass goes through an externally forced predictor verdict. Besides the
//! paper's default machine, they pin non-default machines where flow
//! control binds hardest: the `ablation_noc` study's fat layer over its
//! activation-queue and router-buffer sweeps, and the system's network on
//! multi-cycle hops, a 16-PE radix-2 tree and shallow queues. The files
//! pin the machine's behaviour; they are never rewritten by the test.

use sparsenn::datasets::DatasetKind;
use sparsenn::engine::{CycleAccurateBackend, InferenceBackend};
use sparsenn::linalg::init::seeded_rng;
use sparsenn::model::fixedpoint::{FixedNetwork, UvMode};
use sparsenn::model::Mlp;
use sparsenn::noc::NocConfig;
use sparsenn::sim::{Machine, MachineConfig};
use sparsenn::train::TrainConfig;
use sparsenn::{SystemBuilder, TrainedSystem, TrainingAlgorithm};
use std::fmt::Write as _;
use std::sync::OnceLock;

/// Test images behind each summary (the `cycle_sim` workload's reference
/// count).
const SAMPLES: usize = 8;

/// Compares `actual` with `tests/golden/<name>`, reporting the first
/// line that differs.
fn check(name: &str, actual: &str) {
    let path = format!("{}/tests/golden/{name}", env!("CARGO_MANIFEST_DIR"));
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {path}: {e}"));
    if expected == actual {
        return;
    }
    let (line, want, got) = expected
        .lines()
        .zip(actual.lines())
        .enumerate()
        .find(|(_, (a, b))| a != b)
        .map(|(i, (a, b))| (i + 1, a, b))
        .unwrap_or((
            expected.lines().count().min(actual.lines().count()) + 1,
            "<length differs>",
            "<length differs>",
        ));
    panic!(
        "{name} differs from its golden file at line {line}:\n  golden: {want}\n  actual: {got}"
    );
}

/// A 784-160-96-10 network with two predicted hidden layers, trained for
/// one epoch on 120 images; 16 test images. Each of the 64 PEs holds two
/// or three rows of layer 0 and one or two of layer 1, so the order in
/// which a PE walks its rows shows in `row_ready`.
fn system() -> &'static TrainedSystem {
    static SYSTEM: OnceLock<TrainedSystem> = OnceLock::new();
    SYSTEM.get_or_init(|| {
        SystemBuilder::new(DatasetKind::Basic)
            .dims(&[784, 160, 96, 10])
            .rank(4)
            .algorithm(TrainingAlgorithm::EndToEnd)
            .train_samples(120)
            .test_samples(16)
            .train_config(TrainConfig {
                epochs: 1,
                seed: 2018,
                ..TrainConfig::default()
            })
            .build()
    })
}

#[test]
fn single_chip_uv_on_summary() {
    let s = system()
        .session()
        .simulate_batch_serial(SAMPLES, UvMode::On)
        .unwrap();
    check("cycle_single_uv_on.txt", &format!("{s:#?}\n"));
}

#[test]
fn single_chip_uv_off_summary() {
    let s = system()
        .session()
        .simulate_batch_serial(SAMPLES, UvMode::Off)
        .unwrap();
    check("cycle_single_uv_off.txt", &format!("{s:#?}\n"));
}

#[test]
fn two_chip_pipelined_uv_on_summary() {
    let s = system()
        .partitioned_session_pipelined(2)
        .unwrap()
        .simulate_batch_serial(SAMPLES, UvMode::On)
        .unwrap();
    check("cycle_pipelined2_uv_on.txt", &format!("{s:#?}\n"));
}

#[test]
fn per_sample_runs_in_both_modes() {
    let sys = system();
    for (mode, name) in [
        (UvMode::On, "cycle_samples_uv_on.txt"),
        (UvMode::Off, "cycle_samples_uv_off.txt"),
    ] {
        let runs = [0, 1].map(|i| sys.simulate_sample(i, mode).unwrap());
        check(name, &format!("{runs:#?}\n"));
    }
}

#[test]
fn batch_of_four_with_a_union_w_pass() {
    let sys = system();
    let inputs: Vec<_> = (0..4)
        .map(|i| sys.fixed().quantize_input(sys.split().test.image(i)))
        .collect();
    let backend = CycleAccurateBackend::new(sys.machine().clone());
    let batch = backend.run_batch(sys.fixed(), &inputs, UvMode::On).unwrap();
    check("cycle_batch4_uv_on.txt", &format!("{batch:#?}\n"));
}

/// The `ablation_noc` study's fat 16×784 layer (one output row per four
/// PEs, so delivery bounds throughput) on its fixed input, run alone in
/// `uv_off` on each machine of its two sweeps: activation-queue depths
/// 1, 2, 4 and 16, then router-buffer capacities 1, 2 and 8.
#[test]
fn fat_layer_over_the_flow_control_sweeps() {
    let mlp = Mlp::random(&[784, 16], &mut seeded_rng(0xB0FFE2));
    let net = FixedNetwork::from_mlp(&mlp);
    let x: Vec<f32> = (0..784).map(|i| ((i * 37) % 97) as f32 / 97.0).collect();
    let xq = net.quantize_input(&x);
    let d = MachineConfig::default();
    let depths = [1usize, 2, 4, 16].map(|act_queue_depth| MachineConfig {
        act_queue_depth,
        ..d
    });
    let capacities = [1usize, 2, 8].map(|queue_capacity| MachineConfig {
        noc: NocConfig {
            queue_capacity,
            ..d.noc
        },
        ..d
    });
    let mut out = String::new();
    for cfg in depths.iter().chain(&capacities) {
        let run = Machine::new(*cfg)
            .run_layer(&net.layers()[0], None, &xq, false, UvMode::Off)
            .unwrap();
        let _ = writeln!(
            out,
            "act_queue_depth {} queue_capacity {}\n{run:#?}",
            cfg.act_queue_depth, cfg.noc.queue_capacity
        );
    }
    check("cycle_fat_flow_control.txt", &out);
}

/// The system's first two test images in both UV modes on one machine.
fn two_images_on(cfg: MachineConfig) -> String {
    let sys = system();
    let machine = Machine::new(cfg);
    let mut out = String::new();
    for mode in [UvMode::On, UvMode::Off] {
        for i in 0..2 {
            let x = sys.fixed().quantize_input(sys.split().test.image(i));
            let run = machine.run_network(sys.fixed(), &x, mode).unwrap();
            let _ = writeln!(out, "{mode:?} image {i}\n{run:#?}");
        }
    }
    out
}

#[test]
fn three_cycle_hops() {
    let d = *system().machine().config();
    let cfg = MachineConfig {
        noc: NocConfig {
            hop_latency: 3,
            ..d.noc
        },
        ..d
    };
    check("cycle_hop3.txt", &two_images_on(cfg));
}

#[test]
fn sixteen_pes_on_a_radix_two_tree() {
    let d = *system().machine().config();
    let cfg = MachineConfig {
        noc: NocConfig {
            num_pes: 16,
            radix: 2,
            ..d.noc
        },
        ..d
    };
    check("cycle_radix2_16pe.txt", &two_images_on(cfg));
}

#[test]
fn shallow_activation_queues_and_router_buffers() {
    let d = *system().machine().config();
    let cfg = MachineConfig {
        act_queue_depth: 2,
        noc: NocConfig {
            queue_capacity: 1,
            ..d.noc
        },
        ..d
    };
    check("cycle_shallow_queues.txt", &two_images_on(cfg));
}
