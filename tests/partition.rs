//! Model-parallelism acceptance tests — the contract of ISSUE 4:
//!
//! 1. `PartitionedMachine` output is **bit-identical** to the single-chip
//!    `Machine` for any network that fits one chip (the oracle);
//! 2. an oversized MLP — rejected by the machine with the typed
//!    `WMemoryOverflow` — runs to completion on ≥2 chips with
//!    comm-inclusive `time_us`/`energy_uj`;
//! 3. the backend composes unchanged with `Session`, `Fleet`, every
//!    `Scheduler`, and the `sparsenn-serve` virtual-time simulator.
//!
//! The CI `partition-smoke` step runs this file in release mode.

use sparsenn::datasets::DatasetKind;
use sparsenn::engine::{FastestCompletion, Fleet, InferenceBackend, PartitionedMachine};
use sparsenn::model::fixedpoint::UvMode;
use sparsenn::partition::{InterChipConfig, PartitionPlan};
use sparsenn::serve::{simulate, FirstIdle, LeastQueued, ShardSpec, Workload};
use sparsenn::sim::MachineConfig;
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

/// A system whose first layer overflows its own (shrunken) chip: 96 rows
/// over 64 PEs needs 2 rows/PE × 784 cols = 1568 words against 1024.
fn oversized_system() -> TrainedSystem {
    let chip = MachineConfig {
        w_mem_bytes: 2 * 1024,
        ..MachineConfig::default()
    };
    SystemBuilder::new(DatasetKind::Basic)
        .dims(&[784, 96, 10])
        .rank(4)
        .algorithm(TrainingAlgorithm::EndToEnd)
        .train_samples(100)
        .test_samples(30)
        .epochs(1)
        .machine(chip)
        .build()
}

/// Oracle: for a network that fits one chip, every partitioned chip
/// count reproduces the single machine's outputs and masks bit for bit.
#[test]
fn partitioned_outputs_are_bit_identical_to_the_single_machine() {
    let sys = small_system();
    let cfg = *sys.machine().config();
    let single = sys.session();
    for chips in [1usize, 2, 4, 8] {
        let part = sys.partitioned_session(chips).expect("plannable");
        for mode in [UvMode::Off, UvMode::On] {
            for i in 0..6 {
                let a = single.run_sample(i, mode).unwrap();
                let b = part.run_sample(i, mode).unwrap();
                for (l, (want, got)) in a.layers.iter().zip(&b.layers).enumerate() {
                    assert_eq!(
                        want.output, got.output,
                        "{chips} chips, sample {i}, layer {l}, {mode:?}"
                    );
                    assert_eq!(want.mask, got.mask, "{chips} chips, sample {i} mask");
                }
            }
        }
        // The raw-backend view agrees with the session view.
        let pm =
            PartitionedMachine::new(sys.fixed(), cfg, chips, InterChipConfig::default()).unwrap();
        let x = sys.fixed().quantize_input(sys.split().test.image(0));
        assert_eq!(
            pm.run(sys.fixed(), &x, UvMode::On).unwrap().output(),
            single.run_sample(0, UvMode::On).unwrap().output()
        );
    }
}

/// Acceptance: the oversized MLP is rejected by the machine with the
/// typed overflow and served to completion on ≥2 chips, with
/// communication visible in both latency and energy.
#[test]
fn oversized_mlp_is_served_by_two_chips_with_comm_in_the_accounting() {
    let sys = oversized_system();

    // Single chip: typed rejection from both serving and planning paths.
    match sys.session().simulate_batch(4, UvMode::On) {
        Err(SparseNnError::WMemoryOverflow {
            layer,
            words,
            capacity,
        }) => {
            assert_eq!(layer, 0);
            assert_eq!(words, 1568);
            assert_eq!(capacity, 1024);
        }
        other => panic!("expected WMemoryOverflow, got {other:?}"),
    }
    match sys.partitioned_session(1).map(|_| ()) {
        Err(SparseNnError::WMemoryOverflow {
            words, capacity, ..
        }) => {
            assert_eq!((words, capacity), (1568, 1024));
        }
        other => panic!("expected WMemoryOverflow from the planner, got {other:?}"),
    }

    // Two chips serve the whole batch; classification works end to end.
    let session = sys.partitioned_session(2).expect("two chips fit");
    let summary = session.simulate_batch(8, UvMode::On).expect("serves");
    assert_eq!(summary.samples, 8);
    assert!(summary.time_us() > 0.0, "comm-inclusive latency");
    assert!(summary.energy_uj() > 0.0, "comm-inclusive energy");
    assert!(
        summary
            .layers
            .iter()
            .map(|l| l.events.interchip_flit_hops)
            .sum::<u64>()
            > 0,
        "inter-chip traffic must be accounted"
    );
    assert!(summary.layers[0].power.interchip_mw > 0.0);

    // Against free links, the costed interconnect only adds time and
    // energy — never changes bits.
    let chip = *sys.machine().config();
    let costed = PartitionedMachine::new(sys.fixed(), chip, 2, InterChipConfig::default()).unwrap();
    let free = PartitionedMachine::new(sys.fixed(), chip, 2, InterChipConfig::free()).unwrap();
    let x = sys.fixed().quantize_input(sys.split().test.image(0));
    let a = costed.run(sys.fixed(), &x, UvMode::On).unwrap();
    let b = free.run(sys.fixed(), &x, UvMode::On).unwrap();
    assert_eq!(a.output(), b.output());
    assert!(a.time_us() > b.time_us());
}

/// Composition: the partitioned backend is an ordinary
/// `InferenceBackend`, so parallel `Session` batches fold bit-identically
/// to the serial path, and a `Fleet` of partitioned multi-chip replicas
/// (with any scheduler) behaves like one.
#[test]
fn partitioned_backend_composes_with_session_and_fleet() {
    let sys = oversized_system();
    let chip = *sys.machine().config();

    let serial = sys
        .partitioned_session(2)
        .unwrap()
        .simulate_batch_serial(12, UvMode::On)
        .unwrap();
    let parallel = sys
        .partitioned_session(2)
        .unwrap()
        .simulate_batch(12, UvMode::On)
        .unwrap();
    assert_eq!(
        serial, parallel,
        "parallel fold must match the serial oracle"
    );

    // A fleet of two 2-chip replicas behind one queue, latency-aware
    // dispatch: same bits, every sample accounted.
    let replica = || -> Box<dyn InferenceBackend> {
        Box::new(PartitionedMachine::new(sys.fixed(), chip, 2, InterChipConfig::default()).unwrap())
    };
    let fleet = Fleet::new(vec![replica(), replica()])
        .unwrap()
        .with_scheduler(Box::new(FastestCompletion));
    assert_eq!(
        fleet.name(),
        "fleet(2x partitioned(2 chips x cycle-accurate))"
    );
    let fleet_summary = sys
        .session_with(Box::new(fleet))
        .with_workers(2)
        .simulate_batch(12, UvMode::On)
        .unwrap();
    assert_eq!(
        serial, fleet_summary,
        "fleet of replicas stays bit-identical"
    );
}

/// Composition with the virtual-time simulator: the partitioned
/// backend's per-sample `time_us` table drives `sparsenn-serve` under
/// every scheduler.
#[test]
fn partitioned_time_tables_drive_the_serving_simulator() {
    let sys = oversized_system();
    let mut table = Vec::new();
    sys.partitioned_session(2)
        .unwrap()
        .stream_batch(8, UvMode::On, |_, record| table.push(record.time_us()))
        .unwrap();
    assert_eq!(table.len(), 8);
    assert!(table.iter().all(|&t| t > 0.0));

    let shards = vec![
        ShardSpec::with_table("partitioned-2chip", table.clone()),
        ShardSpec::with_table("partitioned-2chip", table),
    ];
    let workload = Workload::Poisson {
        rate_rps: 10_000.0,
        requests: 400,
        seed: 3,
    };
    for scheduler in [
        &FirstIdle as &dyn sparsenn::engine::Scheduler,
        &LeastQueued,
        &FastestCompletion,
    ] {
        let summary = simulate(&shards, scheduler, &workload).unwrap();
        assert_eq!(summary.requests, 400, "{}", scheduler.name());
        assert!(summary.latency.p95_us > 0.0);
    }
}

/// The plan itself: `TrainedSystem::partition_plan` matches what the
/// partitioned session executes, validates, and round-trips through its
/// file format bit-identically.
#[test]
fn partition_plan_is_exposed_validated_and_persistable() {
    let sys = oversized_system();
    let chip = *sys.machine().config();
    let plan = sys.partition_plan(2).expect("plannable");
    plan.validate(&chip).expect("planner output validates");
    assert!(plan.matches(sys.fixed()));

    let path = std::env::temp_dir().join(format!(
        "sparsenn-partition-plan-test-{}.txt",
        std::process::id()
    ));
    plan.save(&path).expect("save");
    let reloaded = PartitionPlan::load(&path).expect("load");
    let _ = std::fs::remove_file(&path);
    assert_eq!(plan, reloaded, "plan file round-trips bit-identically");

    // A reloaded plan rebuilds the same deployment.
    let pm = PartitionedMachine::from_plan(sys.fixed(), chip, reloaded, InterChipConfig::default())
        .expect("reloaded plan executes");
    let x = sys.fixed().quantize_input(sys.split().test.image(1));
    let a = pm.run(sys.fixed(), &x, UvMode::On).unwrap();
    let b = sys
        .partitioned_session(2)
        .unwrap()
        .run_sample(1, UvMode::On)
        .unwrap();
    assert_eq!(a.layers, b.layers);
}
