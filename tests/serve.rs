//! Acceptance tests for the virtual-time serving simulator, fed with the
//! engine backends' modelled per-sample `time_us` tables: a homogeneous
//! fleet under closed-loop load at fleet concurrency shows no queueing
//! (simulated mean latency == the backend's modelled per-sample time_us);
//! and fastest-expected-completion beats first-idle on p95 latency over a
//! heterogeneous machine + SIMD fleet.

use sparsenn::datasets::DatasetKind;
use sparsenn::engine::{CycleAccurateBackend, InferenceBackend, SimdBackend};
use sparsenn::model::fixedpoint::UvMode;
use sparsenn::serve::{
    fleet_capacity_rps, simulate, FastestCompletion, FirstIdle, Scheduler, ShardSpec, Workload,
};
use sparsenn::sim::simd::SimdPlatform;
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

/// The backend's modelled per-sample service times on the first `n` test
/// samples — the simulator's input.
fn service_table(sys: &TrainedSystem, backend: Box<dyn InferenceBackend>, n: usize) -> Vec<f64> {
    let mut table = Vec::new();
    sys.session_with(backend)
        .stream_batch(n, UvMode::On, |_, record| table.push(record.time_us()))
        .expect("network fits the backend");
    table
}

/// Acceptance: closed-loop, concurrency == shards, homogeneous machine
/// fleet → zero queueing, and the simulated mean latency equals the
/// backend's modelled per-sample `time_us` mean exactly.
#[test]
fn closed_loop_mean_latency_matches_the_backend_clock_model() {
    let sys = small_system();
    let table = service_table(
        &sys,
        Box::new(CycleAccurateBackend::new(sys.machine().clone())),
        16,
    );
    let modelled_mean = table.iter().sum::<f64>() / table.len() as f64;
    assert!(modelled_mean > 0.0);
    let shards: Vec<ShardSpec> = (0..4)
        .map(|i| ShardSpec::with_table(format!("machine-{i}"), table.clone()))
        .collect();
    let summary = simulate(
        &shards,
        &FirstIdle,
        &Workload::ClosedLoop {
            concurrency: 4,
            // A multiple of the table length so the request mix covers the
            // sample mix exactly.
            requests: table.len() * 12,
            think_us: 0.0,
        },
    )
    .unwrap();
    assert_eq!(summary.queue_us_mean, 0.0, "no request ever waits");
    assert!(
        (summary.latency.mean_us - modelled_mean).abs() < 1e-9 * modelled_mean,
        "simulated mean {} vs modelled per-sample time {}",
        summary.latency.mean_us,
        modelled_mean
    );
}

/// Acceptance: on a heterogeneous fleet (cycle-accurate machine beside
/// the slower Table IV SIMD platforms), latency-aware dispatch beats
/// first-idle on p95.
#[test]
fn fastest_completion_beats_first_idle_on_heterogeneous_p95() {
    let sys = small_system();
    let machine = service_table(
        &sys,
        Box::new(CycleAccurateBackend::new(sys.machine().clone())),
        16,
    );
    let lradnn = service_table(
        &sys,
        Box::new(SimdBackend::new(SimdPlatform::lradnn(5))),
        16,
    );
    let shards = vec![
        ShardSpec::with_table("machine", machine),
        ShardSpec::with_table("LRADNN", lradnn),
    ];
    let workload = Workload::Poisson {
        rate_rps: fleet_capacity_rps(&shards) * 0.75,
        requests: 3000,
        seed: 2018,
    };
    let naive = simulate(&shards, &FirstIdle, &workload).unwrap();
    let aware = simulate(&shards, &FastestCompletion, &workload).unwrap();
    assert!(
        aware.latency.p95_us < naive.latency.p95_us,
        "fastest-completion p95 {} must beat first-idle p95 {}",
        aware.latency.p95_us,
        naive.latency.p95_us
    );
}

/// The summary names the scheduler that placed its requests, and a
/// closed loop serves exactly the requests it was asked for.
#[test]
fn simulator_summary_names_its_scheduler() {
    let shards = [ShardSpec::uniform("a", 5.0), ShardSpec::uniform("b", 50.0)];
    let workload = Workload::ClosedLoop {
        concurrency: 2,
        requests: 40,
        think_us: 0.0,
    };
    for (policy, name) in [
        (&FirstIdle as &dyn Scheduler, "first-idle"),
        (&FastestCompletion, "fastest-completion"),
    ] {
        let summary = simulate(&shards, policy, &workload).unwrap();
        assert_eq!(summary.scheduler, name);
        assert_eq!(summary.requests, 40, "{name}");
    }
}
