//! Acceptance tests for the observability plane, end to end through the
//! facade: one traced front-end run composed with per-chip machine spans
//! exports a deterministic Perfetto trace whose admission, degrade-batch,
//! shard-attempt, and per-layer chip spans are all keyed to the request
//! ids the `FrontendSummary` accounts for — and a disabled sink changes
//! nothing about the simulation's results.

use sparsenn::datasets::DatasetKind;
use sparsenn::engine::{CycleAccurateBackend, InferenceBackend, PartitionedMachine};
use sparsenn::frontend::{
    simulate_frontend, simulate_frontend_traced, BoundedQueues, DegradeBatching, Fault, FaultPlan,
    FrontendConfig, FrontendSummary, HedgeConfig, SloPolicy,
};
use sparsenn::model::fixedpoint::UvMode;
use sparsenn::obs::{check_nesting, chrome_trace, NullSink, RingRecorder, Span, SpanKind};
use sparsenn::partition::InterChipConfig;
use sparsenn::serve::{LeastQueued, ShardSpec, Workload};
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

/// The traced study scenario: a 3-shard fleet at 1.4x capacity with
/// hedging, degrade batching, and one slowdown fault, so every span
/// kind shows up in the trace.
fn study_config(service_us: f64) -> (Vec<ShardSpec>, BoundedQueues, FrontendConfig) {
    let fleet: Vec<ShardSpec> = (0..3)
        .map(|i| ShardSpec::uniform(format!("shard-{i}"), service_us))
        .collect();
    let capacity = 3.0e6 / service_us.max(1e-12);
    let slo = SloPolicy {
        high_us: 12.0 * service_us,
        low_us: 48.0 * service_us,
    };
    let cfg = FrontendConfig::new(
        Workload::Poisson {
            rate_rps: 1.4 * capacity,
            requests: 400,
            seed: 17,
        },
        slo,
    )
    .low_fraction(0.4)
    .hedge(HedgeConfig::hedged(6.0 * service_us))
    .degrade_batching(DegradeBatching::new(4, 8.0 * service_us, 0.3))
    .faults(FaultPlan::new(vec![Fault::Slowdown {
        shard: 0,
        at_us: 10.0 * service_us,
        for_us: 200.0 * service_us,
        factor: 8.0,
    }]));
    let gate = BoundedQueues::new(12, 4).degrade_low_beyond(2);
    (fleet, gate, cfg)
}

/// One traced run: front-end spans plus per-chip spans for the first
/// two attempts' request ids, re-run on a 2-chip partitioned machine.
fn capture(sys: &TrainedSystem) -> (FrontendSummary, Vec<Span>) {
    let backend = CycleAccurateBackend::new(sys.machine().clone());
    let net = sys.fixed();
    let input = net.quantize_input(sys.split().test.image(0));
    let service_us = backend
        .run(net, &input, UvMode::On)
        .expect("study input fits the machine")
        .time_us();
    let (fleet, gate, cfg) = study_config(service_us);
    let recorder = RingRecorder::new(1 << 16);
    let summary = simulate_frontend_traced(&fleet, &LeastQueued, &gate, &cfg, &recorder)
        .expect("study config is valid");
    let machine =
        PartitionedMachine::new(net, *sys.machine().config(), 2, InterChipConfig::default())
            .expect("study network splits across 2 chips");
    let attempts: Vec<(u64, f64)> = recorder
        .spans()
        .iter()
        .filter(|s| s.kind == SpanKind::Attempt)
        .take(2)
        .map(|s| (s.trace_id, s.start_us))
        .collect();
    assert!(!attempts.is_empty(), "overloaded run must service attempts");
    for (request_id, start_us) in attempts {
        machine
            .run_traced(net, &input, UvMode::On, request_id, start_us, &recorder)
            .expect("study network fits the 2-chip plan");
    }
    (summary, recorder.spans())
}

#[test]
fn trace_is_deterministic_and_keyed_to_summary_request_ids() {
    let sys = shared_system();
    let (summary, spans) = capture(sys);
    let (summary2, spans2) = capture(sys);
    assert_eq!(summary, summary2, "traced runs are deterministic");
    assert_eq!(
        chrome_trace(&spans),
        chrome_trace(&spans2),
        "one seed, one exact trace file"
    );
    assert!(check_nesting(&spans).is_none(), "span nesting holds");

    let count = |kind: SpanKind| spans.iter().filter(|s| s.kind == kind).count();
    // Admission verdicts: one zero-duration decision span per offered
    // request, split exactly as the summary accounts.
    let offered: usize = summary.classes.iter().map(|c| c.offered).sum();
    let degraded: usize = summary.classes.iter().map(|c| c.degraded).sum();
    let shed: usize = summary.classes.iter().map(|c| c.shed).sum();
    assert_eq!(
        count(SpanKind::Admit) + count(SpanKind::Degrade) + count(SpanKind::Shed),
        offered,
        "every offered request gets an admission verdict span"
    );
    assert_eq!(count(SpanKind::Degrade), degraded);
    assert_eq!(count(SpanKind::Shed), shed);
    // One hold-window span per request flushed through a degrade batch.
    let batched_requests =
        (summary.mean_degrade_batch * summary.degrade_batches as f64).round() as usize;
    assert!(
        summary.degrade_batches > 0,
        "study load must trigger degrade batching"
    );
    assert_eq!(
        count(SpanKind::DegradeBatch),
        batched_requests,
        "every degrade-batched request gets a hold-window span"
    );
    assert_eq!(count(SpanKind::Hedge), summary.hedges_issued);
    assert_eq!(count(SpanKind::Retry), summary.retries);
    assert_eq!(count(SpanKind::Cancel), summary.cancelled_attempts);

    // Every attempt and per-layer chip span joins back to a request
    // span's id — the whole trace correlates on one key.
    let request_ids: std::collections::BTreeSet<u64> = spans
        .iter()
        .filter(|s| s.kind == SpanKind::Request)
        .map(|s| s.trace_id)
        .collect();
    assert_eq!(
        request_ids.len(),
        offered,
        "every offered request's life gets a request span (shed is a terminal outcome)"
    );
    for s in spans.iter().filter(|s| {
        matches!(
            s.kind,
            SpanKind::Attempt | SpanKind::W | SpanKind::Vu | SpanKind::Broadcast | SpanKind::Gather
        )
    }) {
        assert!(
            request_ids.contains(&s.trace_id),
            "{:?} span keyed to unknown request id {}",
            s.kind,
            s.trace_id
        );
    }
    // The chip timeline covers every layer of the partitioned network.
    let layers = sys.fixed().num_layers();
    for kind in [SpanKind::W, SpanKind::Vu] {
        assert!(
            count(kind) >= layers,
            "{kind:?} spans must cover all {layers} layers"
        );
    }
    assert!(
        count(SpanKind::Broadcast) > 0,
        "inter-chip broadcast traced"
    );
    assert!(count(SpanKind::Gather) > 0, "inter-chip gather traced");
}

#[test]
fn disabled_sink_changes_nothing() {
    let sys = shared_system();
    let backend = CycleAccurateBackend::new(sys.machine().clone());
    let net = sys.fixed();
    let input = net.quantize_input(sys.split().test.image(0));
    let service_us = backend
        .run(net, &input, UvMode::On)
        .expect("study input fits the machine")
        .time_us();
    let (fleet, gate, cfg) = study_config(service_us);
    let plain =
        simulate_frontend(&fleet, &LeastQueued, &gate, &cfg).expect("study config is valid");
    let traced = simulate_frontend_traced(&fleet, &LeastQueued, &gate, &cfg, &NullSink)
        .expect("study config is valid");
    assert_eq!(plain, traced, "a NullSink run is bit-identical to untraced");
}
