//! Golden snapshots of the three virtual-time serving simulators:
//! `simulate`, `simulate_batched` and the front end.
//!
//! Each scenario runs on a fixed seed and compares its summary's `{:#?}`
//! dump, and for traced runs the Chrome-trace JSON of its spans, with a
//! file under `tests/golden/`. `Debug` prints every f64 in shortest
//! round-trip form, so equal text means equal bits: a change to the event
//! loops that moves one completion, one scheduler pick or one span shows
//! up here. The files pin the simulators' behaviour; they are never
//! rewritten by the test.

use sparsenn::frontend::{
    simulate_frontend, simulate_frontend_traced, AutoscaleConfig, BoundedQueues, BurnConfig,
    DegradeBatching, Fault, FaultPlan, FrontendConfig, HedgeConfig, SloPolicy,
};
use sparsenn::obs::{chrome_trace, RingRecorder};
use sparsenn::serve::{
    fleet_capacity_rps, simulate, simulate_batched, simulate_batched_traced, simulate_with,
    BatchPolicy, BatchShardSpec, FastestCompletion, FirstIdle, LeastQueued, MetricsMode, Scheduler,
    ShardSpec, ShardView, Workload,
};

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

fn trace(recorder: &RingRecorder) -> String {
    assert_eq!(recorder.dropped(), 0, "ring sized for the whole run");
    chrome_trace(&recorder.spans())
}

/// A policy that never places a request: every path falls back on its
/// own rule for an unusable pick.
struct NeverPicks;

impl Scheduler for NeverPicks {
    fn name(&self) -> &str {
        "never-picks"
    }

    fn pick(&self, _: &[ShardView]) -> Option<usize> {
        None
    }
}

/// Per-request tables of unequal shards; the first two are identical, so
/// latency-aware picks meet exact ties.
fn request_fleet() -> Vec<ShardSpec> {
    vec![
        ShardSpec::with_table("a0", vec![8.0, 12.5, 9.75, 11.0]),
        ShardSpec::with_table("a1", vec![8.0, 12.5, 9.75, 11.0]),
        ShardSpec::with_table("b", vec![15.0, 21.0, 18.5]),
        ShardSpec::with_table("c", vec![30.0, 26.0]),
    ]
}

fn batch_fleet(tables: &[&[f64]]) -> Vec<BatchShardSpec> {
    tables
        .iter()
        .enumerate()
        .map(|(i, t)| BatchShardSpec::with_table(format!("m{i}"), t.to_vec()))
        .collect()
}

#[test]
fn simulate_exact_fastest_completion_on_per_request_tables() {
    let fleet = request_fleet();
    let w = Workload::Poisson {
        rate_rps: 0.9 * fleet_capacity_rps(&fleet),
        requests: 400,
        seed: 21,
    };
    let s = simulate_with(&fleet, &FastestCompletion, &w, MetricsMode::Exact).unwrap();
    check("simulate_exact_fastest.txt", &format!("{s:#?}\n"));
}

#[test]
fn simulate_first_idle_closed_loop_with_think_time() {
    let w = Workload::ClosedLoop {
        concurrency: 6,
        requests: 500,
        think_us: 15.0,
    };
    let s = simulate(&request_fleet(), &FirstIdle, &w).unwrap();
    check("simulate_closed_first_idle.txt", &format!("{s:#?}\n"));
}

#[test]
fn simulate_holds_unusable_picks_centrally() {
    let fleet = request_fleet();
    let w = Workload::Poisson {
        rate_rps: 0.7 * fleet_capacity_rps(&fleet),
        requests: 300,
        seed: 4,
    };
    let s = simulate_with(&fleet, &NeverPicks, &w, MetricsMode::Exact).unwrap();
    check("simulate_never_picks.txt", &format!("{s:#?}\n"));
}

#[test]
fn simulate_batched_places_unusable_picks_on_the_shallowest_queue() {
    let fleet = batch_fleet(&[
        &[10.0, 13.0, 16.0],
        &[12.0, 15.0],
        &[20.0, 24.0, 28.0, 32.0],
    ]);
    let w = Workload::Poisson {
        rate_rps: 200_000.0,
        requests: 300,
        seed: 8,
    };
    let policy = BatchPolicy::SizeOrDeadline {
        max: 3,
        deadline_us: 25.0,
    };
    let s = simulate_batched(&fleet, &NeverPicks, policy, &w, MetricsMode::Exact).unwrap();
    check("batched_never_picks.txt", &format!("{s:#?}\n"));
}

#[test]
fn simulate_batched_traced_fastest_completion_size_or_deadline_bursty() {
    // The second table caps a batch at 3, below the policy's max.
    let fleet = batch_fleet(&[&[10.0, 13.0, 16.0, 19.0], &[14.0, 18.5, 23.0]]);
    let w = Workload::Bursty {
        low_rps: 20_000.0,
        high_rps: 400_000.0,
        period_us: 600.0,
        duty: 0.3,
        requests: 300,
        seed: 5,
    };
    let policy = BatchPolicy::SizeOrDeadline {
        max: 4,
        deadline_us: 30.0,
    };
    let recorder = RingRecorder::new(1 << 14);
    let s = simulate_batched_traced(
        &fleet,
        &FastestCompletion,
        policy,
        &w,
        MetricsMode::Exact,
        &recorder,
    )
    .unwrap();
    check("batched_traced_fastest.txt", &format!("{s:#?}\n"));
    check("batched_traced_fastest.trace.json", &trace(&recorder));
}

#[test]
fn simulate_batched_first_idle_immediate_overloaded() {
    let fleet = batch_fleet(&[&[10.0, 13.0, 16.0, 19.0], &[11.0, 14.0], &[9.0, 12.5, 15.0]]);
    let w = Workload::Poisson {
        rate_rps: 500_000.0,
        requests: 500,
        seed: 13,
    };
    let s = simulate_batched(
        &fleet,
        &FirstIdle,
        BatchPolicy::Immediate,
        &w,
        MetricsMode::Exact,
    )
    .unwrap();
    assert!(s.max_batch > 1, "overload builds batches");
    check("batched_immediate_overload.txt", &format!("{s:#?}\n"));
}

/// The benchmark's front-end scenario, scaled down: 1.3× overload, 40 %
/// low priority, bounded queues with a degrade tier, degrade batching,
/// hedging, one slowdown and a burn monitor.
fn benchmark_mix(requests: usize) -> (Vec<ShardSpec>, FrontendConfig) {
    let fleet: Vec<ShardSpec> = (0..4)
        .map(|i| ShardSpec::with_table(format!("chip-{i}"), vec![9.5, 12.0, 10.25, 14.0, 8.75]))
        .collect();
    let capacity = fleet_capacity_rps(&fleet);
    let service = fleet[0].mean_service_us();
    let overload = 1.3 * capacity;
    let horizon_us = requests as f64 / overload * 1e6;
    let mut cfg = FrontendConfig::new(
        Workload::Poisson {
            rate_rps: overload,
            requests,
            seed: 31,
        },
        SloPolicy {
            high_us: 30.0 * service,
            low_us: 120.0 * service,
        },
    )
    .low_fraction(0.4)
    .hedge(HedgeConfig::hedged(6.0 * service))
    .degrade_batching(DegradeBatching::new(4, 8.0 * service, 0.3))
    .faults(FaultPlan::new(vec![Fault::Slowdown {
        shard: 1,
        at_us: 0.3 * horizon_us,
        for_us: 0.2 * horizon_us,
        factor: 4.0,
    }]))
    .burn_monitor(BurnConfig::new(0.9, 100.0 * service, 500.0 * service));
    cfg.class_seed = 32;
    (fleet, cfg)
}

#[test]
fn frontend_traced_benchmark_mix() {
    let (fleet, cfg) = benchmark_mix(400);
    let gate = BoundedQueues::new(16, 6).degrade_low_beyond(2);
    let recorder = RingRecorder::new(1 << 15);
    let s = simulate_frontend_traced(&fleet, &LeastQueued, &gate, &cfg, &recorder).unwrap();
    assert!(s.hedges_issued > 0 && s.degrade_batches > 0, "{s:#?}");
    check("frontend_benchmark_mix.txt", &format!("{s:#?}\n"));
    check("frontend_benchmark_mix.trace.json", &trace(&recorder));
}

#[test]
fn frontend_takes_the_first_healthy_idle_shard_on_unusable_picks() {
    let (fleet, cfg) = benchmark_mix(300);
    let gate = BoundedQueues::new(16, 6).degrade_low_beyond(2);
    let s = simulate_frontend(&fleet, &NeverPicks, &gate, &cfg).unwrap();
    check("frontend_never_picks.txt", &format!("{s:#?}\n"));
}

#[test]
fn frontend_fail_stop_with_retries_under_an_autoscaler() {
    let fleet: Vec<ShardSpec> = (0..4)
        .map(|i| ShardSpec::with_table(format!("shard-{i}"), vec![10.0, 12.0, 9.0]))
        .collect();
    let cfg = FrontendConfig::new(
        Workload::Bursty {
            low_rps: 5_000.0,
            high_rps: 150_000.0,
            period_us: 6_000.0,
            duty: 0.4,
            requests: 500,
            seed: 17,
        },
        SloPolicy {
            high_us: 150.0,
            low_us: 600.0,
        },
    )
    .hedge(HedgeConfig::retries_only())
    .faults(FaultPlan::new(vec![Fault::FailStop {
        shard: 0,
        at_us: 1_500.0,
        down_us: 2_000.0,
    }]))
    .autoscale(AutoscaleConfig::new(1, 4, 500.0, 1_000.0));
    let recorder = RingRecorder::new(1 << 14);
    let s = simulate_frontend_traced(
        &fleet,
        &FastestCompletion,
        &BoundedQueues::new(64, 16),
        &cfg,
        &recorder,
    )
    .unwrap();
    assert!(
        s.retries > 0 && s.scale_outs > 0 && s.scale_ins > 0,
        "the scenario retries and scales both ways: {s:#?}"
    );
    check("frontend_failstop_autoscale.txt", &format!("{s:#?}\n"));
    check("frontend_failstop_autoscale.trace.json", &trace(&recorder));
}

#[test]
fn frontend_closed_loop_reissues_after_sheds() {
    let fleet = vec![
        ShardSpec::with_table("m0", vec![10.0, 14.0]),
        ShardSpec::with_table("m1", vec![18.0, 11.0, 13.0]),
    ];
    let cfg = FrontendConfig::new(
        Workload::ClosedLoop {
            concurrency: 8,
            requests: 400,
            think_us: 5.0,
        },
        SloPolicy {
            high_us: 60.0,
            low_us: 200.0,
        },
    )
    .low_fraction(0.5);
    let gate = BoundedQueues::new(4, 1);
    let s = simulate_frontend(&fleet, &LeastQueued, &gate, &cfg).unwrap();
    assert!(s.classes.iter().any(|c| c.shed > 0), "{s:#?}");
    check("frontend_closed_loop_sheds.txt", &format!("{s:#?}\n"));
}
