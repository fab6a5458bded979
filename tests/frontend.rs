//! Acceptance tests for the production front end (ISSUE 6): under a
//! ≥1.5× overload, bounded per-class admission keeps the high-priority
//! p99 inside its SLO while low-priority traffic absorbs the shedding;
//! with one injected shard failure, hedged/retrying dispatch strictly
//! beats the unhedged baseline on goodput; seeded workloads and fault
//! plans are bit-deterministic; and the autoscaler grows into a burst
//! (paying warm-up) and retires idle shards after it.

use sparsenn::frontend::{
    simulate_frontend, AdmitAll, AutoscaleConfig, BoundedQueues, Fault, FaultPlan, FrontendConfig,
    HedgeConfig, Priority, SloPolicy,
};
use sparsenn::serve::{fleet_capacity_rps, simulate, LeastQueued, ShardSpec, Workload};

/// Four uniform 10 µs shards: 100k rps each, 400k rps fleet capacity.
fn fleet() -> Vec<ShardSpec> {
    (0..4)
        .map(|i| ShardSpec::uniform(format!("shard-{i}"), 10.0))
        .collect()
}

const SLO: SloPolicy = SloPolicy {
    high_us: 300.0,
    low_us: 1200.0,
};

/// Acceptance: at 1.5× capacity with 35% low-priority traffic, bounded
/// per-class queues shed load (mostly low-priority) and hold the
/// high-priority p99 inside the SLO; unbounded admission lets the queue
/// grow until the high-priority p99 busts it.
#[test]
fn bounded_admission_keeps_high_priority_p99_within_slo_under_overload() {
    let fleet = fleet();
    let cfg = FrontendConfig::new(
        Workload::Poisson {
            rate_rps: fleet_capacity_rps(&fleet) * 1.5,
            requests: 4000,
            seed: 6,
        },
        SLO,
    )
    .low_fraction(0.35);

    let gate = BoundedQueues::new(12, 6).degrade_low_beyond(2);
    let bounded = simulate_frontend(&fleet, &LeastQueued, &gate, &cfg).unwrap();
    let open = simulate_frontend(&fleet, &LeastQueued, &AdmitAll, &cfg).unwrap();

    let high_p99 = bounded.class(Priority::High).latency.p99_us;
    assert!(
        high_p99 <= SLO.high_us,
        "bounded high-priority p99 {high_p99} µs must sit inside the {} µs SLO",
        SLO.high_us
    );
    assert!(
        open.class(Priority::High).latency.p99_us > SLO.high_us,
        "admit-all under 1.5x overload must bust the high-priority SLO"
    );
    assert!(
        bounded.class(Priority::Low).shed_rate() > bounded.class(Priority::High).shed_rate(),
        "low-priority absorbs the overload: low shed rate {} vs high {}",
        bounded.class(Priority::Low).shed_rate(),
        bounded.class(Priority::High).shed_rate()
    );
    assert!(
        bounded.class(Priority::Low).degraded > 0,
        "the degrade tier serves some low-priority traffic at reduced cost"
    );
    assert!(
        bounded.goodput_rps > open.goodput_rps,
        "shedding beats queueing on goodput: {} vs {}",
        bounded.goodput_rps,
        open.goodput_rps
    );
}

/// Acceptance: with one injected shard failure, hedged dispatch (retries
/// re-issue the killed attempts, hedges race stragglers) strictly beats
/// the unhedged baseline on goodput.
#[test]
fn hedged_goodput_strictly_beats_unhedged_with_an_injected_failure() {
    let fleet = fleet();
    let horizon = 3000.0 / (fleet_capacity_rps(&fleet) * 0.9) * 1e6;
    let cfg = FrontendConfig::new(
        Workload::Poisson {
            rate_rps: fleet_capacity_rps(&fleet) * 0.9,
            requests: 3000,
            seed: 6,
        },
        SLO,
    )
    .faults(FaultPlan::new(vec![Fault::FailStop {
        shard: 0,
        at_us: horizon * 0.3,
        down_us: horizon * 0.1,
    }]));

    let unhedged = simulate_frontend(&fleet, &LeastQueued, &AdmitAll, &cfg).unwrap();
    // Hedge only genuinely stuck attempts (20× the 10 µs service time);
    // the retry side of the policy is what recovers the killed work.
    let hedged_cfg = cfg.clone().hedge(HedgeConfig::hedged(200.0));
    let hedged = simulate_frontend(&fleet, &LeastQueued, &AdmitAll, &hedged_cfg).unwrap();

    assert!(
        unhedged.class(Priority::High).failed > 0,
        "the fail-stop must kill in-flight work for the comparison to bite"
    );
    assert_eq!(
        hedged.class(Priority::High).failed,
        0,
        "retries recover every killed attempt"
    );
    assert!(hedged.retries > 0, "the recovery shows up in the counters");
    assert!(
        hedged.goodput_rps > unhedged.goodput_rps,
        "hedged goodput {} must strictly beat unhedged {}",
        hedged.goodput_rps,
        unhedged.goodput_rps
    );
}

/// Satellite: seeded workloads are bit-deterministic — the same seed
/// replays the identical trace for every workload shape, through both
/// the serve simulator and the front end.
#[test]
fn same_seed_replays_the_identical_trace_for_every_workload_shape() {
    let fleet = fleet();
    let capacity = fleet_capacity_rps(&fleet);
    let workloads = [
        Workload::Poisson {
            rate_rps: capacity * 0.8,
            requests: 1500,
            seed: 42,
        },
        Workload::Bursty {
            low_rps: capacity * 0.2,
            high_rps: capacity * 1.6,
            period_us: 400.0,
            duty: 0.25,
            requests: 1500,
            seed: 42,
        },
        Workload::ClosedLoop {
            concurrency: 8,
            requests: 1500,
            think_us: 5.0,
        },
    ];
    for workload in &workloads {
        let a = simulate(&fleet, &LeastQueued, workload).unwrap();
        let b = simulate(&fleet, &LeastQueued, workload).unwrap();
        assert_eq!(a, b, "serve trace must replay bit-identically");

        let cfg = FrontendConfig::new(*workload, SLO)
            .low_fraction(0.3)
            .faults(FaultPlan::random(fleet.len(), 10_000.0, 1, 1, 9))
            .hedge(HedgeConfig::hedged(200.0));
        let a = simulate_frontend(&fleet, &LeastQueued, &AdmitAll, &cfg).unwrap();
        let b = simulate_frontend(&fleet, &LeastQueued, &AdmitAll, &cfg).unwrap();
        assert_eq!(a, b, "front-end trace must replay bit-identically");
    }
}

/// Satellite: seeded fault plans are deterministic in the seed — and
/// actually vary with it.
#[test]
fn fault_schedules_are_a_pure_function_of_their_seed() {
    let a = FaultPlan::random(4, 50_000.0, 2, 2, 7);
    let b = FaultPlan::random(4, 50_000.0, 2, 2, 7);
    assert_eq!(a, b, "same seed, same schedule");
    let c = FaultPlan::random(4, 50_000.0, 2, 2, 8);
    assert_ne!(a, c, "different seed, different schedule");
    assert!(a.validate(4).is_ok());
}

/// Acceptance: starting from one shard, the autoscaler grows into a
/// burst (paying the warm-up delay before the new shards take traffic)
/// and retires idle shards in the quiet phase; a warm-up longer than the
/// whole run leaves the fleet stuck at its minimum.
#[test]
fn autoscaler_grows_into_the_burst_and_retires_idle_shards() {
    let fleet = fleet();
    let capacity = fleet_capacity_rps(&fleet);
    let workload = Workload::Bursty {
        low_rps: capacity * 0.1,
        high_rps: capacity * 0.9,
        period_us: 800.0,
        duty: 0.3,
        requests: 4000,
        seed: 11,
    };
    let scaled_cfg =
        FrontendConfig::new(workload, SLO).autoscale(AutoscaleConfig::new(1, 4, 200.0, 100.0));
    let scaled = simulate_frontend(&fleet, &LeastQueued, &AdmitAll, &scaled_cfg).unwrap();
    assert!(scaled.scale_outs > 0, "the burst must trigger scale-out");
    assert!(
        scaled.scale_ins > 0,
        "the quiet phase must trigger scale-in"
    );
    assert!(
        scaled.peak_active_shards > 1 && scaled.peak_active_shards <= 4,
        "peak {} must stay inside the 1..=4 band",
        scaled.peak_active_shards
    );

    // Warm-up longer than the run: scale-out decisions are taken but no
    // shard ever becomes ready, so all traffic rides the minimum fleet.
    let stuck_cfg =
        FrontendConfig::new(workload, SLO).autoscale(AutoscaleConfig::new(1, 4, 200.0, 1e9));
    let stuck = simulate_frontend(&fleet, &LeastQueued, &AdmitAll, &stuck_cfg).unwrap();
    assert_eq!(
        stuck.peak_active_shards, 1,
        "an unpayable warm-up pins the fleet at min_shards"
    );
    assert!(
        scaled.slo_attainment > stuck.slo_attainment,
        "paying the warm-up must buy SLO attainment: {} vs {}",
        scaled.slo_attainment,
        stuck.slo_attainment
    );
}
