//! Production-front-end study: admission control under overload, hedged
//! requests against injected faults, autoscaling, and the SLO policy
//! sweep (beyond the paper — ROADMAP serving north star).
//!
//! The serve experiment measures *scheduling*; this one measures the
//! control planes above it. Each scenario feeds the cycle-accurate
//! machine's measured per-sample `time_us` table into
//! `sparsenn-frontend`'s virtual-time simulator:
//!
//! * **Overload** (≥1.5× capacity, mixed priority): unbounded admission
//!   lets queues grow until *every* class misses its deadline; bounded
//!   per-class queues shed/degrade low-priority traffic and keep the
//!   high-priority p99 inside the SLO.
//! * **Fault tolerance**: one injected fail-stop plus a straggler
//!   window; hedged requests + retries must strictly beat the unhedged
//!   baseline on goodput.
//! * **Autoscaling**: a bursty workload on a min-sized fleet; the
//!   utilization autoscaler grows into the burst (paying warm-up) and
//!   retires shards in the quiet phase.
//! * **Policy sweep**: the scheduler × admission × hedging ×
//!   degrade-batching cross product scored by
//!   goodput/shed/SLO-attainment/p99; degrade batching routes the
//!   gate's degrade tier onto the batch-native substrate (held, then
//!   flushed as amortized batches).

use super::service_table;
use crate::fmt_f;
use crate::report::Report;
use sparsenn_core::engine::CycleAccurateBackend;
use sparsenn_core::Profile;
use sparsenn_frontend::{
    best_goodput, simulate_frontend, sweep_combos, AdmitAll, AutoscaleConfig, BoundedQueues,
    DegradeBatching, Fault, FaultPlan, FrontendConfig, FrontendSummary, HedgeConfig, Priority,
    SloPolicy,
};
use sparsenn_serve::{fleet_capacity_rps, FastestCompletion, LeastQueued, ShardSpec, Workload};
use std::fmt::Write as _;

const ORACLES: &[&str] = &[
    "frontend.high_p99_within_slo",
    "frontend.low_absorbs_overload",
    "frontend.hedged_beats_unhedged",
    "frontend.autoscale.reacts",
];

fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len().max(1) as f64
}

fn class_row(label: &str, s: &FrontendSummary, class: Priority) -> Vec<String> {
    let c = s.class(class);
    vec![
        label.to_string(),
        format!("{class:?}"),
        fmt_f(c.offered as f64, 0),
        fmt_f(c.shed as f64, 0),
        fmt_f(c.degraded as f64, 0),
        fmt_f(c.latency.p99_us, 1),
        fmt_f(c.slo_attainment() * 100.0, 1),
    ]
}

/// Runs the front-end study, training its own
/// [`study_system`](super::fleet::study_system).
pub fn run(p: Profile) -> Report {
    measure_with(p, &super::fleet::study_system(p))
}

/// Runs the front-end study on an already-trained system (shared with the
/// fleet/serve experiments by `run_all`; only the per-sample latency
/// table is consumed).
pub fn measure_with(p: Profile, sys: &sparsenn_core::TrainedSystem) -> Report {
    let batch = (p.sim_samples() * 4).min(sys.split().test.len());
    let machine_us = service_table(
        sys,
        Box::new(CycleAccurateBackend::new(sys.machine().clone())),
        batch,
    );
    let service = mean(&machine_us);

    let fleet: Vec<ShardSpec> = (0..4)
        .map(|i| ShardSpec::with_table(format!("machine-{i}"), machine_us.clone()))
        .collect();
    let capacity = fleet_capacity_rps(&fleet);
    // Deadlines scaled to the measured service time: tight for High
    // (queueing past ~a bounded queue's worth busts it), loose for Low.
    let slo = SloPolicy {
        high_us: 30.0 * service,
        low_us: 120.0 * service,
    };
    let requests = 4000;

    let mut out = Report::new(ORACLES);
    let _ = writeln!(
        out,
        "## Production front end — admission, hedging, autoscaling (profile: {p})\n"
    );
    let _ = writeln!(
        out,
        "4-shard fleet of cycle-accurate machines ({batch}-sample measured \
         service table, mean {:.1} µs, capacity {:.0} rps). SLO: high \
         {:.0} µs, low {:.0} µs. All runs share the seeded arrival and \
         class streams, so every delta below is policy.\n",
        service, capacity, slo.high_us, slo.low_us,
    );
    out.metric("frontend.capacity_rps", capacity);

    // — Overload: admit-all vs bounded per-class queues —
    let overload = FrontendConfig::new(
        Workload::Poisson {
            rate_rps: capacity * 1.5,
            requests,
            seed: 1711,
        },
        slo,
    )
    .low_fraction(0.35);
    let bounded = BoundedQueues::new(12, 6).degrade_low_beyond(2);
    let admit_all = simulate_frontend(&fleet, &LeastQueued, &AdmitAll, &overload)
        .expect("valid overload configuration");
    let shed = simulate_frontend(&fleet, &LeastQueued, &bounded, &overload)
        .expect("valid overload configuration");
    let _ = writeln!(
        out,
        "### Overload: Poisson at 1.5x capacity, 35% low-priority, {requests} requests\n"
    );
    let mut rows = Vec::new();
    for (label, s) in [("admit-all", &admit_all), ("bounded", &shed)] {
        for class in [Priority::High, Priority::Low] {
            rows.push(class_row(label, s, class));
        }
    }
    out.table(
        &[
            "admission",
            "class",
            "offered",
            "shed",
            "degraded",
            "p99 (µs)",
            "SLO att. (%)",
        ],
        &rows,
    );
    let high_p99 = shed.class(Priority::High).latency.p99_us;
    let high_ok = high_p99 <= slo.high_us;
    let low_absorbs =
        shed.class(Priority::Low).shed_rate() > shed.class(Priority::High).shed_rate();
    let _ = writeln!(
        out,
        "\nBounded admission sheds {:.1}% of offered load (vs {:.1}% \
         admit-all). Goodput: {:.0} rps bounded vs {:.0} rps admit-all.\n",
        shed.shed_rate * 100.0,
        admit_all.shed_rate * 100.0,
        shed.goodput_rps,
        admit_all.goodput_rps,
    );
    for (label, s) in [("admit-all", &admit_all), ("bounded", &shed)] {
        out.metric(
            format!("frontend.overload.goodput_rps.{label}"),
            s.goodput_rps,
        );
        out.metric(format!("frontend.overload.shed_rate.{label}"), s.shed_rate);
        out.metric(
            format!("frontend.overload.slo_attainment.{label}"),
            s.slo_attainment,
        );
        out.metric(
            format!("frontend.overload.high_p99_us.{label}"),
            s.class(Priority::High).latency.p99_us,
        );
    }
    out.oracle(
        "frontend.high_p99_within_slo",
        high_ok,
        format_args!(
            "bounded admission holds the high-priority p99 ({high_p99:.1} µs) \
             within its {:.0} µs SLO",
            slo.high_us
        ),
    );
    out.oracle(
        "frontend.low_absorbs_overload",
        low_absorbs,
        "low-priority absorbs the overload",
    );
    let _ = writeln!(out);

    // — Fault tolerance: hedging + retries vs none —
    // Moderate load (the fleet survives losing a shard) with two faults
    // hedging is built for: a fail-stop that kills in-flight work, and a
    // near-hung shard (60× straggler — service alone busts the SLO).
    // LeastQueued keeps feeding the straggler (depth says nothing about
    // speed), so the unhedged run strands every request routed there;
    // hedges fire well past the normal queue wait and race a duplicate
    // on a healthy shard.
    let horizon = requests as f64 / (capacity * 0.65) * 1e6;
    let faults = FaultPlan::new(vec![
        Fault::FailStop {
            shard: 0,
            at_us: horizon * 0.25,
            down_us: horizon * 0.15,
        },
        Fault::Slowdown {
            shard: 1,
            at_us: horizon * 0.55,
            for_us: horizon * 0.25,
            factor: 60.0,
        },
    ]);
    let faulty = FrontendConfig::new(
        Workload::Poisson {
            rate_rps: capacity * 0.65,
            requests,
            seed: 1711,
        },
        slo,
    )
    .faults(faults);
    let unhedged = simulate_frontend(&fleet, &LeastQueued, &AdmitAll, &faulty)
        .expect("valid fault configuration");
    let hedged_cfg = faulty.clone().hedge(HedgeConfig::hedged(8.0 * service));
    let hedged = simulate_frontend(&fleet, &LeastQueued, &AdmitAll, &hedged_cfg)
        .expect("valid fault configuration");
    let _ = writeln!(
        out,
        "### Fault tolerance: 65% load, one fail-stop (15% of the run) + one 60x straggler window\n"
    );
    let mut rows = Vec::new();
    for (label, s) in [("unhedged", &unhedged), ("hedged", &hedged)] {
        rows.push(vec![
            label.to_string(),
            fmt_f(s.goodput_rps, 0),
            fmt_f(s.class(Priority::High).failed as f64, 0),
            fmt_f(s.retries as f64, 0),
            fmt_f(s.hedges_issued as f64, 0),
            fmt_f(s.hedge_wins as f64, 0),
            fmt_f(s.class(Priority::High).latency.p99_us, 1),
            fmt_f(s.slo_attainment * 100.0, 1),
        ]);
    }
    out.table(
        &[
            "policy",
            "goodput (rps)",
            "failed",
            "retries",
            "hedges",
            "hedge wins",
            "p99 (µs)",
            "SLO att. (%)",
        ],
        &rows,
    );
    let _ = writeln!(out);
    out.metric("frontend.fault.goodput_rps.unhedged", unhedged.goodput_rps);
    out.metric("frontend.fault.goodput_rps.hedged", hedged.goodput_rps);
    out.metric(
        "frontend.fault.slo_attainment.hedged",
        hedged.slo_attainment,
    );
    out.oracle(
        "frontend.hedged_beats_unhedged",
        hedged.goodput_rps > unhedged.goodput_rps,
        format_args!(
            "hedged goodput ({:.0} rps) beats unhedged ({:.0} rps)",
            hedged.goodput_rps, unhedged.goodput_rps
        ),
    );
    let _ = writeln!(out);

    // — Autoscaling into a bursty workload —
    let scaled_cfg = FrontendConfig::new(
        Workload::Bursty {
            low_rps: capacity * 0.1,
            high_rps: capacity * 0.9,
            period_us: 80.0 * service,
            duty: 0.3,
            requests,
            seed: 1711,
        },
        slo,
    )
    .autoscale(AutoscaleConfig::new(1, 4, 20.0 * service, 10.0 * service));
    let scaled = simulate_frontend(&fleet, &LeastQueued, &AdmitAll, &scaled_cfg)
        .expect("valid autoscale configuration");
    let _ = writeln!(
        out,
        "### Autoscaling: bursty arrivals (0.9x/0.1x capacity, 30% duty), fleet 1..=4 shards\n\n\
         Starting from 1 shard, the autoscaler took {} scale-outs and {} \
         scale-ins (peak {} shards active, {} at the end; warm-up {:.0} µs \
         per shard). SLO attainment {:.1}%, goodput {:.0} rps.\n",
        scaled.scale_outs,
        scaled.scale_ins,
        scaled.peak_active_shards,
        scaled.final_active_shards,
        10.0 * service,
        scaled.slo_attainment * 100.0,
        scaled.goodput_rps,
    );
    out.metric("frontend.autoscale.scale_outs", scaled.scale_outs as f64);
    out.metric("frontend.autoscale.scale_ins", scaled.scale_ins as f64);
    out.metric(
        "frontend.autoscale.peak_active_shards",
        scaled.peak_active_shards as f64,
    );
    out.metric("frontend.autoscale.slo_attainment", scaled.slo_attainment);
    out.oracle(
        "frontend.autoscale.reacts",
        scaled.scale_outs > 0 && scaled.scale_ins > 0,
        "the autoscaler grew into the burst and shrank back",
    );
    let _ = writeln!(out);

    // — Policy sweep over the overload + fault scenario —
    let overload_horizon = requests as f64 / (capacity * 1.5) * 1e6;
    let sweep_base =
        overload
            .clone()
            .faults(FaultPlan::random(fleet.len(), overload_horizon, 1, 1, 1711));
    let combos = sweep_combos(
        &fleet,
        &sweep_base,
        &[&LeastQueued, &FastestCompletion],
        &[&AdmitAll, &bounded],
        &[HedgeConfig::disabled(), HedgeConfig::hedged(4.0 * service)],
        &[None],
        // The degrade tier either takes the flat 0.5x discount or rides
        // amortized batches of up to 4 (flushed by 8 mean services).
        &[None, Some(DegradeBatching::new(4, 8.0 * service, 0.3))],
    )
    .expect("valid sweep configuration");
    let _ = writeln!(
        out,
        "### SLO sweep: scheduler x admission x hedging x degrade-batching \
         at 1.5x capacity with random faults\n"
    );
    let mut rows = Vec::new();
    for c in &combos {
        rows.push(vec![
            c.label(),
            fmt_f(c.summary.goodput_rps, 0),
            fmt_f(c.summary.shed_rate * 100.0, 1),
            fmt_f(c.summary.slo_attainment * 100.0, 1),
            fmt_f(c.summary.class(Priority::High).latency.p99_us, 1),
        ]);
    }
    out.table(
        &[
            "combo",
            "goodput (rps)",
            "shed (%)",
            "SLO att. (%)",
            "high p99 (µs)",
        ],
        &rows,
    );
    let best = best_goodput(&combos).expect("sweep is non-empty");
    let _ = writeln!(
        out,
        "\nBest goodput: **{}** at {:.0} rps ({:.1}% SLO attainment).",
        best.label(),
        best.summary.goodput_rps,
        best.summary.slo_attainment * 100.0,
    );
    out.metric("frontend.sweep.best_goodput_rps", best.summary.goodput_rps);
    out.metric(
        "frontend.sweep.best_slo_attainment",
        best.summary.slo_attainment,
    );
    out
}
