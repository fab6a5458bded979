//! Virtual-time serving study: latency-vs-offered-load curves per
//! scheduler over homogeneous and heterogeneous fleets (beyond the paper
//! — the "heavy traffic" north star).
//!
//! The old fleet study modelled throughput as the degenerate
//! `shards / latency`, which cannot show queueing delay, burstiness, or
//! the win from latency-aware dispatch. This experiment feeds each
//! backend's *measured* per-sample `time_us` table into the
//! `sparsenn-serve` discrete-event simulator and sweeps offered load per
//! [`Scheduler`] — the same trait the live `engine::Fleet` dispatches
//! with — over:
//!
//! * a **homogeneous** fleet of cycle-accurate machines, where the
//!   closed-loop concurrency = shards run validates the simulator (mean
//!   latency must equal the modelled per-sample time, zero queueing);
//! * a **heterogeneous** fleet mixing machines with the slower SIMD
//!   platforms of Table IV (cf. LRADNN / DNN-Engine), where
//!   fastest-expected-completion should beat first-idle on p95.

use crate::fmt_f;
use crate::report::Report;
use sparsenn_core::engine::{
    CycleAccurateBackend, FastestCompletion, FirstIdle, InferenceBackend, LeastQueued, Scheduler,
};
use sparsenn_core::model::fixedpoint::UvMode;
use sparsenn_core::sim::simd::SimdPlatform;
use sparsenn_core::Profile;
use sparsenn_serve::{fleet_capacity_rps, simulate, ServeSummary, ShardSpec, Workload};
use std::fmt::Write as _;

const ORACLES: &[&str] = &[
    "serve.closed_loop_matches_model",
    "serve.fec_beats_first_idle_p95",
];

/// The per-sample modelled service times of one backend on the first
/// `batch` test samples — the bridge from the inference engine's clock
/// models to the simulator's service tables.
fn service_table(
    sys: &sparsenn_core::TrainedSystem,
    backend: Box<dyn InferenceBackend>,
    batch: usize,
) -> Vec<f64> {
    let mut table = Vec::with_capacity(batch);
    sys.session_with(backend)
        .stream_batch(batch, UvMode::On, |_, record| {
            table.push(record.time_us());
        })
        .expect("the study network fits every backend");
    table
}

const SCHEDULERS: [&dyn Scheduler; 3] = [&FirstIdle, &LeastQueued, &FastestCompletion];

/// Offered-load fractions of fleet capacity for the Poisson sweep.
const LOAD_FRACTIONS: [f64; 3] = [0.5, 0.75, 0.9];

fn sweep_rows(
    fleet: &[ShardSpec],
    requests: usize,
    rows: &mut Vec<Vec<String>>,
) -> Vec<(f64, ServeSummary)> {
    let capacity = fleet_capacity_rps(fleet);
    let mut out = Vec::new();
    for &frac in &LOAD_FRACTIONS {
        for sched in SCHEDULERS {
            let workload = Workload::Poisson {
                rate_rps: capacity * frac,
                requests,
                seed: 1711,
            };
            let s = simulate(fleet, sched, &workload).expect("valid study configuration");
            rows.push(vec![
                format!("{:.0}%", frac * 100.0),
                s.scheduler.clone(),
                fmt_f(s.latency.p50_us, 1),
                fmt_f(s.latency.p95_us, 1),
                fmt_f(s.latency.p99_us, 1),
                fmt_f(s.queue_us_mean, 1),
                fmt_f(s.queue.max_depth as f64, 0),
                fmt_f(s.throughput_rps, 0),
            ]);
            out.push((frac, s));
        }
    }
    out
}

/// Runs the serving study, training its own
/// [`study_system`](super::fleet::study_system).
pub fn run(p: Profile) -> Report {
    measure_with(p, &super::fleet::study_system(p))
}

/// Runs the serving study on an already-trained system (shared with the
/// `fleet` experiment by `run_all`: the serving curves depend on the
/// *per-sample latency tables*, not on TER polish, so one training run
/// feeds both).
pub fn measure_with(p: Profile, sys: &sparsenn_core::TrainedSystem) -> Report {
    let dims = sys.network().mlp().dims();
    let batch = (p.sim_samples() * 4).min(sys.split().test.len());

    let machine_us = service_table(
        sys,
        Box::new(CycleAccurateBackend::new(sys.machine().clone())),
        batch,
    );
    let lradnn_us = service_table(
        sys,
        Box::new(sparsenn_core::engine::SimdBackend::new(
            SimdPlatform::lradnn(p.table_rank().min(8)),
        )),
        batch,
    );
    let engine_us = service_table(
        sys,
        Box::new(sparsenn_core::engine::SimdBackend::new(
            SimdPlatform::dnn_engine(),
        )),
        batch,
    );

    let homogeneous: Vec<ShardSpec> = (0..4)
        .map(|i| ShardSpec::with_table(format!("machine-{i}"), machine_us.clone()))
        .collect();
    let heterogeneous = vec![
        ShardSpec::with_table("machine-0", machine_us.clone()),
        ShardSpec::with_table("machine-1", machine_us.clone()),
        ShardSpec::with_table("DNN-Engine", engine_us.clone()),
        ShardSpec::with_table("LRADNN", lradnn_us.clone()),
    ];

    let mut out = Report::new(ORACLES);
    let _ = writeln!(
        out,
        "## Serving simulator — latency vs offered load per scheduler (profile: {p})\n"
    );
    let _ = writeln!(
        out,
        "Per-sample service tables measured on {batch} test samples \
         (3-layer [{}, {}, {}] network); mean modelled service: machine \
         {:.1} µs, DNN-Engine {:.1} µs, LRADNN {:.1} µs. Virtual-time \
         discrete-event simulation; the `Scheduler` policies are the same \
         trait objects the live `engine::Fleet` dispatches with.\n",
        dims[0],
        dims[1],
        dims[2],
        mean(&machine_us),
        mean(&engine_us),
        mean(&lradnn_us),
    );

    // — Closed-loop validation on the homogeneous fleet —
    let closed = simulate(
        &homogeneous,
        &FirstIdle,
        &Workload::ClosedLoop {
            concurrency: homogeneous.len(),
            requests: machine_us.len() * 4 * homogeneous.len(),
            think_us: 0.0,
        },
    )
    .expect("valid closed-loop configuration");
    let modelled_us = mean(&machine_us);
    let matches = (closed.latency.mean_us - modelled_us).abs() < 1e-6 * modelled_us.max(1.0)
        && closed.queue_us_mean == 0.0;
    let _ = writeln!(
        out,
        "**Closed-loop validation** (concurrency = shards = {}): simulated \
         mean latency {:.3} µs vs modelled per-sample time {:.3} µs, mean \
         time-in-queue {:.3} µs.\n",
        homogeneous.len(),
        closed.latency.mean_us,
        modelled_us,
        closed.queue_us_mean,
    );
    out.metric("serve.closed_loop_mean_latency_us", closed.latency.mean_us);
    out.oracle(
        "serve.closed_loop_matches_model",
        matches,
        "closed-loop latency matches the modelled service time, no queueing",
    );
    let _ = writeln!(out);

    // — Poisson load sweeps —
    let requests = 4000;
    for (title, fleet, tag) in [
        ("Homogeneous fleet (4x machine)", &homogeneous, "homo"),
        (
            "Heterogeneous fleet (2x machine + DNN-Engine + LRADNN)",
            &heterogeneous,
            "hetero",
        ),
    ] {
        let capacity = fleet_capacity_rps(fleet);
        let _ = writeln!(
            out,
            "### {title} — modelled capacity {:.0} rps, open-loop Poisson, {requests} requests\n",
            capacity
        );
        let mut rows = Vec::new();
        let results = sweep_rows(fleet, requests, &mut rows);
        out.table(
            &[
                "offered load",
                "scheduler",
                "p50 (µs)",
                "p95 (µs)",
                "p99 (µs)",
                "mean queue (µs)",
                "max depth",
                "throughput (rps)",
            ],
            &rows,
        );
        let _ = writeln!(out);
        out.metric(format!("serve.{tag}.capacity_rps"), capacity);
        for (frac, s) in &results {
            if (*frac - 0.75).abs() < 1e-9 {
                out.metric(
                    format!("serve.{tag}.p95_us.{}@75pct", s.scheduler),
                    s.latency.p95_us,
                );
            }
        }
        if tag == "hetero" {
            let p95_of = |sched: &str| {
                results
                    .iter()
                    .find(|(f, s)| (*f - 0.75).abs() < 1e-9 && s.scheduler == sched)
                    .map(|(_, s)| s.latency.p95_us)
                    .expect("sweep covers every scheduler")
            };
            let fec = p95_of("fastest-completion");
            let naive = p95_of("first-idle");
            out.oracle(
                "serve.fec_beats_first_idle_p95",
                fec < naive,
                format_args!(
                    "at 75% load, fastest-expected-completion p95 ({fec:.1} µs) \
                     beats first-idle ({naive:.1} µs)"
                ),
            );
            let _ = writeln!(out);
        }
    }

    // — Bursty arrivals on the heterogeneous fleet —
    let capacity = fleet_capacity_rps(&heterogeneous);
    let bursty = Workload::Bursty {
        low_rps: capacity * 0.2,
        high_rps: capacity * 2.0,
        period_us: 40.0 * mean(&machine_us),
        duty: 0.25,
        requests,
        seed: 1711,
    };
    let _ = writeln!(
        out,
        "### Bursty arrivals (on/off at 2.0x/0.2x capacity, 25% duty), heterogeneous fleet\n"
    );
    let mut rows = Vec::new();
    for sched in SCHEDULERS {
        let s = simulate(&heterogeneous, sched, &bursty).expect("valid bursty configuration");
        rows.push(vec![
            s.scheduler.clone(),
            fmt_f(s.latency.p50_us, 1),
            fmt_f(s.latency.p95_us, 1),
            fmt_f(s.latency.p99_us, 1),
            fmt_f(s.queue.max_depth as f64, 0),
            fmt_f(s.queue.mean_depth, 2),
        ]);
        out.metric(
            format!("serve.bursty.p99_us.{}", s.scheduler),
            s.latency.p99_us,
        );
    }
    out.table(
        &[
            "scheduler",
            "p50 (µs)",
            "p95 (µs)",
            "p99 (µs)",
            "max depth",
            "mean depth",
        ],
        &rows,
    );
    out
}

fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len().max(1) as f64
}
