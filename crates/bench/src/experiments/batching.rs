//! Cross-request batching study (beyond the paper — ROADMAP serving
//! north star): what the batch-native execution path buys and costs.
//!
//! Two measurements, both anchored in the real cycle-accurate machine:
//!
//! 1. **Amortization** — `CycleAccurateBackend::run_batch` on real test
//!    images for B = 1..=8: per-sample time and the W-read amortization
//!    factor (union-pass W reads vs B serial passes), plus the
//!    bit-identity oracle (every per-sample record in every batch must
//!    equal its serial run exactly — batching is purely a timing/energy
//!    decision, never a numerics one).
//! 2. **The serving knee** — the measured per-batch-size service table
//!    feeds [`simulate_batched`]: at a saturating offered load, shard
//!    throughput rises with the batch cap (the amortization win); at a
//!    light load, tail latency rises with it (requests wait for fills or
//!    deadlines). The pair is the throughput/latency trade an operator
//!    tunes `BatchPolicy` against.

use crate::fmt_f;
use crate::report::Report;
use sparsenn_core::engine::{CycleAccurateBackend, InferenceBackend};
use sparsenn_core::model::fixedpoint::UvMode;
use sparsenn_core::numeric::Q6_10;
use sparsenn_core::Profile;
use sparsenn_serve::{
    simulate_batched, BatchPolicy, BatchShardSpec, FirstIdle, MetricsMode, Workload,
};
use std::fmt::Write as _;

/// Largest batch the study measures.
const MAX_BATCH: usize = 8;

const ORACLES: &[&str] = &[
    "batching.bit_identical",
    "batching.throughput_monotone",
    "batching.latency_cost_visible",
];

/// Runs the batching study, training its own
/// [`study_system`](super::fleet::study_system).
pub fn run(p: Profile) -> Report {
    measure_with(p, &super::fleet::study_system(p))
}

/// Runs the batching study on an already-trained system (shared with the
/// other serving studies by `run_all`).
pub fn measure_with(p: Profile, sys: &sparsenn_core::TrainedSystem) -> Report {
    let backend = CycleAccurateBackend::new(sys.machine().clone());
    let net = sys.fixed();
    let test = &sys.split().test;
    let inputs: Vec<Vec<Q6_10>> = (0..MAX_BATCH)
        .map(|i| net.quantize_input(test.image(i % test.len())))
        .collect();

    let mut out = Report::new(ORACLES);
    let _ = writeln!(out, "## Cross-request batching (profile: {p})\n");

    // — Amortization on the real machine, plus the bit-identity oracle —
    let serial: Vec<_> = inputs
        .iter()
        .map(|x| {
            backend
                .run(net, x, UvMode::On)
                .expect("the study network fits the machine")
        })
        .collect();
    let serial_us = serial[0].time_us();
    let mut batch_service_us = Vec::with_capacity(MAX_BATCH);
    let mut bit_identical = true;
    let mut rows = Vec::new();
    for b in 1..=MAX_BATCH {
        let rec = backend
            .run_batch(net, &inputs[..b], UvMode::On)
            .expect("the study network fits the machine");
        bit_identical &= rec
            .records
            .iter()
            .zip(&serial[..b])
            .all(|(batched, serial)| batched == serial);
        batch_service_us.push(rec.batch_time_us);
        rows.push(vec![
            b.to_string(),
            fmt_f(rec.batch_time_us, 2),
            fmt_f(rec.mean_time_us(), 2),
            fmt_f(rec.serial_time_us() / rec.batch_time_us.max(1e-12), 2),
            fmt_f(rec.w_read_amortization(), 2),
        ]);
        out.metric(format!("batching.per_sample_us.B{b}"), rec.mean_time_us());
        out.metric(
            format!("batching.w_read_amortization.B{b}"),
            rec.w_read_amortization(),
        );
    }
    let _ = writeln!(
        out,
        "### Machine-level amortization: `run_batch` on real test images\n"
    );
    out.table(
        &[
            "B",
            "batch (µs)",
            "µs/sample",
            "speedup vs serial",
            "W-read amortization",
        ],
        &rows,
    );
    let _ = writeln!(out);
    out.oracle(
        "batching.bit_identical",
        bit_identical,
        format_args!(
            "batched execution bit-identical to the serial oracle across B=1..={MAX_BATCH}"
        ),
    );
    let _ = writeln!(out);

    // — The serving knee on the measured batch-service table —
    let spec = BatchShardSpec::with_table("machine", batch_service_us.clone());
    let serial_capacity = 1e6 / batch_service_us[0].max(1e-12);
    let requests = 3000;
    let deadline_us = 40.0 * serial_us;
    let caps = [1usize, 2, 4, 8];
    let run = |cap: usize, rate: f64, seed: u64| {
        simulate_batched(
            std::slice::from_ref(&spec),
            &FirstIdle,
            BatchPolicy::SizeOrDeadline {
                max: cap,
                deadline_us,
            },
            &Workload::Poisson {
                rate_rps: rate,
                requests,
                seed,
            },
            MetricsMode::Streaming,
        )
        .expect("valid batching simulation")
    };
    // Saturating load: 2.5x the serial capacity, so every cap's queue
    // stays backed up and throughput measures *capacity*, not arrivals.
    let mut sat = Vec::new();
    // Light load: 40% of serial capacity — batching buys nothing here
    // and its hold windows show up as tail latency.
    let mut light = Vec::new();
    let mut rows = Vec::new();
    for &cap in &caps {
        let s = run(cap, serial_capacity * 2.5, 4242);
        let l = run(cap, serial_capacity * 0.4, 4242);
        rows.push(vec![
            cap.to_string(),
            fmt_f(s.throughput_rps, 0),
            fmt_f(s.mean_batch, 2),
            fmt_f(l.latency.p99_us, 1),
            fmt_f(l.mean_batch, 2),
        ]);
        out.metric(
            format!("batching.throughput_rps.B{cap}@sat"),
            s.throughput_rps,
        );
        out.metric(format!("batching.p99_us.B{cap}@light"), l.latency.p99_us);
        sat.push(s);
        light.push(l);
    }
    let monotone = sat
        .windows(2)
        .all(|w| w[1].throughput_rps > w[0].throughput_rps);
    let (p99_b1, p99_b8) = (
        light.first().expect("caps non-empty").latency.p99_us,
        light.last().expect("caps non-empty").latency.p99_us,
    );
    let _ = writeln!(
        out,
        "### The serving knee: one shard, SizeOrDeadline(B, {:.0} µs), \
         measured batch-service table\n",
        deadline_us,
    );
    out.table(
        &[
            "batch cap",
            "throughput @2.5x load (rps)",
            "mean batch @2.5x",
            "p99 @0.4x load (µs)",
            "mean batch @0.4x",
        ],
        &rows,
    );
    let _ = writeln!(out);
    out.oracle(
        "batching.throughput_monotone",
        monotone,
        "throughput per shard strictly improves with the batch cap under saturation",
    );
    out.oracle(
        "batching.latency_cost_visible",
        p99_b8 > p99_b1,
        format_args!(
            "the hold window costs light-load tail latency \
             (p99 {p99_b8:.1} µs at B=8 vs {p99_b1:.1} µs at B=1)"
        ),
    );
    out
}
