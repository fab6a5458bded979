//! Observability study (beyond the paper — ROADMAP tracing plane): the
//! end-to-end trace and the cost of carrying it.
//!
//! Two measurements:
//!
//! 1. **The trace** — one traced front-end run (admission verdicts,
//!    degrade-batch holds, queue waits, per-shard attempts, hedges and
//!    cancellations), composed with per-chip Broadcast/VU/W/Gather
//!    spans from the partitioned machine for a sample of the same
//!    request ids, exported as Chrome-trace JSON (Perfetto-loadable).
//!    Oracles: byte-identical across reruns for the fixed seed, span
//!    nesting invariants hold, and every attempt/chip span's request id
//!    appears among the request spans. The ring's drop count is
//!    recorded as `obs.spans_dropped`, so a truncated trace shows.
//! 2. **The overhead oracle** — the batched serving simulator timed
//!    three ways (plain, traced with a disabled [`NullSink`], traced
//!    into a [`RingRecorder`]), interleaved min-of-N: a disabled sink
//!    must cost ≤ 1 %, an enabled recorder ≤ 10 %.

use crate::fmt_f;
use crate::report::Report;
use sparsenn_core::engine::{CycleAccurateBackend, InferenceBackend, PartitionedMachine};
use sparsenn_core::model::fixedpoint::UvMode;
use sparsenn_core::numeric::Q6_10;
use sparsenn_core::partition::InterChipConfig;
use sparsenn_core::{Profile, TrainedSystem};
use sparsenn_frontend::{
    simulate_frontend_traced, BoundedQueues, DegradeBatching, Fault, FaultPlan, FrontendConfig,
    HedgeConfig, SloPolicy,
};
use sparsenn_obs::{check_nesting, chrome_trace, min_wall_us, NullSink, RingRecorder, SpanKind};
use sparsenn_serve::{
    simulate_batched, simulate_batched_traced, BatchPolicy, BatchShardSpec, FirstIdle, LeastQueued,
    MetricsMode, ShardSpec, Workload,
};
use std::fmt::Write as _;

/// How many of the traced requests also get per-chip machine spans.
const CHIP_TRACED_REQUESTS: usize = 3;
/// Ring capacity of the always-on flight-recorder configuration the
/// <= 10% overhead oracle prices: the newest spans, bounded so the
/// recorder's working set stays cache-resident.
const FLIGHT_RECORDER_SPANS: usize = 2048;

/// Interleaved timing repetitions for the overhead oracle.
const OVERHEAD_REPS: usize = 15;
/// Requests per timed serving run — large enough that the run is
/// milliseconds, not timer noise.
const OVERHEAD_REQUESTS: usize = 40_000;

const ORACLES: &[&str] = &[
    "obs.trace_deterministic",
    "obs.nesting_ok",
    "obs.spans_covered",
    "obs.overhead_disabled_ok",
    "obs.overhead_enabled_ok",
];

/// Runs the observability study, training its own
/// [`study_system`](super::fleet::study_system).
pub fn run(p: Profile) -> Report {
    measure_with(p, &super::fleet::study_system(p))
}

/// One traced front-end run plus composed chip spans for a sample of
/// its request ids, in one recorder. Everything is a pure function of
/// the inputs, so two calls must produce byte-identical traces.
fn capture_trace(
    fleet: &[ShardSpec],
    gate: &BoundedQueues,
    cfg: &FrontendConfig,
    machine: &PartitionedMachine,
    net: &sparsenn_core::model::fixedpoint::FixedNetwork,
    input: &[Q6_10],
) -> RingRecorder {
    let recorder = RingRecorder::new(1 << 17);
    simulate_frontend_traced(fleet, &LeastQueued, gate, cfg, &recorder)
        .expect("the traced study config is valid");
    // Per-chip spans for the first few attempts: re-run the request on
    // the partitioned machine, anchored at the attempt's service start,
    // keyed by the same request id. (The chip timeline illustrates what
    // the shard's silicon does during the attempt; the front end models
    // the shard as one service time.)
    let attempts: Vec<(u64, f64)> = recorder
        .spans()
        .iter()
        .filter(|s| s.kind == SpanKind::Attempt)
        .take(CHIP_TRACED_REQUESTS)
        .map(|s| (s.trace_id, s.start_us))
        .collect();
    for (request_id, start_us) in attempts {
        machine
            .run_traced(net, input, UvMode::On, request_id, start_us, &recorder)
            .expect("the study network fits the 2-chip plan");
    }
    recorder
}

/// Runs the observability study on an already-trained system (shared
/// with the other serving studies by `run_all`).
pub fn measure_with(p: Profile, sys: &TrainedSystem) -> Report {
    let backend = CycleAccurateBackend::new(sys.machine().clone());
    let net = sys.fixed();
    let test = &sys.split().test;
    let input = net.quantize_input(test.image(0));

    let mut out = Report::new(ORACLES);
    let _ = writeln!(out, "## Observability plane (profile: {p})\n");

    let service_us = backend
        .run(net, &input, UvMode::On)
        .expect("the study network fits the machine")
        .time_us();
    let batch_inputs: Vec<Vec<Q6_10>> = (0..4)
        .map(|i| net.quantize_input(test.image(i % test.len())))
        .collect();
    let batch_service_us: Vec<f64> = (1..=4)
        .map(|b| {
            backend
                .run_batch(net, &batch_inputs[..b], UvMode::On)
                .expect("the study network fits the machine")
                .batch_time_us
        })
        .collect();

    // — 1. The end-to-end trace —
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
            requests: 800,
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
    let machine =
        PartitionedMachine::new(net, *sys.machine().config(), 2, InterChipConfig::default())
            .expect("the study network splits across 2 chips");

    let recorder = capture_trace(&fleet, &gate, &cfg, &machine, net, &input);
    let spans = recorder.spans();
    let trace = chrome_trace(&spans);
    let recorder_again = capture_trace(&fleet, &gate, &cfg, &machine, net, &input);
    let deterministic = trace == chrome_trace(&recorder_again.spans());
    let nesting = check_nesting(&spans);

    // Coverage: every attempt and chip span correlates to a request
    // span's id — the trace joins layers on one key.
    let request_ids: Vec<u64> = spans
        .iter()
        .filter(|s| s.kind == SpanKind::Request)
        .map(|s| s.trace_id)
        .collect();
    let covered = spans
        .iter()
        .filter(|s| matches!(s.kind, SpanKind::Attempt | SpanKind::W | SpanKind::Vu))
        .all(|s| request_ids.contains(&s.trace_id));
    let kind_count = |kind: SpanKind| spans.iter().filter(|s| s.kind == kind).count();
    let chip_spans = kind_count(SpanKind::W)
        + kind_count(SpanKind::Vu)
        + kind_count(SpanKind::Broadcast)
        + kind_count(SpanKind::Gather);

    let trace_path =
        std::env::var("SPARSENN_TRACE_JSON").unwrap_or_else(|_| "obs_trace.json".into());
    let written = std::fs::write(&trace_path, &trace).is_ok();

    let _ = writeln!(
        out,
        "### End-to-end trace: front end + 2-chip machine, one request-id key\n"
    );
    out.table(
        &["span kind", "count"],
        &[
            vec!["request".into(), kind_count(SpanKind::Request).to_string()],
            vec![
                "admit / degrade / shed".into(),
                format!(
                    "{} / {} / {}",
                    kind_count(SpanKind::Admit),
                    kind_count(SpanKind::Degrade),
                    kind_count(SpanKind::Shed)
                ),
            ],
            vec![
                "degrade_batch".into(),
                kind_count(SpanKind::DegradeBatch).to_string(),
            ],
            vec!["queued".into(), kind_count(SpanKind::Queued).to_string()],
            vec!["attempt".into(), kind_count(SpanKind::Attempt).to_string()],
            vec![
                "hedge / cancel / retry".into(),
                format!(
                    "{} / {} / {}",
                    kind_count(SpanKind::Hedge),
                    kind_count(SpanKind::Cancel),
                    kind_count(SpanKind::Retry)
                ),
            ],
            vec![
                "chip (broadcast/vu/w/gather)".into(),
                chip_spans.to_string(),
            ],
        ],
    );
    let _ = writeln!(
        out,
        "\n{} spans ({} dropped), {} bytes of Chrome-trace JSON{} — load in Perfetto / \
         chrome://tracing.\n",
        spans.len(),
        recorder.dropped(),
        trace.len(),
        if written {
            format!(", written to `{trace_path}`")
        } else {
            String::new()
        },
    );
    out.metric("obs.trace_spans", spans.len() as f64);
    out.metric("obs.trace_bytes", trace.len() as f64);
    out.metric("obs.spans_dropped", recorder.dropped() as f64);
    out.oracle(
        "obs.trace_deterministic",
        deterministic,
        "trace deterministic across reruns",
    );
    out.oracle(
        "obs.nesting_ok",
        nesting.is_none(),
        format_args!(
            "span nesting invariants hold{}",
            nesting
                .map(|err| format!(" (violated: {err})"))
                .unwrap_or_default()
        ),
    );
    out.oracle(
        "obs.spans_covered",
        covered,
        "attempt & chip spans keyed to request ids",
    );
    let _ = writeln!(out);

    // — 2. The overhead oracle on the batched serving bench —
    // A 4-shard batched fleet at 0.9x aggregate capacity, the shape the
    // serving experiments sweep; spans are per request and per batch, so
    // the traced cost is independent of fleet width while the baseline
    // work (placement views, per-shard queues) is the real thing.
    let overhead_shards: Vec<BatchShardSpec> = (0..4)
        .map(|i| BatchShardSpec::with_table(format!("machine-{i}"), batch_service_us.clone()))
        .collect();
    let workload = Workload::Poisson {
        rate_rps: 4.0 * 0.9e6 / service_us.max(1e-12),
        requests: OVERHEAD_REQUESTS,
        seed: 99,
    };
    let policy = BatchPolicy::SizeOrDeadline {
        max: 4,
        deadline_us: 20.0 * service_us,
    };
    let shards = overhead_shards.as_slice();
    let probe = RingRecorder::new(1 << 17);
    let _ = simulate_batched_traced(
        shards,
        &FirstIdle,
        policy,
        &workload,
        MetricsMode::Streaming,
        &probe,
    );
    let overhead_spans = probe.len();
    drop(probe);
    // Two enabled configurations, both long-lived (allocated once,
    // cleared per rep, min-of-N skipping the rep that faults buffers
    // in — tracing infrastructure in a real server is allocated at
    // startup, so steady state is what the oracle should price):
    //
    // * the *flight recorder*, a bounded ring keeping the newest
    //   `FLIGHT_RECORDER_SPANS` spans — the always-on configuration,
    //   whose working set stays cache-resident. This one carries the
    //   <= 10% oracle.
    // * *full capture*, a ring sized for the entire trace — the
    //   capture-for-Perfetto configuration. Reported for scale; its
    //   extra cost is streaming every span to DRAM, which is the price
    //   of keeping 6 MB of trace, not of the tracing plane.
    let flight_recorder = RingRecorder::new(FLIGHT_RECORDER_SPANS);
    let full_recorder = RingRecorder::new(1 << 17);
    let traced = |sink: &dyn sparsenn_obs::TraceSink| {
        let _ = simulate_batched_traced(
            shards,
            &FirstIdle,
            policy,
            &workload,
            MetricsMode::Streaming,
            sink,
        );
    };
    let [base, disabled, flight, full] = min_wall_us(
        OVERHEAD_REPS,
        [
            &mut || {
                let _ = simulate_batched(
                    shards,
                    &FirstIdle,
                    policy,
                    &workload,
                    MetricsMode::Streaming,
                );
            },
            &mut || traced(&NullSink),
            &mut || {
                flight_recorder.clear();
                traced(&flight_recorder);
            },
            &mut || {
                full_recorder.clear();
                traced(&full_recorder);
            },
        ],
    );
    let pct = |t: f64| (100.0 * (t - base) / base.max(1e-12)).max(0.0);
    let (disabled_pct, enabled_pct, full_pct) = (pct(disabled), pct(flight), pct(full));
    let _ = writeln!(
        out,
        "### Tracing overhead: {OVERHEAD_REQUESTS} batched requests on {} shards \
         ({overhead_spans} spans), min of {OVERHEAD_REPS}\n",
        shards.len()
    );
    out.table(
        &["pipeline", "wall (ms)", "overhead"],
        &[
            vec![
                "plain `simulate_batched`".into(),
                fmt_f(base * 1e-3, 2),
                "—".into(),
            ],
            vec![
                "traced, disabled sink".into(),
                fmt_f(disabled * 1e-3, 2),
                format!("{disabled_pct:.2}%"),
            ],
            vec![
                format!("traced, flight recorder ({FLIGHT_RECORDER_SPANS} spans)"),
                fmt_f(flight * 1e-3, 2),
                format!("{enabled_pct:.2}%"),
            ],
            vec![
                "traced, full capture (informational)".into(),
                fmt_f(full * 1e-3, 2),
                format!("{full_pct:.2}%"),
            ],
        ],
    );
    let _ = writeln!(out);
    out.metric("obs.overhead_disabled_pct", disabled_pct);
    out.metric("obs.overhead_enabled_pct", enabled_pct);
    out.oracle(
        "obs.overhead_disabled_ok",
        disabled_pct <= 1.0,
        "disabled-sink overhead within 1%",
    );
    out.oracle(
        "obs.overhead_enabled_ok",
        enabled_pct <= 10.0,
        "enabled-recorder overhead within 10%",
    );
    out
}
