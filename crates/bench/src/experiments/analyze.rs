//! Trace analytics study (beyond the paper — ROADMAP analytics layer):
//! critical-path attribution, tail exemplars, and SLO burn-rate
//! monitoring over a seeded 4-shard overload scenario.
//!
//! The scenario is self-contained (uniform synthetic shards — no
//! trained system), so it is fast and trivially byte-deterministic: a
//! bursty workload alternates an injected overload window (3× fleet
//! capacity) with a quiet phase, against a nominal Poisson control at
//! half capacity. Both runs trace into a [`RingRecorder`], the tail
//! exemplars are the recording's [`offline_top_k`], and the front end
//! carries a per-class
//! [`BurnRateMonitor`](sparsenn_obs::BurnRateMonitor).
//!
//! Three oracles, recorded as `analyze.*` metrics beside their report
//! lines:
//!
//! 1. **Attribution is exact** — every request's per-phase breakdown
//!    (hold/queue/service/other) sums to its request-span latency
//!    within float rounding.
//! 2. **The critical path is a path** — per request, its length is ≤
//!    the request span and ≥ the longest single attributed phase.
//! 3. **Burn-rate alerting discriminates** — the monitor fires at
//!    least once inside the injected overload and raises zero alerts
//!    on the nominal control.
//!
//! Plus the report oracle: [`render_report`] output is byte-identical
//! across two fresh captures of the same seed (the `trace_report` bin
//! prints the same report).

use crate::report::Report;
use sparsenn_frontend::{
    simulate_frontend_traced, AlertKind, BoundedQueues, BurnConfig, ClassBurnAlert,
    DegradeBatching, FrontendConfig, FrontendSummary, HedgeConfig, SloPolicy,
};
use sparsenn_obs::{
    analyze, breakdown_report, offline_top_k, Exemplar, RingRecorder, Span, TraceAnalysis,
};
use sparsenn_serve::{LeastQueued, ShardSpec, Workload};
use std::fmt::Write as _;

/// Uniform per-request service time of the synthetic shards, µs.
const SERVICE_US: f64 = 10.0;
/// Shards in the fleet (capacity = `SHARDS / SERVICE_US` rps · 1e6).
const SHARDS: usize = 4;
/// Slowest requests the exemplar table lists.
const TOP_K: usize = 10;
/// Slowest requests the report prints.
const TOP_N: usize = 8;

/// The seeded scenario: the overload run when `overload`, else the
/// nominal control. Identical fleet, SLOs, hedging, degrade batching
/// and burn configuration — only the workload differs.
pub fn scenario(overload: bool) -> (Vec<ShardSpec>, BoundedQueues, FrontendConfig) {
    let fleet: Vec<ShardSpec> = (0..SHARDS)
        .map(|i| ShardSpec::uniform(format!("shard-{i}"), SERVICE_US))
        .collect();
    let capacity = SHARDS as f64 * 1e6 / SERVICE_US;
    let slo = SloPolicy {
        high_us: 12.0 * SERVICE_US,
        low_us: 48.0 * SERVICE_US,
    };
    let workload = if overload {
        // Injected overload: 3× capacity for 30% of every 4 ms period,
        // half capacity in between.
        Workload::Bursty {
            low_rps: 0.5 * capacity,
            high_rps: 3.0 * capacity,
            period_us: 400.0 * SERVICE_US,
            duty: 0.3,
            requests: 2400,
            seed: 23,
        }
    } else {
        // Nominal control: steady half capacity, same request count.
        Workload::Poisson {
            rate_rps: 0.5 * capacity,
            requests: 2400,
            seed: 23,
        }
    };
    let cfg = FrontendConfig::new(workload, slo)
        .low_fraction(0.4)
        .hedge(HedgeConfig::hedged(6.0 * SERVICE_US))
        .degrade_batching(DegradeBatching::new(4, 8.0 * SERVICE_US, 0.3))
        .burn_monitor(
            BurnConfig::new(0.9, 100.0 * SERVICE_US, 500.0 * SERVICE_US)
                .threshold(2.0)
                .min_events(20),
        );
    let gate = BoundedQueues::new(16, 6).degrade_low_beyond(2);
    (fleet, gate, cfg)
}

/// One traced capture of a scenario: the summary and the full
/// recording. Pure function of `overload`, so two calls must agree
/// byte for byte.
pub fn capture(overload: bool) -> (FrontendSummary, Vec<Span>) {
    let (fleet, gate, cfg) = scenario(overload);
    let recorder = RingRecorder::new(1 << 17);
    let summary = simulate_frontend_traced(&fleet, &LeastQueued, &gate, &cfg, &recorder)
        .expect("the analyze scenario is valid");
    (summary, recorder.spans())
}

/// Renders the full trace-analytics report: the latency breakdown (see
/// [`breakdown_report`]), the tail-exemplar table, and any burn-rate
/// alert edges. Deterministic — fixed-precision floats, stable orders.
pub fn render_report(
    analysis: &TraceAnalysis,
    exemplars: &[Exemplar],
    alerts: &[ClassBurnAlert],
    top_n: usize,
) -> String {
    let mut out = breakdown_report(analysis, top_n);
    out.push_str(&format!(
        "\n-- tail exemplars ({} slowest) --\n",
        exemplars.len()
    ));
    for (rank, e) in exemplars.iter().enumerate() {
        out.push_str(&format!(
            "#{:<2} request {:<6} latency {:>10.3} us  spans {}\n",
            rank + 1,
            e.trace_id,
            e.latency_us,
            e.spans.len(),
        ));
    }
    out.push_str("\n-- burn-rate alerts --\n");
    if alerts.is_empty() {
        out.push_str("(none)\n");
    }
    for a in alerts {
        out.push_str(&format!(
            "t={:>12.3} us  class={:<5} {:<6} fast_burn={:.3} slow_burn={:.3}\n",
            a.alert.at_us,
            format!("{:?}", a.class).to_lowercase(),
            a.alert.kind.name(),
            a.alert.fast_burn,
            a.alert.slow_burn,
        ));
    }
    out
}

const ORACLES: &[&str] = &[
    "analyze.breakdown_sums_ok",
    "analyze.critical_path_ok",
    "analyze.burn_ok",
    "analyze.report_deterministic",
];

/// Runs the trace-analytics study (self-contained; no trained system).
pub fn run() -> Report {
    let mut out = Report::new(ORACLES);
    let _ = writeln!(
        out,
        "## Trace analytics: critical paths, tail exemplars, burn rates\n"
    );

    let (summary, spans) = capture(true);
    let analysis = analyze(&spans);

    // Oracle 1: phase attribution sums to request latency, per request.
    let sums_ok = analysis
        .requests
        .iter()
        .all(|r| (r.phases_sum_us() - r.total_us).abs() <= 1e-6 * r.total_us.max(1.0));
    // Oracle 2: the critical path is bounded by the request span and
    // dominates its longest constituent phase.
    let path_ok = analysis.requests.iter().all(|r| {
        let path = r.critical_path_us();
        path <= r.total_us + 1e-9 && path + 1e-9 >= r.max_phase_us()
    });
    // Oracle 3: the burn monitor fires in the injected overload and
    // stays silent on the nominal control.
    let fires = summary
        .burn_alerts
        .iter()
        .filter(|a| a.alert.kind == AlertKind::Fire)
        .count();
    let (nominal, _) = capture(false);
    let burn_ok = fires >= 1 && nominal.burn_alerts.is_empty();

    // Report oracle: a fresh capture renders the identical report.
    let exemplars = offline_top_k(&spans, TOP_K);
    let report = render_report(&analysis, &exemplars, &summary.burn_alerts, TOP_N);
    let (summary2, spans2) = capture(true);
    let report2 = render_report(
        &analyze(&spans2),
        &offline_top_k(&spans2, TOP_K),
        &summary2.burn_alerts,
        TOP_N,
    );
    let deterministic = report == report2;

    let _ = writeln!(
        out,
        "### Overload run: {} requests over {} shards (bursty 0.5×/3× capacity)\n",
        summary.requests, SHARDS
    );
    out.table(
        &["measure", "value"],
        &[
            vec![
                "requests analyzed".into(),
                analysis.requests.len().to_string(),
            ],
            vec![
                "completed / shed / failed".into(),
                format!(
                    "{} / {} / {}",
                    summary.classes.iter().map(|c| c.completed).sum::<usize>(),
                    summary.classes.iter().map(|c| c.shed).sum::<usize>(),
                    summary.classes.iter().map(|c| c.failed).sum::<usize>(),
                ),
            ],
            vec![
                "slo attainment".into(),
                format!("{:.3}", summary.slo_attainment),
            ],
            vec![
                "queue share of latency".into(),
                format!(
                    "{:.1}%",
                    analysis.overall.percent(sparsenn_obs::Phase::Queue)
                ),
            ],
            vec![
                "burn alerts (overload)".into(),
                summary.burn_alerts.len().to_string(),
            ],
            vec![
                "burn alerts (nominal control)".into(),
                nominal.burn_alerts.len().to_string(),
            ],
            vec!["orphan spans".into(), analysis.orphan_spans.to_string()],
        ],
    );

    let _ = writeln!(out, "\n```\n{report}```\n");
    out.metric("analyze.requests", analysis.requests.len() as f64);
    out.metric("analyze.orphan_spans", analysis.orphan_spans as f64);
    out.oracle(
        "analyze.breakdown_sums_ok",
        sums_ok,
        "phase breakdown sums to request latency",
    );
    out.oracle(
        "analyze.critical_path_ok",
        path_ok,
        "critical path within [max phase, request span]",
    );
    out.metric("analyze.burn_fires_overload", fires as f64);
    out.metric(
        "analyze.burn_alerts_nominal",
        nominal.burn_alerts.len() as f64,
    );
    out.oracle(
        "analyze.burn_ok",
        burn_ok,
        "burn-rate fires under overload, quiet at nominal",
    );
    out.oracle(
        "analyze.report_deterministic",
        deterministic,
        "trace report byte-identical across reruns",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oracles_hold_on_the_seeded_scenario() {
        let r = run();
        let value = |name: &str| {
            r.metrics
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| *v)
                .expect("metric present")
        };
        assert_eq!(value("analyze.breakdown_sums_ok"), 1.0);
        assert_eq!(value("analyze.critical_path_ok"), 1.0);
        assert_eq!(value("analyze.burn_ok"), 1.0);
        assert_eq!(value("analyze.report_deterministic"), 1.0);
        assert!(value("analyze.burn_fires_overload") >= 1.0);
        assert_eq!(value("analyze.burn_alerts_nominal"), 0.0);
        assert!(r.failures().is_empty(), "{}", r.markdown);
    }
}
