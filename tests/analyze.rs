//! Acceptance tests for the trace-analytics layer, end to end through
//! the facade and the bench scenario: critical-path attribution sums
//! exactly, the tail exemplars come out slowest first with their span
//! sets, the burn-rate monitor discriminates overload from nominal
//! load, and the `trace_report` rendering is byte-deterministic —
//! including through a Chrome-trace export/parse round trip.

use sparsenn::obs::{analyze, chrome_trace, offline_top_k, AlertKind, Phase};
use sparsenn_bench::experiments::analyze::{capture, render_report};
use sparsenn_bench::report::parse_chrome_trace;

#[test]
fn breakdown_attributes_every_request_exactly() {
    let (summary, spans) = capture(true);
    let analysis = analyze(&spans);
    assert_eq!(
        analysis.requests.len(),
        summary.requests,
        "every offered request has a request span and a breakdown"
    );
    for r in &analysis.requests {
        assert!(
            (r.phases_sum_us() - r.total_us).abs() <= 1e-6 * r.total_us.max(1.0),
            "request {}: phases {:?} do not sum to {}",
            r.trace_id,
            r.phase_us,
            r.total_us
        );
        let path = r.critical_path_us();
        assert!(
            path <= r.total_us + 1e-9,
            "request {}: path {} exceeds span {}",
            r.trace_id,
            path,
            r.total_us
        );
        assert!(
            path + 1e-9 >= r.max_phase_us(),
            "request {}: path {} below its longest phase {}",
            r.trace_id,
            path,
            r.max_phase_us()
        );
        // Path steps are in time order and inside the request span.
        for w in r.path.windows(2) {
            assert!(w[0].end_us <= w[1].start_us + 1e-9);
        }
    }
    // The overload scenario is queue-dominated — the attribution should
    // say so.
    assert!(
        analysis.overall.percent(Phase::Queue) > 30.0,
        "overload must show up as queueing: {:?}",
        analysis.overall
    );
}

#[test]
fn tail_exemplars_are_sorted_with_full_span_sets() {
    let (_, spans) = capture(true);
    let exemplars = offline_top_k(&spans, 10);
    assert_eq!(exemplars.len(), 10);
    for w in exemplars.windows(2) {
        assert!(w[0].latency_us >= w[1].latency_us);
    }
    for e in &exemplars {
        assert!(!e.spans.is_empty());
    }
}

#[test]
fn burn_monitor_discriminates_overload_from_nominal() {
    let (overload, _) = capture(true);
    let fires = overload
        .burn_alerts
        .iter()
        .filter(|a| a.alert.kind == AlertKind::Fire)
        .count();
    assert!(
        fires >= 1,
        "injected overload must raise at least one alert: {:?}",
        overload.burn_alerts
    );
    let (nominal, _) = capture(false);
    assert!(
        nominal.burn_alerts.is_empty(),
        "nominal load must stay quiet: {:?}",
        nominal.burn_alerts
    );
}

#[test]
fn report_is_byte_identical_across_captures() {
    let report = || {
        let (summary, spans) = capture(true);
        render_report(
            &analyze(&spans),
            &offline_top_k(&spans, 10),
            &summary.burn_alerts,
            8,
        )
    };
    let r1 = report();
    assert_eq!(r1, report());
    for needle in [
        "latency breakdown",
        "per class",
        "path signatures",
        "tail exemplars",
        "burn-rate alerts",
        "fire",
    ] {
        assert!(r1.contains(needle), "report missing {needle:?}");
    }
}

#[test]
fn chrome_trace_export_reanalyzes_identically() {
    let (_, spans) = capture(true);
    let parsed = parse_chrome_trace(&chrome_trace(&spans)).expect("own export parses");
    assert_eq!(parsed.len(), spans.len());
    let a = analyze(&spans);
    let b = analyze(&parsed);
    // Span order differs (async begins re-emerge at their 'b' events)
    // and timestamps are quantized to the export's three decimals, but
    // per-request attribution must survive within that quantization.
    assert_eq!(a.requests.len(), b.requests.len());
    for (x, y) in a.requests.iter().zip(&b.requests) {
        assert_eq!(x.trace_id, y.trace_id);
        assert_eq!(x.class, y.class);
        assert_eq!(x.shard, y.shard);
        assert!((x.total_us - y.total_us).abs() < 1e-2);
        for (p, q) in x.phase_us.iter().zip(y.phase_us) {
            assert!((p - q).abs() < 1e-2);
        }
    }
}
