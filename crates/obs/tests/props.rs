//! Property tests for the observability plane: span invariants the
//! emitters rely on, determinism of the exporters, and agreement
//! between the streaming accumulator and exact population statistics.

use proptest::prelude::*;
use sparsenn_obs::{
    check_nesting, chrome_trace, track, LatencyStat, LatencyStats, RingRecorder, Span, SpanKind,
    TraceSink,
};

/// An arbitrary request timeline: a request span plus children placed
/// inside it. Mirrors what the frontend emitter produces.
fn request_tree() -> impl Strategy<Value = Vec<Span>> {
    (
        0u64..1000,
        0.0f64..1e6,
        0.0f64..1e5,
        prop::collection::vec((0.0f64..1.0, 0.0f64..1.0, 0u32..4), 0..6),
    )
        .prop_map(|(id, start, dur, children)| {
            let end = start + dur;
            let mut spans = vec![Span::new(
                id,
                SpanKind::Request,
                track::FRONTEND,
                track::CONTROL,
                start,
                end,
            )];
            for (a, b, tid) in children {
                // Two fractions of the parent interval, ordered.
                let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
                spans.push(Span::new(
                    id,
                    SpanKind::Attempt,
                    track::FLEET,
                    tid + 1,
                    start + lo * dur,
                    start + hi * dur,
                ));
            }
            spans
        })
}

proptest! {
    /// Spans constructed through `Span::new` can never carry a negative
    /// duration, whatever clock arithmetic the caller did.
    #[test]
    fn constructed_spans_have_non_negative_durations(
        start in -1e9f64..1e9,
        delta in -1e6f64..1e6,
    ) {
        let s = Span::new(0, SpanKind::Service, track::SERVE, 1, start, start + delta);
        prop_assert!(s.duration_us() >= 0.0);
        prop_assert!(s.end_us >= s.start_us);
    }

    /// Well-formed request trees pass the nesting check; pushing any
    /// child past its parent's end is caught.
    #[test]
    fn nesting_check_accepts_contained_children(spans in request_tree()) {
        prop_assert_eq!(check_nesting(&spans), None);
    }

    #[test]
    fn nesting_check_rejects_escaping_children(spans in request_tree(), bump in 1.0f64..1e4) {
        prop_assume!(spans.len() > 1);
        let mut bad = spans;
        let parent_end = bad[0].end_us;
        bad[1].end_us = parent_end + bump;
        bad[1].start_us = bad[1].start_us.min(bad[1].end_us);
        prop_assert!(check_nesting(&bad).is_some());
    }

    /// The exporter is a pure function of the span list: same spans,
    /// same bytes — the foundation of the trace determinism oracle.
    #[test]
    fn chrome_trace_is_deterministic(spans in request_tree()) {
        prop_assert_eq!(chrome_trace(&spans), chrome_trace(&spans));
    }

    /// Every span recorded through the ring (below capacity) comes back
    /// unchanged and in order.
    #[test]
    fn ring_roundtrips_spans_in_order(spans in request_tree()) {
        let rec = RingRecorder::new(spans.len().max(1));
        for s in &spans {
            rec.record(*s);
        }
        prop_assert_eq!(rec.spans(), spans);
        prop_assert_eq!(rec.dropped(), 0);
    }

    /// The streaming accumulator agrees exactly with the population on
    /// everything it promises exactly (count, mean, max), for any input.
    #[test]
    fn latency_stat_matches_population_exacts(
        values in prop::collection::vec(0.0f64..1e6, 1..200),
    ) {
        let mut stat = LatencyStat::new();
        for &v in &values {
            stat.observe(v);
        }
        let exact = LatencyStats::of(&values);
        prop_assert_eq!(stat.count(), values.len() as u64);
        prop_assert!((stat.mean_us() - exact.mean_us).abs() <= 1e-6 * exact.mean_us.max(1.0));
        let s = stat.stats();
        prop_assert_eq!(s.max_us, exact.max_us);
        // Percentile estimates stay within the observed range.
        let lo = values.iter().cloned().fold(f64::INFINITY, f64::min);
        prop_assert!(s.p50_us >= lo - 1e-9 && s.p50_us <= exact.max_us + 1e-9);
        prop_assert!(s.p99_us >= lo - 1e-9 && s.p99_us <= exact.max_us + 1e-9);
    }
}
