//! Trace-export tests: the Chrome-trace JSON the obs exporter writes is
//! valid JSON (re-read with the workspace's own reader), structurally a
//! Perfetto trace-event document, byte-identical for a fixed seed, and
//! its span lists satisfy the nesting invariants under randomized
//! workloads (property-tested). The two readers of outside bytes, the
//! JSON reader and `parse_chrome_trace`, are total: random, truncated,
//! corrupted or absurdly nested input is an `Err`, never a panic or a
//! stack overflow.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use sparsenn_bench::report::json::{lookup, parse, JsonValue, MAX_DEPTH};
use sparsenn_bench::report::{parse_chrome_trace, BenchResults, ExperimentResult};
use sparsenn_frontend::{
    simulate_frontend_traced, BoundedQueues, DegradeBatching, FrontendConfig, HedgeConfig,
    SloPolicy,
};
use sparsenn_obs::{check_nesting, chrome_trace, RingRecorder, Span, SpanKind};
use sparsenn_serve::{
    simulate_batched_traced, BatchPolicy, BatchShardSpec, FirstIdle, LeastQueued, MetricsMode,
    ShardSpec, Workload,
};

/// One traced front-end run on a synthetic 2-shard fleet: overload at
/// 1.2x capacity with hedging and degrade batching on, so the trace
/// exercises every span kind the front end emits.
fn frontend_spans(seed: u64, rate_factor: f64) -> Vec<Span> {
    let service = 100.0;
    let fleet: Vec<ShardSpec> = (0..2)
        .map(|i| ShardSpec::uniform(format!("shard-{i}"), service))
        .collect();
    let slo = SloPolicy {
        high_us: 12.0 * service,
        low_us: 48.0 * service,
    };
    let cfg = FrontendConfig::new(
        Workload::Poisson {
            rate_rps: rate_factor * 2.0e6 / service,
            requests: 300,
            seed,
        },
        slo,
    )
    .low_fraction(0.4)
    .hedge(HedgeConfig::hedged(6.0 * service))
    .degrade_batching(DegradeBatching::new(4, 8.0 * service, 0.3));
    let gate = BoundedQueues::new(8, 3).degrade_low_beyond(2);
    let recorder = RingRecorder::new(1 << 16);
    simulate_frontend_traced(&fleet, &LeastQueued, &gate, &cfg, &recorder)
        .expect("the synthetic fleet config is valid");
    recorder.spans()
}

/// One traced batched-serving run (batch-assembly / service / request
/// spans on the serve track).
fn serve_spans(seed: u64) -> Vec<Span> {
    let shards: Vec<BatchShardSpec> = (0..2)
        .map(|i| {
            BatchShardSpec::with_table(format!("machine-{i}"), vec![90.0, 160.0, 220.0, 270.0])
        })
        .collect();
    let recorder = RingRecorder::new(1 << 16);
    simulate_batched_traced(
        &shards,
        &FirstIdle,
        BatchPolicy::SizeOrDeadline {
            max: 4,
            deadline_us: 400.0,
        },
        &Workload::Poisson {
            rate_rps: 18_000.0,
            requests: 500,
            seed,
        },
        MetricsMode::Streaming,
        &recorder,
    )
    .expect("the synthetic batched fleet config is valid");
    recorder.spans()
}

/// Every trace event must carry the fields Perfetto requires for its
/// phase; args-bearing events must parse as objects.
fn assert_perfetto_shaped(trace: &str) {
    let doc = parse(trace).expect("exporter output must be valid JSON");
    let fields = doc.as_object().expect("top level is an object");
    let events = match lookup(fields, "traceEvents") {
        Some(JsonValue::Arr(events)) => events,
        other => panic!("traceEvents must be an array, got {other:?}"),
    };
    assert!(!events.is_empty(), "trace must contain events");
    let mut phases = std::collections::BTreeMap::new();
    for ev in events {
        let ev = ev.as_object().expect("every event is an object");
        let ph = lookup(ev, "ph")
            .and_then(JsonValue::as_str)
            .expect("every event has a phase");
        *phases.entry(ph.to_string()).or_insert(0usize) += 1;
        for key in ["name", "pid", "tid"] {
            assert!(lookup(ev, key).is_some(), "phase {ph} event missing {key}");
        }
        match ph {
            "M" | "X" | "b" => {
                let args = lookup(ev, "args")
                    .and_then(JsonValue::as_object)
                    .expect("metadata/begin/complete events carry args");
                if ph != "M" {
                    assert!(
                        lookup(args, "trace_id")
                            .and_then(JsonValue::as_f64)
                            .is_some(),
                        "span events are self-describing via args.trace_id"
                    );
                }
            }
            "e" => {}
            other => panic!("unexpected phase {other}"),
        }
        if ph == "b" || ph == "e" {
            assert!(lookup(ev, "id").is_some(), "async events are keyed by id");
        }
        if ph == "X" {
            let dur = lookup(ev, "dur")
                .and_then(JsonValue::as_f64)
                .expect("complete events carry a duration");
            assert!(dur >= 0.0, "durations are never negative");
        }
    }
    assert_eq!(
        phases.get("b"),
        phases.get("e"),
        "async begin/end events must pair up"
    );
    assert!(phases.contains_key("M"), "lane metadata must be present");
}

#[test]
fn frontend_trace_is_valid_perfetto_json() {
    let spans = frontend_spans(17, 1.2);
    assert!(
        spans.iter().any(|s| s.kind == SpanKind::Attempt),
        "overloaded run must service attempts"
    );
    assert_perfetto_shaped(&chrome_trace(&spans));
}

#[test]
fn serve_trace_is_valid_perfetto_json() {
    let spans = serve_spans(23);
    for kind in [
        SpanKind::BatchAssembly,
        SpanKind::Service,
        SpanKind::Request,
    ] {
        assert!(
            spans.iter().any(|s| s.kind == kind),
            "batched run must emit {kind:?} spans"
        );
    }
    assert_perfetto_shaped(&chrome_trace(&spans));
}

#[test]
fn fixed_seed_traces_are_byte_identical() {
    assert_eq!(
        chrome_trace(&frontend_spans(17, 1.2)),
        chrome_trace(&frontend_spans(17, 1.2)),
        "same seed, same bytes (frontend)"
    );
    assert_eq!(
        chrome_trace(&serve_spans(23)),
        chrome_trace(&serve_spans(23)),
        "same seed, same bytes (serve)"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Span-nesting invariants hold for arbitrary seeds and loads, from
    /// underload through heavy overload: children stay inside their
    /// request span, queue waits precede their attempts, and no span has
    /// negative duration.
    #[test]
    fn nesting_invariants_hold_under_random_load(
        seed in 0u64..10_000,
        rate_pct in 40u32..200,
    ) {
        let spans = frontend_spans(seed, f64::from(rate_pct) / 100.0);
        prop_assert!(!spans.is_empty());
        if let Some(err) = check_nesting(&spans) {
            return Err(TestCaseError::fail(format!("nesting violated: {err}")));
        }
        let spans = serve_spans(seed);
        if let Some(err) = check_nesting(&spans) {
            return Err(TestCaseError::fail(format!("serve nesting violated: {err}")));
        }
    }
}

#[test]
fn deep_nesting_is_an_error_not_a_stack_overflow() {
    let depth = 100_000;
    for doc in [
        "[".repeat(depth),
        format!("{}{}", "[".repeat(depth), "]".repeat(depth)),
        format!("{}1{}", "{\"a\":".repeat(depth), "}".repeat(depth)),
    ] {
        assert!(parse(&doc).is_err());
        assert!(parse_chrome_trace(&doc).is_err());
    }
    let nested = |levels: usize| format!("{}{}", "[".repeat(levels), "]".repeat(levels));
    assert!(parse(&nested(MAX_DEPTH)).is_ok());
    assert!(parse(&nested(MAX_DEPTH + 1)).is_err());
}

/// A `BENCH_results.json` document and a Chrome-trace export: the
/// well-formed inputs the totality property truncates and corrupts.
fn documents() -> [String; 2] {
    let mut results = BenchResults::new("fast");
    for (name, seconds) in [("table2", 0.002), ("kernel", 1.5)] {
        results.experiments.push(ExperimentResult {
            name: name.into(),
            seconds,
            report_chars: 100,
        });
    }
    results.metrics.extend([
        ("kernel.bit_exact".into(), 1.0),
        ("serve.hetero.p95_us.first-idle@75pct".into(), 12.5),
    ]);
    let spans = frontend_spans(5, 1.2);
    [
        results.to_json(),
        chrome_trace(&spans[..60.min(spans.len())]),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Random bytes, and truncated or byte-flipped copies of real
    /// documents, come back `Ok` or `Err` from every parser — no panic.
    #[test]
    fn parsers_are_total_on_corrupted_input(
        doc in 0usize..3,
        cut in 0usize..1_000_000,
        flips in prop::collection::vec((0usize..1_000_000, any::<u8>()), 0..4),
        noise in prop::collection::vec(any::<u8>(), 0..96),
    ) {
        let bytes = match documents().into_iter().nth(doc) {
            Some(text) => {
                let mut bytes = text.into_bytes();
                bytes.truncate(cut % (bytes.len() + 1));
                for (at, mask) in flips {
                    if !bytes.is_empty() {
                        let i = at % bytes.len();
                        bytes[i] ^= mask;
                    }
                }
                bytes
            }
            None => noise,
        };
        let text = String::from_utf8_lossy(&bytes);
        let _ = parse(&text);
        let _ = parse_chrome_trace(&text);
    }
}
