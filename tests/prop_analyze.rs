//! Property tests for the trace-analytics invariants under random
//! seeds and loads: whatever the workload does, every request's
//! critical path stays within [longest phase, request span], the
//! four-phase attribution sums to the request latency, and the tail
//! exemplars are exactly the K slowest analysed requests.

use proptest::prelude::*;
use sparsenn::frontend::{
    simulate_frontend_traced, BoundedQueues, DegradeBatching, FrontendConfig, HedgeConfig,
    SloPolicy,
};
use sparsenn::obs::{analyze, offline_top_k, RingRecorder, Span};
use sparsenn::serve::{LeastQueued, ShardSpec, Workload};

const SERVICE_US: f64 = 10.0;
const REQUESTS: usize = 300;

/// A 3-shard run at `rate_tenths`/10 × capacity with random class mix
/// and optional hedging, traced into a recorder.
fn traced_run(seed: u64, rate_tenths: u32, low_tenths: u32, hedged: bool) -> Vec<Span> {
    let fleet: Vec<ShardSpec> = (0..3)
        .map(|i| ShardSpec::uniform(format!("s{i}"), SERVICE_US))
        .collect();
    let capacity = 3.0e6 / SERVICE_US;
    let slo = SloPolicy {
        high_us: 12.0 * SERVICE_US,
        low_us: 48.0 * SERVICE_US,
    };
    let mut cfg = FrontendConfig::new(
        Workload::Poisson {
            rate_rps: f64::from(rate_tenths) * 0.1 * capacity,
            requests: REQUESTS,
            seed,
        },
        slo,
    )
    .low_fraction(f64::from(low_tenths) * 0.1)
    .degrade_batching(DegradeBatching::new(4, 8.0 * SERVICE_US, 0.3));
    if hedged {
        cfg = cfg.hedge(HedgeConfig::hedged(6.0 * SERVICE_US));
    }
    let gate = BoundedQueues::new(12, 4).degrade_low_beyond(2);
    let recorder = RingRecorder::new(1 << 16);
    simulate_frontend_traced(&fleet, &LeastQueued, &gate, &cfg, &recorder)
        .expect("random scenario configs are valid");
    recorder.spans()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The attribution contract, request by request: phases sum to the
    /// span, the critical path is a real path (≤ span, ≥ its longest
    /// constituent, steps in time order inside the request interval).
    #[test]
    fn critical_path_invariants_hold_under_random_loads(
        seed in 0u64..1_000,
        rate_tenths in 3u32..30, // 0.3× to 2.9× fleet capacity
        low_tenths in 0u32..10,
        hedged in any::<bool>(),
    ) {
        let spans = traced_run(seed, rate_tenths, low_tenths, hedged);
        let analysis = analyze(&spans);
        prop_assert_eq!(analysis.requests.len(), REQUESTS);
        for r in &analysis.requests {
            prop_assert!(
                (r.phases_sum_us() - r.total_us).abs() <= 1e-6 * r.total_us.max(1.0),
                "request {}: phases {:?} vs total {}", r.trace_id, r.phase_us, r.total_us
            );
            let path = r.critical_path_us();
            prop_assert!(path <= r.total_us + 1e-9);
            prop_assert!(path + 1e-9 >= r.max_phase_us());
            for w in r.path.windows(2) {
                prop_assert!(w[0].end_us <= w[1].start_us + 1e-9);
            }
            if let Some(first) = r.path.first() {
                prop_assert!(first.start_us >= -1e-9);
            }
        }
    }

    /// Whatever the stream does, the exemplars are the K slowest of the
    /// requests `analyze` reconstructs (ties: lower id first), each with
    /// every span recorded under its id, in recording order.
    #[test]
    fn offline_top_k_keeps_the_slowest_analysed_requests(
        seed in 0u64..1_000,
        rate_tenths in 3u32..30,
        k in 1usize..12,
    ) {
        let spans = traced_run(seed, rate_tenths, 4, false);
        let mut ranked: Vec<(u64, f64)> = analyze(&spans)
            .requests
            .iter()
            .map(|r| (r.trace_id, r.total_us))
            .collect();
        ranked.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        ranked.truncate(k);
        let exemplars = offline_top_k(&spans, k);
        let kept: Vec<(u64, f64)> = exemplars.iter().map(|e| (e.trace_id, e.latency_us)).collect();
        prop_assert_eq!(kept, ranked);
        for e in &exemplars {
            let own: Vec<Span> = spans.iter().filter(|s| s.trace_id == e.trace_id).copied().collect();
            prop_assert_eq!(&e.spans, &own);
        }
    }
}
