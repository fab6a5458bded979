//! The `serve_sim` path: seeded open-loop traffic on a 4-shard fleet in
//! virtual time, through the three discrete-event simulators back to back
//! (one *round*):
//!
//! * `sparsenn_serve::simulate` — Poisson arrivals at 0.9× capacity,
//!   `FastestCompletion` scheduling;
//! * `sparsenn_serve::simulate_batched` — on/off bursts at 2×/0.2×
//!   capacity, `SizeOrDeadline { max: 4 }` batching;
//! * `sparsenn_frontend::simulate_frontend` — 1.3× overload, 40 % low
//!   priority, bounded queues with a degrade tier, degrade batching,
//!   hedging, one slowdown fault and a burn-rate monitor.
//!
//! Shards serve from the cycle-accurate machine's *modelled* per-sample
//! and per-batch times on the system's network, so every replay of a round
//! must reproduce set-up's round's summaries exactly. The virtual
//! end-to-end metrics come from a longer front-end run of the same
//! scenario, made twice.
//!
//! On `serve_sim` the rounds are the measured calls. Every other workload
//! reports `sim_requests_per_s` too, and runs rounds in short slices
//! between its own calls ([`Rounds::tick`]), so that both sample the whole
//! window.

use crate::check::Tally;
use crate::metrics::Metrics;
use crate::stats::{median, secs, Budget, Calls};
use crate::systems::derive;
use crate::trace::{timed, Overhead, SpanId, Tracer};
use sparsenn_core::engine::{
    BatchPolicy, BoundedQueues, CycleAccurateBackend, FastestCompletion, InferenceBackend,
    LeastQueued, Priority,
};
use sparsenn_core::model::fixedpoint::UvMode;
use sparsenn_core::numeric::Q6_10;
use sparsenn_core::TrainedSystem;
use sparsenn_frontend::{
    simulate_frontend, simulate_frontend_traced, BurnConfig, DegradeBatching, Fault, FaultPlan,
    FrontendConfig, FrontendSummary, HedgeConfig, SloPolicy,
};
use sparsenn_obs::RingRecorder;
use sparsenn_serve::{
    fleet_capacity_rps, simulate, simulate_batched, BatchShardSpec, BatchedSummary, MetricsMode,
    ServeSummary, ShardSpec, Workload,
};
use std::time::{Duration, Instant};

/// Requests each simulator serves per round: short calls, so that a
/// quiet moment on a shared host fits one (see `Calls::fastest_per_input`).
pub const REQUESTS: usize = 2_000;
/// Host seconds of rounds per [`Rounds::tick`] slice, and of the main probe's
/// calls between two slices: a quarter of the window, in slices far
/// shorter than a shared host's busy phases.
const SIDE_SLICE_S: f64 = 0.1;
const MAIN_SLICE_S: f64 = 0.3;
/// Requests of the front-end run behind the virtual end-to-end metrics:
/// enough for a steady high-priority p99.
const VIRTUAL_REQUESTS: usize = 200_000;
const SHARDS: usize = 4;
/// Test images behind the per-sample service table.
const TABLE_SAMPLES: usize = 8;
/// Largest batch in the per-batch service table.
const MAX_BATCH: usize = 4;
/// Ring size of the recorder-overhead probe.
const RING: usize = 2048;
/// Traced/untraced front-end pairs of the recorder-overhead probe.
const OBS_PAIRS: usize = 8;

const SIM_SPANS: [&str; 3] = [
    "serve.simulate",
    "serve.simulate_batched",
    "frontend.simulate_frontend",
];

/// One round's fleet, traffic and policies.
pub struct Scenario {
    fleet: Vec<ShardSpec>,
    batch_fleet: Vec<BatchShardSpec>,
    poisson: Workload,
    bursty: Workload,
    policy: BatchPolicy,
    gate: BoundedQueues,
    front: FrontendConfig,
}

/// The three summaries of one round.
#[derive(Clone, Debug, PartialEq)]
struct Summaries {
    serve: ServeSummary,
    batched: BatchedSummary,
    front: FrontendSummary,
}

/// The cycle-accurate machine's modelled uv_on service times on the first
/// test images: per sample, and per batch of 1..=`MAX_BATCH`.
fn modelled_tables(sys: &TrainedSystem) -> Result<(Vec<f64>, Vec<f64>), String> {
    let backend = CycleAccurateBackend::new(sys.machine().clone());
    let net = sys.fixed();
    let test = &sys.split().test;
    let inputs: Vec<Vec<Q6_10>> = (0..TABLE_SAMPLES.max(MAX_BATCH))
        .map(|i| net.quantize_input(test.image(i % test.len())))
        .collect();
    let fail = |e| format!("modelled service table: {e}");
    let per_sample = inputs[..TABLE_SAMPLES]
        .iter()
        .map(|x| backend.run(net, x, UvMode::On).map(|r| r.time_us()))
        .collect::<Result<Vec<f64>, _>>()
        .map_err(fail)?;
    let per_batch = (1..=MAX_BATCH)
        .map(|b| {
            backend
                .run_batch(net, &inputs[..b], UvMode::On)
                .map(|r| r.batch_time_us)
        })
        .collect::<Result<Vec<f64>, _>>()
        .map_err(fail)?;
    Ok((per_sample, per_batch))
}

impl Scenario {
    fn new(per_sample: &[f64], per_batch: &[f64], seed: u64, requests: usize) -> Self {
        let fleet: Vec<ShardSpec> = (0..SHARDS)
            .map(|i| ShardSpec::with_table(format!("chip-{i}"), per_sample.to_vec()))
            .collect();
        let batch_fleet = (0..SHARDS)
            .map(|i| BatchShardSpec::with_table(format!("chip-{i}"), per_batch.to_vec()))
            .collect();
        let capacity = fleet_capacity_rps(&fleet);
        let service = fleet[0].mean_service_us();
        let overload = 1.3 * capacity;
        let horizon_us = requests as f64 / overload * 1e6;
        let mut front = FrontendConfig::new(
            Workload::Poisson {
                rate_rps: overload,
                requests,
                seed: derive(seed, 13),
            },
            SloPolicy {
                high_us: 30.0 * service,
                low_us: 120.0 * service,
            },
        )
        .low_fraction(0.4)
        .hedge(HedgeConfig::hedged(6.0 * service))
        .degrade_batching(DegradeBatching::new(4, 8.0 * service, 0.3))
        .faults(FaultPlan::new(vec![Fault::Slowdown {
            shard: 1,
            at_us: 0.3 * horizon_us,
            for_us: 0.2 * horizon_us,
            factor: 4.0,
        }]))
        .burn_monitor(BurnConfig::new(0.9, 100.0 * service, 500.0 * service));
        front.class_seed = derive(seed, 14);
        Self {
            fleet,
            batch_fleet,
            poisson: Workload::Poisson {
                rate_rps: 0.9 * capacity,
                requests,
                seed: derive(seed, 11),
            },
            bursty: Workload::Bursty {
                low_rps: 0.2 * capacity,
                high_rps: 2.0 * capacity,
                period_us: 80.0 * service,
                duty: 0.3,
                requests,
                seed: derive(seed, 12),
            },
            policy: BatchPolicy::SizeOrDeadline {
                max: MAX_BATCH,
                deadline_us: 4.0 * service,
            },
            gate: BoundedQueues::new(16, 6).degrade_low_beyond(2),
            front,
        }
    }

    /// One round, each simulator timed (and traced under `root`).
    fn round(
        &self,
        mut tracer: Option<&mut Tracer>,
        root: Option<SpanId>,
        id: u64,
    ) -> (Result<Summaries, String>, [f64; 3]) {
        let (serve, a) = timed(tracer.as_deref_mut(), SIM_SPANS[0], root, id, || {
            simulate(&self.fleet, &FastestCompletion, &self.poisson)
        });
        let (batched, b) = timed(tracer.as_deref_mut(), SIM_SPANS[1], root, id, || {
            simulate_batched(
                &self.batch_fleet,
                &LeastQueued,
                self.policy,
                &self.bursty,
                MetricsMode::Streaming,
            )
        });
        let (front, c) = timed(tracer, SIM_SPANS[2], root, id, || self.frontend());
        let summaries = (|| {
            Ok(Summaries {
                serve: serve.map_err(|e| e.to_string())?,
                batched: batched.map_err(|e| e.to_string())?,
                front: front?,
            })
        })();
        (summaries, [a, b, c])
    }

    fn frontend(&self) -> Result<FrontendSummary, String> {
        simulate_frontend(&self.fleet, &LeastQueued, &self.gate, &self.front)
            .map_err(|e| e.to_string())
    }

    /// `simulate_frontend_traced` into a `RingRecorder` against
    /// `simulate_frontend`: host overhead (%) and spans per request.
    fn recorder_overhead(&self) -> Result<(f64, f64), String> {
        let (mut plain, mut traced) = (Vec::new(), Vec::new());
        let mut spans = 0u64;
        for _ in 0..OBS_PAIRS {
            let t = Instant::now();
            self.frontend()?;
            plain.push(secs(t, Instant::now()));
            let recorder = RingRecorder::new(RING);
            let t = Instant::now();
            simulate_frontend_traced(
                &self.fleet,
                &LeastQueued,
                &self.gate,
                &self.front,
                &recorder,
            )
            .map_err(|e| e.to_string())?;
            traced.push(secs(t, Instant::now()));
            spans = recorder.len() as u64 + recorder.dropped();
        }
        Ok((
            100.0 * (median(&traced) / median(&plain) - 1.0),
            spans as f64 / REQUESTS as f64,
        ))
    }
}

/// The timed rounds' scenario and the longer virtual-metrics one.
pub struct Scenarios {
    rounds: Scenario,
    reference: Scenario,
    /// Set-up's round, which every timed round must reproduce.
    first: Summaries,
}

/// Builds the service tables and the scenarios, and runs the first round.
pub fn setup(sys: &TrainedSystem, seed: u64) -> Result<Scenarios, String> {
    let (per_sample, per_batch) = modelled_tables(sys)?;
    let rounds = Scenario::new(&per_sample, &per_batch, seed, REQUESTS);
    let reference = Scenario::new(&per_sample, &per_batch, seed, VIRTUAL_REQUESTS);
    let first = rounds
        .round(None, None, 0)
        .0
        .map_err(|e| format!("serve_sim first round: {e}"))?;
    Ok(Scenarios {
        rounds,
        reference,
        first,
    })
}

/// Timed rounds, each checked against set-up's round: the measured calls
/// of `serve_sim` ([`run`]), or slices of rounds between another probe's
/// calls ([`tick`](Self::tick)).
pub struct Rounds<'a> {
    scenarios: &'a Scenarios,
    calls: Calls,
    overhead: Overhead,
    /// When the next slice is due.
    next: Instant,
}

impl<'a> Rounds<'a> {
    pub fn new(scenarios: &'a Scenarios) -> Self {
        Self {
            scenarios,
            // The three simulators are the three distinct inputs of the calls.
            calls: Calls::new(3, REQUESTS as f64),
            overhead: Overhead::default(),
            next: Instant::now(),
        }
    }

    /// Called after each of another probe's calls: runs a slice of
    /// `SIDE_SLICE_S` (at least one round) once `MAIN_SLICE_S` has passed
    /// since the last slice.
    pub fn tick(&mut self, mut tracer: Option<&mut Tracer>, tally: &mut Tally) {
        let start = Instant::now();
        if start < self.next {
            return;
        }
        loop {
            self.round(tracer.as_deref_mut(), tally);
            if secs(start, Instant::now()) >= SIDE_SLICE_S {
                break;
            }
        }
        self.next = Instant::now() + Duration::from_secs_f64(MAIN_SLICE_S);
    }

    fn round(&mut self, mut tracer: Option<&mut Tracer>, tally: &mut Tally) {
        let id = self.calls.len() as u64;
        let t_pre = Instant::now();
        let root = tracer
            .as_deref_mut()
            .and_then(|t| t.open("serve.round", t_pre, id));
        let (result, host) = self.scenarios.rounds.round(tracer.as_deref_mut(), root, id);
        self.calls.seconds.extend(host);
        if let Some(tr) = tracer {
            tr.close(root, Instant::now());
            self.overhead.bare_s.push(host.iter().sum());
            self.overhead.wrapped_s.push(secs(t_pre, Instant::now()));
        }
        let first = &self.scenarios.first;
        match result {
            Ok(s) => {
                tally.record(s.serve == first.serve);
                tally.record(s.batched == first.batched);
                tally.record(s.front == first.front);
            }
            Err(_) => (0..3).for_each(|_| tally.record(false)),
        }
    }

    /// The virtual-metrics run, twice to check the replay, and in traced
    /// runs the recorder-overhead probe.
    ///
    /// # Errors
    ///
    /// When the virtual or recorder runs fail.
    pub fn finish(self, traced: bool, tally: &mut Tally) -> Result<Serve, String> {
        let Self {
            scenarios,
            calls,
            overhead,
            ..
        } = self;
        let virtual_front = scenarios.reference.frontend()?;
        tally.record(scenarios.reference.frontend()? == virtual_front);
        let obs = traced
            .then(|| scenarios.rounds.recorder_overhead())
            .transpose()?;
        Ok(Serve {
            calls,
            overhead,
            reference: scenarios.first.clone(),
            virtual_front,
            obs,
        })
    }
}

/// What one serve probe measured.
pub struct Serve {
    pub calls: Calls,
    pub overhead: Overhead,
    reference: Summaries,
    /// The longer front-end run behind the virtual end-to-end metrics.
    virtual_front: FrontendSummary,
    /// Recorder overhead (%) and spans per request (traced runs only).
    obs: Option<(f64, f64)>,
}

/// Runs rounds within `budget` (at least one), then finishes them.
///
/// # Errors
///
/// When the virtual or recorder runs fail.
pub fn run(
    scenarios: &Scenarios,
    budget: Budget,
    mut tracer: Option<&mut Tracer>,
    tally: &mut Tally,
) -> Result<Serve, String> {
    let mut rounds = Rounds::new(scenarios);
    let start = Instant::now();
    while budget.more(start, rounds.calls.len()) {
        rounds.round(tracer.as_deref_mut(), tally);
    }
    rounds.finish(tracer.is_some(), tally)
}

impl Serve {
    /// The virtual end-to-end metrics: the front end's high-priority p99
    /// and its goodput.
    pub fn report_virtual(&self, m: &mut Metrics) {
        let front = &self.virtual_front;
        let high = front.class(Priority::High);
        m.set("virtual_p99_us", high.latency.p99_us, high.completed);
        m.set("virtual_goodput_rps", front.goodput_rps, front.requests);
    }

    /// The discrete-event loops' per-layer metrics.
    pub fn report_layers(&self, m: &mut Metrics) {
        let n = self.calls.len() / 3;
        let fastest = self.calls.fastest_per_input();
        let rate = |sim: usize| REQUESTS as f64 / fastest[sim];
        m.set("serve.simulate_requests_per_s", rate(0), n);
        m.set("serve.batched_requests_per_s", rate(1), n);
        m.set("frontend.requests_per_s", rate(2), n);
        let Summaries { serve, batched, .. } = &self.reference;
        let front = &self.virtual_front;
        m.set("serve.virtual_p99_us", serve.latency.p99_us, serve.requests);
        m.set("serve.mean_batch", batched.mean_batch, batched.batches);
        m.set("frontend.shed_rate", front.shed_rate, front.requests);
        m.set(
            "frontend.hedges_issued",
            front.hedges_issued as f64,
            front.requests,
        );
        m.set(
            "frontend.degrade_batches",
            front.degrade_batches as f64,
            front.requests,
        );
        m.set(
            "frontend.burn_alerts",
            front.burn_alerts.len() as f64,
            front.requests,
        );
        if let Some((pct, spans)) = self.obs {
            m.set("obs.recorder_overhead_pct", pct, OBS_PAIRS);
            m.set("obs.spans_per_request", spans, REQUESTS);
        }
    }
}
