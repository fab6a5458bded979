//! The production-front-end simulator: admission, faults, hedging and
//! autoscaling on one deterministic virtual timeline.
//!
//! [`simulate_frontend`] drives the `sparsenn-serve` discrete-event
//! [`Core`] with the full [`FleetEvent`] vocabulary. Each arriving request is
//! classified ([`Priority`]), gated ([`AdmissionGate`] — admit, degrade,
//! or shed *before* touching a shard), then dispatched as a service
//! **attempt** by the shared [`Scheduler`] trait. Attempts — not requests
//! — are what shards run: a hedging timer may race a duplicate attempt
//! against a straggler (first finisher wins, the loser is cancelled and
//! its shard freed), and a fail-stop may kill an attempt mid-service
//! (retried on another shard when the [`HedgeConfig`] allows). An
//! optional [`AutoscaleConfig`] grows and shrinks the active fleet at
//! epoch boundaries, paying a warm-up delay before a new shard takes
//! traffic.
//!
//! Ties on the timeline break by push order, the class stream and fault
//! plan are seeded, and no hash-ordered container is iterated — a run is
//! a pure function of its arguments, so any two policy combinations can
//! be compared knowing every microsecond of difference is policy.

use crate::autoscale::{AutoscaleConfig, ScaleDecision};
use crate::faults::{Fault, FaultPlan};
use crate::hedge::HedgeConfig;
use crate::metrics::{ClassBurnAlert, ClassStats, FrontendSummary};
use crate::slo::SloPolicy;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sparsenn_obs::{
    track, AttrKey, BurnConfig, BurnRateMonitor, NullSink, Span, SpanKind, TraceSink,
};
use sparsenn_serve::{
    rate_per_s, AdmissionDecision, AdmissionGate, BatchPolicy, Core, FleetEvent, Priority,
    Scheduler, ServeError, ShardSpec, ShardView, StreamingLatency, Workload, DEADLINE_SLACK_US,
};
use std::collections::VecDeque;
use std::ops::{Index, IndexMut};

/// The trace-friendly class label.
fn class_name(class: Priority) -> &'static str {
    match class {
        Priority::High => "high",
        Priority::Low => "low",
    }
}

/// Service-time multiplier of a degraded request outside degrade
/// batching: the cheaper answer a
/// [`Degrade`](AdmissionDecision::Degrade) buys costs half a full one.
const DEGRADE_FACTOR: f64 = 0.5;

/// Everything one front-end run is configured by, minus the two policy
/// trait objects ([`Scheduler`], [`AdmissionGate`]) passed alongside.
#[derive(Clone, Debug, PartialEq)]
pub struct FrontendConfig {
    /// Traffic shape (shared with `sparsenn-serve`: the identical seeded
    /// arrival stream).
    pub workload: Workload,
    /// Probability an arriving request is [`Priority::Low`] (0..=1).
    pub low_fraction: f64,
    /// Seed of the class-assignment stream.
    pub class_seed: u64,
    /// Per-class latency SLOs.
    pub slo: SloPolicy,
    /// Hedging and retry policy.
    pub hedge: HedgeConfig,
    /// Injected faults.
    pub faults: FaultPlan,
    /// Autoscaling policy (`None`: the active fleet is fixed). An
    /// autoscaled run starts with `min_shards` active and keeps the rest
    /// as its scale-out reserve; any other run serves on every shard.
    pub autoscale: Option<AutoscaleConfig>,
    /// Degrade-tier batching (`None`: degraded requests dispatch
    /// immediately at half their full service time).
    /// When set, degraded traffic is *held* in a central buffer and
    /// released as a batch — larger and slower for the degraded request,
    /// cheaper per sample for the fleet. See [`DegradeBatching`].
    pub degrade_batching: Option<DegradeBatching>,
    /// SLO burn-rate monitoring (`None`: off). When set, each priority
    /// class runs its own multi-window [`BurnRateMonitor`] over
    /// deadline attainment — every terminal outcome feeds it (sheds and
    /// terminal failures are misses) — and the run's alert edges land
    /// in [`FrontendSummary::burn_alerts`].
    pub burn: Option<BurnConfig>,
}

/// Routes the admission gate's degrade tier onto the batch-native
/// substrate: degraded requests buffer centrally and flush as one batch
/// when `max` have gathered or the oldest has waited `deadline_us`
/// (exactly a [`BatchPolicy::SizeOrDeadline`] hold window — the same
/// fill-or-deadline rule, applied to the degrade tier). Each member of a
/// flushed batch of `b` is served at `factor(b) = (1 + marginal_cost ×
/// (b − 1)) / b` of its full service time — the amortized per-sample
/// cost of a batch whose first sample pays full price and every further
/// sample `marginal_cost` of it (the batched machine's W-read
/// amortization shape).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DegradeBatching {
    /// Buffer size that triggers a flush (≥ 1).
    pub max: usize,
    /// Oldest-request wait, µs, that flushes a partial buffer (finite,
    /// ≥ 0).
    pub deadline_us: f64,
    /// Marginal per-sample cost of growing a batch, as a fraction of a
    /// full service (0 < m ≤ 1; the batched machine measures ~0.2–0.5
    /// depending on sparsity overlap).
    pub marginal_cost: f64,
}

impl DegradeBatching {
    /// A hold window of up to `max` requests or `deadline_us`, at the
    /// given marginal batch cost.
    pub fn new(max: usize, deadline_us: f64, marginal_cost: f64) -> Self {
        Self {
            max,
            deadline_us,
            marginal_cost,
        }
    }

    /// Amortized per-sample service factor of a batch of `b` (≤ 1,
    /// decreasing in `b`; exactly 1 for a batch of one).
    pub fn factor(&self, b: usize) -> f64 {
        let b = b.max(1) as f64;
        (1.0 + self.marginal_cost * (b - 1.0)) / b
    }

    /// Checks the parameters, returning a description of the first
    /// violation. The hold window is checked as the
    /// [`BatchPolicy::SizeOrDeadline`] it is.
    pub fn validate(&self) -> Result<(), String> {
        BatchPolicy::SizeOrDeadline {
            max: self.max,
            deadline_us: self.deadline_us,
        }
        .validate()?;
        if !(self.marginal_cost.is_finite()
            && self.marginal_cost > 0.0
            && self.marginal_cost <= 1.0)
        {
            return Err(format!(
                "marginal batch cost must be in (0, 1], got {}",
                self.marginal_cost
            ));
        }
        Ok(())
    }
}

impl FrontendConfig {
    /// A high-priority-only, fault-free, unhedged, fixed-fleet baseline.
    pub fn new(workload: Workload, slo: SloPolicy) -> Self {
        Self {
            workload,
            low_fraction: 0.0,
            class_seed: 0xC1A55,
            slo,
            hedge: HedgeConfig::disabled(),
            faults: FaultPlan::none(),
            autoscale: None,
            degrade_batching: None,
            burn: None,
        }
    }

    /// Mixes in low-priority traffic at `fraction` of arrivals.
    pub fn low_fraction(mut self, fraction: f64) -> Self {
        self.low_fraction = fraction;
        self
    }

    /// Sets the hedging/retry policy.
    pub fn hedge(mut self, hedge: HedgeConfig) -> Self {
        self.hedge = hedge;
        self
    }

    /// Sets the fault plan.
    pub fn faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Enables autoscaling.
    pub fn autoscale(mut self, autoscale: AutoscaleConfig) -> Self {
        self.autoscale = Some(autoscale);
        self
    }

    /// Routes the degrade tier through cross-request batching instead of
    /// the flat half-cost discount.
    pub fn degrade_batching(mut self, batching: DegradeBatching) -> Self {
        self.degrade_batching = Some(batching);
        self
    }

    /// Enables per-class SLO burn-rate monitoring.
    pub fn burn_monitor(mut self, burn: BurnConfig) -> Self {
        self.burn = Some(burn);
        self
    }
}

/// Why a front-end simulation could not run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FrontendError {
    /// The fleet has no shards.
    NoShards,
    /// A shard's service table is empty or contains a non-finite or
    /// negative time.
    BadServiceTable {
        /// Offending shard index.
        shard: usize,
        /// What is wrong with it.
        reason: String,
    },
    /// A configuration parameter is invalid.
    BadConfig(String),
}

impl std::fmt::Display for FrontendError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrontendError::NoShards => f.write_str("a front-end fleet needs at least one shard"),
            FrontendError::BadServiceTable { shard, reason } => {
                write!(f, "shard {shard} service table: {reason}")
            }
            FrontendError::BadConfig(reason) => write!(f, "invalid front-end config: {reason}"),
        }
    }
}

impl std::error::Error for FrontendError {}

impl From<ServeError> for FrontendError {
    fn from(e: ServeError) -> Self {
        match e {
            ServeError::NoShards => FrontendError::NoShards,
            ServeError::BadServiceTable { shard, reason } => {
                FrontendError::BadServiceTable { shard, reason }
            }
            ServeError::InvalidWorkload(reason) | ServeError::InvalidPolicy(reason) => {
                FrontendError::BadConfig(reason)
            }
        }
    }
}

/// Why an attempt was dispatched: the admission-time primary, a hedge
/// duplicate racing a straggler, or a re-dispatch after a fail-stop.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum AttemptOrigin {
    Primary,
    Hedge,
    Retry,
}

impl AttemptOrigin {
    fn name(self) -> &'static str {
        match self {
            AttemptOrigin::Primary => "primary",
            AttemptOrigin::Hedge => "hedge",
            AttemptOrigin::Retry => "retry",
        }
    }
}

/// One service attempt of one request. Requests may spawn several
/// (hedges, retries); the first attempt to finish resolves the request.
#[derive(Clone, Copy, Debug)]
struct Attempt {
    id: u64,
    request: usize,
    origin: AttemptOrigin,
    /// Virtual time the attempt was dispatched — the start of its queue
    /// wait (its `Queued` span runs from here to service start).
    issued_us: f64,
}

/// A shard's standing in the front end's fleet; its serving state lives
/// in the core.
struct Health {
    /// Part of the serving set (false: scale-out reserve or scaled in).
    active: bool,
    /// Activated but still paying the warm-up cost.
    warming: bool,
    /// Fail-stopped.
    failed: bool,
    /// Service-time multiplier while a straggler window is open.
    slow_factor: f64,
}

impl Health {
    fn healthy(&self) -> bool {
        self.active && !self.warming && !self.failed
    }
}

/// One entry per request in flight: its size is the simulator's memory
/// per request, so derivable flags stay out.
struct RequestState {
    class: Priority,
    arrival_us: f64,
    degraded: bool,
    /// Service-time multiplier this request earned at admission: 1 for a
    /// full-fidelity answer, [`DEGRADE_FACTOR`] for a plain degrade, the
    /// amortized [`DegradeBatching::factor`] of its batch for a batched
    /// degrade (set at flush time).
    service_factor: f64,
    /// Held in the central degrade buffer, not yet dispatched.
    buffered: bool,
    /// Attempts currently in a queue or in service.
    live_attempts: u32,
    /// Hedges issued so far; nonzero marks a hedged request.
    hedges_used: usize,
    done: bool,
}

/// Per-request state for the requests in flight, indexed by request id:
/// the ids from the oldest unresolved request on. Resolved requests
/// retire from the front, so memory follows the requests in flight, not
/// the run's length. A retired id reads as done; only a hedge timer can
/// still name one.
#[derive(Default)]
struct Window {
    /// Id of `live[0]`.
    base: usize,
    live: VecDeque<RequestState>,
    /// Most requests held at once.
    peak: usize,
}

impl Window {
    /// The id the next arrival gets.
    fn next_id(&self) -> usize {
        self.base + self.live.len()
    }

    fn push(&mut self, r: RequestState) {
        self.live.push_back(r);
        self.peak = self.peak.max(self.live.len());
    }

    /// Whether `request` is resolved, retired or not.
    fn done(&self, request: usize) -> bool {
        request < self.base || self.live[request - self.base].done
    }

    /// Drops the resolved requests at the front.
    fn retire(&mut self) {
        while self.live.front().is_some_and(|r| r.done) {
            self.live.pop_front();
            self.base += 1;
        }
    }
}

impl Index<usize> for Window {
    type Output = RequestState;
    fn index(&self, request: usize) -> &RequestState {
        &self.live[request - self.base]
    }
}

impl IndexMut<usize> for Window {
    fn index_mut(&mut self, request: usize) -> &mut RequestState {
        &mut self.live[request - self.base]
    }
}

/// Service time of `request`'s attempt on a shard, µs: the shard's
/// modelled time, stretched by any straggler window and scaled by the
/// request's admission factor.
fn attempt_service_us(spec: &ShardSpec, health: &Health, request: usize, factor: f64) -> f64 {
    spec.service_for(request) * health.slow_factor * factor
}

/// The running simulation. All mutation funnels through these methods so
/// the attempt/queue/waiting invariants live in one place.
struct Engine<'a> {
    specs: &'a [ShardSpec],
    scheduler: &'a dyn Scheduler,
    admission: &'a dyn AdmissionGate,
    cfg: &'a FrontendConfig,
    /// Trace destination; span construction is skipped entirely when
    /// the sink reports itself disabled.
    sink: &'a dyn TraceSink,
    core: Core<Attempt, FleetEvent>,
    health: Vec<Health>,
    requests: Window,
    /// Degraded requests held for the next batch flush (request ids, in
    /// arrival order — index 0 is the oldest, whose wait arms deadlines).
    degrade_buffer: Vec<usize>,
    /// Queued (not in-service) attempts per priority class — what the
    /// admission gate sees as `waiting_same_class`.
    waiting: [usize; 2],
    next_attempt: u64,
    resolved: usize,
    class_rng: StdRng,
    // Accumulators.
    classes: [ClassStats; 2],
    latency: [StreamingLatency; 2],
    hedges_issued: usize,
    hedge_wins: usize,
    cancelled_attempts: usize,
    hedges_cancelled: usize,
    retries: usize,
    retry_wins: usize,
    scale_outs: usize,
    scale_ins: usize,
    peak_active: usize,
    last_epoch_busy_us: f64,
    degrade_batches: usize,
    degrade_batch_samples: usize,
    max_degrade_batch: usize,
    /// Per-class burn-rate monitors (indexed like `classes`), when
    /// configured. Fed at every terminal outcome.
    burn: [Option<BurnRateMonitor>; 2],
}

impl<'a> Engine<'a> {
    /// A zero-duration control-plane marker (admit/degrade/shed,
    /// hedge/cancel/retry) on the front end's control lane.
    fn emit_marker(&self, kind: SpanKind, request: usize, now: f64) {
        if !self.sink.enabled() {
            return;
        }
        self.sink.record(
            Span::new(
                request as u64,
                kind,
                track::FRONTEND,
                track::CONTROL,
                now,
                now,
            )
            .attr(AttrKey::Class, class_name(self.requests[request].class)),
        );
    }

    /// The request's end-to-end async span, emitted once at resolution
    /// (completion, terminal failure, or shed).
    fn emit_request_span(&self, request: usize, now: f64, outcome: &'static str) {
        if !self.sink.enabled() {
            return;
        }
        let r = &self.requests[request];
        self.sink.record(
            Span::new(
                request as u64,
                SpanKind::Request,
                track::FRONTEND,
                track::CONTROL,
                r.arrival_us,
                now,
            )
            .attr(AttrKey::Class, class_name(r.class))
            .attr(AttrKey::Outcome, outcome)
            .attr(AttrKey::Degraded, u64::from(r.degraded)),
        );
    }

    /// One attempt's time on a shard, on the fleet track's per-shard
    /// lane, emitted when the attempt leaves the shard (completed,
    /// cancelled by a winning sibling, or killed by a fail-stop).
    fn emit_attempt_span(
        &self,
        shard: usize,
        attempt: Attempt,
        start: f64,
        now: f64,
        outcome: &'static str,
    ) {
        if !self.sink.enabled() {
            return;
        }
        self.sink.record(
            Span::new(
                attempt.request as u64,
                SpanKind::Attempt,
                track::FLEET,
                shard as u32 + 1,
                start,
                now,
            )
            .attr(AttrKey::Attempt, attempt.id)
            .attr(AttrKey::Origin, attempt.origin.name())
            .attr(AttrKey::Outcome, outcome)
            .attr(AttrKey::Shard, shard as u64),
        );
    }

    /// The shards as a scheduler sees them when placing `request`.
    fn views(&mut self, now: f64, request: usize) -> &[ShardView] {
        let (specs, health) = (self.specs, &self.health);
        self.core.views(now, |i| {
            (
                health[i].healthy(),
                specs[i].service_for(request) * health[i].slow_factor,
            )
        })
    }

    fn service_us(&self, shard: usize, request: usize) -> f64 {
        let factor = self.requests[request].service_factor;
        attempt_service_us(&self.specs[shard], &self.health[shard], request, factor)
    }

    /// Shards counted as serving capacity: active and warmed up.
    fn serving(&self) -> usize {
        self.health
            .iter()
            .filter(|h| h.active && !h.warming)
            .count()
    }

    fn start_service(&mut self, shard: usize, attempt: Attempt, now: f64) {
        if self.sink.enabled() {
            // The attempt's queue wait: dispatch to service start.
            self.sink.record(
                Span::new(
                    attempt.request as u64,
                    SpanKind::Queued,
                    track::FRONTEND,
                    track::CONTROL,
                    attempt.issued_us,
                    now,
                )
                .attr(AttrKey::Attempt, attempt.id)
                .attr(AttrKey::Origin, attempt.origin.name())
                .attr(AttrKey::Shard, shard as u64),
            );
        }
        let service = self.service_us(shard, attempt.request);
        let done = FleetEvent::Completion {
            shard,
            attempt: attempt.id,
        };
        self.core.start(shard, attempt, now, service, done);
    }

    /// Places a fresh attempt for `request` by the rule
    /// [`simulate_frontend`] documents.
    fn dispatch(&mut self, request: usize, now: f64, origin: AttemptOrigin) {
        let attempt = Attempt {
            id: self.next_attempt,
            request,
            origin,
            issued_us: now,
        };
        self.next_attempt += 1;
        self.requests[request].live_attempts += 1;
        let class = self.requests[request].class.index();
        let scheduler = self.scheduler;
        let n = self.health.len();
        match scheduler.pick(self.views(now, request)) {
            Some(i) if i < n && self.health[i].healthy() => {
                if self.core.shards[i].idle() {
                    self.start_service(i, attempt, now);
                } else {
                    let work = self.service_us(i, request);
                    self.core.enqueue(i, attempt, work);
                    self.waiting[class] += 1;
                }
            }
            // An unusable pick: the first healthy idle shard, else the
            // central queue.
            _ => {
                if let Some(i) =
                    (0..n).find(|&i| self.health[i].healthy() && self.core.shards[i].idle())
                {
                    self.start_service(i, attempt, now);
                } else {
                    self.core.central.push_back(attempt);
                    self.waiting[class] += 1;
                }
            }
        }
    }

    /// A shard freed up (completion, cancellation, recovery, warm-up
    /// done): pull its own queue first, then the central queue.
    fn pull_next(&mut self, shard: usize, now: f64) {
        if !self.health[shard].healthy() || self.core.shards[shard].busy() {
            return;
        }
        let (spec, health, requests) = (&self.specs[shard], &self.health[shard], &self.requests);
        let next = self.core.next_for(shard, |a| {
            attempt_service_us(spec, health, a.request, requests[a.request].service_factor)
        });
        // Slowdown windows opening/closing between enqueue and dequeue
        // can skew the backlog estimate; clamp so it stays a usable
        // scheduler heuristic.
        let s = &mut self.core.shards[shard];
        s.queued_work_us = s.queued_work_us.max(0.0);
        if let Some(a) = next {
            self.waiting[self.requests[a.request].class.index()] -= 1;
            self.start_service(shard, a, now);
        }
    }

    /// The winner of `request` finished: cancel every sibling attempt —
    /// in-service ones free their shard immediately, queued ones are
    /// removed — and account the cancellations.
    fn cancel_siblings(&mut self, request: usize, now: f64) {
        if self.requests[request].live_attempts == 0 {
            return;
        }
        let mut freed: Vec<usize> = Vec::new();
        for i in 0..self.core.shards.len() {
            match self.core.shards[i].in_service.first() {
                Some(&att) if att.request == request => {
                    let start = self.core.abort(i, now);
                    self.requests[request].live_attempts -= 1;
                    self.cancelled_attempts += 1;
                    if att.origin == AttemptOrigin::Hedge {
                        self.hedges_cancelled += 1;
                    }
                    self.emit_attempt_span(i, att, start, now, "cancelled");
                    self.emit_marker(SpanKind::Cancel, request, now);
                    freed.push(i);
                }
                _ => {}
            }
        }
        if self.requests[request].live_attempts > 0 {
            let class = self.requests[request].class;
            let factor = self.requests[request].service_factor;
            let mut cancelled: Vec<Attempt> = Vec::new();
            for (i, s) in self.core.shards.iter_mut().enumerate() {
                let work = attempt_service_us(&self.specs[i], &self.health[i], request, factor);
                let mut dropped_work = 0.0;
                s.queue.retain(|a| {
                    if a.request == request {
                        dropped_work += work;
                        cancelled.push(*a);
                        false
                    } else {
                        true
                    }
                });
                s.queued_work_us = (s.queued_work_us - dropped_work).max(0.0);
            }
            self.core.central.retain(|a| {
                if a.request == request {
                    cancelled.push(*a);
                    false
                } else {
                    true
                }
            });
            self.requests[request].live_attempts -= cancelled.len() as u32;
            self.cancelled_attempts += cancelled.len();
            self.waiting[class.index()] -= cancelled.len();
            for att in cancelled {
                if att.origin == AttemptOrigin::Hedge {
                    self.hedges_cancelled += 1;
                }
                self.emit_marker(SpanKind::Cancel, request, now);
            }
        }
        debug_assert_eq!(self.requests[request].live_attempts, 0);
        for i in freed {
            self.pull_next(i, now);
        }
    }

    /// A request left the system (completed, shed, or failed): track the
    /// makespan and keep a closed-loop client issuing.
    fn resolve(&mut self, now: f64) {
        self.resolved += 1;
        self.requests.retire();
        self.core.makespan_us = self.core.makespan_us.max(now);
        self.core.reissue(now, 1);
    }

    fn on_completion(&mut self, shard: usize, attempt_id: u64, now: f64) {
        // Lazy cancellation: the completion is real only if the shard is
        // still running that exact attempt (fail-stops and cancellations
        // free the shard, leaving the scheduled event to pop dead).
        let attempt = match self.core.shards[shard].in_service.first() {
            Some(&a) if a.id == attempt_id => a,
            _ => return,
        };
        let start = self.core.finish(shard, now);
        let request = attempt.request;
        debug_assert!(!self.requests[request].done, "winner races are settled");
        self.requests[request].done = true;
        self.requests[request].live_attempts -= 1;
        if attempt.origin == AttemptOrigin::Retry {
            self.retry_wins += 1;
        }
        self.emit_attempt_span(shard, attempt, start, now, "completed");
        self.cancel_siblings(request, now);

        let class = self.requests[request].class;
        let latency = now - self.requests[request].arrival_us;
        let stats = &mut self.classes[class.index()];
        stats.completed += 1;
        let met = latency <= self.cfg.slo.limit_us(class);
        if met {
            stats.slo_met += 1;
        }
        if let Some(m) = &mut self.burn[class.index()] {
            m.observe(now, met);
        }
        self.latency[class.index()].observe(latency);
        if self.requests[request].hedges_used > 0 {
            self.hedge_wins += 1;
        }
        self.emit_request_span(request, now, "completed");
        self.resolve(now);
        self.pull_next(shard, now);
    }

    fn on_fail(&mut self, shard: usize, now: f64) {
        self.health[shard].failed = true;
        // Everything the shard held — in service and queued — is lost.
        let mut lost: Vec<Attempt> = Vec::new();
        if let Some(&att) = self.core.shards[shard].in_service.first() {
            let start = self.core.abort(shard, now);
            self.emit_attempt_span(shard, att, start, now, "failed");
            lost.push(att);
        }
        while let Some(att) = self.core.shards[shard].queue.pop_front() {
            self.waiting[self.requests[att.request].class.index()] -= 1;
            lost.push(att);
        }
        self.core.shards[shard].queued_work_us = 0.0;
        for att in lost {
            let request = att.request;
            if self.requests.done(request) {
                continue;
            }
            self.requests[request].live_attempts -= 1;
            if self.cfg.hedge.retry_failed {
                self.retries += 1;
                self.emit_marker(SpanKind::Retry, request, now);
                self.dispatch(request, now, AttemptOrigin::Retry);
            } else if self.requests[request].live_attempts == 0 {
                let class = self.requests[request].class;
                self.requests[request].done = true;
                self.classes[class.index()].failed += 1;
                if let Some(m) = &mut self.burn[class.index()] {
                    m.observe(now, false);
                }
                self.emit_request_span(request, now, "failed");
                self.resolve(now);
            }
        }
    }

    fn on_scale_tick(&mut self, now: f64) {
        let Some(scale) = self.cfg.autoscale else {
            return;
        };
        // Busy time this epoch, including in-flight partial work.
        let total_busy: f64 = self
            .core
            .shards
            .iter()
            .map(|s| s.busy_us + if s.busy() { now - s.started_us } else { 0.0 })
            .sum();
        let epoch_busy = total_busy - self.last_epoch_busy_us;
        self.last_epoch_busy_us = total_busy;
        let active = self.serving();
        let warming = self.health.iter().filter(|h| h.warming).count();
        let utilization = if active > 0 {
            (epoch_busy / (active as f64 * scale.epoch_us)).clamp(0.0, 1.0)
        } else {
            1.0 // nothing serving: maximal pressure
        };
        match scale.decide(utilization, active, warming) {
            ScaleDecision::Out => {
                if let Some(i) = (0..self.health.len()).find(|&i| !self.health[i].active) {
                    self.health[i].active = true;
                    self.health[i].warming = true;
                    self.scale_outs += 1;
                    self.core
                        .events
                        .push(now + scale.warmup_us, FleetEvent::ShardReady { shard: i });
                }
            }
            ScaleDecision::In => {
                // Retire the highest-indexed idle healthy shard; if every
                // active shard holds work, hold instead.
                if let Some(i) = (0..self.health.len())
                    .rev()
                    .find(|&i| self.health[i].healthy() && self.core.shards[i].idle())
                {
                    self.health[i].active = false;
                    self.scale_ins += 1;
                }
            }
            ScaleDecision::Hold => {}
        }
        self.peak_active = self.peak_active.max(self.serving());
        if self.resolved < self.cfg.workload.requests() {
            self.core
                .events
                .push(now + scale.epoch_us, FleetEvent::ScaleTick);
        }
    }

    fn on_arrival(&mut self, now: f64) {
        let request = self.core.arrive();
        let class = if self.class_rng.gen::<f64>() < self.cfg.low_fraction {
            Priority::Low
        } else {
            Priority::High
        };
        debug_assert_eq!(request, self.requests.next_id(), "ids count arrivals");
        self.requests.push(RequestState {
            class,
            arrival_us: now,
            degraded: false,
            service_factor: 1.0,
            buffered: false,
            live_attempts: 0,
            hedges_used: 0,
            done: false,
        });
        self.classes[class.index()].offered += 1;
        let (admission, waiting) = (self.admission, self.waiting[class.index()]);
        match admission.decide(class, waiting) {
            AdmissionDecision::Admit => {
                self.classes[class.index()].admitted += 1;
                self.emit_marker(SpanKind::Admit, request, now);
            }
            AdmissionDecision::Degrade => {
                self.classes[class.index()].degraded += 1;
                self.requests[request].degraded = true;
                self.emit_marker(SpanKind::Degrade, request, now);
                if let Some(b) = self.cfg.degrade_batching {
                    // Hold in the central degrade buffer: the request
                    // dispatches when the batch fills or the oldest
                    // member's deadline fires, at the amortized batch
                    // cost. Hedge timers arm at flush, not here — a
                    // buffered request has no attempt to race against.
                    self.requests[request].buffered = true;
                    self.degrade_buffer.push(request);
                    if self.degrade_buffer.len() >= b.max {
                        self.flush_degrade_buffer(now);
                    } else {
                        self.core
                            .events
                            .push(now + b.deadline_us, FleetEvent::BatchFlush);
                    }
                    return;
                }
                self.requests[request].service_factor = DEGRADE_FACTOR;
            }
            AdmissionDecision::Shed => {
                self.classes[class.index()].shed += 1;
                if let Some(m) = &mut self.burn[class.index()] {
                    m.observe(now, false);
                }
                self.requests[request].done = true;
                self.emit_marker(SpanKind::Shed, request, now);
                self.emit_request_span(request, now, "shed");
                self.resolve(now);
                return;
            }
        }
        self.dispatch(request, now, AttemptOrigin::Primary);
        self.arm_hedge(request, now);
    }

    fn arm_hedge(&mut self, request: usize, now: f64) {
        if self.cfg.hedge.hedging_enabled() {
            self.core
                .events
                .push(now + self.cfg.hedge.after_us, FleetEvent::Hedge { request });
        }
    }

    /// Releases the degrade buffer as one batch: every member gets the
    /// amortized per-sample service factor of the batch size it rode in,
    /// then dispatches (and arms its hedge timer) as usual.
    fn flush_degrade_buffer(&mut self, now: f64) {
        let batching = match self.cfg.degrade_batching {
            Some(b) => b,
            None => return,
        };
        if self.degrade_buffer.is_empty() {
            return;
        }
        let batch = std::mem::take(&mut self.degrade_buffer);
        let factor = batching.factor(batch.len());
        self.degrade_batches += 1;
        self.degrade_batch_samples += batch.len();
        self.max_degrade_batch = self.max_degrade_batch.max(batch.len());
        let batch_size = batch.len() as u64;
        for request in batch {
            if self.sink.enabled() {
                // The hold window: admission to batch flush.
                self.sink.record(
                    Span::new(
                        request as u64,
                        SpanKind::DegradeBatch,
                        track::FRONTEND,
                        track::CONTROL,
                        self.requests[request].arrival_us,
                        now,
                    )
                    .attr(AttrKey::BatchSize, batch_size),
                );
            }
            self.requests[request].buffered = false;
            self.requests[request].service_factor = factor;
            self.dispatch(request, now, AttemptOrigin::Primary);
            self.arm_hedge(request, now);
        }
    }

    /// A degrade-batch deadline pops. A fill may have flushed the buffer
    /// early, leaving this deadline stale for a *younger* buffer: only
    /// fire when the current oldest member has genuinely waited out the
    /// deadline.
    fn on_batch_flush(&mut self, now: f64) {
        let batching = match self.cfg.degrade_batching {
            Some(b) => b,
            None => return,
        };
        let oldest = match self.degrade_buffer.first() {
            Some(&r) => self.requests[r].arrival_us,
            None => return,
        };
        if now - oldest + DEADLINE_SLACK_US >= batching.deadline_us {
            self.flush_degrade_buffer(now);
        }
    }

    fn on_hedge(&mut self, request: usize, now: f64) {
        if self.requests.done(request) {
            return;
        }
        let r = &mut self.requests[request];
        if r.buffered || r.hedges_used >= self.cfg.hedge.max_hedges {
            return;
        }
        r.hedges_used += 1;
        self.hedges_issued += 1;
        self.emit_marker(SpanKind::Hedge, request, now);
        self.dispatch(request, now, AttemptOrigin::Hedge);
        if self.requests[request].hedges_used < self.cfg.hedge.max_hedges {
            self.arm_hedge(request, now);
        }
    }
}

/// Runs one front-end simulation to completion.
///
/// Each attempt goes to the scheduler's pick when it names a healthy
/// shard. A pick the run cannot use — `None`, an out-of-range index or
/// an unhealthy shard — goes to the first healthy idle shard, else to
/// the central queue, drained by the next shard to free up or come back.
///
/// Deterministic: the summary is a pure function of the arguments.
///
/// # Errors
///
/// [`FrontendError`] when the fleet is empty, a service table is
/// unusable, or any configuration parameter (workload, hedge policy,
/// fault plan, autoscaler, class mix) is invalid.
pub fn simulate_frontend(
    fleet: &[ShardSpec],
    scheduler: &dyn Scheduler,
    admission: &dyn AdmissionGate,
    cfg: &FrontendConfig,
) -> Result<FrontendSummary, FrontendError> {
    simulate_frontend_traced(fleet, scheduler, admission, cfg, &NullSink)
}

/// [`simulate_frontend`] with a trace sink: every request's life —
/// admission verdict, degrade-batch hold, per-attempt queue wait and
/// shard service, hedge/cancel/retry control events — is recorded as
/// [`Span`]s on the virtual clock, keyed by request id. With a disabled
/// sink (e.g. [`NullSink`]) no span is ever constructed and the run is
/// bit-identical to the untraced one; the summary is identical either
/// way.
///
/// # Errors
///
/// Exactly as [`simulate_frontend`].
pub fn simulate_frontend_traced(
    fleet: &[ShardSpec],
    scheduler: &dyn Scheduler,
    admission: &dyn AdmissionGate,
    cfg: &FrontendConfig,
    sink: &dyn TraceSink,
) -> Result<FrontendSummary, FrontendError> {
    run(fleet, scheduler, admission, cfg, sink).map(|(summary, _)| summary)
}

/// The run behind [`simulate_frontend_traced`], also returning the most
/// requests its per-request window held at once.
fn run(
    fleet: &[ShardSpec],
    scheduler: &dyn Scheduler,
    admission: &dyn AdmissionGate,
    cfg: &FrontendConfig,
    sink: &dyn TraceSink,
) -> Result<(FrontendSummary, usize), FrontendError> {
    let tables = fleet.iter().map(|s| s.service_us.as_slice());
    let core = Core::new(tables, "service time", &cfg.workload, FleetEvent::Arrival)?;
    cfg.hedge.validate().map_err(FrontendError::BadConfig)?;
    cfg.faults
        .validate(fleet.len())
        .map_err(FrontendError::BadConfig)?;
    cfg.slo.validate().map_err(FrontendError::BadConfig)?;
    if !(0.0..=1.0).contains(&cfg.low_fraction) {
        return Err(FrontendError::BadConfig(format!(
            "low-priority fraction must be in [0, 1], got {}",
            cfg.low_fraction
        )));
    }
    if let Some(b) = &cfg.degrade_batching {
        b.validate().map_err(FrontendError::BadConfig)?;
    }
    if let Some(b) = &cfg.burn {
        b.validate().map_err(FrontendError::BadConfig)?;
    }
    if let Some(a) = &cfg.autoscale {
        a.validate().map_err(FrontendError::BadConfig)?;
        if a.max_shards > fleet.len() {
            return Err(FrontendError::BadConfig(format!(
                "autoscaler max_shards {} exceeds the {}-shard fleet",
                a.max_shards,
                fleet.len()
            )));
        }
    }

    let initial_active = cfg.autoscale.map_or(fleet.len(), |a| a.min_shards);

    let total_requests = cfg.workload.requests();
    let mut engine = Engine {
        specs: fleet,
        scheduler,
        admission,
        cfg,
        sink,
        core,
        health: (0..fleet.len())
            .map(|i| Health {
                active: i < initial_active,
                warming: false,
                failed: false,
                slow_factor: 1.0,
            })
            .collect(),
        requests: Window::default(),
        degrade_buffer: Vec::new(),
        waiting: [0, 0],
        next_attempt: 0,
        resolved: 0,
        class_rng: StdRng::seed_from_u64(cfg.class_seed),
        classes: [ClassStats::default(), ClassStats::default()],
        latency: [StreamingLatency::new(), StreamingLatency::new()],
        hedges_issued: 0,
        hedge_wins: 0,
        cancelled_attempts: 0,
        hedges_cancelled: 0,
        retries: 0,
        retry_wins: 0,
        scale_outs: 0,
        scale_ins: 0,
        peak_active: initial_active,
        last_epoch_busy_us: 0.0,
        degrade_batches: 0,
        degrade_batch_samples: 0,
        max_degrade_batch: 0,
        burn: [
            cfg.burn.map(BurnRateMonitor::new),
            cfg.burn.map(BurnRateMonitor::new),
        ],
    };
    // The fault timeline goes on the same queue as the traffic.
    let events = &mut engine.core.events;
    for f in &cfg.faults.faults {
        match *f {
            Fault::FailStop {
                shard,
                at_us,
                down_us,
            } => {
                events.push(at_us, FleetEvent::Fail { shard });
                events.push(at_us + down_us, FleetEvent::Recover { shard });
            }
            Fault::Slowdown {
                shard,
                at_us,
                for_us,
                factor,
            } => {
                events.push(at_us, FleetEvent::SlowdownStart { shard, factor });
                events.push(at_us + for_us, FleetEvent::SlowdownEnd { shard });
            }
        }
    }
    if let Some(a) = &cfg.autoscale {
        events.push(a.epoch_us, FleetEvent::ScaleTick);
    }

    while let Some((now, event)) = engine.core.events.pop() {
        // The run is over once every request resolves; events still on
        // the timeline (a recovery, a shard becoming warm, a stale
        // hedge timer) must not keep mutating the measured state.
        if engine.resolved >= total_requests {
            break;
        }
        match event {
            FleetEvent::Arrival => engine.on_arrival(now),
            FleetEvent::Completion { shard, attempt } => {
                engine.on_completion(shard, attempt, now);
            }
            FleetEvent::Fail { shard } => engine.on_fail(shard, now),
            FleetEvent::Recover { shard } => {
                engine.health[shard].failed = false;
                engine.pull_next(shard, now);
            }
            FleetEvent::SlowdownStart { shard, factor } => {
                engine.health[shard].slow_factor = factor;
            }
            FleetEvent::SlowdownEnd { shard } => {
                engine.health[shard].slow_factor = 1.0;
            }
            FleetEvent::Hedge { request } => engine.on_hedge(request, now),
            FleetEvent::BatchFlush => engine.on_batch_flush(now),
            FleetEvent::ScaleTick => engine.on_scale_tick(now),
            FleetEvent::ShardReady { shard } => {
                if engine.health[shard].warming {
                    engine.health[shard].warming = false;
                    engine.peak_active = engine.peak_active.max(engine.serving());
                    engine.pull_next(shard, now);
                }
            }
        }
    }

    debug_assert_eq!(engine.resolved, total_requests, "every request resolves");
    let final_active_shards = engine.serving();
    let mut classes = engine.classes;
    for (c, lat) in classes.iter_mut().zip(&engine.latency) {
        c.latency = lat.stats();
    }
    let offered: usize = classes.iter().map(|c| c.offered).sum();
    let completed: usize = classes.iter().map(|c| c.completed).sum();
    let slo_met: usize = classes.iter().map(|c| c.slo_met).sum();
    let shed: usize = classes.iter().map(|c| c.shed).sum();
    let makespan_us = engine.core.makespan_us;
    let mut burn_alerts: Vec<ClassBurnAlert> = Vec::new();
    for (class, monitor) in [Priority::High, Priority::Low]
        .into_iter()
        .zip(&engine.burn)
    {
        if let Some(m) = monitor {
            burn_alerts.extend(
                m.alerts()
                    .iter()
                    .map(|&alert| ClassBurnAlert { class, alert }),
            );
        }
    }
    burn_alerts.sort_by(|x, y| {
        x.alert
            .at_us
            .total_cmp(&y.alert.at_us)
            .then(x.class.index().cmp(&y.class.index()))
    });
    let summary = FrontendSummary {
        scheduler: scheduler.name().to_string(),
        admission: admission.name().to_string(),
        workload: cfg.workload.to_string(),
        requests: offered,
        makespan_us,
        throughput_rps: rate_per_s(completed, makespan_us),
        goodput_rps: rate_per_s(slo_met, makespan_us),
        shed_rate: if offered > 0 {
            shed as f64 / offered as f64
        } else {
            0.0
        },
        slo_attainment: if offered > 0 {
            slo_met as f64 / offered as f64
        } else {
            0.0
        },
        classes,
        hedges_issued: engine.hedges_issued,
        hedge_wins: engine.hedge_wins,
        cancelled_attempts: engine.cancelled_attempts,
        hedges_cancelled: engine.hedges_cancelled,
        retries: engine.retries,
        retry_wins: engine.retry_wins,
        failures_injected: cfg.faults.fail_stops(),
        slowdowns_injected: cfg.faults.slowdowns(),
        scale_outs: engine.scale_outs,
        scale_ins: engine.scale_ins,
        degrade_batches: engine.degrade_batches,
        mean_degrade_batch: if engine.degrade_batches > 0 {
            engine.degrade_batch_samples as f64 / engine.degrade_batches as f64
        } else {
            0.0
        },
        max_degrade_batch: engine.max_degrade_batch,
        peak_active_shards: engine.peak_active,
        final_active_shards,
        burn_alerts,
    };
    Ok((summary, engine.requests.peak))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparsenn_serve::{AdmitAll, BoundedQueues, FirstIdle, LeastQueued};

    fn fleet(n: usize, service_us: f64) -> Vec<ShardSpec> {
        (0..n)
            .map(|i| ShardSpec::uniform(format!("shard-{i}"), service_us))
            .collect()
    }

    fn slo() -> SloPolicy {
        SloPolicy {
            high_us: 100.0,
            low_us: 400.0,
        }
    }

    #[test]
    fn healthy_fleet_completes_everything_within_slo() {
        let cfg = FrontendConfig::new(
            Workload::Poisson {
                rate_rps: 100_000.0, // half of 2×100k capacity
                requests: 2000,
                seed: 3,
            },
            slo(),
        );
        let s = simulate_frontend(&fleet(2, 10.0), &LeastQueued, &AdmitAll, &cfg).unwrap();
        assert_eq!(s.requests, 2000);
        assert_eq!(s.class(Priority::High).completed, 2000);
        assert_eq!(s.shed_rate, 0.0);
        assert!(s.slo_attainment > 0.99, "attainment {}", s.slo_attainment);
        assert!(s.goodput_rps > 0.0);
        assert_eq!(s.hedges_issued, 0);
        assert_eq!(s.retries, 0);
        assert_eq!(s.final_active_shards, 2);
    }

    #[test]
    fn runs_are_deterministic() {
        let cfg = FrontendConfig::new(
            Workload::Bursty {
                low_rps: 30_000.0,
                high_rps: 400_000.0,
                period_us: 1_000.0,
                duty: 0.3,
                requests: 1500,
                seed: 8,
            },
            slo(),
        )
        .low_fraction(0.3)
        .hedge(HedgeConfig::hedged(60.0))
        .faults(FaultPlan::random(3, 20_000.0, 1, 1, 21))
        .degrade_batching(DegradeBatching::new(3, 120.0, 0.3));
        let run = || {
            simulate_frontend(
                &fleet(3, 10.0),
                &LeastQueued,
                &BoundedQueues::new(64, 16).degrade_low_beyond(4),
                &cfg,
            )
            .unwrap()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn overload_with_bounded_queues_sheds_low_priority_first() {
        // 2 shards × 100k rps capacity; offered 2× that, 40 % low.
        let cfg = FrontendConfig::new(
            Workload::Poisson {
                rate_rps: 400_000.0,
                requests: 4000,
                seed: 5,
            },
            slo(),
        )
        .low_fraction(0.4);
        let gate = BoundedQueues::new(8, 2).degrade_low_beyond(1);
        let s = simulate_frontend(&fleet(2, 10.0), &LeastQueued, &gate, &cfg).unwrap();
        let high = s.class(Priority::High);
        let low = s.class(Priority::Low);
        assert!(
            low.shed_rate() > high.shed_rate() + 0.1,
            "low sheds first: {low:?} vs {high:?}"
        );
        assert!(low.degraded > 0, "degrade tier engaged");
        assert!(
            high.latency.p99_us <= slo().high_us,
            "bounded queue bounds the high tail: {}",
            high.latency.p99_us
        );
        // Conservation per class.
        for c in &s.classes {
            assert_eq!(c.offered, c.completed + c.shed + c.failed);
        }
    }

    #[test]
    fn burn_monitor_fires_under_overload_and_stays_quiet_at_nominal_load() {
        let burn = BurnConfig::new(0.9, 2_000.0, 10_000.0);
        let run = |rate_rps: f64| {
            let cfg = FrontendConfig::new(
                Workload::Poisson {
                    rate_rps,
                    requests: 3000,
                    seed: 11,
                },
                slo(),
            )
            .low_fraction(0.4)
            .burn_monitor(burn);
            simulate_frontend(&fleet(2, 10.0), &LeastQueued, &AdmitAll, &cfg).unwrap()
        };
        // 2 shards × 100k rps capacity. Offered 2×: queues grow without
        // bound, both classes blow their SLOs, both monitors fire.
        let hot = run(400_000.0);
        let fires = |s: &FrontendSummary, class| {
            s.burn_alerts
                .iter()
                .filter(|a| a.class == class && a.alert.kind == sparsenn_obs::AlertKind::Fire)
                .count()
        };
        assert!(
            fires(&hot, Priority::High) + fires(&hot, Priority::Low) >= 1,
            "overload raises at least one alert: {:?}",
            hot.burn_alerts
        );
        let sorted = hot
            .burn_alerts
            .windows(2)
            .all(|w| w[0].alert.at_us <= w[1].alert.at_us);
        assert!(sorted, "alerts come back in time order");
        // Offered 0.25× capacity: everything meets SLO, zero alerts.
        let calm = run(50_000.0);
        assert!(
            calm.burn_alerts.is_empty(),
            "nominal load is quiet: {:?}",
            calm.burn_alerts
        );
        assert!(calm.slo_attainment > 0.99);
    }

    #[test]
    fn fail_stop_without_retries_loses_requests_with_retries_none() {
        let w = Workload::Poisson {
            rate_rps: 190_000.0, // 95 % of capacity: shards stay busy
            requests: 3000,
            seed: 7,
        };
        let plan = FaultPlan::new(vec![Fault::FailStop {
            shard: 0,
            at_us: 3_000.0,
            down_us: 8_000.0,
        }]);
        let no_retry = FrontendConfig::new(w, slo()).faults(plan.clone());
        let s = simulate_frontend(&fleet(2, 10.0), &LeastQueued, &AdmitAll, &no_retry).unwrap();
        assert!(
            s.class(Priority::High).failed > 0,
            "in-flight work dies with the shard"
        );
        assert_eq!(s.failures_injected, 1);

        let retry = FrontendConfig::new(w, slo())
            .faults(plan)
            .hedge(HedgeConfig::retries_only());
        let s = simulate_frontend(&fleet(2, 10.0), &LeastQueued, &AdmitAll, &retry).unwrap();
        assert_eq!(
            s.class(Priority::High).failed,
            0,
            "retries save every request"
        );
        assert!(s.retries > 0);
        assert_eq!(s.class(Priority::High).completed, 3000);
    }

    #[test]
    fn hedging_rescues_requests_stuck_behind_a_straggler() {
        // Shard 0 is 20× slow for a long window; hedges re-dispatch its
        // victims to the healthy shard.
        let w = Workload::Poisson {
            rate_rps: 60_000.0,
            requests: 2000,
            seed: 11,
        };
        let plan = FaultPlan::new(vec![Fault::Slowdown {
            shard: 0,
            at_us: 1_000.0,
            for_us: 15_000.0,
            factor: 20.0,
        }]);
        let unhedged = FrontendConfig::new(w, slo()).faults(plan.clone());
        let hedged = FrontendConfig::new(w, slo())
            .faults(plan)
            .hedge(HedgeConfig::hedged(40.0));
        let fleet = fleet(3, 10.0);
        let a = simulate_frontend(&fleet, &FirstIdle, &AdmitAll, &unhedged).unwrap();
        let b = simulate_frontend(&fleet, &FirstIdle, &AdmitAll, &hedged).unwrap();
        assert!(b.hedges_issued > 0);
        assert!(b.hedge_wins > 0);
        assert!(b.cancelled_attempts > 0, "losing attempts are cancelled");
        assert!(
            b.slo_attainment > a.slo_attainment,
            "hedged attainment {} must beat unhedged {}",
            b.slo_attainment,
            a.slo_attainment
        );
        assert!(
            b.class(Priority::High).latency.p99_us < a.class(Priority::High).latency.p99_us,
            "hedging cuts the tail: {} vs {}",
            b.class(Priority::High).latency.p99_us,
            a.class(Priority::High).latency.p99_us
        );
    }

    #[test]
    fn request_window_stays_at_the_requests_in_flight() {
        // 100 000 requests at 2× a 4-shard fleet's capacity, with hedging,
        // a straggler window and a degrade tier: the per-request window
        // must follow what is in flight, not the run's length.
        let w = Workload::Poisson {
            rate_rps: 800_000.0,
            requests: 100_000,
            seed: 5,
        };
        let cfg = FrontendConfig::new(w, slo())
            .faults(FaultPlan::new(vec![Fault::Slowdown {
                shard: 1,
                at_us: 10_000.0,
                for_us: 40_000.0,
                factor: 8.0,
            }]))
            .hedge(HedgeConfig::hedged(30.0));
        let gate = BoundedQueues::new(16, 4).degrade_low_beyond(2);
        let (s, peak) = run(&fleet(4, 10.0), &LeastQueued, &gate, &cfg, &NullSink).unwrap();
        assert_eq!(s.requests, 100_000);
        assert!(s.hedges_issued > 0 && s.shed_rate > 0.2, "{s:?}");
        // About 200 here: the queues' bound plus the resolved requests
        // waiting behind the oldest unresolved one.
        assert!(peak <= 1_000, "window peaked at {peak} requests");
    }

    #[test]
    fn autoscaler_grows_under_load_after_warmup_and_shrinks_when_quiet() {
        // One active shard (100k rps) against 180k offered: must scale out.
        // The long quiet tail of the bursty workload then scales back in.
        let cfg = FrontendConfig::new(
            Workload::Bursty {
                low_rps: 5_000.0,
                high_rps: 250_000.0,
                period_us: 40_000.0,
                duty: 0.5,
                requests: 6000,
                seed: 13,
            },
            slo(),
        )
        .autoscale(AutoscaleConfig::new(1, 4, 1_000.0, 2_000.0));
        let s = simulate_frontend(&fleet(4, 10.0), &LeastQueued, &AdmitAll, &cfg).unwrap();
        assert!(s.scale_outs > 0, "overload must trigger growth");
        assert!(s.peak_active_shards > 1);
        assert!(s.scale_ins > 0, "quiet phase must trigger shrink");
        assert_eq!(
            s.class(Priority::High).completed,
            6000,
            "scaling never drops a request"
        );
    }

    #[test]
    fn closed_loop_clients_reissue_after_sheds() {
        // Concurrency 8 against 1 shard with a tiny low-priority budget:
        // sheds happen, yet every one of the fixed number of requests
        // resolves (shed clients issue their next request).
        let cfg = FrontendConfig::new(
            Workload::ClosedLoop {
                concurrency: 8,
                requests: 400,
                think_us: 0.0,
            },
            slo(),
        )
        .low_fraction(0.5);
        let gate = BoundedQueues::new(4, 0); // low always sheds
        let s = simulate_frontend(&fleet(1, 10.0), &FirstIdle, &gate, &cfg).unwrap();
        assert_eq!(s.requests, 400);
        let resolved: usize = s
            .classes
            .iter()
            .map(|c| c.completed + c.shed + c.failed)
            .sum();
        assert_eq!(resolved, 400);
        assert!(s.class(Priority::Low).shed > 0);
        assert_eq!(s.class(Priority::Low).completed, 0, "cap 0 sheds all low");
    }

    #[test]
    fn bad_configs_are_typed_errors() {
        let w = Workload::Poisson {
            rate_rps: 1000.0,
            requests: 10,
            seed: 0,
        };
        let base = FrontendConfig::new(w, slo());
        assert_eq!(
            simulate_frontend(&[], &FirstIdle, &AdmitAll, &base).unwrap_err(),
            FrontendError::NoShards
        );
        let bad_frac = base.clone().low_fraction(1.5);
        assert!(matches!(
            simulate_frontend(&fleet(1, 10.0), &FirstIdle, &AdmitAll, &bad_frac).unwrap_err(),
            FrontendError::BadConfig(_)
        ));
        let bad_fault = base.clone().faults(FaultPlan::new(vec![Fault::FailStop {
            shard: 9,
            at_us: 0.0,
            down_us: 1.0,
        }]));
        assert!(matches!(
            simulate_frontend(&fleet(1, 10.0), &FirstIdle, &AdmitAll, &bad_fault).unwrap_err(),
            FrontendError::BadConfig(_)
        ));
        let bad_scale = base
            .clone()
            .autoscale(AutoscaleConfig::new(1, 8, 1000.0, 100.0));
        assert!(matches!(
            simulate_frontend(&fleet(2, 10.0), &FirstIdle, &AdmitAll, &bad_scale).unwrap_err(),
            FrontendError::BadConfig(_)
        ));
        for bad in [
            DegradeBatching::new(0, 100.0, 0.5),
            DegradeBatching::new(4, f64::NAN, 0.5),
            DegradeBatching::new(4, 100.0, 0.0),
            DegradeBatching::new(4, 100.0, 1.5),
        ] {
            let cfg = base.clone().degrade_batching(bad);
            assert!(
                matches!(
                    simulate_frontend(&fleet(1, 10.0), &FirstIdle, &AdmitAll, &cfg).unwrap_err(),
                    FrontendError::BadConfig(_)
                ),
                "{bad:?} must be rejected"
            );
        }
    }

    #[test]
    fn degrade_batching_amortizes_low_priority_overload() {
        // 2 × 100k rps capacity, 300k offered, half low-priority; the
        // gate degrades every low request. Unbatched, each degraded
        // request costs 0.5×; batched, a full batch of 4 costs
        // (1 + 0.2 × 3) / 4 = 0.4× per member — and buffered requests
        // don't count as waiting, so the low queue sheds less.
        let w = Workload::Poisson {
            rate_rps: 300_000.0,
            requests: 3000,
            seed: 17,
        };
        let gate = BoundedQueues::new(64, 32).degrade_low_beyond(0);
        let base = FrontendConfig::new(w, slo()).low_fraction(0.5);
        let batched_cfg = base
            .clone()
            .degrade_batching(DegradeBatching::new(4, 200.0, 0.2));
        let fleet = fleet(2, 10.0);
        let plain = simulate_frontend(&fleet, &LeastQueued, &gate, &base).unwrap();
        let batched = simulate_frontend(&fleet, &LeastQueued, &gate, &batched_cfg).unwrap();

        assert_eq!(plain.degrade_batches, 0, "no batching unless configured");
        assert!(batched.degrade_batches > 0, "degrade tier must batch");
        assert!(
            batched.mean_degrade_batch > 1.5,
            "overload must gather real batches, got mean {}",
            batched.mean_degrade_batch
        );
        assert!(batched.max_degrade_batch <= 4, "fills cap the batch");
        // Every degraded request rides exactly one flushed batch.
        let flushed =
            (batched.mean_degrade_batch * batched.degrade_batches as f64).round() as usize;
        assert_eq!(flushed, batched.class(Priority::Low).degraded);
        // The amortized tier serves more of the low class than the flat
        // degrade discount does.
        assert!(
            batched.class(Priority::Low).completed >= plain.class(Priority::Low).completed,
            "batching must not lose low-class capacity: {} vs {}",
            batched.class(Priority::Low).completed,
            plain.class(Priority::Low).completed
        );
    }

    #[test]
    fn partial_degrade_batches_flush_at_the_deadline() {
        // Light load: low arrivals are ~170 µs apart, so an 8-slot
        // buffer with a 300 µs deadline almost never fills — partial
        // batches must still flush when the oldest member times out,
        // and the hold shows up as added low-class latency.
        let w = Workload::Poisson {
            rate_rps: 20_000.0,
            requests: 800,
            seed: 23,
        };
        let loose = SloPolicy {
            high_us: 100.0,
            low_us: 2_000.0,
        };
        let gate = BoundedQueues::new(64, 32).degrade_low_beyond(0);
        let base = FrontendConfig::new(w, loose).low_fraction(0.3);
        let batched_cfg = base
            .clone()
            .degrade_batching(DegradeBatching::new(8, 300.0, 0.25));
        let fleet = fleet(2, 10.0);
        let plain = simulate_frontend(&fleet, &LeastQueued, &gate, &base).unwrap();
        let batched = simulate_frontend(&fleet, &LeastQueued, &gate, &batched_cfg).unwrap();

        assert!(batched.degrade_batches > 0);
        assert!(
            batched.mean_degrade_batch < 8.0,
            "light load cannot keep filling the buffer, got mean {}",
            batched.mean_degrade_batch
        );
        // Nothing starves in the buffer: the whole low class completes.
        let low = batched.class(Priority::Low);
        assert_eq!(low.completed, low.offered, "deadline flushes everyone");
        // The hold window is the visible price of batching.
        assert!(
            low.latency.mean_us > plain.class(Priority::Low).latency.mean_us + 50.0,
            "holding for the batch must cost latency: {} vs {}",
            low.latency.mean_us,
            plain.class(Priority::Low).latency.mean_us
        );
        // ...but stays bounded by the deadline plus queueing/service.
        assert!(
            low.latency.max_us < 300.0 + 1_000.0,
            "no one waits past the flush deadline plus real work, got {}",
            low.latency.max_us
        );
    }

    #[test]
    fn hedge_cancellations_and_retry_wins_are_counted() {
        // Hedge at half the service time on a healthy fleet: the primary
        // is mid-service when the duplicate dispatches, finishes first,
        // and the losing hedge is cancelled.
        let hedged = FrontendConfig::new(
            Workload::Poisson {
                rate_rps: 50_000.0,
                requests: 2000,
                seed: 11,
            },
            slo(),
        )
        .hedge(HedgeConfig::hedged(5.0));
        let s = simulate_frontend(&fleet(3, 10.0), &FirstIdle, &AdmitAll, &hedged).unwrap();
        assert!(s.hedges_cancelled > 0, "losing hedges must be counted");
        assert!(s.hedges_cancelled <= s.cancelled_attempts);
        assert!(s.hedges_cancelled <= s.hedges_issued);
        // Every issued hedge either wins (cancelling the primary) or is
        // itself cancelled, so each accounts for one cancellation.
        assert_eq!(s.cancelled_attempts, s.hedges_issued);
        assert_eq!(s.retry_wins, 0, "no fail-stops, no retries");

        // Retry-only fail-stop run: every lost request is saved by a
        // retry, and with no hedging the winning attempt of each saved
        // request *is* the retry.
        let retry = FrontendConfig::new(
            Workload::Poisson {
                rate_rps: 190_000.0,
                requests: 3000,
                seed: 7,
            },
            slo(),
        )
        .faults(FaultPlan::new(vec![Fault::FailStop {
            shard: 0,
            at_us: 3_000.0,
            down_us: 8_000.0,
        }]))
        .hedge(HedgeConfig::retries_only());
        let s = simulate_frontend(&fleet(2, 10.0), &LeastQueued, &AdmitAll, &retry).unwrap();
        assert!(s.retry_wins > 0, "retried requests complete via the retry");
        assert!(s.retry_wins <= s.retries);
        assert_eq!(s.hedges_cancelled, 0, "no hedging in this run");
    }

    #[test]
    fn traced_run_matches_untraced_and_covers_every_request() {
        use sparsenn_obs::{check_nesting, chrome_trace, RingRecorder};

        // Hedging + a straggler + degrade/shed pressure: every span
        // kind the front end can emit shows up in one run.
        let cfg = FrontendConfig::new(
            Workload::Poisson {
                rate_rps: 230_000.0,
                requests: 2000,
                seed: 11,
            },
            slo(),
        )
        .low_fraction(0.4)
        .faults(FaultPlan::new(vec![Fault::Slowdown {
            shard: 0,
            at_us: 1_000.0,
            for_us: 10_000.0,
            factor: 20.0,
        }]))
        .hedge(HedgeConfig::hedged(60.0));
        let gate = BoundedQueues::new(12, 4).degrade_low_beyond(2);
        let fleet = fleet(2, 10.0);

        let plain = simulate_frontend(&fleet, &LeastQueued, &gate, &cfg).unwrap();
        let recorder = RingRecorder::new(1 << 16);
        let traced =
            simulate_frontend_traced(&fleet, &LeastQueued, &gate, &cfg, &recorder).unwrap();
        assert_eq!(plain, traced, "tracing must not perturb the simulation");

        let spans = recorder.spans();
        assert_eq!(recorder.dropped(), 0, "ring sized for the whole run");
        assert_eq!(check_nesting(&spans), None);

        // Every offered request resolves exactly once → exactly one
        // Request span per request, ids covering 0..requests.
        let mut request_ids: Vec<u64> = spans
            .iter()
            .filter(|s| s.kind == SpanKind::Request)
            .map(|s| s.trace_id)
            .collect();
        request_ids.sort_unstable();
        let expect: Vec<u64> = (0..plain.requests as u64).collect();
        assert_eq!(request_ids, expect);

        // Admission verdicts partition the offered load.
        let count = |kind: SpanKind| spans.iter().filter(|s| s.kind == kind).count();
        let admitted: usize = plain.classes.iter().map(|c| c.admitted).sum();
        let degraded: usize = plain.classes.iter().map(|c| c.degraded).sum();
        let shed: usize = plain.classes.iter().map(|c| c.shed).sum();
        assert_eq!(count(SpanKind::Admit), admitted);
        assert_eq!(count(SpanKind::Degrade), degraded);
        assert_eq!(count(SpanKind::Shed), shed);
        assert!(shed > 0, "overload against bounded queues must shed");
        assert_eq!(count(SpanKind::Hedge), plain.hedges_issued);
        assert_eq!(count(SpanKind::Cancel), plain.cancelled_attempts);
        assert!(count(SpanKind::Queued) > 0);
        assert!(count(SpanKind::Attempt) > 0);

        // Same seed, fresh recorder: byte-identical export.
        let again = RingRecorder::new(1 << 16);
        simulate_frontend_traced(&fleet, &LeastQueued, &gate, &cfg, &again).unwrap();
        assert_eq!(chrome_trace(&spans), chrome_trace(&again.spans()));
    }
}
