//! Sharded serving: one request queue, N simulated accelerators.

use crate::engine::admission::{AdmissionDecision, AdmissionGate, Priority};
use crate::engine::backends::{CycleAccurateBackend, InferenceBackend};
use crate::engine::batch::BatchPolicy;
use crate::engine::record::{BatchRunRecord, RunRecord};
use crate::engine::scheduler::{FirstIdle, Scheduler, ShardView};
use crate::error::SparseNnError;
use sparsenn_energy::TechNode;
use sparsenn_model::fixedpoint::{FixedNetwork, UvMode};
use sparsenn_numeric::Q6_10;
use sparsenn_sim::MachineConfig;
use std::sync::{Condvar, Mutex};

/// Serving statistics for one shard of a [`Fleet`].
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ShardStats {
    /// Samples this shard has served.
    pub samples: u64,
    /// Modelled accelerator-busy time, microseconds (the sum of the served
    /// records' [`time_us`](super::RunRecord::time_us); 0 for timing-free
    /// shards such as the golden model).
    pub busy_us: f64,
    /// The live service-time estimate schedulers see as
    /// [`ShardView::service_us`]: the observed mean of the per-sample
    /// service times. 0 before the shard has served anything.
    pub service_estimate_us: f64,
    /// Batched dispatches this shard has executed
    /// ([`Fleet::run_batch_classified`]; single-sample runs do not
    /// count).
    pub batches: u64,
    /// Samples served inside those batched dispatches (also included in
    /// [`samples`](Self::samples)).
    pub batch_samples: u64,
    /// Largest batch this shard has executed (0 before the first one).
    pub max_batch: u64,
}

impl ShardStats {
    /// Mean size of the batched dispatches this shard executed (0 before
    /// the first one).
    pub fn mean_batch(&self) -> f64 {
        if self.batches == 0 {
            return 0.0;
        }
        self.batch_samples as f64 / self.batches as f64
    }
}

/// Admission-control outcomes accumulated by a [`Fleet`] built with
/// [`Fleet::with_admission`], split by [`Priority`] class (index by
/// [`Priority::index`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AdmissionStats {
    /// Requests the gate admitted at full fidelity.
    pub admitted: [u64; 2],
    /// Requests the gate asked to degrade. The live fleet serves them at
    /// full fidelity (there is no cheaper live substrate to switch to
    /// mid-call) but records the intent so operators see the pressure.
    pub degraded: [u64; 2],
    /// Requests shed — each surfaced to its caller as
    /// [`SparseNnError::Overloaded`].
    pub shed: [u64; 2],
}

/// Book-keeping behind the fleet's dispatch lock: which shards are idle,
/// plus per-shard serving stats.
struct Dispatch {
    /// Indices of currently-idle shards.
    idle: Vec<usize>,
    stats: Vec<ShardStats>,
    /// Per-shard sum of the observed per-sample service times, µs. With
    /// the shard's `samples` as its count, this is the book behind
    /// [`ShardStats::service_estimate_us`].
    service_sum_us: Vec<f64>,
    /// Callers currently blocked waiting for a shard, per priority class
    /// — the live fleet's "queue depth", which is what the admission gate
    /// bounds.
    waiting: [usize; 2],
    /// Admission outcomes (only advanced when a gate is installed).
    admission: AdmissionStats,
}

impl Dispatch {
    /// Credits `samples` served samples of `per_sample_us` each to a
    /// shard's service book and returns its stats, with the live
    /// estimate moved to the new observed mean.
    fn credit(&mut self, shard: usize, per_sample_us: f64, samples: u64) -> &mut ShardStats {
        self.service_sum_us[shard] += per_sample_us * samples as f64;
        let s = &mut self.stats[shard];
        s.samples += samples;
        s.service_estimate_us = self.service_sum_us[shard] / s.samples as f64;
        s
    }
}

/// N independent simulated accelerators serving one request queue.
///
/// The paper's north-star workload is heavy traffic — far more requests
/// than one simulated chip can absorb. A fleet scales the serving
/// layer the way a datacenter does: it owns several independent
/// accelerator instances (*shards*, each any [`InferenceBackend`]) and
/// exposes them as a single backend. Every [`run`](InferenceBackend::run)
/// call asks the fleet's [`Scheduler`] which idle shard to check out
/// ([`FirstIdle`](super::FirstIdle) by default — the lowest-indexed idle
/// shard), executes on it, and returns it to the idle pool; when no shard
/// is usable the caller blocks until one frees up. The scheduler trait is
/// shared with the `sparsenn-serve` virtual-time simulator, so dispatch
/// policies validated against simulated latency curves serve live traffic
/// unchanged. Plugged into a [`Session`](super::Session), the session's
/// worker pool becomes the shared request queue and the fleet becomes the
/// dispatch layer.
///
/// Because every substrate produces bit-exact outputs and deterministic
/// per-sample records, a fleet of *identical* shards preserves the
/// session's bit-identical-to-serial guarantee: whichever shard serves a
/// sample, its [`RunRecord`](super::RunRecord) is the same, and the session
/// folds records in sample order. (Heterogeneous fleets still classify
/// identically — outputs are bit-exact across substrates — but their
/// cycle/latency aggregates depend on which shard served which sample,
/// and batch *energy* is priced at shard 0's machine configuration and
/// technology node regardless of which shard did the work. Keep fleets
/// homogeneous when timing or power numbers matter.)
///
/// # Example
///
/// ```
/// use sparsenn_core::engine::{Fleet, InferenceBackend};
/// use sparsenn_core::datasets::DatasetKind;
/// use sparsenn_core::model::fixedpoint::UvMode;
/// use sparsenn_core::SystemBuilder;
///
/// let system = SystemBuilder::new(DatasetKind::Basic)
///     .dims(&[784, 24, 10])
///     .rank(4)
///     .train_samples(60)
///     .test_samples(20)
///     .epochs(1)
///     .build();
///
/// // Four cycle-accurate shards behind one queue; one worker per shard.
/// let fleet = Fleet::of_machines(4, *system.machine().config()).unwrap();
/// let session = system.session_with(Box::new(fleet)).with_workers(4);
/// let summary = session.simulate_batch(16, UvMode::On).unwrap();
/// assert_eq!(summary.samples, 16);
/// ```
pub struct Fleet {
    shards: Vec<Box<dyn InferenceBackend>>,
    dispatch: Mutex<Dispatch>,
    /// Signalled whenever a shard returns to the idle pool.
    freed: Condvar,
    scheduler: Box<dyn Scheduler>,
    /// Admission gate consulted before every run; `None` admits all.
    admission: Option<Box<dyn AdmissionGate>>,
    /// How [`run_batch_classified`](Self::run_batch_classified) chunks a
    /// batched call across dispatches.
    batch_policy: BatchPolicy,
    name: String,
}

impl std::fmt::Debug for Fleet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Fleet")
            .field("name", &self.name)
            .field("shards", &self.shards.len())
            .finish_non_exhaustive()
    }
}

impl Fleet {
    /// Builds a fleet over the given shards.
    ///
    /// # Errors
    ///
    /// [`SparseNnError::EmptyFleet`] when `shards` is empty.
    pub fn new(shards: Vec<Box<dyn InferenceBackend>>) -> Result<Self, SparseNnError> {
        if shards.is_empty() {
            return Err(SparseNnError::EmptyFleet);
        }
        let n = shards.len();
        // Homogeneity means "same modelled silicon", not "same label": two
        // cycle-accurate shards with different clocks or technology nodes
        // share a name() but not timing or energy behaviour, so compare a
        // full configuration fingerprint.
        let fp = config_fingerprint(shards[0].as_ref());
        let homogeneous = shards.iter().all(|s| config_fingerprint(s.as_ref()) == fp);
        let name = if homogeneous {
            format!("fleet({}x {})", n, shards[0].name())
        } else {
            format!("fleet({n} shards)")
        };
        Ok(Self {
            shards,
            dispatch: Mutex::new(Dispatch {
                idle: (0..n).collect(),
                stats: vec![ShardStats::default(); n],
                service_sum_us: vec![0.0; n],
                waiting: [0; 2],
                admission: AdmissionStats::default(),
            }),
            freed: Condvar::new(),
            scheduler: Box::new(FirstIdle),
            admission: None,
            batch_policy: BatchPolicy::Immediate,
            name,
        })
    }

    /// Replaces the dispatch policy (default: [`FirstIdle`]). The same
    /// [`Scheduler`] implementations drive the `sparsenn-serve` simulator,
    /// so a policy can be tuned on simulated latency curves and then
    /// dropped in here. Because every shard produces bit-exact outputs,
    /// the policy never changes results — only which shard serves which
    /// request (i.e. [`shard_stats`](Self::shard_stats) and, for
    /// heterogeneous fleets, timing aggregates).
    pub fn with_scheduler(mut self, scheduler: Box<dyn Scheduler>) -> Self {
        self.scheduler = scheduler;
        self
    }

    /// The dispatch policy's name (`first-idle` unless replaced).
    pub fn scheduler_name(&self) -> &str {
        self.scheduler.name()
    }

    /// Installs an admission gate on the live serving path. Every
    /// [`run`](InferenceBackend::run) (class [`Priority::High`]) and
    /// [`run_classified`](Self::run_classified) call consults the gate
    /// *before* waiting for a shard; a [`AdmissionDecision::Shed`]
    /// surfaces as [`SparseNnError::Overloaded`] immediately — the
    /// blocked-caller pool is the live fleet's queue, and the gate is
    /// what keeps it bounded. The same [`AdmissionGate`] trait drives the
    /// `sparsenn-frontend` virtual-time simulator, so a gate tuned
    /// against simulated overload sweeps drops in here unchanged.
    pub fn with_admission(mut self, gate: Box<dyn AdmissionGate>) -> Self {
        self.admission = Some(gate);
        self
    }

    /// The admission gate's name, when one is installed.
    pub fn admission_name(&self) -> Option<&str> {
        self.admission.as_deref().map(AdmissionGate::name)
    }

    /// Admission outcomes since construction (all zero when no gate is
    /// installed — ungated requests are not counted as admitted).
    pub fn admission_stats(&self) -> AdmissionStats {
        self.dispatch
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .admission
    }

    /// Runs one request with an explicit [`Priority`] class through the
    /// admission gate (when installed) and the fleet's scheduler.
    /// [`InferenceBackend::run`] is exactly
    /// `run_classified(…, Priority::High)`.
    ///
    /// # Errors
    ///
    /// [`SparseNnError::Overloaded`] when the gate sheds the request;
    /// otherwise whatever the serving shard returns.
    pub fn run_classified(
        &self,
        net: &FixedNetwork,
        input: &[Q6_10],
        mode: UvMode,
        class: Priority,
    ) -> Result<RunRecord, SparseNnError> {
        if let Some(gate) = &self.admission {
            let mut d = self.dispatch.lock().unwrap_or_else(|e| e.into_inner());
            let views = self.shard_views(&d);
            let decision = gate.decide(class, d.waiting[class.index()], &views);
            match decision {
                AdmissionDecision::Admit => d.admission.admitted[class.index()] += 1,
                // No cheaper live substrate exists to switch to mid-call:
                // serve at full fidelity, record the intent.
                AdmissionDecision::Degrade => d.admission.degraded[class.index()] += 1,
                AdmissionDecision::Shed => {
                    d.admission.shed[class.index()] += 1;
                    return Err(SparseNnError::Overloaded { priority: class });
                }
            }
        }
        let guard = ShardGuard {
            fleet: self,
            shard: self.acquire(class),
        };
        let record = self.shards[guard.shard].run(net, input, mode)?;
        self.note_served(guard.shard, &record);
        Ok(record)
    }

    /// Caps how many samples one shard dispatch carries when the fleet
    /// serves batches ([`run_batch_classified`](Self::run_batch_classified)):
    /// the policy's [`max_batch`](BatchPolicy::max_batch) becomes the
    /// chunk size. The default ([`BatchPolicy::Immediate`]) sends the
    /// whole batch to one shard; `SizeOrDeadline { max, .. }` splits it
    /// into `max`-sample chunks that spread over idle shards. The
    /// *deadline* half of the policy governs queue-time decisions and is
    /// exercised by the `sparsenn-serve` virtual-time simulator — the
    /// live fleet only ever sees batches that have already formed.
    pub fn with_batch_policy(mut self, policy: BatchPolicy) -> Self {
        self.batch_policy = policy;
        self
    }

    /// The installed batching policy ([`BatchPolicy::Immediate`] unless
    /// replaced).
    pub fn batch_policy(&self) -> BatchPolicy {
        self.batch_policy
    }

    /// Runs a batch of requests with an explicit [`Priority`] class: the
    /// batch is split into chunks of at most
    /// [`BatchPolicy::max_batch`] samples, each chunk passes the
    /// admission gate (counting every sample it carries), checks out
    /// *one* shard, and executes there as a true batched dispatch
    /// ([`InferenceBackend::run_batch`]) — W rows are read once per
    /// chunk on batch-native substrates. Per-sample records are
    /// bit-identical to serial [`run`](InferenceBackend::run) calls.
    ///
    /// # Errors
    ///
    /// [`SparseNnError::EmptyBatch`] for an empty input slice;
    /// [`SparseNnError::Overloaded`] when the gate sheds a chunk (any
    /// chunks already served are discarded — the caller sees the batch
    /// fail as a unit); otherwise whatever the serving shard returns.
    pub fn run_batch_classified(
        &self,
        net: &FixedNetwork,
        inputs: &[Vec<Q6_10>],
        mode: UvMode,
        class: Priority,
    ) -> Result<BatchRunRecord, SparseNnError> {
        if inputs.is_empty() {
            return Err(SparseNnError::EmptyBatch);
        }
        let chunk_size = self.batch_policy.max_batch().min(inputs.len()).max(1);
        let mut folded: Option<BatchRunRecord> = None;
        for chunk in inputs.chunks(chunk_size) {
            if let Some(gate) = &self.admission {
                let mut d = self.dispatch.lock().unwrap_or_else(|e| e.into_inner());
                let views = self.shard_views(&d);
                let decision = gate.decide(class, d.waiting[class.index()], &views);
                let n = chunk.len() as u64;
                match decision {
                    AdmissionDecision::Admit => d.admission.admitted[class.index()] += n,
                    AdmissionDecision::Degrade => d.admission.degraded[class.index()] += n,
                    AdmissionDecision::Shed => {
                        d.admission.shed[class.index()] += n;
                        return Err(SparseNnError::Overloaded { priority: class });
                    }
                }
            }
            let guard = ShardGuard {
                fleet: self,
                shard: self.acquire(class),
            };
            let record = self.shards[guard.shard].run_batch(net, chunk, mode)?;
            self.note_served_batch(guard.shard, &record);
            match &mut folded {
                Some(acc) => acc.merge(record),
                None => folded = Some(record),
            }
        }
        Ok(folded.expect("non-empty input produces at least one chunk"))
    }

    /// A homogeneous fleet of `n` cycle-accurate machines, each configured
    /// identically — the sharded-datacenter setup whose batch summaries are
    /// bit-identical to a single machine's.
    ///
    /// # Errors
    ///
    /// [`SparseNnError::EmptyFleet`] when `n == 0`.
    pub fn of_machines(n: usize, cfg: MachineConfig) -> Result<Self, SparseNnError> {
        Self::new(
            (0..n)
                .map(|_| {
                    Box::new(CycleAccurateBackend::with_config(cfg)) as Box<dyn InferenceBackend>
                })
                .collect(),
        )
    }

    /// Number of shards in the fleet.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Per-shard serving statistics accumulated so far.
    pub fn shard_stats(&self) -> Vec<ShardStats> {
        self.dispatch
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .stats
            .clone()
    }

    /// Checks out the shard the scheduler picks, blocking until one is
    /// usable.
    ///
    /// The live fleet has no per-shard queues — blocked callers *are* the
    /// central queue — so only an idle shard can be checked out. A pick of
    /// a busy shard (e.g. [`FastestCompletion`](super::FastestCompletion)
    /// preferring a loaded fast machine over an idle slow one) makes the
    /// caller wait for the next release and ask again; once the preferred
    /// shard frees it is idle and the pick lands. If the policy declines
    /// every shard while *nothing* is running, the lowest-indexed idle
    /// shard is used instead — no release would ever arrive, so waiting
    /// would deadlock the caller.
    fn acquire(&self, class: Priority) -> usize {
        let mut d = self.dispatch.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(i) = self.pick_idle(&d) {
            d.idle.retain(|&j| j != i);
            return i;
        }
        // Blocked callers are the live fleet's queue: count this one in
        // its class so the admission gate sees the true waiting depth.
        d.waiting[class.index()] += 1;
        loop {
            d = self.freed.wait(d).unwrap_or_else(|e| e.into_inner());
            if let Some(i) = self.pick_idle(&d) {
                d.idle.retain(|&j| j != i);
                d.waiting[class.index()] -= 1;
                return i;
            }
        }
    }

    /// Builds the scheduler-facing snapshot of every shard. Live shards
    /// never fail today, so they are always healthy; the `ShardView`
    /// health bit exists for the frontend simulator's fault timelines.
    fn shard_views(&self, d: &Dispatch) -> Vec<ShardView> {
        (0..self.shards.len())
            .map(|i| {
                let idle = d.idle.contains(&i);
                // The shard's observed mean service time (0 before the
                // first run).
                let est_us = d.stats[i].service_estimate_us;
                ShardView {
                    healthy: true,
                    idle,
                    depth: usize::from(!idle),
                    backlog_us: if idle { 0.0 } else { est_us },
                    service_us: est_us,
                }
            })
            .collect()
    }

    /// Asks the scheduler for a shard and validates the pick against the
    /// idle set. `None` means "wait and re-ask after the next release".
    fn pick_idle(&self, d: &Dispatch) -> Option<usize> {
        if d.idle.is_empty() {
            return None;
        }
        let views = self.shard_views(d);
        match self.scheduler.pick(&views) {
            Some(i) if views.get(i).is_some_and(|v| v.idle) => Some(i),
            // The pick is busy or invalid. Legitimate to wait while some
            // shard is running (its release re-triggers the pick); with
            // every shard idle nothing will ever be released, so fall
            // back to the first idle shard to guarantee progress.
            _ if d.idle.len() == self.shards.len() => d.idle.iter().min().copied(),
            _ => None,
        }
    }

    /// Returns a shard to the idle pool.
    fn release(&self, shard: usize) {
        let mut d = self.dispatch.lock().unwrap_or_else(|e| e.into_inner());
        d.idle.push(shard);
        drop(d);
        // All waiters re-run the pick: a selective scheduler may have a
        // waiter declining this shard while another would take it, so a
        // single wake-up could stall behind the wrong waiter.
        self.freed.notify_all();
    }

    /// Credits a successfully served sample to a shard's statistics and
    /// folds its service time into the shard's observed mean.
    fn note_served(&self, shard: usize, record: &RunRecord) {
        let x = record.time_us();
        let mut d = self.dispatch.lock().unwrap_or_else(|e| e.into_inner());
        d.credit(shard, x, 1).busy_us += x;
    }

    /// Credits a batched dispatch to a shard's statistics. Each sample
    /// contributes the batch's *amortized* per-sample latency
    /// ([`BatchRunRecord::mean_time_us`]) to the service estimate — that
    /// is what the next request dispatched to this shard will observe —
    /// so the estimate stays the observed mean of per-sample service
    /// times, exactly as if `note_served` had seen each sample
    /// individually at the amortized latency.
    fn note_served_batch(&self, shard: usize, record: &BatchRunRecord) {
        let b = record.batch_size() as u64;
        if b == 0 {
            return;
        }
        let mut d = self.dispatch.lock().unwrap_or_else(|e| e.into_inner());
        let s = d.credit(shard, record.mean_time_us(), b);
        s.busy_us += record.batch_time_us;
        s.batches += 1;
        s.batch_samples += b;
        s.max_batch = s.max_batch.max(b);
    }
}

/// The identity a [`Fleet`] considers for homogeneity: substrate name,
/// technology node and (when present) the full machine configuration —
/// two shards agreeing on all three are interchangeable for timing and
/// energy, not just for outputs.
fn config_fingerprint(shard: &dyn InferenceBackend) -> String {
    format!(
        "{}|{}nm|{:?}",
        shard.name(),
        shard.tech_node().nm(),
        shard.machine_config()
    )
}

/// Returns the shard on drop, so neither an error return nor a panicking
/// shard backend can leak serving capacity (the session converts the panic
/// into [`SparseNnError::WorkerPanicked`], and the fleet stays whole).
struct ShardGuard<'a> {
    fleet: &'a Fleet,
    shard: usize,
}

impl Drop for ShardGuard<'_> {
    fn drop(&mut self) {
        self.fleet.release(self.shard);
    }
}

impl InferenceBackend for Fleet {
    fn name(&self) -> &str {
        &self.name
    }

    /// The first shard's machine configuration (for a homogeneous fleet,
    /// every shard's). In a *mixed* fleet the other shards' events are
    /// priced on this configuration too — see
    /// [`tech_node`](Self::tech_node) for the caveat.
    fn machine_config(&self) -> Option<&MachineConfig> {
        self.shards[0].machine_config()
    }

    /// The first shard's technology node. Batch summaries price the whole
    /// fleet's events at this node, which is only physically meaningful
    /// when every shard models the same silicon — for a fleet mixing
    /// nodes (say DNN-Engine at 28 nm beside the 65 nm machine), outputs
    /// and accuracy stay exact but the energy aggregate follows whichever
    /// shard is listed first. Keep fleets homogeneous
    /// ([`Fleet::of_machines`]) when the power numbers matter.
    fn tech_node(&self) -> TechNode {
        self.shards[0].tech_node()
    }

    fn run(
        &self,
        net: &FixedNetwork,
        input: &[Q6_10],
        mode: UvMode,
    ) -> Result<RunRecord, SparseNnError> {
        self.run_classified(net, input, mode, Priority::High)
    }

    /// Batches route through the fleet's chunking path
    /// ([`run_batch_classified`](Fleet::run_batch_classified) at
    /// [`Priority::High`]) instead of the serial default, so each chunk
    /// reaches a shard as one true batched dispatch.
    fn run_batch(
        &self,
        net: &FixedNetwork,
        inputs: &[Vec<Q6_10>],
        mode: UvMode,
    ) -> Result<BatchRunRecord, SparseNnError> {
        self.run_batch_classified(net, inputs, mode, Priority::High)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::backends::GoldenBackend;
    use sparsenn_linalg::init::seeded_rng;
    use sparsenn_model::{Mlp, PredictedNetwork};

    fn net_and_input() -> (FixedNetwork, Vec<Q6_10>) {
        let mut rng = seeded_rng(7);
        let mlp = Mlp::random(&[24, 48, 10], &mut rng);
        let net = PredictedNetwork::with_random_predictors(mlp, 3, &mut rng);
        let fixed = FixedNetwork::from_float(&net);
        let x: Vec<f32> = (0..24).map(|i| (i as f32 * 0.17).sin()).collect();
        let xq = fixed.quantize_input(&x);
        (fixed, xq)
    }

    #[test]
    fn empty_fleet_is_rejected() {
        assert_eq!(
            Fleet::new(Vec::new()).unwrap_err(),
            SparseNnError::EmptyFleet
        );
        assert_eq!(
            Fleet::of_machines(0, MachineConfig::default()).unwrap_err(),
            SparseNnError::EmptyFleet
        );
    }

    #[test]
    fn fleet_matches_a_single_machine_bit_for_bit() {
        let (net, x) = net_and_input();
        let single = CycleAccurateBackend::default();
        let fleet = Fleet::of_machines(3, MachineConfig::default()).unwrap();
        for mode in [UvMode::Off, UvMode::On] {
            let a = single.run(&net, &x, mode).unwrap();
            let b = fleet.run(&net, &x, mode).unwrap();
            assert_eq!(a.layers, b.layers, "{mode:?}");
        }
    }

    #[test]
    fn names_and_config_reflect_the_shards() {
        let fleet = Fleet::of_machines(2, MachineConfig::default()).unwrap();
        assert_eq!(fleet.name(), "fleet(2x cycle-accurate)");
        assert_eq!(fleet.shard_count(), 2);
        assert!(fleet.machine_config().is_some());
        assert_eq!(fleet.tech_node(), TechNode::n65());

        let mixed = Fleet::new(vec![
            Box::new(GoldenBackend::new()) as Box<dyn InferenceBackend>,
            Box::new(CycleAccurateBackend::default()),
        ])
        .unwrap();
        assert_eq!(mixed.name(), "fleet(2 shards)");
    }

    /// Regression: two machine shards sharing a name but not a clock (or
    /// any other config field) are *not* homogeneous — comparing `name()`
    /// alone used to misclassify them.
    #[test]
    fn same_name_different_config_is_not_homogeneous() {
        let slow = MachineConfig {
            clock_ns: 10.0,
            ..MachineConfig::default()
        };
        let mixed_clock = Fleet::new(vec![
            Box::new(CycleAccurateBackend::default()) as Box<dyn InferenceBackend>,
            Box::new(CycleAccurateBackend::with_config(slow)),
        ])
        .unwrap();
        assert_eq!(
            mixed_clock.name(),
            "fleet(2 shards)",
            "differing clocks must not be labelled homogeneous"
        );
        // Identical configs still collapse to the homogeneous label.
        let twins = Fleet::of_machines(2, slow).unwrap();
        assert_eq!(twins.name(), "fleet(2x cycle-accurate)");
    }

    #[test]
    fn scheduler_is_pluggable_and_default_is_first_idle() {
        let fleet = Fleet::of_machines(2, MachineConfig::default()).unwrap();
        assert_eq!(fleet.scheduler_name(), "first-idle");
        let fleet = fleet.with_scheduler(Box::new(crate::engine::FastestCompletion));
        assert_eq!(fleet.scheduler_name(), "fastest-completion");
    }

    /// With fastest-expected-completion, serial callers spread over the
    /// fleet by modelled speed: once shard 0 has a measured mean service
    /// time, the still-unmeasured (estimate 0) shard 1 looks faster, and
    /// once both are measured the genuinely faster shard wins.
    #[test]
    fn fastest_completion_routes_to_the_faster_shard() {
        let (net, x) = net_and_input();
        let slow = MachineConfig {
            clock_ns: 20.0,
            ..MachineConfig::default()
        };
        let fleet = Fleet::new(vec![
            Box::new(CycleAccurateBackend::with_config(slow)) as Box<dyn InferenceBackend>,
            Box::new(CycleAccurateBackend::default()),
        ])
        .unwrap()
        .with_scheduler(Box::new(crate::engine::FastestCompletion));
        for _ in 0..6 {
            fleet.run(&net, &x, UvMode::On).unwrap();
        }
        let stats = fleet.shard_stats();
        assert_eq!(stats.iter().map(|s| s.samples).sum::<u64>(), 6);
        // Warm-up probes each shard once; every later call lands on the
        // 2 ns shard, never again on the 20 ns one.
        assert_eq!(stats[0].samples, 1, "slow shard serves only its probe");
        assert_eq!(stats[1].samples, 5);
    }

    /// A record whose only layer models `us` microseconds of service.
    fn timed_record(us: f64) -> RunRecord {
        RunRecord {
            layers: vec![crate::engine::LayerRecord {
                output: vec![Q6_10::ZERO],
                mask: None,
                cycles: 0,
                vu_cycles: 0,
                w_cycles: 0,
                time_us: us,
                events: sparsenn_sim::MachineEvents::default(),
            }],
        }
    }

    #[test]
    fn stats_account_for_every_served_sample() {
        let (net, x) = net_and_input();
        let fleet = Fleet::of_machines(2, MachineConfig::default()).unwrap();
        for _ in 0..5 {
            fleet.run(&net, &x, UvMode::On).unwrap();
        }
        let stats = fleet.shard_stats();
        assert_eq!(stats.iter().map(|s| s.samples).sum::<u64>(), 5);
        // Serial callers always find shard 0 idle first.
        assert_eq!(stats[0].samples, 5);
        assert!(stats[0].busy_us > 0.0);
        assert_eq!(stats[1], ShardStats::default());
    }

    /// Admission on the live path: a zero-budget gate sheds every call
    /// as a typed `Overloaded` error; an open gate admits and counts.
    #[test]
    fn admission_gate_sheds_on_the_live_path() {
        use crate::engine::admission::{AdmissionDecision, AdmissionGate, BoundedQueues, Priority};

        let (net, x) = net_and_input();
        // waiting(0) >= cap(0): every request sheds immediately.
        struct ShedEverything;
        impl AdmissionGate for ShedEverything {
            fn name(&self) -> &str {
                "shed-everything"
            }
            fn decide(&self, _: Priority, _: usize, _: &[ShardView]) -> AdmissionDecision {
                AdmissionDecision::Shed
            }
        }
        let fleet = Fleet::of_machines(1, MachineConfig::default())
            .unwrap()
            .with_admission(Box::new(ShedEverything));
        assert_eq!(fleet.admission_name(), Some("shed-everything"));
        assert_eq!(
            fleet.run(&net, &x, UvMode::On).unwrap_err(),
            SparseNnError::Overloaded {
                priority: Priority::High
            }
        );
        assert_eq!(
            fleet
                .run_classified(&net, &x, UvMode::On, Priority::Low)
                .unwrap_err(),
            SparseNnError::Overloaded {
                priority: Priority::Low
            }
        );
        let stats = fleet.admission_stats();
        assert_eq!(stats.shed, [1, 1]);
        assert_eq!(stats.admitted, [0, 0]);
        assert_eq!(fleet.shard_stats()[0].samples, 0, "nothing was served");

        // A generous bounded gate admits serial callers (nothing waits).
        let open = Fleet::of_machines(1, MachineConfig::default())
            .unwrap()
            .with_admission(Box::new(BoundedQueues::new(4, 4)));
        for _ in 0..3 {
            open.run(&net, &x, UvMode::On).unwrap();
        }
        let stats = open.admission_stats();
        assert_eq!(stats.admitted, [3, 0]);
        assert_eq!(stats.shed, [0, 0]);
        assert_eq!(open.shard_stats()[0].samples, 3);
    }

    /// Without a gate nothing is counted and `run` serves as before.
    #[test]
    fn ungated_fleet_reports_zero_admission_stats() {
        let (net, x) = net_and_input();
        let fleet = Fleet::of_machines(1, MachineConfig::default()).unwrap();
        assert_eq!(fleet.admission_name(), None);
        fleet.run(&net, &x, UvMode::On).unwrap();
        assert_eq!(fleet.admission_stats(), AdmissionStats::default());
    }

    fn batch_inputs(net: &FixedNetwork, b: usize) -> Vec<Vec<Q6_10>> {
        (0..b)
            .map(|s| {
                let x: Vec<f32> = (0..24)
                    .map(|i| {
                        if (i + s) % 3 == 0 {
                            0.0
                        } else {
                            ((i + s) as f32 * 0.17).sin()
                        }
                    })
                    .collect();
                net.quantize_input(&x)
            })
            .collect()
    }

    /// The fleet's batched path returns per-sample records bit-identical
    /// to serial runs and accounts for the dispatch in the batch stats.
    #[test]
    fn batched_fleet_runs_are_bit_identical_and_accounted() {
        let (net, _) = net_and_input();
        let inputs = batch_inputs(&net, 5);
        let fleet = Fleet::of_machines(2, MachineConfig::default()).unwrap();
        assert_eq!(fleet.batch_policy(), BatchPolicy::Immediate);
        let batch = fleet.run_batch(&net, &inputs, UvMode::On).unwrap();
        assert_eq!(batch.batch_size(), 5);
        let single = CycleAccurateBackend::default();
        for (x, rec) in inputs.iter().zip(&batch.records) {
            assert_eq!(rec, &single.run(&net, x, UvMode::On).unwrap());
        }
        assert!(batch.batch_time_us <= batch.serial_time_us() + 1e-9);
        // Immediate policy: the whole batch is one dispatch on shard 0.
        let stats = fleet.shard_stats();
        assert_eq!(stats[0].batches, 1);
        assert_eq!(stats[0].batch_samples, 5);
        assert_eq!(stats[0].max_batch, 5);
        assert!((stats[0].mean_batch() - 5.0).abs() < 1e-12);
        assert_eq!(stats[0].samples, 5);
        assert!((stats[0].busy_us - batch.batch_time_us).abs() < 1e-9);
        assert_eq!(stats[1], ShardStats::default());
        // The service estimate is the amortized per-sample latency.
        assert!((stats[0].service_estimate_us - batch.mean_time_us()).abs() < 1e-9);
    }

    /// A size-capped policy chunks the batch into dispatches of at most
    /// `max` samples.
    #[test]
    fn batch_policy_caps_the_dispatch_size() {
        let (net, _) = net_and_input();
        let inputs = batch_inputs(&net, 7);
        let fleet = Fleet::of_machines(1, MachineConfig::default())
            .unwrap()
            .with_batch_policy(BatchPolicy::SizeOrDeadline {
                max: 3,
                deadline_us: 100.0,
            });
        let batch = fleet.run_batch(&net, &inputs, UvMode::Off).unwrap();
        assert_eq!(batch.batch_size(), 7);
        let s = fleet.shard_stats()[0];
        assert_eq!(s.batches, 3, "7 samples in chunks of 3: 3+3+1");
        assert_eq!(s.batch_samples, 7);
        assert_eq!(s.max_batch, 3);
        assert!((s.mean_batch() - 7.0 / 3.0).abs() < 1e-12);
    }

    /// Single-sample runs leave the batch accounting untouched.
    #[test]
    fn single_runs_do_not_count_as_batches() {
        let (net, x) = net_and_input();
        let fleet = Fleet::of_machines(1, MachineConfig::default()).unwrap();
        fleet.run(&net, &x, UvMode::On).unwrap();
        let s = fleet.shard_stats()[0];
        assert_eq!(s.samples, 1);
        assert_eq!((s.batches, s.batch_samples, s.max_batch), (0, 0, 0));
        assert_eq!(s.mean_batch(), 0.0);
    }

    /// The batched path consults the admission gate per chunk, counting
    /// every sample the chunk carries.
    #[test]
    fn batched_admission_counts_samples() {
        let (net, _) = net_and_input();
        let inputs = batch_inputs(&net, 4);
        let fleet = Fleet::of_machines(1, MachineConfig::default())
            .unwrap()
            .with_admission(Box::new(crate::engine::admission::BoundedQueues::new(4, 4)));
        fleet.run_batch(&net, &inputs, UvMode::Off).unwrap();
        assert_eq!(fleet.admission_stats().admitted, [4, 0]);

        struct ShedEverything;
        impl AdmissionGate for ShedEverything {
            fn name(&self) -> &str {
                "shed-everything"
            }
            fn decide(&self, _: Priority, _: usize, _: &[ShardView]) -> AdmissionDecision {
                AdmissionDecision::Shed
            }
        }
        let gated = Fleet::of_machines(1, MachineConfig::default())
            .unwrap()
            .with_admission(Box::new(ShedEverything));
        assert_eq!(
            gated
                .run_batch_classified(&net, &inputs, UvMode::Off, Priority::Low)
                .unwrap_err(),
            SparseNnError::Overloaded {
                priority: Priority::Low
            }
        );
        assert_eq!(gated.admission_stats().shed, [0, 4]);
        assert_eq!(gated.shard_stats()[0].samples, 0);
    }

    #[test]
    fn empty_batch_through_the_fleet_is_a_typed_error() {
        let (net, _) = net_and_input();
        let fleet = Fleet::of_machines(1, MachineConfig::default()).unwrap();
        assert_eq!(
            fleet.run_batch(&net, &[], UvMode::On).unwrap_err(),
            SparseNnError::EmptyBatch
        );
    }

    /// Under the plain-mean default, interleaving batched and single
    /// dispatches keeps the estimate equal to the observed per-sample
    /// mean.
    #[test]
    fn batched_estimate_stays_the_observed_mean() {
        let fleet = Fleet::of_machines(1, MachineConfig::default()).unwrap();
        fleet.note_served(0, &timed_record(10.0));
        fleet.note_served(0, &timed_record(20.0));
        // A 2-sample dispatch at 15 µs total: 7.5 µs amortized each.
        let batch = BatchRunRecord {
            records: vec![timed_record(10.0), timed_record(5.0)],
            batch_time_us: 15.0,
            batch_events: sparsenn_sim::MachineEvents::default(),
            w_reads_serial: 0,
            w_reads_amortized: 0,
        };
        fleet.note_served_batch(0, &batch);
        let s = fleet.shard_stats()[0];
        assert_eq!(s.samples, 4);
        assert!((s.busy_us - 45.0).abs() < 1e-12);
        // Mean of the per-sample service times seen: (10+20+7.5+7.5)/4,
        // exact in f64.
        assert_eq!(s.service_estimate_us, 11.25);
        assert_eq!(s.batches, 1);
        assert_eq!(s.max_batch, 2);
    }

    #[test]
    fn failed_runs_do_not_count_as_served() {
        let (net, _) = net_and_input();
        let fleet = Fleet::of_machines(1, MachineConfig::default()).unwrap();
        let short = vec![Q6_10::ZERO; 3];
        assert!(fleet.run(&net, &short, UvMode::On).is_err());
        assert_eq!(fleet.shard_stats()[0], ShardStats::default());
        // And the shard went back to the pool: a good run still succeeds.
        let (net, x) = net_and_input();
        assert!(fleet.run(&net, &x, UvMode::On).is_ok());
        assert_eq!(fleet.shard_stats()[0].samples, 1);
    }
}
