//! Sharded serving: one request queue, N simulated accelerators.

use crate::engine::backends::{CycleAccurateBackend, InferenceBackend};
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
            }),
            freed: Condvar::new(),
            scheduler: Box::new(FirstIdle),
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
    /// usable. The returned guard hands the shard back on drop.
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
    fn acquire(&self) -> ShardGuard<'_> {
        let mut d = self.dispatch.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(shard) = self.pick_idle(&d) {
                d.idle.retain(|&j| j != shard);
                return ShardGuard { fleet: self, shard };
            }
            d = self.freed.wait(d).unwrap_or_else(|e| e.into_inner());
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
        d.credit(shard, record.mean_time_us(), b).busy_us += record.batch_time_us;
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
        let guard = self.acquire();
        let record = self.shards[guard.shard].run(net, input, mode)?;
        self.note_served(guard.shard, &record);
        Ok(record)
    }

    /// The whole batch checks out *one* shard and executes there as a
    /// true batched dispatch ([`InferenceBackend::run_batch`]) instead of
    /// the serial default — W rows are read once per batch on
    /// batch-native substrates, and the per-sample records are
    /// bit-identical to serial [`run`](InferenceBackend::run) calls.
    fn run_batch(
        &self,
        net: &FixedNetwork,
        inputs: &[Vec<Q6_10>],
        mode: UvMode,
    ) -> Result<BatchRunRecord, SparseNnError> {
        if inputs.is_empty() {
            return Err(SparseNnError::EmptyBatch);
        }
        let guard = self.acquire();
        let record = self.shards[guard.shard].run_batch(net, inputs, mode)?;
        self.note_served_batch(guard.shard, &record);
        Ok(record)
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
    /// to serial runs and credits the dispatch to the serving shard.
    #[test]
    fn batched_fleet_runs_are_bit_identical_and_accounted() {
        let (net, _) = net_and_input();
        let inputs = batch_inputs(&net, 5);
        let fleet = Fleet::of_machines(2, MachineConfig::default()).unwrap();
        let batch = fleet.run_batch(&net, &inputs, UvMode::On).unwrap();
        assert_eq!(batch.batch_size(), 5);
        let single = CycleAccurateBackend::default();
        // One dispatch on one shard: the whole record, batch book
        // included, is that shard's own `run_batch`.
        assert_eq!(batch, single.run_batch(&net, &inputs, UvMode::On).unwrap());
        for (x, rec) in inputs.iter().zip(&batch.records) {
            assert_eq!(rec, &single.run(&net, x, UvMode::On).unwrap());
        }
        assert!(batch.batch_time_us <= batch.serial_time_us() + 1e-9);
        // The whole batch is one dispatch on shard 0.
        let stats = fleet.shard_stats();
        assert_eq!(stats[0].samples, 5);
        assert!((stats[0].busy_us - batch.batch_time_us).abs() < 1e-9);
        assert_eq!(stats[1], ShardStats::default());
        // The service estimate is the amortized per-sample latency.
        assert!((stats[0].service_estimate_us - batch.mean_time_us()).abs() < 1e-9);
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
