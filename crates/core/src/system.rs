//! The end-to-end experiment pipeline.

use crate::engine::{CycleAccurateBackend, InferenceBackend, Session};
use crate::error::SparseNnError;
use sparsenn_datasets::{DatasetKind, DatasetSpec, SplitDataset};
use sparsenn_energy::PowerReport;
use sparsenn_model::fixedpoint::{FixedNetwork, UvMode};
use sparsenn_model::stats::{evaluate, Evaluation};
use sparsenn_model::PredictedNetwork;
use sparsenn_sim::{Machine, MachineConfig, MachineEvents, NetworkRun};
use sparsenn_train::{end_to_end, no_uv, svd_baseline, TrainConfig};

/// Which training regime produces the predictor (the three rows of the
/// paper's Table I).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum TrainingAlgorithm {
    /// The paper's Algorithm 1 (predictor trained by backprop + STE).
    #[default]
    EndToEnd,
    /// Truncated-SVD predictor refreshed once per epoch (LRADNN baseline).
    Svd,
    /// No predictor at all ("NO UV"); the network still *carries* SVD
    /// predictors so it can be simulated, but evaluation ignores them.
    NoUv,
}

impl std::fmt::Display for TrainingAlgorithm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            TrainingAlgorithm::EndToEnd => "End-to-End",
            TrainingAlgorithm::Svd => "SVD",
            TrainingAlgorithm::NoUv => "NO UV",
        })
    }
}

/// Builder assembling a full SparseNN experiment: dataset → training →
/// quantization → simulator.
///
/// # Example
///
/// ```
/// use sparsenn_core::{SystemBuilder, TrainingAlgorithm};
/// use sparsenn_core::datasets::DatasetKind;
/// let sys = SystemBuilder::new(DatasetKind::Rot)
///     .algorithm(TrainingAlgorithm::Svd)
///     .dims(&[784, 32, 10])
///     .rank(4)
///     .train_samples(60)
///     .test_samples(20)
///     .epochs(1)
///     .build();
/// assert_eq!(sys.network().predictors().len(), 1);
/// ```
#[derive(Clone, Debug)]
pub struct SystemBuilder {
    kind: DatasetKind,
    dims: Vec<usize>,
    rank: usize,
    algorithm: TrainingAlgorithm,
    train_samples: usize,
    test_samples: usize,
    config: TrainConfig,
    machine: MachineConfig,
}

impl SystemBuilder {
    /// Starts a builder for the given dataset variant with the paper's
    /// 3-layer network defaults.
    pub fn new(kind: DatasetKind) -> Self {
        Self {
            kind,
            dims: vec![784, 1000, 10],
            rank: 15,
            algorithm: TrainingAlgorithm::EndToEnd,
            train_samples: 1000,
            test_samples: 500,
            config: TrainConfig::default(),
            machine: MachineConfig::default(),
        }
    }

    /// Layer sizes (`[input, hidden…, output]`).
    pub fn dims(mut self, dims: &[usize]) -> Self {
        self.dims = dims.to_vec();
        self
    }

    /// Predictor rank `r`.
    pub fn rank(mut self, rank: usize) -> Self {
        self.rank = rank;
        self
    }

    /// Training algorithm.
    pub fn algorithm(mut self, algorithm: TrainingAlgorithm) -> Self {
        self.algorithm = algorithm;
        self
    }

    /// Number of generated training samples.
    pub fn train_samples(mut self, n: usize) -> Self {
        self.train_samples = n;
        self
    }

    /// Number of generated test samples.
    pub fn test_samples(mut self, n: usize) -> Self {
        self.test_samples = n;
        self
    }

    /// Training epochs.
    pub fn epochs(mut self, epochs: usize) -> Self {
        self.config.epochs = epochs;
        self
    }

    /// Full training configuration (overrides [`epochs`](Self::epochs)).
    pub fn train_config(mut self, config: TrainConfig) -> Self {
        self.config = config;
        self
    }

    /// Machine configuration for the simulator.
    pub fn machine(mut self, machine: MachineConfig) -> Self {
        self.machine = machine;
        self
    }

    /// Generates the data, trains the network and quantizes it.
    pub fn build(self) -> TrainedSystem {
        let split = DatasetSpec {
            kind: self.kind,
            train: self.train_samples,
            test: self.test_samples,
            seed: self.config.seed,
        }
        .generate();
        let machine_config = self.machine;
        let net = match self.algorithm {
            TrainingAlgorithm::EndToEnd => {
                end_to_end::train(&self.dims, self.rank, &split, &self.config).0
            }
            TrainingAlgorithm::Svd => {
                svd_baseline::train(&self.dims, self.rank, &split, &self.config).0
            }
            TrainingAlgorithm::NoUv => {
                let (mlp, _) = no_uv::train(&self.dims, &split, &self.config);
                // Attach SVD predictors so the hardware path stays runnable;
                // NO-UV evaluation ignores them.
                svd_baseline::with_svd_predictors(mlp, self.rank, self.config.seed)
            }
        };
        let fixed = FixedNetwork::from_float(&net);
        TrainedSystem {
            kind: self.kind,
            algorithm: self.algorithm,
            split,
            net,
            fixed,
            machine: Machine::new(machine_config),
        }
    }
}

/// A trained, quantized, simulatable SparseNN system.
#[derive(Clone, Debug)]
pub struct TrainedSystem {
    kind: DatasetKind,
    algorithm: TrainingAlgorithm,
    split: SplitDataset,
    net: PredictedNetwork,
    fixed: FixedNetwork,
    machine: Machine,
}

/// Per-hidden-layer aggregate of a batch simulation (the unit of Fig. 7).
///
/// Units are deliberately explicit, because Table IV prices energy from
/// them: `cycles`, `vu_cycles`, `time_us` and `energy_uj` are **per-sample
/// means**; `events` is the **batch total**, and `power` is estimated over
/// that batch total (its `time_us`/`energy_uj` are batch totals too, while
/// its power rates in mW are batch-size invariant).
#[derive(Clone, Debug, PartialEq)]
pub struct LayerSummary {
    /// Mean total cycles per sample.
    pub cycles: f64,
    /// Mean predictor-phase cycles per sample.
    pub vu_cycles: f64,
    /// Mean modelled latency per sample, microseconds, on the backend's
    /// own clock model (0 for timing-free backends).
    pub time_us: f64,
    /// Mean energy per sample, microjoules (`power.energy_uj / samples`),
    /// priced at the backend's own technology node.
    pub energy_uj: f64,
    /// Event counters summed over the whole batch.
    pub events: MachineEvents,
    /// Power/energy estimate over the batch-total `events`, priced at the
    /// backend's technology node. `power.time_us` and `power.energy_uj`
    /// are batch totals; the mW rates are per-sample invariant.
    pub power: PowerReport,
}

/// Result of simulating a batch of samples.
#[derive(Clone, Debug, PartialEq)]
pub struct SimulationSummary {
    /// One entry per network layer (hidden layers first, classifier last).
    pub layers: Vec<LayerSummary>,
    /// Samples simulated.
    pub samples: usize,
    /// Fraction of simulated samples classified correctly.
    pub fixed_accuracy: f32,
}

impl SimulationSummary {
    /// Mean end-to-end modelled latency per sample, microseconds (layers
    /// execute back to back, so per-layer latencies sum). 0 for
    /// timing-free backends.
    pub fn time_us(&self) -> f64 {
        self.layers.iter().map(|l| l.time_us).sum()
    }

    /// Mean energy per sample over all layers, microjoules.
    pub fn energy_uj(&self) -> f64 {
        self.layers.iter().map(|l| l.energy_uj).sum()
    }
}

impl TrainedSystem {
    /// The dataset variant the system was trained on.
    pub fn kind(&self) -> DatasetKind {
        self.kind
    }

    /// The training algorithm used.
    pub fn algorithm(&self) -> TrainingAlgorithm {
        self.algorithm
    }

    /// The generated train/test split.
    pub fn split(&self) -> &SplitDataset {
        &self.split
    }

    /// The trained float network.
    pub fn network(&self) -> &PredictedNetwork {
        &self.net
    }

    /// The quantized network the simulator runs.
    pub fn fixed(&self) -> &FixedNetwork {
        &self.fixed
    }

    /// The simulated machine.
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// Test error rate and predicted output sparsity per hidden layer (%)
    /// on the test set — the paper's TER and ρ⁽ˡ⁾ — from one
    /// predictor-gated pass per image. NO UV runs ungated and reports no ρ
    /// (Table I's "N.A.").
    pub fn evaluate(&self) -> Evaluation {
        let predictors = match self.algorithm {
            TrainingAlgorithm::NoUv => &[],
            _ => self.net.predictors(),
        };
        evaluate(self.net.mlp(), predictors, &self.split.test)
    }

    /// Opens a serving [`Session`] over the cycle-accurate machine.
    pub fn session(&self) -> Session<'_> {
        self.session_with(Box::new(CycleAccurateBackend::new(self.machine.clone())))
    }

    /// Opens a serving [`Session`] over any execution substrate.
    pub fn session_with(&self, backend: Box<dyn InferenceBackend>) -> Session<'_> {
        Session::new(self, backend)
    }

    /// Opens a serving [`Session`] over the native CPU kernel
    /// ([`KernelBackend`](crate::engine::KernelBackend)) — bit-identical
    /// results to every other substrate, but the latency you observe
    /// around the calls is real wall-clock, not a model.
    pub fn kernel_session(&self) -> Session<'_> {
        self.session_with(Box::new(crate::engine::KernelBackend::new()))
    }

    /// Opens a serving [`Session`] over a
    /// [`PartitionedMachine`](crate::engine::PartitionedMachine) of
    /// `chips` cycle-accurate chips (each configured like this system's
    /// machine, linked by the default
    /// [`InterChipConfig`](sparsenn_partition::InterChipConfig)) — the
    /// model-parallel front door for networks bigger than one chip's W
    /// memory. Outputs are bit-identical to the single-chip session's
    /// whenever the network fits one chip; latency and energy include
    /// the inter-chip broadcast/gather.
    ///
    /// # Errors
    ///
    /// [`SparseNnError::WMemoryOverflow`] when even a best split of some
    /// layer overflows one chip's W memory, plus the planner errors of
    /// [`PartitionedMachine::new`](crate::engine::PartitionedMachine::new).
    pub fn partitioned_session(&self, chips: usize) -> Result<Session<'_>, SparseNnError> {
        let backend = crate::engine::PartitionedMachine::new(
            &self.fixed,
            *self.machine.config(),
            chips,
            sparsenn_partition::InterChipConfig::default(),
        )?;
        Ok(self.session_with(Box::new(backend)))
    }

    /// Opens a serving [`Session`] like
    /// [`partitioned_session`](Self::partitioned_session), but on the
    /// **wavefront-pipelined** schedule
    /// ([`PipelineMode::Wavefront`](sparsenn_partition::PipelineMode)):
    /// each chip's output slice crosses the interconnect as its rows
    /// become available and downstream layers start as soon as their
    /// gathered input lands, overlapping inter-chip communication with
    /// compute. Outputs, masks and energy/event sums are bit-identical
    /// to the serialized session's — only the modelled latency drops.
    ///
    /// # Errors
    ///
    /// As for [`partitioned_session`](Self::partitioned_session).
    pub fn partitioned_session_pipelined(
        &self,
        chips: usize,
    ) -> Result<Session<'_>, SparseNnError> {
        let backend = crate::engine::PartitionedMachine::with_pipeline(
            &self.fixed,
            *self.machine.config(),
            chips,
            sparsenn_partition::InterChipConfig::default(),
            sparsenn_partition::PipelineMode::Wavefront,
        )?;
        Ok(self.session_with(Box::new(backend)))
    }

    /// Simulates test sample `i` through the cycle-accurate accelerator,
    /// returning the full machine-level run (per-PE work distribution
    /// included). For backend-agnostic records use
    /// [`session`](TrainedSystem::session) + [`Session::run_sample`].
    ///
    /// # Errors
    ///
    /// [`SparseNnError::SampleOutOfRange`] if `i` is not in the test set;
    /// machine shape errors for networks the hardware cannot hold.
    pub fn simulate_sample(&self, i: usize, mode: UvMode) -> Result<NetworkRun, SparseNnError> {
        if i >= self.split.test.len() {
            return Err(SparseNnError::SampleOutOfRange {
                index: i,
                len: self.split.test.len(),
            });
        }
        let x = self.fixed.quantize_input(self.split.test.image(i));
        Ok(self.machine.run_network(&self.fixed, &x, mode)?)
    }

    /// Simulates the first `samples` test images (clamped to the test-set
    /// size) and aggregates per-layer cycles, events and power — the
    /// measurement behind Fig. 7. Runs on a worker pool sized by
    /// `std::thread::available_parallelism`; the summary is bit-identical
    /// to the serial path's.
    ///
    /// # Errors
    ///
    /// The error of the lowest-indexed failing sample, if any.
    pub fn simulate_batch(
        &self,
        samples: usize,
        mode: UvMode,
    ) -> Result<SimulationSummary, SparseNnError> {
        self.session().simulate_batch(samples, mode)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(algorithm: TrainingAlgorithm) -> TrainedSystem {
        SystemBuilder::new(DatasetKind::Basic)
            .dims(&[784, 24, 10])
            .rank(4)
            .algorithm(algorithm)
            .train_samples(80)
            .test_samples(30)
            .epochs(2)
            .build()
    }

    #[test]
    fn builder_produces_consistent_system() {
        let sys = tiny(TrainingAlgorithm::EndToEnd);
        assert_eq!(sys.kind(), DatasetKind::Basic);
        assert_eq!(sys.network().mlp().dims(), vec![784, 24, 10]);
        assert_eq!(sys.fixed().num_layers(), 2);
        assert_eq!(sys.split().test.len(), 30);
    }

    #[test]
    fn all_algorithms_build_and_evaluate() {
        for alg in [
            TrainingAlgorithm::EndToEnd,
            TrainingAlgorithm::Svd,
            TrainingAlgorithm::NoUv,
        ] {
            let Evaluation { ter, rho } = tiny(alg).evaluate();
            assert!((0.0..=100.0).contains(&ter), "{alg}: TER {ter}");
            let predicted = alg != TrainingAlgorithm::NoUv;
            assert_eq!(rho.len(), usize::from(predicted), "{alg}");
        }
    }

    #[test]
    fn batch_simulation_aggregates_layers() {
        let sys = tiny(TrainingAlgorithm::EndToEnd);
        let summary = sys.simulate_batch(3, UvMode::On).unwrap();
        assert_eq!(summary.samples, 3);
        assert_eq!(summary.layers.len(), 2);
        assert!(summary.layers[0].cycles > 0.0);
        assert!(
            summary.layers[0].vu_cycles > 0.0,
            "hidden layer runs the predictor"
        );
        assert_eq!(summary.layers[1].vu_cycles, 0.0, "classifier does not");
        assert!(summary.layers[0].power.total_mw > 0.0);
    }

    #[test]
    fn uv_on_reduces_w_memory_traffic() {
        let sys = tiny(TrainingAlgorithm::EndToEnd);
        let on = sys.simulate_batch(2, UvMode::On).unwrap();
        let off = sys.simulate_batch(2, UvMode::Off).unwrap();
        assert!(on.layers[0].events.w_reads < off.layers[0].events.w_reads);
    }

    #[test]
    fn out_of_range_sample_is_an_error() {
        let sys = tiny(TrainingAlgorithm::EndToEnd);
        assert_eq!(
            sys.simulate_sample(30, UvMode::On).unwrap_err(),
            SparseNnError::SampleOutOfRange { index: 30, len: 30 }
        );
        assert!(sys.simulate_sample(29, UvMode::On).is_ok());
    }

    #[test]
    fn pipelined_session_matches_bits_and_never_adds_latency() {
        let sys = tiny(TrainingAlgorithm::EndToEnd);
        let serialized = sys.partitioned_session(2).unwrap();
        let pipelined = sys.partitioned_session_pipelined(2).unwrap();
        for i in 0..3 {
            let a = serialized.run_sample(i, UvMode::On).unwrap();
            let b = pipelined.run_sample(i, UvMode::On).unwrap();
            assert_eq!(a.output(), b.output(), "sample {i}");
            assert_eq!(a.total_events(), b.total_events(), "sample {i}");
            assert!(b.time_us() <= a.time_us() + 1e-9, "sample {i}");
        }
    }

    #[test]
    fn empty_batch_is_well_defined() {
        let sys = tiny(TrainingAlgorithm::EndToEnd);
        let summary = sys.simulate_batch(0, UvMode::On).unwrap();
        assert_eq!(summary.samples, 0);
        assert_eq!(summary.fixed_accuracy, 0.0);
        assert_eq!(summary.layers.len(), 2);
        assert_eq!(summary.layers[0].cycles, 0.0);
    }
}
