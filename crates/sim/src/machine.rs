//! The whole-machine simulator: 64 PEs + H-tree, phase sequencing.

use crate::config::MachineConfig;
use crate::events::MachineEvents;
use crate::pe::{Pe, StepOutcome};
use sparsenn_model::fixedpoint::{FixedMatrix, FixedNetwork, FixedPredictor, UvMode};
use sparsenn_noc::{ActFlit, BroadcastTree, ReduceTree};
use sparsenn_numeric::{Accumulator, Q6_10};
use std::collections::VecDeque;

/// Why a simulation request could not run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MachineError {
    /// The layer's shape exceeds a machine limit, or the machine itself
    /// cannot run ([`MachineConfig::validate_layer`]).
    LayerDoesNotFit {
        /// Index of the offending layer within the network (0 for a
        /// stand-alone layer run).
        layer: usize,
        /// Human-readable description of the violated limit.
        reason: String,
    },
    /// The layer's weights exceed the per-PE W memory — the typed variant
    /// of the capacity rejection, carrying the exact sizes so planners
    /// (the multi-chip partitioner) can reason about the overflow.
    WMemoryOverflow {
        /// Index of the offending layer within the network (0 for a
        /// stand-alone layer run).
        layer: usize,
        /// Weight words the layer needs per PE.
        words: usize,
        /// Words the W memory holds per PE.
        capacity: usize,
    },
    /// The activation vector's width does not match the layer's columns.
    InputWidthMismatch {
        /// Columns the layer expects.
        expected: usize,
        /// Activations supplied.
        got: usize,
    },
    /// The network has no layers.
    EmptyNetwork,
    /// A batched run was asked to execute zero samples.
    EmptyBatch,
}

impl std::fmt::Display for MachineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MachineError::LayerDoesNotFit { layer, reason } => {
                write!(f, "layer {layer} does not fit the machine: {reason}")
            }
            MachineError::WMemoryOverflow {
                layer,
                words,
                capacity,
            } => {
                write!(
                    f,
                    "layer {layer} overflows W memory: needs {words} weight words per PE, \
                     memory holds {capacity}"
                )
            }
            MachineError::InputWidthMismatch { expected, got } => {
                write!(
                    f,
                    "input width mismatch: layer expects {expected} activations, got {got}"
                )
            }
            MachineError::EmptyNetwork => f.write_str("network has no layers"),
            MachineError::EmptyBatch => f.write_str("batch has no samples"),
        }
    }
}

impl std::error::Error for MachineError {}

/// Result of simulating one layer.
#[derive(Clone, Debug)]
pub struct LayerRun {
    /// The produced output activations (bit-exact vs. the golden model).
    pub output: Vec<Q6_10>,
    /// Predictor mask (`true` = computed), when the predictor ran.
    pub mask: Option<Vec<bool>>,
    /// Total cycles for the layer (`vu_cycles + w_cycles`).
    pub cycles: u64,
    /// Cycles in the V/U predictor phases (0 in `uv_off` mode).
    pub vu_cycles: u64,
    /// Cycles in the W feedforward phase.
    pub w_cycles: u64,
    /// Activity counters for the energy model.
    pub events: MachineEvents,
    /// Busy datapath cycles per PE — the per-PE work distribution. The
    /// paper points out that "the number of nonzero output activations
    /// predicted by the sparsity predictor also varies from PE to PE";
    /// this vector quantifies it.
    pub pe_busy: Vec<u64>,
    /// The row-availability profile: for each output row, the cycle
    /// (counted from the start of the layer) at which its value became
    /// final — the row's last W-phase MAC plus the PE pipeline depth,
    /// offset past the VU phase. Rows the W phase never touched
    /// (predictor-bypassed, or an all-zero input) are final as soon as
    /// the predictor verdict clears the pipeline. Always bounded by
    /// [`cycles`](Self::cycles); the gap between a row's readiness and
    /// the layer total is drain time a downstream consumer need not wait
    /// for — the slack wavefront pipelining converts into comm/compute
    /// overlap.
    pub row_ready: Vec<u64>,
}

impl LayerRun {
    /// Cycle the earliest output row was final (0 for a zero-row layer).
    pub fn first_ready(&self) -> u64 {
        self.row_ready.iter().copied().min().unwrap_or(0)
    }

    /// Cycle the last output row was final — the earliest moment the
    /// *whole* output could leave the chip (≤ [`cycles`](Self::cycles)).
    pub fn last_ready(&self) -> u64 {
        self.row_ready.iter().copied().max().unwrap_or(0)
    }
    /// Work imbalance: busiest PE's cycles over the mean. 1.0 = perfectly
    /// balanced; the whole layer's duration is paced by the max, so this is
    /// the factor by which imbalance stretches the W phase (and where the
    /// idle-cycle power savings of `uv_on` come from).
    pub fn work_imbalance(&self) -> f64 {
        let max = self.pe_busy.iter().copied().max().unwrap_or(0);
        let sum: u64 = self.pe_busy.iter().sum();
        if sum == 0 {
            return 1.0;
        }
        max as f64 * self.pe_busy.len() as f64 / sum as f64
    }
}

/// Result of simulating a whole network.
#[derive(Clone, Debug)]
pub struct NetworkRun {
    /// Per-layer results, input side first.
    pub layers: Vec<LayerRun>,
}

impl NetworkRun {
    /// Output activations of the final layer.
    pub fn output(&self) -> &[Q6_10] {
        &self.layers.last().expect("at least one layer").output
    }

    /// Argmax classification of the final layer.
    pub fn classify(&self) -> usize {
        sparsenn_numeric::argmax(self.output())
    }

    /// Sum of per-layer cycle counts.
    pub fn total_cycles(&self) -> u64 {
        self.layers.iter().map(|l| l.cycles).sum()
    }

    /// Merged activity counters.
    pub fn total_events(&self) -> MachineEvents {
        let mut ev = MachineEvents::default();
        for l in &self.layers {
            ev.merge(&l.events);
        }
        ev
    }
}

/// Batch-amortized timing of one layer pass over B samples.
///
/// The batched core keeps **two books**. The exact book is the per-sample
/// [`LayerRun`]s (bit-identical to serial runs by construction — they *are*
/// serial runs). This struct is the amortized book: what the layer pass
/// costs when the machine keeps each W row resident while B lanes consume
/// it, so every W-memory word is fetched once per *batch* instead of once
/// per *sample*. Predictor (V/U) work stays per-sample — each sample's
/// verdict is its own — but the W phase runs once over the **union** of
/// the batch's nonzero-input pattern and predicted-active rows.
#[derive(Clone, Debug)]
pub struct BatchTiming {
    /// Samples in the batch.
    pub batch_size: usize,
    /// Batch clock: `vu_cycles + w_cycles`.
    pub cycles: u64,
    /// Summed per-sample predictor cycles (the V/U phases do not amortize).
    pub vu_cycles: u64,
    /// W-phase cycles of the single union pass (or the serial sum when
    /// amortization would lose — see [`amortized`](Self::amortized)).
    pub w_cycles: u64,
    /// The batch's activity book for the energy model: per-sample counters
    /// summed exactly, with `w_reads` (and the cycle totals) replaced by
    /// the amortized values.
    pub events: MachineEvents,
    /// W-memory reads the B serial runs would have made.
    pub w_reads_serial: u64,
    /// W-memory reads the batch actually makes (≤ serial).
    pub w_reads_amortized: u64,
    /// Whether the union pass won. When the samples' sparsity patterns are
    /// so disjoint that one union pass costs more than B serial passes,
    /// the machine simply does not batch the layer and this is `false`
    /// (serial accounting) — batch timing is never worse than serial.
    pub amortized: bool,
}

impl BatchTiming {
    /// W-read amortization factor: serial reads over batch reads (≥ 1).
    pub fn w_read_amortization(&self) -> f64 {
        if self.w_reads_amortized == 0 {
            return 1.0;
        }
        self.w_reads_serial as f64 / self.w_reads_amortized as f64
    }
}

/// One layer of a batched network run: the exact per-sample results plus
/// the amortized batch timing.
#[derive(Clone, Debug)]
pub struct BatchLayerRun {
    /// Exact per-sample results, bit-identical to serial execution.
    pub per_sample: Vec<LayerRun>,
    /// The amortized clock/energy book for the whole batch.
    pub batch: BatchTiming,
}

/// Result of simulating a whole network over a batch of inputs.
#[derive(Clone, Debug)]
pub struct BatchNetworkRun {
    /// Per-layer results, input side first.
    pub layers: Vec<BatchLayerRun>,
}

impl BatchNetworkRun {
    /// Samples in the batch.
    pub fn batch_size(&self) -> usize {
        self.layers.first().map_or(0, |l| l.per_sample.len())
    }

    /// Output activations of the final layer for one sample.
    pub fn output(&self, sample: usize) -> &[Q6_10] {
        &self.layers.last().expect("at least one layer").per_sample[sample].output
    }

    /// Argmax classification of the final layer for one sample.
    pub fn classify(&self, sample: usize) -> usize {
        sparsenn_numeric::argmax(self.output(sample))
    }

    /// Batch clock: summed per-layer amortized cycles.
    pub fn total_cycles(&self) -> u64 {
        self.layers.iter().map(|l| l.batch.cycles).sum()
    }

    /// What the B samples would cost run back to back (the serial
    /// baseline the amortization is measured against).
    pub fn serial_cycles(&self) -> u64 {
        self.layers
            .iter()
            .flat_map(|l| l.per_sample.iter().map(|r| r.cycles))
            .sum()
    }

    /// Merged amortized activity counters.
    pub fn total_events(&self) -> MachineEvents {
        let mut ev = MachineEvents::default();
        for l in &self.layers {
            ev.merge(&l.batch.events);
        }
        ev
    }

    /// Total W reads of the serial baseline / the amortized batch.
    pub fn w_read_totals(&self) -> (u64, u64) {
        self.layers.iter().fold((0, 0), |(s, a), l| {
            (s + l.batch.w_reads_serial, a + l.batch.w_reads_amortized)
        })
    }

    /// Reassembles the exact per-sample [`NetworkRun`]s — each is
    /// bit-identical to running that sample alone.
    pub fn sample_runs(&self) -> Vec<NetworkRun> {
        (0..self.batch_size())
            .map(|s| NetworkRun {
                layers: self
                    .layers
                    .iter()
                    .map(|l| l.per_sample[s].clone())
                    .collect(),
            })
            .collect()
    }
}

/// Re-labels a per-layer error with its position in the network chain.
/// Past layer 0 a width mismatch is a malformed layer chain, not a bad
/// caller input — reported as such (and identically to the functional
/// backends).
fn relabel_layer_error(e: MachineError, l: usize) -> MachineError {
    match e {
        MachineError::LayerDoesNotFit { reason, .. } => {
            MachineError::LayerDoesNotFit { layer: l, reason }
        }
        MachineError::WMemoryOverflow {
            words, capacity, ..
        } => MachineError::WMemoryOverflow {
            layer: l,
            words,
            capacity,
        },
        MachineError::InputWidthMismatch { expected, got } if l > 0 => {
            MachineError::LayerDoesNotFit {
                layer: l,
                reason: format!(
                    "layer expects {expected} inputs but the previous layer produces {got}"
                ),
            }
        }
        other => other,
    }
}

/// The cycle-level SparseNN machine.
///
/// Stateless between runs: every [`run_layer`](Machine::run_layer) builds
/// fresh PEs and NoC state, so runs are independent and deterministic.
#[derive(Clone, Debug, Default)]
pub struct Machine {
    cfg: MachineConfig,
}

/// Upper bound on simulated cycles per phase — a deadlock tripwire, far
/// above any legitimate layer (the largest supported layer needs fewer
/// than 4 K × 4 K / 64 ≈ 256 K W-phase cycles).
const CYCLE_GUARD: u64 = 50_000_000;

impl Machine {
    /// Creates a machine with the given configuration.
    pub fn new(cfg: MachineConfig) -> Self {
        Self { cfg }
    }

    /// The machine configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.cfg
    }

    /// Simulates one layer.
    ///
    /// `predictor` is used only when `mode == UvMode::On` and
    /// `is_hidden` — exactly the layers the paper equips with predictors.
    ///
    /// # Errors
    ///
    /// [`MachineError::LayerDoesNotFit`] if the machine cannot run or the
    /// layer exceeds one of its limits, [`MachineError::WMemoryOverflow`]
    /// if the weights exceed the W memory, and
    /// [`MachineError::InputWidthMismatch`] if `input.len()` differs from
    /// the layer's column count.
    pub fn run_layer(
        &self,
        w: &FixedMatrix,
        predictor: Option<&FixedPredictor>,
        input: &[Q6_10],
        is_hidden: bool,
        mode: UvMode,
    ) -> Result<LayerRun, MachineError> {
        let mut stages = LayerStages::begin(&self.cfg, w, predictor, input, is_hidden, mode)?;
        stages.run_vu();
        stages.run_w();
        Ok(stages.writeback())
    }

    /// Simulates the whole network, feeding each layer's (already
    /// quantized) outputs to the next — the ping-pong register files.
    ///
    /// # Errors
    ///
    /// [`MachineError::EmptyNetwork`] for a zero-layer network, otherwise
    /// the first per-layer error with its layer index filled in.
    pub fn run_network(
        &self,
        net: &FixedNetwork,
        input: &[Q6_10],
        mode: UvMode,
    ) -> Result<NetworkRun, MachineError> {
        if net.num_layers() == 0 {
            return Err(MachineError::EmptyNetwork);
        }
        let mut acts = input.to_vec();
        let mut layers = Vec::with_capacity(net.num_layers());
        for l in 0..net.num_layers() {
            let is_hidden = l + 1 < net.num_layers();
            let predictor = if is_hidden {
                net.predictors().get(l)
            } else {
                None
            };
            let run = self
                .run_layer(&net.layers()[l], predictor, &acts, is_hidden, mode)
                .map_err(|e| relabel_layer_error(e, l))?;
            acts = run.output.clone();
            layers.push(run);
        }
        Ok(NetworkRun { layers })
    }

    /// Simulates the whole network over a batch of inputs with the
    /// weight-stationary batched core: B samples per layer pass, reading
    /// each W row once per *batch*.
    ///
    /// Each sample's functional result (outputs, masks, per-sample events)
    /// is produced by the exact serial core, so batched execution is
    /// bit-identical to per-request execution by construction; the
    /// amortized clock/energy book rides alongside in
    /// [`BatchLayerRun::batch`]. See [`BatchTiming`] for the model.
    ///
    /// # Errors
    ///
    /// [`MachineError::EmptyBatch`] for zero samples,
    /// [`MachineError::EmptyNetwork`] for a zero-layer network, otherwise
    /// the first per-layer error with its layer index filled in.
    pub fn run_network_batch(
        &self,
        net: &FixedNetwork,
        inputs: &[Vec<Q6_10>],
        mode: UvMode,
    ) -> Result<BatchNetworkRun, MachineError> {
        if inputs.is_empty() {
            return Err(MachineError::EmptyBatch);
        }
        if net.num_layers() == 0 {
            return Err(MachineError::EmptyNetwork);
        }
        let mut acts: Vec<Vec<Q6_10>> = inputs.to_vec();
        let mut layers = Vec::with_capacity(net.num_layers());
        for l in 0..net.num_layers() {
            let is_hidden = l + 1 < net.num_layers();
            let predictor = if is_hidden {
                net.predictors().get(l)
            } else {
                None
            };
            let w = &net.layers()[l];
            // The exact book: every sample runs the real serial core.
            let mut per_sample = Vec::with_capacity(acts.len());
            for sample in &acts {
                let run = self
                    .run_layer(w, predictor, sample, is_hidden, mode)
                    .map_err(|e| relabel_layer_error(e, l))?;
                per_sample.push(run);
            }
            let batch = self.batch_timing(w, &per_sample, &acts, is_hidden, l)?;
            for (sample, run) in acts.iter_mut().zip(&per_sample) {
                sample.clone_from(&run.output);
            }
            layers.push(BatchLayerRun { per_sample, batch });
        }
        Ok(BatchNetworkRun { layers })
    }

    /// The amortized book of one batched layer pass: a single W pass over
    /// the union nonzero-input pattern, gated by the union predictor
    /// verdict, with serial fallback when the union pass would lose.
    fn batch_timing(
        &self,
        w: &FixedMatrix,
        per_sample: &[LayerRun],
        inputs: &[Vec<Q6_10>],
        is_hidden: bool,
        layer: usize,
    ) -> Result<BatchTiming, MachineError> {
        // Union pseudo-input: position j carries the first nonzero value
        // any sample supplies there, so the union pass broadcasts exactly
        // the batch's union nonzero pattern (values are irrelevant to
        // timing; only the pattern drives the clock).
        let mut union_input = vec![Q6_10::ZERO; w.cols()];
        for sample in inputs {
            for (u, &v) in union_input.iter_mut().zip(sample) {
                if u.is_zero() && !v.is_zero() {
                    *u = v;
                }
            }
        }
        // Union predictor verdict: a W row is fetched if any sample
        // computes it.
        let union_mask: Option<Vec<bool>> = per_sample[0].mask.as_ref().map(|m0| {
            let mut mask = vec![false; m0.len()];
            for run in per_sample {
                let m = run.mask.as_ref().expect("mode is uniform across a batch");
                for (u, &b) in mask.iter_mut().zip(m) {
                    *u |= b;
                }
            }
            mask
        });
        let mut stages =
            LayerStages::begin(&self.cfg, w, None, &union_input, is_hidden, UvMode::Off)
                .map_err(|e| relabel_layer_error(e, layer))?;
        match &union_mask {
            Some(mask) => stages.force_predictor(mask),
            None => {
                stages.run_vu();
            }
        }
        stages.run_w();
        let union_run = stages.writeback();

        let vu_cycles: u64 = per_sample.iter().map(|r| r.vu_cycles).sum();
        let serial_w_cycles: u64 = per_sample.iter().map(|r| r.w_cycles).sum();
        let serial_w_reads: u64 = per_sample.iter().map(|r| r.events.w_reads).sum();
        let amortized =
            union_run.w_cycles <= serial_w_cycles && union_run.events.w_reads <= serial_w_reads;
        let (w_cycles, w_reads) = if amortized {
            (union_run.w_cycles, union_run.events.w_reads)
        } else {
            (serial_w_cycles, serial_w_reads)
        };
        let mut events = MachineEvents::default();
        for run in per_sample {
            events.merge(&run.events);
        }
        events.w_reads = w_reads;
        events.vu_cycles = vu_cycles;
        events.w_cycles = w_cycles;
        events.cycles = vu_cycles + w_cycles;
        Ok(BatchTiming {
            batch_size: per_sample.len(),
            cycles: vu_cycles + w_cycles,
            vu_cycles,
            w_cycles,
            events,
            w_reads_serial: serial_w_reads,
            w_reads_amortized: w_reads,
            amortized,
        })
    }
}

/// The staged core of one layer simulation: the machine's three-phase
/// schedule made explicit.
///
/// [`begin`](Self::begin) validates the shapes and loads the PEs;
/// [`run_vu`](Self::run_vu) executes the overlapped V/U predictor phases
/// (a no-op outside predicted layers) or
/// [`force_predictor`](Self::force_predictor) loads a verdict computed
/// elsewhere; [`run_w`](Self::run_w) executes the feedforward W phase,
/// stamping every row's last MAC cycle; and [`writeback`](Self::writeback)
/// quantizes the accumulators into the [`LayerRun`], including the
/// per-row availability profile ([`LayerRun::row_ready`]) the wavefront
/// multi-chip executor schedules transfers from. [`Machine::run_layer`]
/// is exactly `begin → run_vu → run_w → writeback`.
struct LayerStages<'a> {
    cfg: &'a MachineConfig,
    w: &'a FixedMatrix,
    predictor: Option<&'a FixedPredictor>,
    is_hidden: bool,
    predicted: bool,
    pes: Vec<Pe>,
    ev: MachineEvents,
    pe_busy: Vec<u64>,
    vu_cycles: Option<u64>,
    w_cycles: Option<u64>,
}

impl<'a> LayerStages<'a> {
    /// Validates the layer against the machine limits and loads the PEs'
    /// source register files — everything up to (but not including) the
    /// first simulated cycle.
    ///
    /// # Errors
    ///
    /// As for [`Machine::run_layer`].
    fn begin(
        cfg: &'a MachineConfig,
        w: &'a FixedMatrix,
        predictor: Option<&'a FixedPredictor>,
        input: &[Q6_10],
        is_hidden: bool,
        mode: UvMode,
    ) -> Result<Self, MachineError> {
        cfg.validate_layer(w.rows(), w.cols())
            .map_err(|e| match e {
                crate::LayerFitError::WMemoryOverflow { words, capacity } => {
                    MachineError::WMemoryOverflow {
                        layer: 0,
                        words,
                        capacity,
                    }
                }
                other => MachineError::LayerDoesNotFit {
                    layer: 0,
                    reason: other.to_string(),
                },
            })?;
        if input.len() != w.cols() {
            return Err(MachineError::InputWidthMismatch {
                expected: w.cols(),
                got: input.len(),
            });
        }
        let n_pes = cfg.num_pes();
        let pes: Vec<Pe> = (0..n_pes)
            .map(|id| Pe::new(id, n_pes, cfg.act_queue_depth, input, w.rows()))
            .collect();
        let predicted = mode == UvMode::On && is_hidden && predictor.is_some();
        Ok(Self {
            cfg,
            w,
            predictor,
            is_hidden,
            predicted,
            pes,
            ev: MachineEvents::default(),
            pe_busy: vec![0u64; n_pes],
            vu_cycles: None,
            w_cycles: None,
        })
    }

    /// Runs the overlapped V/U predictor phases and returns their cycle
    /// count (0 for unpredicted layers, which instead force every
    /// predictor bit active).
    fn run_vu(&mut self) -> u64 {
        assert!(self.vu_cycles.is_none(), "run_vu called twice");
        let cycles = if self.predicted {
            self.vu_phase()
        } else {
            self.pes.iter_mut().for_each(Pe::force_all_active);
            0
        };
        self.vu_cycles = Some(cycles);
        cycles
    }

    /// Skips the V/U phases and loads an externally computed predictor
    /// verdict instead: `mask[row]` = row active. The W phase then runs
    /// with output-sparsity skipping against that mask, at zero predictor
    /// cost — the batched core uses this to drive one W pass with the
    /// *union* of a batch's per-sample verdicts.
    ///
    /// Stands in for [`run_vu`](Self::run_vu) (the phase slot is consumed
    /// with a cycle count of 0).
    ///
    /// # Panics
    ///
    /// Panics if [`run_vu`](Self::run_vu) already ran, or `mask` is
    /// shorter than the layer's output row count.
    fn force_predictor(&mut self, mask: &[bool]) {
        assert!(
            self.vu_cycles.is_none(),
            "force_predictor after run_vu (the verdict is already latched)"
        );
        assert!(
            mask.len() >= self.w.rows(),
            "predictor mask covers every output row"
        );
        for pe in &mut self.pes {
            pe.set_predictor(mask);
        }
        self.predicted = true;
        self.vu_cycles = Some(0);
    }

    /// Runs the feedforward W phase and returns its cycle count.
    ///
    /// # Panics
    ///
    /// Panics if [`run_vu`](Self::run_vu) has not run first — the phases
    /// are a hardware schedule, not independent kernels.
    fn run_w(&mut self) -> u64 {
        assert!(
            self.vu_cycles.is_some(),
            "run_w before run_vu (the W phase consumes the predictor verdict)"
        );
        assert!(self.w_cycles.is_none(), "run_w called twice");
        let cycles = self.w_phase();
        self.w_cycles = Some(cycles);
        cycles
    }

    /// Quantizes the accumulators into the [`LayerRun`]: outputs, mask,
    /// cycle totals, events — and the per-row availability profile
    /// ([`LayerRun::row_ready`] plus the
    /// [`row_ready_hist`](MachineEvents::row_ready_hist) summary).
    ///
    /// # Panics
    ///
    /// Panics unless both [`run_vu`](Self::run_vu) and
    /// [`run_w`](Self::run_w) have run.
    fn writeback(mut self) -> LayerRun {
        let vu_cycles = self.vu_cycles.expect("run_vu before writeback");
        let w_cycles = self.w_cycles.expect("run_w before writeback");
        let total = vu_cycles + w_cycles;
        let pipe = self.cfg.pe_pipeline_depth;
        let rows = self.w.rows();
        let mut output = vec![Q6_10::ZERO; rows];
        let mut row_ready = vec![0u64; rows];
        for pe in &self.pes {
            for (row, val, last_mac) in pe.writeback(self.is_hidden, &mut self.ev) {
                output[row as usize] = val;
                // A row is final once its last MAC clears the PE
                // pipeline; rows the W phase never touched are final as
                // soon as the predictor verdict does.
                row_ready[row as usize] = vu_cycles + last_mac + pipe;
            }
        }
        debug_assert!(
            row_ready.iter().all(|&t| t <= total),
            "row availability must be bounded by the layer total"
        );
        let span = total.max(1);
        for &t in &row_ready {
            let bucket = (t.saturating_mul(8) / span).min(7) as usize;
            self.ev.row_ready_hist[bucket] += 1;
        }
        let mask = self.predicted.then(|| {
            let mut mask = vec![false; rows];
            for pe in &self.pes {
                for (&row, &bit) in pe.rows().iter().zip(pe.predictor_bits()) {
                    mask[row as usize] = bit;
                }
            }
            mask
        });
        self.ev.vu_cycles = vu_cycles;
        self.ev.w_cycles = w_cycles;
        self.ev.cycles = total;
        LayerRun {
            output,
            mask,
            cycles: total,
            vu_cycles,
            w_cycles,
            events: self.ev,
            pe_busy: self.pe_busy,
            row_ready,
        }
    }

    /// The overlapped V/U predictor phases. Returns the cycle count.
    fn vu_phase(&mut self) -> u64 {
        let p = self.predictor.expect("predicted layers carry a predictor");
        let pes = &mut self.pes;
        let ev = &mut self.ev;
        let pe_busy = &mut self.pe_busy;
        let r = p.v.rows();
        let participants: Vec<bool> = pes.iter().map(Pe::participates).collect();
        for pe in pes.iter_mut() {
            pe.begin_v(r);
        }
        let mut reduce = ReduceTree::new(&self.cfg.noc, r, &participants);
        // Root output buffer and the downward broadcast pipeline for the
        // quantized V results.
        let mut pending: VecDeque<ActFlit> = VecDeque::new();
        let mut down: VecDeque<(u64, ActFlit)> = VecDeque::new();
        let bcast_latency = self.cfg.noc.broadcast_latency();

        let mut cycle: u64 = 0;
        loop {
            cycle += 1;
            assert!(cycle < CYCLE_GUARD, "V/U phase deadlock");

            // Network interfaces push finished partials into the reduce tree.
            for pe in pes.iter_mut() {
                if let Some((row, val)) = pe.pending_v_emit() {
                    if reduce.try_inject(pe.id(), row, val) {
                        pe.clear_v_emit();
                    }
                }
            }

            // Root finishes at most one row per cycle; zero results are not
            // broadcast (the U phase skips them exactly).
            if let Some((row, total)) = reduce.tick() {
                let q: Q6_10 = Accumulator::from_raw(total).to_fixed();
                if !q.is_zero() {
                    pending.push_back(ActFlit {
                        index: row,
                        value: q.raw(),
                    });
                }
            }

            // Enter the broadcast pipeline only with guaranteed queue space.
            let sink_ready = pes.iter().all(|pe| pe.queue_free() > down.len());
            if sink_ready {
                if let Some(f) = pending.pop_front() {
                    down.push_back((cycle + bcast_latency, f));
                }
            }
            if let Some(&(ready, f)) = down.front() {
                if ready <= cycle {
                    down.pop_front();
                    for pe in pes.iter_mut() {
                        pe.push_act(f, ev);
                    }
                }
            }

            // Datapaths.
            for (pe, busy) in pes.iter_mut().zip(pe_busy.iter_mut()) {
                match pe.step_vu(&p.v, &p.u, ev) {
                    StepOutcome::Busy => {
                        ev.pe_busy_cycles += 1;
                        *busy += 1;
                    }
                    _ => ev.pe_idle_cycles += 1,
                }
            }

            let done = reduce.is_done()
                && pending.is_empty()
                && down.is_empty()
                && pes.iter().all(|pe| pe.v_done() && pe.drained());
            if done {
                break;
            }
        }
        ev.noc.merge(reduce.stats());
        for pe in pes.iter_mut() {
            pe.latch_predictor(ev);
        }
        cycle + self.cfg.pe_pipeline_depth
    }

    /// The W feedforward phase. Returns the cycle count.
    fn w_phase(&mut self) -> u64 {
        let w = self.w;
        let uv_on = self.predicted;
        let pes = &mut self.pes;
        let ev = &mut self.ev;
        let pe_busy = &mut self.pe_busy;
        for pe in pes.iter_mut() {
            pe.rewind_src();
        }
        let mut tree: BroadcastTree<ActFlit> = BroadcastTree::new(&self.cfg.noc);
        let mut cycle: u64 = 0;
        loop {
            cycle += 1;
            assert!(cycle < CYCLE_GUARD, "W phase deadlock");

            // Network interfaces: LNZD scan + inject one activation/cycle.
            for pe in pes.iter_mut() {
                if let Some(f) = pe.peek_src() {
                    if tree.try_inject(pe.id(), f) {
                        pe.advance_src();
                        ev.src_reads += 1;
                    }
                }
            }

            let sink_ready = pes.iter().all(|pe| pe.queue_free() > tree.down_in_flight());
            if let Some(f) = tree.tick(sink_ready) {
                for pe in pes.iter_mut() {
                    pe.push_act(f, ev);
                }
            }

            for (pe, busy) in pes.iter_mut().zip(pe_busy.iter_mut()) {
                match pe.step_w(w, uv_on, cycle, ev) {
                    StepOutcome::Busy => {
                        ev.pe_busy_cycles += 1;
                        *busy += 1;
                    }
                    _ => ev.pe_idle_cycles += 1,
                }
            }

            let done =
                tree.is_idle() && pes.iter().all(|pe| pe.peek_src().is_none() && pe.drained());
            if done {
                break;
            }
        }
        ev.noc.merge(tree.stats());
        cycle + self.cfg.pe_pipeline_depth
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparsenn_linalg::init::seeded_rng;
    use sparsenn_model::{Mlp, PredictedNetwork};

    fn build(seed: u64, dims: &[usize], rank: usize) -> (FixedNetwork, Vec<Q6_10>) {
        let mut rng = seeded_rng(seed);
        let mlp = Mlp::random(dims, &mut rng);
        let net = PredictedNetwork::with_random_predictors(mlp, rank, &mut rng);
        let fixed = FixedNetwork::from_float(&net);
        let x: Vec<f32> = (0..dims[0])
            .map(|i| {
                if i % 3 == 0 {
                    0.0
                } else {
                    ((i as f32) * 0.41).sin().abs()
                }
            })
            .collect();
        let xq = fixed.quantize_input(&x);
        (fixed, xq)
    }

    #[test]
    fn machine_matches_golden_uv_off() {
        let (net, x) = build(1, &[40, 96, 10], 4);
        let machine = Machine::new(MachineConfig::default());
        let run = machine.run_network(&net, &x, UvMode::Off).unwrap();
        let golden = net.forward(&x, UvMode::Off);
        for (l, (run_l, gold_l)) in run.layers.iter().zip(&golden).enumerate() {
            assert_eq!(run_l.output, gold_l.output, "layer {l} mismatch (uv_off)");
        }
    }

    #[test]
    fn machine_matches_golden_uv_on() {
        let (net, x) = build(2, &[40, 96, 72, 10], 4);
        let machine = Machine::new(MachineConfig::default());
        let run = machine.run_network(&net, &x, UvMode::On).unwrap();
        let golden = net.forward(&x, UvMode::On);
        for (l, (run_l, gold_l)) in run.layers.iter().zip(&golden).enumerate() {
            assert_eq!(
                run_l.output, gold_l.output,
                "layer {l} output mismatch (uv_on)"
            );
            assert_eq!(run_l.mask, gold_l.mask, "layer {l} mask mismatch");
        }
    }

    #[test]
    fn uv_off_w_reads_count_nnz_times_rows() {
        let (net, x) = build(3, &[32, 128, 10], 4);
        let machine = Machine::new(MachineConfig::default());
        let run = machine
            .run_layer(&net.layers()[0], None, &x, true, UvMode::Off)
            .unwrap();
        let nnz = x.iter().filter(|v| !v.is_zero()).count() as u64;
        assert_eq!(run.events.w_reads, nnz * 128);
        assert_eq!(run.events.macs, nnz * 128);
        assert_eq!(run.events.src_reads, nnz);
        assert_eq!(run.events.queue_pushes, nnz * 64);
    }

    #[test]
    fn predicted_layer_reads_less_w_memory() {
        let (net, x) = build(4, &[48, 256, 10], 4);
        let machine = Machine::new(MachineConfig::default());
        let off = machine
            .run_layer(
                &net.layers()[0],
                net.predictors().first(),
                &x,
                true,
                UvMode::Off,
            )
            .unwrap();
        let on = machine
            .run_layer(
                &net.layers()[0],
                net.predictors().first(),
                &x,
                true,
                UvMode::On,
            )
            .unwrap();
        // A random predictor predicts ~half inactive, so W traffic drops.
        assert!(
            on.events.w_reads < off.events.w_reads,
            "uv_on w_reads {} should be below uv_off {}",
            on.events.w_reads,
            off.events.w_reads
        );
        // But it pays U/V reads instead.
        assert!(on.events.u_reads > 0 && on.events.v_reads > 0);
        assert_eq!(off.events.u_reads, 0);
    }

    #[test]
    fn zero_input_finishes_immediately_with_zero_output() {
        let (net, _) = build(5, &[32, 64, 10], 4);
        let x = vec![Q6_10::ZERO; 32];
        let machine = Machine::new(MachineConfig::default());
        for mode in [UvMode::Off, UvMode::On] {
            let run = machine.run_network(&net, &x, mode).unwrap();
            assert!(run.output().iter().all(|v| v.is_zero()));
            let golden = net.forward(&x, mode);
            assert_eq!(run.output(), &golden.last().unwrap().output[..]);
            assert!(run.total_cycles() < 100, "near-instant for empty input");
        }
    }

    #[test]
    fn tiny_act_queue_still_exact_just_slower() {
        let (net, x) = build(6, &[40, 128, 10], 4);
        let fast = Machine::new(MachineConfig::default());
        let tiny = Machine::new(MachineConfig {
            act_queue_depth: 4,
            ..MachineConfig::default()
        });
        let a = fast.run_network(&net, &x, UvMode::Off).unwrap();
        let b = tiny.run_network(&net, &x, UvMode::Off).unwrap();
        assert_eq!(
            a.output(),
            b.output(),
            "queue depth must not change results"
        );
        assert!(
            b.total_cycles() >= a.total_cycles(),
            "backpressure can only slow things"
        );
    }

    #[test]
    fn classify_matches_golden() {
        let (net, x) = build(7, &[36, 80, 10], 4);
        let machine = Machine::new(MachineConfig::default());
        let run = machine.run_network(&net, &x, UvMode::On).unwrap();
        assert_eq!(run.classify(), net.classify(&x, UvMode::On));
    }

    #[test]
    fn pe_work_distribution_is_recorded() {
        let (net, x) = build(9, &[48, 256, 10], 4);
        let machine = Machine::new(MachineConfig::default());
        let off = machine
            .run_layer(&net.layers()[0], None, &x, true, UvMode::Off)
            .unwrap();
        assert_eq!(off.pe_busy.len(), 64);
        // uv_off: every PE has 4 rows and does identical work per
        // activation — perfectly balanced.
        assert!(
            (off.work_imbalance() - 1.0).abs() < 0.05,
            "{}",
            off.work_imbalance()
        );
        let on = machine
            .run_layer(
                &net.layers()[0],
                net.predictors().first(),
                &x,
                true,
                UvMode::On,
            )
            .unwrap();
        // uv_on: the random predictor spreads active rows unevenly.
        assert!(on.work_imbalance() > 1.05, "{}", on.work_imbalance());
        // Busy cycles recorded per PE must sum to the global counter.
        let sum: u64 = on.pe_busy.iter().sum();
        assert_eq!(sum, on.events.pe_busy_cycles);
    }

    #[test]
    fn row_availability_is_bounded_and_spread() {
        let (net, x) = build(13, &[48, 256, 10], 4);
        let machine = Machine::new(MachineConfig::default());
        for mode in [UvMode::Off, UvMode::On] {
            let run = machine
                .run_layer(&net.layers()[0], net.predictors().first(), &x, true, mode)
                .unwrap();
            assert_eq!(run.row_ready.len(), 256);
            assert!(run.row_ready.iter().all(|&t| t > 0 && t <= run.cycles));
            assert_eq!(run.last_ready(), *run.row_ready.iter().max().unwrap());
            // Rows finish over a genuine interval, not all at the drain:
            // that early slack is what wavefront pipelining overlaps.
            assert!(
                run.first_ready() < run.last_ready(),
                "{mode:?}: rows must not all complete at once"
            );
            assert!(run.last_ready() <= run.cycles);
            // The histogram is over exactly the layer's rows.
            assert_eq!(run.events.row_ready_hist.iter().sum::<u64>(), 256);
        }
    }

    #[test]
    #[should_panic(expected = "run_w before run_vu")]
    fn stage_order_is_enforced() {
        let (net, x) = build(14, &[32, 64, 10], 4);
        let machine = Machine::new(MachineConfig::default());
        let mut stages = LayerStages::begin(
            machine.config(),
            &net.layers()[0],
            None,
            &x,
            true,
            UvMode::Off,
        )
        .unwrap();
        stages.run_w();
    }

    fn batch_inputs(net: &FixedNetwork, dims0: usize, b: usize) -> Vec<Vec<Q6_10>> {
        (0..b)
            .map(|s| {
                let x: Vec<f32> = (0..dims0)
                    .map(|i| {
                        if (i + s) % 3 == 0 {
                            0.0
                        } else {
                            ((i as f32 + s as f32 * 0.7) * 0.41).sin().abs()
                        }
                    })
                    .collect();
                net.quantize_input(&x)
            })
            .collect()
    }

    #[test]
    fn batched_run_is_bit_identical_to_serial() {
        let (net, _) = build(21, &[40, 96, 72, 10], 4);
        let machine = Machine::new(MachineConfig::default());
        let inputs = batch_inputs(&net, 40, 4);
        for mode in [UvMode::Off, UvMode::On] {
            let batch = machine.run_network_batch(&net, &inputs, mode).unwrap();
            assert_eq!(batch.batch_size(), 4);
            for (s, x) in inputs.iter().enumerate() {
                let serial = machine.run_network(&net, x, mode).unwrap();
                assert_eq!(batch.output(s), serial.output(), "{mode:?} sample {s}");
                assert_eq!(batch.classify(s), serial.classify(), "{mode:?} sample {s}");
                for (l, (bl, sl)) in batch.layers.iter().zip(&serial.layers).enumerate() {
                    assert_eq!(bl.per_sample[s].output, sl.output, "{mode:?} L{l}");
                    assert_eq!(bl.per_sample[s].mask, sl.mask, "{mode:?} L{l}");
                    assert_eq!(bl.per_sample[s].events, sl.events, "{mode:?} L{l}");
                }
            }
            // The amortized book never loses to serial.
            assert!(batch.total_cycles() <= batch.serial_cycles(), "{mode:?}");
            let (serial_reads, batch_reads) = batch.w_read_totals();
            assert!(batch_reads <= serial_reads, "{mode:?}");
            assert!(batch_reads > 0, "{mode:?}");
        }
    }

    #[test]
    fn batch_of_one_degenerates_to_the_serial_run() {
        let (net, x) = build(22, &[40, 96, 10], 4);
        let machine = Machine::new(MachineConfig::default());
        for mode in [UvMode::Off, UvMode::On] {
            let serial = machine.run_network(&net, &x, mode).unwrap();
            let batch = machine
                .run_network_batch(&net, std::slice::from_ref(&x), mode)
                .unwrap();
            assert_eq!(batch.total_cycles(), serial.total_cycles(), "{mode:?}");
            let (serial_reads, batch_reads) = batch.w_read_totals();
            assert_eq!(serial_reads, batch_reads, "{mode:?}: B=1 amortizes nothing");
            for l in &batch.layers {
                assert!(l.batch.amortized, "{mode:?}: the union pass ties serial");
                assert!((l.batch.w_read_amortization() - 1.0).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn overlapping_samples_amortize_w_reads_and_cycles() {
        // Identical inputs: the union pass is exactly one serial pass, so
        // the W book shrinks by the full batch factor.
        let (net, x) = build(23, &[48, 128, 10], 4);
        let machine = Machine::new(MachineConfig::default());
        let inputs = vec![x.clone(); 6];
        let batch = machine
            .run_network_batch(&net, &inputs, UvMode::On)
            .unwrap();
        let (serial_reads, batch_reads) = batch.w_read_totals();
        assert_eq!(serial_reads, 6 * batch_reads);
        assert!(batch.total_cycles() < batch.serial_cycles());
        for l in &batch.layers {
            assert!(l.batch.amortized);
            assert!((l.batch.w_read_amortization() - 6.0).abs() < 1e-12);
        }
        // Per-sample VU work is not amortized: the predictor runs per
        // sample, so the batch clock still carries all six VU phases.
        let vu: u64 = batch.layers.iter().map(|l| l.batch.vu_cycles).sum();
        let serial_vu: u64 = batch
            .layers
            .iter()
            .flat_map(|l| l.per_sample.iter().map(|r| r.vu_cycles))
            .sum();
        assert_eq!(vu, serial_vu);
    }

    #[test]
    fn batch_events_book_sums_samples_with_amortized_w_reads() {
        let (net, _) = build(24, &[36, 80, 10], 4);
        let machine = Machine::new(MachineConfig::default());
        let inputs = batch_inputs(&net, 36, 3);
        let batch = machine
            .run_network_batch(&net, &inputs, UvMode::On)
            .unwrap();
        for l in &batch.layers {
            let mut summed = MachineEvents::default();
            for r in &l.per_sample {
                summed.merge(&r.events);
            }
            let ev = &l.batch.events;
            assert_eq!(ev.macs, summed.macs);
            assert_eq!(ev.src_reads, summed.src_reads);
            assert_eq!(ev.u_reads, summed.u_reads);
            assert_eq!(ev.v_reads, summed.v_reads);
            assert_eq!(ev.dst_writes, summed.dst_writes);
            assert_eq!(ev.w_reads, l.batch.w_reads_amortized);
            assert_eq!(ev.cycles, l.batch.cycles);
        }
    }

    #[test]
    fn empty_batch_is_a_typed_error() {
        let (net, _) = build(25, &[32, 64, 10], 4);
        let machine = Machine::new(MachineConfig::default());
        assert_eq!(
            machine
                .run_network_batch(&net, &[], UvMode::Off)
                .unwrap_err(),
            MachineError::EmptyBatch
        );
    }

    #[test]
    fn network_run_accounting_adds_up() {
        let (net, x) = build(8, &[36, 80, 10], 4);
        let machine = Machine::new(MachineConfig::default());
        let run = machine.run_network(&net, &x, UvMode::On).unwrap();
        let per_layer: u64 = run.layers.iter().map(|l| l.cycles).sum();
        assert_eq!(run.total_cycles(), per_layer);
        for l in &run.layers {
            assert_eq!(l.cycles, l.vu_cycles + l.w_cycles);
        }
        // Classifier layer never runs the predictor phases.
        assert_eq!(run.layers.last().unwrap().vu_cycles, 0);
        assert!(run.layers[0].vu_cycles > 0);
    }
}
