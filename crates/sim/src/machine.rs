//! The whole-machine simulator: 64 PEs + H-tree, phase sequencing.

use crate::config::MachineConfig;
use crate::events::MachineEvents;
use crate::pe::{ActQueues, BlockPass, Image, Pe, PeSource};
use sparsenn_model::fixedpoint::{FixedMatrix, FixedNetwork, FixedPredictor, UvMode};
use sparsenn_noc::{ActFlit, BroadcastTree, NocStats, ReduceTree};
use sparsenn_numeric::{Accumulator, Q6_10};

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
/// The batched core keeps **two books** ([`BatchNetworkRun`]). The exact
/// book is the per-sample [`NetworkRun`]s (bit-identical to serial runs by
/// construction — they *are* serial runs). This struct is one layer of the
/// amortized book: what the layer pass costs when the machine keeps each W
/// row resident while B lanes consume it, so every W-memory word is fetched
/// once per *batch* instead of once per *sample*. Predictor (V/U) work
/// stays per-sample — each sample's verdict is its own — but the W phase
/// runs once over the **union** of the batch's nonzero-input pattern and
/// predicted-active rows.
#[derive(Clone, Debug)]
pub struct BatchTiming {
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

/// Result of simulating a whole network over a batch of inputs.
#[derive(Clone, Debug)]
pub struct BatchNetworkRun {
    /// The exact book: each sample's run, bit-identical to running it
    /// alone.
    pub samples: Vec<NetworkRun>,
    /// The amortized book, per layer, input side first.
    pub layers: Vec<BatchTiming>,
}

impl BatchNetworkRun {
    /// Batch clock: summed per-layer amortized cycles.
    pub fn total_cycles(&self) -> u64 {
        self.layers.iter().map(|l| l.cycles).sum()
    }

    /// What the B samples would cost run back to back (the serial
    /// baseline the amortization is measured against).
    pub fn serial_cycles(&self) -> u64 {
        self.samples.iter().map(NetworkRun::total_cycles).sum()
    }

    /// Merged amortized activity counters.
    pub fn total_events(&self) -> MachineEvents {
        let mut ev = MachineEvents::default();
        for l in &self.layers {
            ev.merge(&l.events);
        }
        ev
    }

    /// Total W reads of the serial baseline / the amortized batch.
    pub fn w_read_totals(&self) -> (u64, u64) {
        self.layers.iter().fold((0, 0), |(s, a), l| {
            (s + l.w_reads_serial, a + l.w_reads_amortized)
        })
    }
}

impl MachineError {
    /// Re-labels the error of a stand-alone layer run (reported as layer
    /// 0) with the layer's position `l` in the network chain. Past layer 0
    /// a width mismatch is a malformed layer chain, not a bad caller input
    /// — reported as such (and identically to the functional backends).
    pub fn at_layer(self, l: usize) -> MachineError {
        match self {
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
    /// This is [`run_tiles`](Self::run_tiles) with the one tile
    /// `0..w.rows()`.
    ///
    /// # Errors
    ///
    /// [`MachineError::LayerDoesNotFit`] if the machine cannot run, the
    /// layer exceeds one of its limits or a predictor in use is not shaped
    /// to the layer (U of `w.rows()` rows, V of `w.cols()` columns, U's
    /// columns matching V's rows), [`MachineError::WMemoryOverflow`] if
    /// the weights exceed the W memory, and
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
        let all: Vec<usize> = (0..w.rows()).collect();
        let mut runs = self.run_tiles(w, predictor, input, is_hidden, mode, &[all])?;
        Ok(runs.pop().expect("one run per tile"))
    }

    /// Simulates one layer on as many identical chips as there are
    /// `tiles`, each holding the rows its tile names: position `i` of a
    /// tile computes output row `tile[i]`, so local row `k` of PE `p`
    /// reads W and U row `tile[p + k · num_pes]`. The weights are read
    /// from `w` and `predictor` in place.
    ///
    /// Every chip receives the whole input. The V reduction depends only
    /// on it, V and the machine, so it is simulated once for all tiles,
    /// and each tile replays its results into its own activation queues
    /// for the U phase; every run still books the V work (MACs, V reads
    /// and the reduce tree's books) as its chip did it. Each returned
    /// [`LayerRun`], indexed by tile position, equals a
    /// [`run_layer`](Self::run_layer) on a matrix holding only the tile's
    /// rows of `w` and of the predictor's U.
    ///
    /// # Errors
    ///
    /// As for [`run_layer`](Self::run_layer), judged on the largest tile,
    /// and [`MachineError::LayerDoesNotFit`] for a tile row `≥ w.rows()`.
    pub fn run_tiles<T: AsRef<[usize]>>(
        &self,
        w: &FixedMatrix,
        predictor: Option<&FixedPredictor>,
        input: &[Q6_10],
        is_hidden: bool,
        mode: UvMode,
        tiles: &[T],
    ) -> Result<Vec<LayerRun>, MachineError> {
        let predictor = predictor.filter(|_| mode == UvMode::On && is_hidden);
        self.simulate(w, predictor, None, input, is_hidden, tiles)
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
                .map_err(|e| e.at_layer(l))?;
            acts = run.output.clone();
            layers.push(run);
        }
        Ok(NetworkRun { layers })
    }

    /// Simulates the whole network over a batch of inputs with the
    /// weight-stationary batched core: B samples per layer pass, reading
    /// each W row once per *batch*.
    ///
    /// Each sample's run ([`BatchNetworkRun::samples`]) is produced by the
    /// exact serial core, so batched execution is bit-identical to
    /// per-request execution by construction; the amortized clock/energy
    /// book rides alongside in [`BatchNetworkRun::layers`]. See
    /// [`BatchTiming`] for the model.
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
        let mut samples: Vec<NetworkRun> = inputs
            .iter()
            .map(|_| NetworkRun {
                layers: Vec::with_capacity(net.num_layers()),
            })
            .collect();
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
            for (sample, input) in samples.iter_mut().zip(inputs) {
                let x = sample.layers.last().map_or(input, |prev| &prev.output);
                let run = self
                    .run_layer(w, predictor, x, is_hidden, mode)
                    .map_err(|e| e.at_layer(l))?;
                sample.layers.push(run);
            }
            layers.push(self.batch_timing(w, inputs, &samples, l, is_hidden)?);
        }
        Ok(BatchNetworkRun { samples, layers })
    }

    /// The amortized book of layer `l`, which every sample has run: a
    /// single W pass over the union nonzero-input pattern, gated by the
    /// union predictor verdict, with serial fallback when the union pass
    /// would lose.
    fn batch_timing(
        &self,
        w: &FixedMatrix,
        inputs: &[Vec<Q6_10>],
        samples: &[NetworkRun],
        l: usize,
        is_hidden: bool,
    ) -> Result<BatchTiming, MachineError> {
        let runs = || samples.iter().map(|s| &s.layers[l]);
        // Union pseudo-input: position j carries the first nonzero value
        // any sample supplies there, so the union pass broadcasts exactly
        // the batch's union nonzero pattern (values are irrelevant to
        // timing; only the pattern drives the clock).
        let mut union_input = vec![Q6_10::ZERO; w.cols()];
        for (input, sample) in inputs.iter().zip(samples) {
            let x = if l == 0 {
                input
            } else {
                &sample.layers[l - 1].output
            };
            for (u, &v) in union_input.iter_mut().zip(x) {
                if u.is_zero() && !v.is_zero() {
                    *u = v;
                }
            }
        }
        // Union predictor verdict: a W row is fetched if any sample
        // computes it.
        let union_mask: Option<Vec<bool>> = samples[0].layers[l].mask.as_ref().map(|m0| {
            let mut mask = vec![false; m0.len()];
            for run in runs() {
                let m = run.mask.as_ref().expect("mode is uniform across a batch");
                for (u, &b) in mask.iter_mut().zip(m) {
                    *u |= b;
                }
            }
            mask
        });
        let all: Vec<usize> = (0..w.rows()).collect();
        let union_run = self
            .simulate(
                w,
                None,
                union_mask.as_deref(),
                &union_input,
                is_hidden,
                &[all],
            )
            .map_err(|e| e.at_layer(l))?
            .pop()
            .expect("one run per tile");

        let vu_cycles: u64 = runs().map(|r| r.vu_cycles).sum();
        let serial_w_cycles: u64 = runs().map(|r| r.w_cycles).sum();
        let serial_w_reads: u64 = runs().map(|r| r.events.w_reads).sum();
        let amortized =
            union_run.w_cycles <= serial_w_cycles && union_run.events.w_reads <= serial_w_reads;
        let (w_cycles, w_reads) = if amortized {
            (union_run.w_cycles, union_run.events.w_reads)
        } else {
            (serial_w_cycles, serial_w_reads)
        };
        let mut events = MachineEvents::default();
        for run in runs() {
            events.merge(&run.events);
        }
        events.w_reads = w_reads;
        events.vu_cycles = vu_cycles;
        events.w_cycles = w_cycles;
        events.cycles = vu_cycles + w_cycles;
        Ok(BatchTiming {
            cycles: vu_cycles + w_cycles,
            vu_cycles,
            w_cycles,
            events,
            w_reads_serial: serial_w_reads,
            w_reads_amortized: w_reads,
            amortized,
        })
    }

    /// Simulates one layer on one chip per tile (see
    /// [`run_tiles`](Self::run_tiles)) through the schedule of §V.D.
    ///
    /// With a `predictor`, the V reduction runs once for every tile and
    /// each tile then runs its U phase, which latches the predictor
    /// verdict. A `forced` verdict (`forced[i]`: tile position `i`
    /// computes) stands in for the V/U phases at zero predictor cost: the
    /// batched core drives its union pass with it. With neither, every
    /// row computes. Each tile then runs its W phase, stamping every row's
    /// last MAC cycle, and quantizes its accumulators into its
    /// [`LayerRun`], including the per-row availability profile
    /// ([`LayerRun::row_ready`]) the wavefront multi-chip executor
    /// schedules transfers from.
    ///
    /// # Errors
    ///
    /// As for [`run_tiles`](Self::run_tiles).
    fn simulate<T: AsRef<[usize]>>(
        &self,
        w: &FixedMatrix,
        predictor: Option<&FixedPredictor>,
        forced: Option<&[bool]>,
        input: &[Q6_10],
        is_hidden: bool,
        tiles: &[T],
    ) -> Result<Vec<LayerRun>, MachineError> {
        let cfg = &self.cfg;
        let does_not_fit = |reason: String| MachineError::LayerDoesNotFit { layer: 0, reason };
        let largest = tiles.iter().map(|t| t.as_ref().len()).max().unwrap_or(0);
        cfg.validate_layer(largest, w.cols())?;
        if let Some(row) = tiles
            .iter()
            .flat_map(|t| t.as_ref())
            .find(|&&row| row >= w.rows())
        {
            return Err(does_not_fit(format!(
                "tile row {row} is past the layer's {} rows",
                w.rows()
            )));
        }
        if input.len() != w.cols() {
            return Err(MachineError::InputWidthMismatch {
                expected: w.cols(),
                got: input.len(),
            });
        }
        if let Some(FixedPredictor { u, v }) = predictor {
            if v.cols() != w.cols() || u.rows() != w.rows() || u.cols() != v.rows() {
                return Err(does_not_fit(format!(
                    "the predictor's U is {}×{} and V {}×{}, but the {}×{} layer needs \
                     U of {} rows, V of {} columns and U's columns equal to V's rows",
                    u.rows(),
                    u.cols(),
                    v.rows(),
                    v.cols(),
                    w.rows(),
                    w.cols(),
                    w.rows(),
                    w.cols()
                )));
            }
        }
        // Per PE: its nonzero inputs, the same on every chip.
        let n_pes = cfg.num_pes();
        let mut sources: Vec<PeSource> = (0..n_pes)
            .map(|id| PeSource::new(id, n_pes, input))
            .collect();
        let reduction = predictor.map(|p| (&p.u, reduce_v(cfg, &p.v, &mut sources)));
        let image = Image::new(input);
        let predicted = predictor.is_some() || forced.is_some();
        let runs = tiles.iter().map(|tile| {
            let tile = tile.as_ref();
            let mut chip = Tile {
                rows: tile.len(),
                pes: (0..n_pes).map(|id| Pe::new(id, n_pes, tile)).collect(),
                ev: MachineEvents::default(),
                pe_busy: vec![0u64; n_pes],
                vu_cycles: 0,
                w_cycles: 0,
            };
            match (&reduction, forced) {
                (Some((u, v)), _) => chip.vu_cycles = chip.u_phase(cfg, u, v),
                (None, Some(mask)) => chip.pes.iter_mut().for_each(|pe| pe.set_predictor(mask)),
                (None, None) => chip.pes.iter_mut().for_each(Pe::force_all_active),
            }
            chip.w_cycles = chip.w_phase(cfg, w, &image, &sources, predicted);
            chip.writeback(cfg.pe_pipeline_depth, is_hidden, predicted)
        });
        Ok(runs.collect())
    }
}

/// One chip's share of a layer: its PEs' rows of the tile and its books.
struct Tile {
    rows: usize,
    pes: Vec<Pe>,
    ev: MachineEvents,
    pe_busy: Vec<u64>,
    vu_cycles: u64,
    w_cycles: u64,
}

/// The V phase's reduction, which depends only on the layer input, V and
/// the machine, not on a tile: every chip's PEs compute the same partial
/// sums and the reduce tree merges them on the same cycles.
struct VReduction {
    /// The quantized V results, one per predictor row, as the U phase's
    /// MACs read them. Zero results are never broadcast (the U phase skips
    /// them exactly).
    results: Image,
    /// The cycle on which the root finished each nonzero result, in the
    /// order it finished them.
    finished: Vec<u64>,
    /// Per PE: the first cycle of its U phase.
    u_start: Vec<u64>,
    /// Per PE: its datapath's V MACs.
    v_macs: Vec<u64>,
    /// The cycle on which the last partial sum left the root (at least 1).
    settled: u64,
    /// The V work every chip books: MACs, V reads and the reduce tree's
    /// books, less its cycles, which run to each chip's own phase end.
    ev: MachineEvents,
}

/// The V phase's partial sums and their reduction through the H-tree.
/// Returns the root's results with the cycle each finished.
///
/// The clock advances by events: a cycle is simulated only when a partial
/// sum is ready to leave a PE or the reduce tree holds a flit; the cycles
/// between are skipped in one step.
fn reduce_v(cfg: &MachineConfig, v: &FixedMatrix, sources: &mut [PeSource]) -> VReduction {
    let n = sources.len();
    let mut ev = MachineEvents::default();
    let participants: Vec<bool> = sources.iter().map(PeSource::participates).collect();
    let mut reduce = ReduceTree::new(&cfg.noc, v.rows(), &participants);
    let mut v_macs = vec![0u64; n];
    // The PEs by the cycle their next partial sum is ready to leave: a
    // PE's partials are at most its nonzero count plus one cycles apart.
    let span = sources.iter().map(|s| s.src().len()).max().unwrap_or(0) + 2;
    let mut due = DueRing::new(n, span);
    for (id, source) in sources.iter_mut().enumerate() {
        let before = ev.macs;
        if let Some(ready) = source.begin_v(v, &mut ev) {
            due.push(ready, id);
        }
        v_macs[id] = ev.macs - before;
    }
    let mut v_left = sources.iter().filter(|s| !s.v_done()).count();
    let mut inject: Vec<usize> = Vec::new();
    let (mut results, mut finished) = (vec![Q6_10::ZERO; v.rows()], Vec::new());
    let mut cycle: u64 = 0;
    loop {
        cycle += 1;
        assert!(cycle < CYCLE_GUARD, "V phase deadlock");

        // Network interfaces push finished partials into the reduce
        // tree; a refused one tries again next cycle.
        due.take(cycle, &mut inject);
        for &id in &inject {
            let source = &mut sources[id];
            let (row, val) = source.pending_v_emit().expect("a due PE holds a partial");
            if !reduce.try_inject(id, row, val) {
                due.push(cycle + 1, id);
                continue;
            }
            match source.v_injected(cycle) {
                Some(ready) => due.push(ready, id),
                None => v_left -= 1,
            }
        }

        // Root finishes at most one row per cycle.
        if let Some((row, total)) = reduce.tick() {
            let q: Q6_10 = Accumulator::from_raw(total).to_fixed();
            if !q.is_zero() {
                results[row as usize] = q;
                finished.push(cycle);
            }
        }
        if v_left == 0 && reduce.is_done() {
            break;
        }
        // With the reduce tree empty, nothing happens before the next
        // partial leaves.
        if reduce.is_empty() {
            if let Some(next) = due.first_after(cycle) {
                if next > cycle + 1 {
                    reduce.skip_empty(next - 1 - cycle);
                    cycle = next - 1;
                }
            }
        }
    }
    ev.noc = NocStats {
        cycles: 0,
        ..*reduce.stats()
    };
    VReduction {
        results: Image::new(&results),
        finished,
        u_start: sources
            .iter()
            .map(|s| s.u_start().expect("every PE starts its U phase"))
            .collect(),
        v_macs,
        settled: cycle,
        ev,
    }
}

/// PEs by the cycle on which they are due, in a ring of one bucket per
/// cycle: every due cycle lies less than the ring's span ahead. A bucket
/// is a list threaded through `next`, since a PE is due on one cycle at a
/// time; the PEs of one cycle inject in any order, each into its own leaf
/// port.
struct DueRing {
    /// Per bucket: its first PE.
    first: Vec<usize>,
    /// Per PE: the next PE of its bucket.
    next: Vec<usize>,
    due: usize,
}

/// The end of a bucket's list.
const NIL: usize = usize::MAX;

impl DueRing {
    /// A ring for `pes` PEs due less than `span` cycles ahead.
    fn new(pes: usize, span: usize) -> Self {
        Self {
            first: vec![NIL; span.next_power_of_two()],
            next: vec![NIL; pes],
            due: 0,
        }
    }

    fn bucket(&self, cycle: u64) -> usize {
        cycle as usize & (self.first.len() - 1)
    }

    /// PE `id` is due on `cycle`.
    fn push(&mut self, cycle: u64, id: usize) {
        let b = self.bucket(cycle);
        self.next[id] = std::mem::replace(&mut self.first[b], id);
        self.due += 1;
    }

    /// Moves the PEs due on `cycle` into `into`, replacing its contents.
    fn take(&mut self, cycle: u64, into: &mut Vec<usize>) {
        into.clear();
        let b = self.bucket(cycle);
        let mut id = std::mem::replace(&mut self.first[b], NIL);
        while id != NIL {
            into.push(id);
            id = self.next[id];
        }
        self.due -= into.len();
    }

    /// The first cycle after `cycle` on which some PE is due.
    fn first_after(&self, cycle: u64) -> Option<u64> {
        (self.due > 0).then(|| {
            (cycle + 1..)
                .find(|&c| self.first[self.bucket(c)] != NIL)
                .expect("a due PE is in the ring")
        })
    }
}

impl Tile {
    /// The tile's U phase: the V results enter the broadcast pipeline in
    /// root order, one per cycle and only while every activation queue
    /// has room — the sink gate, which binds on each tile's own rows per
    /// PE — and each PE consumes them from its U-phase start. Books the
    /// shared V work, and returns the V/U phase's cycle count: the later
    /// of the reduction settling and the PEs draining.
    fn u_phase(&mut self, cfg: &MachineConfig, u: &FixedMatrix, v: &VReduction) -> u64 {
        let hold: Vec<u64> = self
            .pes
            .iter()
            .map(|pe| pe.rows().len().max(1) as u64)
            .collect();
        let mut queues = ActQueues::new(cfg.act_queue_depth, &hold, &v.u_start);
        let latency = cfg.noc.broadcast_latency();
        let mut last_emit = 0;
        for &finished in &v.finished {
            let at = finished.max(last_emit + 1).max(queues.opens_at());
            queues.emit(at, at + latency);
            last_emit = at;
        }
        let cycle = v.settled.max(last_emit).max(queues.drain_end());
        self.ev.merge(&v.ev);
        self.ev.noc.cycles += cycle;
        let mut pass = BlockPass::default();
        let mut busy = v.v_macs.clone();
        for (pe, b) in self.pes.iter_mut().zip(&mut busy) {
            *b += pe.accumulate_u(u, &v.results, &mut pass, &mut self.ev);
            pe.latch_predictor(&mut self.ev);
        }
        let pushes = (self.pes.len() * v.finished.len()) as u64;
        self.ev.queue_pushes += pushes;
        self.ev.queue_pops += pushes;
        self.credit_datapaths(&busy, cycle);
        cycle + cfg.pe_pipeline_depth
    }

    /// The tile's W feedforward phase. Returns the cycle count.
    ///
    /// The clock advances by events: the broadcast tree ticks while a flit
    /// is moving, and the cycles in which it is frozen — every flit landed,
    /// the root held by the sink gate, no PE able to inject — are skipped
    /// up to the PE pop that opens the gate, as are the PEs' drain cycles.
    fn w_phase(
        &mut self,
        cfg: &MachineConfig,
        w: &FixedMatrix,
        x: &Image,
        sources: &[PeSource],
        predicted: bool,
    ) -> u64 {
        let pes = &mut self.pes;
        let ev = &mut self.ev;
        let n = pes.len();
        let mut tree = BroadcastTree::new(&cfg.noc);
        let hold: Vec<u64> = pes
            .iter()
            .map(|pe| pe.w_macs_per_flit().max(1) as u64)
            .collect();
        let mut queues = ActQueues::new(cfg.act_queue_depth, &hold, &vec![1; n]);
        // Network interfaces with an activation to inject and a credit to
        // inject it with; those that ran out of credit wait for the tree
        // to return one.
        let mut ready: Vec<usize> = (0..n).filter(|&id| sources[id].participates()).collect();
        let mut src_left = ready.len();
        // Per PE: its next source activation.
        let mut next_src = vec![0usize; n];
        let mut next_ready: Vec<usize> = Vec::new();
        let mut blocked = vec![false; n];
        let mut cycle: u64 = 0;
        loop {
            cycle += 1;
            assert!(cycle < CYCLE_GUARD, "W phase deadlock");

            // Network interfaces: LNZD scan + inject one activation/cycle.
            for &id in &ready {
                let src = sources[id].src();
                let (index, value) = src[next_src[id]];
                let injected = tree.try_inject(
                    id,
                    ActFlit {
                        index,
                        value: value.raw(),
                    },
                );
                debug_assert!(injected, "a ready PE holds a credit");
                next_src[id] += 1;
                ev.src_reads += 1;
                if next_src[id] == src.len() {
                    src_left -= 1;
                } else if tree.can_inject(id) {
                    next_ready.push(id);
                } else {
                    blocked[id] = true;
                }
            }

            // The queues count a flit from the moment the root emits it.
            if let Some((arrives, _)) = tree.tick(queues.min_free(cycle) > 0) {
                queues.emit(cycle, arrives);
            }
            for &id in tree.credits_returned() {
                if std::mem::take(&mut blocked[id]) {
                    next_ready.push(id);
                }
            }
            ready.clear();
            std::mem::swap(&mut ready, &mut next_ready);

            // Every emitted flit has arrived by the time the PEs drain.
            if src_left == 0 && cycle >= queues.drain_end() && tree.is_empty() {
                break;
            }
            if ready.is_empty() && tree.is_quiet() {
                // Only a PE pop can change anything now: the pop that opens
                // the sink gate for the flit waiting at the root, or the
                // last one's drain.
                let next = if tree.is_empty() {
                    queues.drain_end()
                } else {
                    queues.opens_at()
                };
                if next > cycle + 1 {
                    tree.skip_quiet(next - 1 - cycle);
                    cycle = next - 1;
                }
            }
        }
        ev.noc.merge(tree.stats());
        let mut pass = BlockPass::default();
        let mut busy = vec![0u64; n];
        for (id, (pe, b)) in pes.iter_mut().zip(&mut busy).enumerate() {
            if let Some(last_pop) = queues.last_pop_of(id) {
                *b = pe.accumulate_w(w, x, &mut pass, last_pop, ev);
            }
        }
        let pushes = (n * queues.emitted()) as u64;
        ev.queue_pushes += pushes;
        ev.queue_pops += pushes;
        if predicted {
            ev.pred_scans += pushes;
        }
        self.credit_datapaths(&busy, cycle);
        cycle + cfg.pe_pipeline_depth
    }

    /// Books one phase's datapath cycles: each PE was busy for `busy[pe]`
    /// of the phase's `cycles` and idle for the rest.
    fn credit_datapaths(&mut self, busy: &[u64], cycles: u64) {
        let mut total = 0;
        for (acc, &b) in self.pe_busy.iter_mut().zip(busy) {
            *acc += b;
            total += b;
        }
        self.ev.pe_busy_cycles += total;
        self.ev.pe_idle_cycles += busy.len() as u64 * cycles - total;
    }

    /// Quantizes the tile's accumulators into its [`LayerRun`].
    fn writeback(mut self, pipe: u64, is_hidden: bool, predicted: bool) -> LayerRun {
        let (vu_cycles, w_cycles) = (self.vu_cycles, self.w_cycles);
        let total = vu_cycles + w_cycles;
        let rows = self.rows;
        let mut output = vec![Q6_10::ZERO; rows];
        let mut row_ready = vec![0u64; rows];
        for pe in &self.pes {
            for (row, val, last_mac) in pe.writeback(is_hidden, &mut self.ev) {
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
        // Bucket `⌊8t / total⌋`, at most 7: the count of eighths of the
        // layer that `t` has reached, without a division per row.
        let eighths: [u64; 7] = std::array::from_fn(|k| (k as u64 + 1) * total.max(1));
        for &t in &row_ready {
            let bucket = eighths
                .iter()
                .filter(|&&e| t.saturating_mul(8) >= e)
                .count();
            self.ev.row_ready_hist[bucket] += 1;
        }
        let mask = predicted.then(|| {
            let mut mask = vec![false; rows];
            for pe in &self.pes {
                for (row, bit) in pe.rows().zip(pe.predictor_bits()) {
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

    /// The predictor of a `[dims[0], hidden, 10]` network.
    fn predictor(seed: u64, inputs: usize, hidden: usize, rank: usize) -> FixedPredictor {
        build(seed, &[inputs, hidden, 10], rank).0.predictors()[0].clone()
    }

    fn assert_does_not_fit(result: Result<LayerRun, MachineError>, reason: &str) {
        match result {
            Err(MachineError::LayerDoesNotFit {
                layer: 0,
                reason: r,
            }) => {
                assert!(r.contains(reason), "{r}")
            }
            other => panic!("expected LayerDoesNotFit, got {other:?}"),
        }
    }

    #[test]
    fn predictor_v_narrower_than_the_layer_is_a_typed_error() {
        let (net, x) = build(31, &[96, 64, 10], 4);
        let narrow = predictor(31, 10, 64, 4);
        let machine = Machine::new(MachineConfig::default());
        let w = &net.layers()[0];
        assert_does_not_fit(
            machine.run_layer(w, Some(&narrow), &x, true, UvMode::On),
            "U is 64×4 and V 4×10",
        );
        // An unused predictor is never judged.
        assert!(machine
            .run_layer(w, Some(&narrow), &x, true, UvMode::Off)
            .is_ok());
    }

    #[test]
    fn predictor_u_shorter_than_the_layer_is_a_typed_error() {
        let (net, x) = build(32, &[96, 64, 10], 4);
        let short = predictor(32, 96, 32, 4);
        let machine = Machine::new(MachineConfig::default());
        assert_does_not_fit(
            machine.run_layer(&net.layers()[0], Some(&short), &x, true, UvMode::On),
            "U is 32×4 and V 4×96",
        );
    }

    #[test]
    fn predictor_rank_mismatch_is_a_typed_error() {
        let (net, x) = build(33, &[96, 64, 10], 4);
        let mixed = FixedPredictor {
            u: predictor(33, 96, 64, 3).u,
            v: net.predictors()[0].v.clone(),
        };
        let machine = Machine::new(MachineConfig::default());
        assert_does_not_fit(
            machine.run_layer(&net.layers()[0], Some(&mixed), &x, true, UvMode::On),
            "U is 64×3 and V 4×96",
        );
    }

    #[test]
    fn tile_row_past_the_layer_is_a_typed_error() {
        let (net, x) = build(34, &[96, 64, 10], 4);
        let machine = Machine::new(MachineConfig::default());
        let tiles = [vec![0, 1, 2], vec![3, 64]];
        let result = machine.run_tiles(
            &net.layers()[0],
            net.predictors().first(),
            &x,
            true,
            UvMode::On,
            &tiles,
        );
        assert_does_not_fit(result.map(|mut runs| runs.remove(0)), "tile row 64");
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
            assert_eq!(batch.samples.len(), 4);
            for (s, x) in inputs.iter().enumerate() {
                let serial = machine.run_network(&net, x, mode).unwrap();
                let own = &batch.samples[s];
                assert_eq!(own.output(), serial.output(), "{mode:?} sample {s}");
                assert_eq!(own.classify(), serial.classify(), "{mode:?} sample {s}");
                for (l, (bl, sl)) in own.layers.iter().zip(&serial.layers).enumerate() {
                    assert_eq!(bl.output, sl.output, "{mode:?} L{l}");
                    assert_eq!(bl.mask, sl.mask, "{mode:?} L{l}");
                    assert_eq!(bl.events, sl.events, "{mode:?} L{l}");
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
                assert!(l.amortized, "{mode:?}: the union pass ties serial");
                assert!((l.w_read_amortization() - 1.0).abs() < 1e-12);
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
            assert!(l.amortized);
            assert!((l.w_read_amortization() - 6.0).abs() < 1e-12);
        }
        // Per-sample VU work is not amortized: the predictor runs per
        // sample, so the batch clock still carries all six VU phases.
        let vu: u64 = batch.layers.iter().map(|l| l.vu_cycles).sum();
        let serial_vu: u64 = batch
            .samples
            .iter()
            .flat_map(|s| s.layers.iter().map(|r| r.vu_cycles))
            .sum();
        assert_eq!(vu, serial_vu);
    }

    #[test]
    fn disjoint_samples_fall_back_to_serial_w_reads() {
        // A 2-2-2 network whose rank-1 predictor (V = [1, −1], U = [1; −1])
        // activates only row 0 for input (0.5, 0) and only row 1 for
        // (0, 0.5). Each sample reads one W word; the union pass would read
        // both inputs' columns of both rows, 4 words, so the layer is not
        // batched.
        use sparsenn_linalg::Matrix;
        use sparsenn_model::{DenseLayer, Predictor};
        let w = || DenseLayer::new(Matrix::from_rows(&[vec![1.0, 0.5], vec![0.5, 1.0]]));
        let mlp = Mlp::new(vec![w(), w()]);
        let uv = Predictor::new(
            Matrix::from_rows(&[vec![1.0], vec![-1.0]]),
            Matrix::from_rows(&[vec![1.0, -1.0]]),
        );
        let net = FixedNetwork::from_float(&PredictedNetwork::new(mlp, vec![uv]));
        let inputs = [[0.5, 0.0], [0.0, 0.5]]
            .map(|x| net.quantize_input(&x))
            .to_vec();
        let machine = Machine::new(MachineConfig::default());
        let batch = machine
            .run_network_batch(&net, &inputs, UvMode::On)
            .unwrap();
        let l0 = &batch.layers[0];
        assert!(!l0.amortized, "the union pass loses");
        assert_eq!((l0.w_reads_serial, l0.w_reads_amortized), (2, 2));
    }

    #[test]
    fn batch_events_book_sums_samples_with_amortized_w_reads() {
        let (net, _) = build(24, &[36, 80, 10], 4);
        let machine = Machine::new(MachineConfig::default());
        let inputs = batch_inputs(&net, 36, 3);
        let batch = machine
            .run_network_batch(&net, &inputs, UvMode::On)
            .unwrap();
        for (l, timing) in batch.layers.iter().enumerate() {
            let mut summed = MachineEvents::default();
            for s in &batch.samples {
                summed.merge(&s.layers[l].events);
            }
            let ev = &timing.events;
            assert_eq!(ev.macs, summed.macs);
            assert_eq!(ev.src_reads, summed.src_reads);
            assert_eq!(ev.u_reads, summed.u_reads);
            assert_eq!(ev.v_reads, summed.v_reads);
            assert_eq!(ev.dst_writes, summed.dst_writes);
            assert_eq!(ev.w_reads, timing.w_reads_amortized);
            assert_eq!(ev.cycles, timing.cycles);
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
    fn macs_are_exact_at_the_rails() {
        // A 37-column layer (four full 8-word blocks and a 5-word tail) of
        // i16::MIN, i16::MAX and alternating weights. The `pairs` input
        // leaves blocks 1 and 3 dead and holds i16::MAX in blocks 0 and 2,
        // so an all-MIN row sums 2 · (−2¹⁵ · (2¹⁵ − 1)) = −(2³¹ − 2¹⁶) per
        // word pair in each live block: no two such pairs fit one i32.
        // `rails` adds i16::MIN activations, `small` is live everywhere.
        use sparsenn_linalg::Matrix;
        const MIN: f32 = -32.0;
        const MAX: f32 = 32_767.0 / 1024.0;
        let (rows, cols) = (150, 37);
        let w = FixedMatrix::from_float(&Matrix::from_fn(rows, cols, |i, j| match i % 3 {
            0 => MIN,
            1 if j % 2 == 0 => MIN,
            _ => MAX,
        }));
        let predictor = FixedPredictor {
            u: FixedMatrix::from_float(&Matrix::from_fn(rows, 2, |i, t| {
                [[MAX, 0.0], [0.0, MAX], [MIN, MIN], [MIN, MAX]][i % 4][t]
            })),
            v: FixedMatrix::from_float(&Matrix::from_fn(2, cols, |t, _| [MAX, MIN][t])),
        };
        let raw = |f: &dyn Fn(usize) -> i16| -> Vec<Q6_10> {
            (0..cols).map(|j| Q6_10::from_raw(f(j))).collect()
        };
        let tail = [3, 0, -2, 0, 1];
        let pairs = raw(&|j| match j / 8 {
            0 | 2 => i16::MAX,
            4 => tail[j - 32],
            _ => 0,
        });
        let rails = raw(&|j| match j {
            16 | 17 | 35 => i16::MIN,
            _ if j / 8 == 1 => 0,
            _ => [i16::MAX, i16::MIN, 0, 7][j % 4],
        });
        let small = raw(&|j| (j as i16 % 7 - 3) * 5);
        let machine = Machine::new(MachineConfig::default());
        for (name, x) in [("pairs", &pairs), ("rails", &rails), ("small", &small)] {
            let off = machine.run_layer(&w, None, x, false, UvMode::Off).unwrap();
            let on = machine
                .run_layer(&w, Some(&predictor), x, true, UvMode::On)
                .unwrap();
            let mask = predictor.predict(x);
            assert!(mask.contains(&true) && mask.contains(&false), "{name}");
            assert_eq!(on.mask.as_ref(), Some(&mask), "{name}");
            for (i, &active) in mask.iter().enumerate() {
                let exact: Q6_10 = w.row_dot(i, x).to_fixed();
                assert_eq!(off.output[i], exact, "{name}: uv_off row {i}");
                let gated = if active { exact.relu() } else { Q6_10::ZERO };
                assert_eq!(on.output[i], gated, "{name}: uv_on row {i}");
            }
        }
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
