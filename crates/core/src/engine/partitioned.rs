//! Model-parallel execution: one network served by several
//! NoC-connected cycle-accurate chips.

use crate::engine::backends::{validate_shapes, InferenceBackend};
use crate::engine::record::{LayerRecord, RunRecord};
use crate::error::SparseNnError;
use sparsenn_model::fixedpoint::{FixedMatrix, FixedNetwork, FixedPredictor, UvMode};
use sparsenn_numeric::Q6_10;
use sparsenn_obs::{track, AttrKey, Span, SpanKind, TraceSink};
use sparsenn_partition::{
    plan as plan_network, InterChipConfig, PartitionPlan, PipelineMode, SliceTransfer,
};
use sparsenn_sim::{LayerRun, Machine, MachineConfig, MachineEvents};
use std::sync::{Arc, Mutex};

/// Where a traced run's spans go and how they are placed: every span is
/// stamped with `trace_id` (correlating chip work to the request that
/// caused it) and offset by `t0_us` (the request's position on the
/// caller's virtual clock — the machine's own clock starts at 0 per
/// run).
struct TraceCtx<'a> {
    sink: &'a dyn TraceSink,
    trace_id: u64,
    t0_us: f64,
}

impl TraceCtx<'_> {
    fn emit(&self, span: Span) {
        self.sink.record(span);
    }
}

/// Emits one chip's two phase spans for one layer — the vector-unit
/// (predictor) pass, then the W read/MAC pass, back to back on the
/// chip's lane: the same `vu_cycles`/`w_cycles` split the staged machine
/// core reports, with the chip's activity counters as span attributes.
fn emit_chip_spans(
    ctx: &TraceCtx<'_>,
    cfg: &MachineConfig,
    layer: usize,
    chip: usize,
    start_us: f64,
    run: &LayerRun,
) {
    let vu_end_us = start_us + cfg.time_us(run.vu_cycles);
    let end_us = start_us + cfg.time_us(run.cycles);
    let tid = chip as u32 + 1;
    ctx.emit(
        Span::new(
            ctx.trace_id,
            SpanKind::Vu,
            track::MACHINE,
            tid,
            ctx.t0_us + start_us,
            ctx.t0_us + vu_end_us,
        )
        .attr(AttrKey::Layer, layer as u64)
        .attr(AttrKey::Chip, chip as u64)
        .attr(AttrKey::VuCycles, run.vu_cycles),
    );
    ctx.emit(
        Span::new(
            ctx.trace_id,
            SpanKind::W,
            track::MACHINE,
            tid,
            ctx.t0_us + vu_end_us,
            ctx.t0_us + end_us,
        )
        .attr(AttrKey::Layer, layer as u64)
        .attr(AttrKey::WCycles, run.w_cycles)
        .attr(AttrKey::WReads, run.events.w_reads)
        .attr(AttrKey::Macs, run.events.macs),
    );
}

/// One chip's share of one layer: its global row indices, its weight
/// tile, and (for predicted layers) its predictor tile.
struct ChipTile {
    rows: Vec<usize>,
    w: FixedMatrix,
    predictor: Option<FixedPredictor>,
}

/// Tiles cut for a network other than the planned one (same shapes,
/// different weights) — cached so serving a batch re-cuts once, not
/// once per sample. Single entry: alternating between several foreign
/// networks re-cuts on each switch.
struct ForeignTiles {
    net: FixedNetwork,
    tiles: Arc<Vec<Vec<ChipTile>>>,
}

/// Several cycle-accurate chips serving one (possibly oversized) network
/// under a [`PartitionPlan`].
///
/// This is the execution side of [`sparsenn_partition`]: given a
/// [`PartitionPlan`] that tiles each layer's output rows across chips,
/// it runs every tile on an unmodified cycle-accurate [`Machine`],
/// broadcasts the (sparse) input activations to all chips and gathers
/// the per-chip output slices over a chip-level interconnect costed by
/// [`InterChipConfig`]. This is how the serving stack holds networks
/// bigger than one chip's 8 MB W memory.
///
/// **Determinism and bit-exactness.** Row arithmetic is row-local: a
/// chip computing row `r` of a layer performs exactly the operand-level
/// work the single big machine would (same zero-skipping, same
/// full-precision accumulate, same round-to-nearest-even writeback), and
/// a tiled predictor carries the whole V factor, so the quantized `V·a`
/// — and hence every predictor bit — matches too. The gathered outputs
/// and masks are therefore **bit-identical** to a single-chip
/// [`Machine`] run for any network that fits one chip (the oracle the
/// integration tests enforce).
///
/// **Time and energy accounting.** Per layer, under the default
/// [`PipelineMode::Serialized`] schedule:
///
/// * `time_us` is the modelled critical path — the input broadcast, plus
///   the *slowest* chip's tile (chips run in parallel), plus the output
///   gather, each term on its own clock (chip cycles at the machine's
///   clock, transfer cycles at the interconnect's link clock);
/// * `cycles`/`vu_cycles` carry the slowest chip's counts (the latency
///   view), while [`LayerRecord::events`] *sums* every chip's activity
///   and the interconnect's flit-hops (the energy view: all silicon
///   toggles, wherever it is), so batch power estimates price total
///   multi-chip activity.
///
/// **Wavefront pipelining** ([`PipelineMode::Wavefront`]) replaces the
/// serialized stage chain with a virtual-clock wavefront executor: each
/// chip's output slice starts crossing the fabric as its rows become
/// final (the [`LayerRun::row_ready`](sparsenn_sim::LayerRun::row_ready)
/// availability profile from the staged machine core), the root feeds
/// each gathered slice straight into the downward broadcast, and every
/// chip starts layer *l+1* the moment the last slice of layer *l* lands
/// on it — so inter-chip communication overlaps the compute of slower
/// chips instead of serializing behind the whole layer. Pipelining
/// reorders *time only*: outputs, masks and energy/event sums are
/// bit-identical across both modes (the same tile simulations run; only
/// the layer `time_us` differs), wavefront latency is never above
/// serialized latency, and never below the
/// [`InterChipConfig::free`]-link lower bound — the invariants the
/// `prop_pipeline` suite pins down.
///
/// Only nonzero activations cross chips — the interconnect extends the
/// machine's input-sparsity skipping to the fabric, so UV-predicted
/// output sparsity also cuts inter-chip traffic.
///
/// # Example
///
/// ```
/// use sparsenn_core::engine::{InferenceBackend, PartitionedMachine};
/// use sparsenn_core::model::fixedpoint::{FixedNetwork, UvMode};
/// use sparsenn_core::model::Mlp;
/// use sparsenn_core::linalg::init::seeded_rng;
/// use sparsenn_core::partition::InterChipConfig;
/// use sparsenn_core::sim::MachineConfig;
///
/// let net = FixedNetwork::from_mlp(&Mlp::random(&[32, 64, 10], &mut seeded_rng(3)));
/// let chip = MachineConfig::default();
/// let pm = PartitionedMachine::new(&net, chip, 2, InterChipConfig::default()).unwrap();
/// let x = net.quantize_input(&vec![0.25f32; 32]);
/// let record = pm.run(&net, &x, UvMode::Off).unwrap();
/// assert_eq!(record.layers.len(), 2);
/// ```
pub struct PartitionedMachine {
    chip: Machine,
    interchip: InterChipConfig,
    pipeline: PipelineMode,
    plan: PartitionPlan,
    /// A handle to the network the tiles were cut from; `run` uses the
    /// precomputed tiles only when the served network equals it — one
    /// pointer compare for the shared network the backend was built
    /// with, a structural compare for any other.
    planned: FixedNetwork,
    tiles: Vec<Vec<ChipTile>>,
    /// Lazily-cut tiles for a *different* same-shape network being
    /// served through this backend.
    foreign: Mutex<Option<ForeignTiles>>,
    name: String,
}

impl std::fmt::Debug for PartitionedMachine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PartitionedMachine")
            .field("name", &self.name)
            .field("chips", &self.plan.chips())
            .finish_non_exhaustive()
    }
}

impl PartitionedMachine {
    /// Plans `net` over `chips` chips of configuration `chip` and builds
    /// the backend.
    ///
    /// # Errors
    ///
    /// [`SparseNnError::WMemoryOverflow`] when even a best split of some
    /// layer overflows one chip, [`SparseNnError::LayerDoesNotFit`] when
    /// a layer's input width exceeds one chip's register files, and
    /// [`SparseNnError::Partition`] for zero chips.
    pub fn new(
        net: &FixedNetwork,
        chip: MachineConfig,
        chips: usize,
        interchip: InterChipConfig,
    ) -> Result<Self, SparseNnError> {
        Self::with_pipeline(net, chip, chips, interchip, PipelineMode::Serialized)
    }

    /// Like [`new`](Self::new), with an explicit execution schedule —
    /// [`PipelineMode::Wavefront`] overlaps inter-chip communication
    /// with compute (see [`PartitionedMachine`]); outputs, masks and
    /// event sums are bit-identical across modes.
    ///
    /// # Errors
    ///
    /// As for [`new`](Self::new).
    pub fn with_pipeline(
        net: &FixedNetwork,
        chip: MachineConfig,
        chips: usize,
        interchip: InterChipConfig,
        pipeline: PipelineMode,
    ) -> Result<Self, SparseNnError> {
        let plan = plan_network(net, &chip, chips)?;
        Self::from_plan_pipelined(net, chip, plan, interchip, pipeline)
    }

    /// Builds the backend from an existing plan (e.g. one reloaded from
    /// a plan file next to a checkpoint), on the serialized schedule.
    /// The plan is re-validated against the chip configuration and
    /// matched against the network.
    ///
    /// # Errors
    ///
    /// The plan's validation errors (see
    /// [`PartitionPlan::validate`]), or [`SparseNnError::Partition`]
    /// when the plan's layer shapes do not match `net`.
    pub fn from_plan(
        net: &FixedNetwork,
        chip: MachineConfig,
        plan: PartitionPlan,
        interchip: InterChipConfig,
    ) -> Result<Self, SparseNnError> {
        Self::from_plan_pipelined(net, chip, plan, interchip, PipelineMode::Serialized)
    }

    /// [`from_plan`](Self::from_plan) with an explicit execution
    /// schedule.
    ///
    /// # Errors
    ///
    /// As for [`from_plan`](Self::from_plan).
    pub fn from_plan_pipelined(
        net: &FixedNetwork,
        chip: MachineConfig,
        plan: PartitionPlan,
        interchip: InterChipConfig,
        pipeline: PipelineMode,
    ) -> Result<Self, SparseNnError> {
        plan.validate(&chip)?;
        if !plan.matches(net) {
            return Err(SparseNnError::Partition {
                message: "partition plan layer shapes do not match the network".into(),
            });
        }
        let tiles = cut_tiles(net, &plan);
        let name = match pipeline {
            PipelineMode::Serialized => {
                format!("partitioned({} chips x cycle-accurate)", plan.chips())
            }
            PipelineMode::Wavefront => format!(
                "partitioned({} chips x cycle-accurate, wavefront)",
                plan.chips()
            ),
        };
        Ok(Self {
            chip: Machine::new(chip),
            interchip,
            pipeline,
            plan,
            planned: net.clone(),
            tiles,
            foreign: Mutex::new(None),
            name,
        })
    }

    /// The plan this backend executes.
    pub fn plan(&self) -> &PartitionPlan {
        &self.plan
    }

    /// The chip-level interconnect cost model.
    pub fn interchip(&self) -> &InterChipConfig {
        &self.interchip
    }

    /// The execution schedule this backend times layers with.
    pub fn pipeline(&self) -> PipelineMode {
        self.pipeline
    }

    /// Number of chips.
    pub fn chips(&self) -> usize {
        self.plan.chips()
    }

    /// Runs `net` exactly like [`run`](InferenceBackend::run) while
    /// emitting per-layer, per-chip trace spans to `sink`: the input
    /// broadcast, each chip's VU and W passes (with cycle and activity
    /// counters as attributes), and the output gather — placed on the
    /// caller's virtual clock at `t0_us` and correlated to the request
    /// by `trace_id`. With a disabled sink this *is* `run`: no span is
    /// built, and the record is bit-identical either way.
    pub fn run_traced(
        &self,
        net: &FixedNetwork,
        input: &[Q6_10],
        mode: UvMode,
        trace_id: u64,
        t0_us: f64,
        sink: &dyn TraceSink,
    ) -> Result<RunRecord, SparseNnError> {
        if !sink.enabled() {
            return self.run_inner(net, input, mode, None);
        }
        let ctx = TraceCtx {
            sink,
            trace_id,
            t0_us,
        };
        self.run_inner(net, input, mode, Some(&ctx))
    }

    /// Runs the layers of `net` over `tiles`, folding per-chip runs into
    /// per-layer records (summed events; latency per the configured
    /// [`PipelineMode`]). Arithmetic is identical in both modes — the
    /// schedule only decides how the per-chip runs and their transfers
    /// are placed on the virtual clock.
    fn run_tiled(
        &self,
        net: &FixedNetwork,
        tiles: &[Vec<ChipTile>],
        input: &[Q6_10],
        mode: UvMode,
        trace: Option<&TraceCtx<'_>>,
    ) -> Result<Vec<LayerRecord>, SparseNnError> {
        let chips = self.plan.chips();
        let cfg = self.chip.config();
        let icc = &self.interchip;
        let mut acts = input.to_vec();
        let mut layers = Vec::with_capacity(net.num_layers());
        // Serialized-schedule clock for trace placement only: layer
        // stages are chained end to end, so spans sit at the cumulative
        // offset (the timing model itself needs no cursor).
        let mut serial_cursor_us = 0.0f64;
        // Wavefront virtual clock: when each chip finishes its previous
        // tile, when the current layer's input has fully landed on the
        // chips, and the previous layer's gather-complete milestone
        // (per-layer `time_us` is the span between milestones, so the
        // layer times sum to the overlapped end-to-end critical path).
        let mut chip_free_us = vec![0.0f64; chips];
        let mut input_ready_us = 0.0f64;
        let mut prev_end_us = 0.0f64;
        for (l, layer_tiles) in tiles.iter().enumerate() {
            let is_hidden = l + 1 < net.num_layers();
            let rows = net.layers()[l].rows();
            let nnz_in = acts.iter().filter(|v| !v.is_zero()).count();
            let broadcast_cycles = icc.broadcast_cycles(chips, nnz_in);
            let mut flit_hops = icc.broadcast_flit_hops(chips, nnz_in);
            if l == 0 {
                // The host broadcasts the sample input whole before any
                // chip can start — common to both schedules.
                input_ready_us = icc.time_us(broadcast_cycles);
            }

            let predicted = mode == UvMode::On && is_hidden && l < net.predictors().len();
            let mut output = vec![Q6_10::ZERO; rows];
            let mut mask = predicted.then(|| vec![false; rows]);
            let mut events = MachineEvents::default();
            // The whole layer is paced by the slowest chip; the phase
            // breakdown is that chip's own vu/w split (mixing maxima
            // from different chips would describe no chip at all).
            let (mut max_cycles, mut crit_vu) = (0u64, 0u64);
            // Per-chip runs are retained only for the wavefront clock;
            // the serialized schedule needs nothing past the fold above.
            let keep_runs = self.pipeline == PipelineMode::Wavefront;
            let mut runs: Vec<Option<LayerRun>> = Vec::with_capacity(chips);
            // Serialized chip spans start after this layer's broadcast;
            // wavefront spans are placed later, when each chip's actual
            // start is known.
            let serial_start_us = serial_cursor_us + icc.time_us(broadcast_cycles);
            for (c, tile) in layer_tiles.iter().enumerate() {
                if tile.rows.is_empty() {
                    runs.push(None);
                    continue;
                }
                let run = self
                    .chip
                    .try_run_layer(&tile.w, tile.predictor.as_ref(), &acts, is_hidden, mode)
                    .map_err(|e| relabel_layer(e.into(), l))?;
                if let (Some(ctx), PipelineMode::Serialized) = (trace, self.pipeline) {
                    emit_chip_spans(ctx, cfg, l, c, serial_start_us, &run);
                }
                for (local, &global) in tile.rows.iter().enumerate() {
                    output[global] = run.output[local];
                }
                if let (Some(mask), Some(tile_mask)) = (&mut mask, &run.mask) {
                    for (local, &global) in tile.rows.iter().enumerate() {
                        mask[global] = tile_mask[local];
                    }
                }
                if run.cycles > max_cycles {
                    max_cycles = run.cycles;
                    crit_vu = run.vu_cycles;
                }
                events.merge(&run.events);
                runs.push(keep_runs.then_some(run));
            }

            let nnz_out = output.iter().filter(|v| !v.is_zero()).count();
            let gather_cycles = icc.gather_cycles(chips, nnz_out);
            flit_hops += icc.gather_flit_hops(chips, nnz_out);
            events.interchip_flit_hops += flit_hops;

            let time_us = match self.pipeline {
                // Stage chain end-to-end: broadcast, slowest chip,
                // gather — the PR-4 model, untouched.
                PipelineMode::Serialized => {
                    let span =
                        cfg.time_us(max_cycles) + icc.time_us(broadcast_cycles + gather_cycles);
                    if let Some(ctx) = trace {
                        ctx.emit(
                            Span::new(
                                ctx.trace_id,
                                SpanKind::Broadcast,
                                track::MACHINE,
                                track::BROADCAST,
                                ctx.t0_us + serial_cursor_us,
                                ctx.t0_us + serial_start_us,
                            )
                            .attr(AttrKey::Layer, l as u64)
                            .attr(AttrKey::NnzIn, nnz_in as u64),
                        );
                        let compute_end_us = serial_start_us + cfg.time_us(max_cycles);
                        ctx.emit(
                            Span::new(
                                ctx.trace_id,
                                SpanKind::Gather,
                                track::MACHINE,
                                track::GATHER,
                                ctx.t0_us + compute_end_us,
                                ctx.t0_us + compute_end_us + icc.time_us(gather_cycles),
                            )
                            .attr(AttrKey::Layer, l as u64)
                            .attr(AttrKey::NnzOut, nnz_out as u64),
                        );
                    }
                    serial_cursor_us += span;
                    span
                }
                PipelineMode::Wavefront => {
                    // Each chip starts the moment its input landed and
                    // it is free; its slice enters the fabric value by
                    // value as rows become final (the row_ready
                    // profile).
                    if let Some(ctx) = trace {
                        if l == 0 {
                            ctx.emit(
                                Span::new(
                                    ctx.trace_id,
                                    SpanKind::Broadcast,
                                    track::MACHINE,
                                    track::BROADCAST,
                                    ctx.t0_us,
                                    ctx.t0_us + input_ready_us,
                                )
                                .attr(AttrKey::Layer, 0u64)
                                .attr(AttrKey::NnzIn, nnz_in as u64),
                            );
                        }
                    }
                    let mut slices = Vec::with_capacity(chips);
                    for (c, run) in runs.iter().enumerate() {
                        let Some(run) = run else { continue };
                        let start = input_ready_us.max(chip_free_us[c]);
                        if let Some(ctx) = trace {
                            emit_chip_spans(ctx, cfg, l, c, start, run);
                        }
                        chip_free_us[c] = start + cfg.time_us(run.cycles);
                        slices.push(SliceTransfer {
                            ready_us: run
                                .row_ready
                                .iter()
                                .zip(&run.output)
                                .filter(|(_, v)| !v.is_zero())
                                .map(|(&t, _)| start + cfg.time_us(t))
                                .collect(),
                            decided_us: start + cfg.time_us(run.last_ready()),
                        });
                    }
                    let arrivals = icc.gather_schedule(chips, &slices);
                    // Gather complete = this layer's milestone.
                    let end = arrivals.iter().copied().fold(prev_end_us, f64::max);
                    if let Some(ctx) = trace {
                        // The gather lane is busy from the first value
                        // entering the fabric to the last arrival.
                        let first_us = slices
                            .iter()
                            .flat_map(|s| s.ready_us.iter().copied())
                            .fold(end, f64::min);
                        ctx.emit(
                            Span::new(
                                ctx.trace_id,
                                SpanKind::Gather,
                                track::MACHINE,
                                track::GATHER,
                                ctx.t0_us + first_us,
                                ctx.t0_us + end,
                            )
                            .attr(AttrKey::Layer, l as u64)
                            .attr(AttrKey::NnzOut, nnz_out as u64),
                        );
                    }
                    if is_hidden {
                        // The root streams each gathered slice straight
                        // into the downward broadcast; the next layer
                        // starts once the last slice lands.
                        let down: Vec<SliceTransfer> = slices
                            .iter()
                            .zip(&arrivals)
                            .map(|(s, &a)| SliceTransfer::ready_at(a, s.values()))
                            .collect();
                        let lands = icc.broadcast_schedule(chips, &down);
                        input_ready_us = lands.iter().copied().fold(end, f64::max);
                        if let Some(ctx) = trace {
                            // Slices stream downward as they arrive at
                            // the root, so the lane is busy from the
                            // first arrival to the last landing.
                            let first_us = arrivals.iter().copied().fold(input_ready_us, f64::min);
                            ctx.emit(
                                Span::new(
                                    ctx.trace_id,
                                    SpanKind::Broadcast,
                                    track::MACHINE,
                                    track::BROADCAST,
                                    ctx.t0_us + first_us,
                                    ctx.t0_us + input_ready_us,
                                )
                                .attr(AttrKey::Layer, l as u64 + 1)
                                .attr(AttrKey::NnzIn, nnz_out as u64),
                            );
                        }
                    }
                    let span = end - prev_end_us;
                    prev_end_us = end;
                    span
                }
            };
            layers.push(LayerRecord {
                output: output.clone(),
                mask,
                cycles: max_cycles,
                vu_cycles: crit_vu,
                w_cycles: max_cycles - crit_vu,
                time_us,
                events,
            });
            acts = output;
        }
        Ok(layers)
    }
}

/// Re-labels a per-tile error (reported as layer 0 by the stand-alone
/// layer run) with the network-level layer index.
fn relabel_layer(e: SparseNnError, l: usize) -> SparseNnError {
    match e {
        SparseNnError::LayerDoesNotFit { reason, .. } => {
            SparseNnError::LayerDoesNotFit { layer: l, reason }
        }
        SparseNnError::WMemoryOverflow {
            words, capacity, ..
        } => SparseNnError::WMemoryOverflow {
            layer: l,
            words,
            capacity,
        },
        other => other,
    }
}

/// Cuts per-chip weight and predictor tiles for every layer of `net`
/// under `plan` (which must match the network's shapes).
fn cut_tiles(net: &FixedNetwork, plan: &PartitionPlan) -> Vec<Vec<ChipTile>> {
    plan.layers()
        .iter()
        .enumerate()
        .map(|(l, layer)| {
            let w = &net.layers()[l];
            let is_hidden = l + 1 < net.num_layers();
            let predictor = if is_hidden {
                net.predictors().get(l)
            } else {
                None
            };
            layer
                .tiles
                .iter()
                .map(|rows| ChipTile {
                    rows: rows.clone(),
                    w: w.select_rows(rows),
                    predictor: predictor.map(|p| p.select_rows(rows)),
                })
                .collect()
        })
        .collect()
}

impl InferenceBackend for PartitionedMachine {
    fn name(&self) -> &str {
        &self.name
    }

    /// The per-chip machine configuration (every chip is identical).
    /// Batch summaries price events on it; because a partitioned
    /// record's events *sum* all chips' activity plus the interconnect's
    /// flit-hops, the energy estimate covers the whole multi-chip
    /// system.
    fn machine_config(&self) -> Option<&MachineConfig> {
        Some(self.chip.config())
    }

    fn run(
        &self,
        net: &FixedNetwork,
        input: &[Q6_10],
        mode: UvMode,
    ) -> Result<RunRecord, SparseNnError> {
        self.run_inner(net, input, mode, None)
    }
}

impl PartitionedMachine {
    /// The shared body of [`run`](InferenceBackend::run) and
    /// [`run_traced`](Self::run_traced) — tile resolution (planned or
    /// cached foreign cut) plus the tiled executor.
    fn run_inner(
        &self,
        net: &FixedNetwork,
        input: &[Q6_10],
        mode: UvMode,
        trace: Option<&TraceCtx<'_>>,
    ) -> Result<RunRecord, SparseNnError> {
        validate_shapes(net, input)?;
        let layers = if *net == self.planned {
            self.run_tiled(net, &self.tiles, input, mode, trace)?
        } else {
            // A different network than the one planned for: the plan
            // still applies if the shapes agree (capacity depends only
            // on shape), so cut tiles from the network actually being
            // served — never silently compute with stale weights. The
            // cut is cached, so a batch over a foreign network pays it
            // once, not once per sample.
            if !self.plan.matches(net) {
                return Err(SparseNnError::Partition {
                    message: "served network does not match the partition plan's layer shapes"
                        .into(),
                });
            }
            let tiles = {
                let mut cache = self.foreign.lock().unwrap_or_else(|e| e.into_inner());
                match &*cache {
                    Some(f) if f.net == *net => Arc::clone(&f.tiles),
                    _ => {
                        let tiles = Arc::new(cut_tiles(net, &self.plan));
                        *cache = Some(ForeignTiles {
                            net: net.clone(),
                            tiles: Arc::clone(&tiles),
                        });
                        tiles
                    }
                }
            };
            self.run_tiled(net, &tiles, input, mode, trace)?
        };
        Ok(RunRecord { layers })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::backends::CycleAccurateBackend;
    use sparsenn_linalg::init::seeded_rng;
    use sparsenn_model::{Mlp, PredictedNetwork};

    fn net_and_input(dims: &[usize], rank: usize, seed: u64) -> (FixedNetwork, Vec<Q6_10>) {
        let mut rng = seeded_rng(seed);
        let mlp = Mlp::random(dims, &mut rng);
        let net = PredictedNetwork::with_random_predictors(mlp, rank, &mut rng);
        let fixed = FixedNetwork::from_float(&net);
        let x: Vec<f32> = (0..dims[0])
            .map(|i| {
                if i % 3 == 0 {
                    0.0
                } else {
                    ((i as f32) * 0.29).sin().abs()
                }
            })
            .collect();
        let xq = fixed.quantize_input(&x);
        (fixed, xq)
    }

    #[test]
    fn oracle_bit_identical_to_single_chip_machine() {
        let (net, x) = net_and_input(&[36, 96, 48, 10], 4, 11);
        let cfg = MachineConfig::default();
        let single = CycleAccurateBackend::with_config(cfg);
        for chips in [1usize, 2, 4] {
            let pm = PartitionedMachine::new(&net, cfg, chips, InterChipConfig::default())
                .expect("plannable");
            for mode in [UvMode::Off, UvMode::On] {
                let want = single.run(&net, &x, mode).unwrap();
                let got = pm.run(&net, &x, mode).unwrap();
                assert_eq!(got.layers.len(), want.layers.len());
                for (l, (g, w)) in got.layers.iter().zip(&want.layers).enumerate() {
                    assert_eq!(g.output, w.output, "{chips} chips, layer {l}, {mode:?}");
                    assert_eq!(g.mask, w.mask, "{chips} chips, layer {l} mask, {mode:?}");
                }
            }
        }
    }

    #[test]
    fn one_chip_with_free_links_reproduces_the_machine_record_exactly() {
        let (net, x) = net_and_input(&[32, 64, 10], 3, 5);
        let cfg = MachineConfig::default();
        let pm = PartitionedMachine::new(&net, cfg, 1, InterChipConfig::free()).unwrap();
        let single = CycleAccurateBackend::with_config(cfg);
        let a = pm.run(&net, &x, UvMode::On).unwrap();
        let b = single.run(&net, &x, UvMode::On).unwrap();
        // One chip holds every row: same cycles, same time, same events.
        for (g, w) in a.layers.iter().zip(&b.layers) {
            assert_eq!(g.cycles, w.cycles);
            assert_eq!(g.events, w.events);
            assert!((g.time_us - w.time_us).abs() < 1e-12);
        }
    }

    #[test]
    fn oversized_network_runs_on_two_chips_with_comm_in_the_record() {
        // 512×784 needs 6272 words/PE against a 4096-word chip.
        let chip = MachineConfig {
            w_mem_bytes: 8 * 1024,
            ..MachineConfig::default()
        };
        let (net, x) = net_and_input(&[784, 512, 10], 4, 7);
        assert!(matches!(
            CycleAccurateBackend::with_config(chip).run(&net, &x, UvMode::On),
            Err(SparseNnError::WMemoryOverflow { layer: 0, .. })
        ));
        assert!(matches!(
            PartitionedMachine::new(&net, chip, 1, InterChipConfig::default()),
            Err(SparseNnError::WMemoryOverflow { layer: 0, .. })
        ));
        let pm = PartitionedMachine::new(&net, chip, 2, InterChipConfig::default()).unwrap();
        let record = pm.run(&net, &x, UvMode::On).unwrap();
        assert!(record.time_us() > 0.0);
        assert!(record.total_events().interchip_flit_hops > 0);
        // Communication is part of the modelled latency: free links are
        // strictly faster.
        let free = PartitionedMachine::new(&net, chip, 2, InterChipConfig::free()).unwrap();
        let free_record = free.run(&net, &x, UvMode::On).unwrap();
        assert_eq!(
            free_record.output(),
            record.output(),
            "comm never changes bits"
        );
        assert!(free_record.time_us() < record.time_us());
        assert_eq!(free_record.total_events().interchip_flit_hops, 0);
    }

    #[test]
    fn serving_a_different_same_shape_network_uses_its_weights() {
        let (net_a, x) = net_and_input(&[24, 48, 10], 3, 1);
        let (net_b, _) = net_and_input(&[24, 48, 10], 3, 2);
        let cfg = MachineConfig::default();
        let pm = PartitionedMachine::new(&net_a, cfg, 2, InterChipConfig::default()).unwrap();
        let single = CycleAccurateBackend::with_config(cfg);
        let got = pm.run(&net_b, &x, UvMode::Off).unwrap();
        let want = single.run(&net_b, &x, UvMode::Off).unwrap();
        assert_eq!(got.output(), want.output(), "must serve the passed network");
        // Repeat runs hit the foreign-tile cache and stay correct, as
        // does switching back to the planned network and out again.
        assert_eq!(
            pm.run(&net_b, &x, UvMode::Off).unwrap().output(),
            want.output()
        );
        assert_eq!(
            pm.run(&net_a, &x, UvMode::Off).unwrap().output(),
            single.run(&net_a, &x, UvMode::Off).unwrap().output()
        );
        assert_eq!(
            pm.run(&net_b, &x, UvMode::Off).unwrap().output(),
            want.output()
        );
        // A different *shape* is rejected, not mis-served.
        let (net_c, _) = net_and_input(&[24, 32, 10], 3, 3);
        assert!(matches!(
            pm.run(&net_c, &x, UvMode::Off),
            Err(SparseNnError::Partition { .. })
        ));
    }

    #[test]
    fn events_sum_chips_while_cycles_take_the_critical_path() {
        let (net, x) = net_and_input(&[48, 128, 10], 4, 9);
        let cfg = MachineConfig::default();
        let single = CycleAccurateBackend::with_config(cfg)
            .run(&net, &x, UvMode::Off)
            .unwrap();
        let pm = PartitionedMachine::new(&net, cfg, 4, InterChipConfig::default()).unwrap();
        let got = pm.run(&net, &x, UvMode::Off).unwrap();
        // Workload counters are conserved: the same MACs and W reads
        // happen, just spread over chips.
        assert_eq!(
            got.total_events().w_reads,
            single.total_events().w_reads,
            "row tiling conserves W traffic"
        );
        assert_eq!(got.total_events().macs, single.total_events().macs);
        // Each chip computes a quarter of the rows over the same input:
        // its W phase is shorter than the big machine's.
        assert!(got.layers[0].cycles <= single.layers[0].cycles);
    }

    #[test]
    fn wavefront_reorders_time_never_arithmetic() {
        // 512×784 overflows the shrunken chip: a genuine multi-chip
        // serve, where gather/broadcast are worth overlapping.
        let chip = MachineConfig {
            w_mem_bytes: 8 * 1024,
            ..MachineConfig::default()
        };
        let (net, x) = net_and_input(&[784, 512, 10], 4, 17);
        for chips in [2usize, 4] {
            let serialized =
                PartitionedMachine::new(&net, chip, chips, InterChipConfig::default()).unwrap();
            let wavefront = PartitionedMachine::with_pipeline(
                &net,
                chip,
                chips,
                InterChipConfig::default(),
                PipelineMode::Wavefront,
            )
            .unwrap();
            for mode in [UvMode::Off, UvMode::On] {
                let a = serialized.run(&net, &x, mode).unwrap();
                let b = wavefront.run(&net, &x, mode).unwrap();
                for (l, (s, w)) in a.layers.iter().zip(&b.layers).enumerate() {
                    assert_eq!(s.output, w.output, "{chips} chips layer {l} {mode:?}");
                    assert_eq!(s.mask, w.mask, "{chips} chips layer {l} mask");
                    assert_eq!(s.events, w.events, "{chips} chips layer {l} events");
                    assert_eq!(s.cycles, w.cycles, "{chips} chips layer {l} cycles");
                }
                // Pipelining hides comm latency; it cannot create time.
                assert!(
                    b.time_us() < a.time_us(),
                    "{chips} chips {mode:?}: wavefront {} vs serialized {}",
                    b.time_us(),
                    a.time_us()
                );
                // …and never dips below the free-link lower bound.
                let free = PartitionedMachine::with_pipeline(
                    &net,
                    chip,
                    chips,
                    InterChipConfig::free(),
                    PipelineMode::Wavefront,
                )
                .unwrap()
                .run(&net, &x, mode)
                .unwrap();
                assert!(b.time_us() >= free.time_us() - 1e-9);
            }
        }
    }

    #[test]
    fn wavefront_backend_is_named_and_introspectable() {
        let (net, _) = net_and_input(&[24, 48, 10], 3, 8);
        let cfg = MachineConfig::default();
        let wf = PartitionedMachine::with_pipeline(
            &net,
            cfg,
            2,
            InterChipConfig::default(),
            PipelineMode::Wavefront,
        )
        .unwrap();
        assert_eq!(wf.pipeline(), PipelineMode::Wavefront);
        assert_eq!(
            wf.name(),
            "partitioned(2 chips x cycle-accurate, wavefront)"
        );
        let serialized = PartitionedMachine::new(&net, cfg, 2, InterChipConfig::default()).unwrap();
        assert_eq!(serialized.pipeline(), PipelineMode::Serialized);
        assert_eq!(serialized.name(), "partitioned(2 chips x cycle-accurate)");
    }

    #[test]
    fn plan_accessors_expose_the_partition() {
        let (net, _) = net_and_input(&[16, 64, 10], 2, 4);
        let pm = PartitionedMachine::new(
            &net,
            MachineConfig::default(),
            4,
            InterChipConfig::default(),
        )
        .unwrap();
        assert_eq!(pm.chips(), 4);
        assert_eq!(pm.plan().layers().len(), 2);
        assert_eq!(pm.interchip().radix, 2);
        assert!(pm.name().starts_with("partitioned(4 chips"));
        assert!(pm.machine_config().is_some());
    }

    /// Tracing is an observer: the traced record is bit-identical to
    /// the untraced one in both schedules, the recorded spans cover
    /// broadcast/VU/W/gather on every layer, carry the caller's trace
    /// id and offset, stay inside the record's total time, and repeat
    /// byte-for-byte across runs.
    #[test]
    fn traced_run_matches_untraced_and_emits_chip_spans() {
        use sparsenn_obs::{NullSink, RingRecorder, SpanKind};
        let (net, x) = net_and_input(&[24, 48, 10], 3, 8);
        for pipeline in [PipelineMode::Serialized, PipelineMode::Wavefront] {
            let pm = PartitionedMachine::with_pipeline(
                &net,
                MachineConfig::default(),
                2,
                InterChipConfig::default(),
                pipeline,
            )
            .unwrap();
            let plain = pm.run(&net, &x, UvMode::On).unwrap();
            let rec = RingRecorder::new(4096);
            let t0 = 125.0;
            let traced = pm.run_traced(&net, &x, UvMode::On, 42, t0, &rec).unwrap();
            assert_eq!(
                plain, traced,
                "{pipeline:?}: tracing must not perturb the run"
            );
            let null = pm
                .run_traced(&net, &x, UvMode::On, 42, t0, &NullSink)
                .unwrap();
            assert_eq!(plain, null, "{pipeline:?}: disabled sink is exactly run()");

            let spans = rec.spans();
            assert!(!spans.is_empty());
            let total_us: f64 = traced.layers.iter().map(|l| l.time_us).sum();
            for s in &spans {
                assert_eq!(s.trace_id, 42);
                assert!(s.start_us >= t0 - 1e-9, "{pipeline:?}: span before t0");
                assert!(
                    s.end_us <= t0 + total_us + 1e-6,
                    "{pipeline:?}: span past the record's total time"
                );
            }
            for kind in [
                SpanKind::Broadcast,
                SpanKind::Vu,
                SpanKind::W,
                SpanKind::Gather,
            ] {
                assert!(
                    spans.iter().any(|s| s.kind == kind),
                    "{pipeline:?}: missing {kind:?} span"
                );
            }
            // Every layer shows up in the W spans of some chip.
            for l in 0..net.num_layers() as u64 {
                assert!(spans.iter().any(|s| {
                    s.kind == SpanKind::W
                        && s.attrs.iter().any(|(k, v)| {
                            k == AttrKey::Layer && v == sparsenn_obs::AttrValue::U64(l)
                        })
                }));
            }
            // Determinism: a second traced run records identical spans.
            let rec2 = RingRecorder::new(4096);
            pm.run_traced(&net, &x, UvMode::On, 42, t0, &rec2).unwrap();
            assert_eq!(spans, rec2.spans());
        }
    }
}
