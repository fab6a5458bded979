//! Model-parallel execution: one network served by several
//! NoC-connected cycle-accurate chips.

use crate::engine::backends::{validate_shapes, InferenceBackend};
use crate::engine::record::{LayerRecord, RunRecord};
use crate::error::SparseNnError;
use sparsenn_model::fixedpoint::{FixedNetwork, UvMode};
use sparsenn_numeric::Q6_10;
use sparsenn_obs::{track, AttrKey, Span, SpanKind, TraceSink};
use sparsenn_partition::{
    plan as plan_network, InterChipConfig, PartitionPlan, PipelineMode, SliceTransfer,
};
use sparsenn_sim::{LayerRun, Machine, MachineConfig, MachineEvents};

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

/// Several cycle-accurate chips serving one (possibly oversized) network
/// under a [`PartitionPlan`].
///
/// This is the execution side of [`sparsenn_partition`]: construction
/// plans the network once ([`sparsenn_partition::plan`]), and the plan's
/// tiles — one sorted list of output rows per chip and layer — are all
/// the machine keeps besides a handle to the network. A tile is a row
/// list into the shared [`FixedNetwork`], never a copy of its weights. A
/// run simulates each layer's tiles together on the cycle-accurate
/// [`Machine`] ([`Machine::run_tiles`]), broadcasts the (sparse) input
/// activations to all chips and gathers the per-chip output slices over
/// a chip-level interconnect costed by [`InterChipConfig`]. This is how
/// the serving stack holds networks bigger than one chip's 8 MB W
/// memory. The machine is bound to the network it was planned for: a
/// run with any other network returns [`SparseNnError::Partition`].
///
/// **Determinism and bit-exactness.** Row arithmetic is row-local: a
/// chip computing row `r` of a layer performs exactly the operand-level
/// work the single big machine would (same zero-skipping, same
/// full-precision accumulate, same round-to-nearest-even writeback), and
/// every chip computes the full `V·a` from the broadcast input, so the
/// quantized V result — and hence every predictor bit — matches too.
/// The gathered outputs and masks are therefore **bit-identical** to a
/// single-chip [`Machine`] run for any network that fits one chip (the
/// oracle the integration tests enforce).
///
/// **One V reduction per layer.** The V phase depends only on the layer
/// input, V and the chip configuration, so the chips' identical V
/// reductions are simulated once per layer and each chip replays the
/// results into its own activation queues for its U phase. Every chip
/// still books the whole V work (V MACs and reads, the reduce tree's
/// books and its own phase length), so each chip's record is the one it
/// would have alone.
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
    /// A handle to the network the plan tiles, the only one `run`
    /// serves: one pointer compare for the shared network the backend
    /// was built with, a structural compare for any other.
    planned: FixedNetwork,
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
    /// the backend, which then serves `net` only (see
    /// [`run`](InferenceBackend::run)).
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
        let name = match pipeline {
            PipelineMode::Serialized => format!("partitioned({chips} chips x cycle-accurate)"),
            PipelineMode::Wavefront => {
                format!("partitioned({chips} chips x cycle-accurate, wavefront)")
            }
        };
        Ok(Self {
            chip: Machine::new(chip),
            interchip,
            pipeline,
            plan,
            planned: net.clone(),
            name,
        })
    }

    /// The plan this backend executes.
    pub fn plan(&self) -> &PartitionPlan {
        &self.plan
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

    /// The shared body of [`run`](InferenceBackend::run) and
    /// [`run_traced`](Self::run_traced): runs the planned network's
    /// tiles, folding per-chip runs into per-layer records (summed
    /// events; latency per the configured [`PipelineMode`]). Arithmetic
    /// is identical in both modes — the schedule only decides how the
    /// per-chip runs and their transfers are placed on the virtual
    /// clock.
    fn run_inner(
        &self,
        net: &FixedNetwork,
        input: &[Q6_10],
        mode: UvMode,
        trace: Option<&TraceCtx<'_>>,
    ) -> Result<RunRecord, SparseNnError> {
        if *net != self.planned {
            return Err(SparseNnError::Partition {
                message: "the machine serves only the network it was planned for".into(),
            });
        }
        validate_shapes(net, input)?;
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
        for (l, layer_plan) in self.plan.layers().iter().enumerate() {
            let is_hidden = l + 1 < net.num_layers();
            let w = &net.layers()[l];
            let rows = w.rows();
            let nnz_in = acts.iter().filter(|v| !v.is_zero()).count();
            let broadcast_cycles = icc.broadcast_cycles(chips, nnz_in);
            let mut flit_hops = icc.broadcast_flit_hops(chips, nnz_in);
            if l == 0 {
                // The host broadcasts the sample input whole before any
                // chip can start — common to both schedules.
                input_ready_us = icc.time_us(broadcast_cycles);
            }

            let predictor = if is_hidden {
                net.predictors().get(l)
            } else {
                None
            };
            let predicted = mode == UvMode::On && predictor.is_some();
            // A chip with an empty tile idles through the layer.
            let (live, tiles): (Vec<usize>, Vec<&[usize]>) = layer_plan
                .tiles
                .iter()
                .enumerate()
                .filter(|(_, tile)| !tile.is_empty())
                .map(|(c, tile)| (c, tile.as_slice()))
                .unzip();
            let runs = self
                .chip
                .run_tiles(w, predictor, &acts, is_hidden, mode, &tiles)
                .map_err(|e| e.at_layer(l))?;
            let mut output = vec![Q6_10::ZERO; rows];
            let mut mask = predicted.then(|| vec![false; rows]);
            let mut events = MachineEvents::default();
            // The whole layer is paced by the slowest chip; the phase
            // breakdown is that chip's own vu/w split (mixing maxima
            // from different chips would describe no chip at all).
            let (mut max_cycles, mut crit_vu) = (0u64, 0u64);
            // Serialized chip spans start after this layer's broadcast;
            // wavefront spans are placed later, when each chip's actual
            // start is known.
            let serial_start_us = serial_cursor_us + icc.time_us(broadcast_cycles);
            for ((&c, tile), run) in live.iter().zip(&tiles).zip(&runs) {
                if let (Some(ctx), PipelineMode::Serialized) = (trace, self.pipeline) {
                    emit_chip_spans(ctx, cfg, l, c, serial_start_us, run);
                }
                for (local, &global) in tile.iter().enumerate() {
                    output[global] = run.output[local];
                }
                if let (Some(mask), Some(tile_mask)) = (&mut mask, &run.mask) {
                    for (local, &global) in tile.iter().enumerate() {
                        mask[global] = tile_mask[local];
                    }
                }
                if run.cycles > max_cycles {
                    max_cycles = run.cycles;
                    crit_vu = run.vu_cycles;
                }
                events.merge(&run.events);
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
                    for (&c, run) in live.iter().zip(&runs) {
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
        Ok(RunRecord { layers })
    }
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

    /// Runs `net`, which must equal the network this machine was
    /// planned for; any other network is a [`SparseNnError::Partition`].
    fn run(
        &self,
        net: &FixedNetwork,
        input: &[Q6_10],
        mode: UvMode,
    ) -> Result<RunRecord, SparseNnError> {
        self.run_inner(net, input, mode, None)
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
    fn serves_only_the_network_it_was_planned_for() {
        let (net, x) = net_and_input(&[24, 48, 10], 3, 1);
        let cfg = MachineConfig::default();
        let pm = PartitionedMachine::new(&net, cfg, 2, InterChipConfig::default()).unwrap();
        // Same shape, other weights: refused, never re-cut.
        let (other_seed, _) = net_and_input(&[24, 48, 10], 3, 2);
        // Other shape: refused too.
        let (other_shape, _) = net_and_input(&[24, 32, 10], 3, 3);
        for other in [&other_seed, &other_shape] {
            for mode in [UvMode::Off, UvMode::On] {
                assert!(matches!(
                    pm.run(other, &x, mode),
                    Err(SparseNnError::Partition { .. })
                ));
            }
        }
        // A clone shares the planned network; an equal rebuild is a
        // separate allocation with the same weights. Both serve the
        // single machine's bits.
        let (rebuilt, _) = net_and_input(&[24, 48, 10], 3, 1);
        let single = CycleAccurateBackend::with_config(cfg);
        for served in [net.clone(), rebuilt] {
            for mode in [UvMode::Off, UvMode::On] {
                let got = pm.run(&served, &x, mode).unwrap();
                let want = single.run(&net, &x, mode).unwrap();
                assert_eq!(got.layers.len(), want.layers.len());
                for (g, w) in got.layers.iter().zip(&want.layers) {
                    assert_eq!(g.output, w.output, "{mode:?}");
                    assert_eq!(g.mask, w.mask, "{mode:?}");
                }
            }
        }
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
        assert_eq!(
            wf.name(),
            "partitioned(2 chips x cycle-accurate, wavefront)"
        );
        let serialized = PartitionedMachine::new(&net, cfg, 2, InterChipConfig::default()).unwrap();
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
        assert_eq!(pm.plan().chips(), 4);
        assert_eq!(pm.plan().layers().len(), 2);
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
