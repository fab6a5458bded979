//! The three execution substrates behind [`InferenceBackend`].

use crate::engine::record::{BatchRunRecord, LayerRecord, RunRecord};
use crate::error::SparseNnError;
use sparsenn_energy::TechNode;
use sparsenn_model::fixedpoint::{FixedNetwork, UvMode};
use sparsenn_numeric::Q6_10;
use sparsenn_sim::simd::SimdPlatform;
use sparsenn_sim::{Machine, MachineConfig, MachineEvents};

/// An execution substrate for quantized SparseNN inference.
///
/// Implementations must be `Send + Sync`: a [`Session`](super::Session)
/// shares one backend across its worker pool.
pub trait InferenceBackend: Send + Sync {
    /// Human-readable substrate name (shows up as
    /// [`Session::backend_name`](super::Session::backend_name)).
    fn name(&self) -> &str;

    /// The machine configuration whose power model applies to this
    /// backend's event counts, when the substrate has one. Batch summaries
    /// estimate power with it; `None` (analytic and timing-free backends)
    /// falls back to the serving system's machine configuration — i.e. the
    /// events are priced as "what the SparseNN machine would consume
    /// executing this activity".
    fn machine_config(&self) -> Option<&MachineConfig> {
        None
    }

    /// The CMOS technology node this backend's silicon is modelled at.
    /// Batch summaries price the backend's events at this node (via
    /// [`PowerModel::at_node`](sparsenn_energy::PowerModel::at_node)), so a
    /// 28 nm platform's energy is not silently billed at the paper's 65 nm.
    fn tech_node(&self) -> TechNode {
        TechNode::n65()
    }

    /// Runs one quantized input through the network.
    ///
    /// All implementations produce bit-exact outputs (the golden
    /// fixed-point arithmetic); they differ in how cycles and events are
    /// modelled.
    ///
    /// # Errors
    ///
    /// [`SparseNnError::EmptyNetwork`] for a zero-layer network,
    /// [`SparseNnError::InputWidthMismatch`] when `input` does not match
    /// the first layer, and backend-specific
    /// [`SparseNnError::LayerDoesNotFit`] when a layer exceeds a substrate
    /// limit.
    fn run(
        &self,
        net: &FixedNetwork,
        input: &[Q6_10],
        mode: UvMode,
    ) -> Result<RunRecord, SparseNnError>;

    /// Runs a batch of quantized inputs in one dispatch.
    ///
    /// The default is a serial loop of [`run`](Self::run) — correct for
    /// every substrate, amortizing nothing. Substrates with a real
    /// batched core (the cycle-accurate machine) override it to share
    /// W-memory reads across the batch; the per-sample records stay
    /// **bit-identical** to serial execution either way (the
    /// [`BatchRunRecord`] contract), so batching is purely a
    /// timing/energy decision.
    ///
    /// # Errors
    ///
    /// [`SparseNnError::EmptyBatch`] for zero inputs, else as
    /// [`run`](Self::run).
    fn run_batch(
        &self,
        net: &FixedNetwork,
        inputs: &[Vec<Q6_10>],
        mode: UvMode,
    ) -> Result<BatchRunRecord, SparseNnError> {
        if inputs.is_empty() {
            return Err(SparseNnError::EmptyBatch);
        }
        let mut records = Vec::with_capacity(inputs.len());
        for input in inputs {
            records.push(self.run(net, input, mode)?);
        }
        Ok(BatchRunRecord::from_serial(records))
    }
}

/// Checks the layer chain is non-empty and consistent with the input, so
/// the golden model's internal asserts are unreachable. Shared with the
/// partitioned backend.
pub(crate) fn validate_shapes(net: &FixedNetwork, input: &[Q6_10]) -> Result<(), SparseNnError> {
    if net.num_layers() == 0 {
        return Err(SparseNnError::EmptyNetwork);
    }
    let mut width = input.len();
    for (l, w) in net.layers().iter().enumerate() {
        if w.cols() != width {
            if l == 0 {
                return Err(SparseNnError::InputWidthMismatch {
                    expected: w.cols(),
                    got: width,
                });
            }
            return Err(SparseNnError::LayerDoesNotFit {
                layer: l,
                reason: format!(
                    "layer expects {} inputs but the previous layer produces {width}",
                    w.cols()
                ),
            });
        }
        width = w.rows();
    }
    Ok(())
}

fn nnz(xs: &[Q6_10]) -> u64 {
    xs.iter().filter(|v| !v.is_zero()).count() as u64
}

/// The cycle-accurate 64-PE machine (the reproduction's RTL stand-in).
///
/// Cycles and events are exact per the micro-architectural model;
/// [`UvMode::Off`] is the EIE baseline.
#[derive(Clone, Debug, Default)]
pub struct CycleAccurateBackend {
    machine: Machine,
}

impl CycleAccurateBackend {
    /// Wraps a configured machine.
    pub fn new(machine: Machine) -> Self {
        Self { machine }
    }

    /// A machine with the paper's Table II configuration.
    pub fn with_config(cfg: MachineConfig) -> Self {
        Self {
            machine: Machine::new(cfg),
        }
    }

    /// The wrapped machine.
    pub fn machine(&self) -> &Machine {
        &self.machine
    }
}

impl InferenceBackend for CycleAccurateBackend {
    fn name(&self) -> &str {
        "cycle-accurate"
    }

    fn machine_config(&self) -> Option<&MachineConfig> {
        Some(self.machine.config())
    }

    fn run(
        &self,
        net: &FixedNetwork,
        input: &[Q6_10],
        mode: UvMode,
    ) -> Result<RunRecord, SparseNnError> {
        let run = self.machine.run_network(net, input, mode)?;
        Ok(RunRecord::from_network_run(run, self.machine.config()))
    }

    /// The true batched core: one W pass per layer serves the whole
    /// batch ([`Machine::run_network_batch`]), so the batch clock and
    /// W-read book amortize while every per-sample record stays
    /// bit-identical to a serial [`run`](InferenceBackend::run).
    fn run_batch(
        &self,
        net: &FixedNetwork,
        inputs: &[Vec<Q6_10>],
        mode: UvMode,
    ) -> Result<BatchRunRecord, SparseNnError> {
        let run = self.machine.run_network_batch(net, inputs, mode)?;
        let cfg = self.machine.config();
        let batch_time_us = run.layers.iter().map(|l| cfg.time_us(l.cycles)).sum();
        let (w_reads_serial, w_reads_amortized) = run.w_read_totals();
        let batch_events = run.total_events();
        let records = run
            .samples
            .into_iter()
            .map(|r| RunRecord::from_network_run(r, cfg))
            .collect();
        Ok(BatchRunRecord {
            records,
            batch_time_us,
            batch_events,
            w_reads_serial,
            w_reads_amortized,
        })
    }
}

/// The timing-free fixed-point golden model.
///
/// Outputs are the reference bits every other backend must match. Cycle
/// counts are zero; events carry *functional* counts (memory words an
/// ideal implementation must read, MACs it must execute), which makes the
/// golden backend a lower-bound workload model as well as a correctness
/// oracle.
#[derive(Clone, Copy, Debug, Default)]
pub struct GoldenBackend;

impl GoldenBackend {
    /// Creates the golden backend.
    pub fn new() -> Self {
        Self
    }
}

impl InferenceBackend for GoldenBackend {
    fn name(&self) -> &str {
        "golden-fixed-point"
    }

    fn run(
        &self,
        net: &FixedNetwork,
        input: &[Q6_10],
        mode: UvMode,
    ) -> Result<RunRecord, SparseNnError> {
        validate_shapes(net, input)?;
        let mut acts = input.to_vec();
        let mut layers = Vec::with_capacity(net.num_layers());
        for l in 0..net.num_layers() {
            let golden = net.forward_layer(l, &acts, mode);
            let m = net.layers()[l].rows() as u64;
            let nnz_in = nnz(&acts);
            let mut ev = MachineEvents::default();
            if let (Some(v_result), Some(mask)) = (&golden.v_result, &golden.mask) {
                let r = v_result.len() as u64;
                // V phase: r rows, zero activations skipped exactly.
                ev.v_reads = r * nnz_in;
                ev.macs += r * nnz_in;
                // U phase: m rows over the nonzero V results.
                let nnz_v = nnz(v_result);
                ev.u_reads = m * nnz_v;
                ev.macs += m * nnz_v;
                ev.pred_writes = mask.len() as u64;
            }
            let active = golden
                .mask
                .as_ref()
                .map_or(m, |mask| mask.iter().filter(|&&b| b).count() as u64);
            ev.w_reads = active * nnz_in;
            ev.macs += active * nnz_in;
            ev.src_reads = nnz_in;
            ev.dst_writes = active;
            layers.push(LayerRecord {
                mask: golden.mask,
                cycles: 0,
                vu_cycles: 0,
                w_cycles: 0,
                time_us: 0.0,
                events: ev,
                output: golden.output.clone(),
            });
            acts = golden.output;
        }
        Ok(RunRecord { layers })
    }
}

/// An analytic SIMD comparison platform of Table IV.
///
/// Outputs come from the golden fixed-point arithmetic (so results stay
/// comparable across substrates); cycles follow the paper's own
/// `work / SIMD width` methodology via [`SimdPlatform::layer_cycles`].
/// With [`UvMode::On`], a platform carrying an output predictor
/// (LRADNN) bypasses the rows the network's own mask marks inactive; with
/// [`UvMode::Off`] the platform is modelled without output prediction.
#[derive(Clone, Copy, Debug)]
pub struct SimdBackend {
    platform: SimdPlatform,
}

impl SimdBackend {
    /// Wraps a platform model.
    pub fn new(platform: SimdPlatform) -> Self {
        Self { platform }
    }

    /// The wrapped platform model.
    pub fn platform(&self) -> &SimdPlatform {
        &self.platform
    }
}

impl InferenceBackend for SimdBackend {
    fn name(&self) -> &str {
        self.platform.name
    }

    fn tech_node(&self) -> TechNode {
        TechNode::new(self.platform.tech_nm)
    }

    fn run(
        &self,
        net: &FixedNetwork,
        input: &[Q6_10],
        mode: UvMode,
    ) -> Result<RunRecord, SparseNnError> {
        validate_shapes(net, input)?;
        let width = self.platform.simd_width as u64;
        let mut acts = input.to_vec();
        let mut layers = Vec::with_capacity(net.num_layers());
        for l in 0..net.num_layers() {
            let golden = net.forward_layer(l, &acts, mode);
            let w = &net.layers()[l];
            let (m, n) = (w.rows(), w.cols());
            let nnz_in = nnz(&acts) as usize;
            // The platform's predictor only covers layers the network
            // predicts (hidden layers in UvMode::On).
            let platform = if golden.mask.is_some() {
                self.platform
            } else {
                SimdPlatform {
                    output_predictor_rank: None,
                    ..self.platform
                }
            };
            let active = golden
                .mask
                .as_ref()
                .map_or(m, |mask| mask.iter().filter(|&&b| b).count());
            let cycles = platform.layer_cycles(m, n, nnz_in, active);
            let vu_cycles = platform
                .output_predictor_rank
                .map_or(0, |r| ((r * (m + n)) as u64).div_ceil(width));
            let n_eff = if platform.skips_input_zeros {
                nnz_in
            } else {
                n
            };
            let m_eff = if platform.output_predictor_rank.is_some() {
                active
            } else {
                m
            };
            let ev = MachineEvents {
                cycles,
                vu_cycles,
                w_cycles: cycles - vu_cycles,
                w_reads: (m_eff * n_eff) as u64,
                macs: (m_eff * n_eff) as u64
                    + platform
                        .output_predictor_rank
                        .map_or(0, |r| (r * (m + n)) as u64),
                src_reads: nnz_in as u64,
                dst_writes: m_eff as u64,
                ..MachineEvents::default()
            };
            layers.push(LayerRecord {
                mask: golden.mask,
                cycles,
                vu_cycles,
                w_cycles: cycles - vu_cycles,
                time_us: self.platform.time_us(cycles),
                events: ev,
                output: golden.output.clone(),
            });
            acts = golden.output;
        }
        Ok(RunRecord { layers })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparsenn_linalg::init::seeded_rng;
    use sparsenn_model::{Mlp, PredictedNetwork};

    fn net_and_input(dims: &[usize], rank: usize) -> (FixedNetwork, Vec<Q6_10>) {
        let mut rng = seeded_rng(11);
        let mlp = Mlp::random(dims, &mut rng);
        let net = PredictedNetwork::with_random_predictors(mlp, rank, &mut rng);
        let fixed = FixedNetwork::from_float(&net);
        let x: Vec<f32> = (0..dims[0])
            .map(|i| {
                if i % 3 == 0 {
                    0.0
                } else {
                    ((i as f32) * 0.31).sin().abs()
                }
            })
            .collect();
        let xq = fixed.quantize_input(&x);
        (fixed, xq)
    }

    #[test]
    fn all_backends_agree_on_outputs_and_masks() {
        let (net, x) = net_and_input(&[36, 72, 48, 10], 4);
        let backends: Vec<Box<dyn InferenceBackend>> = vec![
            Box::new(CycleAccurateBackend::default()),
            Box::new(GoldenBackend::new()),
            Box::new(SimdBackend::new(SimdPlatform::dnn_engine())),
            Box::new(SimdBackend::new(SimdPlatform::lradnn(4))),
            Box::new(crate::engine::KernelBackend::new()),
        ];
        for mode in [UvMode::Off, UvMode::On] {
            let reference = backends[0].run(&net, &x, mode).unwrap();
            for b in &backends[1..] {
                let r = b.run(&net, &x, mode).unwrap();
                for (l, (got, want)) in r.layers.iter().zip(&reference.layers).enumerate() {
                    assert_eq!(got.output, want.output, "{}: layer {l} {mode:?}", b.name());
                    assert_eq!(got.mask, want.mask, "{}: layer {l} mask {mode:?}", b.name());
                }
            }
        }
    }

    fn batch_of(net: &FixedNetwork, dims0: usize, b: usize) -> Vec<Vec<Q6_10>> {
        (0..b)
            .map(|s| {
                let x: Vec<f32> = (0..dims0)
                    .map(|i| {
                        if (i + s) % 4 == 0 {
                            0.0
                        } else {
                            ((i as f32 + s as f32) * 0.31).sin().abs()
                        }
                    })
                    .collect();
                net.quantize_input(&x)
            })
            .collect()
    }

    #[test]
    fn run_batch_is_bit_identical_to_serial_on_every_backend() {
        let (net, _) = net_and_input(&[36, 72, 48, 10], 4);
        let inputs = batch_of(&net, 36, 3);
        let backends: Vec<Box<dyn InferenceBackend>> = vec![
            Box::new(CycleAccurateBackend::default()),
            Box::new(GoldenBackend::new()),
            Box::new(SimdBackend::new(SimdPlatform::dnn_engine())),
            Box::new(crate::engine::KernelBackend::new()),
        ];
        for b in &backends {
            for mode in [UvMode::Off, UvMode::On] {
                let batch = b.run_batch(&net, &inputs, mode).unwrap();
                assert_eq!(batch.batch_size(), 3, "{}", b.name());
                for (s, x) in inputs.iter().enumerate() {
                    let serial = b.run(&net, x, mode).unwrap();
                    assert_eq!(
                        batch.records[s],
                        serial,
                        "{} sample {s} {mode:?}: batching must not change records",
                        b.name()
                    );
                }
                assert!(
                    batch.batch_time_us <= batch.serial_time_us() + 1e-9,
                    "{}: batch never slower than serial",
                    b.name()
                );
                assert!(
                    batch.w_reads_amortized <= batch.w_reads_serial,
                    "{}",
                    b.name()
                );
            }
        }
    }

    /// Batch workers share one machine backend by `&self`: runs made from
    /// several threads at once match a lone machine's runs bit for bit.
    #[test]
    fn shared_machine_matches_a_single_machine_bit_for_bit() {
        let (net, x) = net_and_input(&[36, 72, 48, 10], 4);
        let single = CycleAccurateBackend::default();
        let shared = CycleAccurateBackend::default();
        for mode in [UvMode::Off, UvMode::On] {
            let want = single.run(&net, &x, mode).unwrap();
            std::thread::scope(|s| {
                let runs: Vec<_> = (0..3)
                    .map(|_| s.spawn(|| shared.run(&net, &x, mode).unwrap()))
                    .collect();
                for run in runs {
                    assert_eq!(run.join().unwrap().layers, want.layers, "{mode:?}");
                }
            });
        }
    }

    #[test]
    fn machine_run_batch_amortizes_w_reads() {
        let (net, x) = net_and_input(&[48, 128, 10], 4);
        let b = CycleAccurateBackend::default();
        // Identical samples: the union W pass is one serial pass.
        let inputs = vec![x; 4];
        let batch = b.run_batch(&net, &inputs, UvMode::On).unwrap();
        assert!((batch.w_read_amortization() - 4.0).abs() < 1e-12);
        assert!(batch.batch_time_us < batch.serial_time_us());
        assert!(batch.mean_time_us() < batch.records[0].time_us());
        // The default serial loop (golden) amortizes nothing.
        let golden = GoldenBackend::new()
            .run_batch(&net, &inputs, UvMode::On)
            .unwrap();
        assert!((golden.w_read_amortization() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_batch_is_a_typed_error_on_every_backend() {
        let (net, _) = net_and_input(&[36, 72, 10], 4);
        let backends: Vec<Box<dyn InferenceBackend>> = vec![
            Box::new(CycleAccurateBackend::default()),
            Box::new(GoldenBackend::new()),
        ];
        for b in &backends {
            assert_eq!(
                b.run_batch(&net, &[], UvMode::On).unwrap_err(),
                SparseNnError::EmptyBatch,
                "{}",
                b.name()
            );
        }
    }

    #[test]
    fn width_mismatch_is_an_error_on_every_backend() {
        let (net, _) = net_and_input(&[36, 72, 10], 4);
        let short = vec![Q6_10::ZERO; 12];
        let backends: Vec<Box<dyn InferenceBackend>> = vec![
            Box::new(CycleAccurateBackend::default()),
            Box::new(GoldenBackend::new()),
            Box::new(SimdBackend::new(SimdPlatform::dnn_engine())),
        ];
        for b in &backends {
            assert_eq!(
                b.run(&net, &short, UvMode::On).unwrap_err(),
                SparseNnError::InputWidthMismatch {
                    expected: 36,
                    got: 12
                },
                "{}",
                b.name()
            );
        }
    }

    #[test]
    fn oversized_layer_is_an_error_not_a_panic() {
        let (net, x) = net_and_input(&[40, 4096, 10], 2);
        // 4096×40 fits the register files but the width used here is fine;
        // shrink the machine instead to force the limit.
        let tiny = MachineConfig {
            act_regs_per_pe: 4,
            ..MachineConfig::default()
        };
        let b = CycleAccurateBackend::with_config(tiny);
        match b.run(&net, &x, UvMode::Off) {
            Err(SparseNnError::LayerDoesNotFit { .. }) => {}
            other => panic!("expected LayerDoesNotFit, got {other:?}"),
        }
    }

    #[test]
    fn golden_functional_counts_match_machine_uv_off() {
        let (net, x) = net_and_input(&[32, 128, 10], 4);
        let golden = GoldenBackend::new().run(&net, &x, UvMode::Off).unwrap();
        let machine = CycleAccurateBackend::default()
            .run(&net, &x, UvMode::Off)
            .unwrap();
        // W-memory traffic and MACs are workload properties, identical
        // between the functional and cycle-accurate models.
        assert_eq!(
            golden.layers[0].events.w_reads,
            machine.layers[0].events.w_reads
        );
        assert_eq!(golden.layers[0].events.macs, machine.layers[0].events.macs);
        assert_eq!(golden.total_cycles(), 0, "golden backend is timing-free");
        assert!(machine.total_cycles() > 0);
    }

    #[test]
    fn latency_follows_each_backends_own_clock_model() {
        let (net, x) = net_and_input(&[36, 72, 10], 4);
        let machine = CycleAccurateBackend::default();
        let run = machine.run(&net, &x, UvMode::On).unwrap();
        let want: f64 = run
            .layers
            .iter()
            .map(|l| machine.machine().config().time_us(l.cycles))
            .sum();
        assert!(run.time_us() > 0.0);
        assert!((run.time_us() - want).abs() < 1e-12);

        let golden = GoldenBackend::new().run(&net, &x, UvMode::On).unwrap();
        assert_eq!(golden.time_us(), 0.0, "golden backend is timing-free");

        let engine = SimdBackend::new(SimdPlatform::dnn_engine());
        let run = engine.run(&net, &x, UvMode::On).unwrap();
        let want: f64 = run
            .layers
            .iter()
            .map(|l| engine.platform().time_us(l.cycles))
            .sum();
        assert!(run.time_us() > 0.0);
        assert!((run.time_us() - want).abs() < 1e-12);
    }

    #[test]
    fn backends_report_their_own_technology_node() {
        assert_eq!(CycleAccurateBackend::default().tech_node(), TechNode::n65());
        assert_eq!(GoldenBackend::new().tech_node(), TechNode::n65());
        assert_eq!(
            SimdBackend::new(SimdPlatform::dnn_engine()).tech_node(),
            TechNode::n28()
        );
        assert_eq!(
            SimdBackend::new(SimdPlatform::lradnn(4)).tech_node(),
            TechNode::n65()
        );
    }

    #[test]
    fn simd_platforms_model_their_published_behaviour() {
        let (net, x) = net_and_input(&[64, 256, 10], 4);
        let engine = SimdBackend::new(SimdPlatform::dnn_engine());
        let run = engine.run(&net, &x, UvMode::Off).unwrap();
        // DNN-Engine skips zero inputs: cycles = m·nnz / 8 per layer.
        let nnz0 = x.iter().filter(|v| !v.is_zero()).count();
        assert_eq!(run.layers[0].cycles, ((256 * nnz0) as u64).div_ceil(8));
        // LRADNN pays its predictor but computes fewer rows in UvMode::On.
        let lradnn = SimdBackend::new(SimdPlatform::lradnn(4));
        let on = lradnn.run(&net, &x, UvMode::On).unwrap();
        let off = lradnn.run(&net, &x, UvMode::Off).unwrap();
        assert!(on.layers[0].vu_cycles > 0);
        assert_eq!(off.layers[0].vu_cycles, 0);
    }
}
