//! The native CPU kernel as an execution substrate.

use crate::engine::backends::{validate_shapes, InferenceBackend};
use crate::engine::record::{BatchRunRecord, LayerRecord, RunRecord};
use crate::error::SparseNnError;
use sparsenn_kernel::{KernelRun, Scratch, SparseKernel, Strategy, DEFAULT_BLOCK};
use sparsenn_model::fixedpoint::{FixedNetwork, UvMode};
use sparsenn_numeric::Q6_10;
use sparsenn_sim::MachineEvents;
use std::sync::Mutex;

/// Weights repacked for one network, kept warm across calls.
#[derive(Debug)]
struct CachedKernel {
    /// A handle to the network the pack was built from. Every call checks
    /// the served network against it with `FixedNetwork`'s equality: a
    /// pointer compare when the caller serves the same shared network
    /// (the steady state), a structural compare otherwise — so stale
    /// weights are never served. The handle keeps its allocation alive,
    /// so a pointer match can never be a dropped network's reused
    /// address.
    net: FixedNetwork,
    kernel: SparseKernel,
    scratch: Scratch,
}

/// The native CPU backend: the two-stage prescan + block-skip kernel of
/// [`sparsenn_kernel`], wrapped as an [`InferenceBackend`].
///
/// Unlike every other substrate this one is engineered for **measured**
/// speed — its wall-clock is real, not modelled. Records are therefore
/// timing-free (cycles and `time_us` are 0, like the golden backend's) so
/// batch-vs-serial record bit-identity holds: measure latency around the
/// call with `std::time::Instant`, as the bench plane's `kernel`
/// experiment and `sparsenn_serve::ShardSpec::from_measured` do.
///
/// Events carry block-level functional counts — the 16-bit words the
/// compute stage actually streams (`w_reads` = active rows × live-block
/// words), which is more than the golden model's ideal zero-skipping
/// counts and less than dense.
///
/// Weights are repacked once per network and cached next to a handle to
/// that network. Every call checks the served network against the
/// handle: one pointer compare while the same shared network is served,
/// a full structural compare for any other network (never silently
/// stale). Steady-state serving therefore neither repacks nor re-reads
/// the weights to prove they are unchanged.
#[derive(Debug)]
pub struct KernelBackend {
    name: String,
    state: Mutex<Option<CachedKernel>>,
}

impl Default for KernelBackend {
    fn default() -> Self {
        Self::new()
    }
}

impl KernelBackend {
    /// A kernel backend that packs its panels at the measured default
    /// column-block size ([`DEFAULT_BLOCK`]).
    pub fn new() -> Self {
        Self {
            name: format!("kernel-cpu-b{DEFAULT_BLOCK}"),
            state: Mutex::new(None),
        }
    }

    /// Runs `f` with the cached (or freshly packed) kernel for `net`.
    fn with_kernel<T>(
        &self,
        net: &FixedNetwork,
        f: impl FnOnce(&SparseKernel, &mut Scratch) -> T,
    ) -> T {
        let mut state = self.state.lock().expect("kernel cache poisoned");
        let fresh = match state.as_ref() {
            Some(c) => c.net != *net,
            None => true,
        };
        if fresh {
            let kernel = SparseKernel::pack(net, DEFAULT_BLOCK);
            let scratch = kernel.scratch();
            *state = Some(CachedKernel {
                net: net.clone(),
                kernel,
                scratch,
            });
        }
        let c = state.as_mut().expect("cache just filled");
        f(&c.kernel, &mut c.scratch)
    }

    /// Converts a kernel run into the backend-independent record shape.
    fn to_record(&self, run: KernelRun) -> RunRecord {
        RunRecord {
            layers: run
                .layers
                .into_iter()
                .map(|l| {
                    let st = l.stats;
                    let ev = MachineEvents {
                        w_reads: st.w_words,
                        v_reads: st.v_words,
                        u_reads: st.u_words,
                        macs: st.macs,
                        src_reads: st.nnz_in,
                        dst_writes: st.active_rows,
                        pred_writes: l.mask.as_ref().map_or(0, |m| m.len() as u64),
                        ..MachineEvents::default()
                    };
                    LayerRecord {
                        output: l.output,
                        mask: l.mask,
                        cycles: 0,
                        vu_cycles: 0,
                        w_cycles: 0,
                        time_us: 0.0,
                        events: ev,
                    }
                })
                .collect(),
        }
    }
}

impl InferenceBackend for KernelBackend {
    fn name(&self) -> &str {
        &self.name
    }

    fn run(
        &self,
        net: &FixedNetwork,
        input: &[Q6_10],
        mode: UvMode,
    ) -> Result<RunRecord, SparseNnError> {
        validate_shapes(net, input)?;
        let run = self.with_kernel(net, |k, s| k.run(input, mode, Strategy::Prescan, s));
        Ok(self.to_record(run))
    }

    /// The native batched core: each layer's W panels are streamed once
    /// per batch over the union of the samples' live blocks
    /// ([`SparseKernel::run_batch`]). Per-sample records stay bit-identical
    /// to serial [`run`](InferenceBackend::run)s; the W book amortizes.
    fn run_batch(
        &self,
        net: &FixedNetwork,
        inputs: &[Vec<Q6_10>],
        mode: UvMode,
    ) -> Result<BatchRunRecord, SparseNnError> {
        if inputs.is_empty() {
            return Err(SparseNnError::EmptyBatch);
        }
        for input in inputs {
            validate_shapes(net, input)?;
        }
        let batch = self.with_kernel(net, |k, s| k.run_batch(inputs, mode, Strategy::Prescan, s));
        let (w_serial, w_batch) = (batch.w_words_serial, batch.w_words_batch);
        let records: Vec<RunRecord> = batch.runs.into_iter().map(|r| self.to_record(r)).collect();
        let mut batch_events = MachineEvents::default();
        for r in &records {
            batch_events.merge(&r.total_events());
        }
        batch_events.w_reads = w_batch;
        Ok(BatchRunRecord {
            records,
            batch_time_us: 0.0,
            batch_events,
            w_reads_serial: w_serial,
            w_reads_amortized: w_batch,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::GoldenBackend;
    use sparsenn_linalg::init::seeded_rng;
    use sparsenn_model::fixedpoint::FixedMatrix;
    use sparsenn_model::{Mlp, PredictedNetwork};

    fn seeded_net(dims: &[usize], rank: usize, seed: u64) -> FixedNetwork {
        let mut rng = seeded_rng(seed);
        let mlp = Mlp::random(dims, &mut rng);
        FixedNetwork::from_float(&PredictedNetwork::with_random_predictors(
            mlp, rank, &mut rng,
        ))
    }

    fn net_and_input(dims: &[usize], rank: usize) -> (FixedNetwork, Vec<Q6_10>) {
        let fixed = seeded_net(dims, rank, 11);
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
    fn kernel_backend_is_bit_exact_vs_golden() {
        let (net, x) = net_and_input(&[36, 72, 48, 10], 4);
        let golden = GoldenBackend::new();
        let kb = KernelBackend::new();
        for mode in [UvMode::Off, UvMode::On] {
            let want = golden.run(&net, &x, mode).unwrap();
            let got = kb.run(&net, &x, mode).unwrap();
            for (l, (g, w)) in got.layers.iter().zip(&want.layers).enumerate() {
                assert_eq!(g.output, w.output, "layer {l} {mode:?}");
                assert_eq!(g.mask, w.mask, "layer {l} mask {mode:?}");
            }
        }
    }

    #[test]
    fn records_are_timing_free_and_deterministic() {
        let (net, x) = net_and_input(&[36, 72, 10], 4);
        let kb = KernelBackend::new();
        let a = kb.run(&net, &x, UvMode::On).unwrap();
        let b = kb.run(&net, &x, UvMode::On).unwrap();
        assert_eq!(a, b, "cache reuse never changes records");
        assert_eq!(a.total_cycles(), 0);
        assert_eq!(a.time_us(), 0.0);
        assert_eq!(kb.name(), format!("kernel-cpu-b{DEFAULT_BLOCK}"));
        assert!(a.total_events().w_reads > 0, "events carry real activity");
    }

    /// The weight storage of the network the backend's pack was built
    /// from: it changes exactly when the backend repacks.
    fn cached_weights(kb: &KernelBackend) -> *const FixedMatrix {
        let state = kb.state.lock().unwrap();
        state.as_ref().expect("packed").net.layers().as_ptr()
    }

    #[test]
    fn repack_happens_on_a_different_network_only() {
        let (net_a, x) = net_and_input(&[36, 72, 10], 4);
        let golden = GoldenBackend::new();
        let kb = KernelBackend::new();
        let a1 = kb.run(&net_a, &x, UvMode::On).unwrap();
        // A different shape, then the same shape from another seed: each
        // repacks and serves its own weights, and switching back to
        // `net_a` repacks it and round-trips exactly.
        for other in [
            seeded_net(&[36, 40, 10], 3, 99),
            seeded_net(&[36, 72, 10], 4, 12),
        ] {
            let want = golden.run(&other, &x, UvMode::On).unwrap();
            assert_ne!(want.output(), a1.output(), "distinguishable networks");
            let got = kb.run(&other, &x, UvMode::On).unwrap();
            assert_eq!(cached_weights(&kb), other.layers().as_ptr());
            for (g, w) in got.layers.iter().zip(&want.layers) {
                assert_eq!((&g.output, &g.mask), (&w.output, &w.mask));
            }
            assert_eq!(kb.run(&net_a, &x, UvMode::On).unwrap(), a1);
            assert_eq!(cached_weights(&kb), net_a.layers().as_ptr());
        }
        // An equal network built separately shares no storage: the guard
        // takes the structural path and keeps the pack.
        let rebuilt = seeded_net(&[36, 72, 10], 4, 11);
        assert_ne!(rebuilt.layers().as_ptr(), net_a.layers().as_ptr());
        assert_eq!(kb.run(&rebuilt, &x, UvMode::On).unwrap(), a1);
        assert_eq!(cached_weights(&kb), net_a.layers().as_ptr(), "no repack");
        // A clone shares the storage: the guard is one pointer compare.
        assert_eq!(kb.run(&net_a.clone(), &x, UvMode::On).unwrap(), a1);
        assert_eq!(cached_weights(&kb), net_a.layers().as_ptr());
    }

    #[test]
    fn batch_amortizes_w_words_never_upward() {
        let (net, x) = net_and_input(&[48, 128, 10], 4);
        let kb = KernelBackend::new();
        let inputs = vec![x; 4];
        let batch = kb.run_batch(&net, &inputs, UvMode::On).unwrap();
        // Identical samples: the union pass degenerates to one serial pass.
        assert!((batch.w_read_amortization() - 4.0).abs() < 1e-12);
        assert_eq!(batch.batch_time_us, 0.0, "records stay timing-free");
        assert_eq!(
            batch.batch_events.w_reads, batch.w_reads_amortized,
            "the batch book carries the amortized W count"
        );
    }

    #[test]
    fn kernel_errors_are_typed() {
        let (net, _) = net_and_input(&[36, 72, 10], 4);
        let kb = KernelBackend::new();
        assert_eq!(
            kb.run_batch(&net, &[], UvMode::On).unwrap_err(),
            SparseNnError::EmptyBatch
        );
        let short = vec![Q6_10::ZERO; 12];
        assert_eq!(
            kb.run(&net, &short, UvMode::On).unwrap_err(),
            SparseNnError::InputWidthMismatch {
                expected: 36,
                got: 12
            }
        );
    }
}
