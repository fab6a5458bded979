//! The `batch_dense` path: batches of 8 consecutive test images through
//! `InferenceBackend::run_batch` on a `KernelBackend` in `UvMode::On`.
//!
//! Traced, each batch is followed by the raw `SparseKernel::run_batch` on
//! the same inputs and by the 8 single-sample `SparseKernel::run`s, which
//! give the batch's per-sample kernel cost and its gain over serial runs.

use crate::check::{Golden, Tally};
use crate::metrics::Metrics;
use crate::serve::Rounds;
use crate::stats::{fastest_per_input, median, secs, Budget, Calls};
use crate::trace::{Overhead, Tracer};
use sparsenn_core::engine::{InferenceBackend, KernelBackend};
use sparsenn_core::model::fixedpoint::UvMode;
use sparsenn_core::numeric::Q6_10;
use sparsenn_core::TrainedSystem;
use sparsenn_kernel::{SparseKernel, Strategy, DEFAULT_BLOCK};
use std::hint::black_box;
use std::time::Instant;

/// Samples per batch.
pub const BATCH: usize = 8;

/// Backend construction and the first call.
pub fn setup(sys: &TrainedSystem) -> Result<KernelBackend, String> {
    let backend = KernelBackend::new();
    let net = sys.fixed();
    let test = &sys.split().test;
    let first: Vec<Vec<Q6_10>> = (0..BATCH)
        .map(|i| net.quantize_input(test.image(i % test.len())))
        .collect();
    backend
        .run_batch(net, &first, UvMode::On)
        .map_err(|e| format!("batch_dense first call: {e}"))?;
    Ok(backend)
}

/// What one batch probe measured.
pub struct Batch {
    pub calls: Calls,
    pub overhead: Overhead,
    /// Raw batched and summed serial kernel seconds per batch, and the
    /// exact W-word amortization (traced runs only).
    traced: Option<(Vec<f64>, Vec<f64>, f64)>,
}

/// Sends batch `j` = test images `8j .. 8j + 8` (wrapping) round-robin
/// within `budget`, checking every sample against the golden model, with
/// `side`'s slices between the batches.
pub fn run(
    sys: &TrainedSystem,
    backend: &KernelBackend,
    golden: &Golden,
    budget: Budget,
    mut side: Option<&mut Rounds<'_>>,
    mut tracer: Option<&mut Tracer>,
    tally: &mut Tally,
) -> Batch {
    let net = sys.fixed();
    let n = golden.len();
    let image = |j: usize, s: usize| (j * BATCH + s) % n;
    let batches: Vec<Vec<Vec<Q6_10>>> = (0..n.div_ceil(BATCH))
        .map(|j| {
            (0..BATCH)
                .map(|s| golden.inputs[image(j, s)].clone())
                .collect()
        })
        .collect();
    let mut raw = tracer.is_some().then(|| {
        let kernel = SparseKernel::pack(net, DEFAULT_BLOCK);
        let scratch = kernel.scratch();
        (kernel, scratch)
    });
    let (mut batched, mut serial) = (Vec::new(), Vec::new());
    let mut calls = Calls::new(batches.len(), BATCH as f64);
    let mut overhead = Overhead::default();
    let start = Instant::now();
    while budget.more(start, calls.len()) {
        let id = calls.len() as u64;
        let j = calls.len() % batches.len();
        let t_pre = Instant::now();
        let root = tracer
            .as_deref_mut()
            .and_then(|t| t.open("batch", t_pre, id));
        let t0 = Instant::now();
        let result = backend.run_batch(net, &batches[j], UvMode::On);
        let t1 = Instant::now();
        calls.seconds.push(secs(t0, t1));
        if let (Some(tr), Some((kernel, scratch))) = (tracer.as_deref_mut(), raw.as_mut()) {
            tr.record("engine.run_batch", t0, t1, root, id);
            overhead.bare_s.push(secs(t0, t1));
            overhead.wrapped_s.push(secs(t_pre, Instant::now()));
            let (run, b) = tr.time("kernel.run_batch", root, id, || {
                kernel.run_batch(&batches[j], UvMode::On, Strategy::Prescan, scratch)
            });
            black_box(run);
            let mut one_by_one = 0.0;
            for x in &batches[j] {
                let (run, s) = tr.time("kernel.run", root, id, || {
                    kernel.run(x, UvMode::On, Strategy::Prescan, scratch)
                });
                black_box(run);
                one_by_one += s;
            }
            tr.close(root, Instant::now());
            batched.push(b);
            serial.push(one_by_one);
        }
        match result {
            Ok(r) if r.records.len() == BATCH => {
                for (s, rec) in r.records.iter().enumerate() {
                    tally.record(golden.matches(image(j, s), rec));
                }
            }
            _ => (0..BATCH).for_each(|_| tally.record(false)),
        }
        if let Some(side) = side.as_deref_mut() {
            side.tick(tracer.as_deref_mut(), tally);
        }
    }
    let traced = raw.map(|(kernel, mut scratch)| {
        let (mut w_serial, mut w_batch) = (0u64, 0u64);
        for batch in &batches {
            let run = kernel.run_batch(batch, UvMode::On, Strategy::Prescan, &mut scratch);
            w_serial += run.w_words_serial;
            w_batch += run.w_words_batch;
        }
        (batched, serial, w_serial as f64 / w_batch.max(1) as f64)
    });
    Batch {
        calls,
        overhead,
        traced,
    }
}

impl Batch {
    /// The batched-kernel per-layer metrics.
    pub fn report_layers(&self, m: &mut Metrics) {
        let Some((batched, serial, amortization)) = &self.traced else {
            return;
        };
        let n = batched.len();
        let fastest = |v: &[f64]| median(&fastest_per_input(v, self.calls.inputs));
        let (batched, serial) = (fastest(batched), fastest(serial));
        m.set(
            "kernel.batch_us_per_sample",
            batched * 1e6 / BATCH as f64,
            n,
        );
        m.set("kernel.batch_gain", serial / batched, n);
        m.set("kernel.w_amortization", *amortization, self.calls.inputs);
    }
}
