//! The `online_sparse` path: one request at a time through
//! `TrainedSystem::kernel_session()` → `Session::run_input(image, UvMode::On)`.
//!
//! Traced, each request is followed by the children the call hides, on
//! the same input: `FixedNetwork::quantize_input`, `SparseKernel::run`
//! (uv_on, uv_off and `Strategy::Dense`) and `BlockIndex::prescan` on each
//! layer's real input. Engine self time is the call minus the quantize and
//! uv_on kernel times of the same request.

use crate::alloc::counted;
use crate::check::{Golden, Tally};
use crate::metrics::Metrics;
use crate::serve::Rounds;
use crate::stats::{fastest_per_input, median, secs, Budget, Calls};
use crate::trace::{Overhead, Tracer};
use sparsenn_core::engine::Session;
use sparsenn_core::model::fixedpoint::UvMode;
use sparsenn_core::TrainedSystem;
use sparsenn_kernel::{BlockIndex, Scratch, SparseKernel, Strategy, DEFAULT_BLOCK};
use std::hint::black_box;
use std::time::Instant;

/// Requests the exact allocation count runs over.
const ALLOC_REQUESTS: usize = 64;

const PRESCAN_SPANS: [&str; 4] = [
    "kernel.prescan.l0",
    "kernel.prescan.l1",
    "kernel.prescan.l2",
    "kernel.prescan.l3",
];

/// Backend construction and the first call.
pub fn setup(sys: &TrainedSystem) -> Result<Session<'_>, String> {
    let session = sys.kernel_session();
    session
        .run_input(sys.split().test.image(0), UvMode::On)
        .map_err(|e| format!("online_sparse first call: {e}"))?;
    Ok(session)
}

/// The raw kernel the traced run times the children with.
struct Raw {
    kernel: SparseKernel,
    scratch: Scratch,
    index: BlockIndex,
    pack_s: Vec<f64>,
}

impl Raw {
    fn pack(sys: &TrainedSystem) -> Self {
        let mut pack_s = Vec::new();
        let mut kernel = None;
        for _ in 0..3 {
            let t = Instant::now();
            kernel = Some(SparseKernel::pack(sys.fixed(), DEFAULT_BLOCK));
            pack_s.push(secs(t, Instant::now()));
        }
        let kernel = kernel.expect("packed at least once");
        let scratch = kernel.scratch();
        Self {
            kernel,
            scratch,
            index: BlockIndex::new(),
            pack_s,
        }
    }
}

/// Per-request child timings of the traced run, host seconds.
#[derive(Default)]
struct Children {
    quantize: Vec<f64>,
    kernel: Vec<f64>,
    uv_off: Vec<f64>,
    dense: Vec<f64>,
    prescan: Vec<f64>,
}

/// Exact counts over one pass of the request images (traced runs only).
struct Counts {
    live_block_ratio: Vec<f64>,
    active_row_ratio: Vec<f64>,
    macs_per_sample: f64,
    w_words_per_sample: f64,
    kernel_allocs: f64,
    engine_allocs: f64,
    engine_bytes: f64,
    samples: usize,
}

/// What one online probe measured.
pub struct Online {
    pub calls: Calls,
    pub overhead: Overhead,
    traced: Option<(Children, Counts, Vec<f64>)>,
}

/// Serves the request images round-robin within `budget`, checking every response
/// against the golden model, with `side`'s slices between the requests.
pub fn run(
    sys: &TrainedSystem,
    session: &Session<'_>,
    golden: &Golden,
    budget: Budget,
    mut side: Option<&mut Rounds<'_>>,
    mut tracer: Option<&mut Tracer>,
    tally: &mut Tally,
) -> Online {
    let net = sys.fixed();
    let mut raw = tracer.is_some().then(|| Raw::pack(sys));
    let mut calls = Calls::new(golden.len(), 1.0);
    let mut overhead = Overhead::default();
    let mut ch = Children::default();
    let start = Instant::now();
    while budget.more(start, calls.len()) {
        let id = calls.len() as u64;
        let k = calls.len() % golden.len();
        let image = golden.images.image(k);
        let t_pre = Instant::now();
        let root = tracer
            .as_deref_mut()
            .and_then(|t| t.open("request", t_pre, id));
        let t0 = Instant::now();
        let result = session.run_input(image, UvMode::On);
        let t1 = Instant::now();
        calls.seconds.push(secs(t0, t1));
        if let (Some(tr), Some(raw)) = (tracer.as_deref_mut(), raw.as_mut()) {
            tr.record("engine.run_input", t0, t1, root, id);
            overhead.bare_s.push(secs(t0, t1));
            overhead.wrapped_s.push(secs(t_pre, Instant::now()));
            let (q, quantize) = tr.time("model.quantize_input", root, id, || {
                net.quantize_input(image)
            });
            let Raw {
                kernel,
                scratch,
                index,
                ..
            } = raw;
            let (run, kernel_s) = tr.time("kernel.run", root, id, || {
                kernel.run(&q, UvMode::On, Strategy::Prescan, scratch)
            });
            black_box(run);
            let (run, uv_off) = tr.time("kernel.run.uv_off", root, id, || {
                kernel.run(&q, UvMode::Off, Strategy::Prescan, scratch)
            });
            black_box(run);
            let (run, dense) = tr.time("kernel.run.dense", root, id, || {
                kernel.run(&q, UvMode::On, Strategy::Dense, scratch)
            });
            black_box(run);
            let mut prescan = 0.0;
            for l in 0..kernel.num_layers() {
                let x = match l {
                    0 => &q[..],
                    _ => &golden.layers[k][l - 1].output[..],
                };
                let name = PRESCAN_SPANS.get(l).copied().unwrap_or("kernel.prescan");
                let block = kernel.block_size();
                prescan += tr.time(name, root, id, || index.prescan(x, block)).1;
            }
            tr.close(root, Instant::now());
            ch.quantize.push(quantize);
            ch.kernel.push(kernel_s);
            ch.uv_off.push(uv_off);
            ch.dense.push(dense);
            ch.prescan.push(prescan);
        }
        tally.record(result.is_ok_and(|r| golden.matches(k, &r)));
        if let Some(side) = side.as_deref_mut() {
            side.tick(tracer.as_deref_mut(), tally);
        }
    }
    let traced = raw.map(|mut raw| {
        let counts = counts(session, &mut raw, golden);
        (ch, counts, raw.pack_s)
    });
    Online {
        calls,
        overhead,
        traced,
    }
}

/// Work counts from `LayerStats` and exact allocation counts, over every
/// request image (allocations over the first `ALLOC_REQUESTS`).
fn counts(session: &Session<'_>, raw: &mut Raw, golden: &Golden) -> Counts {
    let layers = raw.kernel.num_layers();
    let (mut live, mut blocks) = (vec![0u64; layers], vec![0u64; layers]);
    let (mut active, mut rows) = (vec![0u64; layers], vec![0u64; layers]);
    let (mut macs, mut w_words, mut kernel_allocs) = (0u64, 0u64, 0u64);
    for x in &golden.inputs {
        let (run, allocs, _) = counted(|| {
            raw.kernel
                .run(x, UvMode::On, Strategy::Prescan, &mut raw.scratch)
        });
        kernel_allocs += allocs;
        for (l, layer) in run.layers.iter().enumerate() {
            let st = layer.stats;
            live[l] += st.live_blocks;
            blocks[l] += st.total_blocks;
            active[l] += st.active_rows;
            rows[l] += st.rows;
            macs += st.macs;
            w_words += st.w_words;
        }
    }
    let n_alloc = ALLOC_REQUESTS.min(golden.len());
    let (mut engine_allocs, mut engine_bytes) = (0u64, 0u64);
    for k in 0..n_alloc {
        let (result, allocs, bytes) =
            counted(|| session.run_input(golden.images.image(k), UvMode::On));
        black_box(result.is_ok());
        engine_allocs += allocs;
        engine_bytes += bytes;
    }
    let n = golden.len() as f64;
    let ratio = |a: &[u64], b: &[u64]| -> Vec<f64> {
        a.iter()
            .zip(b)
            .map(|(&x, &y)| x as f64 / y.max(1) as f64)
            .collect()
    };
    Counts {
        live_block_ratio: ratio(&live, &blocks),
        active_row_ratio: ratio(&active, &rows),
        macs_per_sample: macs as f64 / n,
        w_words_per_sample: w_words as f64 / n,
        kernel_allocs: kernel_allocs as f64 / n,
        engine_allocs: engine_allocs as f64 / n_alloc as f64,
        engine_bytes: engine_bytes as f64 / n_alloc as f64,
        samples: golden.len(),
    }
}

impl Online {
    /// The median over inputs of a child's fastest time, microseconds.
    fn child_us(&self, series: &[f64]) -> f64 {
        median(&fastest_per_input(series, self.calls.inputs)) * 1e6
    }

    /// Raw-kernel uv_off over uv_on time (traced runs).
    pub fn kernel_uv_speedup(&self) -> Option<f64> {
        self.traced
            .as_ref()
            .map(|(ch, _, _)| self.child_us(&ch.uv_off) / self.child_us(&ch.kernel))
    }

    /// The engine, model and single-sample kernel per-layer metrics.
    pub fn report_layers(&self, m: &mut Metrics) {
        let Some((ch, c, pack_s)) = &self.traced else {
            return;
        };
        let n = ch.kernel.len();
        let us = |v: &[f64]| self.child_us(v);
        let kernel_us = us(&ch.kernel);
        // Engine self time and overhead per input, from each part's
        // fastest time on that input.
        let inputs = self.calls.inputs;
        let call = self.calls.fastest_per_input();
        let quantize = fastest_per_input(&ch.quantize, inputs);
        let kernel = fastest_per_input(&ch.kernel, inputs);
        let engine_self: Vec<f64> = (0..call.len())
            .map(|i| call[i] - quantize[i] - kernel[i])
            .collect();
        let ratio: Vec<f64> = (0..call.len()).map(|i| call[i] / kernel[i]).collect();
        m.set("engine.self_us", median(&engine_self) * 1e6, n);
        m.set("engine.overhead_ratio", median(&ratio), n);
        m.set(
            "engine.allocs_per_request",
            c.engine_allocs,
            ALLOC_REQUESTS.min(c.samples),
        );
        m.set(
            "engine.alloc_bytes_per_request",
            c.engine_bytes,
            ALLOC_REQUESTS.min(c.samples),
        );
        m.set("model.quantize_us", us(&ch.quantize), n);
        m.set("kernel.run_us", kernel_us, n);
        m.set("kernel.uv_off_us", us(&ch.uv_off), n);
        m.set("kernel.dense_us", us(&ch.dense), n);
        m.set("kernel.prescan_us", us(&ch.prescan), n);
        m.set_layers(
            "kernel.live_block_ratio",
            "",
            &c.live_block_ratio,
            c.samples,
        );
        m.set_layers(
            "kernel.active_row_ratio",
            "",
            &c.active_row_ratio,
            c.samples,
        );
        m.set("kernel.macs_per_sample", c.macs_per_sample, c.samples);
        m.set("kernel.w_words_per_sample", c.w_words_per_sample, c.samples);
        // Rates from computed work (not measured traffic) over measured time.
        m.set("kernel.gmac_per_s", c.macs_per_sample / kernel_us / 1e3, n);
        m.set(
            "kernel.w_gb_per_s",
            2.0 * c.w_words_per_sample / kernel_us / 1e3,
            n,
        );
        m.set("kernel.pack_ms", median(pack_s) * 1e3, pack_s.len());
        m.set("kernel.allocs_per_run", c.kernel_allocs, c.samples);
    }
}
