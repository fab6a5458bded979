//! The native-kernel study (beyond the paper — ROADMAP item 3): measured
//! wall-clock for the two-stage prescan + block-skip CPU kernel.
//!
//! Every other experiment reports *modelled* time (cycles × clock). This
//! one reports what the host CPU actually does, and gates three oracles
//! on it:
//!
//! 1. **Bit-exactness** — kernel outputs (dense, prescan, batched) equal
//!    the golden fixed-point model bit for bit in both UV modes.
//! 2. **Speedup at paper-level sparsity** — on the study system's real
//!    test images (input sparsity from the glyphs, output sparsity from
//!    the trained UV predictor), the prescan strategy beats the dense
//!    baseline — same packed layout, same i32 lanes — by ≥ 2×
//!    measured wall-clock per sample. `kernel.dense_gmac_per_s` and
//!    `kernel.prescan_gmac_per_s` (informational) give each arm's
//!    achieved MAC rate, so the margin splits into work skipped and MAC
//!    rate.
//! 3. **Engine overhead** — a `KernelBackend::run` call costs at most
//!    1.25× the raw `SparseKernel::run` it wraps, on the same inputs
//!    (`kernel.engine_overhead`), so no per-call cost that grows with the
//!    network (such as a weight-comparing cache guard) hides in the
//!    serving path.
//!
//! Around the oracles: a block-size sweep, a synthetic input-sparsity
//! sweep (speedup vs zeros), native `run_batch` per-sample latency for
//! B = 1..=8, and the SimdBackend modelled-vs-measured cross-check.

use crate::fmt_f;
use crate::report::Report;
use sparsenn_core::engine::{InferenceBackend, KernelBackend, SimdBackend};
use sparsenn_core::model::fixedpoint::{FixedNetwork, UvMode};
use sparsenn_core::numeric::Q6_10;
use sparsenn_core::sim::simd::SimdPlatform;
use sparsenn_core::Profile;
use sparsenn_kernel::{SparseKernel, Strategy, DEFAULT_BLOCK};
use sparsenn_obs::min_wall_us;
use std::fmt::Write as _;

/// Largest batch the study measures.
const MAX_BATCH: usize = 8;

/// The engine-overhead gate: a `KernelBackend::run` may cost at most
/// this multiple of the raw `SparseKernel::run` it wraps.
const MAX_ENGINE_OVERHEAD: f64 = 1.25;

/// Alternating backend/raw rep pairs behind the engine-overhead ratio.
const ENGINE_OVERHEAD_REPS: usize = 20;

const ORACLES: &[&str] = &[
    "kernel.bit_exact",
    "kernel.speedup_ok",
    "kernel.engine_overhead_ok",
];

/// Timing reps per measurement (min-of-reps kills scheduler noise).
fn reps(p: Profile) -> usize {
    match p {
        Profile::Fast => 5,
        Profile::Full => 10,
    }
}

/// Per-sample wall time, µs, of the dense arm (on `dense`) and the
/// prescan arm (on `prescan`) over `inputs`: each the minimum over `r`
/// passes of the whole set, the two arms alternating pass by pass so a
/// change in the host's speed hits both sides of their ratio alike.
fn dense_and_prescan_us(
    dense: &SparseKernel,
    prescan: &SparseKernel,
    inputs: &[Vec<Q6_10>],
    r: usize,
) -> (f64, f64) {
    let (mode, n) = (UvMode::On, inputs.len() as f64);
    let (mut sd, mut sp) = (dense.scratch(), prescan.scratch());
    // Warm the scratch (first run grows the arenas).
    let _ = dense.run(&inputs[0], mode, Strategy::Dense, &mut sd);
    let _ = prescan.run(&inputs[0], mode, Strategy::Prescan, &mut sp);
    let [d, p] = min_wall_us(
        r,
        [
            &mut || {
                for x in inputs {
                    std::hint::black_box(dense.run(x, mode, Strategy::Dense, &mut sd));
                }
            },
            &mut || {
                for x in inputs {
                    std::hint::black_box(prescan.run(x, mode, Strategy::Prescan, &mut sp));
                }
            },
        ],
    );
    (d / n, p / n)
}

/// Mean multiply-accumulates per sample (the kernel's `LayerStats` books)
/// of running `inputs` with the given strategy.
fn macs_per_sample(
    kernel: &SparseKernel,
    inputs: &[Vec<Q6_10>],
    mode: UvMode,
    strategy: Strategy,
) -> f64 {
    let mut s = kernel.scratch();
    let macs: u64 = inputs
        .iter()
        .flat_map(|x| kernel.run(x, mode, strategy, &mut s).layers)
        .map(|l| l.stats.macs)
        .sum();
    macs as f64 / inputs.len() as f64
}

/// Runs the kernel study, training its own
/// [`study_system`](super::fleet::study_system).
pub fn run(p: Profile) -> Report {
    measure_with(p, &super::fleet::study_system(p))
}

/// Runs the kernel study on an already-trained system (shared with the
/// serving studies by `run_all`).
pub fn measure_with(p: Profile, sys: &sparsenn_core::TrainedSystem) -> Report {
    let r = reps(p);
    let net = sys.fixed();
    let test = &sys.split().test;
    let n_inputs = 16.min(test.len()).max(1);
    let inputs: Vec<Vec<Q6_10>> = (0..n_inputs)
        .map(|i| net.quantize_input(test.image(i)))
        .collect();

    let mut out = Report::new(ORACLES);
    let _ = writeln!(
        out,
        "## Native CPU kernel: measured wall-clock (profile: {p})\n"
    );

    // — Bit-exactness oracle first: the speed numbers mean nothing if the
    //   bits are wrong —
    let bit_exact = bit_exact_vs_golden(net, &inputs);
    out.oracle(
        "kernel.bit_exact",
        bit_exact,
        "kernel outputs bit-exact vs the golden fixed-point model \
         (both UV modes, dense/prescan/batch)",
    );
    let _ = writeln!(out);

    // — Dense vs prescan on the study system, across block sizes, each
    //   block's prescan arm timed alternately with the dense arm —
    let kernel_def = SparseKernel::pack(net, DEFAULT_BLOCK);
    let mut pairs = Vec::new();
    for block in [8usize, 16, 32] {
        let k = if block == DEFAULT_BLOCK {
            kernel_def.clone()
        } else {
            SparseKernel::pack(net, block)
        };
        let (d, pre) = dense_and_prescan_us(&kernel_def, &k, &inputs, r);
        pairs.push((block, d, pre, d / pre.max(1e-12)));
    }
    let dense_us = pairs.iter().map(|p| p.1).fold(f64::INFINITY, f64::min);
    out.metric("kernel.dense_us", dense_us);
    let mut rows = Vec::new();
    for &(block, d, pre, speedup) in &pairs {
        rows.push(vec![
            block.to_string(),
            fmt_f(d, 2),
            fmt_f(pre, 2),
            fmt_f(speedup, 2),
        ]);
        out.metric(format!("kernel.prescan_us.bs{block}"), pre);
        out.metric(format!("kernel.speedup.bs{block}"), speedup);
    }
    let best = pairs
        .iter()
        .copied()
        .max_by(|a, b| a.3.total_cmp(&b.3))
        .expect("three block sizes");
    let (_, default_dense_us, default_pre_us, default_speedup) = pairs
        .iter()
        .copied()
        .find(|p| p.0 == DEFAULT_BLOCK)
        .expect("the default block is measured");
    let best_speedup = best.3;
    // Achieved MAC rate of each arm at the default block: whether the
    // speedup comes from work skipped or from a faster MAC.
    let rate = |strategy, us: f64| {
        macs_per_sample(&kernel_def, &inputs, UvMode::On, strategy) / us.max(1e-12) / 1e3
    };
    let dense_gmac = rate(Strategy::Dense, default_dense_us);
    let prescan_gmac = rate(Strategy::Prescan, default_pre_us);
    out.metric("kernel.dense_gmac_per_s", dense_gmac);
    out.metric("kernel.prescan_gmac_per_s", prescan_gmac);
    let _ = writeln!(
        out,
        "### Dense vs prescan on the study system (real test images, uv_on)\n\n\
         dense baseline (same packed layout, same lanes): {} µs/sample; \
         achieved {} GMAC/s dense, {} GMAC/s prescan at block {DEFAULT_BLOCK}\n",
        fmt_f(dense_us, 2),
        fmt_f(dense_gmac, 2),
        fmt_f(prescan_gmac, 2),
    );
    out.table(
        &[
            "block size",
            "dense (µs/sample)",
            "prescan (µs/sample)",
            "speedup vs dense",
        ],
        &rows,
    );
    // The oracle gates on the best measured block: block size is a tuning
    // knob (the default is itself set from this measurement), and the claim
    // under test is that the kernel *delivers* ≥ 2× at paper-level input
    // sparsity with a well-chosen block, on whatever host runs the bench.
    let _ = writeln!(out);
    out.metric("kernel.speedup_at_paper_sparsity", best_speedup);
    out.metric("kernel.speedup_at_default_block", default_speedup);
    out.oracle(
        "kernel.speedup_ok",
        best_speedup >= 2.0,
        format_args!(
            "measured prescan speedup at paper-level sparsity ≥ 2× \
             (best {}× at block {}, {}× at the default block size {DEFAULT_BLOCK})",
            fmt_f(best_speedup, 2),
            best.0,
            fmt_f(default_speedup, 2),
        ),
    );
    let _ = writeln!(out);

    // — Synthetic input-sparsity sweep: where the win comes from —
    let _ = writeln!(
        out,
        "### Speedup vs input sparsity (synthetic inputs, default block)\n"
    );
    let mut rows = Vec::new();
    for sparsity in [0usize, 50, 90, 99] {
        let synth: Vec<Vec<Q6_10>> = (0..n_inputs)
            .map(|s| {
                let x: Vec<f32> = (0..net.layers()[0].cols())
                    .map(|i| {
                        // Deterministic scatter: keep ~(100-sparsity)% nonzero.
                        if (i * 7919 + s * 104729) % 100 < sparsity {
                            0.0
                        } else {
                            (((i + s) as f32) * 0.37).sin().abs() + 0.05
                        }
                    })
                    .collect();
                net.quantize_input(&x)
            })
            .collect();
        let (d, pre) = dense_and_prescan_us(&kernel_def, &kernel_def, &synth, r);
        rows.push(vec![
            format!("{sparsity}%"),
            fmt_f(d, 2),
            fmt_f(pre, 2),
            fmt_f(d / pre.max(1e-12), 2),
        ]);
        out.metric(format!("kernel.speedup.s{sparsity}"), d / pre.max(1e-12));
    }
    out.table(
        &["input zeros", "dense (µs)", "prescan (µs)", "speedup"],
        &rows,
    );

    // — Native batching: per-sample latency and W-word amortization —
    let _ = writeln!(out, "\n### Native `run_batch` (prescan, uv_on)\n");
    let mut scratch = kernel_def.scratch();
    let mut rows = Vec::new();
    for b in 1..=MAX_BATCH {
        let batch: Vec<Vec<Q6_10>> = (0..b).map(|i| inputs[i % inputs.len()].clone()).collect();
        let _ = kernel_def.run_batch(&batch, UvMode::On, Strategy::Prescan, &mut scratch);
        let [batch_us] = min_wall_us(
            r,
            [&mut || {
                std::hint::black_box(kernel_def.run_batch(
                    &batch,
                    UvMode::On,
                    Strategy::Prescan,
                    &mut scratch,
                ));
            }],
        );
        let rec = kernel_def.run_batch(&batch, UvMode::On, Strategy::Prescan, &mut scratch);
        rows.push(vec![
            b.to_string(),
            fmt_f(batch_us, 2),
            fmt_f(batch_us / b as f64, 2),
            fmt_f(rec.w_amortization(), 2),
        ]);
        out.metric(
            format!("kernel.batch_per_sample_us.B{b}"),
            batch_us / b as f64,
        );
        out.metric(format!("kernel.w_amortization.B{b}"), rec.w_amortization());
    }
    out.table(
        &["B", "batch (µs)", "µs/sample", "W-word amortization"],
        &rows,
    );

    // — Engine overhead: the backend call against the raw kernel it wraps
    //   (same block, same inputs), timed alternately rep by rep so host
    //   drift hits both arms alike. Any per-call cost that grows with the
    //   network (a weight-comparing guard, a repack) shows up here —
    let measured_backend = KernelBackend::new();
    let _ = measured_backend.run(net, &inputs[0], UvMode::On); // pack
    let [backend_us, raw_us] = min_wall_us(
        ENGINE_OVERHEAD_REPS,
        [
            &mut || {
                for x in &inputs {
                    std::hint::black_box(measured_backend.run(net, x, UvMode::On).expect("fits"));
                }
            },
            &mut || {
                for x in &inputs {
                    std::hint::black_box(kernel_def.run(
                        x,
                        UvMode::On,
                        Strategy::Prescan,
                        &mut scratch,
                    ));
                }
            },
        ],
    );
    let (measured_us, raw_us) = (
        backend_us / inputs.len() as f64,
        raw_us / inputs.len() as f64,
    );
    let engine_overhead = measured_us / raw_us.max(1e-12);
    let _ = writeln!(out, "\n### Engine overhead\n");
    out.metric("kernel.engine_overhead", engine_overhead);
    out.oracle(
        "kernel.engine_overhead_ok",
        engine_overhead <= MAX_ENGINE_OVERHEAD,
        format_args!(
            "engine overhead (KernelBackend::run ÷ raw kernel) ≤ {MAX_ENGINE_OVERHEAD}× \
             ({}×: {} vs {} µs/sample, block {DEFAULT_BLOCK}, prescan, uv_on)",
            fmt_f(engine_overhead, 2),
            fmt_f(measured_us, 2),
            fmt_f(raw_us, 2),
        ),
    );

    // — Modelled vs measured: the SimdBackend's analytic clock against
    //   real host wall-clock on the same samples (informational — the
    //   platforms model *other* silicon, the ratio is a sanity scale) —
    let simd = SimdBackend::new(SimdPlatform::dnn_engine());
    let modelled_us: f64 = inputs
        .iter()
        .map(|x| {
            simd.run(net, x, UvMode::On)
                .expect("study network fits the platform model")
                .time_us()
        })
        .sum::<f64>()
        / inputs.len() as f64;
    let ratio = modelled_us / measured_us.max(1e-12);
    let _ = writeln!(
        out,
        "\n### Modelled vs measured\n\n\
         `dnn-engine` modelled: {} µs/sample; `{}` measured: {} µs/sample \
         (model/measured = {} — informational; the analytic platforms \
         model different silicon)\n",
        fmt_f(modelled_us, 2),
        measured_backend.name(),
        fmt_f(measured_us, 2),
        fmt_f(ratio, 2),
    );
    out.metric("kernel.model_vs_measured", ratio);
    out.metric("kernel.backend_us", measured_us);
    out
}

/// The oracle: dense, prescan and batched kernel runs all equal the
/// golden model bit for bit, in both UV modes.
fn bit_exact_vs_golden(net: &FixedNetwork, inputs: &[Vec<Q6_10>]) -> bool {
    let kernel = SparseKernel::pack(net, DEFAULT_BLOCK);
    let mut s = kernel.scratch();
    for mode in [UvMode::Off, UvMode::On] {
        for x in inputs {
            let golden = net.forward(x, mode);
            for strategy in [Strategy::Prescan, Strategy::Dense] {
                let run = kernel.run(x, mode, strategy, &mut s);
                let agree = run
                    .layers
                    .iter()
                    .zip(&golden)
                    .all(|(k, g)| k.output == g.output && k.mask == g.mask);
                if !agree {
                    return false;
                }
            }
        }
        let batch = kernel.run_batch(inputs, mode, Strategy::Prescan, &mut s);
        for (x, run) in inputs.iter().zip(&batch.runs) {
            let golden = net.forward(x, mode);
            let agree = run
                .layers
                .iter()
                .zip(&golden)
                .all(|(k, g)| k.output == g.output && k.mask == g.mask);
            if !agree {
                return false;
            }
        }
    }
    true
}
