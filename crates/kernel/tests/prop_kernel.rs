//! Property-based verification of the two-stage kernel against the golden
//! fixed-point model: prescan coverage is exact, outputs are bit-identical
//! in both UV modes (also under full-scale operands that make the i32
//! lanes flush every one to five blocks), batched runs equal their serial
//! counterparts sample by sample, and the prescan never does more work
//! than dense.
//!
//! The proptest shim seeds each test by its name, so the drawn block
//! widths are the same on every run. Every case therefore also runs at
//! [`DEFAULT_BLOCK`], the width the serving paths use.

use proptest::prelude::*;
use rand::Rng;
use sparsenn_kernel::{BlockIndex, Scratch, SparseKernel, Strategy, DEFAULT_BLOCK};
use sparsenn_linalg::init::seeded_rng;
use sparsenn_linalg::Matrix;
use sparsenn_model::fixedpoint::{FixedNetwork, UvMode};
use sparsenn_model::{DenseLayer, Mlp, PredictedNetwork, Predictor};
use sparsenn_numeric::Q6_10;

fn build_net(seed: u64, hidden: usize, rank: usize) -> FixedNetwork {
    let mut rng = seeded_rng(seed);
    let mlp = Mlp::random(&[24, hidden, 10], &mut rng);
    let net = PredictedNetwork::with_random_predictors(mlp, rank, &mut rng);
    FixedNetwork::from_float(&net)
}

fn build_input(seed: u64, len: usize, sparsity_pct: u8) -> Vec<f32> {
    let mut rng = seeded_rng(seed ^ 0xDEAD);
    (0..len)
        .map(|_| {
            if rng.gen_range(0u8..100) < sparsity_pct {
                0.0
            } else {
                rng.gen_range(-2.0f32..2.0)
            }
        })
        .collect()
}

/// The largest raw `|w|` [`extreme_net`] draws, with lane capacities
/// `K = ⌊(2³¹ − 1) / (|w| · 2¹⁵)⌋` of 1 (one product per lane: the
/// one-product pass), 2 (one block of pairs per flush), and the odd 3 and
/// 5, whose pair pass flushes every ⌊K/2⌋ blocks.
const TOPS: [i32; 4] = [32768, 32767, 16384, 10923];

/// A network whose every weight (W, U and V) is `0` or `±top / 1024`, so
/// each product is up to `top · 2¹⁵` in magnitude against rail inputs.
/// `+32.0` saturates to `i16::MAX`; `-32.0` is `i16::MIN`. A quarter of
/// the weights are zero, so the signs, masks and live blocks still vary.
fn extreme_net(seed: u64, hidden: usize, rank: usize, top: i32) -> FixedNetwork {
    let mut rng = seeded_rng(seed);
    let top = top as f32 / 1024.0;
    let mut full = |rows: usize, cols: usize| {
        Matrix::from_fn(rows, cols, |_, _| match rng.gen_range(0u8..4) {
            0 => 0.0,
            1 => -top,
            _ => top,
        })
    };
    let dims = [24, hidden, hidden / 2 + 4, 10];
    let layers = dims
        .windows(2)
        .map(|d| DenseLayer::new(full(d[1], d[0])))
        .collect();
    let predictors = dims[..dims.len() - 1]
        .windows(2)
        .map(|d| Predictor::new(full(d[1], rank), full(rank, d[0])))
        .collect();
    FixedNetwork::from_float(&PredictedNetwork::new(Mlp::new(layers), predictors))
}

/// Inputs at the saturation rails (±32.0 and beyond) or zero.
fn rail_input(seed: u64, len: usize) -> Vec<f32> {
    let mut rng = seeded_rng(seed ^ 0xBEEF);
    (0..len)
        .map(|_| match rng.gen_range(0u8..5) {
            0 => 0.0,
            1 => -32.0,
            2 => -1.0e4,
            3 => 31.999,
            _ => 1.0e4,
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Full-scale operands: every product is up to 2³⁰ in magnitude, so a
    /// lane holds one to five of them before it must flush (see
    /// [`TOPS`]). Both strategies, both UV modes, `run` and `run_batch`
    /// stay bit-identical to `FixedNetwork::forward`; in a debug build
    /// every lane add is overflow-checked as well.
    #[test]
    fn full_scale_operands_stay_bit_exact(
        seed in 0u64..10_000,
        hidden in 8usize..72,
        rank in 1usize..6,
        drawn in 1usize..40,
        top in 0usize..TOPS.len(),
        b in 1usize..=4,
    ) {
        let net = extreme_net(seed, hidden, rank, TOPS[top]);
        let inputs: Vec<Vec<Q6_10>> = (0..b)
            .map(|s| net.quantize_input(&rail_input(seed ^ ((s as u64) << 20), 24)))
            .collect();
        for block in [drawn, DEFAULT_BLOCK] {
            let kernel = SparseKernel::pack(&net, block);
            let mut s = kernel.scratch();
            for mode in [UvMode::Off, UvMode::On] {
                for strategy in [Strategy::Prescan, Strategy::Dense] {
                    let batch = kernel.run_batch(&inputs, mode, strategy, &mut s);
                    for (si, x) in inputs.iter().enumerate() {
                        let golden = net.forward(x, mode);
                        let run = kernel.run(x, mode, strategy, &mut s);
                        for (l, g) in golden.iter().enumerate() {
                            for (what, got) in [("run", &run), ("run_batch", &batch.runs[si])] {
                                prop_assert_eq!(&got.layers[l].output, &g.output,
                                    "{} layer {} output ({:?}, {:?}, block {})",
                                    what, l, strategy, mode, block);
                                prop_assert_eq!(&got.layers[l].mask, &g.mask,
                                    "{} layer {} mask ({:?}, {:?}, block {})",
                                    what, l, strategy, mode, block);
                            }
                        }
                    }
                }
            }
        }
    }

    /// The prescan index covers the nonzeros exactly: every nonzero lies
    /// in a live block (no misses) and every live block holds at least one
    /// nonzero (no dead blocks in the live list), for random vectors,
    /// sparsity levels and block sizes.
    #[test]
    fn prescan_coverage_is_exact(
        seed in 0u64..10_000,
        len in 1usize..600,
        drawn in 1usize..48,
        sparsity in 0u8..100,
    ) {
        let x: Vec<Q6_10> = build_input(seed, len, sparsity)
            .iter()
            .map(|&v| Q6_10::from_f32(v))
            .collect();
        for block in [drawn, DEFAULT_BLOCK] {
            let mut idx = BlockIndex::new();
            idx.prescan(&x, block);
            prop_assert_eq!(idx.blocks(), len.div_ceil(block));
            let mut nnz = 0u64;
            for (j, v) in x.iter().enumerate() {
                if !v.is_zero() {
                    nnz += 1;
                    prop_assert!(idx.is_live(j / block), "nonzero at {} missed", j);
                }
            }
            prop_assert_eq!(idx.nnz(), nnz);
            for &b in idx.live() {
                let o = b as usize * block;
                prop_assert!(
                    x[o..(o + block).min(len)].iter().any(|v| !v.is_zero()),
                    "block {} live but all-zero", b
                );
            }
            // The live list and the mask words agree.
            for b in 0..idx.blocks() {
                prop_assert_eq!(idx.is_live(b), idx.live().contains(&(b as u32)));
            }
        }
    }

    /// Kernel outputs and masks are bit-identical to the golden model for
    /// random networks, inputs, block sizes, both strategies and both UV
    /// modes — and prescan never touches more words than dense.
    #[test]
    fn kernel_is_bit_exact_vs_golden(
        seed in 0u64..10_000,
        hidden in 8usize..96,
        rank in 1usize..6,
        drawn in 1usize..40,
        sparsity in 0u8..100,
        uv_on in any::<bool>(),
    ) {
        let net = build_net(seed, hidden, rank);
        let x = net.quantize_input(&build_input(seed, 24, sparsity));
        let mode = if uv_on { UvMode::On } else { UvMode::Off };
        for block in [drawn, DEFAULT_BLOCK] {
            let kernel = SparseKernel::pack(&net, block);
            let mut s = kernel.scratch();
            let golden = net.forward(&x, mode);
            for strategy in [Strategy::Prescan, Strategy::Dense] {
                let run = kernel.run(&x, mode, strategy, &mut s);
                for (l, (r, g)) in run.layers.iter().zip(&golden).enumerate() {
                    prop_assert_eq!(&r.output, &g.output,
                        "layer {} output differs ({:?}, block {})", l, strategy, block);
                    prop_assert_eq!(&r.mask, &g.mask,
                        "layer {} mask differs ({:?}, block {})", l, strategy, block);
                }
            }
            // Work accounting: prescan touches no more W words than dense,
            // modulo the padding slack of the final partial block (the panels
            // really do read whole blocks).
            let pre = kernel.run(&x, mode, Strategy::Prescan, &mut s);
            let dense = kernel.run(&x, mode, Strategy::Dense, &mut s);
            for (l, (p, d)) in pre.layers.iter().zip(&dense.layers).enumerate() {
                let padded = (p.stats.cols as usize).div_ceil(block) * block;
                let slack = p.stats.active_rows * (padded as u64 - p.stats.cols);
                prop_assert!(p.stats.w_words <= d.stats.w_words + slack,
                    "layer {}: {} > {} + {}", l, p.stats.w_words, d.stats.w_words, slack);
                prop_assert!(p.stats.live_blocks <= p.stats.total_blocks, "layer {}", l);
                prop_assert_eq!(p.stats.nnz_in, d.stats.nnz_in, "layer {}", l);
            }
        }
    }

    /// A batched run is bit-identical to B serial runs for B ∈ 1..=8, both
    /// UV modes and both strategies — outputs, masks AND per-layer stats —
    /// and the batch W book never exceeds the serial book.
    #[test]
    fn run_batch_matches_serial_per_sample(
        seed in 0u64..10_000,
        hidden in 8usize..64,
        b in 1usize..=8,
        drawn in 1usize..40,
        uv_on in any::<bool>(),
    ) {
        let net = build_net(seed, hidden, 3);
        let inputs: Vec<_> = (0..b)
            .map(|s| {
                let sparsity = (20 + s * 9) as u8 % 100;
                net.quantize_input(&build_input(seed ^ ((s as u64) << 16), 24, sparsity))
            })
            .collect();
        let mode = if uv_on { UvMode::On } else { UvMode::Off };
        for block in [drawn, DEFAULT_BLOCK] {
            let kernel = SparseKernel::pack(&net, block);
            let mut s = kernel.scratch();
            for strategy in [Strategy::Prescan, Strategy::Dense] {
                let batch = kernel.run_batch(&inputs, mode, strategy, &mut s);
                prop_assert_eq!(batch.runs.len(), b);
                let mut serial_words = 0u64;
                for (si, x) in inputs.iter().enumerate() {
                    let own = kernel.run(x, mode, strategy, &mut s);
                    prop_assert_eq!(&batch.runs[si], &own,
                        "sample {} differs from its serial run ({:?}, block {})",
                        si, strategy, block);
                    serial_words += own.layers.iter().map(|l| l.stats.w_words).sum::<u64>();
                }
                prop_assert_eq!(batch.w_words_serial, serial_words, "{:?}", strategy);
                prop_assert!(batch.w_words_batch <= batch.w_words_serial,
                    "batching never adds W traffic ({:?})", strategy);
                prop_assert!(batch.w_amortization() >= 1.0);
                if b == 1 && strategy == Strategy::Prescan {
                    // A batch of one amortizes nothing the serial book counts…
                    // unless a masked-off row left its panel unread serially
                    // while the union pass (built only from active samples)
                    // counts the same zero. Both books agree at B = 1.
                    prop_assert_eq!(batch.w_words_batch, batch.w_words_serial);
                }
            }
        }
    }

    /// The scratch arena is reusable: interleaving runs of different
    /// shapes, strategies and modes through one scratch never changes
    /// results vs a fresh scratch.
    #[test]
    fn scratch_reuse_never_changes_results(
        seed in 0u64..5_000,
        uv_on in any::<bool>(),
    ) {
        let small = build_net(seed, 8, 2);
        let big = build_net(seed ^ 1, 80, 4);
        let xs = small.quantize_input(&build_input(seed, 24, 50));
        let xb = big.quantize_input(&build_input(seed ^ 2, 24, 30));
        let mode = if uv_on { UvMode::On } else { UvMode::Off };
        for block in [16, DEFAULT_BLOCK] {
            let ks = SparseKernel::pack(&small, block);
            let kb = SparseKernel::pack(&big, block);
            let mut shared = Scratch::default();
            // Warm the shared scratch on the big net, then reuse on the small.
            let _ = kb.run(&xb, mode, Strategy::Prescan, &mut shared);
            let reused = ks.run(&xs, mode, Strategy::Prescan, &mut shared);
            let fresh = ks.run(&xs, mode, Strategy::Prescan, &mut ks.scratch());
            prop_assert_eq!(reused, fresh);
        }
    }
}
