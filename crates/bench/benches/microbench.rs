//! Criterion micro-benchmarks for the hot paths of the reproduction:
//! the linear-algebra kernels the training loop lives in, the SVD used by
//! the baseline predictor, dataset synthesis, both NoC traffic patterns,
//! and the cycle-level machine in both UV modes.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::hint::black_box;

use sparsenn_core::datasets::{DatasetKind, DatasetSpec};
use sparsenn_core::linalg::init;
use sparsenn_core::linalg::init::seeded_rng;
use sparsenn_core::linalg::truncated::truncated_svd;
use sparsenn_core::model::fixedpoint::{FixedNetwork, UvMode};
use sparsenn_core::model::{Mlp, PredictedNetwork};
use sparsenn_core::noc::{ActFlit, BroadcastTree, NocConfig, ReduceTree};
use sparsenn_core::numeric::quantize::quantize_slice;
use sparsenn_core::sim::{Machine, MachineConfig};
use sparsenn_core::train::end_to_end::{sgd_step, PredictorActivation};

fn bench_linalg(c: &mut Criterion) {
    let mut g = c.benchmark_group("linalg");
    let mut rng = seeded_rng(1);
    let a = init::he_normal(1000, 784, &mut rng);
    let x: Vec<f32> = (0..784).map(|i| (i as f32 * 0.1).sin()).collect();
    g.bench_function("matvec_1000x784", |b| {
        b.iter(|| black_box(a.matvec(black_box(&x))))
    });
    let y: Vec<f32> = (0..1000).map(|i| (i as f32 * 0.2).cos()).collect();
    g.bench_function("matvec_t_1000x784", |b| {
        b.iter(|| black_box(a.matvec_t(black_box(&y))))
    });
    let small = init::he_normal(256, 256, &mut rng);
    g.sample_size(10);
    g.bench_function("truncated_svd_rank15_256x256", |b| {
        b.iter(|| black_box(truncated_svd(black_box(&small), 15, 7)))
    });
    g.finish();
}

fn bench_quantize(c: &mut Criterion) {
    let xs: Vec<f32> = (0..784).map(|i| (i as f32 * 0.37).sin()).collect();
    c.bench_function("quantize_784_to_q6_10", |b| {
        b.iter(|| black_box(quantize_slice::<10>(black_box(&xs))))
    });
}

fn bench_datasets(c: &mut Criterion) {
    let mut g = c.benchmark_group("datasets");
    g.sample_size(20);
    for kind in DatasetKind::ALL {
        g.bench_function(format!("generate_32_{kind}"), |b| {
            b.iter(|| {
                let spec = DatasetSpec {
                    kind,
                    train: 32,
                    test: 0,
                    seed: 9,
                };
                black_box(spec.generate())
            })
        });
    }
    g.finish();
}

fn bench_noc(c: &mut Criterion) {
    let mut g = c.benchmark_group("noc");
    g.bench_function("broadcast_256_flits", |b| {
        b.iter_batched(
            || {
                let mut pending: Vec<(usize, ActFlit)> = Vec::new();
                for pe in 0..64usize {
                    for k in 0..4u32 {
                        pending.push((
                            pe,
                            ActFlit {
                                index: pe as u32 * 4 + k,
                                value: 1,
                            },
                        ));
                    }
                }
                (BroadcastTree::new(&NocConfig::default()), pending)
            },
            |(mut tree, mut pending)| {
                let mut delivered = 0usize;
                while delivered < 256 {
                    pending.retain(|&(pe, f)| !tree.try_inject(pe, f));
                    if tree.tick(true).is_some() {
                        delivered += 1;
                    }
                }
                black_box(delivered)
            },
            BatchSize::SmallInput,
        )
    });
    g.bench_function("reduce_16_rows_64_pes", |b| {
        b.iter_batched(
            || {
                let participants = vec![true; 64];
                let tree = ReduceTree::new(&NocConfig::default(), 16, &participants);
                let pending: Vec<(usize, u32, i64)> = (0..64)
                    .flat_map(|pe| (0..16u32).map(move |r| (pe, r, pe as i64 + 1)))
                    .collect();
                (tree, pending)
            },
            |(mut tree, mut pending)| {
                let mut done = 0usize;
                while done < 16 {
                    pending.retain(|&(pe, row, v)| !tree.try_inject(pe, row, v));
                    if tree.tick().is_some() {
                        done += 1;
                    }
                }
                black_box(done)
            },
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

fn machine_fixture() -> (Machine, FixedNetwork, Vec<sparsenn_core::numeric::Q6_10>) {
    let mut rng = seeded_rng(3);
    let mlp = Mlp::random(&[256, 512, 10], &mut rng);
    let net = PredictedNetwork::with_random_predictors(mlp, 15, &mut rng);
    let fixed = FixedNetwork::from_float(&net);
    let x: Vec<f32> = (0..256)
        .map(|i| {
            if i % 3 == 0 {
                0.0
            } else {
                (i as f32 * 0.11).sin().abs()
            }
        })
        .collect();
    let xq = fixed.quantize_input(&x);
    (Machine::new(MachineConfig::default()), fixed, xq)
}

fn bench_machine(c: &mut Criterion) {
    let mut g = c.benchmark_group("machine");
    g.sample_size(20);
    let (machine, fixed, xq) = machine_fixture();
    g.bench_function("layer_512x256_uv_off", |b| {
        b.iter(|| {
            black_box(
                machine
                    .run_layer(
                        black_box(&fixed.layers()[0]),
                        None,
                        black_box(&xq),
                        true,
                        UvMode::Off,
                    )
                    .expect("the layer fits the machine"),
            )
        })
    });
    g.bench_function("layer_512x256_uv_on", |b| {
        b.iter(|| {
            black_box(
                machine
                    .run_layer(
                        black_box(&fixed.layers()[0]),
                        fixed.predictors().first(),
                        black_box(&xq),
                        true,
                        UvMode::On,
                    )
                    .expect("the layer fits the machine"),
            )
        })
    });
    g.bench_function("golden_layer_512x256", |b| {
        b.iter(|| black_box(fixed.forward_layer(0, black_box(&xq), UvMode::On)))
    });
    g.finish();
}

fn bench_kernel(c: &mut Criterion) {
    use sparsenn_core::kernel::{SparseKernel, Strategy, DEFAULT_BLOCK};
    let mut g = c.benchmark_group("kernel");
    let (_, fixed, xq) = machine_fixture();
    let kernel = SparseKernel::pack(&fixed, DEFAULT_BLOCK);
    let mut s = kernel.scratch();
    g.bench_function("prescan_512x256_uv_on", |b| {
        b.iter(|| black_box(kernel.run(black_box(&xq), UvMode::On, Strategy::Prescan, &mut s)))
    });
    g.bench_function("dense_512x256_uv_on", |b| {
        b.iter(|| black_box(kernel.run(black_box(&xq), UvMode::On, Strategy::Dense, &mut s)))
    });
    let batch: Vec<Vec<sparsenn_core::numeric::Q6_10>> = (0..4).map(|_| xq.clone()).collect();
    g.bench_function("run_batch_B4_prescan_uv_on", |b| {
        b.iter(|| {
            black_box(kernel.run_batch(black_box(&batch), UvMode::On, Strategy::Prescan, &mut s))
        })
    });
    g.finish();
}

fn bench_training(c: &mut Criterion) {
    let mut g = c.benchmark_group("training");
    g.sample_size(30);
    let mut rng = seeded_rng(4);
    let mlp = Mlp::random(&[784, 256, 10], &mut rng);
    let net = PredictedNetwork::with_random_predictors(mlp, 15, &mut rng);
    let x: Vec<f32> = (0..784).map(|i| (i as f32 * 0.21).sin().abs()).collect();
    g.bench_function("end_to_end_sgd_step_784_256_10", |b| {
        b.iter_batched(
            || net.clone(),
            |mut n| {
                black_box(sgd_step(
                    &mut n,
                    &x,
                    3,
                    0.02,
                    2e-4,
                    PredictorActivation::Sign,
                ))
            },
            BatchSize::LargeInput,
        )
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_linalg,
    bench_quantize,
    bench_datasets,
    bench_noc,
    bench_machine,
    bench_kernel,
    bench_training
);
criterion_main!(benches);
