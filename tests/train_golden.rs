//! Golden snapshots of training.
//!
//! Each of the three algorithms trains one small seeded 784-24-16-10
//! network on one tiny split, through its own `train` call and through
//! `SystemBuilder`. The snapshot holds a checksum of the `f32::to_bits`
//! patterns of every W, U and V of the system's network, the returned
//! `History`, and the TER and ρ the system reports on its test set. `Debug`
//! prints every f32 in shortest round-trip form, so equal text means equal
//! bits: a change to training that moves one weight bit or one loss shows
//! up here. The files pin the training algorithms' behaviour; they are
//! never rewritten by the test.

use sparsenn::datasets::{DatasetKind, DatasetSpec, SplitDataset};
use sparsenn::linalg::Matrix;
use sparsenn::model::stats::Evaluation;
use sparsenn::train::{end_to_end, no_uv, svd_baseline, History, TrainConfig};
use sparsenn::{SystemBuilder, TrainedSystem, TrainingAlgorithm};
use std::fmt::Write as _;

const DIMS: &[usize] = &[784, 24, 16, 10];
const RANK: usize = 3;
const TRAIN: usize = 60;
const TEST: usize = 30;

/// Two epochs with a larger λ than the default, so Eq. (4)'s regularizer
/// weighs in every step.
fn config() -> TrainConfig {
    TrainConfig {
        epochs: 2,
        lambda: 1e-3,
        seed: 2018,
        ..TrainConfig::default()
    }
}

/// The split `SystemBuilder` generates for [`config`].
fn split() -> SplitDataset {
    DatasetSpec {
        kind: DatasetKind::Basic,
        train: TRAIN,
        test: TEST,
        seed: config().seed,
    }
    .generate()
}

fn system(algorithm: TrainingAlgorithm) -> TrainedSystem {
    SystemBuilder::new(DatasetKind::Basic)
        .dims(DIMS)
        .rank(RANK)
        .algorithm(algorithm)
        .train_samples(TRAIN)
        .test_samples(TEST)
        .train_config(config())
        .build()
}

/// Compares `actual` with `tests/golden/<name>`, reporting the first
/// line that differs.
fn check(name: &str, actual: &str) {
    let path = format!("{}/tests/golden/{name}", env!("CARGO_MANIFEST_DIR"));
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {path}: {e}"));
    for (i, (want, got)) in expected.lines().zip(actual.lines()).enumerate() {
        assert_eq!(want, got, "{name}, line {}", i + 1);
    }
    assert_eq!(expected, actual, "{name}: the line counts differ");
}

/// FNV-1a over the matrix's f32 bit patterns, row-major.
fn checksum(m: &Matrix) -> u64 {
    m.as_slice().iter().fold(0xcbf2_9ce4_8422_2325, |h, v| {
        (h ^ u64::from(v.to_bits())).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The system's weights and predictor factors, the training history, and
/// the TER and ρ (%) the system reports.
fn snapshot(sys: &TrainedSystem, history: &History) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{} dims {DIMS:?} rank {RANK}", sys.algorithm());
    let net = sys.network();
    for (l, layer) in net.mlp().layers().iter().enumerate() {
        let mut factors = vec![("W", layer.w())];
        if let Some(p) = net.predictors().get(l) {
            factors.extend([("U", p.u()), ("V", p.v())]);
        }
        for (name, m) in factors {
            let (rows, cols) = m.shape();
            let _ = writeln!(out, "{name}{l} {rows}x{cols} {:016x}", checksum(m));
        }
    }
    for (e, epoch) in history.epochs.iter().enumerate() {
        let (loss, lr) = (epoch.train_loss, epoch.lr);
        let _ = writeln!(out, "epoch {e} loss {loss:?} lr {lr:?}");
    }
    let Evaluation { ter, rho } = sys.evaluate();
    let _ = writeln!(out, "TER {ter:?}");
    if rho.is_empty() {
        let _ = writeln!(out, "rho N.A.");
    } else {
        let _ = writeln!(out, "rho {rho:?}");
    }
    out
}

#[test]
fn end_to_end_training_is_pinned() {
    let (net, history) = end_to_end::train(DIMS, RANK, &split(), &config());
    let sys = system(TrainingAlgorithm::EndToEnd);
    assert_eq!(&net, sys.network(), "the system trains the same network");
    check("train_end_to_end.txt", &snapshot(&sys, &history));
}

#[test]
fn svd_training_is_pinned() {
    let (net, history) = svd_baseline::train(DIMS, RANK, &split(), &config());
    let sys = system(TrainingAlgorithm::Svd);
    assert_eq!(&net, sys.network(), "the system trains the same network");
    check("train_svd.txt", &snapshot(&sys, &history));
}

#[test]
fn no_uv_training_is_pinned() {
    let (mlp, history) = no_uv::train(DIMS, &split(), &config());
    let sys = system(TrainingAlgorithm::NoUv);
    assert_eq!(&mlp, sys.network().mlp(), "the system trains the same W");
    check("train_no_uv.txt", &snapshot(&sys, &history));
}
