//! The trained systems the workloads serve, built from the run's seed.

use crate::stats::secs;
use sparsenn_core::datasets::{Dataset, DatasetKind, DatasetSpec};
use sparsenn_core::train::TrainConfig;
use sparsenn_core::{Profile, SystemBuilder, TrainedSystem, TrainingAlgorithm};
use std::time::Instant;

/// How a workload's system is generated and trained.
#[derive(Clone, Debug)]
pub struct Recipe {
    pub kind: DatasetKind,
    pub dims: Vec<usize>,
    pub rank: usize,
    pub train: usize,
    pub test: usize,
    pub epochs: usize,
    pub lr: f32,
    /// Distinct request images a run cycles through.
    pub requests: usize,
}

impl Recipe {
    /// The mnist-basic study network, `[784, 256, 10]` at rank 8: the
    /// fast-profile `fleet::study_system` recipe of the `sparsenn-bench`
    /// crate (500 training images, 400 test images, 2 epochs).
    pub fn study() -> Self {
        Self {
            kind: DatasetKind::Basic,
            dims: vec![784, 256, 10],
            rank: 8,
            train: 500,
            test: 400,
            epochs: 2,
            lr: TrainConfig::default().lr,
            requests: 16,
        }
    }

    /// The paper-shaped network (`Profile::hw_dims_5layer`, rank 15) on
    /// `kind`, lightly trained: the cycle and energy behaviour depends on
    /// layer widths and the predictors' sparsity, not on polished accuracy.
    pub fn paper(kind: DatasetKind) -> Self {
        Self {
            kind,
            dims: Profile::Fast.hw_dims_5layer(),
            rank: Profile::Fast.table_rank(),
            train: 300,
            test: 64,
            epochs: 1,
            lr: 0.01,
            requests: 16,
        }
    }
}

/// A freshly built system and where its set-up time went.
pub struct Built {
    pub sys: TrainedSystem,
    /// `DatasetSpec::generate` of the system's split, timed on its own.
    pub generate_s: f64,
    /// `SystemBuilder::build`: generation, training and quantization.
    pub build_s: f64,
}

/// Seed of every system's training data and weights. The system under test
/// is the same on every run; the run's seed picks the requests it serves
/// ([`requests`]) and the simulated traffic.
const SYSTEM_SEED: u64 = 2018;

/// Builds `recipe`'s system.
pub fn build(recipe: &Recipe) -> Built {
    let seed = SYSTEM_SEED;
    let spec = DatasetSpec {
        kind: recipe.kind,
        train: recipe.train,
        test: recipe.test,
        seed,
    };
    let t0 = Instant::now();
    std::hint::black_box(spec.generate());
    let t1 = Instant::now();
    let sys = SystemBuilder::new(recipe.kind)
        .dims(&recipe.dims)
        .rank(recipe.rank)
        .algorithm(TrainingAlgorithm::EndToEnd)
        .train_samples(recipe.train)
        .test_samples(recipe.test)
        .train_config(TrainConfig {
            epochs: recipe.epochs,
            lr: recipe.lr,
            seed,
            ..TrainConfig::default()
        })
        .build();
    let t2 = Instant::now();
    Built {
        sys,
        generate_s: secs(t0, t1),
        build_s: secs(t1, t2),
    }
}

/// The images a run sends: `recipe.requests` fresh images of the system's
/// dataset variant, generated from the run's seed.
pub fn requests(recipe: &Recipe, seed: u64) -> Dataset {
    DatasetSpec {
        kind: recipe.kind,
        train: 0,
        test: recipe.requests,
        seed: derive(seed, 1),
    }
    .generate()
    .test
}

/// An independent 64-bit stream seed from the run's seed (SplitMix64).
pub fn derive(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}
