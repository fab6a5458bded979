//! Dataset generation: BASIC, ROT and BG-RAND variants.

use crate::dataset::{Dataset, SplitDataset};
use crate::glyph::{render_digit, GlyphStyle};
use crate::transform::Affine;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt;

/// Which MNIST variant to synthesize (Larochelle et al. 2007 naming).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum DatasetKind {
    /// Plain digits with mild affine jitter (`mnist-basic`).
    Basic,
    /// Digits rotated by a uniform random angle in `[0, 2π)` (`mnist-rot`).
    Rot,
    /// Digits superimposed on uniform random background noise
    /// (`mnist-back-rand`) — destroys input sparsity.
    BgRand,
}

impl DatasetKind {
    /// All three variants, in the order the paper's figures list them.
    pub const ALL: [DatasetKind; 3] = [DatasetKind::Basic, DatasetKind::BgRand, DatasetKind::Rot];
}

impl fmt::Display for DatasetKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            DatasetKind::Basic => "basic",
            DatasetKind::Rot => "rot",
            DatasetKind::BgRand => "bg_rand",
        };
        f.write_str(name)
    }
}

/// A complete specification of a dataset to generate; equal specs generate
/// bit-identical datasets.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct DatasetSpec {
    /// Variant to generate.
    pub kind: DatasetKind,
    /// Number of training samples.
    pub train: usize,
    /// Number of held-out test samples.
    pub test: usize,
    /// RNG seed; train and test streams are derived from it.
    pub seed: u64,
}

impl DatasetSpec {
    /// Generates the train/test split.
    ///
    /// # Example
    ///
    /// ```
    /// use sparsenn_datasets::{DatasetKind, DatasetSpec};
    /// let split = DatasetSpec { kind: DatasetKind::Rot, train: 10, test: 5, seed: 3 }.generate();
    /// assert_eq!(split.train.len(), 10);
    /// ```
    pub fn generate(&self) -> SplitDataset {
        // Distinct, kind-tagged streams so train/test never overlap and
        // variants differ even with equal seeds.
        let tag = match self.kind {
            DatasetKind::Basic => 0x1000_0000u64,
            DatasetKind::Rot => 0x2000_0000,
            DatasetKind::BgRand => 0x3000_0000,
        };
        let train = generate_portion(self.kind, self.train, self.seed ^ tag ^ 0xAAAA);
        let test = generate_portion(self.kind, self.test, self.seed ^ tag ^ 0x5555_0000);
        SplitDataset { train, test }
    }
}

/// Maximum brightness of BG-RAND background pixels. High enough to bury the
/// anti-aliased stroke edges (making the task hard and the input dense),
/// low enough that stroke cores stay visible.
const BG_NOISE_MAX: f32 = 0.85;

fn generate_portion(kind: DatasetKind, n: usize, seed: u64) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut images = Vec::with_capacity(n);
    let mut labels = Vec::with_capacity(n);
    for i in 0..n {
        // Balanced classes in round-robin order; the RNG drives everything else.
        let digit = (i % crate::NUM_CLASSES) as u8;
        let style = GlyphStyle {
            thickness: rng.gen_range(0.035..0.060),
            softness: rng.gen_range(0.025..0.040),
            intensity: rng.gen_range(0.80..1.0),
        };
        // Mild jitter for every variant.
        let jitter = Affine::jitter(
            rng.gen_range(-0.12..0.12),
            rng.gen_range(0.85..1.12),
            rng.gen_range(0.85..1.12),
            rng.gen_range(-0.15..0.15),
            rng.gen_range(-0.06..0.06),
            rng.gen_range(-0.06..0.06),
        );
        let xf = match kind {
            DatasetKind::Rot => {
                let theta = rng.gen_range(0.0..(2.0 * std::f32::consts::PI));
                jitter.compose(&Affine::rotation(theta))
            }
            _ => jitter,
        };
        let mut img = render_digit(digit, &xf, &style);
        if kind == DatasetKind::BgRand {
            for p in &mut img {
                let noise: f32 = rng.gen_range(0.0..BG_NOISE_MAX);
                *p = p.max(noise);
            }
        }
        images.push(img);
        labels.push(digit);
    }
    Dataset::new(kind, images, labels)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(kind: DatasetKind) -> DatasetSpec {
        DatasetSpec {
            kind,
            train: 60,
            test: 30,
            seed: 7,
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = spec(DatasetKind::Rot).generate();
        let b = spec(DatasetKind::Rot).generate();
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a = spec(DatasetKind::Basic).generate();
        let b = DatasetSpec {
            seed: 8,
            ..spec(DatasetKind::Basic)
        }
        .generate();
        assert_ne!(a, b);
    }

    #[test]
    fn train_and_test_do_not_alias() {
        let s = spec(DatasetKind::Basic).generate();
        assert_ne!(s.train.image(0), s.test.image(0));
    }

    #[test]
    fn classes_are_balanced() {
        let s = spec(DatasetKind::Basic).generate();
        let h = s.train.class_histogram();
        assert!(h.iter().all(|&c| c == 6), "{h:?}");
    }

    #[test]
    fn basic_and_rot_are_sparse_bg_rand_is_dense() {
        let basic = spec(DatasetKind::Basic).generate().train;
        let rot = spec(DatasetKind::Rot).generate().train;
        let bg = spec(DatasetKind::BgRand).generate().train;
        assert!(
            basic.input_sparsity() > 0.55,
            "basic sparsity {}",
            basic.input_sparsity()
        );
        assert!(
            rot.input_sparsity() > 0.55,
            "rot sparsity {}",
            rot.input_sparsity()
        );
        assert!(
            bg.input_sparsity() < 0.02,
            "bg_rand sparsity {}",
            bg.input_sparsity()
        );
    }

    #[test]
    fn pixel_range_is_unit_interval() {
        for kind in DatasetKind::ALL {
            let d = spec(kind).generate().train;
            for (img, _) in d.iter() {
                assert!(img.iter().all(|&p| (0.0..=1.0).contains(&p)));
            }
        }
    }
}
