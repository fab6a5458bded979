//! Synthetic MNIST-BASIC / ROT / BG-RAND dataset generators.
//!
//! The paper evaluates on the MNIST variants of Larochelle et al. (ICML
//! 2007): the plain digits (**BASIC**), digits rotated by a uniform random
//! angle (**ROT**) and digits superimposed on uniform random backgrounds
//! (**BG-RAND**). The original `.amat` files are not redistributable /
//! available offline, so this crate *synthesizes* equivalent datasets: each
//! digit class is a parametric set of strokes, rasterized at 28×28 with
//! random affine jitter, then transformed per variant.
//!
//! What the substitution preserves (and why it is sufficient for the
//! paper's experiments):
//!
//! * class-conditional structure — a classifier must learn real shape
//!   features, and harder variants yield higher test error;
//! * the **difficulty ordering** BASIC < ROT / BG-RAND (rotation removes
//!   orientation cues; background noise buries faint stroke pixels);
//! * the **input-sparsity profile**: BASIC and ROT images are mostly zeros
//!   (like MNIST's ≈ 80 % zero pixels) while BG-RAND images are dense —
//!   the exact property that makes BG-RAND's first hidden layer the most
//!   expensive in Fig. 7 of the paper.
//!
//! # Example
//!
//! ```
//! use sparsenn_datasets::{DatasetKind, DatasetSpec};
//!
//! let spec = DatasetSpec { kind: DatasetKind::Basic, train: 64, test: 32, seed: 1 };
//! let split = spec.generate();
//! assert_eq!(split.train.len(), 64);
//! assert_eq!(split.test.len(), 32);
//! // BASIC images are sparse, like real MNIST.
//! assert!(split.train.input_sparsity() > 0.5);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod dataset;
mod generator;
mod glyph;
mod render;
mod transform;

pub use dataset::{Dataset, SplitDataset};
pub use generator::{DatasetKind, DatasetSpec};
pub use glyph::{render_digit, GlyphStyle};
pub use render::{to_ascii, to_pgm};
pub use transform::Affine;

/// Side length of every generated image (28 × 28, like MNIST).
pub const IMAGE_SIDE: usize = 28;

/// Number of pixels per image.
pub const IMAGE_PIXELS: usize = IMAGE_SIDE * IMAGE_SIDE;

/// Number of digit classes.
pub const NUM_CLASSES: usize = 10;
