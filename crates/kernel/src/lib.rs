//! Performance-first CPU inference kernels for SparseNN.
//!
//! Every other execution substrate in this repository *models* speed — the
//! cycle-accurate machine, the golden fixed-point reference, the analytic
//! SIMD platforms. This crate is engineered for it: a two-stage design in
//! the style of SparseFlow that turns SparseNN's input/output sparsity into
//! **measured wall-clock** wins on a general-purpose core.
//!
//! 1. **Prescan** ([`BlockIndex`]): one pass over the activation vector
//!    builds a nonzero-block index — per-layer bitmask words plus a
//!    live-block list over fixed-size column blocks. Cost: `O(n)` loads,
//!    no multiplies.
//! 2. **Compute** ([`SparseKernel`]): the paper's broadcast dataflow on a
//!    general-purpose core. Weights are repacked once into row tiles of
//!    64 rows, each column-block-major: column block `b` of a tile is one
//!    contiguous `rows × block` panel. Each live activation block is
//!    broadcast to every predictor-active row of the tile, which
//!    multiplies it into its own i32 lanes: at block 8, 16 or 32 each
//!    lane takes the pair sum `w[2j]·a[2j] + w[2j+1]·a[2j+1]`, so each 8
//!    words of a row are one `pmaddwd` into 4 lanes. Dead blocks and
//!    bypassed rows are never touched. V runs the same pass, and U's
//!    verdicts are `r` axpys over the rows. A batch runs row tile →
//!    sample → live block, so every sample reuses one tile of W while it
//!    is in cache.
//!
//! The hot path allocates nothing: all intermediates live in a
//! preallocated [`Scratch`] arena reused across samples and batches.
//!
//! Results are **bit-exact** against the golden fixed-point model
//! (`sparsenn_model::fixedpoint`) in both UV modes. Each lane holds
//! products of a packed weight and a Q6.10 activation, so one product is
//! at most `max|w| · 2¹⁵` in magnitude. Packing records the layer's
//! largest `|w|` and from it `K = ⌊(2³¹ − 1) / (max|w| · 2¹⁵)⌋`: any `K`
//! such products sum exactly in an `i32` (`K ≥ 1` always, since
//! `max|w| ≤ 2¹⁵`). A pair lane takes two products per block, so it
//! flushes into the i64 [`Accumulator`](sparsenn_numeric::Accumulator)
//! every `⌊K/2⌋` blocks and never holds more than `K` products. `K ≥ 2`
//! means `max|w| ≤ 32 767`, so even one pair stays below 2³¹. A `K = 1`
//! layer (a weight of exactly −32.0) and the other block widths keep one
//! product per lane and flush every `K` blocks. Either way no lane ever
//! wraps. The lane adds are plain `+`, never `wrapping_add`, so a debug
//! build checks the bound on every add. From there the argument is the
//! golden one: a zero activation (inside a live block, or in the zero
//! padding) contributes exactly `0`, and integer addition does not depend
//! on order, so neither block order nor lane order matters.
//!
//! [`Strategy::Dense`] keeps an honest dense baseline in the same crate
//! (the same pass over every block and row, same layout, same lanes), so
//! "prescan speedup" is measured against the best dense implementation of
//! the same arithmetic, not a strawman.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod kernel;
mod packed;
mod prescan;

pub use kernel::{
    KernelBatchRun, KernelLayer, KernelRun, LayerStats, Scratch, SparseKernel, Strategy,
};
pub use prescan::BlockIndex;

/// Default column-block size, tuned by measurement (`--bin kernel` in the
/// bench crate): with scattered zeros the chance a block is entirely dead
/// falls off exponentially in the block width, so the finer 8-wide block
/// (16 bytes per tile row, one vector of lanes) skips markedly more work
/// than 16 or 32 on both glyph-style inputs and ReLU'd hidden
/// activations, and still amortizes the index indirection.
pub const DEFAULT_BLOCK: usize = 8;
