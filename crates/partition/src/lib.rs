//! Model-parallel partitioning: serve networks bigger than one chip's
//! W memory by tiling each layer's **output neurons** (rows of W) across
//! several SparseNN chips.
//!
//! A single Table-II machine holds 8 MB of W memory; any layer needing
//! more per-PE weight words than [`MachineConfig::w_capacity_words_per_pe`]
//! is rejected with `WMemoryOverflow`. This crate closes that gap the way
//! SCNN-style accelerators scale: split the rows of each weight matrix
//! into per-chip *tiles*, broadcast the (sparse) input activations to
//! every chip, compute each tile on an unmodified chip, and gather the
//! per-chip output slices over a chip-level interconnect. Row arithmetic
//! is row-local, so the gathered outputs are **bit-identical** to a
//! single big chip's.
//!
//! Three pieces:
//!
//! * [`plan`] / [`PartitionPlan`] — the planner: a greedy,
//!   nnz-weight-balanced assignment of rows to chips under each chip's
//!   W-memory capacity (tiles disjoint, exhaustive, each fits — the
//!   invariants [`PartitionPlan::validate`] checks). The plan is a pure
//!   function of the network, the chip configuration and the chip
//!   count, so it is recomputed, never stored;
//! * [`InterChipConfig`] — the communication cost model: the same
//!   radix-R tree/flit vocabulary as the PE-level H-tree of
//!   `sparsenn-noc` ([`sparsenn_noc::tree_levels`]), lifted one level up
//!   to chip-to-chip links with their own (slower) hop latency and link
//!   clock;
//! * the execution model lives in `sparsenn-core`
//!   (`engine::PartitionedMachine`), which plans one network at
//!   construction, serves only that network, runs each tile on the
//!   cycle-accurate `Machine` and stamps records with
//!   `max(chip tiles) + gather` critical paths.
//!
//! # Example
//!
//! ```
//! use sparsenn_partition::{plan, InterChipConfig};
//! use sparsenn_model::fixedpoint::FixedNetwork;
//! use sparsenn_model::Mlp;
//! use sparsenn_linalg::init::seeded_rng;
//! use sparsenn_sim::MachineConfig;
//!
//! // A chip whose W memory holds only 2 K words per PE…
//! let chip = MachineConfig { w_mem_bytes: 4 * 1024, ..MachineConfig::default() };
//! let net = FixedNetwork::from_mlp(&Mlp::random(&[64, 256, 10], &mut seeded_rng(1)));
//! // …cannot hold the 256×64 layer alone (4 rows/PE × 64 cols = 256 words
//! // fits, so use 2 chips for a genuinely big layer in real use).
//! let p = plan(&net, &chip, 2).unwrap();
//! assert_eq!(p.chips(), 2);
//! p.validate(&chip).unwrap();
//! let icc = InterChipConfig::default();
//! assert!(icc.broadcast_cycles(2, 100) > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod interchip;
mod plan;
mod schedule;

pub use interchip::InterChipConfig;
pub use plan::{plan, LayerPlan, PartitionError, PartitionPlan};
pub use schedule::{PipelineMode, SliceTransfer};

// Re-exported so downstream code can name the capacity type the planner
// diagnostics are phrased in without a direct `sparsenn-sim` dependency.
pub use sparsenn_sim::MachineConfig;
