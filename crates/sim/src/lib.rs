//! Cycle-level simulator of the 64-PE **SparseNN** accelerator.
//!
//! This crate is the reproduction's stand-in for the paper's Verilog RTL:
//! a deterministic, cycle-by-cycle model of
//!
//! * the [`Pe`](pe::Pe) micro-architecture (paper Fig. 5): activation queue,
//!   leading-nonzero detectors over the source register file and the 1-bit
//!   predictor register bank, W/U/V memories, the MAC datapath and the
//!   ping-pong activation register files;
//! * the three-phase computation schedule (paper §V.D): **V phase**
//!   (column-interleaved partial sums reduced through the H-tree's ACC
//!   routers), **U phase** (row-interleaved consumption of the broadcast
//!   V results into the predictor bank) and **W phase** (row-interleaved
//!   feedforward with *both* input-sparsity skipping — only nonzero
//!   activations are broadcast — and output-sparsity skipping — only rows
//!   whose predictor bit is set touch the W memory);
//! * the EIE baseline: [`UvMode::Off`](sparsenn_model::fixedpoint::UvMode::Off)
//!   skips the V/U phases and computes
//!   every row, which is exactly the paper's "SparseNN with the UV
//!   predictor disabled is the conventional EIE architecture";
//! * analytic models of the SIMD platforms of Table IV ([`simd`]).
//!
//! Outputs are **bit-exact** against the golden fixed-point model of
//! `sparsenn-model` — the integration tests assert equality on random
//! networks — and every simulation returns the [`events::MachineEvents`]
//! activity counters the energy model consumes.
//!
//! # Example
//!
//! ```
//! use sparsenn_sim::{Machine, MachineConfig, MachineError};
//! use sparsenn_model::fixedpoint::{FixedNetwork, UvMode};
//! use sparsenn_model::Mlp;
//! use sparsenn_linalg::init::seeded_rng;
//!
//! let mlp = Mlp::random(&[32, 64, 10], &mut seeded_rng(7));
//! let net = FixedNetwork::from_mlp(&mlp);
//! let machine = Machine::new(MachineConfig::default());
//! let x = net.quantize_input(&vec![0.25f32; 32]);
//! let run = machine.run_network(&net, &x, UvMode::Off)?;
//! assert_eq!(run.layers.len(), 2);
//! assert!(run.total_cycles() > 0);
//! # Ok::<(), MachineError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
pub mod events;
mod machine;
pub mod pe;
pub mod simd;

pub use config::{ConfigError, LayerFitError, MachineConfig, MAX_LATENCY_CYCLES, MAX_PES};
pub use events::MachineEvents;
pub use machine::{
    BatchLayerRun, BatchNetworkRun, BatchTiming, LayerRun, Machine, MachineError, NetworkRun,
};
