//! Cycle-level simulator of the 64-PE **SparseNN** accelerator.
//!
//! This crate is the reproduction's stand-in for the paper's Verilog RTL:
//! a deterministic, cycle-exact model of
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
//! # Cycle-exact, advanced by events
//!
//! Every cycle count, counter and completion time is the one a
//! cycle-by-cycle simulation of the model gives, but the host does work
//! per event — per flit, per MAC, per partial sum — rather than per clock
//! tick and PE. The NoC trees tick while a flit moves; a tree in which
//! nothing can move until a PE pops (every flit landed, the root held by
//! the sink gate, no PE able to inject) or that waits for the PEs to
//! drain jumps to that cycle and books the skipped ticks' cycles, sink
//! stalls and credit stalls in one step. A PE's datapath holds each
//! activation for a fixed number of cycles, so its pop cycles follow from
//! the arrival cycles ([`pe`]); its MACs run in bulk per row, and these
//! counters are credited per phase rather than per cycle: `macs`,
//! `w_reads`, `u_reads`, `v_reads`, `queue_pushes`, `queue_pops`,
//! `pred_scans`, `pe_busy_cycles`, `pe_idle_cycles` and
//! [`LayerRun::pe_busy`], with each row's last-MAC cycle (the source of
//! [`LayerRun::row_ready`]) set to the cycle the one-MAC-per-cycle
//! datapath would have issued it. Golden snapshots in the repository's
//! `tests/cycle_golden.rs` pin all of it on several machines.
//!
//! # Chip tiles
//!
//! [`Machine::run_tiles`] simulates one layer on several identical chips,
//! each holding a tile of its rows. A tile is a row list into the shared
//! weights, not a copy: position `i` of a tile computes output row
//! `tile[i]`, so local row `k` of PE `p` reads W and U row
//! `tile[p + k · num_pes]`. Every chip receives the whole input, and the V
//! reduction depends only on it, V and the machine, so it is simulated
//! once per layer; each tile replays the reduced V results into its own
//! activation queues for its U phase, then runs its own W phase. Each chip
//! still books the whole V work (V MACs and reads, the reduce tree's
//! books) and its own phase lengths, so every tile's [`LayerRun`] equals
//! the run of a chip that holds only that tile. [`Machine::run_layer`] is
//! the one-tile case.
//!
//! # Batches
//!
//! [`Machine::run_network_batch`] runs each sample through the serial core
//! and adds one union W pass per layer. Its [`BatchNetworkRun`] holds both
//! books: `samples`, each sample's [`NetworkRun`], bit-identical to running
//! it alone, and `layers`, one amortized [`BatchTiming`] per layer. Every
//! rejection, of the machine, a layer's shape or an input, is a
//! [`MachineError`].
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

pub use config::{ConfigError, MachineConfig, MAX_LATENCY_CYCLES, MAX_PES};
pub use events::MachineEvents;
pub use machine::{BatchNetworkRun, BatchTiming, LayerRun, Machine, MachineError, NetworkRun};
