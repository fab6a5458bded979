//! The SparseNN on-chip network: a 3-level H-tree over 64 processing
//! elements with **buffered, credit-based flow control** (paper §V.B).
//!
//! Two traffic patterns are modelled cycle by cycle:
//!
//! * [`BroadcastTree`] — the W/U-phase pattern: nonzero activations are
//!   injected by their home PE, concentrated up the tree (at every router
//!   the activation with the **smallest index** wins arbitration; losers
//!   wait in the router buffer), and the root broadcasts one activation per
//!   cycle back down to *all* PEs. Because arbitration is local, delivery
//!   can be **out of order** — harmless, since fixed-point accumulation is
//!   order independent (see `sparsenn-numeric`).
//! * [`ReduceTree`] — the V-phase pattern (paper Fig. 4): PEs inject
//!   per-row partial sums; every router carries an ACC pipeline stage that
//!   merges the four children's partials, and the root emits one finished
//!   row sum per cycle.
//!
//! Both trees preserve two hardware invariants the tests enforce: **no flit
//! is ever dropped** (credit flow control blocks the sender instead) and
//! **router buffers never exceed their capacity**.
//!
//! A tick costs host work per moving flit, not per router: it visits only
//! the routers a flit landed in, those whose parent returned a credit and
//! those that moved a flit in the last tick. A broadcast tree in which no
//! flit can move until the sink opens is [quiet](BroadcastTree::is_quiet),
//! and [`BroadcastTree::skip_quiet`] books any number of its ticks at once;
//! an empty reduce tree does the same with [`ReduceTree::skip_empty`].
//!
//! # Example
//!
//! ```
//! use sparsenn_noc::{ActFlit, BroadcastTree, NocConfig};
//!
//! let mut tree = BroadcastTree::new(&NocConfig::default());
//! assert!(tree.try_inject(5, ActFlit { index: 42, value: 100 }));
//! let mut delivered = Vec::new();
//! for _ in 0..32 {
//!     // The root emits the flit; every PE receives it on `delivery`.
//!     if let Some((delivery, f)) = tree.tick(true) {
//!         delivered.push((delivery, f.index));
//!     }
//! }
//! assert_eq!(delivered.len(), 1);
//! assert_eq!(delivered[0].1, 42);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod broadcast;
mod config;
mod link;
mod reduce;
mod stats;

pub use broadcast::BroadcastTree;
pub use config::{tree_levels, NocConfig};
pub use reduce::ReduceTree;
pub use stats::NocStats;

/// A broadcast-network flit: one nonzero activation and its global index.
///
/// The index doubles as the arbitration key ("the activation with the
/// smallest index will be granted to the next level") and as the column
/// address the receiving PEs use for their weight lookup. The value is the
/// raw two's-complement encoding of a Q6.10 word.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct ActFlit {
    /// Global activation index (column of the weight matrix).
    pub index: u32,
    /// Raw 16-bit fixed-point activation value.
    pub value: i16,
}
