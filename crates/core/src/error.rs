//! The crate-wide error type for the public inference API.
//!
//! Every fallible entry point of `sparsenn-core` — [`Session`] runs,
//! [`TrainedSystem::simulate_sample`] and batch simulation — returns
//! `Result<_, SparseNnError>` instead of panicking, so serving code can
//! route bad requests without tearing the process down.
//!
//! [`Session`]: crate::engine::Session
//! [`TrainedSystem::simulate_sample`]: crate::TrainedSystem::simulate_sample

use sparsenn_sim::MachineError;

/// Errors surfaced by the public SparseNN inference API.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum SparseNnError {
    /// A test-set sample index was out of range.
    SampleOutOfRange {
        /// The requested index.
        index: usize,
        /// Number of samples available.
        len: usize,
    },
    /// An input activation vector's width does not match the network.
    InputWidthMismatch {
        /// Width the network's first layer expects.
        expected: usize,
        /// Width supplied.
        got: usize,
    },
    /// A layer's shape exceeds a limit of the executing backend.
    LayerDoesNotFit {
        /// Index of the offending layer.
        layer: usize,
        /// Human-readable description of the violated limit.
        reason: String,
    },
    /// A layer's weights exceed a chip's W memory. The typed counterpart
    /// of the capacity case of [`LayerDoesNotFit`](Self::LayerDoesNotFit):
    /// it carries the exact per-PE word counts, so callers can tell *how
    /// far* over budget a layer is — and the multi-chip partition planner
    /// reports its per-chip capacity diagnostics through the same type.
    WMemoryOverflow {
        /// Index of the offending layer.
        layer: usize,
        /// Weight words the layer needs per PE.
        words: usize,
        /// Words the W memory holds per PE.
        capacity: usize,
    },
    /// The network has no layers.
    EmptyNetwork,
    /// A batched run ([`InferenceBackend::run_batch`]) was asked to
    /// execute zero samples.
    ///
    /// [`InferenceBackend::run_batch`]: crate::engine::InferenceBackend::run_batch
    EmptyBatch,
    /// A worker thread of a parallel batch run terminated abnormally.
    WorkerPanicked,
    /// A backend returned a record with a different layer count than the
    /// network being served — the per-layer counters cannot be aggregated.
    LayerCountMismatch {
        /// Layers the serving session aggregates over.
        expected: usize,
        /// Layers the backend's record carried.
        got: usize,
    },
    /// Model-parallel partitioning failed for a reason other than
    /// capacity (capacity overflows surface as
    /// [`WMemoryOverflow`](Self::WMemoryOverflow)): no chips, an invalid
    /// [`PartitionPlan`](sparsenn_partition::PartitionPlan), or a
    /// [`PartitionedMachine`](crate::engine::PartitionedMachine) asked to
    /// serve a network other than the one it was planned for.
    Partition {
        /// Human-readable description of the failure.
        message: String,
    },
}

impl std::fmt::Display for SparseNnError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SparseNnError::SampleOutOfRange { index, len } => {
                write!(
                    f,
                    "sample index {index} out of range for a {len}-sample test set"
                )
            }
            SparseNnError::InputWidthMismatch { expected, got } => {
                write!(
                    f,
                    "input width mismatch: network expects {expected} activations, got {got}"
                )
            }
            SparseNnError::LayerDoesNotFit { layer, reason } => {
                write!(f, "layer {layer} does not fit the backend: {reason}")
            }
            SparseNnError::WMemoryOverflow {
                layer,
                words,
                capacity,
            } => {
                write!(
                    f,
                    "layer {layer} overflows W memory: needs {words} weight words per PE, \
                     memory holds {capacity} (partition the layer across chips to serve it)"
                )
            }
            SparseNnError::EmptyNetwork => f.write_str("network has no layers"),
            SparseNnError::EmptyBatch => f.write_str("batch has no samples"),
            SparseNnError::WorkerPanicked => {
                f.write_str("a batch-simulation worker thread panicked")
            }
            SparseNnError::LayerCountMismatch { expected, got } => {
                write!(
                    f,
                    "backend returned {got} layer records for a {expected}-layer network"
                )
            }
            SparseNnError::Partition { message } => {
                write!(f, "model-parallel partitioning failed: {message}")
            }
        }
    }
}

impl std::error::Error for SparseNnError {}

impl From<sparsenn_partition::PartitionError> for SparseNnError {
    fn from(e: sparsenn_partition::PartitionError) -> Self {
        use sparsenn_partition::PartitionError as Pe;
        match e {
            // The planner's capacity diagnostics carry the same per-PE
            // word sizes as the machine's typed overflow — surface them
            // through the same variant.
            Pe::ChipCapacity {
                layer,
                words,
                capacity,
                ..
            } => SparseNnError::WMemoryOverflow {
                layer,
                words,
                capacity,
            },
            Pe::InputTooWide { layer, cols, max } => SparseNnError::LayerDoesNotFit {
                layer,
                reason: format!(
                    "{cols} input activations exceed one chip's {max}-entry register files"
                ),
            },
            Pe::OutputTooWide {
                layer,
                rows,
                max,
                chips,
            } => SparseNnError::LayerDoesNotFit {
                layer,
                reason: format!(
                    "{rows} output rows exceed the {max}-entry register files of all {chips} \
                     chip(s) combined"
                ),
            },
            Pe::EmptyNetwork => SparseNnError::EmptyNetwork,
            other => SparseNnError::Partition {
                message: other.to_string(),
            },
        }
    }
}

impl From<MachineError> for SparseNnError {
    fn from(e: MachineError) -> Self {
        match e {
            MachineError::LayerDoesNotFit { layer, reason } => {
                SparseNnError::LayerDoesNotFit { layer, reason }
            }
            MachineError::WMemoryOverflow {
                layer,
                words,
                capacity,
            } => SparseNnError::WMemoryOverflow {
                layer,
                words,
                capacity,
            },
            MachineError::InputWidthMismatch { expected, got } => {
                SparseNnError::InputWidthMismatch { expected, got }
            }
            MachineError::EmptyNetwork => SparseNnError::EmptyNetwork,
            MachineError::EmptyBatch => SparseNnError::EmptyBatch,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = SparseNnError::SampleOutOfRange { index: 9, len: 4 };
        assert!(e.to_string().contains("9") && e.to_string().contains("4"));
        let e = SparseNnError::InputWidthMismatch {
            expected: 784,
            got: 10,
        };
        assert!(e.to_string().contains("784"));
        let e = SparseNnError::LayerCountMismatch {
            expected: 2,
            got: 3,
        };
        assert!(e.to_string().contains("3") && e.to_string().contains("2"));
    }

    #[test]
    fn machine_errors_convert() {
        let e: SparseNnError = MachineError::InputWidthMismatch {
            expected: 3,
            got: 5,
        }
        .into();
        assert_eq!(
            e,
            SparseNnError::InputWidthMismatch {
                expected: 3,
                got: 5
            }
        );
        let e: SparseNnError = MachineError::EmptyNetwork.into();
        assert_eq!(e, SparseNnError::EmptyNetwork);
        let e: SparseNnError = MachineError::WMemoryOverflow {
            layer: 1,
            words: 6272,
            capacity: 4096,
        }
        .into();
        assert_eq!(
            e,
            SparseNnError::WMemoryOverflow {
                layer: 1,
                words: 6272,
                capacity: 4096
            }
        );
        let msg = e.to_string();
        assert!(msg.contains("6272") && msg.contains("4096"), "{msg}");
    }
}
