//! The partition planner and the plan it computes.

use sparsenn_model::fixedpoint::FixedNetwork;
use sparsenn_sim::MachineConfig;

/// Why a network could not be partitioned, or why a plan is invalid.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PartitionError {
    /// A plan needs at least one chip.
    NoChips,
    /// The network has no layers.
    EmptyNetwork,
    /// A layer's input width exceeds one chip's activation register
    /// files. Row tiling cannot help: every chip receives the *full*
    /// broadcast input, so the columns must fit each chip as-is.
    InputTooWide {
        /// Index of the offending layer.
        layer: usize,
        /// Input activations the layer needs.
        cols: usize,
        /// Register-file entries one chip holds.
        max: usize,
    },
    /// A layer's output rows exceed the combined activation register
    /// files of all chips: even tiles of `max` rows (the register-file
    /// limit, with unlimited W memory) cannot cover the layer.
    OutputTooWide {
        /// Index of the offending layer.
        layer: usize,
        /// Output rows the layer produces.
        rows: usize,
        /// Register-file entries one chip holds.
        max: usize,
        /// Chips the planner had available.
        chips: usize,
    },
    /// Even the best row tile overflows a chip's W memory — the
    /// chip-level counterpart of
    /// [`MachineError::WMemoryOverflow`](sparsenn_sim::MachineError::WMemoryOverflow),
    /// carrying the same per-PE word sizes (`sparsenn-core` surfaces it
    /// as its typed `WMemoryOverflow` error).
    ChipCapacity {
        /// Index of the offending layer.
        layer: usize,
        /// Weight words per PE the smallest assignable tile would need.
        words: usize,
        /// Words one chip's W memory holds per PE.
        capacity: usize,
        /// Chips the planner had available.
        chips: usize,
    },
    /// A plan failed structural validation (tiles not disjoint, not
    /// exhaustive, wrong chip count, …).
    Invalid {
        /// What is wrong with the plan.
        message: String,
    },
}

impl std::fmt::Display for PartitionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PartitionError::NoChips => f.write_str("a partition plan needs at least one chip"),
            PartitionError::EmptyNetwork => f.write_str("cannot partition an empty network"),
            PartitionError::InputTooWide { layer, cols, max } => write!(
                f,
                "layer {layer}: {cols} input activations exceed one chip's {max}-entry \
                 register files (row tiling cannot reduce the broadcast input)"
            ),
            PartitionError::OutputTooWide {
                layer,
                rows,
                max,
                chips,
            } => write!(
                f,
                "layer {layer}: {rows} output rows exceed the {max}-entry register files of \
                 all {chips} chip(s) combined"
            ),
            PartitionError::ChipCapacity {
                layer,
                words,
                capacity,
                chips,
            } => write!(
                f,
                "layer {layer}: even split over {chips} chip(s), a tile needs {words} weight \
                 words per PE against a capacity of {capacity}"
            ),
            PartitionError::Invalid { message } => write!(f, "invalid partition plan: {message}"),
        }
    }
}

impl std::error::Error for PartitionError {}

/// The row tiling of one layer: one (possibly empty) tile of global row
/// indices per chip.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LayerPlan {
    /// Total output rows of the layer.
    pub rows: usize,
    /// Input columns of the layer (broadcast whole to every chip).
    pub cols: usize,
    /// One sorted list of global row indices per chip.
    pub tiles: Vec<Vec<usize>>,
}

impl LayerPlan {
    /// Per-PE weight words a tile of `t` rows needs on `chip`.
    fn tile_words(&self, chip: &MachineConfig, t: usize) -> usize {
        t.div_ceil(chip.num_pes()) * self.cols
    }
}

/// A row-tiling of every layer of a network across `chips`
/// identically-configured chips.
///
/// Produced by [`plan`], whose output is a pure function of the
/// network, the chip configuration and the chip count: a plan is
/// recomputed wherever it is needed, never stored. Its structural
/// invariants ([`validate`](Self::validate)) are: per layer, the tiles
/// are **disjoint**, **exhaustive** (their union is exactly `0..rows`)
/// and **each fits its chip's W memory and register files**.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PartitionPlan {
    chips: usize,
    layers: Vec<LayerPlan>,
}

/// Plans a row tiling of `net` over `chips` chips of configuration
/// `chip`.
///
/// Rows are assigned greedily, heaviest first, to the least-loaded chip
/// that can still take a row — where a row's weight is its count of
/// nonzero quantized weights (+1, so all-zero rows still spread by
/// count). This balances the *static* work each chip does in the W
/// phase, while the capacity check guarantees each tile fits
/// [`MachineConfig::w_capacity_words_per_pe`].
///
/// A plan over one chip admits exactly the networks the single
/// `Machine` admits — same register-file and W-memory checks.
///
/// # Errors
///
/// [`PartitionError::NoChips`], [`PartitionError::EmptyNetwork`],
/// [`PartitionError::InputTooWide`] when a layer's *columns* exceed one
/// chip's register files, [`PartitionError::OutputTooWide`] when its
/// rows exceed all chips' register files combined (the binding limit is
/// the register files, not W memory), and
/// [`PartitionError::ChipCapacity`] when no assignment fits the W
/// memory (its `words`/`capacity` are the same per-PE sizes the
/// machine's `WMemoryOverflow` reports).
pub fn plan(
    net: &FixedNetwork,
    chip: &MachineConfig,
    chips: usize,
) -> Result<PartitionPlan, PartitionError> {
    if chips == 0 {
        return Err(PartitionError::NoChips);
    }
    if net.num_layers() == 0 {
        return Err(PartitionError::EmptyNetwork);
    }
    let max_act = chip.max_activations();
    let capacity = chip.w_capacity_words_per_pe();
    let mut layers = Vec::with_capacity(net.num_layers());
    for (l, w) in net.layers().iter().enumerate() {
        let (rows, cols) = (w.rows(), w.cols());
        if cols > max_act {
            return Err(PartitionError::InputTooWide {
                layer: l,
                cols,
                max: max_act,
            });
        }
        let mut layer = LayerPlan {
            rows,
            cols,
            tiles: vec![Vec::new(); chips],
        };
        // Largest tile one chip holds; feasibility is decided up front,
        // and the error names the *binding* constraint: the register
        // files when even an unlimited W memory could not take the
        // rows, else W capacity with the even split's requirement (for
        // one chip exactly the machine's own W-overflow check).
        // ceil(t / n_pes) × cols ≤ capacity  ⇔  t ≤ (capacity/cols) × n_pes
        // (a zero-column layer needs no W memory at all).
        let t_cap = capacity.checked_div(cols).map_or(rows, |groups| {
            groups.saturating_mul(chip.num_pes()).min(rows)
        });
        let t_max = t_cap.min(max_act);
        if rows > chips.saturating_mul(t_max) {
            if rows > chips.saturating_mul(max_act) {
                return Err(PartitionError::OutputTooWide {
                    layer: l,
                    rows,
                    max: max_act,
                    chips,
                });
            }
            return Err(PartitionError::ChipCapacity {
                layer: l,
                words: layer.tile_words(chip, rows.div_ceil(chips)),
                capacity,
                chips,
            });
        }
        // Heaviest rows first; ties keep ascending row order (stable).
        let weights: Vec<u64> = (0..rows)
            .map(|r| 1 + w.row(r).iter().filter(|v| !v.is_zero()).count() as u64)
            .collect();
        let mut order: Vec<usize> = (0..rows).collect();
        order.sort_by_key(|&r| std::cmp::Reverse(weights[r]));
        let mut loads = vec![0u64; chips];
        for r in order {
            // The least-loaded chip with room for one more row (always
            // exists: rows <= chips × t_max).
            let c = (0..chips)
                .filter(|&c| layer.tiles[c].len() < t_max)
                .min_by_key(|&c| (loads[c], c))
                .expect("feasibility checked above");
            layer.tiles[c].push(r);
            loads[c] += weights[r];
        }
        for tile in &mut layer.tiles {
            tile.sort_unstable();
        }
        layers.push(layer);
    }
    Ok(PartitionPlan { chips, layers })
}

impl PartitionPlan {
    /// Number of chips the plan spans.
    pub fn chips(&self) -> usize {
        self.chips
    }

    /// Per-layer tilings, input side first.
    pub fn layers(&self) -> &[LayerPlan] {
        &self.layers
    }

    /// Checks the structural invariants against a chip configuration:
    /// per layer, one tile per chip, tiles disjoint and exhaustive over
    /// `0..rows`, every tile (and the broadcast input) within the chip's
    /// limits.
    ///
    /// # Errors
    ///
    /// [`PartitionError::Invalid`] naming the first violation, or
    /// [`PartitionError::ChipCapacity`] /
    /// [`PartitionError::InputTooWide`] for capacity violations.
    pub fn validate(&self, chip: &MachineConfig) -> Result<(), PartitionError> {
        let invalid = |message: String| PartitionError::Invalid { message };
        if self.chips == 0 {
            return Err(PartitionError::NoChips);
        }
        for (l, layer) in self.layers.iter().enumerate() {
            if layer.tiles.len() != self.chips {
                return Err(invalid(format!(
                    "layer {l} has {} tiles for {} chips",
                    layer.tiles.len(),
                    self.chips
                )));
            }
            if layer.cols > chip.max_activations() {
                return Err(PartitionError::InputTooWide {
                    layer: l,
                    cols: layer.cols,
                    max: chip.max_activations(),
                });
            }
            let mut seen = vec![false; layer.rows];
            for (c, tile) in layer.tiles.iter().enumerate() {
                if tile.len() > chip.max_activations() {
                    return Err(invalid(format!(
                        "layer {l} tile {c}: {} rows exceed the {}-entry register files",
                        tile.len(),
                        chip.max_activations()
                    )));
                }
                let words = layer.tile_words(chip, tile.len());
                if words > chip.w_capacity_words_per_pe() {
                    return Err(PartitionError::ChipCapacity {
                        layer: l,
                        words,
                        capacity: chip.w_capacity_words_per_pe(),
                        chips: self.chips,
                    });
                }
                for &r in tile {
                    if r >= layer.rows {
                        return Err(invalid(format!(
                            "layer {l} tile {c}: row {r} out of range 0..{}",
                            layer.rows
                        )));
                    }
                    if seen[r] {
                        return Err(invalid(format!(
                            "layer {l}: row {r} assigned to more than one tile"
                        )));
                    }
                    seen[r] = true;
                }
            }
            if let Some(r) = seen.iter().position(|&s| !s) {
                return Err(invalid(format!(
                    "layer {l}: row {r} assigned to no tile (tiles are not exhaustive)"
                )));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparsenn_linalg::init::seeded_rng;
    use sparsenn_model::Mlp;
    use sparsenn_sim::MachineError;

    fn fixed(dims: &[usize], seed: u64) -> FixedNetwork {
        FixedNetwork::from_mlp(&Mlp::random(dims, &mut seeded_rng(seed)))
    }

    /// A chip whose per-PE W memory holds `words` 16-bit weights.
    fn chip_with_words(words: usize) -> MachineConfig {
        MachineConfig {
            w_mem_bytes: words * 2,
            ..MachineConfig::default()
        }
    }

    #[test]
    fn single_chip_plan_admits_what_the_machine_admits() {
        let chip = MachineConfig::default();
        let net = fixed(&[784, 1000, 10], 1);
        let p = plan(&net, &chip, 1).unwrap();
        p.validate(&chip).unwrap();
        assert_eq!(p.layers()[0].tiles[0].len(), 1000);

        // On a shrunken chip the planner rejects with the *same* per-PE
        // sizes the machine's typed W-overflow check reports.
        let small = chip_with_words(4096);
        let net = fixed(&[784, 512, 10], 2);
        match plan(&net, &small, 1) {
            Err(PartitionError::ChipCapacity {
                layer,
                words,
                capacity,
                chips,
            }) => {
                assert_eq!((layer, chips), (0, 1));
                assert_eq!(
                    small.validate_layer(512, 784),
                    Err(MachineError::WMemoryOverflow {
                        layer: 0,
                        words,
                        capacity
                    })
                );
            }
            other => panic!("expected ChipCapacity, got {other:?}"),
        }
    }

    #[test]
    fn two_chips_fit_a_layer_one_chip_rejects() {
        // 512 rows × 784 cols: 8 rows/PE × 784 = 6272 words > 4096.
        let chip = chip_with_words(4096);
        let net = fixed(&[784, 512, 10], 3);
        assert!(matches!(
            plan(&net, &chip, 1),
            Err(PartitionError::ChipCapacity { layer: 0, .. })
        ));
        let p = plan(&net, &chip, 2).unwrap();
        p.validate(&chip).unwrap();
        let sizes: Vec<usize> = p.layers()[0].tiles.iter().map(Vec::len).collect();
        assert_eq!(sizes.iter().sum::<usize>(), 512);
        // nnz-weight balancing keeps the split close to even.
        assert!(sizes.iter().all(|&s| s >= 200), "{sizes:?}");
    }

    #[test]
    fn impossible_inputs_are_typed_errors() {
        let chip = MachineConfig::default();
        let net = fixed(&[16, 32, 10], 4);
        assert_eq!(plan(&net, &chip, 0), Err(PartitionError::NoChips));
        let wide = fixed(&[5000, 16], 5);
        assert!(matches!(
            plan(&wide, &chip, 4),
            Err(PartitionError::InputTooWide {
                layer: 0,
                cols: 5000,
                ..
            })
        ));
    }

    /// When the register files (not W memory) are what stops a tiling,
    /// the error must say so — a `ChipCapacity` here would claim
    /// "needs 2048 words, holds 65536", a self-contradiction.
    #[test]
    fn register_file_bound_layers_report_output_too_wide() {
        let chip = MachineConfig::default(); // 4096-entry files, 64K words
        let tall = fixed(&[16, 8192], 10); // 8192 rows × 16 cols: tiny W need
        assert_eq!(
            plan(&tall, &chip, 1),
            Err(PartitionError::OutputTooWide {
                layer: 0,
                rows: 8192,
                max: 4096,
                chips: 1,
            })
        );
        // With enough chips the same layer tiles fine.
        let p = plan(&tall, &chip, 2).unwrap();
        p.validate(&chip).unwrap();
        let msg = PartitionError::OutputTooWide {
            layer: 0,
            rows: 8192,
            max: 4096,
            chips: 1,
        }
        .to_string();
        assert!(
            msg.contains("8192") && msg.contains("register files"),
            "{msg}"
        );
    }

    /// The greedy order, pinned on hand-built rows: heaviest row first
    /// (ties in row order), each to the least-loaded chip with room
    /// (ties to the lower chip index).
    #[test]
    fn rows_go_heaviest_first_to_the_least_loaded_chip() {
        use sparsenn_linalg::Matrix;
        use sparsenn_model::DenseLayer;
        // Nonzeros per row: 3, 0, 2, 3, 1 → weights 4, 1, 3, 4, 2.
        let w = Matrix::from_rows(&[
            vec![0.5, 0.5, 0.5],
            vec![0.0, 0.0, 0.0],
            vec![0.5, 0.0, 0.5],
            vec![0.5, 0.5, 0.5],
            vec![0.0, 0.5, 0.0],
        ]);
        let net = FixedNetwork::from_mlp(&Mlp::new(vec![DenseLayer::new(w)]));
        let p = plan(&net, &MachineConfig::default(), 2).unwrap();
        // Order 0, 3, 2, 4, 1: 0 → chip 0 (4), 3 → chip 1 (4), 2 → chip 0
        // (7), 4 → chip 1 (6), 1 → chip 1 (7).
        assert_eq!(p.layers()[0].tiles, vec![vec![0, 2], vec![1, 3, 4]]);
    }

    #[test]
    fn validate_catches_structural_damage() {
        let chip = chip_with_words(4096);
        let net = fixed(&[64, 128, 10], 8);
        let p = plan(&net, &chip, 2).unwrap();

        let mut dup = p.clone();
        let stolen = dup.layers[0].tiles[1][0];
        dup.layers[0].tiles[0].push(stolen);
        assert!(matches!(
            dup.validate(&chip),
            Err(PartitionError::Invalid { .. })
        ));

        let mut missing = p.clone();
        missing.layers[0].tiles[0].pop();
        assert!(matches!(
            missing.validate(&chip),
            Err(PartitionError::Invalid { .. })
        ));

        // A tile over capacity on a smaller chip is a ChipCapacity error.
        let tiny = chip_with_words(64);
        assert!(matches!(
            p.validate(&tiny),
            Err(PartitionError::ChipCapacity { .. })
        ));
    }

    #[test]
    fn errors_display_the_sizes() {
        let e = PartitionError::ChipCapacity {
            layer: 1,
            words: 6272,
            capacity: 4096,
            chips: 2,
        };
        let s = e.to_string();
        assert!(
            s.contains("6272") && s.contains("4096") && s.contains("2"),
            "{s}"
        );
    }
}
