//! The partition planner and its validated, serializable plan.

use sparsenn_model::fixedpoint::FixedNetwork;
use sparsenn_sim::MachineConfig;
use std::fmt::Write as _;

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
    /// [`LayerFitError::WMemoryOverflow`](sparsenn_sim::LayerFitError),
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
    /// Plan (de)serialization failed: I/O error or malformed text.
    Format {
        /// Human-readable description of the failure.
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
            PartitionError::Format { message } => {
                write!(f, "partition plan format: {message}")
            }
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

/// Most rows a plan file may give one layer, and most row indices it may
/// list over all its tiles: a thousand times the 4 K rows one Table II
/// chip holds per layer. The parser stops at the bound, so a short file
/// cannot expand into an unbounded allocation.
pub const MAX_PLAN_ROWS: usize = 1 << 22;

/// A validated row-tiling of every layer of a network across `chips`
/// identically-configured chips.
///
/// Produced by [`plan`]; structural invariants ([`validate`](Self::validate))
/// are: per layer, the tiles are **disjoint**, **exhaustive** (their
/// union is exactly `0..rows`) and **each fits its chip's W memory and
/// register files**. The text serialization
/// ([`to_plan_string`](Self::to_plan_string)) round-trips bit-identically
/// and is meant to be stored alongside a `TrainedSystem` checkpoint.
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
/// [`MachineConfig::w_capacity_words_per_pe`]. `plan` is exactly
/// [`plan_with_row_costs`] with a uniform cost of 1.0 per row — use
/// that variant when per-row expected activity (e.g. predictor mask
/// frequencies from a calibration batch) is available, so uv_on's
/// skewed row activity stops making the slowest chip the critical path.
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
    plan_impl(net, chip, chips, None)
}

/// Plans a row tiling of `net` balancing *expected* per-row activity
/// instead of static structure alone.
///
/// `row_costs` holds, per layer, one weight per output row — the
/// expected fraction of samples the row is actually computed (a
/// predictor mask frequency measured on a calibration batch; values are
/// clamped to `[0, 1]`). A row's greedy weight becomes
/// `activity × (1 + nnz)`, so a row the predictor almost always
/// bypasses contributes almost nothing to its chip's expected W-phase
/// load — this is what evens out per-chip compute time under `uv_on`,
/// where random mask skew otherwise makes the most-active chip the
/// critical path of every layer. Capacity checks are unchanged: costs
/// steer *placement*, never feasibility.
///
/// With every cost 1.0 the plan is bit-identical to [`plan`]'s (the
/// uniform-cost wrapper).
///
/// # Errors
///
/// As for [`plan`], plus [`PartitionError::Invalid`] when `row_costs`
/// does not have exactly one finite, non-negative entry per row per
/// layer.
pub fn plan_with_row_costs(
    net: &FixedNetwork,
    chip: &MachineConfig,
    chips: usize,
    row_costs: &[Vec<f64>],
) -> Result<PartitionPlan, PartitionError> {
    if row_costs.len() != net.num_layers() {
        return Err(PartitionError::Invalid {
            message: format!(
                "row-cost table has {} layers for a {}-layer network",
                row_costs.len(),
                net.num_layers()
            ),
        });
    }
    for (l, (costs, w)) in row_costs.iter().zip(net.layers()).enumerate() {
        if costs.len() != w.rows() {
            return Err(PartitionError::Invalid {
                message: format!(
                    "row-cost table layer {l} has {} entries for {} rows",
                    costs.len(),
                    w.rows()
                ),
            });
        }
        if let Some(bad) = costs.iter().find(|c| !c.is_finite() || **c < 0.0) {
            return Err(PartitionError::Invalid {
                message: format!(
                    "row-cost table layer {l} has a non-finite or negative cost {bad}"
                ),
            });
        }
    }
    plan_impl(net, chip, chips, Some(row_costs))
}

/// Fixed-point scale for greedy row weights: activity is resolved to
/// ~1/1024 before integer load balancing, keeping the assignment fully
/// deterministic across platforms (no float accumulation).
const COST_SCALE: f64 = 1024.0;

fn plan_impl(
    net: &FixedNetwork,
    chip: &MachineConfig,
    chips: usize,
    row_costs: Option<&[Vec<f64>]>,
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
        let layer = LayerPlan {
            rows,
            cols,
            tiles: vec![Vec::new(); chips],
        };
        // Largest tile one chip holds; feasibility is decided up front,
        // and the error names the *binding* constraint: the register
        // files when even an unlimited W memory could not take the
        // rows, else W capacity with the even split's requirement (for
        // one chip exactly the machine's own W-overflow check).
        let words_per_row_group = |t: usize| layer.tile_words(chip, t);
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
                words: words_per_row_group(rows.div_ceil(chips)),
                capacity,
                chips,
            });
        }
        // Heaviest rows first; ties keep ascending row order (stable).
        // Uniform costs scale every weight by the same constant, so the
        // greedy assignment (and thus `plan`) is unchanged by the
        // fixed-point resolution.
        let weights: Vec<u64> = (0..rows)
            .map(|r| {
                let base = (1 + w.row(r).iter().filter(|v| !v.is_zero()).count() as u64) as f64;
                let cost = match row_costs {
                    None => base,
                    Some(costs) => costs[l][r].clamp(0.0, 1.0) * base,
                };
                ((cost * COST_SCALE).round() as u64).max(1)
            })
            .collect();
        let mut order: Vec<usize> = (0..rows).collect();
        order.sort_by_key(|&r| std::cmp::Reverse(weights[r]));
        let mut tiles = layer.tiles.clone();
        let mut loads = vec![0u64; chips];
        for r in order {
            // The least-loaded chip with room for one more row (always
            // exists: rows <= chips × t_max).
            let c = (0..chips)
                .filter(|&c| tiles[c].len() < t_max)
                .min_by_key(|&c| (loads[c], c))
                .expect("feasibility checked above");
            tiles[c].push(r);
            loads[c] += weights[r];
        }
        for tile in &mut tiles {
            tile.sort_unstable();
        }
        layers.push(LayerPlan { tiles, ..layer });
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

    /// `true` when the plan's layer shapes match `net` (same layer
    /// count, rows and cols) — the precondition for executing `net`
    /// under this plan.
    pub fn matches(&self, net: &FixedNetwork) -> bool {
        self.layers.len() == net.num_layers()
            && self
                .layers
                .iter()
                .zip(net.layers())
                .all(|(p, w)| p.rows == w.rows() && p.cols == w.cols())
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

    /// Renders the plan in the workspace's line-oriented text style
    /// (diff-able, dependency-free), with consecutive rows compressed to
    /// `a-b` runs. [`from_plan_str`](Self::from_plan_str) round-trips it
    /// bit-identically.
    pub fn to_plan_string(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "sparsenn-partition v1");
        let _ = writeln!(out, "chips {}", self.chips);
        let _ = writeln!(out, "layers {}", self.layers.len());
        for (l, layer) in self.layers.iter().enumerate() {
            let _ = writeln!(out, "layer {l} rows {} cols {}", layer.rows, layer.cols);
            for (c, tile) in layer.tiles.iter().enumerate() {
                let _ = write!(out, "tile {c}");
                let mut i = 0;
                while i < tile.len() {
                    let start = tile[i];
                    let mut end = start;
                    while i + 1 < tile.len() && tile[i + 1] == end + 1 {
                        i += 1;
                        end = tile[i];
                    }
                    if start == end {
                        let _ = write!(out, " {start}");
                    } else {
                        let _ = write!(out, " {start}-{end}");
                    }
                    i += 1;
                }
                out.push('\n');
            }
        }
        out
    }

    /// Parses text produced by [`to_plan_string`](Self::to_plan_string).
    ///
    /// # Errors
    ///
    /// [`PartitionError::Format`] describing the first malformed line,
    /// including a row index outside its layer's `rows` and more rows
    /// than [`MAX_PLAN_ROWS`].
    pub fn from_plan_str(text: &str) -> Result<Self, PartitionError> {
        let bad = |message: String| PartitionError::Format { message };
        let mut lines = text.lines();
        let mut next = |what: &str| -> Result<&str, PartitionError> {
            lines
                .next()
                .ok_or_else(|| bad(format!("missing {what} line")))
        };
        let header = next("header")?;
        if header.trim() != "sparsenn-partition v1" {
            return Err(bad(format!(
                "bad header `{header}` (expected `sparsenn-partition v1`)"
            )));
        }
        let num = |t: &str| -> Result<usize, PartitionError> {
            t.parse().map_err(|_| bad(format!("bad number `{t}`")))
        };
        let chips = num(next("chips")?
            .strip_prefix("chips ")
            .ok_or_else(|| bad("expected `chips N`".into()))?)?;
        let n_layers = num(next("layers")?
            .strip_prefix("layers ")
            .ok_or_else(|| bad("expected `layers N`".into()))?)?;
        // Counts read from the text size nothing up front: every layer and
        // tile must be present as a line, so missing lines end the parse.
        let mut layers = Vec::new();
        let mut listed = 0usize;
        for l in 0..n_layers {
            let fields: Vec<&str> = next("layer")?.split_whitespace().collect();
            let [kw, idx, rkw, rows, ckw, cols] = fields[..] else {
                return Err(bad(format!("layer {l}: expected `layer L rows R cols C`")));
            };
            if kw != "layer" || rkw != "rows" || ckw != "cols" || num(idx)? != l {
                return Err(bad(format!("layer {l}: malformed layer line")));
            }
            let (rows, cols) = (num(rows)?, num(cols)?);
            if rows > MAX_PLAN_ROWS {
                return Err(bad(format!(
                    "layer {l}: {rows} rows exceed the {MAX_PLAN_ROWS}-row bound"
                )));
            }
            let row = |t: &str| -> Result<usize, PartitionError> {
                match num(t)? {
                    r if r < rows => Ok(r),
                    r => Err(bad(format!("layer {l}: row {r} out of range 0..{rows}"))),
                }
            };
            let mut tiles = Vec::new();
            for c in 0..chips {
                let line = next("tile")?;
                let mut toks = line.split_whitespace();
                if toks.next() != Some("tile")
                    || toks.next().and_then(|t| t.parse().ok()) != Some(c)
                {
                    return Err(bad(format!(
                        "layer {l}: expected `tile {c} …`, got `{line}`"
                    )));
                }
                let mut tile = Vec::new();
                for tok in toks {
                    let (a, b) = match tok.split_once('-') {
                        Some((a, b)) => (row(a)?, row(b)?),
                        None => {
                            let r = row(tok)?;
                            (r, r)
                        }
                    };
                    if a > b {
                        return Err(bad(format!("layer {l} tile {c}: bad run `{tok}`")));
                    }
                    listed += b - a + 1;
                    if listed > MAX_PLAN_ROWS {
                        return Err(bad(format!(
                            "the plan lists more than {MAX_PLAN_ROWS} rows"
                        )));
                    }
                    tile.extend(a..=b);
                }
                tiles.push(tile);
            }
            layers.push(LayerPlan { rows, cols, tiles });
        }
        Ok(PartitionPlan { chips, layers })
    }

    /// Saves the plan as a text file (store it next to the
    /// `TrainedSystem` checkpoint it was planned for).
    ///
    /// # Errors
    ///
    /// [`PartitionError::Format`] wrapping the underlying I/O error.
    pub fn save(&self, path: impl AsRef<std::path::Path>) -> Result<(), PartitionError> {
        std::fs::write(path.as_ref(), self.to_plan_string()).map_err(|e| PartitionError::Format {
            message: format!("writing {}: {e}", path.as_ref().display()),
        })
    }

    /// Loads a plan saved by [`save`](Self::save).
    ///
    /// # Errors
    ///
    /// [`PartitionError::Format`] for I/O errors or malformed text.
    pub fn load(path: impl AsRef<std::path::Path>) -> Result<Self, PartitionError> {
        let text = std::fs::read_to_string(path.as_ref()).map_err(|e| PartitionError::Format {
            message: format!("reading {}: {e}", path.as_ref().display()),
        })?;
        Self::from_plan_str(&text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparsenn_linalg::init::seeded_rng;
    use sparsenn_model::Mlp;
    use sparsenn_sim::LayerFitError;

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
                    Err(LayerFitError::WMemoryOverflow { words, capacity })
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

    #[test]
    fn uniform_row_costs_reproduce_the_plain_plan() {
        let chip = MachineConfig::default();
        let net = fixed(&[784, 512, 10], 21);
        let uniform: Vec<Vec<f64>> = net.layers().iter().map(|w| vec![1.0; w.rows()]).collect();
        for chips in [1usize, 2, 4] {
            assert_eq!(
                plan_with_row_costs(&net, &chip, chips, &uniform).unwrap(),
                plan(&net, &chip, chips).unwrap(),
                "{chips} chips"
            );
        }
    }

    #[test]
    fn skewed_activity_balances_expected_work_not_row_count() {
        let chip = MachineConfig::default();
        let net = fixed(&[64, 128, 10], 22);
        // Rows 0..64 almost always computed, rows 64..128 almost never.
        let activity: Vec<Vec<f64>> = net
            .layers()
            .iter()
            .map(|w| {
                (0..w.rows())
                    .map(|r| if r < 64 { 1.0 } else { 0.01 })
                    .collect()
            })
            .collect();
        let p = plan_with_row_costs(&net, &chip, 2, &activity).unwrap();
        p.validate(&chip).unwrap();
        // Expected load per chip (sum of activity over its tile) must be
        // near-even: each chip takes ~half the *hot* rows, instead of
        // one chip inheriting all of them by static-nnz balance.
        let hot_per_chip: Vec<usize> = p.layers()[0]
            .tiles
            .iter()
            .map(|tile| tile.iter().filter(|&&r| r < 64).count())
            .collect();
        assert_eq!(hot_per_chip.iter().sum::<usize>(), 64);
        assert!(
            hot_per_chip.iter().all(|&h| (28..=36).contains(&h)),
            "hot rows must split near-evenly: {hot_per_chip:?}"
        );
    }

    #[test]
    fn malformed_row_costs_are_rejected() {
        let chip = MachineConfig::default();
        let net = fixed(&[16, 32, 10], 23);
        let good: Vec<Vec<f64>> = net.layers().iter().map(|w| vec![0.5; w.rows()]).collect();
        assert!(plan_with_row_costs(&net, &chip, 2, &good).is_ok());
        for bad in [
            good[..1].to_vec(),                        // missing a layer
            vec![vec![0.5; 31], good[1].clone()],      // short row
            vec![vec![f64::NAN; 32], good[1].clone()], // non-finite
            vec![
                {
                    let mut v = good[0].clone();
                    v[0] = -1.0;
                    v
                },
                good[1].clone(),
            ],
        ] {
            assert!(matches!(
                plan_with_row_costs(&net, &chip, 2, &bad),
                Err(PartitionError::Invalid { .. })
            ));
        }
    }

    #[test]
    fn plan_text_roundtrips_bit_identically() {
        let chip = chip_with_words(4096);
        let net = fixed(&[784, 512, 10], 6);
        let p = plan(&net, &chip, 4).unwrap();
        let text = p.to_plan_string();
        let back = PartitionPlan::from_plan_str(&text).unwrap();
        assert_eq!(p, back);
        assert_eq!(text, back.to_plan_string());
        assert!(back.matches(&net));
    }

    #[test]
    fn malformed_plan_text_is_rejected() {
        let chip = chip_with_words(4096);
        let good = plan(&fixed(&[32, 64, 10], 7), &chip, 2)
            .unwrap()
            .to_plan_string();
        for broken in [
            String::from("not a plan"),
            good.replace("sparsenn-partition v1", "sparsenn-partition v9"),
            good.replace("chips 2", "chips x"),
            good.replace("tile 0", "tile 9"),
            good.lines().take(3).collect::<Vec<_>>().join("\n"),
        ] {
            assert!(
                matches!(
                    PartitionPlan::from_plan_str(&broken),
                    Err(PartitionError::Format { .. })
                ),
                "should reject {broken:?}"
            );
        }
        assert!(PartitionPlan::from_plan_str(&good).is_ok());
    }

    /// Counts and row indices read from the text never size an allocation
    /// unchecked, and a row outside its layer is a format error.
    #[test]
    fn huge_counts_in_plan_text_are_errors_not_panics() {
        const MAX: &str = "18446744073709551615";
        let header = "sparsenn-partition v1\n";
        for text in [
            format!("{header}chips 1\nlayers {MAX}\n"),
            format!("{header}chips {MAX}\nlayers 1\nlayer 0 rows 4 cols 4\n"),
            format!("{header}chips 1\nlayers 1\nlayer 0 rows 4 cols 4\ntile 0 0-18446744073709551614\n"),
            // More rows than the bound, with or without a run over them.
            format!("{header}chips 1\nlayers 1\nlayer 0 rows {MAX} cols 4\ntile 0 0-18446744073709551613\n"),
            format!("{header}chips 1\nlayers 1\nlayer 0 rows {MAX} cols 4\ntile 0\n"),
            format!("{header}chips 1\nlayers 1\nlayer 0 rows 4 cols 4\ntile 0 0-3 4\n"),
        ] {
            assert!(
                matches!(
                    PartitionPlan::from_plan_str(&text),
                    Err(PartitionError::Format { .. })
                ),
                "should reject {text:?}"
            );
        }
    }

    /// Runs that repeat rows cannot expand a short file past the bound,
    /// while a plan at the bound still parses.
    #[test]
    fn listed_rows_are_bounded_over_the_whole_plan() {
        let header = "sparsenn-partition v1\n";
        let last = MAX_PLAN_ROWS - 1;
        let at_bound = format!(
            "{header}chips 1\nlayers 1\nlayer 0 rows {MAX_PLAN_ROWS} cols 4\ntile 0 0-{last}\n"
        );
        assert!(PartitionPlan::from_plan_str(&at_bound).is_ok());
        let repeated = format!("{header}chips 2\nlayers 1\nlayer 0 rows {MAX_PLAN_ROWS} cols 4\ntile 0 0-{last}\ntile 1 0\n");
        assert!(matches!(
            PartitionPlan::from_plan_str(&repeated),
            Err(PartitionError::Format { .. })
        ));
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
