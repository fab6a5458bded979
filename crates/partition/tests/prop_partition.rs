//! Property-based tests for the partition planner: every plan it emits
//! is structurally sound (tiles disjoint, exhaustive, within capacity)
//! and shaped like the network it was planned for.

use proptest::prelude::*;
use sparsenn_linalg::init::seeded_rng;
use sparsenn_model::fixedpoint::FixedNetwork;
use sparsenn_model::Mlp;
use sparsenn_partition::plan;
use sparsenn_sim::MachineConfig;

fn chip_with_words(words: usize) -> MachineConfig {
    MachineConfig {
        w_mem_bytes: words * 2,
        ..MachineConfig::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// For random networks, chip counts and W capacities, a successful
    /// plan validates: per layer the tiles are disjoint, exhaustive over
    /// `0..rows`, and each fits the chip. (Infeasible combinations must
    /// error, never panic.)
    #[test]
    fn plans_are_disjoint_exhaustive_and_within_capacity(
        seed in 0u64..1000,
        hidden in 16usize..200,
        inputs in 8usize..64,
        chips in 1usize..9,
        cap_words in 64usize..4096,
    ) {
        let net = FixedNetwork::from_mlp(
            &Mlp::random(&[inputs, hidden, 10], &mut seeded_rng(seed)));
        let chip = chip_with_words(cap_words);
        match plan(&net, &chip, chips) {
            Ok(p) => {
                prop_assert_eq!(p.chips(), chips);
                prop_assert!(p.validate(&chip).is_ok());
                prop_assert_eq!(p.layers().len(), net.num_layers());
                for (l, (layer, w)) in p.layers().iter().zip(net.layers()).enumerate() {
                    prop_assert_eq!((layer.rows, layer.cols), (w.rows(), w.cols()));
                    // Disjoint + exhaustive, re-checked independently of
                    // validate(): every row exactly once.
                    let mut rows: Vec<usize> =
                        layer.tiles.iter().flatten().copied().collect();
                    rows.sort_unstable();
                    let expect: Vec<usize> = (0..layer.rows).collect();
                    prop_assert_eq!(&rows, &expect, "layer {}", l);
                    // Each tile fits the chip's W memory.
                    for tile in &layer.tiles {
                        let words = tile.len().div_ceil(chip.num_pes()) * layer.cols;
                        prop_assert!(words <= chip.w_capacity_words_per_pe());
                        prop_assert!(tile.len() <= chip.max_activations());
                    }
                }
            }
            Err(_) => {
                // Infeasible: even a perfectly even split of some layer
                // must overflow the chip (or the input is too wide).
                let infeasible = net.layers().iter().any(|w| {
                    let t = w.rows().div_ceil(chips);
                    let words = t.div_ceil(chip.num_pes()) * w.cols();
                    words > chip.w_capacity_words_per_pe()
                        || w.cols() > chip.max_activations()
                });
                prop_assert!(infeasible, "planner rejected a feasible network");
            }
        }
    }

    /// Balance: with equal-cost rows the largest and smallest tiles
    /// differ by at most one row.
    #[test]
    fn tiles_are_balanced_to_within_one_row(
        hidden in 32usize..256,
        chips in 1usize..9,
    ) {
        let net = FixedNetwork::from_mlp(
            &Mlp::random(&[16, hidden, 10], &mut seeded_rng(9)));
        let chip = MachineConfig::default();
        let p = plan(&net, &chip, chips).unwrap();
        for layer in p.layers() {
            let sizes: Vec<usize> = layer.tiles.iter().map(Vec::len).collect();
            let (min, max) = (
                sizes.iter().min().copied().unwrap(),
                sizes.iter().max().copied().unwrap(),
            );
            // Row weights vary, but every row weighs at least 1 and at
            // most cols+1, and the greedy assigns to the lightest chip:
            // counts can skew, yet never leave a chip starved while
            // another holds the excess beyond the weight imbalance. The
            // conservative structural bound: max ≤ 2·min + cols.
            prop_assert!(max <= 2 * min + layer.cols + 1, "{:?}", sizes);
        }
    }
}
