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

    /// Balance: the planner gives each row a weight (1 + its nonzero
    /// count) and hands the heaviest remaining row to the lightest
    /// tile. While no tile reaches its row cap, as on the default chip
    /// here, that greedy keeps the heaviest and lightest tiles' summed
    /// weights within the heaviest row's weight of each other.
    #[test]
    fn tile_loads_differ_by_at_most_the_heaviest_row(
        hidden in 32usize..256,
        chips in 1usize..9,
    ) {
        let net = FixedNetwork::from_mlp(
            &Mlp::random(&[16, hidden, 10], &mut seeded_rng(9)));
        let chip = MachineConfig::default();
        let p = plan(&net, &chip, chips).unwrap();
        for (l, (layer, w)) in p.layers().iter().zip(net.layers()).enumerate() {
            let weight = |r: usize| 1 + w.row(r).iter().filter(|v| !v.is_zero()).count();
            let heaviest_row = (0..layer.rows).map(weight).max().unwrap();
            let loads: Vec<usize> = layer
                .tiles
                .iter()
                .map(|tile| tile.iter().map(|&r| weight(r)).sum())
                .collect();
            let (min, max) = (
                loads.iter().min().copied().unwrap(),
                loads.iter().max().copied().unwrap(),
            );
            prop_assert!(
                max - min <= heaviest_row,
                "layer {}: loads {:?}, heaviest row {}", l, loads, heaviest_row
            );
        }
    }
}
