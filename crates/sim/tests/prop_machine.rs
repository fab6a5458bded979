//! Property-based verification of the cycle-level machine against the
//! fixed-point golden model — the reproduction's equivalent of verifying
//! the RTL against the Matlab fixed-point simulation.

use proptest::prelude::*;
use sparsenn_linalg::init::seeded_rng;
use sparsenn_model::fixedpoint::{FixedNetwork, UvMode};
use sparsenn_model::{Mlp, PredictedNetwork};
use sparsenn_sim::{Machine, MachineConfig};

fn build_net(seed: u64, hidden: usize, rank: usize) -> FixedNetwork {
    let mut rng = seeded_rng(seed);
    let mlp = Mlp::random(&[24, hidden, 10], &mut rng);
    let net = PredictedNetwork::with_random_predictors(mlp, rank, &mut rng);
    FixedNetwork::from_float(&net)
}

fn build_input(seed: u64, len: usize, sparsity_pct: u8) -> Vec<f32> {
    let mut rng = seeded_rng(seed ^ 0xDEAD);
    (0..len)
        .map(|_| {
            use rand::Rng;
            if rng.gen_range(0u8..100) < sparsity_pct {
                0.0
            } else {
                rng.gen_range(-2.0f32..2.0)
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The machine's outputs are bit-identical to the golden model for
    /// random networks, inputs, sparsity levels and both UV modes.
    #[test]
    fn machine_is_bit_exact_vs_golden(
        seed in 0u64..10_000,
        hidden in 8usize..96,
        rank in 1usize..6,
        sparsity in 0u8..100,
        uv_on in any::<bool>(),
    ) {
        let net = build_net(seed, hidden, rank);
        let x = net.quantize_input(&build_input(seed, 24, sparsity));
        let mode = if uv_on { UvMode::On } else { UvMode::Off };
        let machine = Machine::new(MachineConfig::default());
        let run = machine.run_network(&net, &x, mode).unwrap();
        let golden = net.forward(&x, mode);
        for (l, (r, g)) in run.layers.iter().zip(&golden).enumerate() {
            prop_assert_eq!(&r.output, &g.output, "layer {} output differs", l);
            prop_assert_eq!(&r.mask, &g.mask, "layer {} mask differs", l);
        }
    }

    /// Queue depth and NoC buffer capacity affect timing, never results.
    #[test]
    fn flow_control_parameters_never_change_results(
        seed in 0u64..10_000,
        queue_depth in 4usize..32,
        noc_cap in 1usize..8,
    ) {
        let net = build_net(seed, 48, 4);
        let x = net.quantize_input(&build_input(seed, 24, 40));
        let reference = Machine::new(MachineConfig::default());
        let cfg = MachineConfig {
            act_queue_depth: queue_depth,
            noc: sparsenn_noc::NocConfig {
                queue_capacity: noc_cap,
                ..Default::default()
            },
            ..Default::default()
        };
        let tweaked = Machine::new(cfg);
        let a = reference.run_network(&net, &x, UvMode::On).unwrap();
        let b = tweaked.run_network(&net, &x, UvMode::On).unwrap();
        prop_assert_eq!(a.output(), b.output());
    }

    /// Cycle counts are deterministic: the same run twice gives identical
    /// cycles and event counters.
    #[test]
    fn simulation_is_deterministic(seed in 0u64..10_000) {
        let net = build_net(seed, 40, 3);
        let x = net.quantize_input(&build_input(seed, 24, 30));
        let machine = Machine::new(MachineConfig::default());
        let a = machine.run_network(&net, &x, UvMode::On).unwrap();
        let b = machine.run_network(&net, &x, UvMode::On).unwrap();
        prop_assert_eq!(a.total_cycles(), b.total_cycles());
        prop_assert_eq!(a.total_events(), b.total_events());
    }

    /// The row-availability profile is structurally sound for any
    /// network/input: one entry per row, every completion inside the
    /// layer (`0 < t ≤ cycles`), and the histogram covers exactly the
    /// rows.
    #[test]
    fn row_availability_profile_is_sound(
        seed in 0u64..10_000,
        hidden in 8usize..96,
        sparsity in 0u8..100,
        uv_on in any::<bool>(),
    ) {
        let net = build_net(seed, hidden, 4);
        let x = net.quantize_input(&build_input(seed, 24, sparsity));
        let mode = if uv_on { UvMode::On } else { UvMode::Off };
        let machine = Machine::new(MachineConfig::default());
        let run = machine.run_network(&net, &x, mode).unwrap();
        for (l, layer) in run.layers.iter().enumerate() {
            prop_assert_eq!(layer.row_ready.len(), layer.output.len(), "layer {}", l);
            prop_assert!(
                layer.row_ready.iter().all(|&t| t > 0 && t <= layer.cycles),
                "layer {}: availability must fall inside the layer", l
            );
            prop_assert!(layer.first_ready() <= layer.last_ready());
            prop_assert_eq!(
                layer.events.row_ready_hist.iter().sum::<u64>(),
                layer.output.len() as u64,
                "layer {}: histogram covers every row", l
            );
            // Rows the W phase touched become final no earlier than the
            // VU phase handed over.
            prop_assert!(layer.row_ready.iter().all(|&t| t >= layer.vu_cycles));
        }
    }

    /// The batched core is bit-identical to serial execution for random
    /// networks, batch sizes and both UV modes: every per-sample layer
    /// (output, mask, cycles, events) equals its own serial run exactly,
    /// the batch event book is the per-sample sum with only the W phase
    /// amortized (never upward), and a batch of one degenerates to the
    /// serial run.
    #[test]
    fn batched_core_matches_serial_per_sample(
        seed in 0u64..10_000,
        hidden in 8usize..64,
        b in 1usize..=8,
        uv_on in any::<bool>(),
    ) {
        let net = build_net(seed, hidden, 3);
        let inputs: Vec<_> = (0..b)
            .map(|s| {
                let sparsity = (20 + s * 9) as u8 % 100;
                net.quantize_input(&build_input(seed ^ (s as u64) << 16, 24, sparsity))
            })
            .collect();
        let mode = if uv_on { UvMode::On } else { UvMode::Off };
        let machine = Machine::new(MachineConfig::default());
        let batch = machine.run_network_batch(&net, &inputs, mode).unwrap();
        prop_assert_eq!(batch.batch_size(), b);
        for (s, x) in inputs.iter().enumerate() {
            let serial = machine.run_network(&net, x, mode).unwrap();
            for (l, (batched, own)) in batch.layers.iter()
                .map(|layer| &layer.per_sample[s])
                .zip(&serial.layers)
                .enumerate()
            {
                prop_assert_eq!(&batched.output, &own.output, "sample {} layer {} output", s, l);
                prop_assert_eq!(&batched.mask, &own.mask, "sample {} layer {} mask", s, l);
                prop_assert_eq!(batched.cycles, own.cycles, "sample {} layer {} cycles", s, l);
                prop_assert_eq!(&batched.events, &own.events, "sample {} layer {} events", s, l);
            }
        }
        // The books reconcile: the batch book is the per-sample sums with
        // only the W phase amortized — every field except the clock totals
        // and W reads equals the sum, and amortization only ever removes
        // W work.
        let mut summed = sparsenn_sim::MachineEvents::default();
        for layer in &batch.layers {
            for run in &layer.per_sample {
                summed.merge(&run.events);
            }
        }
        let batch_ev = batch.total_events();
        prop_assert!(batch_ev.cycles <= summed.cycles);
        prop_assert!(batch_ev.w_cycles <= summed.w_cycles);
        prop_assert!(batch_ev.w_reads <= summed.w_reads);
        let mut expected = summed;
        expected.cycles = batch_ev.cycles;
        expected.w_cycles = batch_ev.w_cycles;
        expected.w_reads = batch_ev.w_reads;
        prop_assert_eq!(&batch_ev, &expected, "only the W book amortizes");
        let (serial_reads, amortized_reads) = batch.w_read_totals();
        prop_assert_eq!(summed.w_reads, serial_reads);
        prop_assert_eq!(batch_ev.w_reads, amortized_reads);
        prop_assert!(amortized_reads <= serial_reads);
        if b == 1 {
            prop_assert_eq!(serial_reads, amortized_reads, "a batch of one amortizes nothing");
            prop_assert_eq!(batch.total_cycles(), batch.serial_cycles());
        }
    }

    /// Predicted-inactive rows never touch the W memory: W reads in uv_on
    /// mode are exactly (nnz inputs) × (active rows)… summed per activation.
    #[test]
    fn w_reads_scale_with_active_rows(seed in 0u64..1_000) {
        let net = build_net(seed, 64, 4);
        let x = net.quantize_input(&build_input(seed, 24, 20));
        let machine = Machine::new(MachineConfig::default());
        let run = machine
            .run_layer(&net.layers()[0], net.predictors().first(), &x, true, UvMode::On)
            .unwrap();
        let nnz = x.iter().filter(|v| !v.is_zero()).count() as u64;
        let active = run.mask.as_ref().unwrap().iter().filter(|&&m| m).count() as u64;
        prop_assert_eq!(run.events.w_reads, nnz * active);
    }
}
