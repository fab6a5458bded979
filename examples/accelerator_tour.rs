//! A guided tour of the simulated accelerator: phase-by-phase cycle
//! breakdown, NoC behaviour, bit-exactness against the golden model, and
//! what the predictor changes at the micro-architectural level.
//!
//! ```sh
//! cargo run --release --example accelerator_tour
//! ```

use sparsenn::linalg::init::seeded_rng;
use sparsenn::model::fixedpoint::{FixedNetwork, UvMode};
use sparsenn::model::{Mlp, PredictedNetwork};
use sparsenn::sim::{Machine, MachineConfig, MachineError};

fn main() -> Result<(), MachineError> {
    // A paper-shaped layer stack: 784 → 1024 → 1024 → 10, rank-15
    // predictors, random weights (training is not the point here).
    let mut rng = seeded_rng(42);
    let mlp = Mlp::random(&[784, 1024, 1024, 10], &mut rng);
    let net =
        FixedNetwork::from_float(&PredictedNetwork::with_random_predictors(mlp, 15, &mut rng));

    // A 75 %-sparse input vector, like a MNIST digit.
    let x: Vec<f32> = (0..784)
        .map(|i| {
            if i % 4 == 0 {
                ((i as f32) * 0.13).sin().abs()
            } else {
                0.0
            }
        })
        .collect();
    let xq = net.quantize_input(&x);

    let cfg = MachineConfig::default();
    println!(
        "machine: {} PEs, {} KB W-memory/PE, {}-entry act queues, {} ns clock, {} GOP/s peak\n",
        cfg.num_pes(),
        cfg.w_mem_bytes / 1024,
        cfg.act_queue_depth,
        cfg.clock_ns,
        cfg.peak_gops()
    );
    let machine = Machine::new(cfg);

    for mode in [UvMode::Off, UvMode::On] {
        println!("=== {mode:?} ===");
        let run = machine.run_network(&net, &xq, mode)?;
        for (l, layer) in run.layers.iter().enumerate() {
            let mask_info = match &layer.mask {
                Some(m) => {
                    let active = m.iter().filter(|&&b| b).count();
                    format!("{active}/{} rows predicted active", m.len())
                }
                None => "no predictor".to_string(),
            };
            println!(
                "layer {l}: {:>6} cycles (V/U {:>4}, W {:>6}) | {:>8} W-reads | util {:>5.1}% | {}",
                layer.cycles,
                layer.vu_cycles,
                layer.w_cycles,
                layer.events.w_reads,
                layer.events.utilization() * 100.0,
                mask_info
            );
            println!(
                "         NoC: {} hops, {} ACC merges, peak buffer occupancy {}",
                layer.events.noc.hops, layer.events.noc.acc_merges, layer.events.noc.peak_occupancy
            );
        }

        // The RTL-vs-golden check the paper did against Matlab.
        let golden = net.forward(&xq, mode);
        let exact = run
            .layers
            .iter()
            .zip(&golden)
            .all(|(r, g)| r.output == g.output && r.mask == g.mask);
        println!(
            "bit-exact against the fixed-point golden model: {}\n",
            if exact { "YES" } else { "NO (bug!)" }
        );
        assert!(exact);
    }

    println!(
        "Note how uv_on spends a few hundred cycles in the V/U phases to cut the W \
         phase's memory traffic — and how out-of-order H-tree delivery never affects \
         the outputs (order-independent wide accumulation)."
    );
    Ok(())
}
