//! Batch sweep: measure the batch-native machine path for B = 1..=8,
//! then feed the measured service table into the queue-aware batching
//! simulator and print the serving trade — throughput per shard rises
//! with the batch cap under saturation while light-load tail latency
//! pays for the hold window.
//!
//! ```sh
//! cargo run --release --example batch_sweep
//! ```

use sparsenn::datasets::DatasetKind;
use sparsenn::engine::{CycleAccurateBackend, InferenceBackend};
use sparsenn::model::fixedpoint::UvMode;
use sparsenn::serve::{
    simulate_batched, BatchPolicy, BatchShardSpec, FirstIdle, MetricsMode, Workload,
};
use sparsenn::{SystemBuilder, TrainingAlgorithm};

const MAX_BATCH: usize = 8;

fn main() {
    // 1. Train a small system and run real test images through the
    //    cycle-accurate machine's batched core.
    println!("training a 784-128-10 network with a rank-6 predictor…");
    let system = SystemBuilder::new(DatasetKind::Basic)
        .dims(&[784, 128, 10])
        .rank(6)
        .algorithm(TrainingAlgorithm::EndToEnd)
        .train_samples(400)
        .test_samples(100)
        .epochs(3)
        .build();
    let backend = CycleAccurateBackend::new(system.machine().clone());
    let net = system.fixed();
    let test = &system.split().test;
    let inputs: Vec<_> = (0..MAX_BATCH)
        .map(|i| net.quantize_input(test.image(i % test.len())))
        .collect();

    // 2. The amortization curve: one W-memory pass serves the whole
    //    batch, so per-sample time falls as B grows while every
    //    per-sample result stays bit-identical to a serial run.
    println!("\n  B | batch (us) | us/sample | speedup | W-read amortization");
    println!("  --|------------|-----------|---------|--------------------");
    let mut table = Vec::with_capacity(MAX_BATCH);
    for b in 1..=MAX_BATCH {
        let rec = backend
            .run_batch(net, &inputs[..b], UvMode::On)
            .expect("the network fits the machine");
        table.push(rec.batch_time_us);
        println!(
            "  {b} | {:10.2} | {:9.2} | {:6.2}x | {:.2}x fewer W reads",
            rec.batch_time_us,
            rec.mean_time_us(),
            rec.serial_time_us() / rec.batch_time_us,
            rec.w_read_amortization()
        );
    }

    // 3. The serving knee: the measured table drives the virtual-time
    //    batching simulator at a saturating and a light offered load.
    let spec = BatchShardSpec::with_table("machine", table.clone());
    let serial_capacity = 1e6 / table[0];
    let deadline_us = 40.0 * table[0];
    let run = |cap: usize, rate: f64| {
        simulate_batched(
            std::slice::from_ref(&spec),
            &FirstIdle,
            BatchPolicy::SizeOrDeadline {
                max: cap,
                deadline_us,
            },
            &Workload::Poisson {
                rate_rps: rate,
                requests: 3000,
                seed: 7,
            },
            MetricsMode::Streaming,
        )
        .expect("valid batching simulation")
    };
    println!(
        "\none shard, SizeOrDeadline(B, {deadline_us:.0} us), serial capacity {serial_capacity:.0} rps:"
    );
    println!("\n  cap | throughput @2.5x (rps) | mean batch | p99 @0.4x (us)");
    println!("  ----|------------------------|------------|---------------");
    for cap in [1usize, 2, 4, 8] {
        let sat = run(cap, serial_capacity * 2.5);
        let light = run(cap, serial_capacity * 0.4);
        println!(
            "  {cap:3} | {:22.0} | {:10.2} | {:13.1}",
            sat.throughput_rps, sat.mean_batch, light.latency.p99_us
        );
    }

    println!(
        "\nBatching amortizes the W-memory traffic across requests: capacity climbs \
         with the batch cap, and the fill/deadline hold shows up as light-load tail \
         latency — pick the cap where your SLO still clears."
    );
}
