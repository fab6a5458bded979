//! The paper's scalability claim: SparseNN is "a scalable architecture
//! with distributed memories and processing elements". These tests check
//! that machines of different sizes (one H-tree level less or more)
//! compute identical results and that throughput scales with PE count.

use sparsenn::linalg::init::seeded_rng;
use sparsenn::model::fixedpoint::{FixedNetwork, UvMode};
use sparsenn::model::{Mlp, PredictedNetwork};
use sparsenn::noc::NocConfig;
use sparsenn::sim::{Machine, MachineConfig};

fn machine_with(num_pes: usize) -> Machine {
    Machine::new(MachineConfig {
        noc: NocConfig {
            num_pes,
            ..NocConfig::default()
        },
        ..MachineConfig::default()
    })
}

fn workload() -> (FixedNetwork, Vec<sparsenn::numeric::Q6_10>) {
    let mut rng = seeded_rng(0x5CA1E);
    let mlp = Mlp::random(&[256, 512, 10], &mut rng);
    let net =
        FixedNetwork::from_float(&PredictedNetwork::with_random_predictors(mlp, 12, &mut rng));
    let x: Vec<f32> = (0..256)
        .map(|i| {
            if i % 3 == 0 {
                ((i as f32) * 0.37).sin().abs()
            } else {
                0.0
            }
        })
        .collect();
    let xq = net.quantize_input(&x);
    (net, xq)
}

#[test]
fn results_are_identical_across_machine_sizes() {
    let (net, x) = workload();
    let reference = machine_with(64).run_network(&net, &x, UvMode::On).unwrap();
    for pes in [16usize, 256] {
        let run = machine_with(pes).run_network(&net, &x, UvMode::On).unwrap();
        for (l, (r, g)) in run.layers.iter().zip(&reference.layers).enumerate() {
            assert_eq!(r.output, g.output, "{pes} PEs, layer {l}");
            assert_eq!(r.mask, g.mask, "{pes} PEs, layer {l} mask");
        }
    }
}

#[test]
fn throughput_scales_with_pe_count() {
    let (net, x) = workload();
    let c16 = machine_with(16)
        .run_network(&net, &x, UvMode::Off)
        .unwrap()
        .total_cycles();
    let c64 = machine_with(64)
        .run_network(&net, &x, UvMode::Off)
        .unwrap()
        .total_cycles();
    let c256 = machine_with(256)
        .run_network(&net, &x, UvMode::Off)
        .unwrap()
        .total_cycles();
    assert!(
        c16 > c64 && c64 > c256,
        "cycles must fall with PEs: {c16} {c64} {c256}"
    );
    // 4× the PEs should recover at least 2× throughput on this
    // compute-bound layer (perfect scaling is 4×; broadcast floors and
    // tree latency eat some of it).
    assert!(
        c16 as f64 / c64 as f64 > 2.0,
        "16→64 speedup {:.2}",
        c16 as f64 / c64 as f64
    );
}

#[test]
fn per_pe_memory_traffic_shrinks_with_more_pes() {
    let (net, x) = workload();
    let small = machine_with(16)
        .run_layer(&net.layers()[0], None, &x, true, UvMode::Off)
        .unwrap();
    let large = machine_with(256)
        .run_layer(&net.layers()[0], None, &x, true, UvMode::Off)
        .unwrap();
    // Total W reads are workload-determined and machine-independent…
    assert_eq!(small.events.w_reads, large.events.w_reads);
    // …but the per-PE share (bandwidth per memory) drops 16×: the
    // distributed-memory argument of Table IV.
    assert_eq!(small.pe_busy.len(), 16);
    assert_eq!(large.pe_busy.len(), 256);
    let max_small = small.pe_busy.iter().max().unwrap();
    let max_large = large.pe_busy.iter().max().unwrap();
    assert!(
        max_small / max_large >= 8,
        "per-PE work {max_small} vs {max_large}"
    );
}
