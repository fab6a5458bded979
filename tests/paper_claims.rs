//! The paper's quantitative claims, checked against the simulator on
//! controlled workloads (DESIGN.md §5 "sanity claims").

use sparsenn::energy::PowerModel;
use sparsenn::linalg::Matrix;
use sparsenn::model::fixedpoint::{FixedNetwork, UvMode};
use sparsenn::model::{DenseLayer, Mlp, PredictedNetwork, Predictor};
use sparsenn::numeric::Q6_10;
use sparsenn::sim::{Machine, MachineConfig};

/// Builds a paper-shaped network (1024-wide hidden layer, 16 rows/PE) with
/// a rank-1 predictor engineered to mark ≈`active_fraction` of the rows
/// active, i.i.d. per row: `U` has +1 entries for active rows and −1 for
/// the rest, `V` is a row of ones, so `sign(U·V·a) = sign(U · Σa)` with
/// `Σa > 0`. Independent per-row decisions give the per-PE spread of
/// active rows that real trained predictors show (the paper: "the number
/// of nonzero output activations predicted by the sparsity predictor also
/// varies from PE to PE") — that spread is what throttles the layer-1
/// cycle gain and produces the idle-cycle power savings.
fn engineered_network(active_fraction: f64) -> (FixedNetwork, Vec<Q6_10>) {
    let n = 784usize;
    let m = 1024usize;
    let w = Matrix::from_fn(m, n, |i, j| {
        (((i * 31 + j * 17) % 97) as f32 - 48.0) / 120.0
    });
    let out = Matrix::from_fn(10, m, |i, j| (((i + j * 13) % 29) as f32 - 14.0) / 60.0);
    let mlp = Mlp::new(vec![DenseLayer::new(w), DenseLayer::new(out)]);
    let mut rng = sparsenn::linalg::init::seeded_rng(0x00C1_A135);
    let mask: Vec<bool> = (0..m)
        .map(|_| rand::Rng::gen::<f64>(&mut rng) < active_fraction)
        .collect();
    let u = Matrix::from_fn(m, 1, |i, _| if mask[i] { 1.0 } else { -1.0 });
    let v = Matrix::from_fn(1, n, |_, _| 1.0);
    let net = PredictedNetwork::new(mlp, vec![Predictor::new(u, v)]);
    let fixed = FixedNetwork::from_float(&net);
    // 60 %-sparse, strictly positive input (so Σa > 0 as required).
    let x: Vec<f32> = (0..n)
        .map(|j| {
            if j % 5 < 2 {
                0.2 + ((j % 13) as f32) * 0.05
            } else {
                0.0
            }
        })
        .collect();
    let xq = fixed.quantize_input(&x);
    (fixed, xq)
}

#[test]
fn throughput_gain_lands_in_the_papers_10_to_70_percent_band() {
    // ρ = 0.5: the paper's typical first-hidden-layer operating point.
    let (net, x) = engineered_network(0.5);
    let machine = Machine::new(MachineConfig::default());
    let off = machine
        .run_layer(
            &net.layers()[0],
            net.predictors().first(),
            &x,
            true,
            UvMode::Off,
        )
        .unwrap();
    let on = machine
        .run_layer(
            &net.layers()[0],
            net.predictors().first(),
            &x,
            true,
            UvMode::On,
        )
        .unwrap();
    let reduction = 1.0 - on.cycles as f64 / off.cycles as f64;
    assert!(
        (0.10..=0.70).contains(&reduction),
        "cycle reduction {:.1}% outside the paper's 10–70% band (off {}, on {})",
        reduction * 100.0,
        off.cycles,
        on.cycles
    );
}

#[test]
fn deeper_sparsity_gives_deeper_reductions() {
    let machine = Machine::new(MachineConfig::default());
    let mut last_reduction = 0.0f64;
    for rho in [0.5f64, 0.75, 0.95] {
        let (net, x) = engineered_network(1.0 - rho);
        let off = machine
            .run_layer(
                &net.layers()[0],
                net.predictors().first(),
                &x,
                true,
                UvMode::Off,
            )
            .unwrap();
        let on = machine
            .run_layer(
                &net.layers()[0],
                net.predictors().first(),
                &x,
                true,
                UvMode::On,
            )
            .unwrap();
        let reduction = 1.0 - on.cycles as f64 / off.cycles as f64;
        assert!(
            reduction > last_reduction,
            "reduction should grow with predicted sparsity (ρ={rho}: {:.2})",
            reduction
        );
        last_reduction = reduction;
    }
    assert!(
        last_reduction > 0.5,
        "ρ=0.9 should cut cycles by well over half"
    );
}

#[test]
fn power_reduction_is_substantial() {
    let (net, x) = engineered_network(0.5);
    let cfg = MachineConfig::default();
    let machine = Machine::new(cfg);
    let model = PowerModel::new(&cfg);
    let off = machine
        .run_layer(
            &net.layers()[0],
            net.predictors().first(),
            &x,
            true,
            UvMode::Off,
        )
        .unwrap();
    let on = machine
        .run_layer(
            &net.layers()[0],
            net.predictors().first(),
            &x,
            true,
            UvMode::On,
        )
        .unwrap();
    let p_off = model.estimate(&off.events).total_mw;
    let p_on = model.estimate(&on.events).total_mw;
    let reduction = 1.0 - p_on / p_off;
    // Paper: "around 50 %". Accept a generous band around it.
    assert!(
        (0.25..=0.75).contains(&reduction),
        "power reduction {:.1}% (off {p_off:.0} mW, on {p_on:.0} mW)",
        reduction * 100.0
    );
}

#[test]
fn energy_reduction_exceeds_cycle_reduction() {
    // Bypassed rows save a full W-memory read each — energy falls faster
    // than time.
    let (net, x) = engineered_network(0.5);
    let cfg = MachineConfig::default();
    let machine = Machine::new(cfg);
    let model = PowerModel::new(&cfg);
    let off = machine
        .run_layer(
            &net.layers()[0],
            net.predictors().first(),
            &x,
            true,
            UvMode::Off,
        )
        .unwrap();
    let on = machine
        .run_layer(
            &net.layers()[0],
            net.predictors().first(),
            &x,
            true,
            UvMode::On,
        )
        .unwrap();
    let e_off = model.estimate(&off.events).energy_uj;
    let e_on = model.estimate(&on.events).energy_uj;
    let cycle_ratio = on.cycles as f64 / off.cycles as f64;
    let energy_ratio = e_on / e_off;
    assert!(
        energy_ratio < cycle_ratio,
        "energy ratio {energy_ratio:.2} should beat cycle ratio {cycle_ratio:.2}"
    );
}

#[test]
fn uv_off_is_the_eie_baseline_predictor_agnostic() {
    // With the predictor disabled the machine must behave identically
    // whether or not a predictor is even attached — it *is* EIE then.
    let (net, x) = engineered_network(0.5);
    let machine = Machine::new(MachineConfig::default());
    let with = machine
        .run_layer(
            &net.layers()[0],
            net.predictors().first(),
            &x,
            true,
            UvMode::Off,
        )
        .unwrap();
    let without = machine
        .run_layer(&net.layers()[0], None, &x, true, UvMode::Off)
        .unwrap();
    assert_eq!(with.output, without.output);
    assert_eq!(with.cycles, without.cycles);
    assert_eq!(with.events, without.events);
}

#[test]
fn v_phase_keeps_pes_busy_at_rank_16() {
    // §V.C: "The utilization rate of the V computation is closed to 100%
    // even when the rank size r is as low as 16." With column-based
    // scheduling every participating PE computes r × (local nonzeros)
    // MACs; check the V/U phase cost is near the analytic lower bound.
    let n = 784usize;
    let m = 1024usize;
    let r = 16usize;
    let w = Matrix::from_fn(m, n, |i, j| ((i + j) % 7) as f32 * 0.02 - 0.06);
    let out = Matrix::from_fn(10, m, |_, j| (j % 5) as f32 * 0.01);
    let mlp = Mlp::new(vec![DenseLayer::new(w), DenseLayer::new(out)]);
    let u = Matrix::from_fn(m, r, |i, t| if (i + t) % 3 == 0 { 0.05 } else { -0.02 });
    let v = Matrix::from_fn(r, n, |t, j| ((t + j) % 11) as f32 * 0.01 - 0.04);
    let net = FixedNetwork::from_float(&PredictedNetwork::new(mlp, vec![Predictor::new(u, v)]));
    let x: Vec<f32> = (0..n).map(|j| if j % 2 == 0 { 0.3 } else { 0.0 }).collect();
    let xq = net.quantize_input(&x);
    let nnz = xq.iter().filter(|v| !v.is_zero()).count();

    let machine = Machine::new(MachineConfig::default());
    let run = machine
        .run_layer(
            &net.layers()[0],
            net.predictors().first(),
            &xq,
            true,
            UvMode::On,
        )
        .unwrap();
    // Lower bound: V MACs r×⌈nnz/64⌉ plus U MACs r×(m/64), perfectly
    // overlapped. Allow 2× for reduction/broadcast latency.
    let v_bound = r as u64 * (nnz as u64).div_ceil(64);
    let u_bound = r as u64 * (m as u64 / 64);
    assert!(
        run.vu_cycles <= 2 * (v_bound + u_bound),
        "V/U phase {} cycles vs bound {} — utilization too low",
        run.vu_cycles,
        v_bound + u_bound
    );
}
