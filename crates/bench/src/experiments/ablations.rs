//! Ablations of the paper's design choices: buffered NoC flow control
//! (§V.B), column- vs row-based V scheduling (§V.C) and the λ sweep of
//! Eq. (4).

use crate::fmt_f;
use crate::report::Report;
use sparsenn_core::datasets::DatasetKind;
use sparsenn_core::linalg::init::seeded_rng;
use sparsenn_core::model::fixedpoint::{FixedMatrix, FixedNetwork, UvMode};
use sparsenn_core::model::{Mlp, PredictedNetwork};
use sparsenn_core::sim::{Machine, MachineConfig};
use sparsenn_core::{Profile, SystemBuilder, TrainingAlgorithm};
use std::fmt::Write as _;

/// §V.B ablation: buffered credit flow control vs minimal router buffers,
/// on a "fat" few-row matrix where the PE consumes one activation per
/// cycle and any delivery hiccup becomes an idle datapath cycle.
pub fn noc() -> Report {
    let mut rng = seeded_rng(0xB0FFE2);
    // 16×784 "V-shaped" matrix: one row per 4 PEs ⇒ delivery-rate bound.
    let mlp = Mlp::random(&[784, 16], &mut rng);
    let net = FixedNetwork::from_mlp(&mlp);
    let x: Vec<f32> = (0..784).map(|i| ((i * 37) % 97) as f32 / 97.0).collect();
    let xq = net.quantize_input(&x);

    let mut rows = Vec::new();
    let mut base_cycles = None;
    for depth in [1usize, 2, 4, 16] {
        let cfg = MachineConfig {
            act_queue_depth: depth,
            ..MachineConfig::default()
        };
        let machine = Machine::new(cfg);
        let run = machine
            .run_layer(&net.layers()[0], None, &xq, false, UvMode::Off)
            .expect("the layer fits the machine");
        let base = *base_cycles.get_or_insert(run.cycles);
        rows.push(vec![
            depth.to_string(),
            run.cycles.to_string(),
            format!("{:.2}x", run.cycles as f64 / base as f64),
            fmt_f(run.events.utilization() * 100.0, 1),
            run.events.noc.sink_stalls.to_string(),
        ]);
    }
    let mut out = Report::default();
    let _ = writeln!(
        out,
        "## Ablation — buffered NoC flow control (paper §V.B)\n"
    );
    let _ = writeln!(
        out,
        "Fat 16×784 matrix (V-phase shape): each PE holds at most one output row and \
         consumes one activation per cycle, so throughput is bound by delivery. \
         Depth 1 models an unbuffered single-outstanding broadcast (one activation in \
         flight at a time — the broadcast waits out the full tree latency per \
         activation); the paper's buffered credit flow keeps one delivery per cycle.\n"
    );
    out.table(
        &[
            "activation queue depth",
            "cycles",
            "vs depth 1",
            "PE utilization %",
            "root sink stalls",
        ],
        &rows,
    );
    let _ = writeln!(out);

    // Router-buffer depth, by contrast, barely matters once the PE-side
    // queue exists — credits recycle fast enough at every depth.
    let mut router_rows = Vec::new();
    for cap in [1usize, 2, 4, 8] {
        let mut cfg = MachineConfig::default();
        cfg.noc.queue_capacity = cap;
        let machine = Machine::new(cfg);
        let run = machine
            .run_layer(&net.layers()[0], None, &xq, false, UvMode::Off)
            .expect("the layer fits the machine");
        router_rows.push(vec![
            cap.to_string(),
            run.cycles.to_string(),
            run.events.noc.credit_stalls.to_string(),
        ]);
    }
    let _ = writeln!(
        out,
        "Router buffer depth is far less sensitive (cheap buffers suffice — \
         consistent with the paper's <1% routing area):\n"
    );
    out.table(
        &["router buffer depth", "cycles", "credit stalls"],
        &router_rows,
    );
    out
}

/// §V.C ablation: column-based vs row-based scheduling of the predictor's
/// V matrix, for rank r ∈ {4, 8, 16, 32, 64}.
///
/// Row-based scheduling maps V's `r` rows onto `r` of the 64 PEs (the rest
/// idle); column-based scheduling (the paper's choice) spreads V's columns
/// over all 64 PEs and reduces partial sums through the tree's ACC stage.
pub fn sched() -> Report {
    let mut rng = seeded_rng(0x5CED);
    let n = 784usize;
    let x: Vec<f32> = (0..n)
        .map(|i| {
            if i % 4 == 0 {
                0.0
            } else {
                (i as f32 * 0.13).sin()
            }
        })
        .collect();

    let mut rows = Vec::new();
    for r in [4usize, 8, 16, 32, 64] {
        // The V matrix for this rank.
        let v = sparsenn_core::linalg::init::xavier_uniform(r, n, &mut rng);
        let vq = FixedMatrix::from_float(&v);

        // Row-based: V as an ordinary row-interleaved layer.
        let machine = Machine::new(MachineConfig::default());
        let xq: Vec<_> = x
            .iter()
            .map(|&f| sparsenn_core::numeric::Q6_10::from_f32(f))
            .collect();
        let row_run = machine
            .run_layer(&vq, None, &xq, false, UvMode::Off)
            .expect("the layer fits the machine");

        // Column-based: the machine's real V phase. Isolate it with a
        // predictor whose U phase is negligible (1 output row) and a W
        // matrix of a single row.
        let w = sparsenn_core::linalg::Matrix::zeros(1, n);
        let mlp = Mlp::new(vec![sparsenn_core::model::DenseLayer::new(w)]);
        // One-layer MLP has no hidden layer; build a 2-layer net instead
        // with the predictor on the first layer.
        let mlp2 = Mlp::new(vec![
            sparsenn_core::model::DenseLayer::new(sparsenn_core::linalg::Matrix::zeros(64, n)),
            sparsenn_core::model::DenseLayer::new(sparsenn_core::linalg::Matrix::zeros(1, 64)),
        ]);
        drop(mlp);
        let pred = sparsenn_core::model::Predictor::new(
            sparsenn_core::linalg::init::xavier_uniform(64, r, &mut rng),
            v.clone(),
        );
        let net = FixedNetwork::from_float(&PredictedNetwork::new(mlp2, vec![pred]));
        let col_run = machine
            .run_layer(
                &net.layers()[0],
                net.predictors().first(),
                &xq,
                true,
                UvMode::On,
            )
            .expect("the layer fits the machine");

        rows.push(vec![
            r.to_string(),
            row_run.cycles.to_string(),
            fmt_f(row_run.events.utilization() * 100.0, 1),
            col_run.vu_cycles.to_string(),
            format!("{:.1}", 100.0 * (r as f64 / 64.0).min(1.0)),
        ]);
    }
    let mut out = Report::default();
    let _ = writeln!(out, "## Ablation — V-matrix scheduling (paper §V.C)\n");
    let _ = writeln!(
        out,
        "Row-based scheduling uses only r of the 64 PEs (its utilization column is \
         measured); column-based keeps all participating PEs busy regardless of r — \
         the paper claims near-100% V utilization even at r = 16. The `vu cycles` \
         column is the machine's real (V+U) predictor phase at that rank.\n"
    );
    out.table(
        &[
            "rank r",
            "row-based cycles",
            "row-based utilization %",
            "column-based V+U cycles",
            "row-based PE coverage % (r/64)",
        ],
        &rows,
    );
    out
}

/// Eq. (4) ablation: the sparsity/accuracy trade-off of the ℓ1 factor λ.
pub fn lambda(p: Profile) -> Report {
    let mut rows = Vec::new();
    for &lambda in &[0.0f32, 1e-4, 1e-3, 5e-3, 2e-2] {
        let mut cfg = sparsenn_core::train::TrainConfig {
            epochs: p.epochs(),
            lambda,
            ..Default::default()
        };
        cfg.seed = 77;
        let sys = SystemBuilder::new(DatasetKind::Basic)
            .dims(&p.dims_3layer())
            .rank(p.table_rank())
            .algorithm(TrainingAlgorithm::EndToEnd)
            .train_samples(p.train_samples())
            .test_samples(p.test_samples())
            .train_config(cfg)
            .build();
        rows.push(vec![
            format!("{lambda:.0e}"),
            fmt_f(sys.test_error_rate() as f64, 2),
            fmt_f(sys.predicted_sparsity()[0] as f64, 1),
        ]);
    }
    let mut out = Report::default();
    let _ = writeln!(
        out,
        "## Ablation — ℓ1 regularization factor λ (Eq. (4), profile: {p})\n"
    );
    let _ = writeln!(
        out,
        "Paper: \"a larger regularization factor λ can result in a larger sparsity \
         prediction in each layer, but TER might be affected due to the underfitting.\"\n"
    );
    out.table(&["lambda", "TER %", "predicted sparsity %"], &rows);
    out
}
