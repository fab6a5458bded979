//! Fig. 7: execution cycles and power per hidden layer on the three
//! datasets, 5-layer DNN, with the predictor enabled (`uv_on`) and
//! disabled (`uv_off` = EIE baseline).

use crate::report::Report;
use crate::{fmt_f, pct_change};
use sparsenn_core::datasets::DatasetKind;
use sparsenn_core::model::fixedpoint::UvMode;
use sparsenn_core::{Profile, SystemBuilder, TrainedSystem, TrainingAlgorithm};
use std::fmt::Write as _;

/// Measured numbers for one hidden layer in one mode.
#[derive(Clone, Copy, Debug)]
pub struct LayerPoint {
    /// Mean execution cycles per sample.
    pub cycles: f64,
    /// Estimated power, mW.
    pub power_mw: f64,
    /// Estimated energy per sample, µJ.
    pub energy_uj: f64,
}

/// Measured Fig. 7 data for one dataset.
#[derive(Clone, Debug)]
pub struct Fig7Series {
    /// Dataset variant.
    pub kind: DatasetKind,
    /// Per hidden layer: `(uv_off, uv_on)`.
    pub layers: Vec<(LayerPoint, LayerPoint)>,
}

/// Trains the 5-layer end-to-end network for one dataset (shared with
/// Table IV so the measurement base matches the paper's).
pub fn trained_system(kind: DatasetKind, p: Profile) -> TrainedSystem {
    // Dense BG-RAND inputs roughly double the per-sample gradient norm of
    // the sparse variants; a gentler step keeps all hidden layers alive.
    let cfg = sparsenn_core::train::TrainConfig {
        epochs: p.hw_epochs(),
        lr: 0.01,
        ..Default::default()
    };
    SystemBuilder::new(kind)
        .dims(&p.hw_dims_5layer())
        .rank(p.table_rank())
        .algorithm(TrainingAlgorithm::EndToEnd)
        .train_samples(p.hw_train_samples())
        .test_samples(p.test_samples())
        .train_config(cfg)
        .build()
}

/// Simulates both modes and collects per-hidden-layer cycles and power.
pub fn measure(sys: &TrainedSystem, p: Profile) -> Fig7Series {
    let hidden = sys.network().predictors().len();
    let off = sys
        .simulate_batch(p.sim_samples(), UvMode::Off)
        .expect("the paper-shaped network fits the default machine");
    let on = sys
        .simulate_batch(p.sim_samples(), UvMode::On)
        .expect("the paper-shaped network fits the default machine");
    // `LayerSummary` reports per-sample means directly (`energy_uj` is
    // already `power.energy_uj / samples`).
    let point = |s: &sparsenn_core::LayerSummary| LayerPoint {
        cycles: s.cycles,
        power_mw: s.power.total_mw,
        energy_uj: s.energy_uj,
    };
    Fig7Series {
        kind: sys.kind(),
        layers: (0..hidden)
            .map(|l| (point(&off.layers[l]), point(&on.layers[l])))
            .collect(),
    }
}

/// Renders the Fig. 7 report for all three datasets.
pub fn run(p: Profile) -> Report {
    let mut out = Report::default();
    let _ = writeln!(
        out,
        "## Fig. 7 — execution cycles & power per hidden layer (profile: {p})\n"
    );
    let _ = writeln!(
        out,
        "Paper shape to reproduce: BG-RAND's 1st hidden layer is the most expensive \
         (dense inputs); uv_on cuts cycles 10–31% on the 1st hidden layer and up to \
         70% on the deeper layers (predictor-induced input sparsity compounds); \
         power drops roughly in half; energy per inference drops even more.\n"
    );
    let mut rows = Vec::new();
    for kind in [DatasetKind::Basic, DatasetKind::BgRand, DatasetKind::Rot] {
        let sys = trained_system(kind, p);
        let series = measure(&sys, p);
        for (l, (off, on)) in series.layers.iter().enumerate() {
            rows.push(vec![
                format!("{kind}"),
                format!("hidden {}", l + 1),
                fmt_f(off.cycles, 0),
                fmt_f(on.cycles, 0),
                format!("{:+.1}%", pct_change(off.cycles, on.cycles)),
                fmt_f(off.power_mw, 0),
                fmt_f(on.power_mw, 0),
                format!("{:+.1}%", pct_change(off.power_mw, on.power_mw)),
                fmt_f(off.energy_uj, 2),
                fmt_f(on.energy_uj, 2),
                format!("{:+.1}%", pct_change(off.energy_uj, on.energy_uj)),
            ]);
        }
    }
    out.table(
        &[
            "dataset",
            "layer",
            "cycles uv_off",
            "cycles uv_on",
            "delta-cycles",
            "power uv_off (mW)",
            "power uv_on (mW)",
            "delta-power",
            "energy uv_off (uJ)",
            "energy uv_on (uJ)",
            "delta-energy",
        ],
        &rows,
    );
    out
}
