//! Table IV: comparison with the existing SIMD platforms, plus the paper's
//! technology-normalized energy-efficiency argument.

use crate::fmt_f;
use crate::report::Report;
use sparsenn_core::datasets::DatasetKind;
use sparsenn_core::energy::area::area_report;
use sparsenn_core::energy::scaling::normalize_energy_to_sparsenn;
use sparsenn_core::energy::TechNode;
use sparsenn_core::engine::{CycleAccurateBackend, GoldenBackend, InferenceBackend, SimdBackend};
use sparsenn_core::model::fixedpoint::UvMode;
use sparsenn_core::sim::simd::SimdPlatform;
use sparsenn_core::sim::MachineConfig;
use sparsenn_core::Profile;
use std::fmt::Write as _;

/// Renders Table IV. Reuses the Fig. 7 training pipeline to obtain the
/// measured SparseNN power and the BG-RAND first-hidden-layer energy the
/// paper's 4× argument is based on.
pub fn run(p: Profile) -> Report {
    let cfg = MachineConfig::default();
    let area = area_report(&cfg);

    // Measured SparseNN numbers on BG-RAND (the paper's reference point).
    // The summary's own power estimate is the machine's (65 nm, per-batch
    // events), so the min/max rates can be read off directly; `energy_uj`
    // is the per-sample mean.
    let sys = super::fig7::trained_system(DatasetKind::BgRand, p);
    let on = sys
        .simulate_batch(p.sim_samples(), UvMode::On)
        .expect("the paper-shaped network fits the default machine");
    let power_per_layer: Vec<f64> = on.layers.iter().map(|l| l.power.total_mw).collect();
    let p_min = power_per_layer
        .iter()
        .cloned()
        .fold(f64::INFINITY, f64::min);
    let p_max = power_per_layer.iter().cloned().fold(0.0, f64::max);
    let l1_energy_uj = on.layers[0].energy_uj;
    let nnz_l1 = 784; // BG-RAND inputs are dense
    let m_l1 = sys.network().mlp().layers()[0].outputs();

    let lradnn = SimdPlatform::lradnn(p.table_rank());
    let engine = SimdPlatform::dnn_engine();

    let mut rows = Vec::new();
    let mut platform_row =
        |name: &str, tech: String, peak: String, mem: String, power: String, a: String| {
            rows.push(vec![name.to_string(), tech, peak, mem, power, a]);
        };
    platform_row(
        lradnn.name,
        format!("{}nm", lradnn.tech_nm),
        format!("{:.2} GOPs", lradnn.peak_gops()),
        "3.5MB".into(),
        format!("{}~{} mW", lradnn.power_mw.0, lradnn.power_mw.1),
        format!("{} mm2", lradnn.area_mm2),
    );
    platform_row(
        engine.name,
        format!("{}nm", engine.tech_nm),
        format!("{:.0} GOPs", engine.peak_gops()),
        "1MB".into(),
        format!("{} mW", engine.power_mw.0),
        format!("{} mm2", engine.area_mm2),
    );
    platform_row(
        "SparseNN (this work, measured)",
        "65nm (model)".into(),
        format!("{:.0} GOPs", cfg.peak_gops()),
        format!("{}MB", cfg.total_w_mem_bytes() / (1024 * 1024)),
        format!("{:.0}~{:.0} mW", p_min, p_max),
        format!("{:.0} mm2", area.total_mm2),
    );

    let mut out = Report::default();
    let _ = writeln!(
        out,
        "## Table IV — comparison with SIMD platforms (profile: {p})\n"
    );
    out.table(
        &[
            "platform",
            "technology",
            "peak perf.",
            "W memory",
            "power",
            "area",
        ],
        &rows,
    );
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "Paper reference row: SparseNN 65nm, 64 GOPs, 8MB, 452~705 mW, 78 mm2.\n"
    );

    // The energy-efficiency argument.
    let engine_cycles = engine.layer_cycles(m_l1, nnz_l1 + 1, nnz_l1 + 1, m_l1);
    let engine_energy = engine.energy_uj(engine_cycles);
    let (factor, scaled) =
        normalize_energy_to_sparsenn(engine_energy, engine.w_mem_bytes, TechNode::n28());
    let advantage = scaled / l1_energy_uj;
    let _ = writeln!(
        out,
        "### Energy-efficiency argument (BG-RAND, 1st hidden layer)\n"
    );
    let _ = writeln!(
        out,
        "- DNN-Engine modelled: {} cycles, {} µJ (paper: 785×1000/8 cycles ≈ 5.1 µJ)",
        engine_cycles,
        fmt_f(engine_energy, 2)
    );
    let _ = writeln!(
        out,
        "- SparseNN measured: {} µJ (paper: ≈ 14 µJ at full scale)",
        fmt_f(l1_energy_uj, 2)
    );
    let _ = writeln!(
        out,
        "- per-access scaling 28nm/1MB → 65nm/8MB: {:.1}× (paper: ≈ 11×)",
        factor
    );
    let _ = writeln!(
        out,
        "- normalized energy-efficiency advantage of SparseNN: {:.1}× (paper: ≈ 4×)",
        advantage
    );

    // One workload, every substrate: the same BG-RAND sample pushed through
    // each InferenceBackend — the comparison the paper's Table IV frames,
    // now one constructor call per row. The latency column comes from each
    // backend's own clock model via `RunRecord::time_us` (the golden model
    // is timing-free, hence 0).
    let _ = writeln!(out, "\n### One sample, four substrates (engine API)\n");
    let backends: Vec<Box<dyn InferenceBackend>> = vec![
        Box::new(CycleAccurateBackend::with_config(cfg)),
        Box::new(GoldenBackend::new()),
        Box::new(SimdBackend::new(lradnn)),
        Box::new(SimdBackend::new(engine)),
    ];
    let mut backend_rows = Vec::new();
    for backend in backends {
        let session = sys.session_with(backend);
        let name = session.backend_name().to_string();
        match session.run_sample(0, UvMode::On) {
            Ok(record) => {
                let ev = record.total_events();
                backend_rows.push(vec![
                    name,
                    format!("{}", record.total_cycles()),
                    fmt_f(record.time_us(), 2),
                    format!("{}", ev.macs),
                    format!("{}", ev.w_reads),
                    format!("{}", record.classify()),
                ]);
            }
            Err(e) => backend_rows.push(vec![
                name,
                format!("error: {e}"),
                String::new(),
                String::new(),
                String::new(),
                String::new(),
            ]),
        }
    }
    out.table(
        &[
            "backend",
            "modelled cycles",
            "latency (us)",
            "MACs",
            "W reads",
            "class",
        ],
        &backend_rows,
    );
    let _ = writeln!(
        out,
        "\nOutputs are bit-exact across all four rows (asserted by the engine tests); \
         only the timing/activity models differ. Latency follows each backend's own \
         clock model (2 ns/cycle machine, published SIMD frequencies; the golden \
         model is timing-free)."
    );
    out
}
