//! Table II: the micro-architectural parameters of 64-PE SparseNN.

use crate::report::Report;
use sparsenn_core::sim::MachineConfig;
use std::fmt::Write as _;

/// Renders Table II from the default [`MachineConfig`], so the report can
/// never drift from what the simulator actually uses.
pub fn run() -> Report {
    let cfg = MachineConfig::default();
    let rows = vec![
        vec![
            "Quantization scheme".into(),
            "16-bit fixed point".into(),
            "16-bit fixed point (Q6.10)".into(),
        ],
        vec![
            "On-chip W/U/V memory per PE".into(),
            "128KB/8KB/8KB".into(),
            format!(
                "{}KB/{}KB/{}KB",
                cfg.w_mem_bytes / 1024,
                cfg.u_mem_bytes / 1024,
                cfg.v_mem_bytes / 1024
            ),
        ],
        vec![
            "Activation register no. per PE".into(),
            "64".into(),
            cfg.act_regs_per_pe.to_string(),
        ],
        vec![
            "Flow control of NoC router".into(),
            "Packet-buffer with credit".into(),
            format!(
                "packet-buffer with credit (depth {})",
                cfg.noc.queue_capacity
            ),
        ],
    ];
    let mut out = Report::default();
    let _ = writeln!(out, "## Table II — micro-architectural parameters\n");
    out.table(&["parameter", "paper", "this implementation"], &rows);
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "Derived: {} PEs, total W memory {} MB, max activations/layer {}, \
         peak {} GOP/s @ {} ns clock.",
        cfg.num_pes(),
        cfg.total_w_mem_bytes() / (1024 * 1024),
        cfg.max_activations(),
        cfg.peak_gops(),
        cfg.clock_ns,
    );
    out
}

#[cfg(test)]
mod tests {
    #[test]
    fn report_contains_paper_values() {
        let s = super::run().markdown;
        assert!(s.contains("128KB/8KB/8KB"));
        assert!(s.contains("64 GOP/s"));
        assert!(s.contains("8 MB"));
    }
}
