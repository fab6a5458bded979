//! Benchmark harness regenerating every table and figure of the paper.
//!
//! Each experiment lives in [`experiments`] as a function returning a
//! [`report::Report`]: the markdown report (paper-reported values
//! alongside measured ones), named metrics, and the oracles the
//! experiment declares. The `src/bin/*` binaries are thin wrappers that
//! end in [`report::finish`]: they print the report and exit non-zero
//! when a declared oracle is false or missing, which is what CI gates
//! on. Scale is controlled by `SPARSENN_PROFILE` (`fast` default /
//! `full` paper scale) — see [`sparsenn_core::Profile`].
//!
//! | target | regenerates | oracles (exit status) |
//! |---|---|---|
//! | `cargo run --release -p sparsenn-bench --bin fig6` | Fig. 6 (TER & sparsity vs rank) | — |
//! | `… --bin table1` | Table I (5-layer TER & ρ per layer) | — |
//! | `… --bin table2` | Table II (machine parameters) | — |
//! | `… --bin table3` | Table III (area breakdown) | — |
//! | `… --bin fig7` | Fig. 7 (cycles & power per layer, uv_on/off) | — |
//! | `… --bin table4` | Table IV (platform comparison) | — |
//! | `… --bin ablation_noc` | §V.B buffered-flow-control ablation | — |
//! | `… --bin ablation_sched` | §V.C column- vs row-based V scheduling | — |
//! | `… --bin ablation_lambda` | Eq. (4) λ sweep | — |
//! | `… --bin fleet` | worker scaling: latency & wall time vs session workers | bit-identical to serial |
//! | `… --bin serve` | virtual-time serving: latency vs offered load per scheduler | closed loop matches the model; latency-aware dispatch wins |
//! | `… --bin kernel` | native CPU kernel: measured dense-vs-prescan wall-clock | bit-exact; ≥ 2× prescan; ≤ 1.25× engine overhead |
//! | `… --bin frontend` | production front end: admission, hedging, autoscaling, SLO sweep | high-priority SLO; low absorbs overload; hedging wins; autoscaler reacts |
//! | `… --bin batching` | cross-request batching: amortization and the serving knee | bit-identical; throughput monotone; latency cost visible |
//! | `… --bin partition` | model parallelism: oversized MLP on 2/4/8 chips, comm overhead | one chip rejects; overlap sound; bit-identical |
//! | `… --bin obs` | observability: Perfetto trace export, span and drop counts | trace deterministic, nested, covered; tracing overhead ≤ 1 % / ≤ 10 % |
//! | `… --bin analyze` | trace analytics: critical-path attribution, tail exemplars, burn rates | breakdowns sum; critical path bounded; burn rate discriminates; report deterministic |
//! | `… --bin trace_report` | text analytics report from a fresh run or a recorded trace (`--input FILE`) | — |
//! | `… --bin run_all` | everything above, in order, plus `BENCH_results.json` (always exits 0) | — |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod report;

use std::fmt::Write as _;

/// Renders a markdown table from a header and rows.
///
/// # Example
///
/// ```
/// let t = sparsenn_bench::markdown_table(&["a", "b"], &[vec!["1".into(), "2".into()]]);
/// assert!(t.contains("| a | b |"));
/// ```
pub fn markdown_table(header: &[&str], rows: &[Vec<String>]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "| {} |", header.join(" | "));
    let _ = writeln!(
        out,
        "|{}|",
        header.iter().map(|_| "---").collect::<Vec<_>>().join("|")
    );
    for row in rows {
        let _ = writeln!(out, "| {} |", row.join(" | "));
    }
    out
}

/// Formats a float with the given number of decimals.
pub fn fmt_f(x: f64, decimals: usize) -> String {
    format!("{x:.decimals$}")
}

/// Percentage change `(from → to)`, negative = reduction.
pub fn pct_change(from: f64, to: f64) -> f64 {
    if from == 0.0 {
        return 0.0;
    }
    100.0 * (to - from) / from
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn markdown_table_shape() {
        let t = markdown_table(&["x", "y"], &[vec!["1".into(), "2".into()]]);
        assert_eq!(t.lines().count(), 3);
        assert!(t.contains("| 1 | 2 |"));
    }

    #[test]
    fn pct_change_signs() {
        assert_eq!(pct_change(100.0, 50.0), -50.0);
        assert_eq!(pct_change(0.0, 50.0), 0.0);
        assert_eq!(pct_change(50.0, 100.0), 100.0);
    }
}
