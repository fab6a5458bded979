//! Prints the trace-analytics report — latency breakdown with critical
//! paths, tail exemplars, burn-rate alerts — for a recorded run or the
//! seeded scenario.
//!
//! ```text
//! trace_report                   # re-run the seeded overload scenario
//! trace_report --input FILE     # analyze a recorded Chrome-trace JSON
//! trace_report --top N --k N    # slowest requests to print / exemplars to list
//! ```
//!
//! Output is byte-deterministic for a given input (or for the fixed
//! scenario seed) — CI diffs two invocations.

use sparsenn_bench::experiments::analyze::{capture, render_report};
use sparsenn_bench::report::parse_chrome_trace;
use sparsenn_obs::{analyze, offline_top_k};

fn main() {
    let mut input: Option<String> = None;
    let mut top = 8usize;
    let mut k = 10usize;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut usize_value = |flag: &str| {
            args.next()
                .and_then(|v| v.parse().ok())
                .unwrap_or_else(|| die(&format!("{flag} needs a number")))
        };
        match arg.as_str() {
            "--input" => input = Some(args.next().unwrap_or_else(|| die("--input needs a path"))),
            "--top" => top = usize_value("--top"),
            "--k" => k = usize_value("--k"),
            "--help" | "-h" => {
                println!("usage: trace_report [--input FILE] [--top N] [--k N]");
                return;
            }
            other => die(&format!("unknown argument {other:?}")),
        }
    }

    let (spans, alerts) = match input {
        Some(path) => {
            // A recorded trace carries no live monitor state: burn
            // alerts are absent.
            let src = std::fs::read_to_string(&path)
                .unwrap_or_else(|err| die(&format!("cannot read {path}: {err}")));
            let spans = parse_chrome_trace(&src)
                .unwrap_or_else(|err| die(&format!("cannot parse {path}: {err}")));
            (spans, Vec::new())
        }
        None => {
            let (summary, spans) = capture(true);
            (spans, summary.burn_alerts)
        }
    };
    let report = render_report(&analyze(&spans), &offline_top_k(&spans, k), &alerts, top);
    print!("{report}");
}

fn die(msg: &str) -> ! {
    eprintln!("trace_report: {msg}");
    std::process::exit(2);
}
