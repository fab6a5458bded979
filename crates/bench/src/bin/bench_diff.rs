//! Compares two `BENCH_results.json` files: per-experiment wall-time
//! delta, modelled-metric delta, and regression flags — wall times that
//! grew, plus metrics that moved in their bad direction (goodput and
//! friends falling, latencies and shed rates growing).
//!
//! ```sh
//! cargo run --release -p sparsenn-bench --bin bench_diff -- \
//!     old/BENCH_results.json new/BENCH_results.json --threshold 25
//! ```
//!
//! `--json PATH` additionally writes the diff as a machine-readable
//! document (regression lists plus the rendered markdown) for
//! dashboards that track the perf trajectory without parsing tables.
//!
//! Exits non-zero when any experiment's wall time grew past the threshold
//! (default 25%). Experiments whose old wall time is under
//! `MIN_JUDGED_SECONDS` (1 s) show their delta but are not judged: one
//! reading per side cannot tell a short run's change from its noise.
//! Directional metric moves are flagged `WORSE` in the
//! table but do not affect the exit code (modelled metrics shift
//! legitimately when the study network changes). Wire it into CI as a
//! non-blocking step to make perf trends visible without gating merges
//! on noisy runners.

use sparsenn_bench::report::{diff_snapshots, BenchSnapshot};
use std::process::ExitCode;

const USAGE: &str = "usage: bench_diff OLD.json NEW.json [--threshold PCT] [--json PATH]";

fn load(path: &str) -> Result<BenchSnapshot, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    BenchSnapshot::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn run() -> Result<bool, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut paths = Vec::new();
    let mut threshold = 25.0f64;
    let mut json_path: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--threshold" => {
                i += 1;
                threshold = args
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .ok_or("--threshold needs a percentage")?;
            }
            "--json" => {
                i += 1;
                json_path = Some(args.get(i).ok_or("--json needs a path")?.clone());
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                return Ok(true);
            }
            p => paths.push(p.to_string()),
        }
        i += 1;
    }
    let [old_path, new_path] = paths.as_slice() else {
        return Err(USAGE.to_string());
    };
    let diff = diff_snapshots(&load(old_path)?, &load(new_path)?, threshold);
    println!("{}", diff.markdown);
    if let Some(path) = json_path {
        std::fs::write(&path, diff.to_json()).map_err(|e| format!("{path}: {e}"))?;
        eprintln!("wrote {path}");
    }
    Ok(diff.regressions.is_empty())
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
    }
}
