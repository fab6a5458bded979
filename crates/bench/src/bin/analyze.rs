//! Standalone runner for the trace-analytics study: critical-path
//! attribution, tail exemplars, and burn-rate oracles on the seeded
//! 4-shard overload scenario.
fn main() -> std::process::ExitCode {
    sparsenn_bench::report::finish(sparsenn_bench::experiments::analyze::run())
}
