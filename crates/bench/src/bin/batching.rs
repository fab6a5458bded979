//! Standalone runner for the cross-request batching study.
fn main() -> std::process::ExitCode {
    let p = sparsenn_core::Profile::from_env();
    sparsenn_bench::report::finish(sparsenn_bench::experiments::batching::run(p))
}
