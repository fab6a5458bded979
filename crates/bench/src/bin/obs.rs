//! Standalone runner for the observability study: end-to-end trace
//! export and the tracing-overhead oracles.
fn main() -> std::process::ExitCode {
    let p = sparsenn_core::Profile::from_env();
    sparsenn_bench::report::finish(sparsenn_bench::experiments::obs::run(p))
}
