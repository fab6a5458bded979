//! Standalone runner for the native-kernel wall-clock study.
fn main() -> std::process::ExitCode {
    let p = sparsenn_core::Profile::from_env();
    sparsenn_bench::report::finish(sparsenn_bench::experiments::kernel::run(p))
}
