//! Regenerates the paper's Table I (5-layer TER & per-layer sparsity).
fn main() -> std::process::ExitCode {
    let p = sparsenn_core::Profile::from_env();
    sparsenn_bench::report::finish(sparsenn_bench::experiments::table1::run(p))
}
