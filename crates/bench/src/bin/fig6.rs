//! Regenerates the paper's Fig. 6 (TER & sparsity vs rank).
fn main() -> std::process::ExitCode {
    let p = sparsenn_core::Profile::from_env();
    sparsenn_bench::report::finish(sparsenn_bench::experiments::fig6::run(p))
}
