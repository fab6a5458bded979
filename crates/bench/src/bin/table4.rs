//! Regenerates the paper's Table IV (SIMD platform comparison).
fn main() -> std::process::ExitCode {
    let p = sparsenn_core::Profile::from_env();
    sparsenn_bench::report::finish(sparsenn_bench::experiments::table4::run(p))
}
