//! Regenerates the paper's Fig. 7 (cycles & power per layer, uv_on/off).
fn main() -> std::process::ExitCode {
    let p = sparsenn_core::Profile::from_env();
    sparsenn_bench::report::finish(sparsenn_bench::experiments::fig7::run(p))
}
