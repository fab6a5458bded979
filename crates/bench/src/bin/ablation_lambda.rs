//! Ablation: ℓ1 regularization factor λ (paper Eq. (4)).
fn main() -> std::process::ExitCode {
    let p = sparsenn_core::Profile::from_env();
    sparsenn_bench::report::finish(sparsenn_bench::experiments::ablations::lambda(p))
}
