//! Ablation: buffered NoC flow control (paper §V.B).
fn main() -> std::process::ExitCode {
    sparsenn_bench::report::finish(sparsenn_bench::experiments::ablations::noc())
}
