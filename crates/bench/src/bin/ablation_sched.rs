//! Ablation: column- vs row-based V scheduling (paper §V.C).
fn main() -> std::process::ExitCode {
    sparsenn_bench::report::finish(sparsenn_bench::experiments::ablations::sched())
}
