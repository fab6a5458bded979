//! Regenerates the paper's Table II (machine parameters).
fn main() -> std::process::ExitCode {
    sparsenn_bench::report::finish(sparsenn_bench::experiments::table2::run())
}
