//! Regenerates the paper's Table III (area breakdown).
fn main() -> std::process::ExitCode {
    sparsenn_bench::report::finish(sparsenn_bench::experiments::table3::run())
}
