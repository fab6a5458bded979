//! Fleet serving scaling study: throughput/latency across simulated
//! accelerator shards (beyond the paper — the "heavy traffic" north star).
fn main() -> std::process::ExitCode {
    let p = sparsenn_core::Profile::from_env();
    sparsenn_bench::report::finish(sparsenn_bench::experiments::fleet::run(p))
}
