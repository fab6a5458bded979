//! Virtual-time serving study: latency vs offered load per scheduler
//! over homogeneous and heterogeneous fleets (beyond the paper).
fn main() -> std::process::ExitCode {
    let p = sparsenn_core::Profile::from_env();
    sparsenn_bench::report::finish(sparsenn_bench::experiments::serve::run(p))
}
