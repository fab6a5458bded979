//! Worker-scaling study: modelled latency and host wall time of one
//! cycle-accurate batch at 1, 2, 4 and 8 session workers (beyond the
//! paper — the "heavy traffic" north star).
fn main() -> std::process::ExitCode {
    let p = sparsenn_core::Profile::from_env();
    sparsenn_bench::report::finish(sparsenn_bench::experiments::fleet::run(p))
}
