//! Production front end study: admission under overload, hedging against
//! injected faults, autoscaling, and the SLO policy sweep (beyond the
//! paper).
fn main() -> std::process::ExitCode {
    let p = sparsenn_core::Profile::from_env();
    sparsenn_bench::report::finish(sparsenn_bench::experiments::frontend::run(p))
}
