//! Model-parallelism study: an MLP too big for one chip's W memory,
//! served on 2/4/8 NoC-connected chips.
fn main() -> std::process::ExitCode {
    let p = sparsenn_core::Profile::from_env();
    sparsenn_bench::report::finish(sparsenn_bench::experiments::partition::run(p))
}
