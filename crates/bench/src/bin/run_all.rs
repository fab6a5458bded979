//! Runs every experiment in paper order (tables II & III first because
//! they are instantaneous, then the training-heavy figures), printing the
//! markdown reports to stdout and recording per-experiment wall time and
//! metrics in `BENCH_results.json` (override the path with
//! `SPARSENN_BENCH_JSON`).

use sparsenn_bench::experiments as e;
use sparsenn_bench::report::{BenchResults, Report};
use std::cell::OnceCell;

fn main() {
    let p = sparsenn_core::Profile::from_env();
    println!("# SparseNN reproduction — experiment suite (profile: {p})\n");
    let mut results = BenchResults::new(p.to_string());
    // The serving studies share one trained system — training is the
    // expensive part, so it is built once, timed as its own
    // `serving_train` line, and reused by every study after it.
    let study = OnceCell::new();
    let trained = || study.get_or_init(|| e::fleet::study_system(p));
    type Experiment<'a> = (&'a str, Box<dyn FnOnce() -> Report + 'a>);
    let experiments: Vec<Experiment> = vec![
        ("table2", Box::new(e::table2::run)),
        ("table3", Box::new(e::table3::run)),
        ("fig6", Box::new(|| e::fig6::run(p))),
        ("table1", Box::new(|| e::table1::run(p))),
        ("fig7", Box::new(|| e::fig7::run(p))),
        ("table4", Box::new(|| e::table4::run(p))),
        ("ablation_noc", Box::new(e::ablations::noc)),
        ("ablation_sched", Box::new(e::ablations::sched)),
        ("ablation_lambda", Box::new(|| e::ablations::lambda(p))),
        (
            "serving_train",
            Box::new(|| {
                trained();
                Report::default()
            }),
        ),
        ("fleet", Box::new(|| e::fleet::measure_with(p, trained()))),
        ("serve", Box::new(|| e::serve::measure_with(p, trained()))),
        (
            "frontend",
            Box::new(|| e::frontend::measure_with(p, trained())),
        ),
        (
            "batching",
            Box::new(|| e::batching::measure_with(p, trained())),
        ),
        ("kernel", Box::new(|| e::kernel::measure_with(p, trained()))),
        ("obs", Box::new(|| e::obs::measure_with(p, trained()))),
        // Trace analytics is self-contained (synthetic shards, no trained
        // system): critical-path attribution, tail exemplars, burn rates.
        ("analyze", Box::new(e::analyze::run)),
        // Model parallelism trains its own system: its study network must
        // *overflow* its (shrunken) chip, unlike the serving studies'.
        ("partition", Box::new(|| e::partition::run(p))),
    ];
    for (name, experiment) in experiments {
        let report = results.run(name, experiment);
        println!("{}", report.markdown);
        results.metrics.extend(report.metrics);
    }

    let path =
        std::env::var("SPARSENN_BENCH_JSON").unwrap_or_else(|_| "BENCH_results.json".to_string());
    match results.write_json(&path) {
        Ok(()) => eprintln!(
            "wrote {path} ({} experiments, {:.1}s total)",
            results.experiments.len(),
            results.total_seconds()
        ),
        Err(err) => eprintln!("could not write {path}: {err}"),
    }
}
