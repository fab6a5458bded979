//! Worker scaling: host wall time of one cycle-accurate batch across
//! [`Session`](sparsenn_core::engine::Session) worker counts (beyond the
//! paper — the "heavy traffic" north star).
//!
//! `n` workers on one cycle-accurate backend serve a batch as `n`
//! identical machines behind one queue. Per-sample modelled latency is a
//! property of one chip and must stay constant as `n` grows, while host
//! wall time falls as workers find free cores. The experiment also
//! re-checks the bit-identical guarantee: every worker count folds the
//! exact same [`SimulationSummary`](sparsenn_core::SimulationSummary) the
//! serial path produces. The worker counts are timed alternately, rep by
//! rep, with [`min_wall_us`], so drift in the host's speed hits each alike.
//!
//! Modelled *throughput* is not reported here: `workers / latency` is
//! degenerate (no queueing, no burstiness, no dispatch policy), and the
//! `serve` experiment's virtual-time simulation
//! ([`experiments::serve`](super::serve)) covers it.

use crate::fmt_f;
use crate::report::Report;
use sparsenn_core::datasets::DatasetKind;
use sparsenn_core::model::fixedpoint::UvMode;
use sparsenn_core::{Profile, SystemBuilder, TrainedSystem, TrainingAlgorithm};
use sparsenn_obs::min_wall_us;
use std::fmt::Write as _;

const ORACLES: &[&str] = &["fleet.bit_identical"];

/// Worker-pool sizes the study compares.
const WORKERS: [usize; 4] = [1, 2, 4, 8];

/// Timed reps per worker count; each count reports its fastest.
const REPS: usize = 3;

/// The small 3-layer system both serving studies (`fleet` and `serve`)
/// measure — training is the expensive part, so `run_all` builds it once
/// and passes it to both [`measure_with`] and
/// [`serve::measure_with`](super::serve::measure_with).
pub fn study_system(p: Profile) -> TrainedSystem {
    // A 3-layer system keeps the studies quick; the serving path is the
    // same one the 5-layer hardware experiments use.
    SystemBuilder::new(DatasetKind::Basic)
        .dims(&[784, p.hidden().min(512), 10])
        .rank(p.table_rank().min(8))
        .algorithm(TrainingAlgorithm::EndToEnd)
        .train_samples(p.hw_train_samples() / 2)
        .test_samples(p.test_samples())
        .epochs(2)
        .build()
}

/// Runs the worker-scaling study, training its own [`study_system`].
pub fn run(p: Profile) -> Report {
    measure_with(p, &study_system(p))
}

/// Runs the worker-scaling study on an already-trained system.
pub fn measure_with(p: Profile, sys: &TrainedSystem) -> Report {
    let dims = sys.network().mlp().dims();
    let batch = (p.sim_samples() * 4).min(sys.split().test.len());

    let serial = &sys
        .session()
        .simulate_batch_serial(batch, UvMode::On)
        .expect("the study network fits the default machine");

    // Per worker count: its session, whether every rep folded the serial
    // summary, and the modelled per-sample latency it reported.
    let mut arms = WORKERS.map(|n| (sys.session().with_workers(n), true, 0.0));
    let mut runs = arms.each_mut().map(|(session, identical, latency_us)| {
        move || {
            let summary = session
                .simulate_batch(batch, UvMode::On)
                .expect("the study network fits the default machine");
            *identical &= summary == *serial;
            *latency_us = summary.time_us();
        }
    });
    let wall_us = min_wall_us(REPS, runs.each_mut().map(|f| f as &mut dyn FnMut()));
    let identical = arms.iter().all(|(_, ok, _)| *ok);

    let mut out = Report::new(ORACLES);
    let _ = writeln!(
        out,
        "## Worker scaling — host wall time across session workers (profile: {p})\n"
    );
    let _ = writeln!(
        out,
        "{batch} samples, 3-layer [{}, {}, {}] network, one cycle-accurate \
         backend shared by every worker; fastest of {REPS} alternating reps per \
         worker count. Per-sample latency is one chip's clock model and must not \
         change with the worker count. (Modelled serving throughput lives in the \
         `serve` experiment's virtual-time simulation.)\n",
        dims[0], dims[1], dims[2]
    );
    let rows: Vec<Vec<String>> = WORKERS
        .iter()
        .zip(&arms)
        .zip(wall_us)
        .map(|((n, (_, _, latency_us)), us)| {
            vec![n.to_string(), fmt_f(*latency_us, 2), fmt_f(us * 1e-6, 3)]
        })
        .collect();
    out.table(
        &["workers", "latency/sample (us)", "host wall time (s)"],
        &rows,
    );
    let _ = writeln!(out);
    out.metric("fleet.latency_us_per_sample", arms[0].2);
    out.oracle(
        "fleet.bit_identical",
        identical,
        "every worker count's summary bit-identical to the serial path",
    );
    out
}
