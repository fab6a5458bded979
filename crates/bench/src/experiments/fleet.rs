//! Fleet serving: wall-time scaling across simulated accelerator shards
//! (beyond the paper — the "heavy traffic" north star).
//!
//! One request queue, N cycle-accurate shards: per-sample modelled latency
//! is a property of one chip and must stay constant as the fleet grows,
//! while host wall time scales with the shard count. The experiment also
//! re-checks the bit-identical guarantee: every fleet size folds the
//! exact same [`SimulationSummary`](sparsenn_core::SimulationSummary) the
//! serial single-machine path produces.
//!
//! Modelled *throughput* is no longer reported here: the old
//! `shards / latency` expression is degenerate (no queueing, no
//! burstiness, no dispatch policy) and is superseded by the `serve`
//! experiment's virtual-time simulation
//! ([`experiments::serve`](super::serve)).

use crate::fmt_f;
use crate::report::Report;
use sparsenn_core::datasets::DatasetKind;
use sparsenn_core::model::fixedpoint::UvMode;
use sparsenn_core::{Profile, SystemBuilder, TrainedSystem, TrainingAlgorithm};
use std::fmt::Write as _;
use std::time::Instant;

const ORACLES: &[&str] = &["fleet.bit_identical"];

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

/// One measured fleet configuration.
#[derive(Clone, Copy, Debug)]
pub struct FleetPoint {
    /// Shards in the fleet.
    pub shards: usize,
    /// Mean modelled per-sample latency, microseconds (shard clock model).
    pub latency_us: f64,
    /// Host wall-clock seconds for the batch (simulation speed, not a
    /// modelled quantity).
    pub wall_s: f64,
}

/// Runs the fleet scaling study, training its own [`study_system`].
pub fn run(p: Profile) -> Report {
    measure_with(p, &study_system(p))
}

/// Runs the fleet scaling study on an already-trained system.
pub fn measure_with(p: Profile, sys: &TrainedSystem) -> Report {
    let dims = sys.network().mlp().dims();
    let batch = (p.sim_samples() * 4).min(sys.split().test.len());

    let serial = sys
        .session()
        .simulate_batch_serial(batch, UvMode::On)
        .expect("the study network fits the default machine");

    let mut points = Vec::new();
    let mut identical = true;
    for shards in [1usize, 2, 4, 8] {
        let session = sys
            .fleet_session(shards)
            .expect("shard counts are positive");
        let t = Instant::now();
        let summary = session
            .simulate_batch(batch, UvMode::On)
            .expect("the study network fits the default machine");
        let wall_s = t.elapsed().as_secs_f64();
        identical &= summary == serial;
        points.push(FleetPoint {
            shards,
            latency_us: summary.time_us(),
            wall_s,
        });
    }

    let mut out = Report::new(ORACLES);
    let _ = writeln!(
        out,
        "## Fleet serving — throughput/latency scaling across shards (profile: {p})\n"
    );
    let _ = writeln!(
        out,
        "{batch} samples, 3-layer [{}, {}, {}] network, one worker per shard. \
         Per-sample latency is one chip's clock model and must not change with \
         the fleet size. (Modelled serving throughput lives in the `serve` \
         experiment's virtual-time simulation, which supersedes the old \
         `shards / latency` figure.)\n",
        dims[0], dims[1], dims[2]
    );
    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|pt| {
            vec![
                pt.shards.to_string(),
                fmt_f(pt.latency_us, 2),
                fmt_f(pt.wall_s, 3),
            ]
        })
        .collect();
    out.table(
        &["shards", "latency/sample (us)", "host wall time (s)"],
        &rows,
    );
    let _ = writeln!(out);
    out.metric("fleet.latency_us_per_sample", points[0].latency_us);
    out.oracle(
        "fleet.bit_identical",
        identical,
        "all fleet summaries bit-identical to the serial single-machine path",
    );
    out
}
