//! Model parallelism: serving an MLP too big for one chip's W memory
//! (beyond the paper — the ROADMAP's weight-sharding gap).
//!
//! The study shrinks the per-chip W memory until the 3-layer study
//! network's first layer overflows a single chip (`Machine` rejects it
//! with the typed `WMemoryOverflow`), then serves the same network
//! through [`PartitionedMachine`] on 2/4/8 chips under all three
//! schedules — serialized, wavefront pipelined, and the
//! [`InterChipConfig::free`](sparsenn_core::partition::InterChipConfig::free)
//! no-comm ablation — reporting comm-inclusive latency/energy, the
//! comm overhead, and the pipeline speedup (how much of that overhead
//! the wavefront schedule hides). The bit-identity oracle — partitioned
//! outputs/masks equal the single big chip's — is re-checked on a
//! full-size chip and reported as a metric CI asserts on, as is the
//! overlap soundness flag (wavefront strictly faster, never below the
//! free bound, energy untouched).

use crate::fmt_f;
use crate::report::Report;
use sparsenn_core::datasets::DatasetKind;
use sparsenn_core::engine::{CycleAccurateBackend, InferenceBackend, PartitionedMachine};
use sparsenn_core::model::fixedpoint::UvMode;
use sparsenn_core::partition::{InterChipConfig, PipelineMode};
use sparsenn_core::sim::MachineConfig;
use sparsenn_core::{Profile, SparseNnError, SystemBuilder, TrainedSystem, TrainingAlgorithm};
use std::fmt::Write as _;

const ORACLES: &[&str] = &[
    "partition.single_chip_rejected",
    "partition.pipeline.overlap_sound",
    "partition.bit_identical",
];

/// A chip whose W memory holds exactly the 2-chip tile of a
/// `hidden × 784` first layer — so one chip rejects the network and two
/// carry it with no slack.
fn undersized_chip(hidden: usize) -> MachineConfig {
    let cfg = MachineConfig::default();
    let two_chip_tile_words = hidden.div_ceil(2).div_ceil(cfg.num_pes()) * 784;
    MachineConfig {
        w_mem_bytes: two_chip_tile_words * 2,
        ..cfg
    }
}

/// Trains the study system on the undersized chip.
pub fn study_system(p: Profile) -> TrainedSystem {
    SystemBuilder::new(DatasetKind::Basic)
        .dims(&[784, p.hidden(), 10])
        .rank(p.table_rank().min(8))
        .algorithm(TrainingAlgorithm::EndToEnd)
        .train_samples(p.hw_train_samples() / 2)
        .test_samples(p.test_samples())
        .epochs(2)
        .machine(undersized_chip(p.hidden()))
        .build()
}

/// Runs the partition study, training its own [`study_system`].
pub fn run(p: Profile) -> Report {
    measure_with(p, &study_system(p))
}

/// Runs the partition study on an already-trained (oversized) system.
pub fn measure_with(p: Profile, sys: &TrainedSystem) -> Report {
    let chip = *sys.machine().config();
    let dims = sys.network().mlp().dims();
    let batch = p.sim_samples().min(sys.split().test.len());
    let mut out = Report::new(ORACLES);
    let _ = writeln!(
        out,
        "## Model parallelism — an MLP bigger than one chip's W memory (profile: {p})\n"
    );

    // 1. One chip must reject the network with the typed overflow.
    let rejected = matches!(
        sys.session().simulate_batch(batch, UvMode::On),
        Err(SparseNnError::WMemoryOverflow { layer: 0, .. })
    );
    let cap = chip.w_capacity_words_per_pe();
    let need = dims[1].div_ceil(chip.num_pes()) * dims[0];
    out.oracle(
        "partition.single_chip_rejected",
        rejected,
        format_args!(
            "[{}, {}, {}] network on a chip with {cap} W words per PE (layer 0 needs {need}): \
             single-chip serving rejected with `WMemoryOverflow`",
            dims[0], dims[1], dims[2],
        ),
    );
    let _ = writeln!(out);

    // 2. The 2/4/8-chip sweep under all three schedules: serialized
    //    (broadcast + slowest chip + gather, end to end), wavefront
    //    (slice-granular overlap of comm with compute), and the
    //    free-link wavefront ablation (identical bits, zero transfer
    //    cost — the no-comm lower bound).
    let mut rows = Vec::new();
    let mut pipe_rows = Vec::new();
    let mut overlap_sound = true;
    for chips in [2usize, 4, 8] {
        let serve = |icc: InterChipConfig, pipeline: PipelineMode| {
            let backend =
                PartitionedMachine::with_pipeline(sys.fixed(), chip, chips, icc, pipeline)
                    .expect("the sweep sizes are plannable");
            sys.session_with(Box::new(backend))
                .simulate_batch(batch, UvMode::On)
                .expect("partitioned serving must complete")
        };
        let costed = serve(InterChipConfig::default(), PipelineMode::Serialized);
        let wavefront = serve(InterChipConfig::default(), PipelineMode::Wavefront);
        let free = serve(InterChipConfig::free(), PipelineMode::Wavefront);
        // The schema-4 comm metrics keep their PR-4 meaning: both terms
        // on the *serialized* schedule, so the difference is purely the
        // interconnect (the wavefront free run also harvests per-layer
        // drain slack, which is not communication).
        let free_serialized = serve(InterChipConfig::free(), PipelineMode::Serialized);
        let comm_us = costed.time_us() - free_serialized.time_us();
        let comm_pct = if costed.time_us() > 0.0 {
            100.0 * comm_us / costed.time_us()
        } else {
            0.0
        };
        rows.push(vec![
            chips.to_string(),
            fmt_f(costed.time_us(), 2),
            fmt_f(costed.energy_uj(), 2),
            fmt_f(comm_us, 2),
            fmt_f(comm_pct, 1),
        ]);
        out.metric(
            format!("partition.latency_us.{chips}chips"),
            costed.time_us(),
        );
        out.metric(
            format!("partition.energy_uj.{chips}chips"),
            costed.energy_uj(),
        );
        out.metric(
            format!("partition.comm_overhead_pct.{chips}chips"),
            comm_pct,
        );

        // Wavefront pipelining: how much of the comm overhead the
        // overlapped schedule hides. hidden% = share of the
        // serialized−free gap recovered by pipelining.
        let speedup = if wavefront.time_us() > 0.0 {
            costed.time_us() / wavefront.time_us()
        } else {
            1.0
        };
        let hidden_pct = if comm_us > 0.0 {
            100.0 * (costed.time_us() - wavefront.time_us()) / comm_us
        } else {
            0.0
        };
        overlap_sound &= wavefront.time_us() < costed.time_us()
            && wavefront.time_us() >= free.time_us() - 1e-9
            && wavefront.energy_uj() == costed.energy_uj();
        pipe_rows.push(vec![
            chips.to_string(),
            fmt_f(costed.time_us(), 2),
            fmt_f(wavefront.time_us(), 2),
            fmt_f(free.time_us(), 2),
            fmt_f(speedup, 3),
            fmt_f(hidden_pct, 1),
        ]);
        out.metric(
            format!("partition.pipeline.wavefront_latency_us.{chips}chips"),
            wavefront.time_us(),
        );
        out.metric(
            format!("partition.pipeline.free_latency_us.{chips}chips"),
            free.time_us(),
        );
        out.metric(format!("partition.pipeline.speedup.{chips}chips"), speedup);
        out.metric(
            format!("partition.pipeline.comm_hidden_pct.{chips}chips"),
            hidden_pct,
        );
    }
    let _ = writeln!(
        out,
        "{batch} samples, uv_on; latency/energy are comm-inclusive per-sample means \
         (serialized critical path = broadcast + slowest chip + gather; energy sums every \
         chip's events plus inter-chip flit-hops).\n"
    );
    out.table(
        &[
            "chips",
            "latency/sample (us)",
            "energy/sample (uJ)",
            "comm (us)",
            "comm overhead (%)",
        ],
        &rows,
    );

    let _ = writeln!(
        out,
        "\n### Wavefront pipelining\n\nPer-sample latency under the three schedules — \
         serialized, wavefront (slices cross the fabric as rows become final, layers start \
         on arrival), and the free-link lower bound. Outputs, masks and energy are \
         bit-identical across schedules; only time moves.\n"
    );
    out.table(
        &[
            "chips",
            "serialized (us)",
            "wavefront (us)",
            "free-link (us)",
            "speedup",
            "comm hidden (%)",
        ],
        &pipe_rows,
    );
    let _ = writeln!(out);
    out.oracle(
        "partition.pipeline.overlap_sound",
        overlap_sound,
        "wavefront strictly below serialized, never below free-link, energy identical",
    );

    // 3. Bit-identity oracle on a full-size chip (where a single machine
    //    can also hold the network).
    let big = MachineConfig::default();
    let single = CycleAccurateBackend::with_config(big);
    let partitioned = PartitionedMachine::new(sys.fixed(), big, 4, InterChipConfig::default())
        .expect("the default chip holds the study network");
    let mut identical = true;
    for i in 0..batch {
        let x = sys.fixed().quantize_input(sys.split().test.image(i));
        let a = single.run(sys.fixed(), &x, UvMode::On).expect("fits");
        let b = partitioned.run(sys.fixed(), &x, UvMode::On).expect("fits");
        identical &= a
            .layers
            .iter()
            .zip(&b.layers)
            .all(|(l, r)| l.output == r.output && l.mask == r.mask);
    }
    out.oracle(
        "partition.bit_identical",
        identical,
        format_args!(
            "on a full-size chip, 4-chip partitioned outputs and masks bit-identical to the \
             single machine over {batch} samples"
        ),
    );
    out
}
